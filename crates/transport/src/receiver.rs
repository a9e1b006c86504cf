//! The receiving half of the transport (§2.1): which life of a peer is
//! listened to, reassembly, exactly-once hand-up, and the one
//! acknowledgement a whole message draws.

use crate::ctx::{Ctx, Link};
use crate::dedup::DedupWindow;
use crate::events::TransportEvent;
use crate::frame::{FragSet, Frame, MAX_FRAGS};
use bytes::Bytes;
use raincore_types::{Incarnation, MsgId, NodeId, StateDigest};
use std::collections::BTreeMap;

#[derive(Debug)]
struct Reassembly {
    frags: Vec<Option<Bytes>>,
    /// How many slots of `frags` are `Some`.
    have: u32,
}

/// Everything this endpoint has heard and not yet handed up.
#[derive(Debug, Default)]
pub(crate) struct Receiver {
    /// Latest known incarnation and dedup window per peer. Ordered, like
    /// `reasm`, so that the state digest walks them as they are.
    dedup: BTreeMap<NodeId, (Incarnation, DedupWindow)>,
    reasm: BTreeMap<(NodeId, MsgId), Reassembly>,
}

impl Receiver {
    /// Takes one DATA frame that arrived on `link` (`data` is the decoded
    /// [`Frame::Data`]; the endpoint dispatches nothing else here).
    pub(crate) fn on_data(&mut self, cx: &mut Ctx, link: Link, data: Frame) {
        let Frame::Data {
            from,
            inc,
            msg_id,
            frag_index,
            frag_count,
            reliable,
            payload,
        } = data
        else {
            return;
        };
        if frag_count == 0 || frag_count > MAX_FRAGS || frag_index >= frag_count {
            return; // malformed
        }
        if !self.admit(cx, from, inc) {
            return;
        }
        let key = (from, msg_id);
        let delivered = |(_, seen): &(Incarnation, DedupWindow)| seen.contains(msg_id);
        let duplicate = self.dedup.get(&from).is_some_and(delivered);
        // A whole message in one datagram that no reassembly claims goes up
        // as it came, without a reassembly buffer or a copy.
        let mut whole = None;
        let complete = if duplicate {
            cx.stats.duplicates_dropped += 1;
            true
        } else if frag_count == 1 && !self.reasm.contains_key(&key) {
            whole = Some(payload);
            true
        } else {
            match self.store(key, frag_index, frag_count, payload) {
                Some(complete) => complete,
                None => return, // inconsistent frag_count across fragments — corrupt
            }
        };

        // An ack says "I hold the whole message", once, at once: for the
        // fragment that completes a reliable message, and again for any
        // fragment of one already delivered (our previous ack may have
        // been lost). It names every fragment and returns on the link the
        // data arrived on. A fragment of an incomplete message draws
        // nothing.
        if !reliable {
            cx.stats.acks_suppressed += 1;
        } else if complete {
            let ack = Frame::Ack {
                from: cx.id,
                inc,
                msg_id,
                frags: FragSet::first_n(frag_count),
            };
            cx.put(link, &ack);
        } else {
            cx.stats.ack_frags_coalesced += 1;
        }

        if complete && !duplicate {
            let whole = whole.or_else(|| self.reassemble(key));
            if let Some(payload) = whole {
                self.hand_up(cx, key, payload);
            }
        }
    }

    /// Incarnation admission: is `inc` the life of `from` we listen to?
    /// A newer one replaces it, and what the older left behind is void.
    fn admit(&mut self, cx: &mut Ctx, from: NodeId, inc: Incarnation) -> bool {
        let entry = self
            .dedup
            .entry(from)
            .or_insert_with(|| (inc, DedupWindow::new()));
        if inc < entry.0 {
            cx.stats.stale_dropped += 1;
            return false; // ghost of the peer's previous life — no ack
        }
        if inc > entry.0 {
            // Peer restarted: fresh dedup state, discard the partial
            // reassemblies of its previous life.
            *entry = (inc, DedupWindow::new());
            self.reasm.retain(|(n, _), _| *n != from);
            cx.peers.forget(from);
        }
        true
    }

    /// Files one fragment of the message `key`; true once every fragment
    /// is held, `None` if the frame disagrees with the message it joins.
    fn store(
        &mut self,
        key: (NodeId, MsgId),
        index: u32,
        count: u32,
        payload: Bytes,
    ) -> Option<bool> {
        let r = self.reasm.entry(key).or_insert_with(|| Reassembly {
            frags: vec![None; count as usize],
            have: 0,
        });
        if r.frags.len() != count as usize {
            return None;
        }
        let slot = &mut r.frags[index as usize];
        if slot.is_none() {
            *slot = Some(payload);
            r.have += 1;
        }
        Some(r.have == count)
    }

    /// Joins the fragments of the complete message `key`, leaving the
    /// reassembly table.
    fn reassemble(&mut self, key: (NodeId, MsgId)) -> Option<Bytes> {
        let r = self.reasm.remove(&key)?;
        let total: usize = r
            .frags
            .iter()
            .map(|f| f.as_ref().map_or(0, Bytes::len))
            .sum();
        let mut whole = Vec::with_capacity(total);
        for f in r.frags.into_iter().flatten() {
            whole.extend_from_slice(&f);
        }
        Some(Bytes::from(whole))
    }

    /// Hands the complete message `key` to the upper layer, exactly once.
    fn hand_up(&mut self, cx: &mut Ctx, key: (NodeId, MsgId), payload: Bytes) {
        let (from, msg_id) = key;
        if let Some(entry) = self.dedup.get_mut(&from) {
            entry.1.insert(msg_id);
        }
        cx.stats.msgs_received += 1;
        cx.events
            .push_back(TransportEvent::Received { from, payload });
    }

    /// Reassembly buffers enter through [`StateDigest::wire_payload`].
    pub(crate) fn digest_into(&self, d: &mut StateDigest) {
        d.write_len(self.dedup.len());
        for (id, (inc, window)) in &self.dedup {
            d.node(*id);
            d.write_u64(inc.0.into());
            window.digest_into(d);
        }
        d.write_len(self.reasm.len());
        for ((from, msg_id), r) in &self.reasm {
            d.node(*from);
            d.write_u64(msg_id.0);
            d.write_len(r.have as usize);
            d.write_len(r.frags.len());
            for f in &r.frags {
                d.opt(f.as_ref(), |d, b| d.wire_payload(b));
            }
        }
    }
}

#[cfg(test)]
mod tests;

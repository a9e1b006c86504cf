//! The receiving half of the transport (§2.1): which life of a peer is
//! listened to, reassembly, exactly-once hand-up, and the
//! acknowledgements owed for what arrived.

use crate::ctx::{digest_addr, Ctx, Link};
use crate::dedup::DedupWindow;
use crate::events::TransportEvent;
use crate::frame::{FragSet, Frame, MAX_FRAGS};
use bytes::Bytes;
use raincore_types::{Incarnation, MsgId, NodeId, StateDigest};
use std::collections::BTreeMap;

#[derive(Debug)]
struct Reassembly {
    frags: Vec<Option<Bytes>>,
    /// The indices of the `Some` slots of `frags`: what an ack names.
    have: FragSet,
}

/// An acknowledgement owed to a reliable message.
#[derive(Debug)]
struct AckDue {
    /// The link the data arrived on, which is the link the ack returns on.
    link: Link,
    from: NodeId,
    /// The sender's incarnation, echoed back.
    inc: Incarnation,
    msg_id: MsgId,
    /// Every fragment of the message held when its latest frame arrived.
    frags: FragSet,
    /// DATA frames this ack answers (statistics only).
    answers: u64,
}

impl AckDue {
    fn send(self, cx: &mut Ctx) {
        let ack = Frame::Ack {
            from: cx.id,
            inc: self.inc,
            msg_id: self.msg_id,
            frags: self.frags,
        };
        cx.put(self.link, &ack);
    }
}

/// The acknowledgements owed to multi-fragment messages. They wait for
/// the driver's next drain, so every fragment fed in before that drain
/// shares one ACK datagram.
#[derive(Debug, Default)]
pub(crate) struct AckLedger {
    /// One entry per (link, sender incarnation, message), in arrival
    /// order; a burst touches a handful of messages, so a scan finds it.
    due: Vec<AckDue>,
}

impl AckLedger {
    /// Parks `ack`, or folds it into the one already owed to the same
    /// message on the same link.
    fn park(&mut self, ack: AckDue) {
        let owed = self
            .due
            .iter_mut()
            .find(|a| a.msg_id == ack.msg_id && a.from == ack.from && a.link == ack.link);
        match owed {
            Some(owed) => {
                owed.frags = ack.frags;
                owed.answers += 1;
            }
            None => self.due.push(ack),
        }
    }

    /// True while an acknowledgement waits for [`AckLedger::release`].
    pub(crate) fn is_owed(&self) -> bool {
        !self.due.is_empty()
    }

    /// Puts every owed acknowledgement on the wire: one per message and
    /// link, however many fragments arrived.
    pub(crate) fn release(&mut self, cx: &mut Ctx) {
        for a in self.due.drain(..) {
            cx.stats.ack_frags_coalesced += a.answers - 1;
            a.send(cx);
        }
    }
}

/// Everything this endpoint has heard and not yet handed up or answered.
#[derive(Debug, Default)]
pub(crate) struct Receiver {
    /// Latest known incarnation and dedup window per peer. Ordered, like
    /// `reasm`, so that the state digest walks them as they are.
    dedup: BTreeMap<NodeId, (Incarnation, DedupWindow)>,
    reasm: BTreeMap<(NodeId, MsgId), Reassembly>,
    pub(crate) acks: AckLedger,
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

        // Reliable current-incarnation data is always acknowledged, even
        // duplicates: our previous ack may have been lost. The ack names
        // every fragment of the message held so far and returns on the
        // link the data arrived on.
        if reliable {
            let ack = AckDue {
                link,
                from,
                inc,
                msg_id,
                frags: match self.reasm.get(&key) {
                    Some(r) if !complete => r.have.clone(),
                    _ => FragSet::first_n(frag_count),
                },
                answers: 1,
            };
            if frag_count == 1 {
                // A whole message in one datagram (every token that fits
                // the MTU): nothing to wait for, acknowledge at once.
                ack.send(cx);
            } else {
                self.acks.park(ack);
            }
        } else {
            cx.stats.acks_suppressed += 1;
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
            // Peer restarted: fresh dedup state, discard partial
            // reassemblies and the acks its previous life was owed.
            *entry = (inc, DedupWindow::new());
            self.reasm.retain(|(n, _), _| *n != from);
            self.acks.due.retain(|a| a.from != from);
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
            have: FragSet::new(),
        });
        if r.frags.len() != count as usize {
            return None;
        }
        let slot = &mut r.frags[index as usize];
        if slot.is_none() {
            *slot = Some(payload);
            r.have.insert(index);
        }
        Some(r.have.len() == count)
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
    /// Owed acks are normally released between model-checker steps, but
    /// are digested fully so an undrained ledger can never merge two
    /// genuinely different states.
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
            d.write_len(r.have.len() as usize);
            d.write_len(r.frags.len());
            for f in &r.frags {
                d.opt(f.as_ref(), |d, b| d.wire_payload(b));
            }
        }
        d.write_len(self.acks.due.len());
        for a in &self.acks.due {
            digest_addr(a.link.ours, d);
            digest_addr(a.link.theirs, d);
            d.node(a.from);
            d.write_u64(a.inc.0.into());
            d.write_u64(a.msg_id.0);
            a.frags.digest_into(d);
        }
    }
}

#[cfg(test)]
mod tests;

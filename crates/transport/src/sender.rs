//! The sending half of the transport (§2.1): fragmentation, transmission
//! over the peer's addresses per [`SendStrategy`], retransmission,
//! acknowledgement matching and the failure-on-delivery verdict.

use crate::ctx::Ctx;
use crate::events::TransportEvent;
use crate::frame::{FragSet, Frame};
use bytes::Bytes;
use raincore_net::Addr;
use raincore_types::config::SendStrategy;
use raincore_types::{Error, MsgId, NodeId, Result, StateDigest, Time};
use std::collections::{BTreeMap, VecDeque};

/// Messages given up on that a late acknowledgement is still matched
/// against.
const GAVE_UP_MEMORY: usize = 32;

#[derive(Debug)]
struct PendingSend {
    to: NodeId,
    frags: Vec<Bytes>,
    /// Index into the peer's address list (sequential strategy).
    addr_index: usize,
    /// Transmissions performed at the current address (sequential) or in
    /// total (parallel).
    attempts: u32,
    next_retry: Time,
    /// When the message was accepted (for RTT/failure latency
    /// histograms).
    sent_at: Time,
}

impl PendingSend {
    /// Karn's rule: only the acknowledgement of a message that went out
    /// exactly once says how long the round trip took.
    fn samples_rtt(&self) -> bool {
        self.attempts == 1 && self.addr_index == 0
    }

    /// True if an acknowledgement naming `named` says the peer holds the
    /// whole message: every fragment of it is in the set. The set is the
    /// peer's word, so only the message's own fragments are looked up.
    fn is_whole(&self, named: &FragSet) -> bool {
        (0..self.frags.len() as u32).all(|i| named.contains(i))
    }

    /// Moves on to the next transmission once a timeout has passed
    /// unanswered; false when every try on every address is spent.
    fn next_attempt(&mut self, cx: &Ctx) -> bool {
        let n_addrs = cx.peers.addrs(self.to).map_or(0, <[Addr]>::len);
        if n_addrs == 0 {
            return false; // peer vanished from the table mid-send
        }
        if self.attempts >= cx.cfg.max_retries {
            match cx.cfg.strategy {
                // Parallel already uses every address each attempt.
                SendStrategy::Parallel => return false,
                SendStrategy::Sequential => {
                    self.addr_index += 1;
                    self.attempts = 0;
                    if self.addr_index >= n_addrs {
                        return false;
                    }
                }
            }
        }
        self.attempts += 1;
        true
    }

    /// Puts every fragment on the wire: to the current address
    /// (sequential) or to all of them (parallel).
    fn transmit(&self, cx: &mut Ctx, msg_id: MsgId, reliable: bool) {
        let n_addrs = cx.peers.addrs(self.to).map_or(0, <[Addr]>::len);
        let last = n_addrs.saturating_sub(1);
        let targets = match cx.cfg.strategy {
            SendStrategy::Sequential => {
                let i = self.addr_index.min(last);
                i..=i
            }
            SendStrategy::Parallel => 0..=last,
        };
        for k in targets {
            let Some(link) = cx.link(self.to, k) else {
                return; // no such peer any more
            };
            for (i, frag) in self.frags.iter().enumerate() {
                let frame = Frame::Data {
                    from: cx.id,
                    inc: cx.inc,
                    msg_id,
                    frag_index: i as u32,
                    frag_count: self.frags.len() as u32,
                    reliable,
                    payload: frag.clone(),
                };
                cx.put(link, &frame);
            }
        }
    }
}

/// Every message this endpoint has sent and not yet heard the end of.
#[derive(Debug, Default)]
pub(crate) struct Sender {
    next_msg_id: u64,
    pending: BTreeMap<MsgId, PendingSend>,
    /// The last few messages given up on, so that an acknowledgement that
    /// still arrives for one is known for what it is (observability only).
    gave_up_on: VecDeque<(MsgId, NodeId)>,
}

impl Sender {
    /// Allocates a message id, fragments `payload` and puts every
    /// fragment on the wire once. A reliable message then stays pending,
    /// armed with the peer's timeout, until it is acknowledged, given up
    /// on or aborted; of a fire-and-forget one nothing is kept, so there
    /// are no retries and no failure notification.
    pub(crate) fn send(
        &mut self,
        cx: &mut Ctx,
        now: Time,
        to: NodeId,
        payload: Bytes,
        reliable: bool,
    ) -> Result<MsgId> {
        if cx.peers.addrs(to).is_none_or(<[Addr]>::is_empty) {
            return Err(Error::UnknownNode(to));
        }
        let msg_id = MsgId(self.next_msg_id);
        self.next_msg_id += 1;

        let chunk = cx.cfg.mtu;
        let frags: Vec<Bytes> = if payload.is_empty() {
            vec![Bytes::new()]
        } else {
            (0..payload.len())
                .step_by(chunk)
                .map(|off| payload.slice(off..payload.len().min(off + chunk)))
                .collect()
        };
        let mut p = PendingSend {
            to,
            frags,
            addr_index: 0,
            attempts: 1,
            next_retry: now,
            sent_at: now,
        };
        p.transmit(cx, msg_id, reliable);
        if reliable {
            p.next_retry = now + cx.arm_rto(to);
            cx.stats.msgs_sent += 1;
            self.pending.insert(msg_id, p);
        } else {
            cx.stats.unreliable_sent += 1;
        }
        Ok(msg_id)
    }

    /// Abandons an in-flight send without a failure notification.
    pub(crate) fn abort(&mut self, msg_id: MsgId) -> bool {
        self.pending.remove(&msg_id).is_some()
    }

    pub(crate) fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// An acknowledgement arrived: `from` says it holds `frags` of the
    /// message `msg_id` sent by our incarnation `inc`. Only the node the
    /// message was sent to is believed, and only when the set names the
    /// whole message. (`ack` is the decoded [`Frame::Ack`]; the endpoint
    /// dispatches nothing else here.)
    pub(crate) fn on_ack(&mut self, cx: &mut Ctx, now: Time, ack: Frame) {
        let Frame::Ack {
            from,
            inc,
            msg_id,
            frags,
        } = ack
        else {
            return;
        };
        if inc != cx.inc {
            cx.stats.stale_dropped += 1;
            return; // ack for a previous life of this node
        }
        let Some(p) = self.pending.get(&msg_id).filter(|p| p.to == from) else {
            // Already completed (late duplicate ack), aborted, never
            // awaiting one (fire-and-forget) or not this node's to give:
            // nothing to complete, nothing kept.
            cx.stats.acks_unmatched += 1;
            let gave_up = self.gave_up_on.iter().position(|&m| m == (msg_id, from));
            if gave_up.and_then(|i| self.gave_up_on.remove(i)).is_some() {
                let to = from;
                cx.events
                    .push_back(TransportEvent::FailureRefuted { msg_id, to });
            }
            return;
        };
        if !p.is_whole(&frags) {
            cx.stats.acks_unmatched += 1;
            return; // a part of the message completes nothing
        }
        let Some(p) = self.pending.remove(&msg_id) else {
            return;
        };
        cx.stats.msgs_delivered += 1;
        let took = now.since(p.sent_at).as_nanos();
        cx.obs.rtt.record(took);
        if p.samples_rtt() {
            cx.peers.sample(p.to, took);
        }
        cx.events
            .push_back(TransportEvent::Delivered { msg_id, to: p.to });
    }

    /// Advances the retransmission machinery to `now`.
    pub(crate) fn on_tick(&mut self, cx: &mut Ctx, now: Time) {
        let due: Vec<MsgId> = self
            .pending
            .iter()
            .filter(|(_, p)| p.next_retry <= now)
            .map(|(&id, _)| id)
            .collect();
        for msg_id in due {
            let Some(p) = self.pending.get_mut(&msg_id) else {
                continue;
            };
            if p.next_attempt(cx) {
                cx.stats.retransmissions += 1;
                p.next_retry = now + cx.arm_rto(p.to);
                p.transmit(cx, msg_id, true);
            } else if let Some(p) = self.pending.remove(&msg_id) {
                self.give_up(cx, now, msg_id, &p);
            }
        }
    }

    /// All sending efforts failed: the failure-on-delivery verdict.
    fn give_up(&mut self, cx: &mut Ctx, now: Time, msg_id: MsgId, p: &PendingSend) {
        cx.stats.msgs_failed += 1;
        cx.peers.forget(p.to);
        if self.gave_up_on.len() == GAVE_UP_MEMORY {
            self.gave_up_on.pop_front();
        }
        self.gave_up_on.push_back((msg_id, p.to));
        let took = now.since(p.sent_at).as_nanos();
        cx.obs.failure_latency.record(took);
        let to = p.to;
        cx.events
            .push_back(TransportEvent::DeliveryFailed { msg_id, to });
    }

    /// Earliest time at which [`Sender::on_tick`] has work to do.
    pub(crate) fn next_wakeup(&self) -> Option<Time> {
        self.pending.values().map(|p| p.next_retry).min()
    }

    /// Fragment bytes enter through [`StateDigest::wire_payload`];
    /// `sent_at` and `gave_up_on` are observability only and stay out.
    pub(crate) fn digest_into(&self, now: Time, d: &mut StateDigest) {
        d.write_u64(self.next_msg_id);
        d.write_len(self.pending.len());
        for (msg_id, p) in &self.pending {
            d.write_u64(msg_id.0);
            d.node(p.to);
            d.write_len(p.addr_index);
            d.write_u32(p.attempts);
            d.time_rel(p.next_retry, now);
            d.write_len(p.frags.len());
            for f in &p.frags {
                d.wire_payload(f);
            }
        }
    }
}

#[cfg(test)]
mod tests;

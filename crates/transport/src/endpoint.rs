//! The transport endpoint state machine.
//!
//! One [`Endpoint`] lives on each node. It is sans-io: the driver (the
//! deterministic simulator or the UDP runtime) feeds it received datagrams
//! via [`Endpoint::on_datagram`] and the current time via
//! [`Endpoint::on_tick`], and drains outgoing datagrams
//! ([`Endpoint::poll_outgoing`]) and upper-layer events
//! ([`Endpoint::poll_event`]).
//!
//! The endpoint itself is a composer: identity, the peer table, the two
//! output queues and the counters are its own (`ctx::Ctx`), and the
//! protocol lives in `sender::Sender` and `receiver::Receiver`, which
//! borrow that state for one call at a time (DESIGN.md §5.2).

use crate::ctx::{digest_addr, Ctx, Link};
pub use crate::events::{TransportEvent, TransportObs, TransportStats};
use crate::frame::Frame;
pub use crate::peers::{PeerTable, MIN_RTO};
use crate::receiver::Receiver;
use crate::sender::Sender;
use bytes::Bytes;
use raincore_net::{Addr, Datagram, PacketClass};
use raincore_types::config::SendStrategy;
use raincore_types::wire::WireDecode;
use raincore_types::{
    Duration, Error, Incarnation, MsgId, NodeId, Result, StateDigest, Time, TransportConfig,
};
use std::collections::VecDeque;

/// The per-node transport endpoint. See the crate docs for semantics.
#[derive(Debug)]
pub struct Endpoint {
    /// Identity, peer table, output queues and counters: what the two
    /// components below borrow.
    cx: Ctx,
    sender: Sender,
    receiver: Receiver,
}

impl Endpoint {
    /// Creates an endpoint for node `id` at incarnation `inc` with the
    /// given local addresses (one per NIC; must be non-empty).
    pub fn new(
        id: NodeId,
        inc: Incarnation,
        local_addrs: Vec<Addr>,
        peers: PeerTable,
        cfg: TransportConfig,
    ) -> Result<Self> {
        cfg.validate().map_err(Error::Config)?;
        if local_addrs.is_empty() {
            return Err(Error::Config("endpoint needs at least one local address"));
        }
        let cx = Ctx {
            id,
            inc,
            cfg,
            local_addrs,
            peers,
            outbox: VecDeque::new(),
            events: VecDeque::new(),
            stats: TransportStats::default(),
            obs: TransportObs::default(),
        };
        Ok(Endpoint {
            cx,
            sender: Sender::default(),
            receiver: Receiver::default(),
        })
    }

    /// This endpoint's node id.
    pub fn id(&self) -> NodeId {
        self.cx.id
    }

    /// This endpoint's incarnation.
    pub fn incarnation(&self) -> Incarnation {
        self.cx.inc
    }

    /// Largest payload one datagram carries; longer messages fragment.
    pub fn mtu(&self) -> usize {
        self.cx.cfg.mtu
    }

    /// How long a message sent to `peer` now would be tried before the
    /// failure-on-delivery verdict: the timeout armed for that peer, once
    /// per try, on every address the strategy walks.
    pub fn give_up_budget(&self, peer: NodeId) -> Duration {
        let cfg = &self.cx.cfg;
        let walked = match cfg.strategy {
            SendStrategy::Sequential => self.cx.peers.addrs(peer).map_or(1, <[Addr]>::len),
            SendStrategy::Parallel => 1,
        };
        self.cx
            .peers
            .rto(peer, cfg.retry_timeout)
            .saturating_mul(u64::from(cfg.max_retries) * walked.max(1) as u64)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> TransportStats {
        self.cx.stats
    }

    /// Latency histograms (RTT, failure-detection latency).
    pub fn obs(&self) -> &TransportObs {
        &self.cx.obs
    }

    /// Feeds every behavior-relevant piece of endpoint state into a
    /// model-checker state digest: identity, then each component's slice
    /// (sender, armed timeouts, receiver), then the two output queues.
    ///
    /// Upper-layer payload bytes (message fragments, reassembly buffers,
    /// queued events) enter through [`StateDigest::wire_payload`].
    /// Deliberately excluded: `cfg`/peer addresses (constant over a model
    /// run) and `stats`/`obs` (observability only — they never feed back
    /// into protocol behavior); each component says what else it leaves
    /// out.
    pub fn digest_into(&self, now: Time, d: &mut StateDigest) {
        d.node(self.cx.id);
        d.write_u64(self.cx.inc.0.into());
        d.write_len(self.cx.local_addrs.len());
        for &a in &self.cx.local_addrs {
            digest_addr(a, d);
        }
        self.sender.digest_into(now, d);
        self.cx.peers.digest_into(self.cx.cfg.retry_timeout, d);
        self.receiver.digest_into(d);
        // Outbox and event queue are normally drained between
        // model-checker steps, but digest them fully so an undrained queue
        // can never merge two genuinely different states.
        d.write_len(self.cx.outbox.len());
        for dg in &self.cx.outbox {
            digest_addr(dg.src, d);
            digest_addr(dg.dst, d);
            d.write_u8(matches!(dg.class, PacketClass::Data) as u8);
            d.wire_payload(&dg.payload);
        }
        d.write_len(self.cx.events.len());
        for ev in &self.cx.events {
            ev.digest_into(d);
        }
    }

    /// Mutable access to the peer table (e.g. to learn a joiner's
    /// addresses at runtime).
    pub fn peers_mut(&mut self) -> &mut PeerTable {
        &mut self.cx.peers
    }

    /// Read access to the peer table.
    pub fn peers(&self) -> &PeerTable {
        &self.cx.peers
    }

    /// Sends `payload` reliably and atomically to `to`. Returns the
    /// message id; completion is reported later as
    /// [`TransportEvent::Delivered`] or [`TransportEvent::DeliveryFailed`].
    pub fn send(&mut self, now: Time, to: NodeId, payload: Bytes) -> Result<MsgId> {
        self.sender.send(&mut self.cx, now, to, payload, true)
    }

    /// Sends `payload` to `to` *unreliably*: identical fragmentation and
    /// framing to [`Endpoint::send`], but fire-and-forget — the frames
    /// clear the reliability bit, so the receiver sends no
    /// acknowledgement, and no retransmission state is kept, so neither
    /// [`TransportEvent::Delivered`] nor
    /// [`TransportEvent::DeliveryFailed`] is ever reported for it.
    ///
    /// This is the dissemination path for out-of-band bulk payloads: the
    /// session layer recovers losses end-to-end by NACK-pulling against
    /// the token's id manifest, and a lost bulk frame must *not* feed the
    /// failure-on-delivery detector (losing best-effort bulk traffic is
    /// not evidence the peer is down).
    pub fn send_unreliable(&mut self, now: Time, to: NodeId, payload: Bytes) -> Result<MsgId> {
        self.sender.send(&mut self.cx, now, to, payload, false)
    }

    /// Abandons an in-flight send without a failure notification (used
    /// when the upper layer has already decided the peer is gone).
    pub fn abort(&mut self, msg_id: MsgId) -> bool {
        self.sender.abort(msg_id)
    }

    /// Number of in-flight (unacknowledged) messages.
    pub fn in_flight(&self) -> usize {
        self.sender.in_flight()
    }

    /// Feeds a received datagram into the endpoint. Undecodable payloads
    /// are dropped silently (like garbage on a UDP port).
    pub fn on_datagram(&mut self, now: Time, dgram: Datagram) {
        let Ok(frame) = Frame::decode_from_bytes(&dgram.payload) else {
            return;
        };
        let link = Link {
            ours: dgram.dst,
            theirs: dgram.src,
        };
        match frame {
            Frame::Data { .. } => self.receiver.on_data(&mut self.cx, link, frame),
            Frame::Ack { .. } => self.sender.on_ack(&mut self.cx, now, frame),
        }
    }

    /// Advances the retransmission machinery to `now`.
    pub fn on_tick(&mut self, now: Time) {
        self.sender.on_tick(&mut self.cx, now);
    }

    /// Earliest time at which [`Endpoint::on_tick`] has work to do.
    pub fn next_wakeup(&self) -> Option<Time> {
        self.sender.next_wakeup()
    }

    /// Drains one outgoing datagram, if any. The first call after
    /// datagrams were fed in also releases the acknowledgements they are
    /// owed: one per message and link, however many fragments arrived.
    pub fn poll_outgoing(&mut self) -> Option<Datagram> {
        self.receiver.acks.release(&mut self.cx);
        self.cx.outbox.pop_front()
    }

    /// Drains one upper-layer event, if any.
    pub fn poll_event(&mut self) -> Option<TransportEvent> {
        self.cx.events.pop_front()
    }
}

#[cfg(test)]
mod tests;

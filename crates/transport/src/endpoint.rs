//! The transport endpoint state machine.
//!
//! One [`Endpoint`] lives on each node. It is sans-io: the driver (the
//! deterministic simulator or the UDP runtime) feeds it received datagrams
//! via [`Endpoint::on_datagram`] and the current time via
//! [`Endpoint::on_tick`], and drains outgoing datagrams
//! ([`Endpoint::poll_outgoing`]) and upper-layer events
//! ([`Endpoint::poll_event`]).

use crate::dedup::DedupWindow;
use crate::frame::{FragSet, Frame, MAX_FRAGS};
use bytes::Bytes;
use raincore_net::{Addr, Datagram, PacketClass};
use raincore_types::config::SendStrategy;
use raincore_types::wire::{WireDecode, WireEncode};
use raincore_types::{
    Duration, Error, Incarnation, MsgId, NodeId, Result, StateDigest, Time, TransportConfig,
};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Events surfaced to the session layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransportEvent {
    /// The destination acknowledged every fragment: the message is
    /// delivered (atomically — the peer has the whole message).
    Delivered {
        /// Id returned by [`Endpoint::send`].
        msg_id: MsgId,
        /// Destination node.
        to: NodeId,
    },
    /// All sending efforts failed: every configured retry on every
    /// physical address went unacknowledged. This is the paper's
    /// *failure-on-delivery* notification — the session layer treats it
    /// as a local-view failure detection of `to` (§2.2).
    DeliveryFailed {
        /// Id returned by [`Endpoint::send`].
        msg_id: MsgId,
        /// Destination node now suspected failed/disconnected.
        to: NodeId,
    },
    /// An acknowledgement arrived for a message already reported as
    /// [`TransportEvent::DeliveryFailed`]: the peer had it all along, and
    /// was slower than the timeouts were patient. A dead or unreachable
    /// peer never causes this; it is the proof of a false alarm.
    FailureRefuted {
        /// The message whose failure was reported.
        msg_id: MsgId,
        /// The peer that was given up on.
        to: NodeId,
    },
    /// A complete message arrived from a peer (exactly-once).
    Received {
        /// Originating node.
        from: NodeId,
        /// The reassembled payload.
        payload: Bytes,
    },
}

/// The floor of the adaptive retransmission timeout. On a LAN the
/// estimator reads tens of microseconds; what a timeout must still ride
/// out there is the peer's thread waiting for a CPU, not the wire: the
/// worst acknowledgement delay of fifteen loaded runs beside a CPU hog
/// was 12.1 ms. What it does not ride out is the host taking the whole
/// process off the CPU for 20–500 ms, which a fixed 50 ms does not
/// either: over 150 calm runs a side, a retransmission in 5 with this
/// floor and in 7 without (DESIGN.md §17.2). Everything slower than the
/// floor is the estimator's.
pub const MIN_RTO: Duration = Duration::from_millis(16);

/// Messages given up on that a late acknowledgement is still matched
/// against.
const GAVE_UP_MEMORY: usize = 32;

/// Smoothed round-trip estimate to one peer: RFC 6298 §2 in integer
/// nanoseconds, gains 1/8 (srtt) and 1/4 (rttvar).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct RttEstimate {
    srtt: u64,
    rttvar: u64,
}

impl RttEstimate {
    fn first(sample: u64) -> Self {
        RttEstimate {
            srtt: sample,
            rttvar: sample / 2,
        }
    }

    fn update(&mut self, sample: u64) {
        let err = self.srtt.abs_diff(sample);
        self.rttvar = self.rttvar - self.rttvar / 4 + err / 4;
        self.srtt = self.srtt - self.srtt / 8 + sample / 8;
    }

    /// `srtt + 4·rttvar` rounded up to whole milliseconds (the grid the
    /// drivers' timers run on), before the floor and the ceiling.
    fn timeout(&self) -> Duration {
        let ns = self.srtt.saturating_add(self.rttvar.saturating_mul(4));
        Duration::from_millis(ns.div_ceil(1_000_000))
    }
}

#[derive(Clone, Debug, Default)]
struct Peer {
    addrs: Vec<Addr>,
    /// `None` until an acknowledgement of a never-retransmitted message
    /// has been timed (Karn's rule): a cold peer.
    rtt: Option<RttEstimate>,
}

/// Addresses of every peer this endpoint may talk to, and what it has
/// measured of the way there.
///
/// Each node can expose several physical addresses (§2.1); the order of
/// the address list is the order the [`SendStrategy::Sequential`] walk
/// tries them in. The round-trip estimate lives and dies with the entry:
/// [`PeerTable::set`] and [`PeerTable::remove`] forget it, since a new
/// address list is a new path. So do a new incarnation of the peer and a
/// failure-on-delivery to it.
#[derive(Clone, Debug, Default)]
pub struct PeerTable {
    /// Ordered, so that the state digest walks it as it is.
    map: BTreeMap<NodeId, Peer>,
}

impl PeerTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// A table where every node in `nodes` has `nics` addresses
    /// (`Addr { node, nic 0..nics }`) — the simulator's convention.
    pub fn full_mesh(nodes: impl IntoIterator<Item = NodeId>, nics: u8) -> Self {
        let mut t = PeerTable::new();
        for n in nodes {
            t.set(n, (0..nics.max(1)).map(|k| Addr::new(n, k)).collect());
        }
        t
    }

    /// Sets (replaces) a peer's address list.
    pub fn set(&mut self, node: NodeId, addrs: Vec<Addr>) {
        self.map.insert(node, Peer { addrs, rtt: None });
    }

    /// Removes a peer entirely.
    pub fn remove(&mut self, node: NodeId) {
        self.map.remove(&node);
    }

    /// The peer's addresses, if known.
    pub fn addrs(&self, node: NodeId) -> Option<&[Addr]> {
        self.map.get(&node).map(|p| p.addrs.as_slice())
    }

    fn rtt_mut(&mut self, node: NodeId) -> Option<&mut Option<RttEstimate>> {
        self.map.get_mut(&node).map(|p| &mut p.rtt)
    }

    /// Number of known peers.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no peers are known.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Counters exposed for tests and experiments.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Logical messages accepted by [`Endpoint::send`]. With
    /// `msgs_delivered`, `msgs_failed` and aborted sends this accounts for
    /// every message in flight; fire-and-forget sends are counted apart.
    pub msgs_sent: u64,
    /// Logical messages accepted by [`Endpoint::send_unreliable`].
    pub unreliable_sent: u64,
    /// Messages fully acknowledged.
    pub msgs_delivered: u64,
    /// Messages that ended in failure-on-delivery.
    pub msgs_failed: u64,
    /// Complete messages handed to the upper layer.
    pub msgs_received: u64,
    /// DATA frames put on the wire (including retransmissions).
    pub data_frames_sent: u64,
    /// ACK frames put on the wire.
    pub acks_sent: u64,
    /// Fire-and-forget DATA frames received, none of which is acknowledged.
    pub acks_suppressed: u64,
    /// Reliable DATA frames that shared an ACK with an earlier frame of
    /// their message instead of getting a datagram of their own.
    pub ack_frags_coalesced: u64,
    /// ACKs that matched no in-flight message: late duplicates, and acks
    /// nobody asked for.
    pub acks_unmatched: u64,
    /// DATA frame retransmissions.
    pub retransmissions: u64,
    /// Duplicate logical messages suppressed.
    pub duplicates_dropped: u64,
    /// Frames dropped because they carried a stale incarnation.
    pub stale_dropped: u64,
}

impl TransportStats {
    /// Every counter as a `(name, value)` pair, for metric export
    /// (`raincore_transport_<name>`).
    pub fn fields(&self) -> [(&'static str, u64); 13] {
        [
            ("msgs_sent", self.msgs_sent),
            ("unreliable_sent", self.unreliable_sent),
            ("msgs_delivered", self.msgs_delivered),
            ("msgs_failed", self.msgs_failed),
            ("msgs_received", self.msgs_received),
            ("data_frames_sent", self.data_frames_sent),
            ("acks_sent", self.acks_sent),
            ("acks_suppressed", self.acks_suppressed),
            ("ack_frags_coalesced", self.ack_frags_coalesced),
            ("acks_unmatched", self.acks_unmatched),
            ("retransmissions", self.retransmissions),
            ("duplicates_dropped", self.duplicates_dropped),
            ("stale_dropped", self.stale_dropped),
        ]
    }
}

/// Latency histograms maintained by the endpoint. The handles share their
/// buckets when cloned, so a harness can attach them to a
/// [`raincore_obs::Registry`] once and read percentiles thereafter.
#[derive(Clone, Debug, Default)]
pub struct TransportObs {
    /// [`Endpoint::send`] → final fragment acknowledged: the full-message
    /// completion latency, including any retransmissions and link
    /// failovers. The retransmission timer is never fed from it — its
    /// estimator takes only never-retransmitted messages (Karn's rule).
    pub rtt: raincore_obs::Histogram,
    /// Every retransmission timeout actually armed: the per-peer
    /// `srtt + 4·rttvar`, no lower than [`MIN_RTO`] and no higher than
    /// `retry_timeout` — which is also what a cold peer gets.
    pub rto: raincore_obs::Histogram,
    /// [`Endpoint::send`] → failure-on-delivery notification: how long the
    /// local-view failure detector took to give up on the peer.
    pub failure_latency: raincore_obs::Histogram,
}

#[derive(Debug)]
struct PendingSend {
    to: NodeId,
    frags: Vec<Bytes>,
    acked: Vec<bool>,
    /// Index into the peer's address list (sequential strategy).
    addr_index: usize,
    /// Transmissions performed at the current address (sequential) or in
    /// total (parallel).
    attempts: u32,
    next_retry: Time,
    /// When [`Endpoint::send`] accepted the message (for RTT/failure
    /// latency histograms).
    sent_at: Time,
}

impl PendingSend {
    /// Karn's rule: only the acknowledgement of a message that went out
    /// exactly once says how long the round trip took.
    fn samples_rtt(&self) -> bool {
        self.attempts == 1 && self.addr_index == 0
    }
}

#[derive(Debug)]
struct Reassembly {
    frags: Vec<Option<Bytes>>,
    /// The indices of the `Some` slots of `frags`: what an ack names.
    have: FragSet,
}

/// An acknowledgement owed to a multi-fragment reliable message. It waits
/// for the driver's next [`Endpoint::poll_outgoing`] drain, so every
/// fragment fed in before that drain shares one ACK datagram.
#[derive(Debug)]
struct AckDue {
    /// The link the data arrived on — our address, then the sender's —
    /// which is the link the ack returns on.
    src: Addr,
    dst: Addr,
    from: NodeId,
    /// The sender's incarnation, echoed back.
    inc: Incarnation,
    msg_id: MsgId,
    /// Every fragment of the message held when its latest frame arrived.
    frags: FragSet,
    /// DATA frames this ack answers (statistics only).
    answers: u64,
}

/// The per-node transport endpoint. See the crate docs for semantics.
#[derive(Debug)]
pub struct Endpoint {
    id: NodeId,
    inc: Incarnation,
    cfg: TransportConfig,
    class: PacketClass,
    local_addrs: Vec<Addr>,
    peers: PeerTable,
    next_msg_id: u64,
    pending: BTreeMap<MsgId, PendingSend>,
    /// Latest known incarnation and dedup window per peer.
    dedup: HashMap<NodeId, (Incarnation, DedupWindow)>,
    reasm: HashMap<(NodeId, MsgId), Reassembly>,
    /// One entry per (link, sender incarnation, message), in arrival
    /// order; a burst touches a handful of messages, so a scan finds it.
    acks_due: Vec<AckDue>,
    /// The last few messages given up on, so that an acknowledgement that
    /// still arrives for one is known for what it is (observability only).
    gave_up_on: VecDeque<(MsgId, NodeId)>,
    outbox: VecDeque<Datagram>,
    events: VecDeque<TransportEvent>,
    stats: TransportStats,
    obs: TransportObs,
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
        Ok(Endpoint {
            id,
            inc,
            cfg,
            class: PacketClass::Control,
            local_addrs,
            peers,
            next_msg_id: 0,
            pending: BTreeMap::new(),
            dedup: HashMap::new(),
            reasm: HashMap::new(),
            acks_due: Vec::new(),
            gave_up_on: VecDeque::new(),
            outbox: VecDeque::new(),
            events: VecDeque::new(),
            stats: TransportStats::default(),
            obs: TransportObs::default(),
        })
    }

    /// This endpoint's node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// This endpoint's incarnation.
    pub fn incarnation(&self) -> Incarnation {
        self.inc
    }

    /// Largest payload one datagram carries; longer messages fragment.
    pub fn mtu(&self) -> usize {
        self.cfg.mtu
    }

    /// The retransmission timeout of a message to `to`: the peer's
    /// estimate, no lower than [`MIN_RTO`] and no higher than the
    /// configured `retry_timeout` — which is also the whole answer for a
    /// peer nothing has been measured of yet. Every transmission of a
    /// message waits this long; the retries are not backed off, because a
    /// detector is sized by their sum and the first of them is what a
    /// late acknowledgement trips over (DESIGN.md §17.2).
    fn rto(&self, to: NodeId) -> Duration {
        let ceiling = self.cfg.retry_timeout;
        let estimate = self.peers.map.get(&to).and_then(|p| p.rtt);
        estimate.map_or(ceiling, |e| e.timeout().max(MIN_RTO).min(ceiling))
    }

    fn arm_rto(&self, to: NodeId) -> Duration {
        let rto = self.rto(to);
        self.obs.rto.record(rto.as_nanos());
        rto
    }

    /// Counter snapshot.
    pub fn stats(&self) -> TransportStats {
        self.stats
    }

    /// Latency histograms (RTT, failure-detection latency).
    pub fn obs(&self) -> &TransportObs {
        &self.obs
    }

    /// Feeds every behavior-relevant piece of endpoint state into a
    /// model-checker state digest.
    ///
    /// Upper-layer payload bytes (message fragments, reassembly buffers,
    /// queued events) enter through [`StateDigest::wire_payload`].
    /// Deliberately excluded: `cfg`/`class`/peer addresses (constant over
    /// a model run) and `stats`/`obs`/`sent_at`/`gave_up_on` (observability only —
    /// they never feed back into protocol behavior). The round-trip
    /// estimates enter as the timeout they arm, which is on a 1 ms grid:
    /// two states whose estimates differ below that grid arm the same
    /// timers until further samples tell them apart, and are merged
    /// (DESIGN.md §17.5).
    pub fn digest_into(&self, now: Time, d: &mut StateDigest) {
        d.node(self.id);
        d.write_u64(self.inc.0.into());
        d.write_u64(self.next_msg_id);
        d.write_len(self.local_addrs.len());
        for a in &self.local_addrs {
            d.node(a.node);
            d.write_u8(a.nic);
        }
        d.write_len(self.pending.len());
        for (msg_id, p) in &self.pending {
            d.write_u64(msg_id.0);
            d.node(p.to);
            d.write_len(p.addr_index);
            d.write_u32(p.attempts);
            d.time_rel(p.next_retry, now);
            d.write_len(p.acked.len());
            for &a in &p.acked {
                d.write_bool(a);
            }
            for f in &p.frags {
                d.wire_payload(f);
            }
        }
        for &id in self.peers.map.keys() {
            d.write_u64(self.rto(id).as_millis());
        }
        let mut dedup_ids: Vec<NodeId> = self.dedup.keys().copied().collect();
        dedup_ids.sort_unstable();
        d.write_len(dedup_ids.len());
        for id in dedup_ids {
            let (inc, window) = &self.dedup[&id];
            d.node(id);
            d.write_u64(inc.0.into());
            window.digest_into(d);
        }
        let mut reasm_keys: Vec<(NodeId, MsgId)> = self.reasm.keys().copied().collect();
        reasm_keys.sort_unstable();
        d.write_len(reasm_keys.len());
        for key in reasm_keys {
            let r = &self.reasm[&key];
            d.node(key.0);
            d.write_u64(key.1 .0);
            d.write_len(r.have.len() as usize);
            d.write_len(r.frags.len());
            for f in &r.frags {
                d.opt(f.as_ref(), |d, b| d.wire_payload(b));
            }
        }
        // Owed acks, outbox and event queue are normally drained between
        // model-checker steps, but digest them fully so an undrained queue
        // can never merge two genuinely different states.
        d.write_len(self.acks_due.len());
        for a in &self.acks_due {
            d.node(a.src.node);
            d.write_u8(a.src.nic);
            d.node(a.dst.node);
            d.write_u8(a.dst.nic);
            d.node(a.from);
            d.write_u64(a.inc.0.into());
            d.write_u64(a.msg_id.0);
            a.frags.digest_into(d);
        }
        d.write_len(self.outbox.len());
        for dg in &self.outbox {
            d.node(dg.src.node);
            d.write_u8(dg.src.nic);
            d.node(dg.dst.node);
            d.write_u8(dg.dst.nic);
            d.write_u8(matches!(dg.class, PacketClass::Data) as u8);
            d.wire_payload(&dg.payload);
        }
        d.write_len(self.events.len());
        for ev in &self.events {
            match ev {
                TransportEvent::Delivered { msg_id, to } => {
                    d.tag(0);
                    d.write_u64(msg_id.0);
                    d.node(*to);
                }
                TransportEvent::DeliveryFailed { msg_id, to } => {
                    d.tag(1);
                    d.write_u64(msg_id.0);
                    d.node(*to);
                }
                TransportEvent::Received { from, payload } => {
                    d.tag(2);
                    d.node(*from);
                    d.wire_payload(payload);
                }
                TransportEvent::FailureRefuted { msg_id, to } => {
                    d.tag(3);
                    d.write_u64(msg_id.0);
                    d.node(*to);
                }
            }
        }
    }

    /// Mutable access to the peer table (e.g. to learn a joiner's
    /// addresses at runtime).
    pub fn peers_mut(&mut self) -> &mut PeerTable {
        &mut self.peers
    }

    /// Read access to the peer table.
    pub fn peers(&self) -> &PeerTable {
        &self.peers
    }

    /// Sends `payload` reliably and atomically to `to`. Returns the
    /// message id; completion is reported later as
    /// [`TransportEvent::Delivered`] or [`TransportEvent::DeliveryFailed`].
    pub fn send(&mut self, now: Time, to: NodeId, payload: Bytes) -> Result<MsgId> {
        let (msg_id, mut p) = self.start_send(now, to, payload, true)?;
        p.next_retry = now + self.arm_rto(to);
        self.stats.msgs_sent += 1;
        self.pending.insert(msg_id, p);
        Ok(msg_id)
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
        // The send record drives the shared transmit path once and is
        // dropped: nothing enters `pending`, so there are no retries and
        // no failure notification.
        let (msg_id, _) = self.start_send(now, to, payload, false)?;
        self.stats.unreliable_sent += 1;
        Ok(msg_id)
    }

    /// Allocates a message id, fragments `payload` and puts every
    /// fragment on the wire once.
    fn start_send(
        &mut self,
        now: Time,
        to: NodeId,
        payload: Bytes,
        reliable: bool,
    ) -> Result<(MsgId, PendingSend)> {
        if self.peers.addrs(to).is_none_or(<[Addr]>::is_empty) {
            return Err(Error::UnknownNode(to));
        }
        let msg_id = MsgId(self.next_msg_id);
        self.next_msg_id += 1;

        let chunk = self.cfg.mtu;
        let frags: Vec<Bytes> = if payload.is_empty() {
            vec![Bytes::new()]
        } else {
            (0..payload.len())
                .step_by(chunk)
                .map(|off| payload.slice(off..payload.len().min(off + chunk)))
                .collect()
        };
        let n = frags.len();
        let p = PendingSend {
            to,
            frags,
            acked: vec![false; n],
            addr_index: 0,
            attempts: 1,
            // A reliable send arms its timeout; nothing retries the rest.
            next_retry: now,
            sent_at: now,
        };
        self.transmit_unacked(&p, msg_id, reliable);
        Ok((msg_id, p))
    }

    /// Abandons an in-flight send without a failure notification (used
    /// when the upper layer has already decided the peer is gone).
    pub fn abort(&mut self, msg_id: MsgId) -> bool {
        self.pending.remove(&msg_id).is_some()
    }

    /// Number of in-flight (unacknowledged) messages.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Feeds a received datagram into the endpoint. Undecodable payloads
    /// are dropped silently (like garbage on a UDP port).
    pub fn on_datagram(&mut self, now: Time, dgram: Datagram) {
        let Ok(frame) = Frame::decode_from_bytes(&dgram.payload) else {
            return;
        };
        match frame {
            Frame::Data {
                from,
                inc,
                msg_id,
                frag_index,
                frag_count,
                reliable,
                payload,
            } => {
                self.on_data(
                    dgram.src, dgram.dst, from, inc, msg_id, frag_index, frag_count, reliable,
                    payload,
                );
            }
            Frame::Ack {
                from: _,
                inc,
                msg_id,
                frags,
            } => {
                self.on_ack(now, inc, msg_id, &frags);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_data(
        &mut self,
        wire_src: Addr,
        wire_dst: Addr,
        from: NodeId,
        inc: Incarnation,
        msg_id: MsgId,
        frag_index: u32,
        frag_count: u32,
        reliable: bool,
        payload: Bytes,
    ) {
        if frag_count == 0 || frag_count > MAX_FRAGS || frag_index >= frag_count {
            return; // malformed
        }
        let entry = self
            .dedup
            .entry(from)
            .or_insert_with(|| (inc, DedupWindow::new()));
        if inc < entry.0 {
            self.stats.stale_dropped += 1;
            return; // ghost of the peer's previous life — no ack
        }
        if inc > entry.0 {
            // Peer restarted: fresh dedup state, discard partial
            // reassemblies and the acks its previous life was owed.
            *entry = (inc, DedupWindow::new());
            self.reasm.retain(|(n, _), _| *n != from);
            self.acks_due.retain(|a| a.from != from);
            // What was measured of its previous life says nothing of this
            // one (another process, perhaps another host).
            if let Some(rtt) = self.peers.rtt_mut(from) {
                *rtt = None;
            }
        }

        // Reliable current-incarnation data is always acknowledged, even
        // duplicates: our previous ack may have been lost. The ack names
        // every fragment of the message held so far and returns on the
        // link the data arrived on.
        let duplicate = entry.1.contains(msg_id);
        // The fragments held, while the message is still incomplete.
        let mut have = None;
        let complete = if duplicate {
            self.stats.duplicates_dropped += 1;
            true
        } else {
            let r = self
                .reasm
                .entry((from, msg_id))
                .or_insert_with(|| Reassembly {
                    frags: vec![None; frag_count as usize],
                    have: FragSet::new(),
                });
            if r.frags.len() != frag_count as usize {
                return; // inconsistent frag_count across fragments — corrupt
            }
            let slot = &mut r.frags[frag_index as usize];
            if slot.is_none() {
                *slot = Some(payload);
                r.have.insert(frag_index);
            }
            let complete = r.have.len() == frag_count;
            if !complete {
                have = Some(&r.have);
            }
            complete
        };

        if !reliable {
            self.stats.acks_suppressed += 1;
        } else if frag_count == 1 {
            // A whole message in one datagram (every token that fits the
            // MTU): nothing to wait for, acknowledge at once.
            self.push_ack(wire_dst, wire_src, inc, msg_id, FragSet::single(0));
        } else {
            let frags = have.map_or_else(|| FragSet::first_n(frag_count), FragSet::clone);
            let due = self.acks_due.iter_mut().find(|a| {
                a.msg_id == msg_id && a.from == from && a.src == wire_dst && a.dst == wire_src
            });
            match due {
                Some(due) => {
                    due.frags = frags;
                    due.answers += 1;
                }
                None => self.acks_due.push(AckDue {
                    src: wire_dst,
                    dst: wire_src,
                    from,
                    inc,
                    msg_id,
                    frags,
                    answers: 1,
                }),
            }
        }

        if complete && !duplicate {
            let Some(r) = self.reasm.remove(&(from, msg_id)) else {
                return;
            };
            let total: usize = r
                .frags
                .iter()
                .map(|f| f.as_ref().map_or(0, Bytes::len))
                .sum();
            let mut whole = Vec::with_capacity(total);
            for f in r.frags.into_iter().flatten() {
                whole.extend_from_slice(&f);
            }
            if let Some(entry) = self.dedup.get_mut(&from) {
                entry.1.insert(msg_id);
            }
            self.stats.msgs_received += 1;
            self.events.push_back(TransportEvent::Received {
                from,
                payload: Bytes::from(whole),
            });
        }
    }

    /// Queues one ACK datagram from our address `src` to the sender's
    /// `dst`.
    fn push_ack(&mut self, src: Addr, dst: Addr, inc: Incarnation, msg_id: MsgId, frags: FragSet) {
        let ack = Frame::Ack {
            from: self.id,
            inc,
            msg_id,
            frags,
        };
        self.outbox.push_back(Datagram {
            src,
            dst,
            class: self.class,
            payload: ack.encode_to_bytes(),
        });
        self.stats.acks_sent += 1;
    }

    fn on_ack(&mut self, now: Time, inc: Incarnation, msg_id: MsgId, frags: &FragSet) {
        if inc != self.inc {
            self.stats.stale_dropped += 1;
            return; // ack for a previous life of this node
        }
        let Some(p) = self.pending.get_mut(&msg_id) else {
            // Already completed (late duplicate ack), aborted, or never
            // awaiting one (fire-and-forget): nothing to mark, nothing kept.
            self.stats.acks_unmatched += 1;
            if let Some(i) = self.gave_up_on.iter().position(|&(id, _)| id == msg_id) {
                if let Some((_, to)) = self.gave_up_on.remove(i) {
                    self.events
                        .push_back(TransportEvent::FailureRefuted { msg_id, to });
                }
            }
            return;
        };
        // The set is the peer's word: only the message's own fragments are
        // looked up in it, so indices it does not have are never touched.
        let mut all_acked = true;
        for (i, acked) in p.acked.iter_mut().enumerate() {
            *acked |= frags.contains(i as u32);
            all_acked &= *acked;
        }
        if all_acked {
            let Some(p) = self.pending.remove(&msg_id) else {
                return;
            };
            self.stats.msgs_delivered += 1;
            let took = now.since(p.sent_at).as_nanos();
            self.obs.rtt.record(took);
            if p.samples_rtt() {
                if let Some(rtt) = self.peers.rtt_mut(p.to) {
                    match rtt {
                        Some(e) => e.update(took),
                        None => *rtt = Some(RttEstimate::first(took)),
                    }
                }
            }
            self.events
                .push_back(TransportEvent::Delivered { msg_id, to: p.to });
        }
    }

    /// Advances the retransmission machinery to `now`.
    pub fn on_tick(&mut self, now: Time) {
        let due: Vec<MsgId> = self
            .pending
            .iter()
            .filter(|(_, p)| p.next_retry <= now)
            .map(|(&id, _)| id)
            .collect();
        for msg_id in due {
            let Some(mut p) = self.pending.remove(&msg_id) else {
                continue;
            };
            let n_addrs = self.peers.addrs(p.to).map(<[Addr]>::len).unwrap_or(0);
            if n_addrs == 0 {
                // Peer vanished from the table mid-send.
                self.fail(now, msg_id, p.to, p.sent_at);
                continue;
            }
            if p.attempts >= self.cfg.max_retries {
                let exhausted = match self.cfg.strategy {
                    // Parallel already uses every address each attempt.
                    SendStrategy::Parallel => true,
                    SendStrategy::Sequential => {
                        p.addr_index += 1;
                        p.attempts = 0;
                        p.addr_index >= n_addrs
                    }
                };
                if exhausted {
                    self.fail(now, msg_id, p.to, p.sent_at);
                    continue;
                }
            }
            p.attempts += 1;
            self.stats.retransmissions += 1;
            p.next_retry = now + self.arm_rto(p.to);
            self.transmit_unacked(&p, msg_id, true);
            self.pending.insert(msg_id, p);
        }
    }

    fn fail(&mut self, now: Time, msg_id: MsgId, to: NodeId, sent_at: Time) {
        self.stats.msgs_failed += 1;
        // The peer is dead or the way to it broken: what was measured of
        // it is void, and whatever is sent to it next — beacons, 911
        // calls — waits out the configured timeout again.
        if let Some(rtt) = self.peers.rtt_mut(to) {
            *rtt = None;
        }
        if self.gave_up_on.len() == GAVE_UP_MEMORY {
            self.gave_up_on.pop_front();
        }
        self.gave_up_on.push_back((msg_id, to));
        self.obs
            .failure_latency
            .record(now.since(sent_at).as_nanos());
        self.events
            .push_back(TransportEvent::DeliveryFailed { msg_id, to });
    }

    /// Earliest time at which [`Endpoint::on_tick`] has work to do.
    pub fn next_wakeup(&self) -> Option<Time> {
        self.pending.values().map(|p| p.next_retry).min()
    }

    /// Drains one outgoing datagram, if any. The first call after
    /// datagrams were fed in also releases the acknowledgements they are
    /// owed: one per message and link, however many fragments arrived.
    pub fn poll_outgoing(&mut self) -> Option<Datagram> {
        if !self.acks_due.is_empty() {
            let mut due = std::mem::take(&mut self.acks_due);
            for a in due.drain(..) {
                self.stats.ack_frags_coalesced += a.answers - 1;
                self.push_ack(a.src, a.dst, a.inc, a.msg_id, a.frags);
            }
            self.acks_due = due; // keep the buffer
        }
        self.outbox.pop_front()
    }

    /// Drains one upper-layer event, if any.
    pub fn poll_event(&mut self) -> Option<TransportEvent> {
        self.events.pop_front()
    }

    /// Puts every un-acked fragment of `p` on the wire: to the current
    /// address (sequential) or to all of them (parallel).
    fn transmit_unacked(&mut self, p: &PendingSend, msg_id: MsgId, reliable: bool) {
        let addrs = match self.peers.addrs(p.to) {
            Some(a) if !a.is_empty() => a,
            _ => return,
        };
        let targets = match self.cfg.strategy {
            SendStrategy::Sequential => {
                let i = p.addr_index.min(addrs.len() - 1);
                &addrs[i..=i]
            }
            SendStrategy::Parallel => addrs,
        };
        let frag_count = p.frags.len() as u32;
        for dst in targets {
            // Pair the peer's k-th address with our k-th NIC so redundant
            // links ride physically separate networks.
            let src = self.local_addrs[(dst.nic as usize) % self.local_addrs.len()];
            for (i, frag) in p.frags.iter().enumerate() {
                if p.acked[i] {
                    continue;
                }
                let frame = Frame::Data {
                    from: self.id,
                    inc: self.inc,
                    msg_id,
                    frag_index: i as u32,
                    frag_count,
                    reliable,
                    payload: frag.clone(),
                };
                self.outbox.push_back(Datagram {
                    src,
                    dst: *dst,
                    class: self.class,
                    payload: frame.encode_to_bytes(),
                });
                self.stats.data_frames_sent += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raincore_net::{SimNet, SimNetConfig};

    fn mk_pair(cfg: TransportConfig, nics: u8) -> (Endpoint, Endpoint) {
        let peers = PeerTable::full_mesh([NodeId(0), NodeId(1)], nics);
        let mk = |id: u32| {
            Endpoint::new(
                NodeId(id),
                Incarnation::FIRST,
                (0..nics).map(|k| Addr::new(NodeId(id), k)).collect(),
                peers.clone(),
                cfg.clone(),
            )
            .unwrap()
        };
        (mk(0), mk(1))
    }

    /// Drives both endpoints and the network until quiescent or `limit`.
    fn pump(net: &mut SimNet, eps: &mut [&mut Endpoint], mut now: Time, limit: Time) -> Time {
        loop {
            // Drain outboxes onto the wire.
            for ep in eps.iter_mut() {
                while let Some(d) = ep.poll_outgoing() {
                    net.send(now, d);
                }
            }
            // Deliver anything ready now.
            let arrivals = net.pop_arrivals(now);
            if !arrivals.is_empty() {
                for d in arrivals {
                    // Exactly one endpoint owns any destination address, so
                    // hand the datagram over by value instead of cloning it
                    // for every candidate.
                    if let Some(ep) = eps.iter_mut().find(|ep| ep.local_addrs.contains(&d.dst)) {
                        ep.on_datagram(now, d);
                    }
                }
                continue;
            }
            // Advance to the next interesting instant.
            let mut next = net.next_arrival();
            for ep in eps.iter() {
                next = match (next, ep.next_wakeup()) {
                    (None, w) => w,
                    (t, None) => t,
                    (Some(a), Some(b)) => Some(a.min(b)),
                };
            }
            match next {
                Some(t) if t <= limit => {
                    now = t;
                    for ep in eps.iter_mut() {
                        ep.on_tick(now);
                    }
                }
                _ => return now,
            }
        }
    }

    fn drain_events(ep: &mut Endpoint) -> Vec<TransportEvent> {
        let mut out = vec![];
        while let Some(e) = ep.poll_event() {
            out.push(e);
        }
        out
    }

    #[test]
    fn small_message_delivers_and_acks() {
        let (mut a, mut b) = mk_pair(TransportConfig::default(), 1);
        let mut net = SimNet::new(SimNetConfig::default());
        let id = a
            .send(Time::ZERO, NodeId(1), Bytes::from_static(b"hello"))
            .unwrap();
        pump(
            &mut net,
            &mut [&mut a, &mut b],
            Time::ZERO,
            Time::ZERO + Duration::from_secs(1),
        );
        assert_eq!(
            drain_events(&mut a),
            vec![TransportEvent::Delivered {
                msg_id: id,
                to: NodeId(1)
            }]
        );
        assert_eq!(
            drain_events(&mut b),
            vec![TransportEvent::Received {
                from: NodeId(0),
                payload: Bytes::from_static(b"hello")
            }]
        );
        assert_eq!(a.in_flight(), 0);
        assert_eq!(b.stats().acks_sent, 1);
    }

    #[test]
    fn empty_payload_is_a_valid_message() {
        let (mut a, mut b) = mk_pair(TransportConfig::default(), 1);
        let mut net = SimNet::new(SimNetConfig::default());
        a.send(Time::ZERO, NodeId(1), Bytes::new()).unwrap();
        pump(
            &mut net,
            &mut [&mut a, &mut b],
            Time::ZERO,
            Time::ZERO + Duration::from_secs(1),
        );
        let ev = drain_events(&mut b);
        assert_eq!(
            ev,
            vec![TransportEvent::Received {
                from: NodeId(0),
                payload: Bytes::new()
            }]
        );
    }

    #[test]
    fn unreliable_send_delivers_without_completion_events() {
        let cfg = TransportConfig {
            mtu: 100,
            ..Default::default()
        };
        let (mut a, mut b) = mk_pair(cfg, 1);
        let mut net = SimNet::new(SimNetConfig::default());
        let payload: Vec<u8> = (0..350).map(|i| (i % 251) as u8).collect();
        a.send_unreliable(Time::ZERO, NodeId(1), Bytes::from(payload.clone()))
            .unwrap();
        pump(
            &mut net,
            &mut [&mut a, &mut b],
            Time::ZERO,
            Time::ZERO + Duration::from_secs(1),
        );
        // The receiver reassembles and delivers normally...
        let ev = drain_events(&mut b);
        assert_eq!(ev.len(), 1);
        match &ev[0] {
            TransportEvent::Received { payload: got, .. } => assert_eq!(&got[..], &payload[..]),
            other => panic!("unexpected {other:?}"),
        }
        // ...without acknowledging a single frame, and the sender keeps no
        // in-flight state and reports no completion either way.
        assert_eq!(b.stats().acks_sent, 0);
        assert_eq!(b.stats().acks_suppressed, 4);
        assert_eq!(drain_events(&mut a), vec![]);
        assert_eq!(a.in_flight(), 0);
        assert_eq!(a.stats().data_frames_sent, 4);
        assert_eq!(
            (a.stats().unreliable_sent, a.stats().msgs_sent),
            (1, 0),
            "fire-and-forget sends are not in-flight messages"
        );
    }

    #[test]
    fn unreliable_send_loss_never_reports_delivery_failure() {
        let cfg = TransportConfig {
            retry_timeout: Duration::from_millis(10),
            max_retries: 3,
            ..Default::default()
        };
        let (mut a, mut b) = mk_pair(cfg, 1);
        let mut net = SimNet::new(SimNetConfig::default());
        net.set_node(NodeId(1), false); // peer unreachable: every frame lost
        a.send_unreliable(Time::ZERO, NodeId(1), Bytes::from_static(b"gone"))
            .unwrap();
        pump(
            &mut net,
            &mut [&mut a, &mut b],
            Time::ZERO,
            Time::ZERO + Duration::from_secs(10),
        );
        // Bulk loss is recovered end-to-end by the session's NACK pull; the
        // transport must not retry it or feed the failure detector.
        assert_eq!(drain_events(&mut a), vec![]);
        assert_eq!(drain_events(&mut b), vec![]);
        assert_eq!(a.stats().retransmissions, 0);
        assert_eq!(a.stats().msgs_failed, 0);
    }

    #[test]
    fn large_message_fragments_and_reassembles() {
        let cfg = TransportConfig {
            mtu: 100,
            ..Default::default()
        };
        let (mut a, mut b) = mk_pair(cfg, 1);
        let mut net = SimNet::new(SimNetConfig::default());
        let payload: Vec<u8> = (0..1000).map(|i| (i % 251) as u8).collect();
        a.send(Time::ZERO, NodeId(1), Bytes::from(payload.clone()))
            .unwrap();
        pump(
            &mut net,
            &mut [&mut a, &mut b],
            Time::ZERO,
            Time::ZERO + Duration::from_secs(1),
        );
        let ev = drain_events(&mut b);
        assert_eq!(ev.len(), 1);
        match &ev[0] {
            TransportEvent::Received { payload: got, .. } => assert_eq!(&got[..], &payload[..]),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(a.stats().data_frames_sent, 10);
        // The ten fragments arrive as one burst and share one ack.
        assert_eq!(b.stats().acks_sent, 1);
        assert_eq!(b.stats().ack_frags_coalesced, 9);
        assert!(matches!(
            drain_events(&mut a)[..],
            [TransportEvent::Delivered { .. }]
        ));
    }

    #[test]
    fn loss_triggers_retransmission_but_single_delivery() {
        let cfg = TransportConfig {
            retry_timeout: Duration::from_millis(10),
            max_retries: 20,
            ..Default::default()
        };
        let (mut a, mut b) = mk_pair(cfg, 1);
        let mut net = SimNet::new(SimNetConfig {
            loss: 0.4,
            seed: 11,
            ..Default::default()
        });
        a.send(Time::ZERO, NodeId(1), Bytes::from_static(b"lossy"))
            .unwrap();
        pump(
            &mut net,
            &mut [&mut a, &mut b],
            Time::ZERO,
            Time::ZERO + Duration::from_secs(10),
        );
        let got = drain_events(&mut b);
        assert_eq!(
            got.iter()
                .filter(|e| matches!(e, TransportEvent::Received { .. }))
                .count(),
            1,
            "exactly-once delivery despite loss"
        );
        assert_eq!(
            drain_events(&mut a),
            vec![TransportEvent::Delivered {
                msg_id: MsgId(0),
                to: NodeId(1)
            }]
        );
    }

    #[test]
    fn failure_on_delivery_after_retries_exhausted() {
        let cfg = TransportConfig {
            retry_timeout: Duration::from_millis(10),
            max_retries: 3,
            ..Default::default()
        };
        let (mut a, mut b) = mk_pair(cfg, 1);
        let mut net = SimNet::new(SimNetConfig::default());
        net.set_node(NodeId(1), false); // peer is dead
        let id = a
            .send(Time::ZERO, NodeId(1), Bytes::from_static(b"x"))
            .unwrap();
        let end = pump(
            &mut net,
            &mut [&mut a, &mut b],
            Time::ZERO,
            Time::ZERO + Duration::from_secs(5),
        );
        assert_eq!(
            drain_events(&mut a),
            vec![TransportEvent::DeliveryFailed {
                msg_id: id,
                to: NodeId(1)
            }]
        );
        // 3 transmissions, 10 ms apart → failure detected at ~30 ms: fast
        // local-view detection, as the aggressive protocol requires.
        assert!(
            end <= Time::ZERO + Duration::from_millis(50),
            "took {end:?}"
        );
        assert_eq!(a.stats().data_frames_sent, 3);
        assert_eq!(a.stats().msgs_failed, 1);
    }

    #[test]
    fn sequential_strategy_fails_over_to_second_address() {
        let cfg = TransportConfig {
            retry_timeout: Duration::from_millis(10),
            max_retries: 2,
            strategy: SendStrategy::Sequential,
            ..Default::default()
        };
        let (mut a, mut b) = mk_pair(cfg, 2);
        let mut net = SimNet::new(SimNetConfig::default());
        // Unplug the peer's first NIC: primary path dead, secondary alive.
        net.set_nic(Addr::new(NodeId(1), 0), false);
        let id = a
            .send(Time::ZERO, NodeId(1), Bytes::from_static(b"via-backup"))
            .unwrap();
        pump(
            &mut net,
            &mut [&mut a, &mut b],
            Time::ZERO,
            Time::ZERO + Duration::from_secs(5),
        );
        assert_eq!(
            drain_events(&mut a),
            vec![TransportEvent::Delivered {
                msg_id: id,
                to: NodeId(1)
            }]
        );
        let got = drain_events(&mut b);
        assert!(matches!(&got[..], [TransportEvent::Received { .. }]));
    }

    #[test]
    fn parallel_strategy_survives_first_link_without_waiting() {
        let cfg = TransportConfig {
            retry_timeout: Duration::from_millis(100),
            max_retries: 2,
            strategy: SendStrategy::Parallel,
            ..Default::default()
        };
        let (mut a, mut b) = mk_pair(cfg, 2);
        let mut net = SimNet::new(SimNetConfig::default());
        net.set_nic(Addr::new(NodeId(1), 0), false);
        a.send(Time::ZERO, NodeId(1), Bytes::from_static(b"x"))
            .unwrap();
        let end = pump(
            &mut net,
            &mut [&mut a, &mut b],
            Time::ZERO,
            Time::ZERO + Duration::from_secs(5),
        );
        // Delivered via NIC 1 on the first shot: well before one retry period.
        assert!(
            end < Time::ZERO + Duration::from_millis(100),
            "took {end:?}"
        );
        assert!(matches!(
            drain_events(&mut a)[..],
            [TransportEvent::Delivered { .. }]
        ));
    }

    #[test]
    fn both_addresses_dead_reports_failure() {
        let cfg = TransportConfig {
            retry_timeout: Duration::from_millis(5),
            max_retries: 2,
            strategy: SendStrategy::Sequential,
            ..Default::default()
        };
        let (mut a, mut b) = mk_pair(cfg, 2);
        let mut net = SimNet::new(SimNetConfig::default());
        net.set_node(NodeId(1), false);
        let id = a
            .send(Time::ZERO, NodeId(1), Bytes::from_static(b"x"))
            .unwrap();
        pump(
            &mut net,
            &mut [&mut a, &mut b],
            Time::ZERO,
            Time::ZERO + Duration::from_secs(5),
        );
        assert_eq!(
            drain_events(&mut a),
            vec![TransportEvent::DeliveryFailed {
                msg_id: id,
                to: NodeId(1)
            }]
        );
        // 2 attempts on addr 0 + 2 attempts on addr 1.
        assert_eq!(a.stats().data_frames_sent, 4);
    }

    #[test]
    fn unknown_peer_rejected_synchronously() {
        let (mut a, _b) = mk_pair(TransportConfig::default(), 1);
        assert_eq!(
            a.send(Time::ZERO, NodeId(9), Bytes::new()).unwrap_err(),
            Error::UnknownNode(NodeId(9))
        );
    }

    #[test]
    fn abort_cancels_without_event() {
        let (mut a, _b) = mk_pair(TransportConfig::default(), 1);
        let id = a
            .send(Time::ZERO, NodeId(1), Bytes::from_static(b"x"))
            .unwrap();
        assert!(a.abort(id));
        assert!(!a.abort(id));
        a.on_tick(Time::ZERO + Duration::from_secs(10));
        assert!(a.poll_event().is_none());
        assert_eq!(a.in_flight(), 0);
    }

    #[test]
    fn stale_incarnation_frames_are_ignored() {
        let peers = PeerTable::full_mesh([NodeId(0), NodeId(1)], 1);
        let mut b = Endpoint::new(
            NodeId(1),
            Incarnation::FIRST,
            vec![Addr::primary(NodeId(1))],
            peers.clone(),
            TransportConfig::default(),
        )
        .unwrap();
        // New life of node 0 speaks first…
        let mut a_new = Endpoint::new(
            NodeId(0),
            Incarnation(1),
            vec![Addr::primary(NodeId(0))],
            peers.clone(),
            TransportConfig::default(),
        )
        .unwrap();
        a_new
            .send(Time::ZERO, NodeId(1), Bytes::from_static(b"new"))
            .unwrap();
        let d = a_new.poll_outgoing().unwrap();
        b.on_datagram(Time::ZERO, d);
        assert_eq!(b.stats().msgs_received, 1);
        // …then a ghost frame from incarnation 0 arrives: dropped, no ack.
        let mut a_old = Endpoint::new(
            NodeId(0),
            Incarnation(0),
            vec![Addr::primary(NodeId(0))],
            peers,
            TransportConfig::default(),
        )
        .unwrap();
        a_old
            .send(Time::ZERO, NodeId(1), Bytes::from_static(b"old"))
            .unwrap();
        let d = a_old.poll_outgoing().unwrap();
        let acks_before = b.stats().acks_sent;
        b.on_datagram(Time::ZERO, d);
        assert_eq!(b.stats().msgs_received, 1, "ghost not delivered");
        assert_eq!(b.stats().acks_sent, acks_before, "ghost not acked");
        assert_eq!(b.stats().stale_dropped, 1);
    }

    #[test]
    fn duplicate_data_reacked_but_not_redelivered() {
        let (mut a, mut b) = mk_pair(TransportConfig::default(), 1);
        a.send(Time::ZERO, NodeId(1), Bytes::from_static(b"dup"))
            .unwrap();
        let d = a.poll_outgoing().unwrap();
        b.on_datagram(Time::ZERO, d.clone());
        b.on_datagram(Time::ZERO, d);
        assert_eq!(b.stats().msgs_received, 1);
        assert_eq!(b.stats().acks_sent, 2, "duplicate still acknowledged");
        assert_eq!(b.stats().duplicates_dropped, 1);
    }

    #[test]
    fn malformed_frames_dropped() {
        let (_, mut b) = mk_pair(TransportConfig::default(), 1);
        // Garbage payload.
        b.on_datagram(
            Time::ZERO,
            Datagram::control(
                Addr::primary(NodeId(0)),
                Addr::primary(NodeId(1)),
                Bytes::from_static(&[0xff, 1, 2]),
            ),
        );
        // frag_index >= frag_count.
        let bad = Frame::Data {
            from: NodeId(0),
            inc: Incarnation::FIRST,
            msg_id: MsgId(0),
            frag_index: 5,
            frag_count: 2,
            reliable: true,
            payload: Bytes::new(),
        };
        b.on_datagram(
            Time::ZERO,
            Datagram::control(
                Addr::primary(NodeId(0)),
                Addr::primary(NodeId(1)),
                bad.encode_to_bytes(),
            ),
        );
        assert_eq!(b.stats().msgs_received, 0);
        assert_eq!(b.stats().acks_sent, 0);
        assert!(b.poll_event().is_none());
    }

    #[test]
    fn next_wakeup_tracks_earliest_retry() {
        let cfg = TransportConfig {
            retry_timeout: Duration::from_millis(30),
            ..Default::default()
        };
        let (mut a, _b) = mk_pair(cfg, 1);
        assert_eq!(a.next_wakeup(), None);
        a.send(Time::ZERO, NodeId(1), Bytes::from_static(b"x"))
            .unwrap();
        assert_eq!(
            a.next_wakeup(),
            Some(Time::ZERO + Duration::from_millis(30))
        );
    }

    #[test]
    fn many_messages_preserve_per_message_atomicity() {
        let cfg = TransportConfig {
            mtu: 64,
            retry_timeout: Duration::from_millis(10),
            max_retries: 30,
            ..Default::default()
        };
        let (mut a, mut b) = mk_pair(cfg, 1);
        let mut net = SimNet::new(SimNetConfig {
            loss: 0.25,
            seed: 99,
            ..Default::default()
        });
        let mut sent = vec![];
        for i in 0..20u8 {
            let payload: Vec<u8> = std::iter::repeat_n(i, 150).collect();
            sent.push(payload.clone());
            a.send(Time::ZERO, NodeId(1), Bytes::from(payload)).unwrap();
        }
        pump(
            &mut net,
            &mut [&mut a, &mut b],
            Time::ZERO,
            Time::ZERO + Duration::from_secs(30),
        );
        let mut got: Vec<Vec<u8>> = drain_events(&mut b)
            .into_iter()
            .filter_map(|e| match e {
                TransportEvent::Received { payload, .. } => Some(payload.to_vec()),
                _ => None,
            })
            .collect();
        got.sort();
        let mut want = sent.clone();
        want.sort();
        assert_eq!(got, want, "all 20 messages delivered whole, exactly once");
    }
}

#[cfg(test)]
mod more_tests {
    //! Additional edge-case coverage: interleaved reassembly, parallel
    //! acknowledgement races, aborts mid-retry, and peer-table churn.

    use super::*;
    use raincore_net::{SimNet, SimNetConfig};
    use raincore_types::Duration;

    fn pair(cfg: TransportConfig) -> (Endpoint, Endpoint) {
        let peers = PeerTable::full_mesh([NodeId(0), NodeId(1)], 1);
        let mk = |id: u32| {
            Endpoint::new(
                NodeId(id),
                Incarnation::FIRST,
                vec![Addr::primary(NodeId(id))],
                peers.clone(),
                cfg.clone(),
            )
            .unwrap()
        };
        (mk(0), mk(1))
    }

    #[test]
    fn interleaved_fragments_of_two_messages_reassemble_independently() {
        let cfg = TransportConfig {
            mtu: 64,
            ..Default::default()
        };
        let (mut a, mut b) = pair(cfg);
        let p1: Vec<u8> = (0..=160).collect();
        let p2: Vec<u8> = (80..=240).collect();
        a.send(Time::ZERO, NodeId(1), Bytes::from(p1.clone()))
            .unwrap();
        a.send(Time::ZERO, NodeId(1), Bytes::from(p2.clone()))
            .unwrap();
        // Deliver all frames to b in a zig-zag order.
        let mut frames = vec![];
        while let Some(d) = a.poll_outgoing() {
            frames.push(d);
        }
        assert_eq!(frames.len(), 6, "3 fragments each");
        let order = [0usize, 3, 1, 4, 5, 2];
        for &i in &order {
            b.on_datagram(Time::ZERO, frames[i].clone());
        }
        let mut got = vec![];
        while let Some(TransportEvent::Received { payload, .. }) = b.poll_event() {
            got.push(payload.to_vec());
        }
        got.sort();
        let mut want = vec![p1, p2];
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn parallel_strategy_single_delivery_despite_duplicate_paths() {
        let cfg = TransportConfig {
            strategy: raincore_types::config::SendStrategy::Parallel,
            ..Default::default()
        };
        let peers = PeerTable::full_mesh([NodeId(0), NodeId(1)], 2);
        let mut a = Endpoint::new(
            NodeId(0),
            Incarnation::FIRST,
            vec![Addr::new(NodeId(0), 0), Addr::new(NodeId(0), 1)],
            peers.clone(),
            cfg.clone(),
        )
        .unwrap();
        let mut b = Endpoint::new(
            NodeId(1),
            Incarnation::FIRST,
            vec![Addr::new(NodeId(1), 0), Addr::new(NodeId(1), 1)],
            peers,
            cfg,
        )
        .unwrap();
        let mut net = SimNet::new(SimNetConfig::default());
        a.send(Time::ZERO, NodeId(1), Bytes::from_static(b"dup-path"))
            .unwrap();
        // Both copies arrive; exactly one delivery, both acked.
        while let Some(d) = a.poll_outgoing() {
            net.send(Time::ZERO, d);
        }
        for d in net.pop_arrivals(Time::ZERO + Duration::from_secs(1)) {
            if d.dst.node == NodeId(1) {
                b.on_datagram(Time::ZERO, d);
            }
        }
        let mut deliveries = 0;
        while let Some(ev) = b.poll_event() {
            if matches!(ev, TransportEvent::Received { .. }) {
                deliveries += 1;
            }
        }
        assert_eq!(deliveries, 1, "duplicate-path copies suppressed");
        assert_eq!(b.stats().duplicates_dropped, 1);
        assert_eq!(b.stats().acks_sent, 2, "both copies acknowledged");
    }

    #[test]
    fn abort_mid_retry_stops_retransmissions() {
        let cfg = TransportConfig {
            retry_timeout: Duration::from_millis(10),
            max_retries: 10,
            ..Default::default()
        };
        let (mut a, _b) = pair(cfg);
        let id = a
            .send(Time::ZERO, NodeId(1), Bytes::from_static(b"x"))
            .unwrap();
        while a.poll_outgoing().is_some() {}
        a.on_tick(Time::ZERO + Duration::from_millis(10));
        assert!(a.poll_outgoing().is_some(), "one retransmission happened");
        while a.poll_outgoing().is_some() {}
        assert!(a.abort(id));
        a.on_tick(Time::ZERO + Duration::from_millis(100));
        assert!(
            a.poll_outgoing().is_none(),
            "no retransmissions after abort"
        );
        assert_eq!(a.next_wakeup(), None);
    }

    #[test]
    fn peer_removed_mid_send_fails_on_next_retry() {
        let cfg = TransportConfig {
            retry_timeout: Duration::from_millis(10),
            max_retries: 5,
            ..Default::default()
        };
        let (mut a, _b) = pair(cfg);
        let id = a
            .send(Time::ZERO, NodeId(1), Bytes::from_static(b"x"))
            .unwrap();
        a.peers_mut().remove(NodeId(1));
        a.on_tick(Time::ZERO + Duration::from_millis(10));
        let mut failed = false;
        while let Some(ev) = a.poll_event() {
            if let TransportEvent::DeliveryFailed { msg_id, to } = ev {
                assert_eq!(msg_id, id);
                assert_eq!(to, NodeId(1));
                failed = true;
            }
        }
        assert!(failed, "vanished peer reported as failure-on-delivery");
    }

    fn ack_dgram(inc: Incarnation, msg_id: u64, frags: FragSet) -> Datagram {
        let ack = Frame::Ack {
            from: NodeId(1),
            inc,
            msg_id: MsgId(msg_id),
            frags,
        };
        Datagram::control(
            Addr::primary(NodeId(1)),
            Addr::primary(NodeId(0)),
            ack.encode_to_bytes(),
        )
    }

    fn drain(ep: &mut Endpoint) -> Vec<Datagram> {
        std::iter::from_fn(|| ep.poll_outgoing()).collect()
    }

    /// The fragment sets named by the ACK frames among `dgrams`.
    fn acked_sets(dgrams: &[Datagram]) -> Vec<Vec<u32>> {
        dgrams
            .iter()
            .filter_map(|d| match Frame::decode_from_bytes(&d.payload) {
                Ok(Frame::Ack { frags, .. }) => Some(frags.iter().collect()),
                _ => None,
            })
            .collect()
    }

    fn ten_fragment_cfg() -> TransportConfig {
        TransportConfig {
            mtu: 100,
            retry_timeout: Duration::from_millis(10),
            max_retries: 3,
            ..Default::default()
        }
    }

    #[test]
    fn ack_for_unknown_fragment_index_ignored() {
        let (mut a, _b) = pair(TransportConfig::default());
        a.send(Time::ZERO, NodeId(1), Bytes::from_static(b"x"))
            .unwrap();
        // Forged acks naming fragments the message does not have: one out
        // of range for the message, one a full-width set minus fragment 0.
        let mut all_but_first = FragSet::new();
        for i in 1..MAX_FRAGS {
            all_but_first.insert(i);
        }
        assert_eq!(all_but_first.len(), MAX_FRAGS - 1);
        for frags in [FragSet::single(99), all_but_first] {
            a.on_datagram(Time::ZERO, ack_dgram(Incarnation::FIRST, 0, frags));
        }
        assert_eq!(a.in_flight(), 1, "message still pending");
        assert!(a.poll_event().is_none());
    }

    #[test]
    fn acks_nobody_waits_for_are_counted_no_ops() {
        let (mut a, _b) = pair(TransportConfig::default());
        // A fire-and-forget message, a completed one and one never sent:
        // an ack for any of them marks nothing and creates no state.
        a.send_unreliable(Time::ZERO, NodeId(1), Bytes::from_static(b"bulk"))
            .unwrap();
        a.send(Time::ZERO, NodeId(1), Bytes::from_static(b"x"))
            .unwrap();
        a.on_datagram(
            Time::ZERO,
            ack_dgram(Incarnation::FIRST, 1, FragSet::single(0)),
        );
        assert_eq!(a.stats().msgs_delivered, 1);
        for msg_id in [0, 1, 77] {
            a.on_datagram(
                Time::ZERO,
                ack_dgram(Incarnation::FIRST, msg_id, FragSet::first_n(6)),
            );
        }
        assert_eq!(a.stats().acks_unmatched, 3);
        assert_eq!(a.in_flight(), 0);
        assert_eq!(a.stats().msgs_delivered, 1);
        // An ack for a previous life of this node is dropped before that.
        a.on_datagram(Time::ZERO, ack_dgram(Incarnation(7), 0, FragSet::single(0)));
        assert_eq!(a.stats().stale_dropped, 1);
        assert_eq!(a.stats().acks_unmatched, 3);
    }

    #[test]
    fn oversized_ack_set_is_rejected_before_allocation() {
        use raincore_types::wire::Writer;
        let (mut a, _b) = pair(TransportConfig::default());
        a.send(Time::ZERO, NodeId(1), Bytes::from_static(b"x"))
            .unwrap();
        // Hand-built tag-3 ack declaring one word more than MAX_FRAGS
        // allows, every word naming fragment 0 of its range.
        let mut w = Writer::new();
        w.put_u8(3);
        NodeId(1).encode(&mut w);
        Incarnation::FIRST.encode(&mut w);
        MsgId(0).encode(&mut w);
        w.put_varint(u64::from(MAX_FRAGS / 64) + 1);
        for _ in 0..=MAX_FRAGS / 64 {
            w.put_varint(1);
        }
        let payload = w.finish();
        assert!(Frame::decode_from_bytes(&payload).is_err());
        a.on_datagram(
            Time::ZERO,
            Datagram::control(Addr::primary(NodeId(1)), Addr::primary(NodeId(0)), payload),
        );
        assert_eq!(a.in_flight(), 1, "undecodable ack marks nothing");
    }

    #[test]
    fn lost_fragment_is_named_missing_and_alone_resent() {
        let (mut a, mut b) = pair(ten_fragment_cfg());
        let payload: Vec<u8> = (0..1000).map(|i| (i % 251) as u8).collect();
        let id = a
            .send(Time::ZERO, NodeId(1), Bytes::from(payload.clone()))
            .unwrap();
        // Fragment 4 is lost; the other nine arrive as one burst.
        let mut sent = drain(&mut a);
        sent.remove(4);
        for d in sent {
            b.on_datagram(Time::ZERO, d);
        }
        let acks = drain(&mut b);
        assert_eq!(
            acked_sets(&acks),
            vec![vec![0, 1, 2, 3, 5, 6, 7, 8, 9]],
            "one ack naming the nine fragments held"
        );
        for d in acks {
            a.on_datagram(Time::ZERO, d);
        }
        assert!(a.poll_event().is_none(), "not delivered yet");
        // The retry resends exactly the missing fragment.
        let t1 = Time::ZERO + Duration::from_millis(10);
        a.on_tick(t1);
        let resent = drain(&mut a);
        assert_eq!(resent.len(), 1);
        assert!(matches!(
            Frame::decode_from_bytes(&resent[0].payload),
            Ok(Frame::Data { frag_index: 4, .. })
        ));
        for d in resent {
            b.on_datagram(t1, d);
        }
        assert_eq!(
            b.poll_event(),
            Some(TransportEvent::Received {
                from: NodeId(0),
                payload: Bytes::from(payload)
            })
        );
        let acks = drain(&mut b);
        assert_eq!(acked_sets(&acks), vec![(0..10).collect::<Vec<u32>>()]);
        for d in acks {
            a.on_datagram(t1, d);
        }
        assert_eq!(
            a.poll_event(),
            Some(TransportEvent::Delivered {
                msg_id: id,
                to: NodeId(1)
            })
        );
        assert_eq!(a.stats().data_frames_sent, 11);
        assert_eq!(b.stats().acks_sent, 2);
    }

    #[test]
    fn lost_ack_is_repeated_with_the_full_set_on_duplicate_data() {
        let (mut a, mut b) = pair(ten_fragment_cfg());
        a.send(Time::ZERO, NodeId(1), Bytes::from(vec![9u8; 1000]))
            .unwrap();
        for d in drain(&mut a) {
            b.on_datagram(Time::ZERO, d);
        }
        assert_eq!(drain(&mut b).len(), 1, "the ack that gets lost");
        // The sender heard nothing and resends all ten; the receiver has
        // delivered the message and re-acks every fragment, once.
        let t1 = Time::ZERO + Duration::from_millis(10);
        a.on_tick(t1);
        let resent = drain(&mut a);
        assert_eq!(resent.len(), 10);
        b.on_datagram(t1, resent[3].clone());
        assert_eq!(
            acked_sets(&drain(&mut b)),
            vec![(0..10).collect::<Vec<u32>>()],
            "one duplicate fragment is answered with the whole message"
        );
        for d in resent {
            b.on_datagram(t1, d);
        }
        let acks = drain(&mut b);
        assert_eq!(acks.len(), 1);
        assert_eq!(b.stats().msgs_received, 1);
        assert_eq!(b.stats().duplicates_dropped, 11);
        for d in acks {
            a.on_datagram(t1, d);
        }
        assert!(matches!(
            a.poll_event(),
            Some(TransportEvent::Delivered { .. })
        ));
    }

    #[test]
    fn stale_incarnation_set_ack_is_ignored() {
        let (mut a, _b) = pair(ten_fragment_cfg());
        a.send(Time::ZERO, NodeId(1), Bytes::from(vec![1u8; 1000]))
            .unwrap();
        a.on_datagram(
            Time::ZERO,
            ack_dgram(Incarnation(3), 0, FragSet::first_n(10)),
        );
        assert_eq!(a.in_flight(), 1);
        assert_eq!(a.stats().stale_dropped, 1);
        a.on_datagram(
            Time::ZERO,
            ack_dgram(Incarnation::FIRST, 0, FragSet::first_n(10)),
        );
        assert_eq!(a.in_flight(), 0);
    }

    #[test]
    fn peer_restart_cancels_acks_owed_to_its_previous_life() {
        let (mut a_old, mut b) = pair(ten_fragment_cfg());
        a_old
            .send(Time::ZERO, NodeId(1), Bytes::from(vec![1u8; 300]))
            .unwrap();
        let old = drain(&mut a_old);
        b.on_datagram(Time::ZERO, old[0].clone());
        // Before the next drain the peer's new life speaks.
        let mut a_new = Endpoint::new(
            NodeId(0),
            Incarnation(1),
            vec![Addr::primary(NodeId(0))],
            PeerTable::full_mesh([NodeId(0), NodeId(1)], 1),
            ten_fragment_cfg(),
        )
        .unwrap();
        a_new
            .send(Time::ZERO, NodeId(1), Bytes::from(vec![2u8; 300]))
            .unwrap();
        for d in drain(&mut a_new) {
            b.on_datagram(Time::ZERO, d);
        }
        let acks = drain(&mut b);
        assert_eq!(acked_sets(&acks), vec![vec![0, 1, 2]]);
        assert!(matches!(
            Frame::decode_from_bytes(&acks[0].payload),
            Ok(Frame::Ack {
                inc: Incarnation(1),
                ..
            })
        ));
    }

    #[test]
    fn parallel_strategy_acks_each_link_once() {
        let cfg = TransportConfig {
            strategy: raincore_types::config::SendStrategy::Parallel,
            ..ten_fragment_cfg()
        };
        let peers = PeerTable::full_mesh([NodeId(0), NodeId(1)], 2);
        let mk = |id: u32| {
            Endpoint::new(
                NodeId(id),
                Incarnation::FIRST,
                vec![Addr::new(NodeId(id), 0), Addr::new(NodeId(id), 1)],
                peers.clone(),
                cfg.clone(),
            )
            .unwrap()
        };
        let (mut a, mut b) = (mk(0), mk(1));
        a.send(Time::ZERO, NodeId(1), Bytes::from(vec![5u8; 400]))
            .unwrap();
        let sent = drain(&mut a);
        assert_eq!(sent.len(), 8, "four fragments on each of two links");
        for d in sent {
            b.on_datagram(Time::ZERO, d);
        }
        let acks = drain(&mut b);
        assert_eq!(acked_sets(&acks), vec![vec![0, 1, 2, 3]; 2]);
        let links: Vec<(Addr, Addr)> = acks.iter().map(|d| (d.src, d.dst)).collect();
        assert_eq!(
            links,
            vec![
                (Addr::new(NodeId(1), 0), Addr::new(NodeId(0), 0)),
                (Addr::new(NodeId(1), 1), Addr::new(NodeId(0), 1)),
            ],
            "each ack returns on the link its data arrived on"
        );
        assert_eq!(b.stats().msgs_received, 1);
    }

    #[test]
    fn owed_acks_are_part_of_the_state_digest() {
        let digest = |ep: &Endpoint| {
            let mut d = StateDigest::identity();
            ep.digest_into(Time::ZERO, &mut d);
            d.finish()
        };
        let (mut a, mut b) = pair(ten_fragment_cfg());
        a.send(Time::ZERO, NodeId(1), Bytes::from(vec![1u8; 300]))
            .unwrap();
        b.on_datagram(Time::ZERO, a.poll_outgoing().unwrap());
        // The same reassembly state, with the ack owed and with it gone.
        let owing = digest(&b);
        assert_eq!(drain(&mut b).len(), 1);
        assert_ne!(owing, digest(&b));
    }

    #[test]
    fn zero_byte_fragmented_boundary() {
        // Payload exactly at the MTU boundary: one fragment, not two.
        let cfg = TransportConfig {
            mtu: 100,
            ..Default::default()
        };
        let (mut a, _b) = pair(cfg);
        a.send(Time::ZERO, NodeId(1), Bytes::from(vec![7u8; 100]))
            .unwrap();
        let mut frames = 0;
        while a.poll_outgoing().is_some() {
            frames += 1;
        }
        assert_eq!(frames, 1);
    }
}

#[cfg(test)]
mod rto_tests {
    //! The adaptive retransmission timeout: estimator, Karn's rule,
    //! floor, ceiling, spacing of the retries, and when what was measured
    //! is forgotten.

    use super::*;
    use raincore_types::Duration;

    const US: fn(u64) -> Duration = Duration::from_micros;
    const MS: fn(u64) -> Duration = Duration::from_millis;

    fn pair(cfg: TransportConfig) -> (Endpoint, Endpoint) {
        let peers = PeerTable::full_mesh([NodeId(0), NodeId(1)], 1);
        let mk = |id: u32| {
            Endpoint::new(
                NodeId(id),
                Incarnation::FIRST,
                vec![Addr::primary(NodeId(id))],
                peers.clone(),
                cfg.clone(),
            )
            .unwrap()
        };
        (mk(0), mk(1))
    }

    fn drain(ep: &mut Endpoint) -> Vec<Datagram> {
        std::iter::from_fn(|| ep.poll_outgoing()).collect()
    }

    /// One message from `a` acknowledged by `b` after `rtt`; returns when.
    fn exchange(a: &mut Endpoint, b: &mut Endpoint, at: Time, rtt: Duration) -> Time {
        a.send(at, b.id(), Bytes::from_static(b"x")).unwrap();
        for d in drain(a) {
            b.on_datagram(at, d);
        }
        for d in drain(b) {
            a.on_datagram(at + rtt, d);
        }
        at + rtt
    }

    /// The timeout `a` arms for a fresh message to node 1 at `at`.
    fn armed(a: &mut Endpoint, at: Time) -> Duration {
        let id = a.send(at, NodeId(1), Bytes::from_static(b"probe")).unwrap();
        drain(a);
        let due = a.pending[&id].next_retry;
        a.abort(id);
        due.since(at)
    }

    #[test]
    fn cold_peer_is_armed_with_the_configured_timeout() {
        let (mut a, _b) = pair(TransportConfig::default());
        assert_eq!(armed(&mut a, Time::ZERO), MS(50));
    }

    #[test]
    fn estimator_converges_on_a_constant_rtt() {
        let cfg = TransportConfig {
            retry_timeout: Duration::from_secs(10),
            ..Default::default()
        };
        let (mut a, mut b) = pair(cfg);
        let mut now = Time::ZERO;
        now = exchange(&mut a, &mut b, now, MS(40));
        // RFC 6298 §2.2: the first sample R gives srtt = R, rttvar = R/2.
        assert_eq!(armed(&mut a, now), MS(40) + MS(20).saturating_mul(4));
        for _ in 0..60 {
            now = exchange(&mut a, &mut b, now, MS(40));
        }
        let rto = armed(&mut a, now);
        assert!(
            rto >= MS(40) && rto <= MS(41),
            "the variance term decays to nothing on a constant RTT, and \
             what is left is rounded up to the 1 ms grid: {rto:?}"
        );
        // It follows a change of path, and the variance opens up again.
        now = exchange(&mut a, &mut b, now, MS(80));
        assert!(armed(&mut a, now) > MS(80));
    }

    #[test]
    fn lan_rtt_is_floored_at_min_rto() {
        let (mut a, mut b) = pair(TransportConfig::default());
        let now = exchange(&mut a, &mut b, Time::ZERO, US(120));
        assert_eq!(armed(&mut a, now), MIN_RTO);
        assert_eq!(a.obs().rto.count(), 2, "every armed timeout is recorded");
    }

    #[test]
    fn retries_are_evenly_spaced_between_floor_and_ceiling() {
        let give_up = |rtt: Duration, ceiling: Duration| {
            let cfg = TransportConfig {
                retry_timeout: ceiling,
                max_retries: 4,
                ..Default::default()
            };
            let (mut a, mut b) = pair(cfg);
            let t0 = exchange(&mut a, &mut b, Time::ZERO, rtt);
            a.send(t0, NodeId(1), Bytes::from_static(b"void")).unwrap();
            let mut due = vec![];
            while let Some(t) = a.next_wakeup() {
                due.push(t.since(t0));
                a.on_tick(t);
            }
            assert_eq!(a.stats().retransmissions, 3);
            assert_eq!(a.stats().msgs_failed, 1);
            assert_eq!(
                armed(&mut a, t0 + due[3]),
                ceiling,
                "a peer that failed is a peer nothing is known of"
            );
            due
        };
        // A LAN peer: the floor, four times — no back-off.
        assert_eq!(give_up(US(120), MS(50)), [MS(16), MS(32), MS(48), MS(64)]);
        // A slow one: srtt + 4·rttvar = 3·R after the first sample.
        assert_eq!(give_up(MS(10), MS(50)), [MS(30), MS(60), MS(90), MS(120)]);
        // The configured timeout is the ceiling.
        assert_eq!(give_up(MS(10), MS(25)), [MS(25), MS(50), MS(75), MS(100)]);
        // At or under the floor the configured timeout is all there is.
        assert_eq!(give_up(US(120), MS(9)), [MS(9), MS(18), MS(27), MS(36)]);
    }

    #[test]
    fn ack_of_a_retransmitted_message_moves_nothing() {
        let (mut a, mut b) = pair(TransportConfig::default());
        let t0 = exchange(&mut a, &mut b, Time::ZERO, US(120));
        let before = a.peers.map[&NodeId(1)].rtt;
        // Karn: the first copy is lost, the retry is acknowledged 30 ms
        // after the send. Which copy the ack answers cannot be known.
        a.send(t0, NodeId(1), Bytes::from_static(b"again")).unwrap();
        drain(&mut a);
        a.on_tick(t0 + MIN_RTO);
        for d in drain(&mut a) {
            b.on_datagram(t0 + MS(30), d);
        }
        for d in drain(&mut b) {
            a.on_datagram(t0 + MS(30), d);
        }
        assert_eq!(a.stats().retransmissions, 1);
        assert_eq!(a.stats().msgs_delivered, 2);
        assert_eq!(a.peers.map[&NodeId(1)].rtt, before);
        // The completion-latency histogram still takes it.
        assert_eq!(a.obs().rtt.count(), 2);
    }

    #[test]
    fn acknowledgement_after_the_verdict_refutes_it() {
        let (mut a, mut b) = pair(TransportConfig::default());
        let t0 = exchange(&mut a, &mut b, Time::ZERO, US(120));
        // The peer gets the message at once and is slow to answer: its
        // acknowledgement is still on the way when the sender gives up.
        let id = a.send(t0, NodeId(1), Bytes::from_static(b"slow")).unwrap();
        for d in drain(&mut a) {
            b.on_datagram(t0, d);
        }
        let late = drain(&mut b);
        while let Some(t) = a.next_wakeup() {
            a.on_tick(t);
            drain(&mut a);
        }
        let events: Vec<_> = std::iter::from_fn(|| a.poll_event()).collect();
        assert!(events.contains(&TransportEvent::DeliveryFailed {
            msg_id: id,
            to: NodeId(1)
        }));
        for d in late.clone() {
            a.on_datagram(t0 + MS(60), d);
        }
        assert_eq!(
            a.poll_event(),
            Some(TransportEvent::FailureRefuted {
                msg_id: id,
                to: NodeId(1)
            })
        );
        // Once: a duplicate of the late acknowledgement is just unmatched.
        for d in late {
            a.on_datagram(t0 + MS(61), d);
        }
        assert_eq!(a.poll_event(), None);
        assert_eq!(a.stats().acks_unmatched, 2);
    }

    #[test]
    fn estimate_is_forgotten_with_the_peers_previous_life() {
        let (mut a, mut b) = pair(TransportConfig::default());
        exchange(&mut b, &mut a, Time::ZERO, US(120));
        let now = exchange(&mut a, &mut b, Time::ZERO, US(120));
        assert_eq!(armed(&mut a, now), MIN_RTO);
        // Node 1 restarts and speaks.
        let mut b2 = Endpoint::new(
            NodeId(1),
            Incarnation(1),
            vec![Addr::primary(NodeId(1))],
            PeerTable::full_mesh([NodeId(0), NodeId(1)], 1),
            TransportConfig::default(),
        )
        .unwrap();
        b2.send(now, NodeId(0), Bytes::from_static(b"back"))
            .unwrap();
        for d in drain(&mut b2) {
            a.on_datagram(now, d);
        }
        assert_eq!(armed(&mut a, now), MS(50), "cold again");
    }

    #[test]
    fn estimate_is_forgotten_when_the_peer_is_removed_or_readdressed() {
        let (mut a, mut b) = pair(TransportConfig::default());
        let now = exchange(&mut a, &mut b, Time::ZERO, US(120));
        a.peers_mut().set(NodeId(1), vec![Addr::primary(NodeId(1))]);
        assert_eq!(armed(&mut a, now), MS(50));
        let now = exchange(&mut a, &mut b, now, US(120));
        assert_eq!(armed(&mut a, now), MIN_RTO);
        a.peers_mut().remove(NodeId(1));
        a.peers_mut().set(NodeId(1), vec![Addr::primary(NodeId(1))]);
        assert_eq!(armed(&mut a, now), MS(50));
    }

    #[test]
    fn armed_timeouts_are_part_of_the_state_digest() {
        let digest = |ep: &Endpoint, now: Time| {
            let mut d = StateDigest::identity();
            ep.digest_into(now, &mut d);
            d.finish()
        };
        let (mut a, mut b) = pair(TransportConfig::default());
        let (mut c, mut d) = pair(TransportConfig::default());
        let t = exchange(&mut a, &mut b, Time::ZERO, US(120));
        exchange(&mut c, &mut d, Time::ZERO, US(120));
        assert_eq!(digest(&a, t), digest(&c, t));
        // Estimates that differ below the 1 ms grid arm the same timers
        // and are one state; one that arms another timeout is another.
        exchange(&mut a, &mut b, t, US(120));
        exchange(&mut c, &mut d, t, US(900));
        let t2 = t + US(900);
        assert_ne!(a.peers.map[&NodeId(1)].rtt, c.peers.map[&NodeId(1)].rtt);
        assert_eq!(a.rto(NodeId(1)), c.rto(NodeId(1)));
        assert_eq!(digest(&a, t2), digest(&c, t2));
        exchange(&mut a, &mut b, t2, US(120));
        exchange(&mut c, &mut d, t2, MS(30));
        assert!(c.rto(NodeId(1)) > a.rto(NodeId(1)));
        assert_ne!(digest(&a, t2), digest(&c, t2), "a different timeout");
    }
}

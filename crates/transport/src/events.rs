//! What the transport tells the layers above: completion and arrival
//! events, and the counters and histograms kept beside them
//! (observability only — none of those feed back into the protocol).

#[cfg(doc)]
use crate::{Endpoint, MIN_RTO};
use bytes::Bytes;
use raincore_types::{MsgId, NodeId, StateDigest};

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

impl TransportEvent {
    pub(crate) fn digest_into(&self, d: &mut StateDigest) {
        let mut completion = |tag: u8, msg_id: &MsgId, to: &NodeId| {
            d.tag(tag);
            d.write_u64(msg_id.0);
            d.node(*to);
        };
        match self {
            TransportEvent::Delivered { msg_id, to } => completion(0, msg_id, to),
            TransportEvent::DeliveryFailed { msg_id, to } => completion(1, msg_id, to),
            TransportEvent::FailureRefuted { msg_id, to } => completion(3, msg_id, to),
            TransportEvent::Received { from, payload } => {
                d.tag(2);
                d.node(*from);
                d.wire_payload(payload);
            }
        }
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

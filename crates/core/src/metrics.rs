//! Session-layer counters.
//!
//! `task_switches` is the paper's §4.1 metric: the number of times the
//! node's CPU must switch from regular traffic processing to
//! group-communication processing. In this implementation it increments
//! once per *session-layer message processed* (a token arrival, a 911
//! call or verdict, a discovery beacon) — which is exactly `L` per second
//! per node during steady state, the figure the paper compares against
//! `M·N` for broadcast protocols. Transport-level acknowledgements are
//! accounted separately in `raincore-transport`'s stats so the comparison
//! can be made with or without them.

/// Counters maintained by every [`crate::SessionNode`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionMetrics {
    /// Group-communication processing wake-ups (the §4.1 CPU metric).
    pub task_switches: u64,
    /// Tokens accepted.
    pub tokens_received: u64,
    /// Tokens forwarded to a successor.
    pub tokens_sent: u64,
    /// Timer-driven passes sooner than `token_hold`: the pacing rule
    /// found the token full and made it due at once (or, at the ring's
    /// first member, at its next slot on the loaded pace).
    pub tokens_passed_early: u64,
    /// Token self-passes (single-member ring rounds).
    pub self_passes: u64,
    /// Tokens discarded as stale (sequence number not newer than the
    /// local high-water mark — the duplicate-token elimination rule).
    pub stale_tokens_dropped: u64,
    /// 911 calls sent.
    pub calls911_sent: u64,
    /// 911 calls received (regeneration votes and join requests).
    pub calls911_received: u64,
    /// 911 denials issued (this node voted Deny on a regeneration call).
    pub denials_911: u64,
    /// Discovery beacons sent.
    pub beacons_sent: u64,
    /// Discovery beacons received.
    pub beacons_received: u64,
    /// Tokens regenerated after winning a 911 vote.
    pub regenerations: u64,
    /// Singleton groups founded after total copy loss (every join probe
    /// unanswered and no local token copy to regenerate from).
    pub bootstrap_foundings: u64,
    /// Sub-group merges performed by this node.
    pub merges: u64,
    /// Multicasts originated.
    pub multicasts_sent: u64,
    /// Multicast deliveries to the application.
    pub deliveries: u64,
    /// Safe-mode messages that entered the hold-back queue not yet
    /// deliverable (held for §2.6's extra confirmation round).
    pub safe_held_back: u64,
    /// Open-group submissions relayed into the group (§2.6).
    pub open_relayed: u64,
    /// Failure-on-delivery notifications acted upon (members removed).
    pub failures_detected: u64,
    /// Members this node evicted on a failure-on-delivery whose
    /// acknowledgement of that very message still arrived: they had the
    /// message in the life they were sent it, and were slower than the
    /// timeouts were patient. A crash or a cut link sends no such
    /// acknowledgement and is not counted; on a calm ring it must read 0.
    pub false_suspicions: u64,
    /// Successor probes sent: HUNGRY past the probe limit, this node
    /// asked the member its last pass went to whether it is there.
    pub probes_sent: u64,
    /// Successor probes that failed on delivery; each began a starvation
    /// ahead of the hungry timeout.
    pub probes_failed: u64,
    /// Failed sends this node re-routed (token re-sent to the next
    /// successor, or a 911 vote completed without the dead voter).
    pub retransmissions_acted: u64,
    /// Out-of-band bulk payload frames unicast to members (origin side).
    pub bulk_frames_sent: u64,
    /// Out-of-band bulk payload frames received.
    pub bulk_frames_received: u64,
    /// Bulk frames rejected as duplicates of an already-accepted bulk id.
    pub bulk_duplicates: u64,
    /// NACK pulls sent for manifest ids whose payload never arrived.
    pub bulk_nacks_sent: u64,
    /// NACK pulls answered from the local bulk store.
    pub bulk_nacks_served: u64,
}

impl SessionMetrics {
    /// `(field name, value)` view, in declaration order: what the metric
    /// export ([`crate::SessionNode::export_into`]) publishes.
    pub fn fields(&self) -> [(&'static str, u64); 28] {
        [
            ("task_switches", self.task_switches),
            ("tokens_received", self.tokens_received),
            ("tokens_sent", self.tokens_sent),
            ("tokens_passed_early", self.tokens_passed_early),
            ("self_passes", self.self_passes),
            ("stale_tokens_dropped", self.stale_tokens_dropped),
            ("calls911_sent", self.calls911_sent),
            ("calls911_received", self.calls911_received),
            ("denials_911", self.denials_911),
            ("beacons_sent", self.beacons_sent),
            ("beacons_received", self.beacons_received),
            ("regenerations", self.regenerations),
            ("bootstrap_foundings", self.bootstrap_foundings),
            ("merges", self.merges),
            ("multicasts_sent", self.multicasts_sent),
            ("deliveries", self.deliveries),
            ("safe_held_back", self.safe_held_back),
            ("open_relayed", self.open_relayed),
            ("failures_detected", self.failures_detected),
            ("false_suspicions", self.false_suspicions),
            ("probes_sent", self.probes_sent),
            ("probes_failed", self.probes_failed),
            ("retransmissions_acted", self.retransmissions_acted),
            ("bulk_frames_sent", self.bulk_frames_sent),
            ("bulk_frames_received", self.bulk_frames_received),
            ("bulk_duplicates", self.bulk_duplicates),
            ("bulk_nacks_sent", self.bulk_nacks_sent),
            ("bulk_nacks_served", self.bulk_nacks_served),
        ]
    }
}

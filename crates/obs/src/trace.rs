//! Bounded per-node structured trace journals.
//!
//! Every protocol-significant moment (token accept/forward, stale drop, 911
//! call/verdict/recovery, discovery beacon, merge, delivery, failure
//! detection) is recorded as a [`TraceEvent`] in a fixed-capacity ring
//! buffer. When an invariant checker trips or a failover misbehaves, the
//! journal answers *"what did this node see, in what order, at what token
//! seq"* — the causality question flat counters cannot.
//!
//! Journals are deliberately cheap: pushing is a `VecDeque` append with no
//! allocation beyond the event itself, and old events are dropped (counted)
//! rather than blocking. Renderers produce a pretty text table or JSON.

use std::collections::VecDeque;

/// One structured protocol event, stamped with node id and time.
///
/// Times are raw nanoseconds (virtual time in the simulator, wall-clock
/// offsets in the runtime) and node ids raw `u32`s, so this crate stays free
/// of dependencies and every layer can use it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    pub t_ns: u64,
    pub node: u32,
    pub kind: TraceKind,
}

/// What happened. Variants carry the token-seq / peer causality needed to
/// reconstruct an incident post-mortem.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// Accepted a token and entered EATING. `hop` is this node's position in
    /// the ring; `waited_ns` the HUNGRY→EATING wait (0 when the token
    /// arrived outside a hungry period, e.g. a regeneration).
    TokenRx {
        seq: u64,
        hop: u64,
        members: u64,
        waited_ns: u64,
    },
    /// Forwarded the token to `to`.
    TokenTx { seq: u64, to: u32 },
    /// Dropped a stale token (duplicate-token elimination).
    TokenStale { seq: u64, newest: u64 },
    /// Regenerated the token from the local copy after winning a 911 vote.
    TokenRegenerated { seq: u64 },
    /// Sent a 911 call to `polled` members, quoting our last copy's seq.
    Call911Tx {
        req_id: u64,
        last_seq: u64,
        polled: u64,
    },
    /// Received a 911 call from a member.
    Call911Rx { from: u32, last_seq: u64 },
    /// Voted on a 911 call. `newer_seq` is the evidence quoted on a denial.
    Verdict911Tx {
        to: u32,
        granted: bool,
        newer_seq: u64,
    },
    /// Received a 911 verdict.
    Verdict911Rx { from: u32, granted: bool },
    /// Completed a 911 recovery: starvation began `duration_ns` ago, the
    /// regenerated token carries `seq`.
    Recovered911 { duration_ns: u64, seq: u64 },
    /// A non-member's 911 interpreted as a join request.
    JoinRequest { from: u32 },
    /// Received a discovery beacon (BODYODOR) from another group.
    BeaconRx { from: u32, group: u32 },
    /// Handed our token (flagged TBM) to a lower group for merging.
    MergeHandoff { to: u32 },
    /// Absorbed another group's token into ours.
    Merged { absorbed_group: u32 },
    /// Delivered a multicast to the application, in token order.
    Delivered { origin: u32, seq: u64, safe: bool },
    /// A safe-mode message entered the hold-back queue not yet deliverable.
    SafeHeld { origin: u32, seq: u64 },
    /// Our own multicast became atomic (retired from the token).
    AtomicRetired { seq: u64 },
    /// Transport reported failure-on-delivery for `peer`.
    PeerFailed { peer: u32 },
    /// HUNGRY past the probe limit: asked `to`, the member our last
    /// acknowledged pass went to, whether it is there.
    ProbeTx { to: u32 },
    /// `to` acknowledged the probe: alive, the token merely late.
    ProbeAcked { to: u32 },
    /// Node shut down.
    ShutDown,
    /// One complete token hop as a cross-node span: the wire-level trace
    /// context (`circ`/`hop`/`parent`) plus the five pipeline stage
    /// durations. Stage values are 0 when no stage clock is injected
    /// (the deterministic simulator); causality is always populated.
    HopSpan {
        circ: u64,
        hop: u64,
        parent: u64,
        recv_ns: u64,
        decode_ns: u64,
        protocol_ns: u64,
        encode_ns: u64,
        send_ns: u64,
    },
    /// The pacing rule cut the hold of hop `(circ, hop)` short: the token
    /// was full, so it left `held_ns` after acceptance instead of waiting
    /// out `token_hold`. `load` is the freight that released it — the
    /// bytes the held token ordered plus those queued to board, an
    /// out-of-band entry that is a full token's worth by itself counted
    /// as its payload (DESIGN.md §16.1) — so a
    /// 300-byte token that leaves after 40 µs explains itself.
    EarlyPass {
        circ: u64,
        hop: u64,
        held_ns: u64,
        load: u64,
    },
    /// STARVING was entered; `(circ, hop)` names the last hop this node
    /// observed before the token went missing — the causal suspect.
    CauseStarving { circ: u64, hop: u64 },
    /// A 911 call was raised; `(circ, hop)` is the hop whose
    /// non-arrival triggered it, `req_id` links to the `Call911Tx`.
    Cause911 { circ: u64, hop: u64, req_id: u64 },
    /// Membership changed; `(circ, hop)` is the hop that carried the
    /// change. `added` distinguishes join from removal.
    CauseMember {
        circ: u64,
        hop: u64,
        member: u32,
        added: bool,
    },
    /// A regeneration/merge minted circulation `new_circ`; `(circ, hop)`
    /// is the parent lineage's last observed hop.
    CauseRegen { circ: u64, hop: u64, new_circ: u64 },
    /// Synthetic marker: `dropped` earlier events were evicted from a
    /// bounded journal before this point — the record has a hole here.
    Gap { dropped: u64 },
}

impl TraceKind {
    fn label(&self) -> &'static str {
        match self {
            TraceKind::TokenRx { .. } => "TOKEN_RX",
            TraceKind::TokenTx { .. } => "TOKEN_TX",
            TraceKind::TokenStale { .. } => "TOKEN_STALE",
            TraceKind::TokenRegenerated { .. } => "TOKEN_REGEN",
            TraceKind::Call911Tx { .. } => "CALL911_TX",
            TraceKind::Call911Rx { .. } => "CALL911_RX",
            TraceKind::Verdict911Tx { .. } => "VERDICT_TX",
            TraceKind::Verdict911Rx { .. } => "VERDICT_RX",
            TraceKind::Recovered911 { .. } => "RECOVERED911",
            TraceKind::JoinRequest { .. } => "JOIN_REQ",
            TraceKind::BeaconRx { .. } => "BEACON_RX",
            TraceKind::MergeHandoff { .. } => "MERGE_HANDOFF",
            TraceKind::Merged { .. } => "MERGED",
            TraceKind::Delivered { .. } => "DELIVER",
            TraceKind::SafeHeld { .. } => "SAFE_HELD",
            TraceKind::AtomicRetired { .. } => "ATOMIC",
            TraceKind::PeerFailed { .. } => "PEER_FAILED",
            TraceKind::ProbeTx { .. } => "PROBE_TX",
            TraceKind::ProbeAcked { .. } => "PROBE_ACKED",
            TraceKind::ShutDown => "SHUTDOWN",
            TraceKind::HopSpan { .. } => "HOP_SPAN",
            TraceKind::EarlyPass { .. } => "EARLY_PASS",
            TraceKind::CauseStarving { .. } => "CAUSE_STARVING",
            TraceKind::Cause911 { .. } => "CAUSE_911",
            TraceKind::CauseMember { .. } => "CAUSE_MEMBER",
            TraceKind::CauseRegen { .. } => "CAUSE_REGEN",
            TraceKind::Gap { .. } => "GAP",
        }
    }

    fn detail(&self) -> String {
        use crate::hist::fmt_ns;
        match self {
            TraceKind::TokenRx {
                seq,
                hop,
                members,
                waited_ns,
            } => {
                format!(
                    "seq={seq} hop={hop}/{members} waited={}",
                    fmt_ns(*waited_ns)
                )
            }
            TraceKind::TokenTx { seq, to } => format!("seq={seq} to=n{to}"),
            TraceKind::TokenStale { seq, newest } => format!("seq={seq} newest={newest}"),
            TraceKind::TokenRegenerated { seq } => format!("seq={seq}"),
            TraceKind::Call911Tx {
                req_id,
                last_seq,
                polled,
            } => {
                format!("req={req_id} last_seq={last_seq} polled={polled}")
            }
            TraceKind::Call911Rx { from, last_seq } => {
                format!("from=n{from} last_seq={last_seq}")
            }
            TraceKind::Verdict911Tx {
                to,
                granted,
                newer_seq,
            } => {
                if *granted {
                    format!("to=n{to} GRANT")
                } else {
                    format!("to=n{to} DENY newer_seq={newer_seq}")
                }
            }
            TraceKind::Verdict911Rx { from, granted } => {
                format!("from=n{from} {}", if *granted { "GRANT" } else { "DENY" })
            }
            TraceKind::Recovered911 { duration_ns, seq } => {
                format!("after={} new_seq={seq}", fmt_ns(*duration_ns))
            }
            TraceKind::JoinRequest { from } => format!("from=n{from}"),
            TraceKind::BeaconRx { from, group } => format!("from=n{from} group=g{group}"),
            TraceKind::MergeHandoff { to } => format!("to=n{to}"),
            TraceKind::Merged { absorbed_group } => format!("absorbed=g{absorbed_group}"),
            TraceKind::Delivered { origin, seq, safe } => {
                format!(
                    "origin=n{origin} seq={seq} mode={}",
                    if *safe { "safe" } else { "agreed" }
                )
            }
            TraceKind::SafeHeld { origin, seq } => format!("origin=n{origin} seq={seq}"),
            TraceKind::AtomicRetired { seq } => format!("seq={seq}"),
            TraceKind::PeerFailed { peer } => format!("peer=n{peer}"),
            TraceKind::ProbeTx { to } | TraceKind::ProbeAcked { to } => format!("to=n{to}"),
            TraceKind::ShutDown => String::new(),
            TraceKind::HopSpan {
                circ,
                hop,
                parent,
                recv_ns,
                decode_ns,
                protocol_ns,
                encode_ns,
                send_ns,
            } => {
                format!(
                    "circ={circ} hop={hop} parent={parent} recv={} decode={} protocol={} encode={} send={}",
                    fmt_ns(*recv_ns),
                    fmt_ns(*decode_ns),
                    fmt_ns(*protocol_ns),
                    fmt_ns(*encode_ns),
                    fmt_ns(*send_ns),
                )
            }
            TraceKind::EarlyPass {
                circ,
                hop,
                held_ns,
                load,
            } => {
                format!(
                    "circ={circ} hop={hop} held={} load={load}B",
                    fmt_ns(*held_ns)
                )
            }
            TraceKind::CauseStarving { circ, hop } => format!("circ={circ} hop={hop}"),
            TraceKind::Cause911 { circ, hop, req_id } => {
                format!("circ={circ} hop={hop} req={req_id}")
            }
            TraceKind::CauseMember {
                circ,
                hop,
                member,
                added,
            } => {
                format!(
                    "circ={circ} hop={hop} n{member} {}",
                    if *added { "added" } else { "removed" }
                )
            }
            TraceKind::CauseRegen {
                circ,
                hop,
                new_circ,
            } => format!("circ={circ} hop={hop} new_circ={new_circ}"),
            TraceKind::Gap { dropped } => format!("dropped={dropped}"),
        }
    }

    fn json_fields(&self) -> String {
        // Hand-rolled: every field is numeric or boolean, no escaping needed.
        match self {
            TraceKind::TokenRx {
                seq,
                hop,
                members,
                waited_ns,
            } => {
                format!(
                    "\"seq\":{seq},\"hop\":{hop},\"members\":{members},\"waited_ns\":{waited_ns}"
                )
            }
            TraceKind::TokenTx { seq, to } => format!("\"seq\":{seq},\"to\":{to}"),
            TraceKind::TokenStale { seq, newest } => format!("\"seq\":{seq},\"newest\":{newest}"),
            TraceKind::TokenRegenerated { seq } => format!("\"seq\":{seq}"),
            TraceKind::Call911Tx {
                req_id,
                last_seq,
                polled,
            } => {
                format!("\"req_id\":{req_id},\"last_seq\":{last_seq},\"polled\":{polled}")
            }
            TraceKind::Call911Rx { from, last_seq } => {
                format!("\"from\":{from},\"last_seq\":{last_seq}")
            }
            TraceKind::Verdict911Tx {
                to,
                granted,
                newer_seq,
            } => {
                format!("\"to\":{to},\"granted\":{granted},\"newer_seq\":{newer_seq}")
            }
            TraceKind::Verdict911Rx { from, granted } => {
                format!("\"from\":{from},\"granted\":{granted}")
            }
            TraceKind::Recovered911 { duration_ns, seq } => {
                format!("\"duration_ns\":{duration_ns},\"seq\":{seq}")
            }
            TraceKind::JoinRequest { from } => format!("\"from\":{from}"),
            TraceKind::BeaconRx { from, group } => format!("\"from\":{from},\"group\":{group}"),
            TraceKind::MergeHandoff { to } => format!("\"to\":{to}"),
            TraceKind::Merged { absorbed_group } => format!("\"absorbed_group\":{absorbed_group}"),
            TraceKind::Delivered { origin, seq, safe } => {
                format!("\"origin\":{origin},\"seq\":{seq},\"safe\":{safe}")
            }
            TraceKind::SafeHeld { origin, seq } => format!("\"origin\":{origin},\"seq\":{seq}"),
            TraceKind::AtomicRetired { seq } => format!("\"seq\":{seq}"),
            TraceKind::PeerFailed { peer } => format!("\"peer\":{peer}"),
            TraceKind::ProbeTx { to } | TraceKind::ProbeAcked { to } => format!("\"to\":{to}"),
            TraceKind::ShutDown => String::new(),
            TraceKind::HopSpan {
                circ,
                hop,
                parent,
                recv_ns,
                decode_ns,
                protocol_ns,
                encode_ns,
                send_ns,
            } => {
                format!(
                    "\"circ\":{circ},\"hop\":{hop},\"parent\":{parent},\"recv_ns\":{recv_ns},\"decode_ns\":{decode_ns},\"protocol_ns\":{protocol_ns},\"encode_ns\":{encode_ns},\"send_ns\":{send_ns}"
                )
            }
            TraceKind::EarlyPass {
                circ,
                hop,
                held_ns,
                load,
            } => {
                format!("\"circ\":{circ},\"hop\":{hop},\"held_ns\":{held_ns},\"load\":{load}")
            }
            TraceKind::CauseStarving { circ, hop } => format!("\"circ\":{circ},\"hop\":{hop}"),
            TraceKind::Cause911 { circ, hop, req_id } => {
                format!("\"circ\":{circ},\"hop\":{hop},\"req_id\":{req_id}")
            }
            TraceKind::CauseMember {
                circ,
                hop,
                member,
                added,
            } => {
                format!("\"circ\":{circ},\"hop\":{hop},\"member\":{member},\"added\":{added}")
            }
            TraceKind::CauseRegen {
                circ,
                hop,
                new_circ,
            } => {
                format!("\"circ\":{circ},\"hop\":{hop},\"new_circ\":{new_circ}")
            }
            TraceKind::Gap { dropped } => format!("\"dropped\":{dropped}"),
        }
    }
}

impl TraceEvent {
    /// One pretty text line, e.g.
    /// `[   12.345ms] n03 TOKEN_RX      seq=42 hop=1/5 waited=1.9ms`.
    pub fn render(&self) -> String {
        format!(
            "[{:>12}] n{:<3} {:<13} {}",
            fmt_t(self.t_ns),
            self.node,
            self.kind.label(),
            self.kind.detail(),
        )
    }

    /// One JSON object.
    pub fn to_json(&self) -> String {
        let fields = self.kind.json_fields();
        let sep = if fields.is_empty() { "" } else { "," };
        format!(
            "{{\"t_ns\":{},\"node\":{},\"event\":\"{}\"{sep}{fields}}}",
            self.t_ns,
            self.node,
            self.kind.label(),
        )
    }
}

fn fmt_t(ns: u64) -> String {
    format!("{:.6}s", ns as f64 / 1e9)
}

/// Bounded ring buffer of [`TraceEvent`]s for one node.
#[derive(Clone, Debug)]
pub struct TraceJournal {
    cap: usize,
    buf: VecDeque<TraceEvent>,
    dropped: u64,
}

impl TraceJournal {
    /// `cap` is the maximum retained events; older events are dropped
    /// (counted) once it is exceeded.
    pub fn new(cap: usize) -> Self {
        TraceJournal {
            cap: cap.max(1),
            buf: VecDeque::new(),
            dropped: 0,
        }
    }

    pub fn push(&mut self, t_ns: u64, node: u32, kind: TraceKind) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(TraceEvent { t_ns, node, kind });
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted so far because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    pub fn capacity(&self) -> usize {
        self.cap
    }

    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }

    /// Pretty-text dump of the whole journal (oldest first).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if self.dropped > 0 {
            out.push_str(&format!(
                "... {} earlier events dropped ...\n",
                self.dropped
            ));
        }
        for ev in &self.buf {
            out.push_str(&ev.render());
            out.push('\n');
        }
        out
    }

    /// JSON array dump of the whole journal (oldest first). A journal
    /// that has evicted events leads with a synthetic [`TraceKind::Gap`]
    /// marker, so consumers of the export can tell "nothing happened"
    /// from "the record has a hole" — silent overflow is not an option.
    pub fn render_json(&self) -> String {
        let mut out = String::from("[");
        let mut first = true;
        if let Some(gap) = self.gap_marker() {
            out.push_str(&gap.to_json());
            first = false;
        }
        for ev in &self.buf {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&ev.to_json());
        }
        out.push(']');
        out
    }

    /// The synthetic gap event a lossy journal leads with: stamped at the
    /// oldest surviving event so it sorts before everything retained.
    fn gap_marker(&self) -> Option<TraceEvent> {
        if self.dropped == 0 {
            return None;
        }
        let front = self.buf.front();
        Some(TraceEvent {
            t_ns: front.map_or(0, |e| e.t_ns),
            node: front.map_or(0, |e| e.node),
            kind: TraceKind::Gap {
                dropped: self.dropped,
            },
        })
    }
}

impl Default for TraceJournal {
    fn default() -> Self {
        TraceJournal::new(4096)
    }
}

/// Merge several per-node journals into one time-ordered event list
/// (stable: same-timestamp events keep journal order). Journals that
/// have evicted events contribute a synthetic [`TraceKind::Gap`] marker
/// at their oldest surviving timestamp, so a merged incident report
/// never silently presents a holed record as complete.
pub fn merge_journals<'a>(journals: impl IntoIterator<Item = &'a TraceJournal>) -> Vec<TraceEvent> {
    let mut all: Vec<TraceEvent> = Vec::new();
    for j in journals {
        all.extend(j.gap_marker());
        all.extend(j.iter().cloned());
    }
    all.sort_by_key(|e| e.t_ns);
    all
}

/// Pretty-text rendering of an already merged event list.
pub fn render_events_text(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&ev.render());
        out.push('\n');
    }
    out
}

/// JSON array rendering of an already merged event list (the same shape
/// [`TraceJournal::render_json`] produces, so one parser reads both).
pub fn render_events_json(events: &[TraceEvent]) -> String {
    let mut out = String::from("[");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&ev.to_json());
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_buffer_bounds_and_counts_drops() {
        let mut j = TraceJournal::new(3);
        for seq in 0..5u64 {
            j.push(seq * 10, 1, TraceKind::TokenRegenerated { seq });
        }
        assert_eq!(j.len(), 3);
        assert_eq!(j.dropped(), 2);
        let seqs: Vec<u64> = j
            .iter()
            .filter_map(|e| {
                if let TraceKind::TokenRegenerated { seq } = e.kind {
                    Some(seq)
                } else {
                    None
                }
            })
            .collect();
        assert_eq!(seqs, vec![2, 3, 4], "oldest events evicted first");
        assert!(j
            .render_text()
            .starts_with("... 2 earlier events dropped ..."));
    }

    #[test]
    fn text_rendering_carries_causality() {
        let mut j = TraceJournal::new(16);
        j.push(
            1_500_000,
            3,
            TraceKind::TokenRx {
                seq: 42,
                hop: 1,
                members: 5,
                waited_ns: 900_000,
            },
        );
        j.push(
            2_000_000,
            3,
            TraceKind::Verdict911Tx {
                to: 4,
                granted: false,
                newer_seq: 42,
            },
        );
        let text = j.render_text();
        assert!(text.contains("n3"), "node id present: {text}");
        assert!(text.contains("TOKEN_RX"), "{text}");
        assert!(text.contains("seq=42"), "{text}");
        assert!(text.contains("DENY newer_seq=42"), "{text}");
    }

    #[test]
    fn json_rendering_is_wellformed_enough() {
        let mut j = TraceJournal::new(16);
        j.push(10, 0, TraceKind::ShutDown);
        j.push(
            20,
            1,
            TraceKind::Delivered {
                origin: 2,
                seq: 7,
                safe: true,
            },
        );
        let json = j.render_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"event\":\"SHUTDOWN\"}"));
        assert!(json.contains("\"origin\":2,\"seq\":7,\"safe\":true"));
        // Balanced braces, no trailing commas.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(!json.contains(",]") && !json.contains(",}"));
    }

    #[test]
    fn overflowed_journal_json_leads_with_a_gap_marker() {
        let mut j = TraceJournal::new(2);
        for seq in 0..5u64 {
            j.push(seq * 10, 7, TraceKind::TokenRegenerated { seq });
        }
        let json = j.render_json();
        assert!(
            json.starts_with("[{\"t_ns\":30,\"node\":7,\"event\":\"GAP\",\"dropped\":3}"),
            "gap marker first, stamped at the oldest survivor: {json}"
        );
        // A lossless journal emits no marker.
        let mut clean = TraceJournal::new(8);
        clean.push(1, 0, TraceKind::ShutDown);
        assert!(!clean.render_json().contains("GAP"));
    }

    #[test]
    fn merge_annotates_gaps_per_lossy_journal() {
        let mut lossy = TraceJournal::new(1);
        lossy.push(10, 0, TraceKind::TokenRegenerated { seq: 1 });
        lossy.push(20, 0, TraceKind::TokenRegenerated { seq: 2 });
        let mut clean = TraceJournal::new(8);
        clean.push(15, 1, TraceKind::ShutDown);
        let merged = merge_journals([&lossy, &clean]);
        let labels: Vec<String> = merged
            .iter()
            .map(|e| e.to_json())
            .filter(|j| j.contains("GAP"))
            .collect();
        assert_eq!(labels.len(), 1, "one gap for one lossy journal: {merged:?}");
        // The marker sorts before the lossy journal's surviving event.
        let gap_at = merged
            .iter()
            .position(|e| matches!(e.kind, TraceKind::Gap { .. }))
            .unwrap();
        let survivor_at = merged
            .iter()
            .position(|e| matches!(e.kind, TraceKind::TokenRegenerated { seq: 2 }))
            .unwrap();
        assert!(gap_at < survivor_at);
    }

    #[test]
    fn merge_breaks_timestamp_ties_stably_by_journal_order() {
        // Two nodes log at the identical virtual instant; the merge must
        // keep journal-iteration order (a=first) deterministically.
        let mut a = TraceJournal::new(8);
        let mut b = TraceJournal::new(8);
        a.push(50, 0, TraceKind::TokenTx { seq: 9, to: 1 });
        b.push(
            50,
            1,
            TraceKind::TokenRx {
                seq: 9,
                hop: 1,
                members: 2,
                waited_ns: 0,
            },
        );
        let merged = merge_journals([&a, &b]);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].node, 0, "tie keeps journal order");
        assert_eq!(merged[1].node, 1);
        // And the reversed input order flips the tie the same way.
        let swapped = merge_journals([&b, &a]);
        assert_eq!(swapped[0].node, 1);
        assert_eq!(swapped[1].node, 0);
    }

    #[test]
    fn merge_orders_by_time() {
        let mut a = TraceJournal::new(8);
        let mut b = TraceJournal::new(8);
        a.push(30, 0, TraceKind::ShutDown);
        a.push(10, 0, TraceKind::TokenRegenerated { seq: 1 });
        b.push(20, 1, TraceKind::TokenRegenerated { seq: 2 });
        let merged = merge_journals([&a, &b]);
        let ts: Vec<u64> = merged.iter().map(|e| e.t_ns).collect();
        assert_eq!(ts, vec![10, 20, 30]);
        assert_eq!(render_events_text(&merged).lines().count(), 3);
    }
}

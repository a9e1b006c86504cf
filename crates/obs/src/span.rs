//! Cross-node hop spans: per-stage attribution and skew-tolerant merge.
//!
//! A token hop observed by one node is recorded as a
//! [`TraceKind::HopSpan`] journal event carrying the wire-level trace
//! context (circulation id, hop seq, causal parent) plus the five stage
//! durations `recv → decode → protocol → encode → send`. This module
//! turns a pile of such events — collected from *different* nodes whose
//! clocks do not agree — into one causally ordered waterfall.
//!
//! **Skew tolerance.** Per-node timestamps are only trusted *within* a
//! node; across nodes the ordering key is the hop sequence number carried
//! on the wire: `hop_a < hop_b` is happens-before along a token lineage
//! no matter what the observing nodes' clocks said. Circulation ids break
//! ties between concurrent lineages (a false-alarm fork, a pre-merge pair
//! of groups), and the `parent` pointer stitches a freshly minted
//! circulation (regeneration, merge, bootstrap) under the hop it
//! causally descends from. Wall time is demoted to a display column.
//!
//! The circulation id layout mirrors `raincore_types::TraceCtx::mint`:
//! `(minter_node << 40) | (seq at mint)` — [`circ_parts`] splits it back
//! for display. This crate stays dependency-free, so the constant is
//! replicated here and pinned by a test on both sides.

// `StageClock::monotonic` is the real-time stage timer for the runtime and
// the benches; the simulator and the protocol crates never call it.
#![allow(clippy::disallowed_types)]

use crate::hist::{fmt_ns, HistSummary, Histogram};
use crate::trace::{TraceEvent, TraceKind};

/// One pipeline stage of a token hop, in wire order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Datagram arrival → transport drain handing us the payload.
    Recv,
    /// Session-message wire decode.
    Decode,
    /// Protocol processing: acceptance, membership sync, attachments.
    Protocol,
    /// Wire image build at pass time (the pooled token encoder).
    Encode,
    /// Transport send of the forwarded token.
    Send,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 5] = [
        Stage::Recv,
        Stage::Decode,
        Stage::Protocol,
        Stage::Encode,
        Stage::Send,
    ];

    /// Stable lowercase label (metric label / JSON field stem).
    pub fn label(&self) -> &'static str {
        match self {
            Stage::Recv => "recv",
            Stage::Decode => "decode",
            Stage::Protocol => "protocol",
            Stage::Encode => "encode",
            Stage::Send => "send",
        }
    }

    /// Index into a `[u64; 5]` stage array.
    pub fn index(&self) -> usize {
        match self {
            Stage::Recv => 0,
            Stage::Decode => 1,
            Stage::Protocol => 2,
            Stage::Encode => 3,
            Stage::Send => 4,
        }
    }
}

/// Per-stage log₂ hop-latency histograms (one [`Histogram`] per
/// [`Stage`]). Handles share buckets on clone, like every other obs
/// histogram, so a harness attaches them to a registry once.
#[derive(Clone, Debug, Default)]
pub struct StageHists {
    hists: [Histogram; 5],
}

impl StageHists {
    pub fn new() -> Self {
        StageHists::default()
    }

    /// Record one stage duration in nanoseconds.
    pub fn record(&self, stage: Stage, ns: u64) {
        self.hists[stage.index()].record(ns);
    }

    /// The histogram handle for one stage.
    pub fn get(&self, stage: Stage) -> &Histogram {
        &self.hists[stage.index()]
    }

    /// Percentile summary per stage, in pipeline order.
    pub fn summaries(&self) -> [(Stage, HistSummary); 5] {
        Stage::ALL.map(|s| (s, self.get(s).summary()))
    }
}

/// An injectable monotonic nanosecond source for stage stamping.
///
/// The protocol crates are wall-clock-free (clippy's `disallowed-types`,
/// DESIGN.md §6b),
/// so real stage durations are only measured when a driver that *owns* a
/// clock — the UDP runtime, the micro-bench harness — injects one. The
/// deterministic simulator injects none and stage durations read 0 while
/// the causal structure (circ/hop/parent) stays fully populated.
#[derive(Clone)]
pub struct StageClock(std::sync::Arc<dyn Fn() -> u64 + Send + Sync>);

impl StageClock {
    pub fn new(f: impl Fn() -> u64 + Send + Sync + 'static) -> Self {
        StageClock(std::sync::Arc::new(f))
    }

    /// A clock reading nanoseconds since its own creation.
    pub fn monotonic() -> Self {
        let start = std::time::Instant::now();
        StageClock::new(move || u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX))
    }

    /// Current reading in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        (self.0)()
    }
}

impl std::fmt::Debug for StageClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("StageClock")
    }
}

/// Splits a circulation id into `(minter_node, seq_at_mint)`. Layout
/// pinned against `raincore_types::TraceCtx::mint`.
pub fn circ_parts(circ: u64) -> (u32, u64) {
    ((circ >> 40) as u32, circ & ((1 << 40) - 1))
}

/// Short display form of a circulation id: `n<minter>@<mint_seq>`.
pub fn circ_label(circ: u64) -> String {
    let (minter, seq) = circ_parts(circ);
    format!("n{minter}@{seq}")
}

/// One hop row extracted from a [`TraceKind::HopSpan`] event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HopRow {
    pub circ: u64,
    pub hop: u64,
    pub parent: u64,
    pub node: u32,
    pub t_ns: u64,
    /// Stage durations in [`Stage::ALL`] order.
    pub stages: [u64; 5],
}

/// Waterfall selection: which circulation and hop range to follow.
#[derive(Clone, Debug, Default)]
pub struct WaterfallOpts {
    /// Only hops of this circulation (`None` = all circulations).
    pub circ: Option<u64>,
    /// Skip hops below this hop seq.
    pub from_hop: Option<u64>,
    /// At most this many hop rows (after filtering).
    pub max_hops: Option<usize>,
    /// "Follow the token for K laps": limits to `K × distinct-nodes`
    /// hops of the selection. Applied after `max_hops` if both are set.
    pub laps: Option<usize>,
}

/// Extracts hop rows from a merged event list and orders them causally:
/// by hop seq first (happens-before within a lineage), then circulation
/// id, then the untrusted wall time, then node. Cause events keep their
/// original association via the `(circ, hop)` pointer they carry.
pub fn causal_hops(events: &[TraceEvent]) -> Vec<HopRow> {
    let mut rows: Vec<HopRow> = events
        .iter()
        .filter_map(|e| {
            if let TraceKind::HopSpan {
                circ,
                hop,
                parent,
                recv_ns,
                decode_ns,
                protocol_ns,
                encode_ns,
                send_ns,
            } = e.kind
            {
                Some(HopRow {
                    circ,
                    hop,
                    parent,
                    node: e.node,
                    t_ns: e.t_ns,
                    stages: [recv_ns, decode_ns, protocol_ns, encode_ns, send_ns],
                })
            } else {
                None
            }
        })
        .collect();
    rows.sort_by_key(|r| (r.hop, r.circ, r.t_ns, r.node));
    rows
}

/// The `(circ, hop)` pointer a causal-link event carries, if it is one.
// Filters the four `Cause*` variants and the early-pass mark; other kinds
// carry no causal link by construction.
#[allow(clippy::wildcard_enum_match_arm)]
fn cause_pointer(kind: &TraceKind) -> Option<(u64, u64)> {
    match *kind {
        TraceKind::CauseStarving { circ, hop }
        | TraceKind::Cause911 { circ, hop, .. }
        | TraceKind::CauseMember { circ, hop, .. }
        | TraceKind::CauseRegen { circ, hop, .. }
        | TraceKind::EarlyPass { circ, hop, .. } => Some((circ, hop)),
        _ => None,
    }
}

/// Renders the merged waterfall: one line per hop in causal order, stage
/// durations inline, and every 911/STARVING/membership/regeneration
/// event attached under the hop that triggered it.
pub fn render_waterfall(events: &[TraceEvent], opts: &WaterfallOpts) -> String {
    let mut rows = causal_hops(events);
    if let Some(c) = opts.circ {
        rows.retain(|r| r.circ == c);
    }
    if let Some(h) = opts.from_hop {
        rows.retain(|r| r.hop >= h);
    }
    if let Some(m) = opts.max_hops {
        rows.truncate(m);
    }
    if let Some(laps) = opts.laps {
        let mut nodes: Vec<u32> = rows.iter().map(|r| r.node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        rows.truncate(laps.saturating_mul(nodes.len().max(1)));
    }

    let mut out = String::new();
    if rows.is_empty() {
        out.push_str("no hop spans in selection\n");
        return out;
    }
    let mut circs: Vec<u64> = rows.iter().map(|r| r.circ).collect();
    circs.sort_unstable();
    circs.dedup();
    out.push_str(&format!(
        "waterfall: {} hops, {} circulation(s): {}\n",
        rows.len(),
        circs.len(),
        circs
            .iter()
            .map(|&c| circ_label(c))
            .collect::<Vec<_>>()
            .join(", "),
    ));
    // Index cause events by the hop they point at, so attaching them is
    // a lookup per row instead of a scan of the whole merge per row.
    let mut causes: std::collections::HashMap<(u64, u64), Vec<&TraceEvent>> =
        std::collections::HashMap::new();
    for e in events {
        if let Some(ptr) = cause_pointer(&e.kind) {
            causes.entry(ptr).or_default().push(e);
        }
    }
    let mut last_circ: Option<u64> = None;
    for row in &rows {
        if last_circ != Some(row.circ) {
            let parent = if row.parent == 0 {
                "founding".to_string()
            } else {
                format!("parent hop {}", row.parent)
            };
            out.push_str(&format!(
                "── circulation {} ({parent}) ──\n",
                circ_label(row.circ)
            ));
            last_circ = Some(row.circ);
        }
        let stages = Stage::ALL
            .iter()
            .map(|s| format!("{}={}", s.label(), fmt_ns(row.stages[s.index()])))
            .collect::<Vec<_>>()
            .join(" ");
        out.push_str(&format!(
            "hop {:>6}  n{:<3} {stages}  t={:.6}s\n",
            row.hop,
            row.node,
            row.t_ns as f64 / 1e9,
        ));
        for e in causes.get(&(row.circ, row.hop)).map_or(&[][..], |v| v) {
            out.push_str(&format!("    └ {}\n", e.render()));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(t_ns: u64, node: u32, circ: u64, hop: u64, parent: u64) -> TraceEvent {
        TraceEvent {
            t_ns,
            node,
            kind: TraceKind::HopSpan {
                circ,
                hop,
                parent,
                recv_ns: 100,
                decode_ns: 200,
                protocol_ns: 300,
                encode_ns: 400,
                send_ns: 500,
            },
        }
    }

    #[test]
    fn stages_cover_pipeline_in_order() {
        let labels: Vec<&str> = Stage::ALL.iter().map(Stage::label).collect();
        assert_eq!(labels, ["recv", "decode", "protocol", "encode", "send"]);
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }

    #[test]
    fn stage_hists_record_per_stage() {
        let h = StageHists::new();
        h.record(Stage::Decode, 1000);
        h.record(Stage::Decode, 2000);
        h.record(Stage::Send, 50);
        assert_eq!(h.get(Stage::Decode).count(), 2);
        assert_eq!(h.get(Stage::Send).count(), 1);
        assert_eq!(h.get(Stage::Recv).count(), 0);
        let sums = h.summaries();
        assert_eq!(sums[1].0, Stage::Decode);
        assert_eq!(sums[1].1.count, 2);
    }

    #[test]
    fn stage_clock_monotonic_advances() {
        let c = StageClock::monotonic();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn circ_parts_mirror_mint_layout() {
        // (3 << 40) | 17 — must match raincore_types::TraceCtx::mint.
        let circ = (3u64 << 40) | 17;
        assert_eq!(circ_parts(circ), (3, 17));
        assert_eq!(circ_label(circ), "n3@17");
    }

    #[test]
    fn causal_order_ignores_wall_clock_skew() {
        // Node 1's clock is 10s ahead of node 0's: wall-time order is
        // exactly backwards. Hop seq must win.
        let events = vec![
            span(10_000_000_000, 1, 7, 2, 0),
            span(1, 0, 7, 1, 0),
            span(10_000_000_005, 1, 7, 4, 0),
            span(3, 0, 7, 3, 0),
        ];
        let rows = causal_hops(&events);
        let hops: Vec<u64> = rows.iter().map(|r| r.hop).collect();
        assert_eq!(hops, [1, 2, 3, 4]);
    }

    #[test]
    fn waterfall_groups_circulations_and_attaches_causes() {
        let mut events = vec![
            span(10, 0, 7, 1, 0),
            span(20, 1, 7, 2, 0),
            // Regenerated circulation descends from hop 2.
            span(90, 2, 8, 4, 2),
        ];
        events.push(TraceEvent {
            t_ns: 70,
            node: 2,
            kind: TraceKind::Cause911 {
                circ: 7,
                hop: 2,
                req_id: 5,
            },
        });
        events.push(TraceEvent {
            t_ns: 10,
            node: 0,
            kind: TraceKind::EarlyPass {
                circ: 7,
                hop: 1,
                held_ns: 40_000,
                load: 8_393,
            },
        });
        let text = render_waterfall(&events, &WaterfallOpts::default());
        // An early pass is marked under its own hop row.
        let pos_early = text.find("EARLY_PASS").expect("early-pass mark");
        assert!(text.find("hop      1").unwrap() < pos_early, "{text}");
        assert!(pos_early < text.find("hop      2").unwrap(), "{text}");
        // ... with how long it was held and the freight that released it.
        assert!(text.contains("held=40.0µs load=8393B"), "{text}");
        assert!(text.contains("2 circulation(s)"), "{text}");
        assert!(text.contains("parent hop 2"), "{text}");
        assert!(text.contains("CAUSE_911"), "{text}");
        // The cause line is attached under hop 2, before circulation 8.
        let pos_cause = text.find("CAUSE_911").unwrap();
        let pos_circ8 = text.find("circulation n0@8").unwrap();
        assert!(pos_cause < pos_circ8, "{text}");
        // Follow selection: circ 7 only.
        let only7 = render_waterfall(
            &events,
            &WaterfallOpts {
                circ: Some(7),
                ..Default::default()
            },
        );
        assert!(only7.contains("hop      1"), "{only7}");
        assert!(!only7.contains("hop      4"), "{only7}");
        // Laps: 2 nodes seen in circ 7, 1 lap = 2 hops.
        let lap = render_waterfall(
            &events,
            &WaterfallOpts {
                laps: Some(1),
                ..Default::default()
            },
        );
        assert!(lap.contains("hop      2"), "{lap}");
    }
}

//! Spans of the traced run: recorded in memory by the mirror driver loop
//! (`mirror.rs`), turned into per-layer self times here, and written to
//! `benchmark/results/trace-<workload>.json` when the run ends.

use crate::stats;
use std::fmt::Write as _;

/// What a span covers. The order is the order of `KIND_NAMES`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    /// One iteration of the driver loop; parent of everything else.
    Loop,
    /// Draining the command queue (`multicast`, master lock, leave).
    Cmds,
    /// `SessionNode::on_tick`.
    Tick,
    /// The `poll_outgoing` -> `IoShard::enqueue` drain.
    Drain,
    /// `IoShard::flush` with at least one frame queued.
    Flush,
    /// The `poll_event` -> event channel hand-off, whole batch.
    Events,
    /// One `Delivery` event handed off; carries `(origin, seq)`.
    Deliver,
    /// `IoShard::pump_recv` that returned nothing: idle wait.
    PumpIdle,
    /// `IoShard::pump_recv` that returned datagrams (wait + receive).
    PumpData,
    /// `SessionNode::on_datagram`, by what the datagram carried.
    DgToken,
    DgBulk,
    DgAck,
    DgOther,
}

pub const KINDS: usize = 13;

pub const KIND_NAMES: [&str; KINDS] = [
    "loop",
    "cmds",
    "on_tick",
    "drain_outgoing",
    "flush",
    "events",
    "deliver",
    "pump_recv.idle",
    "pump_recv.data",
    "on_datagram.token",
    "on_datagram.bulk",
    "on_datagram.ack",
    "on_datagram.other",
];

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub kind: Kind,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span in the same node's list.
    pub parent: u32,
    /// `(origin, seq)` of the message the span belongs to, where known.
    pub msg: Option<(u32, u64)>,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover. Children are nested and do not overlap, so the self
/// times of a tree sum to the duration of its root.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            own[s.parent as usize] = own[s.parent as usize].saturating_sub(s.dur());
        }
    }
    own
}

/// Everything one mirror node hands back when its thread ends.
pub struct NodeTrace {
    pub node: u32,
    pub spans: Vec<Span>,
    /// Thread start and end, benchmark clock.
    pub started: u64,
    pub ended: u64,
    /// Outgoing datagrams by class, from `Frame::decode_from_bytes`.
    pub out_data_frames: u64,
    pub out_ack_frames: u64,
    /// Single-fragment token frames captured on the way out (a bounded
    /// sample), for the codec timings.
    pub token_frames: Vec<bytes::Bytes>,
}

/// Per-kind totals of one node.
pub struct KindTotals {
    pub count: [u64; KINDS],
    pub self_ns: [u64; KINDS],
}

impl NodeTrace {
    pub fn wall_ns(&self) -> u64 {
        self.ended - self.started
    }

    pub fn totals(&self) -> KindTotals {
        let mut t = KindTotals {
            count: [0; KINDS],
            self_ns: [0; KINDS],
        };
        for (s, own) in self.spans.iter().zip(self_times(&self.spans)) {
            t.count[s.kind as usize] += 1;
            t.self_ns[s.kind as usize] += own;
        }
        t
    }

    /// Sorted durations of every span of `kind`, ns.
    pub fn durations(&self, kind: Kind) -> Vec<u64> {
        let mut d: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.kind == kind)
            .map(Span::dur)
            .collect();
        d.sort_unstable();
        d
    }
}

/// Median duration of `kind` over all nodes, ns.
pub fn p50_ns(traces: &[NodeTrace], kind: Kind) -> u64 {
    let mut all: Vec<u64> = traces.iter().flat_map(|t| t.durations(kind)).collect();
    stats::median(&mut all)
}

/// Spans written per node; beyond it the file is marked truncated (the
/// totals are always over every span).
const MAX_SPANS_WRITTEN: usize = 100_000;

/// Renders the trace document. See `benchmark/README.md`, "Reading a
/// trace file".
pub fn render(workload: &str, seed: u64, traces: &[NodeTrace]) -> String {
    let mut out = String::new();
    let kinds: Vec<String> = KIND_NAMES.iter().map(|k| format!("\"{k}\"")).collect();
    let _ = write!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"clock\":\"ns since process start\",\
         \"kinds\":[{}],\"span_fields\":[\"kind\",\"start\",\"end\",\"parent\",\"origin\",\"seq\"],\
         \"nodes\":[",
        kinds.join(",")
    );
    for (i, t) in traces.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let totals = t.totals();
        let covered: u64 = totals.self_ns.iter().sum();
        let _ = write!(
            out,
            "\n{{\"node\":{},\"wall_ns\":{},\"covered_ns\":{},\"self_ns\":{{",
            t.node,
            t.wall_ns(),
            covered
        );
        for (k, name) in KIND_NAMES.iter().enumerate() {
            let sep = if k > 0 { "," } else { "" };
            let _ = write!(out, "{sep}\"{name}\":{}", totals.self_ns[k]);
        }
        let _ = write!(
            out,
            "}},\"spans_total\":{},\"spans_truncated\":{},\"spans\":[",
            t.spans.len(),
            t.spans.len() > MAX_SPANS_WRITTEN
        );
        for (j, s) in t.spans.iter().take(MAX_SPANS_WRITTEN).enumerate() {
            let sep = if j > 0 { "," } else { "" };
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let (origin, seq) = s.msg.map_or((-1, -1), |(o, q)| (i64::from(o), q as i64));
            let _ = write!(
                out,
                "{sep}[{},{},{},{parent},{origin},{seq}]",
                s.kind as u8, s.start, s.end
            );
        }
        out.push_str("]}");
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: Kind, start: u64, end: u64, parent: u32) -> Span {
        Span {
            kind,
            start,
            end,
            parent,
            msg: None,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        // loop 0..100 { tick 10..30, events 40..70 { deliver 45..50, deliver 55..65 } }
        let spans = vec![
            span(Kind::Loop, 0, 100, NO_PARENT),
            span(Kind::Tick, 10, 30, 0),
            span(Kind::Events, 40, 70, 0),
            span(Kind::Deliver, 45, 50, 2),
            span(Kind::Deliver, 55, 65, 2),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![50, 20, 15, 5, 10]);
        // Self times of a tree sum to its root's duration.
        assert_eq!(own.iter().sum::<u64>(), 100);
    }

    #[test]
    fn totals_group_by_kind_and_render_is_json_shaped() {
        let t = NodeTrace {
            node: 2,
            spans: vec![
                span(Kind::Loop, 0, 100, NO_PARENT),
                span(Kind::PumpIdle, 20, 90, 0),
                Span {
                    msg: Some((1, 7)),
                    ..span(Kind::Deliver, 5, 9, 0)
                },
            ],
            started: 0,
            ended: 100,
            out_data_frames: 0,
            out_ack_frames: 0,
            token_frames: Vec::new(),
        };
        let totals = t.totals();
        assert_eq!(totals.self_ns[Kind::Loop as usize], 26);
        assert_eq!(totals.self_ns[Kind::PumpIdle as usize], 70);
        assert_eq!(totals.count[Kind::Deliver as usize], 1);
        assert_eq!(p50_ns(std::slice::from_ref(&t), Kind::PumpIdle), 70);
        let doc = render("w", 1, &[t]);
        assert!(doc.contains("\"pump_recv.idle\":70"));
        assert!(doc.contains("[6,5,9,0,1,7]"));
        assert!(doc.contains("\"covered_ns\":100"));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
    }
}

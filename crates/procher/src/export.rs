//! The per-node export file a harness child writes and the parent tails.
//!
//! One export is a self-contained text document:
//!
//! ```text
//! RAINCORE-PROCHER-EXPORT v1
//! node=3 incarnation=1 wall_ms=1234 export_seq=17 finished=0
//! ---snapshot---
//! {"metrics":[ ... ]}            # raincore_obs::Snapshot::to_json
//! ---journal---
//! [ ... ]                        # TraceJournal::render_json
//! ---deliveries---
//! 0 1
//! 2 1                            # one "origin seq" line per delivery,
//! 0 2                            # in local delivery order (unbounded —
//! ```                            # unlike the capped trace journal)
//!
//! Children write atomically (temp file + rename) so the parent never
//! reads a torn document; both metric and journal sections round-trip
//! through the `raincore-obs` JSON parser, which is what lets the parent
//! rebuild a typed [`raincore_sim::NodeStatus`] from the file alone.

use raincore_obs::{parse_journal_json, Snapshot, TraceEvent};
use raincore_sim::text::{text_fields, Codec, Plain, TextFields};
use raincore_sim::NodeStatus;
use raincore_types::{GroupId, NodeId, OriginSeq, Ring};
use std::path::{Path, PathBuf};

const MAGIC: &str = "RAINCORE-PROCHER-EXPORT v1";
const SNAPSHOT_MARK: &str = "---snapshot---";
const JOURNAL_MARK: &str = "---journal---";
const DELIVERIES_MARK: &str = "---deliveries---";

/// One parsed child export: identity header plus the three sections.
#[derive(Clone, Debug, Default)]
pub struct ChildExport {
    /// The exporting node.
    pub node: NodeId,
    /// The child's incarnation (0 on first start, +1 per restart).
    pub incarnation: u32,
    /// Child wall-clock milliseconds since its process started.
    pub wall_ms: u64,
    /// Monotonic export counter (per incarnation).
    pub export_seq: u64,
    /// True for the final export written on graceful shutdown.
    pub finished: bool,
    /// Parsed metrics snapshot (counters, status gauges, histogram
    /// summaries).
    pub snapshot: Snapshot,
    /// Parsed trace journal (capped ring buffer; newest events win).
    pub journal: Vec<TraceEvent>,
    /// Unbounded delivery log in local delivery order.
    pub deliveries: Vec<(NodeId, OriginSeq)>,
}

/// Where node `id`'s file of `kind` lives in a run's directory:
/// `node-3.export`, `node-3.ctl`, `node-3.flight`.
pub fn node_file(dir: &Path, id: NodeId, kind: &str) -> PathBuf {
    dir.join(format!("node-{}.{kind}", id.0))
}

// The header line, one row per field.
text_fields! {
    impl ChildExport {
        "node" => node: Id;
        "incarnation" => incarnation: Plain;
        "wall_ms" => wall_ms: Plain;
        "export_seq" => export_seq: Plain;
        "finished" => finished: Bit;
    }
}

/// A node id as its bare number: `3`.
struct Id;

impl Codec<NodeId> for Id {
    fn write(v: &NodeId) -> String {
        v.0.to_string()
    }
    fn read(word: &str) -> Option<NodeId> {
        word.parse().ok().map(NodeId)
    }
}

/// A flag as `0` or `1`.
struct Bit;

impl Codec<bool> for Bit {
    fn write(v: &bool) -> String {
        u8::from(*v).to_string()
    }
    fn read(word: &str) -> Option<bool> {
        Some(word.parse::<u8>().ok()? != 0)
    }
}

/// Renders an export document from the child's raw obs strings. The
/// parameter list mirrors the document fields one-for-one.
#[allow(clippy::too_many_arguments)]
pub fn render_export(
    node: NodeId,
    incarnation: u32,
    wall_ms: u64,
    export_seq: u64,
    finished: bool,
    snapshot_json: &str,
    journal_json: &str,
    deliveries: &[(NodeId, OriginSeq)],
) -> String {
    let mut out = String::with_capacity(snapshot_json.len() + journal_json.len() + 256);
    out.push_str(MAGIC);
    out.push('\n');
    let header = ChildExport {
        node,
        incarnation,
        wall_ms,
        export_seq,
        finished,
        ..ChildExport::default()
    };
    out.push_str(&header.words());
    out.push('\n');
    out.push_str(SNAPSHOT_MARK);
    out.push('\n');
    out.push_str(snapshot_json);
    out.push('\n');
    out.push_str(JOURNAL_MARK);
    out.push('\n');
    out.push_str(journal_json);
    out.push('\n');
    out.push_str(DELIVERIES_MARK);
    out.push('\n');
    for (origin, seq) in deliveries {
        out.push_str(&format!("{} {}\n", origin.0, seq.0));
    }
    out
}

impl ChildExport {
    /// Parses an export document. Errors describe the first malformed
    /// piece — a torn or truncated file is reported, never mis-read.
    pub fn parse(text: &str) -> Result<ChildExport, String> {
        Self::parse_inner(text, true)
    }

    /// Like [`ChildExport::parse`] but leaves `journal` empty without
    /// parsing it. The journal dominates the document (a 4096-event ring
    /// renders to hundreds of kilobytes) and the per-tick status path
    /// only needs the snapshot and the delivery log — this is what keeps
    /// the parent cheap enough not to starve the children it audits.
    pub fn parse_status(text: &str) -> Result<ChildExport, String> {
        Self::parse_inner(text, false)
    }

    fn parse_inner(text: &str, with_journal: bool) -> Result<ChildExport, String> {
        let mut lines = text.lines();
        if lines.next() != Some(MAGIC) {
            return Err(format!("missing magic line `{MAGIC}`"));
        }
        let header = lines.next().ok_or("missing header line")?;
        let mut snapshot_src = String::new();
        let mut journal_src = String::new();
        let mut deliveries = Vec::new();
        let mut section = "";
        for line in lines {
            match line {
                SNAPSHOT_MARK => section = SNAPSHOT_MARK,
                JOURNAL_MARK => section = JOURNAL_MARK,
                DELIVERIES_MARK => section = DELIVERIES_MARK,
                _ => match section {
                    SNAPSHOT_MARK => snapshot_src.push_str(line),
                    JOURNAL_MARK => journal_src.push_str(line),
                    DELIVERIES_MARK => {
                        let mut it = line.split_whitespace();
                        let origin = it
                            .next()
                            .and_then(|s| s.parse::<u32>().ok())
                            .ok_or_else(|| format!("bad delivery line `{line}`"))?;
                        let seq = it
                            .next()
                            .and_then(|s| s.parse::<u64>().ok())
                            .ok_or_else(|| format!("bad delivery line `{line}`"))?;
                        deliveries.push((NodeId(origin), OriginSeq(seq)));
                    }
                    _ => return Err(format!("content before first section: `{line}`")),
                },
            }
        }
        if !matches!(section, DELIVERIES_MARK) {
            return Err("truncated export: deliveries section missing".to_string());
        }
        let snapshot =
            Snapshot::parse_json(&snapshot_src).map_err(|e| format!("snapshot section: {e}"))?;
        let journal = if with_journal {
            parse_journal_json(&journal_src).map_err(|e| format!("journal section: {e}"))?
        } else {
            Vec::new()
        };
        let mut export = ChildExport {
            snapshot,
            journal,
            deliveries,
            ..ChildExport::default()
        };
        let read = export.read_all(header.split_whitespace());
        read.map_err(|e| format!("export header: {e}"))?;
        Ok(export)
    }

    /// Rebuilds the typed per-node status the audit layer consumes from
    /// the exported status gauges, counters and delivery log. `live` is
    /// *not* derivable from the file (only the parent knows whether the
    /// process still runs and the export is current) — the caller sets
    /// it; this constructor fills it with "not reported down".
    pub fn node_status(&self) -> NodeStatus {
        let id = self.node.0.to_string();
        let labels: &[(&str, &str)] = &[("node", id.as_str())];
        let gauge = |name: &str| self.snapshot.gauge_value(name, labels);
        let down = gauge("raincore_status_down") == Some(1);
        let members: Vec<NodeId> = self
            .snapshot
            .entries_named("raincore_status_ring_member")
            .filter(|e| e.key.labels.iter().any(|(k, v)| k == "node" && *v == id))
            .filter_map(|e| {
                e.key
                    .labels
                    .iter()
                    .find(|(k, _)| k == "member")
                    .and_then(|(_, v)| v.parse::<u32>().ok())
                    .map(NodeId)
            })
            .collect();
        NodeStatus {
            live: !down,
            eating: gauge("raincore_status_eating") == Some(1),
            group: gauge("raincore_status_group").map(|g| GroupId(NodeId(g as u32))),
            ring: (!members.is_empty()).then(|| Ring::from_iter(members)),
            copy_seq: gauge("raincore_status_copy_seq").unwrap_or(0).max(0) as u64,
            regenerations: self
                .snapshot
                .counter_value("raincore_session_regenerations", labels)
                .unwrap_or(0),
            deliveries: self.deliveries.clone(),
        }
    }
}

/// Merges the trace journals of several parsed exports into one
/// time-ordered event list, the way [`raincore_obs::merge_journals`]
/// does for in-memory journals. The export file carries the
/// `raincore_trace_dropped_events` counter instead of the dropped
/// events themselves, so an overflowed journal gets a synthetic GAP
/// marker stamped at its oldest surviving event.
pub fn merge_export_journals(exports: &[ChildExport]) -> Vec<TraceEvent> {
    let mut all = Vec::new();
    for exp in exports {
        let id = exp.node.0.to_string();
        let labels: &[(&str, &str)] = &[("node", id.as_str())];
        let dropped = exp
            .snapshot
            .counter_value("raincore_trace_dropped_events", labels)
            .unwrap_or(0);
        if dropped > 0 {
            if let Some(first) = exp.journal.first() {
                all.push(TraceEvent {
                    t_ns: first.t_ns,
                    node: first.node,
                    kind: raincore_obs::TraceKind::Gap { dropped },
                });
            }
        }
        all.extend(exp.journal.iter().cloned());
    }
    // Stable: a gap marker stays ahead of the survivor it annotates.
    all.sort_by_key(|e| e.t_ns);
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use raincore_obs::Registry;

    fn sample_snapshot_json(node: u32) -> String {
        let r = Registry::new();
        let id = node.to_string();
        let labels: &[(&str, &str)] = &[("node", id.as_str())];
        r.counter("raincore_session_regenerations", labels).add(3);
        r.gauge("raincore_status_group", labels).set(2);
        r.gauge("raincore_status_eating", labels).set(1);
        r.gauge("raincore_status_down", labels).set(0);
        r.gauge("raincore_status_copy_seq", labels).set(41);
        for m in ["2", "5"] {
            r.gauge(
                "raincore_status_ring_member",
                &[("node", id.as_str()), ("member", m)],
            )
            .set(1);
        }
        r.snapshot().to_json()
    }

    #[test]
    fn export_round_trip_and_status_extraction() {
        let deliveries = vec![(NodeId(2), OriginSeq(1)), (NodeId(5), OriginSeq(1))];
        let doc = render_export(
            NodeId(5),
            1,
            777,
            9,
            false,
            &sample_snapshot_json(5),
            "[]",
            &deliveries,
        );
        assert_eq!(
            doc.lines().nth(1),
            Some("node=5 incarnation=1 wall_ms=777 export_seq=9 finished=0")
        );
        let parsed = ChildExport::parse(&doc).expect("parse");
        assert_eq!(parsed.node, NodeId(5));
        assert_eq!(parsed.incarnation, 1);
        assert_eq!(parsed.wall_ms, 777);
        assert_eq!(parsed.export_seq, 9);
        assert!(!parsed.finished);
        assert_eq!(parsed.deliveries, deliveries);
        let status = parsed.node_status();
        assert!(status.live && status.eating);
        assert_eq!(status.group, Some(GroupId(NodeId(2))));
        assert_eq!(status.copy_seq, 41);
        assert_eq!(status.regenerations, 3);
        assert_eq!(status.ring, Some(Ring::from_iter([NodeId(2), NodeId(5)])));
        assert_eq!(status.deliveries, deliveries);
    }

    #[test]
    fn merge_synthesizes_gap_for_overflowed_journal() {
        use raincore_obs::TraceKind;
        let r = Registry::new();
        r.counter("raincore_trace_dropped_events", &[("node", "7")])
            .add(5);
        let journal_json = r#"[{"t_ns":100,"node":7,"event":"SHUTDOWN"}]"#;
        let doc = render_export(
            NodeId(7),
            0,
            1,
            1,
            false,
            &r.snapshot().to_json(),
            journal_json,
            &[],
        );
        let exp = ChildExport::parse(&doc).expect("parse");
        let merged = merge_export_journals(std::slice::from_ref(&exp));
        assert_eq!(merged.len(), 2, "{merged:?}");
        assert_eq!(merged[0].kind, TraceKind::Gap { dropped: 5 });
        assert_eq!(merged[0].t_ns, 100, "gap stamped at oldest survivor");
        assert_eq!(merged[0].node, 7);

        // No counter in the snapshot → no synthetic gap.
        let clean = render_export(
            NodeId(7),
            0,
            1,
            1,
            false,
            &sample_snapshot_json(7),
            journal_json,
            &[],
        );
        let exp = ChildExport::parse(&clean).expect("parse");
        assert_eq!(merge_export_journals(std::slice::from_ref(&exp)).len(), 1);
    }

    #[test]
    fn truncated_export_is_rejected() {
        let doc = render_export(
            NodeId(0),
            0,
            1,
            1,
            true,
            &sample_snapshot_json(0),
            "[]",
            &[],
        );
        // Cut the document anywhere before the deliveries marker: the
        // parser must refuse rather than return a partial read.
        let cut = doc.find(DELIVERIES_MARK).unwrap();
        assert!(ChildExport::parse(&doc[..cut]).is_err());
        assert!(ChildExport::parse("").is_err());
        assert!(ChildExport::parse("RAINCORE-PROCHER-EXPORT v0\n").is_err());
    }
}

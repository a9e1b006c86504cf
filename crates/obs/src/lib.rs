//! # raincore-obs — observability substrate
//!
//! The paper's whole evaluation (§4 of *The Raincore Distributed Session
//! Service for Networking Elements*) is about **measuring** the protocol:
//! CPU task switches, network overhead, token rotation rate, failover time.
//! Flat counters are not enough to reproduce that credibly — latency claims
//! need distributions (p50/p90/p99), and protocol incidents (a lost token, a
//! 911 vote, a ring merge) need a causal event trail that survives until a
//! post-mortem asks for it.
//!
//! This crate provides the three pieces, on `std` only so every other layer
//! can depend on it without cycles and the workspace builds fully offline:
//!
//! - [`Histogram`]: lock-free log₂-bucketed latency/size histograms with
//!   [`HistSummary`] percentile summaries (p50/p90/p99/max).
//! - [`Registry`]: a process-wide table of labeled counters, gauges and
//!   histograms. Registration takes a short lock; the returned handles are
//!   plain `Arc<Atomic*>` so the hot path is lock-free.
//! - [`TraceJournal`]: a bounded per-node ring buffer of structured
//!   [`TraceEvent`]s (token seq, hop, 911/merge/discovery causality) with
//!   pretty-text and JSON renderers for post-mortem dumps.
//! - Cross-node hop spans: per-stage latency attribution ([`StageHists`])
//!   and the skew-tolerant causal merge/waterfall over `HopSpan` journal
//!   events ([`render_waterfall`]).
//! - The fail-over budget: [`OutageTracker`] cuts the gap in deliveries
//!   around a dead member into stages (quiet, detect, vote, repair,
//!   resume) from one node's journal events.
//! - [`FlightRecorder`]: an always-on lock-free ring of the last ~1k
//!   protocol moments, dumped automatically when an oracle trips.
//!
//! Exports: [`Snapshot::to_prometheus`] renders the Prometheus text
//! exposition format; [`Snapshot::to_json`] a self-contained JSON document.
//! Both are callable from the threaded runtime (`raincore::runtime`) and the
//! deterministic sim harness (`raincore-sim`). The JSON documents parse
//! back via [`Snapshot::parse_json`] and [`parse_journal_json`], so
//! out-of-process harnesses (the real-socket conformance runner) can
//! rebuild typed telemetry from exported files.

// Adding a variant to a protocol or fault enum must be a compile-time
// event at every dispatch site (DESIGN.md §6b).
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]

mod export;
mod hist;
mod metrics;
mod outage;
mod parse;
mod recorder;
mod span;
mod trace;

pub use hist::{fmt_ns, HistSummary, Histogram, BUCKETS};
pub use metrics::{Counter, Gauge, MetricKey, Registry, Snapshot, SnapshotEntry, SnapshotValue};
pub use outage::{outages, render_outages, OutageMode, OutageRow, OutageStage, OutageTracker};
pub use parse::{parse_journal_json, JsonError, JsonValue};
pub use recorder::{FlightRecord, FlightRecorder, RecKind, DEFAULT_FLIGHT_SLOTS};
pub use span::{
    causal_hops, circ_label, circ_parts, render_waterfall, HopRow, Stage, StageClock, StageHists,
    WaterfallOpts,
};
pub use trace::{
    merge_journals, render_events_json, render_events_text, TraceEvent, TraceJournal, TraceKind,
};

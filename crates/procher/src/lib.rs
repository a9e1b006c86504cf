//! Real-socket multi-process conformance harness ("procher").
//!
//! The deterministic simulator ([`raincore_sim`]) and the bounded model
//! checker prove the protocol correct under a *modeled* network. This
//! crate closes the remaining gap to the paper's actual deployment shape
//! (§2.1: "Raincore uses UDP as the packet sending and receiving
//! interface"): it spawns N real OS processes, each running the threaded
//! [`raincore::runtime::RuntimeNode`] driver over real UDP sockets, and
//! routes every packet through a userspace [`proxy::LossProxy`] that
//! injects seeded drops, duplication, reordering, delay and per-link
//! partitions — the same fault vocabulary as the simulator's chaos
//! harness ([`raincore_sim::ChaosFault`]).
//!
//! Children periodically serialize their observability state (metrics
//! snapshot JSON + trace journal + delivery log) to per-node export
//! files ([`export::ChildExport`]); the parent tails those files,
//! rebuilds an out-of-process [`raincore_sim::StatusView`], and re-runs
//! the *same* liveness oracles and calm-gated membership auditor that
//! gate the simulated chaos runs ([`cluster::run_cluster`]).
//!
//! A differential mode ([`differential::run_differential`]) replays one
//! fixed seeded workload through both the simulator and the process
//! cluster and diffs the timing-invariant projections: per-node delivered
//! message sets, cross-node agreed order, per-origin sequencing, final
//! membership and token-regeneration counts.
//!
//! Which auditors are sound out-of-process? Exports from different
//! children are *not* a consistent instant snapshot — each child writes
//! on its own clock, so the merged view time-skews by up to one export
//! period per node. Claims quantified over "the same instant" (token
//! uniqueness, unique 911 winner) would report false positives over such
//! a view and are therefore left to the simulator; the harness runs the
//! claims that tolerate skew: bounded token progress, bounded post-heal
//! convergence, merged-group identity, calm-gated no-resurrection, and
//! (on crash-free runs) delivery-order prefix agreement. See
//! `DESIGN.md` §10 for the full rationale.

// Adding a variant to a protocol or fault enum must be a compile-time
// event at every dispatch site (DESIGN.md §6b).
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod child;
pub mod cluster;
pub mod differential;
pub mod export;
pub mod proxy;

use raincore_types::{Duration, SessionConfig};

/// The session-timer profile shared by every harness mode — children and
/// the simulator side of the differential run use the *same* config, so
/// a sim↔real divergence cannot hide in mismatched timers.
///
/// Timers are scaled for localhost RTTs but with generous suspicion
/// bounds: the harness typically runs many child processes plus the
/// auditing parent on few (often one) CPU cores, so a token round that
/// takes microseconds of network time can take tens of milliseconds of
/// scheduling time. The hungry timeout must comfortably exceed a full
/// token round *under that contention* plus injected loss and delay —
/// too tight a bound turns scheduler jitter into false starvation and a
/// 911 storm that never converges.
pub fn fast_profile(nodes: u32) -> SessionConfig {
    let mut cfg = SessionConfig::for_cluster(nodes);
    cfg.token_hold = Duration::from_millis(2);
    cfg.hungry_timeout = Duration::from_millis(400);
    cfg.starving_retry = Duration::from_millis(150);
    cfg.beacon_period = Duration::from_millis(80);
    cfg
}

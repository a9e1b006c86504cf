//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each experiment is a library function (testable, reusable) plus a thin
//! binary that prints the same rows the paper reports:
//!
//! | binary | paper artifact |
//! |---|---|
//! | `exp_taskswitch` | §4.1 CPU task-switching comparison (L vs M·N vs 2PC) |
//! | `exp_netoverhead` | §4.1 network overhead ((N-1)² packets of M bytes vs N packets of N·M bytes) |
//! | `exp_fig3` | Figure 3: Rainwall throughput & scaling at 1/2/4 gateways |
//! | `exp_failover` | §3.2: < 2 s fail-over hiccup on cable unplug |
//! | `exp_medium` | §4.1: hub (shared 100 Mbit/s) vs switch (N × 100 Mbit/s) |
//! | `exp_ablation_tokenfreq` | token rate L vs task switches & multicast latency |
//! | `exp_ablation_safe` | agreed vs safe delivery latency (§2.6's extra round) |
//! | `exp_ablation_redundant` | redundant links vs membership stability (§2.1) |
//! | `exp_quiescent` | §2.5: membership agreement after a burst of crashes |
//! | `exp_ring_size` | one flat ring at N = 8…64: latency and wake-up rate |
//!
//! E1 and E2 measure Raincore in the simulator and take the broadcast
//! baselines they compare it with from [`baselines`], their closed forms.
//!
//! Run everything with `--release`; the simulations move hundreds of
//! thousands of packets.

// Adding a variant to a protocol or fault enum must be a compile-time
// event at every dispatch site (DESIGN.md §6b).
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod cli;
pub mod experiments;
pub mod report;

pub use report::Table;

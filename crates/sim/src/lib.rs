//! Deterministic discrete-event simulation harness for Raincore clusters.
//!
//! [`Cluster`] wires any number of [`SessionNode`]s (and optional
//! plain hosts such as traffic clients/servers) to a
//! [`raincore_net::SimNet`], and runs the whole system on a virtual
//! clock. Runs are bit-for-bit reproducible from the network seed: events
//! are processed in `(time, node-id)` order and all randomness is seeded.
//!
//! Fault injection mirrors everything the paper exercises: node crashes
//! and restarts (§2.2/§2.3), unplugged cables (§3.2), link failures and
//! partitions followed by discovery and merge (§2.4).
//!
//! Applications that need a data plane (the Rainwall packet engine, the
//! traffic generators) attach a [`NodeApp`] to a node: the harness routes
//! `PacketClass::Data` datagrams to the app and `PacketClass::Control`
//! datagrams to the session stack.
//!
//! [`SessionNode`]: raincore_session::SessionNode

// Adding a variant to a protocol or fault enum must be a compile-time
// event at every dispatch site (DESIGN.md §6b).
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod audit;
pub mod chaos;
pub mod closed_loop;
pub mod cluster;
pub mod dump;
pub mod engine;
pub mod explore;
pub mod obs;
pub mod open_app;
pub mod text;

/// `println!` for a binary's report lines. A stdout closed early (piped
/// into `head` or `grep -q`) drops the line instead of panicking, so the
/// binary still exits with its own verdict code.
#[macro_export]
macro_rules! outln {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        let _ = writeln!(std::io::stdout(), $($arg)*);
    }};
}

/// [`outln!`] without the newline: `print!` for text that brings its own.
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        let _ = write!(std::io::stdout(), $($arg)*);
    }};
}

pub use app::{NodeApp, NodeCtl};
pub use audit::{
    AuditView, Auditors, CompletenessAuditor, ConvergenceOracle, Delivered, GroupIdOracle,
    LivenessOracles, MembershipAuditor, NineElevenAuditor, NodeStatus, OrderAuditor, StatusView,
    TokenAuditor, TokenLivenessOracle,
};
pub use chaos::{
    generate_schedule, run_chaos, ChaosConfig, ChaosEvent, ChaosFault, ChaosReport, ChaosScenario,
    ChaosViolation, FaultKind,
};
pub use closed_loop::ClosedLoop;
pub use cluster::{Cluster, ClusterBuilder, ClusterConfig};
pub use engine::{NetBelief, ScheduleEngine, TickBounds};
pub use explore::{is_bulk_frame, Action, ExploreReport, Explorer, ModelCheckConfig, ModelWorld};
pub use obs::{standard_invariants, InvariantFailure};
pub use open_app::OpenClientApp;

//! Broadcast-style group communication baselines (§4.1 comparison points).
//!
//! The paper argues that in a unicast networking environment the token
//! protocol beats "broadcast-based" group communication on CPU
//! task-switching and network overhead. To measure that claim, this crate
//! implements the baselines the paper reasons about, emulated over unicast
//! exactly as §4.1 describes ("broadcast messages are achieved by sending
//! multiple unicast messages"):
//!
//! * [`Mode::Unreliable`] — plain fan-out: each multicast is `N-1`
//!   unicast packets; no acknowledgements, no ordering guarantee.
//! * [`Mode::Reliable`] — acknowledged fan-out with retransmission:
//!   `2(N-1)` packets per multicast; atomic-ish but receivers can
//!   disagree on delivery order.
//! * [`Mode::Sequenced`] — a sequencer-based two-phase commit giving
//!   atomicity *and* total order: submit → prepare → prepared → commit
//!   (→ committed), the "up to 6·M·N task-switching actions" regime the
//!   paper cites for consistent ordering.
//!
//! Every node counts `events_processed` — protocol messages it had to
//! wake up for — using the same definition as the session layer's
//! `task_switches`, so the §4.1 table compares like with like.

// The protocol must degrade, never abort (a panic in the token path is a
// token loss 911 then has to repair), and adding a message variant must
// be a compile-time event at every dispatch site (DESIGN.md §6b).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::wildcard_enum_match_arm
    )
)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod node;
pub mod wire;

pub use harness::BroadcastCluster;
pub use node::{BroadcastEvent, BroadcastNode, BroadcastStats, Mode};
pub use wire::BMsg;

//! The Raincore Distributed Session Service (§2 of Fan & Bruck, IPPS 2001).
//!
//! A fault-tolerant token-ring protocol providing, over *unicast* links:
//!
//! * **group membership** — the circulating TOKEN carries the
//!   authoritative membership; aggressive failure detection via the
//!   transport's failure-on-delivery notification removes dead successors
//!   in a single hop (§2.2, §2.5);
//! * **reliable atomic multicast with consistent ordering** — messages are
//!   piggybacked on the token ("the token is the locomotive"); *agreed*
//!   (total) ordering costs nothing extra, *safe* delivery costs one extra
//!   round (§2.6);
//! * **token recovery and join** — the 911 protocol regenerates a lost
//!   token exactly once (from the newest surviving copy) and doubles as
//!   the join path, which automatically heals link failures and
//!   failure-detector false alarms (§2.3);
//! * **split-brain handling** — critical-resource monitors, BODYODOR
//!   discovery beacons and the deadlock-free group merge protocol (§2.4);
//! * **mutual exclusion** — the EATING state is a fault-tolerant master
//!   lock (§2.7), on which `raincore-dlm` builds named data locks.
//!
//! The central type is [`SessionNode`]; applications are [`SessionApp`]s
//! hosted beside it by the simulator or the runtime, fed its
//! [`SessionEvent`]s.

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

pub mod app;
mod ctx;
mod discovery;
pub mod events;
pub mod metrics;
mod multicast;
pub mod node;
pub mod obs;
pub mod open;
mod recovery;
pub mod replica;
mod ring_pass;
pub mod typestate;

pub use app::SessionApp;
pub use events::{Delivery, SessionEvent};
pub use metrics::SessionMetrics;
pub use multicast::{MAX_ATTACHED, MAX_PAYLOAD};
pub use node::{SessionNode, StartMode};
pub use obs::NodeObs;
pub use open::{unwrap_open, wrap_open, OpenClient, OpenOutcome};
pub use replica::{Frame, OpId, Replica, Table};
pub use typestate::{Role, TimerFired, VerdictOutcome, VoteProgress};

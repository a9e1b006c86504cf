//! The Raincore distributed lock manager (§2.7).
//!
//! The paper: "a Raincore distributed lock manager is implemented as part
//! of the Raincore Distributed Data Service, using the mutual exclusion
//! service to acquire and release data locks. The data locks …, comparing
//! to this master-lock, can be associated with one or more shared data
//! items, and can be owned by a node without requiring the node to remain
//! in the EATING state."
//!
//! [`LockManager`] realizes that as a *replicated lock table*: lock and
//! unlock operations are reliable multicasts (they ride the token while
//! the requester holds it — i.e. they are injected under the mutual
//! exclusion the token provides), and because Raincore multicast is
//! atomic with agreed total order, every member processes the same
//! operations in the same order and the tables never diverge. A grant
//! therefore needs no extra round-trips, and — unlike the master lock —
//! holding a data lock does not pin the token.
//!
//! Fault tolerance: when the membership removes a node, every replica
//! releases the locks it owned and removes it from waiter queues, in the
//! same deterministic way, so locks owned by crashed nodes free
//! themselves. A member that joins a running group
//! ([`LockManager::joining`]) is sent the table by the group and applies
//! nothing before it arrives, so it cannot grant itself a lock somebody
//! holds (DESIGN.md §18.3).

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

pub mod manager;
pub mod ops;

pub use manager::{LockEvent, LockManager, LockTableStats};
pub use ops::LockOp;

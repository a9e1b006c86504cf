//! The Raincore Transport Service (§2.1 of the paper).
//!
//! An *atomic* reliable unicast built on an unreliable datagram interface.
//! It differs from TCP in exactly the three ways the paper lists:
//!
//! 1. **Atomic packet unicast with acknowledgement** — a message is either
//!    completely delivered or not delivered at all; there are no
//!    connections or streams, hence no connection state to track as nodes
//!    come and go. Messages larger than the MTU are fragmented and
//!    reassembled, but delivery to the upper layer is all-or-nothing.
//! 2. **Multiple physical addresses per node** — redundant links make the
//!    group resilient to link failures and less likely to partition. The
//!    send strategy over the addresses is configurable:
//!    [`SendStrategy::Sequential`] walks them one at a time,
//!    [`SendStrategy::Parallel`] fans every transmission out on all of
//!    them ([`SendStrategy`] lives in `raincore-types`).
//! 3. **Notifications both ways** — the upper layer hears when the
//!    acknowledgement arrives ([`TransportEvent::Delivered`]) *and* when
//!    all sending efforts have failed
//!    ([`TransportEvent::DeliveryFailed`]). The failure-on-delivery
//!    notification is the local-view failure detector that drives the
//!    session layer's aggressive membership protocol. How soon it fires
//!    is measured, not configured: the retransmission timeout follows a
//!    per-peer round-trip estimate between [`MIN_RTO`] and the configured
//!    `retry_timeout` (DESIGN.md §17).
//!
//! The implementation is **sans-io**: an [`Endpoint`] consumes datagrams
//! and virtual time and produces datagrams and events through small
//! queues. The same code runs under the deterministic simulator and the
//! real UDP runtime.
//!
//! # Module map
//!
//! [`Endpoint`] (`endpoint`) is a composer: the public API, frame decode
//! and dispatch, the order of the state digest. What it owns and lends is
//! `ctx` (identity, peer table, queues, counters; a frame becomes a
//! datagram there); `sender` fragments, transmits per strategy, retries,
//! matches acknowledgements and gives up; `receiver` admits a peer's
//! incarnation, reassembles, hands up exactly once and keeps the ledger
//! of owed acknowledgements; `peers` is the address table, the round-trip
//! estimate and the timeout armed from it; `events` the notifications and
//! counters. [`frame`] is the wire format, [`dedup`] and [`bulk`] the
//! windows and the payload store the session's out-of-band path shares
//! (DESIGN.md §5.2 has the rule-by-rule table).
//!
//! [`SendStrategy`]: raincore_types::config::SendStrategy
//! [`SendStrategy::Sequential`]: raincore_types::config::SendStrategy::Sequential
//! [`SendStrategy::Parallel`]: raincore_types::config::SendStrategy::Parallel

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

pub mod bulk;
mod ctx;
pub mod dedup;
pub mod endpoint;
mod events;
pub mod frame;
mod peers;
mod receiver;
mod sender;
#[cfg(test)]
mod testkit;

pub use bulk::{BulkId, BulkStore};
pub use dedup::BulkDedup;
pub use endpoint::{Endpoint, PeerTable, TransportEvent, TransportObs, TransportStats, MIN_RTO};
pub use frame::{FragSet, Frame, MAX_FRAGS};

//! Datagram network substrate for Raincore.
//!
//! The paper's evaluation (§4) is about a cluster of networking elements on
//! a Fast-Ethernet LAN. We cannot ship a lab of Sun Ultra-5 gateways, so
//! this crate supplies the closest synthetic equivalent: a **deterministic
//! simulated network** ([`sim::SimNet`]) that models
//!
//! * **switched** media (each NIC has its own full-duplex bandwidth — the
//!   aggregate grows with node count) versus a shared **hub** (all nodes
//!   contend for one medium — the configuration §4.1 argues against),
//! * per-packet serialization delay from configurable bandwidth,
//! * propagation latency with optional deterministic jitter,
//! * i.i.d. packet loss (seeded, reproducible),
//! * link failures, NIC failures ("unplugged cables"), node crashes and
//!   full partitions, all switchable at any instant, and
//! * complete per-node, per-traffic-class packet/byte accounting — the raw
//!   material for the paper's network-overhead table.
//!
//! A real UDP backend with the same [`Datagram`] vocabulary
//! ([`batch::BatchIo`], whose sockets [`udp::UdpNet`] binds) is provided
//! so the protocol stack also runs on an actual network.
//!
//! All protocol crates are *sans-io*: they consume and produce [`Datagram`]
//! values and never touch sockets, which is what lets one implementation
//! run under both backends.

// `deny` rather than `forbid` so the one FFI module (`mmsg`, the
// sendmmsg/recvmmsg/poll bindings) can opt in with a module-level allow;
// everything else in the crate stays safe code.
// Adding a variant to a protocol or fault enum must be a compile-time
// event at every dispatch site (DESIGN.md §6b).
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod batch;
#[cfg(target_os = "linux")]
mod mmsg;
pub mod sim;
pub mod stats;
pub mod udp;

pub use addr::{Addr, Datagram, PacketClass, WIRE_OVERHEAD};
pub use batch::{BatchConfig, BatchIo, IoBackend, IoMetrics, IoWaker};
pub use sim::{MediumKind, SimNet, SimNetConfig};
pub use stats::{ClassCounts, NetStats, NodeStats};
pub use udp::{decode_wire, decode_wire_shared, encode_wire, UdpNet};

//! # Raincore
//!
//! A production-quality Rust reproduction of **"The Raincore Distributed
//! Session Service for Networking Elements"** (Fan & Bruck, IPPS 2001):
//! a fault-tolerant, unicast-based token-ring group-communication stack
//! for clusters of networking elements, together with the applications the
//! paper describes (the Virtual IP manager and the Rainwall firewall
//! cluster) and the full evaluation harness.
//!
//! This facade crate re-exports every sub-crate under one roof:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`types`] | `raincore-types` | ids, time, wire codec, messages, ring, config |
//! | [`obs`] | `raincore-obs` | histograms, metric registry, trace journals, exporters |
//! | [`net`] | `raincore-net` | simulated networks (switch/hub) + UDP backend |
//! | [`transport`] | `raincore-transport` | atomic reliable unicast, failure-on-delivery |
//! | [`session`] | `raincore-session` | token ring, 911, discovery/merge, multicast, mutex |
//! | [`sim`] | `raincore-sim` | deterministic discrete-event cluster harness |
//! | [`dlm`] | `raincore-dlm` | distributed lock manager |
//! | [`vip`] | `raincore-vip` | virtual IP manager |
//! | [`rainwall`] | `raincore-rainwall` | firewall cluster + traffic generator |
//!
//! ## Quick start
//!
//! Run the quickstart example, which forms a four-node group in the
//! deterministic simulator, multicasts some messages, crashes a node, and
//! watches the membership heal:
//!
//! ```bash
//! cargo run --example quickstart
//! ```
//!
//! See the repository `README.md` for the architecture overview and
//! `EXPERIMENTS.md` for the paper-versus-measured record.

// Adding a variant to a protocol or fault enum must be a compile-time
// event at every dispatch site (DESIGN.md §6b).
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]
#![forbid(unsafe_code)]

pub mod runtime;
pub mod shard;

pub use raincore_data as data;
pub use raincore_dlm as dlm;
pub use raincore_net as net;
pub use raincore_obs as obs;
pub use raincore_rainwall as rainwall;
pub use raincore_session as session;
pub use raincore_sim as sim;
pub use raincore_transport as transport;
pub use raincore_types as types;
pub use raincore_vip as vip;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use raincore_dlm::LockManager;
    pub use raincore_net::sim::{MediumKind, SimNetConfig};
    pub use raincore_session::{Delivery, SessionEvent, SessionNode};
    pub use raincore_sim::{Cluster, ClusterConfig};
    pub use raincore_types::{
        DeliveryMode, Duration, GroupId, NodeId, Ring, SessionConfig, Time, TransportConfig,
    };
    pub use raincore_vip::VipManager;
}

//! The Raincore Virtual IP manager (§3.1).
//!
//! "One way of distributing traffic to a group of networking elements is
//! by maintaining a pool of highly available virtual IPs among the group
//! members. … The virtual IPs are mutually exclusively assigned to
//! different nodes in the cluster by the Virtual IP manager. In the
//! presence of failures, Raincore … discovers the failure and the Virtual
//! IP manager promptly moves all the virtual IPs that were owned by the
//! failed node to healthy ones."
//!
//! [`VipManager`] is a replica of the assignment table on every member:
//!
//! * assignments are shared as Raincore reliable multicasts, so every
//!   replica applies the same changes in the same order;
//! * reassignment decisions are made by the group leader (lowest member
//!   id) **under the master lock** — the paper's "uses the master-lock to
//!   make sure that there is no conflict in the virtual IP address
//!   assignments";
//! * when a node acquires a VIP it emits a **gratuitous ARP**
//!   ([`VipEvent::GratuitousArp`]), which a manager built
//!   [`VipManager::announcing`] reflects into a shared [`SubnetArp`]
//!   cache — the stand-in for refreshing the ARP caches of every host and
//!   router on the subnet. MAC addresses never move; only the VIP→owner
//!   mapping changes, exactly as in the paper.
//!
//! The manager is a [`raincore_session::SessionApp`]: the simulator and
//! the UDP runtime host the same state machine (DESIGN.md §18).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod manager;

pub use manager::{SubnetArp, VipEvent, VipManager};

//! The Raincore Distributed Data Service.
//!
//! The paper's architecture (Figure 2) places a *Distributed Data
//! Service* directly above the Distributed Session Service, and §5
//! states its ambition: "provide developers an environment where they
//! will be able to develop distributed networking applications with the
//! ease of developing a multi-thread shared-memory application on a
//! single processor."
//!
//! [`DataStore`] realizes that as a **replicated, versioned key-value
//! store**:
//!
//! * Writes (`put` / `delete` / `cas` / `add`) are reliable multicasts:
//!   the session service's *agreed total order* means every replica
//!   applies the same writes in the same order — the tables can never
//!   diverge, and no extra coordination round-trips are needed.
//! * Reads are **local** (every member has the whole store) — the shared
//!   state is as cheap to read as process memory, which is exactly what
//!   a networking element wants on its fast path.
//! * **Compare-and-swap** uses per-key versions: concurrent CAS attempts
//!   are arbitrated by the total order, so exactly one wins — atomic
//!   read-modify-write without holding any lock. (`add` is the
//!   convenience integer RMW built the same way.)
//! * Coarser critical sections compose with the `raincore-dlm` lock
//!   manager: take a data lock, do several puts, release.
//! * **State transfer**: a member that joins a running group
//!   ([`DataStore::joining`]) is sent the store — live keys and the
//!   versions of deleted ones — and applies nothing before it arrives
//!   (DESIGN.md §18.3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ops;
pub mod store;

pub use ops::DataOp;
pub use store::{DataEvent, DataStore, VersionedValue};

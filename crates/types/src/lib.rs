//! Common vocabulary types for the Raincore distributed session service.
//!
//! This crate defines the identifiers, virtual time representation, wire
//! codec, protocol message formats, ring-membership container and
//! configuration shared by every other Raincore crate. It has no knowledge
//! of any particular network substrate or protocol engine; it is pure data.
//!
//! The layout mirrors the paper's vocabulary (Fan & Bruck, *The Raincore
//! Distributed Session Service for Networking Elements*, IPPS 2001):
//!
//! * [`NodeId`] / [`GroupId`] — member and sub-group identity (§2.4 uses the
//!   lowest member id as the group id).
//! * [`Token`] — the unique circulating token carrying the authoritative
//!   membership, per-hop sequence number and piggybacked multicast messages
//!   (§2.2).
//! * [`SessionMsg`] — every session-layer datagram: `TOKEN`, `911`
//!   request/verdict, and `BODYODOR` discovery beacons (§2.3–2.4).
//! * [`Ring`] — the ordered logical ring of the group membership.
//! * [`IdList`] — the short id lists a multicast carries on the token
//!   (who has received it, who has confirmed it), kept inline.
//! * [`wire`] — a compact, `unsafe`-free, length-checked binary codec used
//!   for every message that crosses the (simulated or real) network.

// Adding a variant to a protocol or fault enum must be a compile-time
// event at every dispatch site (DESIGN.md §6b).
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod digest;
pub mod error;
pub mod id;
pub mod id_list;
pub mod membership;
pub mod messages;
pub mod time;
pub mod token_codec;
pub mod wire;

pub use config::{SessionConfig, TransportConfig};
pub use digest::{DigestInto, Fingerprint, StateDigest};
pub use error::{Error, Result};
pub use id::{GroupId, IdHasher, IdMap, Incarnation, MsgId, NodeId, OriginSeq, VipId};
pub use id_list::IdList;
pub use membership::Ring;
pub use messages::{
    Attached, AttachedBody, BodyOdor, BulkData, BulkNack, Call911, DeliveryMode, MsgList,
    OpenSubmit, Reply911, SessionMsg, Token, TraceCtx, Verdict911,
};
pub use time::{Duration, Time};
pub use token_codec::TokenEncoder;

//! State fingerprints for the bounded model checker.
//!
//! The model checker prunes states it has already explored, so it hashes
//! a *canonical* snapshot of the world: unordered collections are fed in
//! sorted id order, deadlines relative to the current virtual time, and
//! observability-only fields not at all. Two worlds merge exactly when
//! their snapshots are byte-identical.
//!
//! Ids are hashed as they are: relabelling them under an id-permutation
//! map first was measured to merge no additional state (DESIGN.md §12.3).
//!
//! The fingerprint is 128 bits (two independently salted [`DefaultHasher`]
//! streams) so that accidental collisions at millions of states are
//! negligible, and the whole pipeline is allocation-free: digesting writes
//! straight into the two hashers, no intermediate buffers.

use crate::id::{NodeId, OriginSeq};
use crate::membership::Ring;
use crate::messages::{Attached, AttachedBody, DeliveryMode, Token};
use crate::time::Time;
use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;

/// A 128-bit fingerprint of a canonical state snapshot.
pub type Fingerprint = (u64, u64);

/// Incremental state hasher.
///
/// Times should be digested relative to the current virtual time
/// ([`StateDigest::time_rel`]) so that two states reached at different
/// absolute times still merge.
pub struct StateDigest {
    a: DefaultHasher,
    b: DefaultHasher,
}

impl StateDigest {
    /// A fresh digest.
    pub fn identity() -> Self {
        let mut a = DefaultHasher::new();
        let mut b = DefaultHasher::new();
        // Distinct salts make the two 64-bit streams independent.
        a.write_u64(0x5261_696e_636f_7265); // "Raincore"
        b.write_u64(0x6469_6765_7374_3262); // "digest2b"
        StateDigest { a, b }
    }

    /// Digests a raw `u64`.
    pub fn write_u64(&mut self, v: u64) {
        self.a.write_u64(v);
        self.b.write_u64(v);
    }

    /// Digests a raw `u32`.
    pub fn write_u32(&mut self, v: u32) {
        self.a.write_u32(v);
        self.b.write_u32(v);
    }

    /// Digests a raw byte.
    pub fn write_u8(&mut self, v: u8) {
        self.a.write_u8(v);
        self.b.write_u8(v);
    }

    /// Digests a boolean.
    pub fn write_bool(&mut self, v: bool) {
        self.write_u8(v as u8);
    }

    /// Digests a length (collection sizes, counts).
    pub fn write_len(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Digests a byte slice, length-prefixed so adjacent slices cannot
    /// alias each other.
    pub fn write_bytes(&mut self, v: &[u8]) {
        self.write_len(v.len());
        self.a.write(v);
        self.b.write(v);
    }

    /// Digests an opaque wire payload (a transport fragment, a queued
    /// datagram): the encoded bytes are canonical, so they are hashed
    /// as they are — no decode, no allocation.
    pub fn wire_payload(&mut self, bytes: &[u8]) {
        self.tag(0);
        self.write_bytes(bytes);
    }

    /// Digests a variant/type tag. Callers tag every sum type so that
    /// differently-shaped values can never collide structurally.
    pub fn tag(&mut self, t: u8) {
        self.write_u8(t);
    }

    /// Digests a node id.
    pub fn node(&mut self, n: NodeId) {
        self.write_u32(n.0);
    }

    /// Digests an optional value: a presence byte, then `some` on the
    /// value if there is one.
    pub fn opt<T>(&mut self, v: Option<T>, some: impl FnOnce(&mut Self, T)) {
        self.write_bool(v.is_some());
        if let Some(v) = v {
            some(self, v);
        }
    }

    /// Digests an optional node id.
    pub fn opt_node(&mut self, n: Option<NodeId>) {
        self.opt(n, Self::node);
    }

    /// Digests an absolute time relative to `now`. Deadlines and
    /// timestamps only matter through their distance from the current
    /// virtual time; digesting the offset lets states reached at
    /// different absolute times merge.
    pub fn time_rel(&mut self, t: Time, now: Time) {
        self.write_u64(t.0.wrapping_sub(now.0));
    }

    /// Digests a deadline that acts only by being due: every deadline at
    /// or before `now` digests as 0. [`StateDigest::time_rel`] would give
    /// an overdue deadline a different (wrapped) offset at every instant,
    /// and states that differ only in *how long ago* it fell due would
    /// never merge.
    pub fn deadline_rel(&mut self, t: Time, now: Time) {
        self.write_u64(t.0.saturating_sub(now.0));
    }

    /// Finalizes both streams into the 128-bit fingerprint.
    pub fn finish(self) -> Fingerprint {
        (self.a.finish(), self.b.finish())
    }
}

/// Types that can feed a canonical snapshot of themselves into a
/// [`StateDigest`].
pub trait DigestInto {
    /// Digests `self`.
    fn digest_into(&self, d: &mut StateDigest);
}

impl DigestInto for OriginSeq {
    fn digest_into(&self, d: &mut StateDigest) {
        d.write_u64(self.0);
    }
}

impl DigestInto for Ring {
    /// Rings digest as *ordered sequences* of ids: order is semantically
    /// meaningful (it is the token's travel order).
    fn digest_into(&self, d: &mut StateDigest) {
        d.write_len(self.len());
        for m in self.iter() {
            d.node(m);
        }
    }
}

impl DigestInto for Attached {
    fn digest_into(&self, d: &mut StateDigest) {
        d.node(self.origin);
        self.seq.digest_into(d);
        d.tag(match self.mode {
            DeliveryMode::Agreed => 0,
            DeliveryMode::Safe => 1,
        });
        self.seen.digest_into(d);
        self.confirmed.digest_into(d);
        match &self.body {
            AttachedBody::Inline(payload) => {
                d.tag(0);
                d.write_bytes(payload);
            }
            AttachedBody::Oob { len } => {
                d.tag(1);
                d.write_u64(*len);
            }
        }
    }
}

impl DigestInto for Token {
    /// The trace context is deliberately skipped: it is protocol-inert
    /// observability metadata and never influences a transition.
    fn digest_into(&self, d: &mut StateDigest) {
        d.write_u64(self.seq);
        d.write_bool(self.tbm);
        self.ring.digest_into(d);
        d.write_len(self.msgs.len());
        for m in self.msgs.iter() {
            m.digest_into(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn fp<F: Fn(&mut StateDigest)>(f: F) -> Fingerprint {
        let mut d = StateDigest::identity();
        f(&mut d);
        d.finish()
    }

    #[test]
    fn ring_order_is_significant() {
        let a = fp(|d| Ring::from([0, 1, 2]).digest_into(d));
        let b = fp(|d| Ring::from([0, 2, 1]).digest_into(d));
        assert_ne!(a, b, "same members, different travel order");
    }

    #[test]
    fn time_rel_makes_absolute_time_invisible() {
        let now1 = Time(100);
        let now2 = Time(7777);
        let a = fp(|d| d.time_rel(Time(105), now1));
        let b = fp(|d| d.time_rel(Time(7782), now2));
        assert_eq!(a, b, "same offset, different absolute time");
    }

    #[test]
    fn token_digest_covers_messages() {
        let mut t1 = Token::founding(Ring::from([0, 1]));
        let t2 = t1.clone();
        t1.msgs.push(Attached::new(
            NodeId(0),
            OriginSeq(0),
            DeliveryMode::Agreed,
            Bytes::from_static(b"x"),
        ));
        let a = fp(|d| t1.digest_into(d));
        let b = fp(|d| t2.digest_into(d));
        assert_ne!(a, b);
    }
}

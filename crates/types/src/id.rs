//! Identifier newtypes used throughout Raincore.
//!
//! Every identifier is a small, `Copy`, totally ordered integer newtype.
//! Total order matters: the paper's merge protocol (§2.4) breaks ties by
//! comparing group ids, and a group's id is defined as the lowest
//! [`NodeId`] among its members.

use core::fmt;
use core::hash::{BuildHasherDefault, Hasher};
use std::collections::HashMap;

/// Identity of a cluster member node.
///
/// Node ids are assigned by configuration (they correspond to the paper's
/// "node ID" carried in `BODYODOR` beacons and the token membership). They
/// are dense small integers in the simulator, but nothing relies on
/// density — only on uniqueness and total order.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the raw integer value.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// Identity of a (sub-)group.
///
/// Following §2.4 of the paper, "it is common to use the lowest node ID in
/// the current Group Membership as the group ID" — Raincore does exactly
/// that, so a `GroupId` is a wrapped [`NodeId`]. The merge protocol treats
/// a `BODYODOR` beacon as a join request if and only if the sender's group
/// id is *lower* than the receiver's, which is what makes multi-way merges
/// deadlock-free.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupId(pub NodeId);

impl GroupId {
    /// The node id this group id is derived from (its lowest member).
    #[inline]
    pub const fn lowest_member(self) -> NodeId {
        self.0
    }
}

impl fmt::Debug for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0 .0)
    }
}

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0 .0)
    }
}

/// Incarnation number of a node.
///
/// Incremented every time a node (re)starts. Only the transport tells a
/// node's lives apart: its frames carry the incarnation, so packets from a
/// node's previous life are discarded after it crashes and rejoins. Above
/// the transport a life is not named — a `Ring` holds node ids only, and
/// the session keys an origin's messages by id (DESIGN.md §18.3, "Known
/// gaps").
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Incarnation(pub u32);

impl Incarnation {
    /// The first incarnation of a freshly configured node.
    pub const FIRST: Incarnation = Incarnation(0);

    /// Returns the next incarnation (used when a node restarts).
    #[inline]
    pub const fn next(self) -> Incarnation {
        Incarnation(self.0 + 1)
    }
}

impl fmt::Debug for Incarnation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

/// Transport-level message identifier, unique per (sender, incarnation).
///
/// The Raincore Transport Service (§2.1) is an *atomic* acknowledged
/// unicast: each logical message gets a fresh `MsgId`; acknowledgements
/// echo it and receivers use it for duplicate suppression.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MsgId(pub u64);

impl fmt::Debug for MsgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// Per-origin multicast sequence number.
///
/// Each node numbers the multicast messages it originates; the pair
/// `(origin, OriginSeq)` uniquely identifies a multicast message and is the
/// key used for duplicate suppression during token-loss recovery.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OriginSeq(pub u64);

impl OriginSeq {
    /// Returns the next sequence number.
    #[inline]
    pub const fn next(self) -> OriginSeq {
        OriginSeq(self.0 + 1)
    }
}

impl fmt::Debug for OriginSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Identity of a virtual IP address managed by the Virtual IP manager (§3.1).
///
/// Virtual IPs are the publicly advertised addresses of the cluster; the
/// VIP manager assigns them mutually exclusively to healthy members and
/// moves them (with a gratuitous ARP) when a member fails.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VipId(pub u32);

/// Hasher for maps keyed by identifiers the local node mints itself: its
/// own [`MsgId`]s and [`OriginSeq`]s, the simulator's NIC addresses. One
/// multiply per word and no per-map key, where the default SipHash costs
/// a keyed round per lookup. A map keyed by something a peer chooses does
/// not use it, since a peer could pick keys that collide; such a map is a
/// `BTreeMap`.
#[derive(Clone, Copy, Default)]
pub struct IdHasher(u64);

/// A `HashMap` keyed by locally minted identifiers, hashed by [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

impl Hasher for IdHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    #[inline]
    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    #[inline]
    fn write_u8(&mut self, byte: u8) {
        self.write_u64(u64::from(byte));
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u8(b));
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

impl fmt::Debug for VipId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vip{}", self.0)
    }
}

impl fmt::Display for VipId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vip{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_ordering_matches_raw() {
        assert!(NodeId(1) < NodeId(2));
        assert_eq!(NodeId(7).raw(), 7);
        assert_eq!(NodeId::from(3), NodeId(3));
    }

    #[test]
    fn group_id_orders_by_lowest_member() {
        let a = GroupId(NodeId(0));
        let b = GroupId(NodeId(5));
        assert!(a < b);
        assert_eq!(b.lowest_member(), NodeId(5));
    }

    #[test]
    fn incarnation_next_increments() {
        assert_eq!(Incarnation::FIRST.next(), Incarnation(1));
        assert_eq!(Incarnation(41).next(), Incarnation(42));
    }

    #[test]
    fn origin_seq_next_increments() {
        assert_eq!(OriginSeq::default().next(), OriginSeq(1));
    }

    #[test]
    fn id_hasher_spreads_sequential_ids_over_every_bucket() {
        use core::hash::{BuildHasher, BuildHasherDefault};
        let build = BuildHasherDefault::<IdHasher>::default();
        // An odd multiplier is a bijection modulo any power of two, so a
        // run of ids fills a table's low-bit buckets without a collision.
        let buckets: std::collections::BTreeSet<u64> = (0..1024u64)
            .map(|i| build.hash_one(MsgId(i)) % 1024)
            .collect();
        assert_eq!(buckets.len(), 1024);
        let mut map: IdMap<OriginSeq, u64> = IdMap::default();
        map.insert(OriginSeq(7), 1);
        assert_eq!(map.get(&OriginSeq(7)), Some(&1));
    }

    #[test]
    fn debug_formats_are_compact() {
        assert_eq!(format!("{:?}", NodeId(3)), "n3");
        assert_eq!(format!("{:?}", GroupId(NodeId(3))), "g3");
        assert_eq!(format!("{:?}", MsgId(9)), "m9");
        assert_eq!(format!("{:?}", OriginSeq(2)), "s2");
        assert_eq!(format!("{}", VipId(1)), "vip1");
    }
}

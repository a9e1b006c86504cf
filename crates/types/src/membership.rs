//! The logical ring of group members.
//!
//! §2.2 of the paper: "The nodes in the group are ordered in a logical
//! ring." The [`Ring`] container owns that order. The token's membership
//! field *is* a `Ring`; every node also keeps a local copy that it refreshes
//! from each token it receives.
//!
//! Order is semantically meaningful: the token travels from each member to
//! its successor, joins insert the new node immediately after the sponsor
//! (so the sponsor can hand the token straight to it, §2.3), and removals
//! splice the ring without disturbing the rest of the order.

use crate::id::{GroupId, NodeId};
use crate::wire::{Reader, WireDecode, WireEncode, WireResult, Writer};
use core::fmt;
use std::sync::Arc;

/// An ordered ring of distinct node ids.
///
/// Invariant: members are distinct. All mutating operations preserve this;
/// decoding rejects duplicate entries.
///
/// Storage is copy-on-write: `Ring::clone` is a reference-count bump, and
/// the first mutation of a shared ring copies the member list once. The
/// token hot path clones the ring on every hop (`last_copy`, forwarding
/// snapshots, local membership refresh) while membership changes are rare,
/// so steady-state hops never copy the member vector.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct Ring {
    members: Arc<Vec<NodeId>>,
}

impl Ring {
    /// Creates an empty ring.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copy-on-write access to the member list: copies it iff shared.
    fn members_mut(&mut self) -> &mut Vec<NodeId> {
        Arc::make_mut(&mut self.members)
    }

    /// Creates a ring from an iterator of node ids, keeping the first
    /// occurrence of each id and dropping later duplicates.
    /// (Also available through the [`FromIterator`] impl.)
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let mut ring = Ring::new();
        for id in iter {
            ring.push(id);
        }
        ring
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True if the ring has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// True if `node` is a member.
    pub fn contains(&self, node: NodeId) -> bool {
        self.members.contains(&node)
    }

    /// Position of `node` in ring order, if present.
    pub fn position(&self, node: NodeId) -> Option<usize> {
        self.members.iter().position(|&m| m == node)
    }

    /// Iterates over members in ring order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.members.iter().copied()
    }

    /// Members in ring order as a slice.
    pub fn as_slice(&self) -> &[NodeId] {
        &self.members
    }

    /// The group id of this membership: the lowest member id (§2.4).
    /// `None` for an empty ring.
    pub fn group_id(&self) -> Option<GroupId> {
        self.members.iter().min().copied().map(GroupId)
    }

    /// The member that acts for the group where one must (state transfer
    /// to a joiner, planning under the master lock): the lowest id, which
    /// every replica of the same ring computes alike.
    pub fn leader(&self) -> Option<NodeId> {
        self.group_id().map(GroupId::lowest_member)
    }

    /// The member after `node` in ring order, wrapping around. For a
    /// single-member ring this is the node itself. `None` if `node` is not
    /// a member or the ring is empty.
    pub fn next_after(&self, node: NodeId) -> Option<NodeId> {
        let pos = self.position(node)?;
        Some(self.members[(pos + 1) % self.members.len()])
    }

    /// All members after `node`, in ring order, excluding `node` itself.
    /// Used when walking the ring to find the next *healthy* successor
    /// after a failure-on-delivery (§2.2). Empty if `node` is not a member.
    pub fn successors_of(&self, node: NodeId) -> Vec<NodeId> {
        match self.position(node) {
            None => Vec::new(),
            Some(pos) => {
                let n = self.members.len();
                (1..n).map(|k| self.members[(pos + k) % n]).collect()
            }
        }
    }

    /// Appends `node` at the end of the ring if not already present.
    /// Returns `true` if the node was inserted.
    pub fn push(&mut self, node: NodeId) -> bool {
        if self.contains(node) {
            false
        } else {
            self.members_mut().push(node);
            true
        }
    }

    /// Inserts `node` immediately after `anchor`. Falls back to appending
    /// if `anchor` is not a member. Returns `true` if the node was
    /// inserted (i.e. it was not already a member).
    pub fn insert_after(&mut self, anchor: NodeId, node: NodeId) -> bool {
        if self.contains(node) {
            return false;
        }
        match self.position(anchor) {
            Some(pos) => self.members_mut().insert(pos + 1, node),
            None => self.members_mut().push(node),
        }
        true
    }

    /// Removes `node` from the ring. Returns `true` if it was present.
    pub fn remove(&mut self, node: NodeId) -> bool {
        match self.position(node) {
            Some(pos) => {
                self.members_mut().remove(pos);
                true
            }
            None => false,
        }
    }

    /// Merges `other` into `self`: members of `other` that are not already
    /// present are appended in their ring order. Used by the token merge
    /// step of the group-merge protocol (§2.4).
    pub fn merge(&mut self, other: &Ring) {
        for id in other.iter() {
            self.push(id);
        }
    }

    /// True if every member of `other` is a member of `self`.
    pub fn is_superset_of(&self, other: &Ring) -> bool {
        other.iter().all(|id| self.contains(id))
    }

    /// True if both rings have the same member *set* (order ignored).
    pub fn same_members(&self, other: &Ring) -> bool {
        self.len() == other.len() && self.is_superset_of(other)
    }
}

impl fmt::Debug for Ring {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ring[")?;
        for (i, m) in self.members.iter().enumerate() {
            if i > 0 {
                write!(f, "→")?;
            }
            write!(f, "{m}")?;
        }
        write!(f, "]")
    }
}

impl FromIterator<NodeId> for Ring {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        Ring::from_iter(iter)
    }
}

impl<const N: usize> From<[u32; N]> for Ring {
    fn from(ids: [u32; N]) -> Self {
        Ring::from_iter(ids.into_iter().map(NodeId))
    }
}

impl WireEncode for Ring {
    fn encode(&self, w: &mut Writer) {
        self.members.encode(w);
    }
}

impl WireDecode for Ring {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        let members = Vec::<NodeId>::decode(r)?;
        let ring = Ring::from_iter(members.iter().copied());
        if ring.len() != members.len() {
            // Duplicate member ids on the wire indicate corruption.
            return Err(crate::wire::WireError::BadTag {
                ty: "Ring(dup)",
                tag: 0,
            });
        }
        Ok(ring)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{WireDecode, WireEncode};
    use proptest::prelude::*;

    fn ring(ids: &[u32]) -> Ring {
        Ring::from_iter(ids.iter().map(|&i| NodeId(i)))
    }

    #[test]
    fn construction_dedups() {
        let r = ring(&[1, 2, 1, 3, 2]);
        assert_eq!(r.as_slice(), &[NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn next_after_wraps() {
        let r = ring(&[1, 2, 3]);
        assert_eq!(r.next_after(NodeId(1)), Some(NodeId(2)));
        assert_eq!(r.next_after(NodeId(3)), Some(NodeId(1)));
        assert_eq!(r.next_after(NodeId(9)), None);
    }

    #[test]
    fn single_member_ring_succeeds_itself() {
        let r = ring(&[7]);
        assert_eq!(r.next_after(NodeId(7)), Some(NodeId(7)));
        assert!(r.successors_of(NodeId(7)).is_empty());
    }

    #[test]
    fn successors_walk_in_order() {
        let r = ring(&[1, 2, 3, 4]);
        assert_eq!(
            r.successors_of(NodeId(2)),
            vec![NodeId(3), NodeId(4), NodeId(1)]
        );
    }

    #[test]
    fn insert_after_places_correctly() {
        // Paper §2.3: ring ACD, node B rejoins via C → ring becomes ACBD.
        let mut r = ring(&[1, 3, 4]); // A=1 C=3 D=4
        assert!(r.insert_after(NodeId(3), NodeId(2)));
        assert_eq!(r.as_slice(), &[NodeId(1), NodeId(3), NodeId(2), NodeId(4)]);
        // Duplicate insert is a no-op.
        assert!(!r.insert_after(NodeId(1), NodeId(2)));
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn insert_after_missing_anchor_appends() {
        let mut r = ring(&[1, 2]);
        assert!(r.insert_after(NodeId(99), NodeId(3)));
        assert_eq!(r.as_slice(), &[NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn remove_splices() {
        let mut r = ring(&[1, 2, 3]);
        assert!(r.remove(NodeId(2)));
        assert_eq!(r.as_slice(), &[NodeId(1), NodeId(3)]);
        assert!(!r.remove(NodeId(2)));
        assert_eq!(r.next_after(NodeId(1)), Some(NodeId(3)));
    }

    #[test]
    fn group_id_is_lowest_member() {
        assert_eq!(ring(&[5, 2, 9]).group_id(), Some(GroupId(NodeId(2))));
        assert_eq!(Ring::new().group_id(), None);
        assert_eq!(ring(&[5, 2, 9]).leader(), Some(NodeId(2)));
        assert_eq!(Ring::new().leader(), None);
    }

    #[test]
    fn merge_appends_missing_in_order() {
        let mut a = ring(&[1, 3]);
        let b = ring(&[2, 3, 4]);
        a.merge(&b);
        assert_eq!(a.as_slice(), &[NodeId(1), NodeId(3), NodeId(2), NodeId(4)]);
    }

    #[test]
    fn subset_and_same_members() {
        let a = ring(&[1, 2, 3]);
        let b = ring(&[3, 1, 2]);
        let c = ring(&[1, 2]);
        assert!(a.same_members(&b));
        assert!(a.is_superset_of(&c));
        assert!(!c.is_superset_of(&a));
        assert!(!a.same_members(&c));
    }

    #[test]
    fn clone_shares_until_mutated() {
        let a = ring(&[1, 2, 3]);
        let mut b = a.clone();
        // A clone shares the same member storage…
        assert_eq!(a.as_slice().as_ptr(), b.as_slice().as_ptr());
        // …until one side mutates, which must not disturb the other.
        b.remove(NodeId(2));
        assert_eq!(a.as_slice(), &[NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(b.as_slice(), &[NodeId(1), NodeId(3)]);
        assert_ne!(a.as_slice().as_ptr(), b.as_slice().as_ptr());
    }

    #[test]
    fn wire_round_trip() {
        let r = ring(&[4, 1, 7, 2]);
        let buf = r.encode_to_bytes();
        assert_eq!(Ring::decode_from_bytes(&buf).unwrap(), r);
    }

    #[test]
    fn wire_rejects_duplicates() {
        let dup: Vec<NodeId> = vec![NodeId(1), NodeId(1)];
        let buf = dup.encode_to_bytes();
        assert!(Ring::decode_from_bytes(&buf).is_err());
    }

    proptest! {
        #[test]
        fn prop_ring_ops_preserve_distinctness(
            ids in proptest::collection::vec(0u32..20, 0..20),
            inserts in proptest::collection::vec((0u32..20, 0u32..20), 0..10),
            removes in proptest::collection::vec(0u32..20, 0..10),
        ) {
            let mut r = Ring::from_iter(ids.into_iter().map(NodeId));
            for (anchor, node) in inserts {
                r.insert_after(NodeId(anchor), NodeId(node));
            }
            for node in removes {
                r.remove(NodeId(node));
            }
            let mut seen = std::collections::HashSet::new();
            for m in r.iter() {
                prop_assert!(seen.insert(m), "duplicate member {m:?}");
            }
        }

        #[test]
        fn prop_next_after_cycles_whole_ring(ids in proptest::collection::vec(0u32..50, 1..20)) {
            let r = Ring::from_iter(ids.into_iter().map(NodeId));
            let start = r.as_slice()[0];
            let mut cur = start;
            let mut visited = vec![];
            for _ in 0..r.len() {
                visited.push(cur);
                cur = r.next_after(cur).unwrap();
            }
            prop_assert_eq!(cur, start);
            visited.sort();
            let mut all: Vec<_> = r.iter().collect();
            all.sort();
            prop_assert_eq!(visited, all);
        }

        #[test]
        fn prop_merge_is_union(
            a in proptest::collection::vec(0u32..30, 0..15),
            b in proptest::collection::vec(0u32..30, 0..15),
        ) {
            let mut m = Ring::from_iter(a.iter().copied().map(NodeId));
            let rb = Ring::from_iter(b.iter().copied().map(NodeId));
            m.merge(&rb);
            let expect: std::collections::BTreeSet<u32> =
                a.iter().chain(b.iter()).copied().collect();
            let got: std::collections::BTreeSet<u32> = m.iter().map(|n| n.0).collect();
            prop_assert_eq!(got, expect);
        }

        #[test]
        fn prop_wire_round_trip(ids in proptest::collection::vec(0u32..1000, 0..30)) {
            let r = Ring::from_iter(ids.into_iter().map(NodeId));
            let buf = r.encode_to_bytes();
            prop_assert_eq!(Ring::decode_from_bytes(&buf).unwrap(), r);
        }
    }
}

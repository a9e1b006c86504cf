//! A short list of node ids that lives inline.
//!
//! Every multicast on the token carries two of these — who has received
//! it and, for safe mode, who has seen everyone receive it — and every
//! hold-back entry keeps a copy of the first. A `Vec` there cost a heap
//! allocation per entry aboard at every decode, every copy-on-write of the
//! message list and every hold-back refresh. [`IdList`] keeps up to
//! [`INLINE_IDS`] ids in place, which covers every ring the benchmark and
//! the chaos soaks run, and spills to the heap only above that. On the
//! wire it is exactly a `Vec<NodeId>`: a varint count, then the ids.

use crate::digest::{DigestInto, StateDigest};
use crate::id::NodeId;
use crate::wire::{varint_len, Reader, WireDecode, WireEncode, WireResult, Writer};
use core::fmt;
use core::ops::Deref;

/// Ids an [`IdList`] holds without a heap allocation: the benchmark's
/// 8-member ring and the chaos soaks' 12-member rings fit.
pub const INLINE_IDS: usize = 12;

/// An ordered list of node ids, inline up to [`INLINE_IDS`] entries.
/// Reads go through `Deref<Target = [NodeId]>`.
#[derive(Clone)]
pub struct IdList(Repr);

#[derive(Clone)]
enum Repr {
    Inline { len: u8, ids: [NodeId; INLINE_IDS] },
    Heap(Vec<NodeId>),
}

impl IdList {
    /// An empty list.
    pub const fn new() -> Self {
        IdList(Repr::Inline {
            len: 0,
            ids: [NodeId(0); INLINE_IDS],
        })
    }

    /// Appends `id`, spilling to the heap when the inline room is full.
    #[inline]
    pub fn push(&mut self, id: NodeId) {
        match &mut self.0 {
            Repr::Inline { len, ids } if usize::from(*len) < INLINE_IDS => {
                ids[usize::from(*len)] = id;
                *len += 1;
            }
            Repr::Inline { ids, .. } => {
                let mut spilled = Vec::with_capacity(2 * INLINE_IDS);
                spilled.extend_from_slice(ids);
                spilled.push(id);
                self.0 = Repr::Heap(spilled);
            }
            Repr::Heap(ids) => ids.push(id),
        }
    }
}

impl Default for IdList {
    fn default() -> Self {
        Self::new()
    }
}

impl Deref for IdList {
    type Target = [NodeId];

    #[inline]
    fn deref(&self) -> &[NodeId] {
        match &self.0 {
            Repr::Inline { len, ids } => &ids[..usize::from(*len)],
            Repr::Heap(ids) => ids,
        }
    }
}

impl PartialEq for IdList {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for IdList {}

impl fmt::Debug for IdList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl FromIterator<NodeId> for IdList {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let mut list = IdList::new();
        for id in iter {
            list.push(id);
        }
        list
    }
}

impl WireEncode for IdList {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.len() as u64);
        for id in self.iter() {
            id.encode(w);
        }
    }
    fn encoded_len(&self) -> usize {
        varint_len(self.len() as u64) + self.iter().map(|id| id.encoded_len()).sum::<usize>()
    }
}

impl WireDecode for IdList {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        // An id takes at least one byte, so the count is checked against
        // what is left before anything is stored.
        let len = r.get_seq_len(1)?;
        if len > INLINE_IDS {
            let mut ids = Vec::with_capacity(len);
            for _ in 0..len {
                ids.push(NodeId::decode(r)?);
            }
            return Ok(IdList(Repr::Heap(ids)));
        }
        let mut ids = [NodeId(0); INLINE_IDS];
        for id in &mut ids[..len] {
            *id = NodeId::decode(r)?;
        }
        Ok(IdList(Repr::Inline {
            len: len as u8,
            ids,
        }))
    }
}

impl DigestInto for IdList {
    /// Positional: a length, then the ids in order.
    fn digest_into(&self, d: &mut StateDigest) {
        d.write_len(self.len());
        for &id in self.iter() {
            d.node(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pushes_past_the_inline_room_keep_order() {
        let mut list = IdList::new();
        for i in 0..3 * INLINE_IDS as u32 {
            list.push(NodeId(i));
            assert_eq!(list.len(), i as usize + 1);
        }
        assert!(list.iter().map(|n| n.0).eq(0..3 * INLINE_IDS as u32));
        assert!(matches!(list.0, Repr::Heap(_)));
    }

    #[test]
    fn decode_round_trips_inline_and_spilled_lists() {
        for n in 0..=2 * INLINE_IDS as u32 {
            let list: IdList = (0..n).map(|i| NodeId(i * 1000)).collect();
            let back = IdList::decode_from_bytes(&list.encode_to_bytes()).unwrap();
            assert_eq!(back, list);
            assert_eq!(
                matches!(back.0, Repr::Inline { .. }),
                n as usize <= INLINE_IDS
            );
        }
        // A count the rest of the datagram cannot hold is refused.
        assert!(IdList::decode_from_bytes(&[3, 1, 2]).is_err());
    }

    #[test]
    fn equality_ignores_where_the_ids_live() {
        let ids: Vec<NodeId> = (0..INLINE_IDS as u32).map(NodeId).collect();
        let inline: IdList = ids.iter().copied().collect();
        let heap = IdList(Repr::Heap(ids));
        assert_eq!(inline, heap);
        assert_eq!(format!("{inline:?}"), format!("{heap:?}"));
    }
}

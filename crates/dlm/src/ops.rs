//! Lock operations and the lock table's image, as multicasts carry them.
//!
//! Both travel as ordinary Raincore multicast payloads behind [`MAGIC`]
//! (`raincore_session::Frame`), so they can share the group with
//! application messages.

use raincore_types::wire::{Reader, WireDecode, WireEncode, WireError, WireResult, Writer};
use raincore_types::NodeId;

/// Magic prefix identifying a lock-manager payload.
pub const MAGIC: &[u8; 4] = b"RCLK";

/// One held or contended lock, as a table transfer carries it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HeldLock {
    /// Lock name.
    pub lock: String,
    /// Current owner.
    pub owner: NodeId,
    /// Reentrant acquisitions by the owner.
    pub depth: u32,
    /// Nodes queued behind the owner, first in line first.
    pub waiters: Vec<NodeId>,
}

impl WireEncode for HeldLock {
    fn encode(&self, w: &mut Writer) {
        w.put_str(&self.lock);
        self.owner.encode(w);
        w.put_varint(u64::from(self.depth));
        self.waiters.encode(w);
    }
}

impl WireDecode for HeldLock {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        Ok(HeldLock {
            lock: r.get_str()?,
            owner: NodeId::decode(r)?,
            depth: r.get_varint()? as u32,
            waiters: Vec::decode(r)?,
        })
    }
}

/// A replicated lock-table operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LockOp {
    /// `node` requests `lock`; granted immediately if free, else queued.
    Acquire {
        /// Lock name.
        lock: String,
        /// Requesting node.
        node: NodeId,
    },
    /// `node` releases `lock`; the head waiter (if any) is granted.
    Release {
        /// Lock name.
        lock: String,
        /// Releasing node.
        node: NodeId,
    },
}

impl LockOp {
    /// The lock name this op refers to.
    pub fn lock_name(&self) -> &str {
        match self {
            LockOp::Acquire { lock, .. } | LockOp::Release { lock, .. } => lock,
        }
    }

    /// The node performing the op.
    pub fn node(&self) -> NodeId {
        match self {
            LockOp::Acquire { node, .. } | LockOp::Release { node, .. } => *node,
        }
    }
}

impl WireEncode for LockOp {
    fn encode(&self, w: &mut Writer) {
        match self {
            LockOp::Acquire { lock, node } => {
                w.put_u8(0);
                w.put_str(lock);
                node.encode(w);
            }
            LockOp::Release { lock, node } => {
                w.put_u8(1);
                w.put_str(lock);
                node.encode(w);
            }
        }
    }
}

impl WireDecode for LockOp {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        match r.get_u8()? {
            0 => Ok(LockOp::Acquire {
                lock: r.get_str()?,
                node: NodeId::decode(r)?,
            }),
            1 => Ok(LockOp::Release {
                lock: r.get_str()?,
                node: NodeId::decode(r)?,
            }),
            tag => Err(WireError::BadTag { ty: "LockOp", tag }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::LockTable;
    use raincore_session::Frame;

    fn op_payload(op: &LockOp) -> bytes::Bytes {
        Frame::<LockTable>::Op(op.clone()).to_payload()
    }

    fn op_from(payload: &[u8]) -> Option<LockOp> {
        match Frame::<LockTable>::from_payload(payload)? {
            Frame::Op(op) => Some(op),
            Frame::Transfer { .. } => None,
        }
    }

    #[test]
    fn payload_round_trip() {
        let op = LockOp::Acquire {
            lock: "table:users".into(),
            node: NodeId(3),
        };
        assert_eq!(op_from(&op_payload(&op)), Some(op));
        let op = LockOp::Release {
            lock: "x".into(),
            node: NodeId(0),
        };
        assert_eq!(op_from(&op_payload(&op)), Some(op));
    }

    #[test]
    fn foreign_payloads_rejected() {
        assert_eq!(op_from(b"hello"), None);
        assert_eq!(op_from(b""), None);
        assert_eq!(op_from(b"RCLK"), None); // truncated after magic
                                            // Magic + trailing garbage after a valid op is also rejected.
        let mut p = op_payload(&LockOp::Acquire {
            lock: "a".into(),
            node: NodeId(1),
        })
        .to_vec();
        p.push(0xff);
        assert_eq!(op_from(&p), None);
    }

    #[test]
    fn table_snapshot_round_trip() {
        let locks = vec![HeldLock {
            lock: "table:users".into(),
            owner: NodeId(0),
            depth: 2,
            waiters: vec![NodeId(2), NodeId(1)],
        }];
        let transfer = |image: Vec<HeldLock>| {
            Frame::<LockTable>::Transfer {
                to: vec![NodeId(3)],
                last: Some((NodeId(1), raincore_types::OriginSeq(7))),
                image,
            }
            .to_payload()
        };
        let p = transfer(locks.clone());
        assert_eq!(op_from(&p), None, "not a lock op");
        match Frame::<LockTable>::from_payload(&p) {
            Some(Frame::Transfer { to, last, image }) => {
                assert_eq!(to, vec![NodeId(3)]);
                assert_eq!(last, Some((NodeId(1), raincore_types::OriginSeq(7))));
                assert_eq!(image, locks);
            }
            _ => panic!("the transfer did not decode"),
        }
        assert!(Frame::<LockTable>::from_payload(&transfer(vec![])).is_some());
        for cut in 0..p.len() {
            assert!(Frame::<LockTable>::from_payload(&p[..cut]).is_none());
        }
        for bit in 0..p.len() * 8 {
            let mut flipped = p.to_vec();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let _ = Frame::<LockTable>::from_payload(&flipped); // must not panic
        }
    }

    #[test]
    fn accessors() {
        let op = LockOp::Acquire {
            lock: "l".into(),
            node: NodeId(7),
        };
        assert_eq!(op.lock_name(), "l");
        assert_eq!(op.node(), NodeId(7));
    }
}

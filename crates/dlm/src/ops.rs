//! Lock operations and their multicast encoding.
//!
//! Lock ops travel as ordinary Raincore multicast payloads, tagged with a
//! magic prefix so they can share the group with application messages.

use raincore_types::wire::{Reader, WireDecode, WireEncode, WireError, WireResult, Writer};
use raincore_types::{NodeId, OriginSeq};

/// Magic prefix identifying a lock-manager payload.
pub const MAGIC: &[u8; 4] = b"RCLK";

/// Magic prefix identifying a lock-table transfer.
pub const SNAPSHOT_MAGIC: &[u8; 4] = b"RCLS";

/// `(origin, seq)` of the multicast that carried a lock op.
pub type OpId = (NodeId, OriginSeq);

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

/// The lock table as the sender had it after applying op `last`, for the
/// members in `to` that joined without it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TableSnapshot {
    /// The newcomers this transfer is for.
    pub to: Vec<NodeId>,
    /// The last lock op the sender had applied (`None`: never one).
    pub last: Option<OpId>,
    /// Every lock that has an owner.
    pub locks: Vec<HeldLock>,
}

impl TableSnapshot {
    /// Encodes the transfer as a multicast payload (magic-prefixed).
    pub fn to_payload(&self) -> bytes::Bytes {
        let mut w = Writer::new();
        w.put_raw(SNAPSHOT_MAGIC);
        self.to.encode(&mut w);
        w.put_bool(self.last.is_some());
        if let Some((origin, seq)) = self.last {
            origin.encode(&mut w);
            seq.encode(&mut w);
        }
        self.locks.encode(&mut w);
        w.finish()
    }

    /// Decodes a multicast payload; `None` if it is not a table transfer.
    pub fn from_payload(payload: &[u8]) -> Option<TableSnapshot> {
        let mut r = Reader::new(payload.strip_prefix(&SNAPSHOT_MAGIC[..])?);
        let snapshot = TableSnapshot {
            to: Vec::decode(&mut r).ok()?,
            last: match r.get_bool().ok()? {
                true => Some((
                    NodeId::decode(&mut r).ok()?,
                    OriginSeq::decode(&mut r).ok()?,
                )),
                false => None,
            },
            locks: Vec::decode(&mut r).ok()?,
        };
        r.expect_end().ok()?;
        Some(snapshot)
    }
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

    /// Encodes the op as a multicast payload (magic-prefixed).
    pub fn to_payload(&self) -> bytes::Bytes {
        let mut w = Writer::new();
        for &b in MAGIC {
            w.put_u8(b);
        }
        self.encode(&mut w);
        w.finish()
    }

    /// Decodes a multicast payload; `None` if it is not a lock op.
    pub fn from_payload(payload: &[u8]) -> Option<LockOp> {
        let rest = payload.strip_prefix(&MAGIC[..])?;
        let mut r = Reader::new(rest);
        let op = LockOp::decode(&mut r).ok()?;
        r.expect_end().ok()?;
        Some(op)
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

    #[test]
    fn payload_round_trip() {
        let op = LockOp::Acquire {
            lock: "table:users".into(),
            node: NodeId(3),
        };
        let p = op.to_payload();
        assert_eq!(LockOp::from_payload(&p), Some(op));
        let op = LockOp::Release {
            lock: "x".into(),
            node: NodeId(0),
        };
        assert_eq!(LockOp::from_payload(&op.to_payload()), Some(op));
    }

    #[test]
    fn foreign_payloads_rejected() {
        assert_eq!(LockOp::from_payload(b"hello"), None);
        assert_eq!(LockOp::from_payload(b""), None);
        assert_eq!(LockOp::from_payload(b"RCLK"), None); // truncated after magic
                                                         // Magic + trailing garbage after a valid op is also rejected.
        let mut p = LockOp::Acquire {
            lock: "a".into(),
            node: NodeId(1),
        }
        .to_payload()
        .to_vec();
        p.push(0xff);
        assert_eq!(LockOp::from_payload(&p), None);
    }

    #[test]
    fn table_snapshot_round_trip() {
        let snapshot = TableSnapshot {
            to: vec![NodeId(3)],
            last: Some((NodeId(1), OriginSeq(7))),
            locks: vec![HeldLock {
                lock: "table:users".into(),
                owner: NodeId(0),
                depth: 2,
                waiters: vec![NodeId(2), NodeId(1)],
            }],
        };
        let p = snapshot.to_payload();
        assert_eq!(TableSnapshot::from_payload(&p), Some(snapshot));
        assert_eq!(LockOp::from_payload(&p), None, "not a lock op");
        let empty = TableSnapshot {
            to: vec![],
            last: None,
            locks: vec![],
        };
        assert_eq!(
            TableSnapshot::from_payload(&empty.to_payload()),
            Some(empty)
        );
        assert_eq!(TableSnapshot::from_payload(&p[..p.len() - 1]), None);
        assert_eq!(TableSnapshot::from_payload(b"RCLK"), None);
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

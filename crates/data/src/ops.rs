//! Data-service operations and their multicast encoding.

use bytes::Bytes;
use raincore_types::wire::{Reader, WireDecode, WireEncode, WireError, WireResult, Writer};
use raincore_types::NodeId;

/// Magic prefix identifying a data-service payload.
pub const MAGIC: &[u8; 4] = b"RCDT";

/// A replicated store operation. Every replica applies these in the
/// agreed multicast order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DataOp {
    /// Unconditional write.
    Put {
        /// Key.
        key: String,
        /// New value.
        value: Bytes,
        /// Writer (for events).
        by: NodeId,
    },
    /// Unconditional delete.
    Delete {
        /// Key.
        key: String,
        /// Deleter (for events).
        by: NodeId,
    },
    /// Conditional write: applies only if the key's current version
    /// equals `expect_version` (0 = key must be absent).
    Cas {
        /// Key.
        key: String,
        /// Version observed by the writer.
        expect_version: u64,
        /// New value if the condition holds.
        value: Bytes,
        /// Writer (for events).
        by: NodeId,
    },
    /// Integer read-modify-write: treats the value as a varint-encoded
    /// i64 (absent = 0) and adds `delta`.
    Add {
        /// Key.
        key: String,
        /// Signed increment.
        delta: i64,
        /// Writer (for events).
        by: NodeId,
    },
}

fn put_i64(w: &mut Writer, v: i64) {
    // ZigZag encoding for signed varints.
    w.put_varint(((v << 1) ^ (v >> 63)) as u64);
}

fn get_i64(r: &mut Reader<'_>) -> WireResult<i64> {
    let z = r.get_varint()?;
    Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
}

impl WireEncode for DataOp {
    fn encode(&self, w: &mut Writer) {
        match self {
            DataOp::Put { key, value, by } => {
                w.put_u8(0);
                w.put_str(key);
                w.put_bytes(value);
                by.encode(w);
            }
            DataOp::Delete { key, by } => {
                w.put_u8(1);
                w.put_str(key);
                by.encode(w);
            }
            DataOp::Cas {
                key,
                expect_version,
                value,
                by,
            } => {
                w.put_u8(2);
                w.put_str(key);
                w.put_varint(*expect_version);
                w.put_bytes(value);
                by.encode(w);
            }
            DataOp::Add { key, delta, by } => {
                w.put_u8(3);
                w.put_str(key);
                put_i64(w, *delta);
                by.encode(w);
            }
        }
    }
}

impl WireDecode for DataOp {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        Ok(match r.get_u8()? {
            0 => DataOp::Put {
                key: r.get_str()?,
                value: r.get_bytes()?,
                by: NodeId::decode(r)?,
            },
            1 => DataOp::Delete {
                key: r.get_str()?,
                by: NodeId::decode(r)?,
            },
            2 => DataOp::Cas {
                key: r.get_str()?,
                expect_version: r.get_varint()?,
                value: r.get_bytes()?,
                by: NodeId::decode(r)?,
            },
            3 => DataOp::Add {
                key: r.get_str()?,
                delta: get_i64(r)?,
                by: NodeId::decode(r)?,
            },
            tag => return Err(WireError::BadTag { ty: "DataOp", tag }),
        })
    }
}

/// Encodes an i64 counter value the way [`DataOp::Add`] maintains it.
pub fn encode_i64(v: i64) -> Bytes {
    let mut w = Writer::new();
    put_i64(&mut w, v);
    w.finish()
}

/// Decodes an i64 counter value; `None` on malformed input.
pub fn decode_i64(buf: &[u8]) -> Option<i64> {
    let mut r = Reader::new(buf);
    let v = get_i64(&mut r).ok()?;
    r.expect_end().ok()?;
    Some(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::KvTable;
    use proptest::prelude::*;
    use raincore_session::Frame;

    fn op_from(payload: &[u8]) -> Option<DataOp> {
        match Frame::<KvTable>::from_payload(payload)? {
            Frame::Op(op) => Some(op),
            Frame::Transfer { .. } => None,
        }
    }

    #[test]
    fn payload_round_trip_all_variants() {
        let cases = vec![
            DataOp::Put {
                key: "k".into(),
                value: Bytes::from_static(b"v"),
                by: NodeId(1),
            },
            DataOp::Delete {
                key: "k".into(),
                by: NodeId(2),
            },
            DataOp::Cas {
                key: "k".into(),
                expect_version: 7,
                value: Bytes::from_static(b"w"),
                by: NodeId(0),
            },
            DataOp::Add {
                key: "n".into(),
                delta: -42,
                by: NodeId(3),
            },
        ];
        for op in cases {
            assert_eq!(
                op_from(&Frame::<KvTable>::Op(op.clone()).to_payload()),
                Some(op)
            );
        }
    }

    #[test]
    fn foreign_payloads_rejected() {
        assert_eq!(op_from(b"RCLKxx"), None);
        assert_eq!(op_from(b""), None);
    }

    #[test]
    fn i64_helpers() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 123_456_789] {
            assert_eq!(decode_i64(&encode_i64(v)), Some(v));
        }
        assert_eq!(decode_i64(b"\xff"), None);
    }

    proptest! {
        #[test]
        fn prop_zigzag_round_trip(v in any::<i64>()) {
            prop_assert_eq!(decode_i64(&encode_i64(v)), Some(v));
        }

        #[test]
        fn prop_garbage_never_panics(data in proptest::collection::vec(any::<u8>(), 0..200)) {
            let _ = op_from(&data);
        }
    }
}

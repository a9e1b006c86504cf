//! Wire format of the broadcast baselines.

use bytes::Bytes;
use raincore_types::{wire_enum, NodeId, OriginSeq};

wire_enum! {
    /// A baseline protocol message.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum BMsg {
        /// Data fan-out (unreliable and reliable modes).
        Pub {
            /// Originating node.
            origin: NodeId,
            /// Per-origin sequence number.
            oseq: OriginSeq,
            /// Application payload.
            payload: Bytes,
        } = 0 => "PUB",
        /// Per-receiver acknowledgement (reliable mode).
        Ack {
            /// Originating node of the message being acknowledged.
            origin: NodeId,
            /// Sequence being acknowledged.
            oseq: OriginSeq,
        } = 1 => "ACK",
        /// Sender hands a message to the sequencer (sequenced mode).
        Submit {
            /// Originating node.
            origin: NodeId,
            /// Per-origin sequence number.
            oseq: OriginSeq,
            /// Application payload.
            payload: Bytes,
        } = 2 => "SUBMIT",
        /// Phase 1: sequencer proposes a globally ordered slot.
        Prepare {
            /// Global sequence slot.
            gseq: u64,
            /// Originating node.
            origin: NodeId,
            /// Per-origin sequence number.
            oseq: OriginSeq,
            /// Application payload.
            payload: Bytes,
        } = 3 => "PREPARE",
        /// Phase 1 acknowledgement to the sequencer.
        Prepared {
            /// Slot being acknowledged.
            gseq: u64,
        } = 4 => "PREPARED",
        /// Phase 2: commit a slot — receivers deliver in `gseq` order.
        Commit {
            /// Slot to commit.
            gseq: u64,
        } = 5 => "COMMIT",
        /// Phase 2 acknowledgement (lets the sequencer retire state).
        Committed {
            /// Slot acknowledged.
            gseq: u64,
        } = 6 => "COMMITTED",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use raincore_types::wire::{WireDecode, WireEncode};

    #[test]
    fn round_trip_all_variants() {
        let cases = vec![
            BMsg::Pub {
                origin: NodeId(1),
                oseq: OriginSeq(2),
                payload: Bytes::from_static(b"x"),
            },
            BMsg::Ack {
                origin: NodeId(1),
                oseq: OriginSeq(2),
            },
            BMsg::Submit {
                origin: NodeId(3),
                oseq: OriginSeq(0),
                payload: Bytes::new(),
            },
            BMsg::Prepare {
                gseq: 9,
                origin: NodeId(3),
                oseq: OriginSeq(0),
                payload: Bytes::from_static(b"p"),
            },
            BMsg::Prepared { gseq: 9 },
            BMsg::Commit { gseq: 9 },
            BMsg::Committed { gseq: 9 },
        ];
        for m in cases {
            let buf = m.encode_to_bytes();
            assert_eq!(BMsg::decode_from_bytes(&buf).unwrap(), m, "{}", m.kind());
        }
    }

    proptest! {
        #[test]
        fn prop_garbage_never_panics(data in proptest::collection::vec(any::<u8>(), 0..128)) {
            let _ = BMsg::decode_from_bytes(&data);
        }
    }
}

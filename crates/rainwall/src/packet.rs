//! Data-plane packet formats for the Rainwall traffic model.
//!
//! Flow-level web traffic: a client sends a [`AppPacket::Request`] to a
//! virtual IP; the owning gateway filters it, the packet engine picks the
//! handling gateway (possibly handing the connection off), the handler
//! proxies a [`AppPacket::FetchReq`] to a server, and the server answers
//! with a burst of [`AppPacket::Chunk`]s that the handler relays to the
//! client. Chunks are padded to a realistic MTU-sized payload so the
//! simulated NICs see web-like byte volumes.

use bytes::Bytes;
use raincore_net::Addr;
use raincore_types::{wire_enum, wire_struct, NodeId, VipId};

wire_struct! {
    /// Identity of one client connection ("flow").
    #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub struct FlowKey {
        /// The client host.
        pub client: NodeId,
        /// Client-local flow number (fresh per attempt; retries use new ids).
        pub id: u64,
    }
}

wire_enum! {
    /// A data-plane packet.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum AppPacket {
        /// Client → gateway: fetch `object_bytes` via `vip`.
        Request {
            /// Connection identity.
            flow: FlowKey,
            /// The virtual IP addressed.
            vip: VipId,
            /// Requested object size.
            object_bytes: u32,
        } = 0 => "REQ",
        /// Gateway → gateway: the packet engine hands the connection to its
        /// rendezvous-chosen handler.
        HandOff {
            /// Connection identity.
            flow: FlowKey,
            /// The virtual IP originally addressed.
            vip: VipId,
            /// Where the client expects replies.
            client_addr: Addr,
            /// Requested object size.
            object_bytes: u32,
        } = 1 => "HANDOFF",
        /// Gateway → server: proxied fetch.
        FetchReq {
            /// Connection identity.
            flow: FlowKey,
            /// Requested object size.
            object_bytes: u32,
        } = 2 => "FETCH",
        /// Server → gateway and gateway → client: one object chunk. `fill`
        /// pads the packet to a realistic size.
        Chunk {
            /// Connection identity.
            flow: FlowKey,
            /// Chunk index within the object.
            seq: u32,
            /// True on the final chunk.
            last: bool,
            /// Padding bytes (their length is the chunk's payload size).
            fill: Bytes,
        } = 3 => "CHUNK",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raincore_types::wire::{WireDecode, WireEncode};

    #[test]
    fn round_trip_all_variants() {
        let flow = FlowKey {
            client: NodeId(2000),
            id: 7,
        };
        let cases = vec![
            AppPacket::Request {
                flow,
                vip: VipId(1),
                object_bytes: 100_000,
            },
            AppPacket::HandOff {
                flow,
                vip: VipId(1),
                client_addr: Addr::primary(NodeId(2000)),
                object_bytes: 5,
            },
            AppPacket::FetchReq {
                flow,
                object_bytes: 5,
            },
            AppPacket::Chunk {
                flow,
                seq: 3,
                last: true,
                fill: Bytes::from(vec![0u8; 100]),
            },
        ];
        for p in cases {
            let buf = p.encode_to_bytes();
            assert_eq!(
                AppPacket::decode_from_bytes(&buf).unwrap(),
                p,
                "{}",
                p.kind()
            );
        }
    }

    #[test]
    fn garbage_rejected() {
        assert!(AppPacket::decode_from_bytes(&[99]).is_err());
        assert!(AppPacket::decode_from_bytes(&[]).is_err());
    }
}

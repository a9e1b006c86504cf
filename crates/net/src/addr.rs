//! Physical addresses and raw datagrams.

use bytes::Bytes;
use core::fmt;
use raincore_types::{wire_enum, wire_struct, NodeId};

wire_struct! {
    /// A physical network address: a (node, NIC index) pair.
    ///
    /// §2.1 of the paper: "The Transport Service allows each node to have
    /// multiple physical addresses" for redundant links. In the simulator an
    /// `Addr` plays the role of an IP address bound to one interface card;
    /// under the UDP backend it maps to a real socket address.
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub struct Addr {
        /// Owning node.
        pub node: NodeId,
        /// Interface index on that node (0 = primary).
        pub nic: u8,
    }
}

impl Addr {
    /// Convenience constructor.
    pub const fn new(node: NodeId, nic: u8) -> Self {
        Addr { node, nic }
    }

    /// The primary (NIC 0) address of `node`.
    pub const fn primary(node: NodeId) -> Self {
        Addr { node, nic: 0 }
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.node, self.nic)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.node, self.nic)
    }
}

wire_enum! {
    /// Traffic class of a datagram, used for separate accounting.
    ///
    /// §4.1's metrics distinguish the *group-communication* overhead from the
    /// *regular network traffic* the cluster exists to process; tagging each
    /// datagram lets the stats separate them exactly.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    pub enum PacketClass {
        /// Group-communication traffic: transport frames carrying tokens,
        /// 911 calls, beacons, acknowledgements.
        Control = 0,
        /// Regular network traffic passing *through* the cluster (the web
        /// flows of the Rainwall benchmark).
        Data = 1,
    }
}

impl PacketClass {
    /// Dense index for per-class arrays.
    pub const fn index(self) -> usize {
        match self {
            PacketClass::Control => 0,
            PacketClass::Data => 1,
        }
    }

    /// Number of classes (for array sizing).
    pub const COUNT: usize = 2;

    /// All classes, in index order.
    pub const ALL: [PacketClass; 2] = [PacketClass::Control, PacketClass::Data];
}

/// Fixed per-packet header overhead counted on top of every datagram's
/// payload (Ethernet + IP + UDP ≈ 42 bytes; we use 42 to keep byte counts
/// realistic without modelling real headers).
pub const WIRE_OVERHEAD: u64 = 42;

/// A raw datagram: what actually crosses the (simulated or real) wire.
///
/// Delivery is unreliable and unordered — exactly the service UDP gives
/// the real Raincore implementation. Reliability is the transport layer's
/// job (`raincore-transport`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Datagram {
    /// Source address.
    pub src: Addr,
    /// Destination address.
    pub dst: Addr,
    /// Accounting class.
    pub class: PacketClass,
    /// Opaque payload (a transport frame, or raw application traffic).
    pub payload: Bytes,
}

impl Datagram {
    /// Convenience constructor for control datagrams.
    pub fn control(src: Addr, dst: Addr, payload: Bytes) -> Self {
        Datagram {
            src,
            dst,
            class: PacketClass::Control,
            payload,
        }
    }

    /// Convenience constructor for data-plane datagrams.
    pub fn data(src: Addr, dst: Addr, payload: Bytes) -> Self {
        Datagram {
            src,
            dst,
            class: PacketClass::Data,
            payload,
        }
    }

    /// Size used for bandwidth and byte accounting: payload plus
    /// [`WIRE_OVERHEAD`].
    pub fn wire_bytes(&self) -> u64 {
        self.payload.len() as u64 + WIRE_OVERHEAD
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raincore_types::wire::{WireDecode, WireEncode};

    #[test]
    fn addr_display() {
        let a = Addr::new(NodeId(3), 1);
        assert_eq!(format!("{a}"), "n3.1");
        assert_eq!(Addr::primary(NodeId(3)).nic, 0);
    }

    #[test]
    fn addr_wire_round_trip() {
        let a = Addr::new(NodeId(300), 7);
        let buf = a.encode_to_bytes();
        assert_eq!(Addr::decode_from_bytes(&buf).unwrap(), a);
    }

    #[test]
    fn class_indices_are_dense() {
        for (i, c) in PacketClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        assert_eq!(PacketClass::COUNT, PacketClass::ALL.len());
    }

    #[test]
    fn class_wire_round_trip() {
        for c in PacketClass::ALL {
            let buf = c.encode_to_bytes();
            assert_eq!(PacketClass::decode_from_bytes(&buf).unwrap(), c);
        }
        assert!(PacketClass::decode_from_bytes(&[9]).is_err());
    }

    #[test]
    fn wire_bytes_includes_header_overhead() {
        let d = Datagram::control(
            Addr::primary(NodeId(0)),
            Addr::primary(NodeId(1)),
            Bytes::from(vec![0u8; 100]),
        );
        assert_eq!(d.wire_bytes(), 142);
        assert_eq!(d.class, PacketClass::Control);
        let d2 = Datagram::data(d.src, d.dst, Bytes::new());
        assert_eq!(d2.class, PacketClass::Data);
        assert_eq!(d2.wire_bytes(), 42);
    }
}

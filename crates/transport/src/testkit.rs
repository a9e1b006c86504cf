//! Shared support for the component test files (`*/tests.rs`): endpoints
//! on the simulator's address convention, a pump over a [`SimNet`], and
//! hand-built acknowledgements.

use crate::frame::{FragSet, Frame};
use crate::{Endpoint, PeerTable, TransportEvent};
use raincore_net::{Addr, Datagram, SimNet};
use raincore_types::wire::{WireDecode, WireEncode};
use raincore_types::{Duration, Incarnation, MsgId, NodeId, Time, TransportConfig};

pub(crate) const US: fn(u64) -> Duration = Duration::from_micros;
pub(crate) const MS: fn(u64) -> Duration = Duration::from_millis;

/// Node `id` of a two-node mesh at incarnation `inc`, `nics` addresses a
/// node.
pub(crate) fn endpoint(id: u32, inc: Incarnation, cfg: TransportConfig, nics: u8) -> Endpoint {
    Endpoint::new(
        NodeId(id),
        inc,
        (0..nics).map(|k| Addr::new(NodeId(id), k)).collect(),
        PeerTable::full_mesh([NodeId(0), NodeId(1)], nics),
        cfg,
    )
    .unwrap()
}

/// Nodes 0 and 1 in their first life.
pub(crate) fn pair(cfg: TransportConfig, nics: u8) -> (Endpoint, Endpoint) {
    let mk = |id| endpoint(id, Incarnation::FIRST, cfg.clone(), nics);
    (mk(0), mk(1))
}

/// Drives both endpoints and the network from time zero until quiescent
/// or `limit`; returns when that was.
pub(crate) fn pump(net: &mut SimNet, a: &mut Endpoint, b: &mut Endpoint, limit: Duration) -> Time {
    let mut now = Time::ZERO;
    loop {
        // Drain outboxes onto the wire.
        for d in drain(a).into_iter().chain(drain(b)) {
            net.send(now, d);
        }
        // Deliver anything ready now, by value to the node it is for.
        let arrivals = net.pop_arrivals(now);
        if !arrivals.is_empty() {
            for d in arrivals {
                let ep = if d.dst.node == a.id() {
                    &mut *a
                } else {
                    &mut *b
                };
                ep.on_datagram(now, d);
            }
            continue;
        }
        // Advance to the next interesting instant.
        let wakeups = [a.next_wakeup(), b.next_wakeup(), net.next_arrival()];
        match wakeups.into_iter().flatten().min() {
            Some(t) if t <= Time::ZERO + limit => {
                now = t;
                a.on_tick(now);
                b.on_tick(now);
            }
            _ => return now,
        }
    }
}

/// Everything `ep` has to put on the wire.
pub(crate) fn drain(ep: &mut Endpoint) -> Vec<Datagram> {
    std::iter::from_fn(|| ep.poll_outgoing()).collect()
}

/// Everything `ep` has to tell the upper layer.
pub(crate) fn drain_events(ep: &mut Endpoint) -> Vec<TransportEvent> {
    std::iter::from_fn(|| ep.poll_event()).collect()
}

/// An acknowledgement from node `from` to node 0, on the primary link.
pub(crate) fn ack_dgram(from: u32, inc: Incarnation, msg_id: u64, frags: FragSet) -> Datagram {
    let ack = Frame::Ack {
        from: NodeId(from),
        inc,
        msg_id: MsgId(msg_id),
        frags,
    };
    Datagram::control(
        Addr::primary(NodeId(from)),
        Addr::primary(NodeId(0)),
        ack.encode_to_bytes(),
    )
}

/// The fragment sets named by the ACK frames among `dgrams`.
pub(crate) fn acked_sets(dgrams: &[Datagram]) -> Vec<Vec<u32>> {
    dgrams
        .iter()
        .filter_map(|d| match Frame::decode_from_bytes(&d.payload) {
            Ok(Frame::Ack { frags, .. }) => Some(frags.iter().collect()),
            _ => None,
        })
        .collect()
}

/// Ten fragments to a kilobyte, three tries ten milliseconds apart.
pub(crate) fn ten_fragment_cfg() -> TransportConfig {
    TransportConfig {
        mtu: 100,
        retry_timeout: Duration::from_millis(10),
        max_retries: 3,
        ..Default::default()
    }
}

/// One message from `a` acknowledged by `b` after `rtt`; returns when.
pub(crate) fn exchange(a: &mut Endpoint, b: &mut Endpoint, at: Time, rtt: Duration) -> Time {
    a.send(at, b.id(), bytes::Bytes::from_static(b"x")).unwrap();
    for d in drain(a) {
        b.on_datagram(at, d);
    }
    for d in drain(b) {
        a.on_datagram(at + rtt, d);
    }
    at + rtt
}

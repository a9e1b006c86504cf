//! Shared by the real-socket tests: a founding ring of [`RuntimeNode`]s
//! over loopback UDP. `examples/udp_cluster.rs` is the documented long
//! form of the same wiring.

use raincore::net::udp::UdpNet;
use raincore::net::Addr;
use raincore::runtime::RuntimeNode;
use raincore::session::{SessionApp, SessionNode, StartMode};
use raincore::transport::PeerTable;
use raincore::types::{Incarnation, NodeId, Ring, SessionConfig, Time, TransportConfig};
use std::collections::HashMap;
use std::net::SocketAddr;

/// Binds `n` sockets, lets every member learn every address, and spawns
/// members `0..n` as one founding ring.
pub fn loopback_ring(
    n: u32,
    session_cfg: SessionConfig,
    transport_cfg: TransportConfig,
) -> Vec<RuntimeNode> {
    loopback_ring_hosting(n, session_cfg, transport_cfg, |_| ())
}

/// [`loopback_ring`], each member hosting the application `app` builds
/// for it.
pub fn loopback_ring_hosting<A: SessionApp + Send>(
    n: u32,
    session_cfg: SessionConfig,
    transport_cfg: TransportConfig,
    app: impl Fn(NodeId) -> A,
) -> Vec<RuntimeNode> {
    let ids: Vec<NodeId> = (0..n).map(NodeId).collect();
    let loopback: SocketAddr = "127.0.0.1:0".parse().unwrap();
    let mut nets: Vec<UdpNet> = ids
        .iter()
        .map(|&id| UdpNet::bind(&[(Addr::primary(id), loopback)], HashMap::new()).unwrap())
        .collect();
    let saddrs: Vec<SocketAddr> = ids
        .iter()
        .zip(&nets)
        .map(|(&id, n)| n.local_socket_addr(Addr::primary(id)).unwrap())
        .collect();
    for (i, net) in nets.iter_mut().enumerate() {
        for (j, &peer) in ids.iter().enumerate().filter(|(j, _)| *j != i) {
            net.add_peer(Addr::primary(peer), saddrs[j]);
        }
    }
    let ring = Ring::from_iter(ids.iter().copied());
    ids.iter()
        .zip(nets)
        .map(|(&id, net)| {
            let node = SessionNode::new(
                id,
                Incarnation::FIRST,
                session_cfg.clone(),
                transport_cfg.clone(),
                vec![Addr::primary(id)],
                PeerTable::full_mesh(ids.iter().copied(), 1),
                StartMode::Founding(ring.clone()),
                Time::ZERO,
            )
            .unwrap();
            RuntimeNode::spawn_hosting(node, net, app(id)).unwrap()
        })
        .collect()
}

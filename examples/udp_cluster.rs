//! Raincore over a real network: three nodes on localhost UDP sockets.
//!
//! Same protocol state machines as the simulator examples, driven by the
//! threaded runtime over `std::net::UdpSocket` — §2.1's "in typical
//! implementations, it uses UDP as the packet sending and receiving
//! interface". One node leaves mid-run and the survivors detect it and
//! heal the membership, in wall-clock time.
//!
//! ```bash
//! cargo run --example udp_cluster
//! ```

// Real-time UDP example driver, not protocol code.
#![allow(clippy::disallowed_types)]

use bytes::Bytes;
use raincore::net::udp::UdpNet;
use raincore::net::Addr;
use raincore::runtime::RuntimeNode;
use raincore::session::{SessionEvent, SessionNode, StartMode};
use raincore::transport::PeerTable;
use raincore::types::{
    DeliveryMode, Duration, Incarnation, NodeId, Ring, SessionConfig, Time, TransportConfig,
};
use std::collections::HashMap;
use std::net::SocketAddr;

fn main() {
    let n = 3u32;
    let ids: Vec<NodeId> = (0..n).map(NodeId).collect();

    // Bind a UDP socket per node (OS-assigned ports on localhost).
    let loopback: SocketAddr = "127.0.0.1:0".parse().unwrap();
    let nets: Vec<UdpNet> = ids
        .iter()
        .map(|&id| UdpNet::bind(&[(Addr::primary(id), loopback)], HashMap::new()).unwrap())
        .collect();
    let saddrs: Vec<SocketAddr> = ids
        .iter()
        .zip(&nets)
        .map(|(&id, net)| net.local_socket_addr(Addr::primary(id)).unwrap())
        .collect();
    for (id, s) in ids.iter().zip(&saddrs) {
        println!("node {id} listens on {s}");
    }

    let ring = Ring::from_iter(ids.iter().copied());
    let mut cfg = SessionConfig::for_cluster(n);
    cfg.token_hold = Duration::from_millis(20);
    cfg.hungry_timeout = Duration::from_millis(800);

    let mut nodes = Vec::new();
    for (i, mut net) in nets.into_iter().enumerate() {
        for (j, &s) in saddrs.iter().enumerate() {
            if i != j {
                net.add_peer(Addr::primary(ids[j]), s);
            }
        }
        let node = SessionNode::new(
            ids[i],
            Incarnation::FIRST,
            cfg.clone(),
            TransportConfig::default(),
            vec![Addr::primary(ids[i])],
            PeerTable::full_mesh(ids.iter().copied(), 1),
            StartMode::Founding(ring.clone()),
            Time::ZERO,
        )
        .unwrap();
        nodes.push(RuntimeNode::spawn(node, net).unwrap());
    }

    std::thread::sleep(std::time::Duration::from_millis(300));
    println!("\n== multicasting over real UDP ==");
    nodes[1]
        .multicast(
            DeliveryMode::Agreed,
            Bytes::from_static(b"packet over the wire"),
        )
        .unwrap();

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    'outer: for (i, node) in nodes.iter().enumerate() {
        while std::time::Instant::now() < deadline {
            if let Some(SessionEvent::Delivery(d)) =
                node.recv_event(std::time::Duration::from_millis(200))
            {
                println!(
                    "node {i} delivered: {:?} from {}",
                    String::from_utf8_lossy(&d.payload),
                    d.origin
                );
                continue 'outer;
            }
        }
        panic!("node {i} never saw the multicast");
    }

    println!("\n== live observability snapshot of node 0 ==");
    if let Some(dump) = nodes[0].obs_dump() {
        for line in dump.prometheus.lines().filter(|l| {
            l.starts_with("raincore_session_tokens_received")
                || l.starts_with("raincore_transport_rtt_ns_p50")
        }) {
            println!("{line}");
        }
        if let Some(ev) = dump.journal.lines().find(|l| l.contains("TOKEN_RX")) {
            println!("first token in the trace journal: {ev}");
        }
    }

    println!("\n== node 2 leaves; survivors heal the membership ==");
    nodes[2].leave();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while std::time::Instant::now() < deadline {
        if let Some(SessionEvent::MembershipChanged { ring, removed, .. }) =
            nodes[0].recv_event(std::time::Duration::from_millis(200))
        {
            println!("node 0 sees membership {ring:?} (removed {removed:?})");
            break;
        }
    }
    for node in &nodes {
        node.leave();
    }
    println!("done.");
}

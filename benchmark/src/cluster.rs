//! A real cluster on the host loopback: one `SessionNode` per member over
//! its own UDP socket, driven either by the repository's `RuntimeNode`
//! (untraced, where every end-to-end number comes from) or by the
//! benchmark's traced mirror of it; optionally wired through the
//! in-process `LossProxy` so that a member can be unplugged.

use crate::mirror::MirrorNode;
use crate::trace::NodeTrace;
use crate::{clock, pinned, schedule};
use raincore::runtime::RuntimeNode;
use raincore_net::{Addr, UdpNet};
use raincore_obs::Snapshot;
use raincore_procher::proxy::LossProxy;
use raincore_session::{SessionEvent, SessionNode, StartMode};
use raincore_transport::PeerTable;
use raincore_types::{DeliveryMode, Incarnation, NodeId, OriginSeq, Ring, Time, TransportConfig};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::Duration;

/// Workload index of the message `set_up` sends to prove the ring turns.
pub const WARMUP_INDEX: u64 = u64::MAX;

pub enum Node {
    Runtime(RuntimeNode),
    Mirror(MirrorNode),
}

impl Node {
    pub fn multicast(
        &self,
        mode: DeliveryMode,
        payload: bytes::Bytes,
    ) -> raincore_types::Result<OriginSeq> {
        match self {
            Node::Runtime(n) => n.multicast(mode, payload),
            Node::Mirror(n) => n.multicast(mode, payload),
        }
    }

    pub fn request_master(&self) {
        match self {
            Node::Runtime(n) => n.request_master(),
            Node::Mirror(n) => n.request_master(),
        }
    }

    pub fn release_master(&self) {
        match self {
            Node::Runtime(n) => n.release_master(),
            Node::Mirror(n) => n.release_master(),
        }
    }

    fn leave(&self) {
        match self {
            Node::Runtime(n) => n.leave(),
            Node::Mirror(n) => n.leave(),
        }
    }

    /// The next event, waiting up to `timeout`, and (traced only, else 0)
    /// the instant the driver thread handed it off.
    pub fn recv_event(&self, timeout: Duration) -> Option<(SessionEvent, u64)> {
        match self {
            Node::Runtime(n) => n.recv_event(timeout).map(|ev| (ev, 0)),
            Node::Mirror(n) => n.recv_event(timeout),
        }
    }

    /// The node's metric registry, as `RuntimeNode::obs_dump` exports it.
    /// The mirror exports nothing: counts are read off the untraced run.
    pub fn snapshot(&self) -> Option<Snapshot> {
        match self {
            Node::Runtime(n) => Snapshot::parse_json(&n.obs_dump()?.json).ok(),
            Node::Mirror(_) => None,
        }
    }

    fn ring_len(&self) -> Option<usize> {
        match self {
            Node::Runtime(_) => Some(
                self.snapshot()?
                    .entries_named("raincore_status_ring_member")
                    .count(),
            ),
            Node::Mirror(n) => n.ring_len(),
        }
    }
}

pub struct UdpCluster {
    pub nodes: Vec<Node>,
    pub proxy: Option<LossProxy>,
}

impl UdpCluster {
    /// Binds `n` sockets, starts `n` founding members with the pinned
    /// configuration and polls until the cluster is usable: the warm-up
    /// multicast delivered at every member and the full ring installed at
    /// every member. Returns the cluster and the seconds that took, first
    /// bind to ready.
    pub fn set_up(n: u32, traced: bool, via_proxy: bool, seed: u64) -> (UdpCluster, f64) {
        let started = clock::now_ns();
        let ids: Vec<NodeId> = (0..n).map(NodeId).collect();
        let loopback: SocketAddr = "127.0.0.1:0".parse().expect("loopback");
        let mut nets: Vec<UdpNet> = ids
            .iter()
            .map(|&id| {
                UdpNet::bind(&[(Addr::primary(id), loopback)], HashMap::new()).expect("bind")
            })
            .collect();
        let real: Vec<SocketAddr> = ids
            .iter()
            .zip(&nets)
            .map(|(&id, net)| net.local_socket_addr(Addr::primary(id)).expect("bound"))
            .collect();
        let proxy = via_proxy.then(|| {
            let proxy = LossProxy::bind(&ids, seed).expect("proxy bind");
            for (&id, &saddr) in ids.iter().zip(&real) {
                proxy.set_dest(id, saddr);
            }
            proxy
        });
        let ring = Ring::from_iter(ids.iter().copied());
        let mut nodes = Vec::new();
        for (i, mut net) in nets.drain(..).enumerate() {
            for (j, &id) in ids.iter().enumerate() {
                if i != j {
                    let peer = proxy
                        .as_ref()
                        .map_or(real[j], |p| p.proxy_addr(id).expect("proxied"));
                    net.add_peer(Addr::primary(id), peer);
                }
            }
            let session = SessionNode::new(
                ids[i],
                Incarnation::FIRST,
                pinned::session_config(n),
                TransportConfig::default(),
                vec![Addr::primary(ids[i])],
                PeerTable::full_mesh(ids.iter().copied(), 1),
                StartMode::Founding(ring.clone()),
                Time::ZERO,
            )
            .expect("session node");
            nodes.push(if traced {
                Node::Mirror(MirrorNode::spawn(session, net).expect("spawn mirror"))
            } else {
                Node::Runtime(RuntimeNode::spawn(session, net).expect("spawn runtime"))
            });
        }
        let cluster = UdpCluster { nodes, proxy };
        cluster.nodes[0]
            .multicast(
                DeliveryMode::Agreed,
                schedule::payload(seed, WARMUP_INDEX, 16),
            )
            .expect("warm-up multicast");
        let mut warm = vec![false; n as usize];
        let deadline = started + 20_000_000_000;
        loop {
            for (node, warm) in cluster.nodes.iter().zip(&mut warm) {
                while let Some((ev, _)) = node.recv_event(Duration::ZERO) {
                    if let SessionEvent::Delivery(d) = ev {
                        *warm |= schedule::verify_payload(seed, &d.payload) == (WARMUP_INDEX, true);
                    }
                }
            }
            if warm.iter().all(|&w| w)
                && cluster
                    .nodes
                    .iter()
                    .all(|node| node.ring_len() == Some(n as usize))
            {
                break;
            }
            assert!(
                clock::now_ns() < deadline,
                "cluster of {n} never became ready"
            );
            std::thread::sleep(Duration::from_micros(200));
        }
        let took = (clock::now_ns() - started) as f64 / 1e9;
        (cluster, took)
    }

    /// Every member leaves and its thread is joined; traced members hand
    /// back their spans.
    pub fn shut_down(self) -> Vec<NodeTrace> {
        for node in &self.nodes {
            node.leave();
        }
        self.nodes
            .into_iter()
            .filter_map(|node| match node {
                Node::Runtime(n) => {
                    drop(n);
                    None
                }
                Node::Mirror(n) => Some(n.finish()),
            })
            .collect()
    }
}

/// `SETUPS_PER_RUN` clusters set up one after the other; the last one is
/// kept for the workload. Returns it and the median set-up time, s.
pub fn set_up_repeatedly(n: u32, traced: bool, via_proxy: bool, seed: u64) -> (UdpCluster, f64) {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..pinned::SETUPS_PER_RUN {
        if let Some(previous) = kept.take() {
            UdpCluster::shut_down(previous);
        }
        let (cluster, took) = UdpCluster::set_up(n, traced, via_proxy, seed);
        times.push(took);
        kept = Some(cluster);
    }
    (
        kept.expect("at least one set-up"),
        crate::stats::median_f64(&mut times),
    )
}

//! Raincore over a real network: three nodes on localhost UDP sockets.
//!
//! Same protocol state machines as the simulator examples, driven by the
//! threaded runtime over `std::net::UdpSocket` — §2.1's "in typical
//! implementations, it uses UDP as the packet sending and receiving
//! interface". Each node hosts a lock manager (§2.7) and a VIP manager
//! (§3.1) on its driver thread. One node — holding a lock and a third of
//! the virtual IPs — leaves mid-run; the survivors heal the membership,
//! hand its lock to the next waiter and move its VIPs, in wall-clock
//! time. Then it comes back as a new process, joins, and is sent both
//! tables before it applies anything.
//!
//! ```bash
//! cargo run --example udp_cluster
//! ```

// Real-time UDP example driver, not protocol code.
#![allow(clippy::disallowed_types)]

use bytes::Bytes;
use raincore::dlm::LockManager;
use raincore::net::udp::UdpNet;
use raincore::net::Addr;
use raincore::runtime::RuntimeNode;
use raincore::session::{SessionEvent, SessionNode, StartMode};
use raincore::transport::PeerTable;
use raincore::types::{
    DeliveryMode, Duration, Incarnation, NodeId, Ring, SessionConfig, Time, TransportConfig, VipId,
};
use raincore::vip::{SubnetArp, VipManager};
use std::collections::HashMap;
use std::net::SocketAddr;

const LOCK: &str = "config";

/// What every node hosts on its driver thread.
type Apps = (LockManager, VipManager);

/// Polls `done` for up to five seconds.
fn await_that(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while !done() {
        assert!(std::time::Instant::now() < deadline, "never saw {what}");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
}

/// Who holds the lock, as `node`'s replica of the lock table has it.
fn lock_owner(node: &RuntimeNode) -> Option<NodeId> {
    node.with_app(|(lm, _): &mut Apps, _, _| lm.owner(LOCK))
        .flatten()
}

fn request_lock(node: &RuntimeNode) {
    node.with_app(|(lm, _): &mut Apps, session, _| lm.lock(session, LOCK))
        .expect("a hosted lock manager")
        .expect("lock request");
}

/// The VIPs `owner` answers for, as `node`'s replica has them.
fn vips_of(node: &RuntimeNode, owner: NodeId) -> Vec<VipId> {
    node.with_app(move |(_, vips): &mut Apps, _, _| {
        let mine = vips.assignment().iter().filter(|(_, &o)| o == owner);
        mine.map(|(&v, _)| v).collect()
    })
    .unwrap_or_default()
}

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

    // The subnet's ARP caches, refreshed by the VIP managers' gratuitous ARPs.
    let arp = SubnetArp::shared();
    // Member `i` on `net`: its peers' addresses, its node, and the
    // applications, which ride the node's own thread — fed every session
    // event there, reached from this thread through `with_app`.
    let spawn = |i: usize, mut net: UdpNet, life: Incarnation, start: StartMode, apps: Apps| {
        for (j, &s) in saddrs.iter().enumerate() {
            if i != j {
                net.add_peer(Addr::primary(ids[j]), s);
            }
        }
        let node = SessionNode::new(
            ids[i],
            life,
            cfg.clone(),
            TransportConfig::default(),
            vec![Addr::primary(ids[i])],
            PeerTable::full_mesh(ids.iter().copied(), 1),
            start,
            Time::ZERO,
        )
        .unwrap();
        RuntimeNode::spawn_hosting(node, net, apps).unwrap()
    };
    let pool = || (0..6).map(VipId).collect::<Vec<_>>();
    let mut nodes = Vec::new();
    for (i, net) in nets.into_iter().enumerate() {
        let vips = VipManager::new(ids[i], pool()).announcing(arp.clone());
        let founding = StartMode::Founding(ring.clone());
        let apps = (LockManager::new(ids[i]), vips);
        nodes.push(spawn(i, net, Incarnation::FIRST, founding, apps));
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
            // The hosted VIP managers multicast on the same ring; theirs
            // are not the message this thread is waiting for.
            if let Some(SessionEvent::Delivery(d)) = node
                .recv_event(std::time::Duration::from_millis(200))
                .filter(|ev| matches!(ev, SessionEvent::Delivery(d) if d.origin == ids[1]))
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

    println!("\n== a lock and six virtual IPs, over real UDP ==");
    await_that("the VIP pool assigned", || arp.len() == 6);
    await_that("node 2 owning VIPs", || {
        !vips_of(&nodes[0], ids[2]).is_empty()
    });
    for &id in &ids {
        println!("{id} answers for {:?}", vips_of(&nodes[0], id));
    }
    request_lock(&nodes[2]);
    await_that("node 2 holding the lock", || {
        nodes.iter().all(|n| lock_owner(n) == Some(ids[2]))
    });
    request_lock(&nodes[0]);
    await_that("node 0 queued behind it", || {
        nodes[1].with_app(|(lm, _): &mut Apps, _, _| lm.waiters(LOCK)) == Some(vec![ids[0]])
    });
    println!("node 2 holds {LOCK:?}; node 0 waits for it");

    println!("\n== node 2 leaves; survivors heal the membership ==");
    let moving = vips_of(&nodes[0], ids[2]);
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
    await_that("the lock handed over", || {
        nodes[..2].iter().all(|n| lock_owner(n) == Some(ids[0]))
    });
    println!("lock hand-over: {LOCK:?} passed from the leaver to node 0, the next waiter");
    await_that("the leaver's VIPs moved", || {
        nodes[..2].iter().all(|n| vips_of(n, ids[2]).is_empty())
            && moving.iter().all(|&v| arp.resolve(v) != Some(ids[2]))
    });
    for &vip in &moving {
        let owner = arp.resolve(vip).expect("announced");
        println!("VIP fail-over: {vip} moved from n2 to {owner}");
    }

    println!("\n== node 2 restarts: a new process, empty replicas, the same address ==");
    drop(nodes.pop()); // the old process is gone, and its socket with it
    let net = UdpNet::bind(&[(Addr::primary(ids[2]), saddrs[2])], HashMap::new()).unwrap();
    // A member that joins a running group waits to be told the tables
    // (`joining`): its empty ones are not the group's.
    let vips = VipManager::joining(ids[2], pool()).announcing(arp.clone());
    let apps = (LockManager::joining(ids[2]), vips);
    let life = Incarnation::FIRST.next();
    nodes.push(spawn(2, net, life, StartMode::Joining, apps));
    await_that("the joiner told who holds the lock", || {
        lock_owner(&nodes[2]) == Some(ids[0])
    });
    await_that("the joiner given its share of the VIPs", || {
        let share = vips_of(&nodes[2], ids[2]);
        !share.is_empty() && nodes.iter().all(|n| vips_of(n, ids[2]) == share)
    });
    println!(
        "table transfer: node 2 knows {} holds {LOCK:?} and answers for {:?}",
        ids[0],
        vips_of(&nodes[2], ids[2])
    );
    for node in &nodes {
        node.leave();
    }
    println!("done.");
}

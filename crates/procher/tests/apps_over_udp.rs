//! The paper's applications over real sockets: three `RuntimeNode`s on
//! loopback UDP, each hosting a lock manager (§2.7) and a VIP manager
//! (§3.1) on its driver thread, every packet through the loss proxy so
//! that a member can be unplugged.
//!
//! The story: the pool of six VIPs spreads over the members; a lock
//! changes hands in request order; its owner — also the group's leader —
//! is unplugged the way the benchmark's `udp_failover` unplugs a member
//! and stopped, which its peers see as a crash: silence. The survivors
//! force-release its lock to the next waiter and move its VIPs onto
//! themselves; the owner comes back as a new process with empty
//! replicas, joins, and is sent both tables (DESIGN.md §18.3); and every
//! replica tells the same grant history.

// Real-socket test: deadlines are wall-clock.
#![allow(clippy::disallowed_types)]

use raincore::dlm::{LockEvent, LockManager};
use raincore::net::udp::UdpNet;
use raincore::net::Addr;
use raincore::runtime::RuntimeNode;
use raincore::session::{SessionNode, StartMode};
use raincore::transport::PeerTable;
use raincore::types::{
    Duration, Incarnation, NodeId, Ring, SessionConfig, Time, TransportConfig, VipId,
};
use raincore::vip::{SubnetArp, VipManager};
use raincore_procher::proxy::LossProxy;
use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration as Wall, Instant};

const LOCK: &str = "config";
const VIPS: u32 = 6;

/// What every member hosts.
type Apps = (LockManager, VipManager);

/// Member `id` of `ids` behind `proxy`: a socket of its own, every peer
/// address the proxy's.
fn member(
    ids: &[NodeId],
    proxy: &LossProxy,
    id: NodeId,
    incarnation: Incarnation,
    start: StartMode,
    apps: Apps,
) -> RuntimeNode {
    let loopback: SocketAddr = "127.0.0.1:0".parse().unwrap();
    let mut net = UdpNet::bind(&[(Addr::primary(id), loopback)], HashMap::new()).unwrap();
    proxy.set_dest(id, net.local_socket_addr(Addr::primary(id)).unwrap());
    for &peer in ids.iter().filter(|&&peer| peer != id) {
        net.add_peer(Addr::primary(peer), proxy.proxy_addr(peer).unwrap());
    }
    let mut cfg = SessionConfig::for_cluster(ids.len() as u32);
    cfg.token_hold = Duration::from_millis(5);
    cfg.hungry_timeout = Duration::from_millis(400);
    let node = SessionNode::new(
        id,
        incarnation,
        cfg,
        TransportConfig::default(),
        vec![Addr::primary(id)],
        PeerTable::full_mesh(ids.iter().copied(), 1),
        start,
        Time::ZERO,
    )
    .unwrap();
    RuntimeNode::spawn_hosting(node, net, apps).unwrap()
}

fn pool() -> Vec<VipId> {
    (0..VIPS).map(VipId).collect()
}

/// Members `0..n` as one founding ring.
fn proxied_ring(n: u32, arp: &Arc<SubnetArp>) -> (Vec<RuntimeNode>, LossProxy) {
    let ids: Vec<NodeId> = (0..n).map(NodeId).collect();
    let proxy = LossProxy::bind(&ids, 21).expect("proxy");
    let ring = Ring::from_iter(ids.iter().copied());
    let nodes = ids
        .iter()
        .map(|&id| {
            let vips = VipManager::new(id, pool()).announcing(arp.clone());
            let start = StartMode::Founding(ring.clone());
            let apps = (LockManager::new(id), vips);
            member(&ids, &proxy, id, Incarnation::FIRST, start, apps)
        })
        .collect();
    (nodes, proxy)
}

/// Polls `done` until it holds; panics with `what` at the deadline.
fn await_that(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Wall::from_secs(5);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::sleep(Wall::from_millis(2));
    }
}

/// `(owner, waiters)` of the lock as `node`'s replica has it.
fn lock_state(node: &RuntimeNode) -> (Option<NodeId>, Vec<NodeId>) {
    node.with_app(|(lm, _): &mut Apps, _, _| (lm.owner(LOCK), lm.waiters(LOCK)))
        .expect("hosted applications")
}

fn assignment(node: &RuntimeNode) -> BTreeMap<VipId, NodeId> {
    node.with_app(|(_, vips): &mut Apps, _, _| vips.assignment().clone())
        .expect("hosted applications")
}

/// Every grant `node`'s replica has emitted since the last call.
fn grants(node: &RuntimeNode) -> Vec<NodeId> {
    node.with_app(|(lm, _): &mut Apps, _, _| {
        std::iter::from_fn(|| lm.poll_event())
            .filter_map(|ev| match ev {
                LockEvent::Granted { owner, .. } => Some(owner),
                LockEvent::Released { .. } => None,
            })
            .collect()
    })
    .expect("hosted applications")
}

#[test]
fn lock_and_vips_survive_their_owner_over_real_sockets() {
    let started = Instant::now();
    let arp = SubnetArp::shared();
    let (nodes, proxy) = proxied_ring(3, &arp);
    let n = |i: u32| NodeId(i);
    let lock = |i: usize| {
        nodes[i]
            .with_app(|(lm, _): &mut Apps, session, _| lm.lock(session, LOCK))
            .expect("hosted")
            .expect("lock");
    };
    let unlock = |i: usize| {
        nodes[i]
            .with_app(|(lm, _): &mut Apps, session, _| lm.unlock(session, LOCK))
            .expect("hosted")
            .expect("unlock");
    };

    // The pool spreads 2/2/2 and the subnet learns every owner.
    await_that("every replica has the whole pool assigned", || {
        let a = assignment(&nodes[0]);
        a.len() == VIPS as usize && nodes.iter().all(|node| assignment(node) == a)
    });
    for (vip, owner) in assignment(&nodes[0]) {
        assert_eq!(arp.resolve(vip), Some(owner), "gratuitous ARP for {vip}");
    }
    assert!(
        assignment(&nodes[1]).values().any(|&o| o == n(0)),
        "the member to be unplugged owns VIPs"
    );

    // FIFO hand-over: 2 holds, 0 then 1 queue, 2 releases, 0 holds.
    lock(2);
    await_that("n2 holds the lock everywhere", || {
        nodes
            .iter()
            .all(|node| lock_state(node) == (Some(n(2)), vec![]))
    });
    lock(0);
    await_that("n0 is queued", || lock_state(&nodes[1]).1 == vec![n(0)]);
    lock(1);
    await_that("n0 and n1 are queued in request order", || {
        nodes
            .iter()
            .all(|node| lock_state(node) == (Some(n(2)), vec![n(0), n(1)]))
    });
    unlock(2);
    await_that("the release hands the lock to n0", || {
        nodes
            .iter()
            .all(|node| lock_state(node) == (Some(n(0)), vec![n(1)]))
    });
    let history_at_victim = grants(&nodes[0]);

    // The owner — and leader — falls silent.
    proxy.set_node(n(0), false);
    nodes[0].leave();
    let survivors = &nodes[1..];
    await_that("the dead owner's lock is forced over to n1", || {
        survivors
            .iter()
            .all(|node| lock_state(node) == (Some(n(1)), vec![]))
    });
    await_that(
        "the dead owner's VIPs are re-planned onto survivors",
        || {
            let a = assignment(&nodes[1]);
            a.values().all(|&o| o != n(0)) && assignment(&nodes[2]) == a
        },
    );
    for (vip, owner) in assignment(&nodes[1]) {
        assert_eq!(
            arp.resolve(vip),
            Some(owner),
            "subnet ARP refreshed for {vip}"
        );
    }

    // The owner comes back while n1 holds the lock and n2 waits for it:
    // a new process, plugged in again, that joins with empty replicas.
    lock(2);
    await_that("n2 is queued behind n1", || {
        survivors
            .iter()
            .all(|node| lock_state(node) == (Some(n(1)), vec![n(2)]))
    });
    proxy.set_node(n(0), true);
    let ids: Vec<NodeId> = (0..3).map(n).collect();
    let vips = VipManager::joining(n(0), pool()).announcing(arp.clone());
    let apps = (LockManager::joining(n(0)), vips);
    let first = Incarnation::FIRST;
    let back = member(&ids, &proxy, n(0), first.next(), StartMode::Joining, apps);
    await_that("the joiner is sent the lock table", || {
        lock_state(&back) == (Some(n(1)), vec![n(2)])
    });
    await_that("the joiner is sent the whole pool", || {
        assignment(&back).len() == VIPS as usize
    });
    // The joiner has the lowest id, leads the ring it joined and moves
    // its share of the pool to itself — a plan its peers take for a
    // multicast of its previous life and drop (a restarted origin numbers
    // from 0 again, DESIGN.md §18.3, "Known gaps"). So: everything it does
    // not claim for itself is as an elder has it.
    let elder = assignment(&nodes[1]);
    for (vip, owner) in assignment(&back) {
        assert!(owner == n(0) || owner == elder[&vip], "{vip}: {owner}");
    }
    unlock(1);
    await_that("the release hands the lock to n2", || {
        [&back, &nodes[1], &nodes[2]]
            .iter()
            .all(|node| lock_state(node) == (Some(n(2)), vec![]))
    });
    unlock(2);
    await_that("the lock is free", || {
        survivors.iter().all(|node| lock_state(node).0.is_none())
    });

    // One history, whoever tells it — the joiner from where it came in.
    let history = grants(&nodes[1]);
    assert_eq!(history, vec![n(2), n(0), n(1), n(2)]);
    assert_eq!(grants(&nodes[2]), history);
    assert_eq!(history_at_victim, history[..2]);
    assert_eq!(grants(&back), history[3..]);
    back.leave();
    for node in survivors {
        node.leave();
    }
    assert!(
        started.elapsed() < Wall::from_secs(10),
        "{:?}",
        started.elapsed()
    );
}

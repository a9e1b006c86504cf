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
//! themselves, and every replica tells the same grant history.

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

/// Members `0..n` as one founding ring, every peer address the proxy's.
fn proxied_ring(n: u32, arp: &Arc<SubnetArp>) -> (Vec<RuntimeNode>, LossProxy) {
    let ids: Vec<NodeId> = (0..n).map(NodeId).collect();
    let loopback: SocketAddr = "127.0.0.1:0".parse().unwrap();
    let proxy = LossProxy::bind(&ids, 21).expect("proxy");
    let mut cfg = SessionConfig::for_cluster(n);
    cfg.token_hold = Duration::from_millis(5);
    cfg.hungry_timeout = Duration::from_millis(400);
    let ring = Ring::from_iter(ids.iter().copied());
    let nodes = ids
        .iter()
        .map(|&id| {
            let mut net = UdpNet::bind(&[(Addr::primary(id), loopback)], HashMap::new()).unwrap();
            proxy.set_dest(id, net.local_socket_addr(Addr::primary(id)).unwrap());
            for &peer in ids.iter().filter(|&&peer| peer != id) {
                net.add_peer(Addr::primary(peer), proxy.proxy_addr(peer).unwrap());
            }
            let node = SessionNode::new(
                id,
                Incarnation::FIRST,
                cfg.clone(),
                TransportConfig::default(),
                vec![Addr::primary(id)],
                PeerTable::full_mesh(ids.iter().copied(), 1),
                StartMode::Founding(ring.clone()),
                Time::ZERO,
            )
            .unwrap();
            let vips = VipManager::new(id, (0..VIPS).map(VipId).collect());
            let apps: Apps = (LockManager::new(id), vips.announcing(arp.clone()));
            RuntimeNode::spawn_hosting(node, net, apps).unwrap()
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
    unlock(1);
    await_that("the lock is free", || {
        survivors.iter().all(|node| lock_state(node).0.is_none())
    });

    // One history, whoever tells it.
    let history = grants(&nodes[1]);
    assert_eq!(history, vec![n(2), n(0), n(1)]);
    assert_eq!(grants(&nodes[2]), history);
    assert_eq!(history_at_victim, history[..2]);
    for node in survivors {
        node.leave();
    }
    assert!(
        started.elapsed() < Wall::from_secs(10),
        "{:?}",
        started.elapsed()
    );
}

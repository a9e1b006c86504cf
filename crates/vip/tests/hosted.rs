//! The VIP manager hosted on simulated members: assignment, fail-over,
//! rebalancing — and the pin that hosting it through the `SessionApp`
//! seam put the same bytes on the wire as the glue it replaced.

use raincore_session::StartMode;
use raincore_sim::{Cluster, ClusterBuilder, ClusterConfig};
use raincore_types::{Duration, NodeId, Ring, VipId};
use raincore_vip::{SubnetArp, VipManager};
use std::collections::BTreeMap;
use std::sync::Arc;

fn fast_cfg() -> ClusterConfig {
    let mut c = ClusterConfig::default();
    c.session.token_hold = Duration::from_millis(2);
    c.session.hungry_timeout = Duration::from_millis(100);
    c.session.starving_retry = Duration::from_millis(40);
    c.session.beacon_period = Duration::from_millis(50);
    c.transport.retry_timeout = Duration::from_millis(10);
    c
}

/// A fresh replica for member `id` over a pool of `k` VIPs `0..k`.
fn replica(id: NodeId, k: u32, arp: &Arc<SubnetArp>) -> Box<VipManager> {
    let pool = (0..k).map(VipId).collect();
    Box::new(VipManager::new(id, pool).announcing(arp.clone()))
}

fn vip_cluster(n: u32, k_vips: u32) -> (Cluster, Arc<SubnetArp>) {
    let ring = Ring::from_iter((0..n).map(NodeId));
    let arp = SubnetArp::shared();
    let mut builder = ClusterBuilder::new(fast_cfg());
    for id in (0..n).map(NodeId) {
        builder = builder
            .member(id, StartMode::Founding(ring.clone()))
            .app(id, replica(id, k_vips, &arp));
    }
    (builder.build().unwrap(), arp)
}

fn mgr(c: &Cluster, id: u32) -> &VipManager {
    c.app(NodeId(id)).expect("a hosted VIP manager")
}

fn owners(c: &Cluster, id: u32) -> BTreeMap<VipId, NodeId> {
    mgr(c, id).assignment().clone()
}

#[test]
fn pool_fully_assigned_and_balanced_at_startup() {
    let (mut c, arp) = vip_cluster(3, 6);
    c.run_for(Duration::from_secs(2));
    let a = owners(&c, 0);
    assert_eq!(a.len(), 6, "every VIP owned: {a:?}");
    // Replicas agree.
    for i in 1..3 {
        assert_eq!(owners(&c, i), a);
    }
    // Balanced 2/2/2.
    let mut per: BTreeMap<NodeId, usize> = BTreeMap::new();
    for n in a.values() {
        *per.entry(*n).or_default() += 1;
    }
    assert_eq!(
        per.values().copied().collect::<Vec<_>>(),
        vec![2, 2, 2],
        "{per:?}"
    );
    // The subnet learned every VIP via gratuitous ARP.
    assert_eq!(arp.len(), 6);
    for (vip, owner) in a {
        assert_eq!(arp.resolve(vip), Some(owner));
    }
}

#[test]
fn failover_moves_vips_to_survivors_within_two_seconds() {
    // §3.2: "The fail-over time of Rainwall is under two seconds."
    let (mut c, arp) = vip_cluster(3, 6);
    c.run_for(Duration::from_secs(2));
    let victim = NodeId(2);
    assert!(owners(&c, 0).values().any(|&o| o == victim));
    c.crash(victim);
    let t_crash = c.now();
    c.run_until(t_crash + Duration::from_secs(2));
    let after = owners(&c, 0);
    assert_eq!(after.len(), 6);
    for (vip, owner) in &after {
        assert_ne!(*owner, victim, "vip {vip} still on the dead node");
        assert_eq!(arp.resolve(*vip), Some(*owner), "subnet ARP refreshed");
    }
    // Survivors stay consistent.
    assert_eq!(after, owners(&c, 1));
}

#[test]
fn vips_never_doubly_owned_during_failover() {
    let (mut c, _arp) = vip_cluster(3, 3);
    c.run_for(Duration::from_secs(2));
    c.crash(NodeId(1));
    let t = c.now();
    // Uniqueness: at every observable instant, each vip has at most
    // one owner *per replica* (the table is a map, so that holds
    // structurally); across replicas the same vip may transiently
    // differ but must never map to two *live* claimed owners once
    // converged.
    c.run_until(t + Duration::from_secs(2));
    assert_eq!(
        owners(&c, 0),
        owners(&c, 2),
        "replicas converge to identical assignment"
    );
}

#[test]
fn admin_move_rebalances() {
    let (mut c, arp) = vip_cluster(2, 2);
    c.run_for(Duration::from_secs(2));
    let (vip, old) = owners(&c, 0).iter().next().map(|(&v, &o)| (v, o)).unwrap();
    let to = NodeId(1 - old.0);
    c.with_app(old, |m: &mut VipManager, s| m.move_vip(s, vip, to))
        .expect("hosted")
        .unwrap();
    c.run_for(Duration::from_secs(1));
    assert_eq!(mgr(&c, 0).owner_of(vip), Some(to));
    assert_eq!(arp.resolve(vip), Some(to));
}

#[test]
fn rejoining_member_regains_its_share() {
    // 2 members, 4 VIPs → 2/2. Crash node 1 → 4/0 on node 0. Rejoin
    // node 1 → the leader rebalances back toward 2/2 (§3.1 load
    // balancing moves).
    let (mut c, arp) = vip_cluster(2, 4);
    c.run_for(Duration::from_secs(2));
    c.crash(NodeId(1));
    c.run_for(Duration::from_secs(2));
    assert_eq!(mgr(&c, 0).my_vips().len(), 4, "survivor took everything");
    // The restarted process rebuilds its VIP manager from scratch.
    c.restart(NodeId(1), StartMode::Joining).unwrap();
    c.set_app(NodeId(1), replica(NodeId(1), 4, &arp)).unwrap();
    c.run_for(Duration::from_secs(3));
    let m0 = mgr(&c, 0);
    assert_eq!(
        m0.my_vips().len(),
        2,
        "rebalanced after rejoin: {:?}",
        m0.assignment()
    );
    // ARP reflects the moves.
    for (vip, owner) in m0.assignment() {
        assert_eq!(arp.resolve(*vip), Some(*owner));
    }
}

/// FNV-1a, 64-bit.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// What the parent of the hosting seam — `VipApp`, a `NodeApp` that drove
/// the manager through shared cells, kept the 100 ms check and reflected
/// the ARPs itself — produced for the run in [`hosting_is_inert`]: per
/// member the FNV-1a of its `SessionEvent` stream, then of every datagram
/// the network delivered, in order.
const PARENT_EVENT_HASHES: [u64; 3] = [
    0x0afe_e60e_9889_8f83,
    0x7d7d_82dd_aa24_315e,
    0xebf1_3500_3cee_5322,
];
const PARENT_WIRE_HASH: u64 = 0x7447_88e5_be47_925b;
const PARENT_WIRE_DATAGRAMS: u64 = 8_440;
/// Who answers for VIPs 0..6 on the subnet when the run ends.
const PARENT_ARP: [u32; 6] = [2, 2, 1, 2, 1, 1];

#[test]
fn hosting_is_inert() {
    use std::cell::RefCell;
    use std::rc::Rc;

    let (mut c, arp) = vip_cluster(3, 6);
    let wire = Rc::new(RefCell::new((FNV_OFFSET, 0u64)));
    let tap = Rc::clone(&wire);
    c.set_wire_tap(move |d| {
        let (hash, count) = &mut *tap.borrow_mut();
        fnv1a(hash, &d.src.node.0.to_le_bytes());
        fnv1a(hash, &d.dst.node.0.to_le_bytes());
        fnv1a(hash, &(d.payload.len() as u64).to_le_bytes());
        fnv1a(hash, &d.payload);
        *count += 1;
    });
    // A crash, the victim's rejoin with a replica built from scratch,
    // then the leader's crash.
    c.run_for(Duration::from_secs(2));
    c.crash(NodeId(2));
    c.run_for(Duration::from_secs(2));
    c.restart(NodeId(2), StartMode::Joining).expect("restart");
    c.set_app(NodeId(2), replica(NodeId(2), 6, &arp))
        .expect("app");
    c.run_for(Duration::from_secs(3));
    c.crash(NodeId(0));
    c.run_for(Duration::from_secs(2));

    let event_hashes: Vec<u64> = (0..3)
        .map(|i| {
            let mut hash = FNV_OFFSET;
            for ev in c.take_events(NodeId(i)) {
                fnv1a(&mut hash, format!("{ev:?}\n").as_bytes());
            }
            hash
        })
        .collect();
    let (wire_hash, datagrams) = *wire.borrow();
    let subnet: Vec<Option<NodeId>> = (0..6).map(|v| arp.resolve(VipId(v))).collect();
    assert_eq!(
        (event_hashes.as_slice(), wire_hash, datagrams, subnet),
        (
            PARENT_EVENT_HASHES.as_slice(),
            PARENT_WIRE_HASH,
            PARENT_WIRE_DATAGRAMS,
            PARENT_ARP.map(|n| Some(NodeId(n))).to_vec(),
        ),
        "a hosted VIP manager no longer behaves like the glue it replaced: \
         {event_hashes:#x?} wire {wire_hash:#x} over {datagrams} datagrams"
    );
}

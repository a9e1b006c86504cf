//! The VIP manager hosted on simulated members: assignment, fail-over,
//! rebalancing, the table a late joiner is sent — and the pin of what one
//! such run puts on the wire.

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

/// A founding member's replica over a pool of `k` VIPs `0..k`.
fn replica(id: NodeId, k: u32, arp: &Arc<SubnetArp>) -> Box<VipManager> {
    let pool = (0..k).map(VipId).collect();
    Box::new(VipManager::new(id, pool).announcing(arp.clone()))
}

/// Restarts crashed member `id` the way a process restart does: a node
/// that joins, and a replica that waits to be told the assignment.
fn rejoin(c: &mut Cluster, id: NodeId, k: u32, arp: &Arc<SubnetArp>) {
    let pool = (0..k).map(VipId).collect();
    c.restart(id, StartMode::Joining).expect("restart");
    let joiner = VipManager::joining(id, pool).announcing(arp.clone());
    c.set_app(id, Box::new(joiner)).expect("app");
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
    rejoin(&mut c, NodeId(1), 4, &arp);
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

/// 3 eligible members and `k` VIPs; the two that are not `late` found
/// the group and share the pool. (`late` was never up, rather than up
/// and crashed, so that it never multicast: a restarted origin numbers
/// its multicasts from 0 again and the members that remember its old
/// ones drop as many of the new — ROADMAP item 4 — which loses a
/// rejoining leader's first plan whatever table it plans from.)
fn two_of_three(late: u32, k: u32) -> (Cluster, Arc<SubnetArp>) {
    let founders = (0..3).filter(|&id| id != late).map(NodeId);
    let ring = Ring::from_iter(founders.clone());
    let arp = SubnetArp::shared();
    let mut cfg = fast_cfg();
    cfg.session.eligible = (0..3).map(NodeId).collect();
    let mut builder = ClusterBuilder::new(cfg).member(NodeId(late), StartMode::Joining);
    for id in founders {
        builder = builder
            .member(id, StartMode::Founding(ring.clone()))
            .app(id, replica(id, k, &arp));
    }
    let mut c = builder.build().unwrap();
    c.crash(NodeId(late));
    c.run_for(Duration::from_secs(2));
    (c, arp)
}

/// `late` joins; returns a survivor's table from just before.
fn join_late(c: &mut Cluster, late: u32, k: u32, arp: &Arc<SubnetArp>) -> BTreeMap<VipId, NodeId> {
    let before = owners(c, 1);
    assert_eq!(before.len(), k as usize, "{before:?}");
    rejoin(c, NodeId(late), k, arp);
    c.run_for(Duration::from_secs(3));
    assert!(c.membership_converged(), "{}", c.dump_state());
    before
}

#[test]
fn high_id_joiner_is_told_the_whole_assignment() {
    let (mut c, arp) = two_of_three(2, 6);
    join_late(&mut c, 2, 6, &arp);
    let elder = owners(&c, 0);
    assert_eq!(elder.len(), 6);
    assert_eq!(owners(&c, 2), elder, "the joiner knows what an elder knows");
    assert_eq!(owners(&c, 1), elder);
}

#[test]
fn lowest_id_joiner_rebalances_the_table_it_was_sent() {
    // The joiner leads the ring it joins. It must plan from the group's
    // table — move its fair share, 2 of 6, to itself — not from its own
    // empty one, which hands out the whole pool a second time.
    let (mut c, arp) = two_of_three(0, 6);
    let before = join_late(&mut c, 0, 6, &arp);
    let after = owners(&c, 1);
    for id in [0, 2] {
        assert_eq!(owners(&c, id), after, "n{id}");
    }
    let mut claimed: Vec<VipId> = (0..3).flat_map(|id| mgr(&c, id).my_vips()).collect();
    claimed.sort();
    let pool: Vec<VipId> = (0..6).map(VipId).collect();
    assert_eq!(claimed, pool, "every VIP answered for once");
    let moved: Vec<_> = after.iter().filter(|(v, o)| before[*v] != **o).collect();
    assert_eq!(moved.len(), 2, "{before:?} -> {after:?}");
    assert!(moved.iter().all(|(_, o)| **o == NodeId(0)), "{moved:?}");
}

#[test]
fn pinned_vips_survive_the_transfer() {
    // n1 and n2 hold two VIPs each; an operator pins one on each, where
    // it is. One movable VIP a member is balance: the joiner, told of the
    // pins, moves nothing. Not told, it would count two movable VIPs on
    // each elder and take VIP 0 off n1.
    let (mut c, arp) = two_of_three(0, 4);
    for vip in [VipId(0), VipId(1)] {
        let owner = mgr(&c, 1).owner_of(vip).expect("assigned");
        c.with_app(owner, |m: &mut VipManager, s| m.move_vip(s, vip, owner))
            .expect("hosted")
            .unwrap();
    }
    c.run_for(Duration::from_secs(1));
    let before = join_late(&mut c, 0, 4, &arp);
    assert_ne!(before[&VipId(0)], before[&VipId(1)], "{before:?}");
    for id in 0..3 {
        assert_eq!(owners(&c, id), before, "n{id}");
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

/// The run in [`hosting_is_inert`], pinned: per member the FNV-1a of its
/// `SessionEvent` stream, then of every datagram the network delivered,
/// in order. Harvested at PR 22 (table transfer, DESIGN.md §18.3). With
/// `Replica::on_event`'s send removed and the restarted member built
/// `VipManager::new`, the same build reproduced PR 21's constants —
/// themselves harvested from `VipApp`, the glue the hosting seam
/// replaced — bit for bit: the difference from the parent is exactly the
/// transfer multicast at the rejoin and the joiner installing it. The
/// datagram count and the subnet's final view did not move. The wire
/// half re-harvested at PR 23: this run's probe limit (`4·7 + 2·30` ms)
/// is under its 100 ms `hungry_timeout`, so a member left hungry by a
/// crash asks its successor (DESIGN.md §17.3) — 14 more datagrams, the
/// same events at every member, the same subnet.
const EVENT_HASHES: [u64; 3] = [
    0xc30e_2279_809a_f248,
    0xa201_0b01_32cf_ab37,
    0x1567_d0b9_609e_9184,
];
const WIRE_HASH: u64 = 0x3b57_52e2_cdf4_1937;
const WIRE_DATAGRAMS: u64 = 8_454;
/// Who answers for VIPs 0..6 on the subnet when the run ends.
const ARP: [u32; 6] = [2, 2, 1, 2, 1, 1];

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
    rejoin(&mut c, NodeId(2), 6, &arp);
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
            EVENT_HASHES.as_slice(),
            WIRE_HASH,
            WIRE_DATAGRAMS,
            ARP.map(|n| Some(NodeId(n))).to_vec(),
        ),
        "a hosted VIP manager no longer behaves as pinned: \
         {event_hashes:#x?} wire {wire_hash:#x} over {datagrams} datagrams"
    );
}

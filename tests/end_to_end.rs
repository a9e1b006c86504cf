//! Full-stack integration tests: session + DLM + VIP manager together,
//! the way the Rainwall product composes them.

use bytes::Bytes;
use raincore::dlm::LockManager;
use raincore::prelude::*;
use raincore::session::{SessionEvent, StartMode};
use raincore::sim::{AuditView, ClusterConfig};
use raincore::vip::{SubnetArp, VipManager};
use raincore_types::VipId;

fn fast_cfg() -> ClusterConfig {
    let mut c = ClusterConfig::default();
    c.session.token_hold = Duration::from_millis(2);
    c.session.hungry_timeout = Duration::from_millis(100);
    c.session.starving_retry = Duration::from_millis(40);
    c.session.beacon_period = Duration::from_millis(50);
    c.transport.retry_timeout = Duration::from_millis(10);
    c
}

#[test]
fn locks_and_vips_coexist_on_one_group() {
    // Every member hosts a VIP manager and a lock manager; both share
    // the one token ring without interfering.
    type Apps = (VipManager, LockManager);
    let arp = SubnetArp::shared();
    let ring = raincore_types::Ring::from([0, 1, 2]);
    let mut builder = raincore::sim::ClusterBuilder::new(fast_cfg());
    for id in (0..3).map(NodeId) {
        let vips = VipManager::new(id, vec![VipId(0), VipId(1), VipId(2)]);
        let apps: Apps = (vips.announcing(arp.clone()), LockManager::new(id));
        builder = builder
            .member(id, StartMode::Founding(ring.clone()))
            .app(id, Box::new(apps));
    }
    let mut cluster = builder.build().unwrap();
    cluster.run_for(Duration::from_secs(1));

    // VIPs assigned and unique.
    fn apps(c: &Cluster, i: u32) -> &Apps {
        c.app(NodeId(i)).unwrap()
    }
    let assignment = apps(&cluster, 0).0.assignment().clone();
    assert_eq!(assignment.len(), 3);

    // Run a lock protocol on top of the same group.
    for id in [NodeId(0), NodeId(2)] {
        cluster
            .with_app(id, |(_, lm): &mut Apps, s| lm.lock(s, "config"))
            .unwrap()
            .unwrap();
    }
    cluster.run_for(Duration::from_secs(1));
    let lm = |i: u32| &apps(&cluster, i).1;
    assert_eq!(lm(0).owner("config"), Some(NodeId(0)), "first request wins");
    assert_eq!(
        lm(1).owner("config"),
        lm(0).owner("config"),
        "replicas agree"
    );
    assert_eq!(lm(0).waiters("config"), vec![NodeId(2)]);
    // And the VIP assignment was untouched by the lock traffic.
    assert_eq!(*apps(&cluster, 0).0.assignment(), assignment);
}

#[test]
fn repeated_crash_restart_cycles_stay_consistent() {
    let mut cluster = Cluster::founding(4, fast_cfg()).unwrap();
    cluster.run_for(Duration::from_secs(1));
    for round in 0..3u32 {
        let victim = NodeId(1 + (round % 3));
        cluster.crash(victim);
        cluster.run_for(Duration::from_secs(1));
        assert!(
            cluster.membership_agreed(),
            "round {round}: shrink converged"
        );
        assert_eq!(cluster.live_members().len(), 3);
        cluster.restart(victim, StartMode::Joining).unwrap();
        cluster.run_for(Duration::from_secs(2));
        assert!(
            cluster.membership_agreed(),
            "round {round}: rejoin converged"
        );
        assert_eq!(cluster.live_members().len(), 4);
        // The ring still multicasts correctly after every cycle.
        cluster
            .multicast(
                NodeId(0),
                DeliveryMode::Agreed,
                Bytes::from(vec![round as u8]),
            )
            .unwrap();
        cluster.run_for(Duration::from_millis(500));
        for id in cluster.live_members() {
            assert!(
                cluster
                    .deliveries(id)
                    .iter()
                    .any(|d| d.payload == vec![round as u8]),
                "round {round}: node {id} missed the probe"
            );
        }
    }
}

#[test]
fn cascade_down_to_singleton_and_back() {
    let mut cluster = Cluster::founding(4, fast_cfg()).unwrap();
    cluster.run_for(Duration::from_secs(1));
    // Kill three nodes one by one; the last survivor becomes a singleton
    // group that keeps functioning.
    for victim in [1u32, 2, 3] {
        cluster.crash(NodeId(victim));
        cluster.run_for(Duration::from_secs(1));
    }
    assert_eq!(cluster.live_members(), vec![NodeId(0)]);
    assert!(
        cluster.session(NodeId(0)).unwrap().is_eating(),
        "singleton holds its own token"
    );
    cluster
        .multicast(NodeId(0), DeliveryMode::Safe, Bytes::from_static(b"alone"))
        .unwrap();
    cluster.run_for(Duration::from_millis(200));
    assert!(cluster
        .deliveries(NodeId(0))
        .iter()
        .any(|d| d.payload == Bytes::from_static(b"alone")));
    // Everyone comes back.
    for victim in [1u32, 2, 3] {
        cluster.restart(NodeId(victim), StartMode::Joining).unwrap();
    }
    cluster.run_for(Duration::from_secs(3));
    assert!(cluster.membership_agreed());
    assert_eq!(cluster.live_members().len(), 4);
}

#[test]
fn graceful_leave_hands_over_without_911() {
    let mut cluster = Cluster::founding(3, fast_cfg()).unwrap();
    cluster.run_for(Duration::from_secs(1));
    // Make the current token holder leave gracefully.
    let holder = cluster.eating_nodes().pop().expect("someone eats");
    let now = cluster.now();
    cluster.session_mut(holder).unwrap().leave(now);
    cluster.run_for(Duration::from_secs(1));
    assert_eq!(cluster.live_members().len(), 2);
    assert!(cluster.membership_agreed());
    // No 911 was needed: the token was handed over, not lost.
    let regens: u64 = cluster
        .live_members()
        .iter()
        .map(|&id| cluster.metrics(id).regenerations)
        .sum();
    assert_eq!(regens, 0, "graceful leave must not trigger token recovery");
}

#[test]
fn master_lock_survives_holder_crash() {
    let mut cluster = Cluster::founding(3, fast_cfg()).unwrap();
    cluster.run_for(Duration::from_secs(1));
    cluster
        .session_mut(NodeId(1))
        .unwrap()
        .request_master()
        .unwrap();
    // Wait until node 1 actually holds the master lock.
    let mut held = false;
    cluster.run_until_with(cluster.now() + Duration::from_secs(1), |c| {
        held |= c.session(NodeId(1)).is_some_and(|s| s.holds_master());
    });
    assert!(held);
    // The master (and the token it pins) dies.
    cluster.crash(NodeId(1));
    cluster.run_for(Duration::from_secs(2));
    // 911 regenerated the token; the survivors' ring works again.
    assert_eq!(cluster.live_members().len(), 2);
    assert!(cluster.membership_agreed());
    cluster
        .session_mut(NodeId(2))
        .unwrap()
        .request_master()
        .unwrap();
    let mut reacquired = false;
    cluster.run_until_with(cluster.now() + Duration::from_secs(1), |c| {
        reacquired |= c.session(NodeId(2)).is_some_and(|s| s.holds_master());
    });
    assert!(reacquired, "the master lock is fault-tolerant (§2.7)");
}

#[test]
fn safe_multicast_blocked_by_partition_completes_after_merge() {
    let mut cluster = Cluster::founding(4, fast_cfg()).unwrap();
    cluster.run_for(Duration::from_secs(1));
    // Partition, then multicast SAFE inside one side: it can complete
    // within the sub-group (membership shrank to the island).
    cluster.partition(&[&[NodeId(0), NodeId(1)], &[NodeId(2), NodeId(3)]]);
    cluster.run_for(Duration::from_secs(2));
    cluster
        .multicast(NodeId(0), DeliveryMode::Safe, Bytes::from_static(b"island"))
        .unwrap();
    cluster.run_for(Duration::from_secs(1));
    assert!(cluster
        .deliveries(NodeId(1))
        .iter()
        .any(|d| d.payload == Bytes::from_static(b"island")));
    // Heal and verify the merged group still multicasts fine.
    cluster.heal();
    cluster.run_for(Duration::from_secs(5));
    assert_eq!(cluster.groups().len(), 1);
    cluster
        .multicast(NodeId(3), DeliveryMode::Safe, Bytes::from_static(b"whole"))
        .unwrap();
    cluster.run_for(Duration::from_secs(1));
    for id in cluster.live_members() {
        assert!(
            cluster
                .deliveries(id)
                .iter()
                .any(|d| d.payload == Bytes::from_static(b"whole")),
            "node {id}"
        );
    }
}

#[test]
fn events_expose_the_protocol_lifecycle() {
    let mut cluster = Cluster::founding(2, fast_cfg()).unwrap();
    cluster.run_for(Duration::from_millis(500));
    let _ = cluster.take_events(NodeId(1));
    cluster.crash(NodeId(0));
    cluster.run_for(Duration::from_secs(2));
    let evs = cluster.take_events(NodeId(1));
    assert!(
        evs.iter().any(|e| matches!(e, SessionEvent::Starving)),
        "survivor starved while the token was lost"
    );
    assert!(
        evs.iter()
            .any(|e| matches!(e, SessionEvent::TokenRegenerated { .. })),
        "and regenerated it: {evs:?}"
    );
    assert!(evs.iter().any(
        |e| matches!(e, SessionEvent::MembershipChanged { removed, .. } if removed.contains(&NodeId(0)))
    ));
}

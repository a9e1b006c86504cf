//! Distributed Data Service integration: the replicated store running
//! live on a cluster — shared-memory-style programming over the token
//! ring (Figure 2 / §5 of the paper).

use bytes::Bytes;
use raincore::data::{DataEvent, DataStore};
use raincore::prelude::*;
use raincore::session::StartMode;
use raincore::sim::{AuditView, ClusterConfig};

fn fast_cfg() -> ClusterConfig {
    let mut c = ClusterConfig::default();
    c.session.token_hold = Duration::from_millis(2);
    c.session.hungry_timeout = Duration::from_millis(100);
    c.session.starving_retry = Duration::from_millis(40);
    c.transport.retry_timeout = Duration::from_millis(10);
    c
}

/// Pumps every node's session events into its store replica.
fn feed(cluster: &mut Cluster, stores: &mut [DataStore]) {
    let now = cluster.now();
    for (i, store) in stores.iter_mut().enumerate() {
        let id = NodeId(i as u32);
        if !cluster.is_alive(id) {
            continue;
        }
        for ev in cluster.take_events(id) {
            let session = cluster.session_mut(id).unwrap();
            store.on_event(now, &ev, session);
        }
    }
}

fn state(s: &DataStore) -> Vec<(String, u64, Bytes)> {
    s.iter()
        .map(|(k, v)| (k.clone(), v.version, v.value.clone()))
        .collect()
}

#[test]
fn replicas_converge_with_writes_from_every_node() {
    let mut cluster = Cluster::founding(3, fast_cfg()).unwrap();
    cluster.run_for(Duration::from_secs(1));
    let mut stores: Vec<DataStore> = (0..3).map(|i| DataStore::new(NodeId(i))).collect();
    for i in 0..3u32 {
        let key = format!("owner-{i}");
        let (store, session) = (
            &mut stores[i as usize],
            cluster.session_mut(NodeId(i)).unwrap(),
        );
        store
            .put(session, &key, Bytes::from(vec![i as u8]))
            .unwrap();
    }
    cluster.run_for(Duration::from_secs(1));
    feed(&mut cluster, &mut stores);
    let reference = state(&stores[0]);
    assert_eq!(reference.len(), 3);
    for (i, s) in stores.iter().enumerate() {
        assert_eq!(state(s), reference, "replica {i}");
    }
}

#[test]
fn concurrent_cas_has_exactly_one_winner() {
    let mut cluster = Cluster::founding(3, fast_cfg()).unwrap();
    cluster.run_for(Duration::from_secs(1));
    let mut stores: Vec<DataStore> = (0..3).map(|i| DataStore::new(NodeId(i))).collect();
    // Seed a key, let everyone see version 1.
    stores[0]
        .put(
            cluster.session_mut(NodeId(0)).unwrap(),
            "leader",
            Bytes::from_static(b"none"),
        )
        .unwrap();
    cluster.run_for(Duration::from_secs(1));
    feed(&mut cluster, &mut stores);
    // All three try to claim leadership from the same observed version —
    // the classic shared-memory election, no locks involved.
    for i in 0..3u32 {
        let (store, session) = (
            &mut stores[i as usize],
            cluster.session_mut(NodeId(i)).unwrap(),
        );
        store
            .cas(session, "leader", 1, Bytes::from(vec![i as u8]))
            .unwrap();
    }
    cluster.run_for(Duration::from_secs(1));
    feed(&mut cluster, &mut stores);
    let winner = stores[0].get("leader").unwrap().value.clone();
    let mut wins = 0;
    let mut losses = 0;
    for s in &mut stores {
        assert_eq!(
            s.get("leader").unwrap().value,
            winner,
            "replicas agree on the winner"
        );
        assert_eq!(s.get("leader").unwrap().version, 2);
        while let Some(ev) = s.poll_event() {
            match ev {
                DataEvent::Updated { key, by, .. }
                    if key == "leader" && by == NodeId(winner[0] as u32) => {}
                DataEvent::CasFailed { key, .. } if key == "leader" => losses += 1,
                _ => {}
            }
        }
    }
    // Each replica observed exactly two failed CAS attempts.
    assert_eq!(losses, 2 * 3);
    wins += 1; // silence unused warnings in older compilers
    let _ = wins;
}

#[test]
fn counters_accumulate_across_nodes() {
    let mut cluster = Cluster::founding(4, fast_cfg()).unwrap();
    cluster.run_for(Duration::from_secs(1));
    let mut stores: Vec<DataStore> = (0..4).map(|i| DataStore::new(NodeId(i))).collect();
    for round in 0..5 {
        for i in 0..4u32 {
            let (store, session) = (
                &mut stores[i as usize],
                cluster.session_mut(NodeId(i)).unwrap(),
            );
            store
                .add(session, "connections", i64::from(i) + round)
                .unwrap();
        }
    }
    cluster.run_for(Duration::from_secs(2));
    feed(&mut cluster, &mut stores);
    // Σ over rounds r in 0..5 of (0+1+2+3 + 4r) = 5·6 + 4·(0+1+2+3+4) = 70.
    for (i, s) in stores.iter().enumerate() {
        assert_eq!(s.get_i64("connections"), 70, "replica {i}");
        assert_eq!(s.get("connections").unwrap().version, 20);
    }
}

#[test]
fn joiner_receives_leader_snapshot() {
    let ring = raincore_types::Ring::from([0, 1]);
    let mut cfg = fast_cfg();
    cfg.session.eligible = (0..3).map(NodeId).collect();
    let mut builder = raincore::sim::ClusterBuilder::new(cfg);
    for i in 0..2 {
        builder = builder.member(NodeId(i), StartMode::Founding(ring.clone()));
    }
    let mut cluster = builder
        .member(NodeId(2), StartMode::Joining)
        .build()
        .unwrap();
    let mut stores: Vec<DataStore> = (0..2).map(|i| DataStore::new(NodeId(i))).collect();
    stores.push(DataStore::joining(NodeId(2)));

    // Give the join a moment to complete, then seed data from node 0.
    cluster.run_for(Duration::from_millis(100));
    stores[0]
        .put(
            cluster.session_mut(NodeId(0)).unwrap(),
            "config",
            Bytes::from_static(b"v1"),
        )
        .unwrap();
    cluster.run_for(Duration::from_secs(2));
    feed(&mut cluster, &mut stores);

    // Node 2 joined after (or during) the write; whether the write was
    // in the transferred table or in its backlog, it must converge.
    cluster.run_for(Duration::from_secs(2));
    feed(&mut cluster, &mut stores);
    assert_eq!(
        stores[2].get("config").map(|v| v.value.clone()),
        Some(Bytes::from_static(b"v1")),
        "joiner converged via delivery or transfer"
    );
}

#[test]
fn joiner_after_quiescence_synced_by_snapshot() {
    // Harder variant: data written long before the joiner appears, so no
    // multicast is in flight — only the table transfer can sync it.
    let mut cluster = Cluster::founding(2, fast_cfg()).unwrap();
    cluster.run_for(Duration::from_secs(1));
    let mut stores: Vec<DataStore> = (0..3).map(|i| DataStore::new(NodeId(i))).collect();
    stores[0]
        .put(
            cluster.session_mut(NodeId(0)).unwrap(),
            "ancient",
            Bytes::from_static(b"truth"),
        )
        .unwrap();
    stores[1]
        .add(cluster.session_mut(NodeId(1)).unwrap(), "hits", 41)
        .unwrap();
    cluster.run_for(Duration::from_secs(1));
    feed(&mut cluster, &mut stores);
    assert_eq!(stores[0].len(), 2);

    // A third node joins much later. (It is in the eligible list of the
    // founding config because Cluster::founding(2) set eligible = {0,1},
    // so extend the view via a restartable slot: use crash+restart of a
    // fresh member instead — simplest is a 3-member cluster where node 2
    // was down from the start.)
    let mut cfg = fast_cfg();
    cfg.session.eligible = (0..3).map(NodeId).collect();
    let ring = raincore_types::Ring::from([0, 1, 2]);
    let mut builder = raincore::sim::ClusterBuilder::new(cfg);
    for i in 0..3 {
        builder = builder.member(NodeId(i), StartMode::Founding(ring.clone()));
    }
    let mut cluster = builder.build().unwrap();
    cluster.crash(NodeId(2)); // node 2 "was never up"
    cluster.run_for(Duration::from_secs(1));
    let mut stores: Vec<DataStore> = (0..3).map(|i| DataStore::new(NodeId(i))).collect();
    stores[0]
        .put(
            cluster.session_mut(NodeId(0)).unwrap(),
            "ancient",
            Bytes::from_static(b"truth"),
        )
        .unwrap();
    cluster.run_for(Duration::from_secs(1));
    feed(&mut cluster, &mut stores);

    cluster.restart(NodeId(2), StartMode::Joining).unwrap();
    stores[2] = DataStore::joining(NodeId(2)); // fresh process, empty replica
    cluster.run_for(Duration::from_secs(3));
    feed(&mut cluster, &mut stores);
    cluster.run_for(Duration::from_secs(1));
    feed(&mut cluster, &mut stores);
    assert_eq!(
        stores[2].get("ancient").map(|v| v.value.clone()),
        Some(Bytes::from_static(b"truth")),
        "the table transfer synced the joiner"
    );
}

/// Three members host a store each; n1 writes `hits` and writes and
/// deletes `gone`; `joiner` crashes and restarts `Joining` with an empty
/// replica, and as it does every member adds to `hits` — ops ordered
/// around the table transfer, on either side of it. (Only n1 writes
/// before the crash: a restarted origin numbers its multicasts from 0
/// again, and the members that remember its old ones drop as many of
/// the new — DESIGN.md §18.3, "Known gaps".)
fn rejoin_under_writes(joiner: NodeId) -> Cluster {
    let mut c = Cluster::founding(3, fast_cfg()).unwrap();
    for id in c.member_ids() {
        c.set_app(id, Box::new(DataStore::new(id))).unwrap();
    }
    c.run_for(Duration::from_millis(500));
    write(&mut c, 1, |s, n| s.add(n, "hits", 41));
    write(&mut c, 1, |s, n| s.put(n, "gone", Bytes::from_static(b"x")));
    c.run_for(Duration::from_millis(500));
    write(&mut c, 1, |s, n| s.delete(n, "gone"));
    c.run_for(Duration::from_millis(500));

    c.crash(joiner);
    c.run_for(Duration::from_secs(1));
    c.restart(joiner, StartMode::Joining).unwrap();
    c.set_app(joiner, Box::new(DataStore::joining(joiner)))
        .unwrap();
    // Adds trickle in while the joiner is admitted and the table cut.
    for round in 0..20 {
        for id in 0..3 {
            write(&mut c, id, |s, n| s.add(n, "hits", 1));
        }
        c.run_for(Duration::from_millis(if round < 10 { 1 } else { 20 }));
    }
    c.run_for(Duration::from_secs(2));
    assert!(c.membership_agreed(), "{}", c.dump_state());
    c
}

/// Runs a write of node `id`'s hosted replica.
fn write(
    c: &mut Cluster,
    id: u32,
    op: impl FnOnce(&mut DataStore, &mut SessionNode) -> raincore::types::Result<()>,
) {
    c.with_app(NodeId(id), op)
        .expect("a hosted store")
        .expect("write");
}

fn hosted_state(c: &Cluster, id: u32) -> Vec<(String, u64, Bytes)> {
    state(c.app::<DataStore>(NodeId(id)).expect("a hosted store"))
}

/// Every replica holds exactly `hits`, at the version and value the
/// 41 + 60 adds leave it at.
fn assert_replicas_equal(c: &Cluster) {
    let group = hosted_state(c, 1);
    assert_eq!(group.len(), 1, "{group:?}");
    assert_eq!(group[0].1, 61, "one version per add");
    let hits = |id| c.app::<DataStore>(NodeId(id)).unwrap().get_i64("hits");
    assert_eq!(hits(1), 41 + 60);
    for id in [0, 2] {
        assert_eq!(hosted_state(c, id), group, "n{id}");
    }
}

#[test]
fn joiner_equals_the_group_when_adds_race_the_transfer() {
    assert_replicas_equal(&rejoin_under_writes(NodeId(2)));
}

/// The joiner leads the new ring, and must still be sent the table
/// rather than send its own.
#[test]
fn lowest_id_joiner_ends_with_the_groups_table() {
    assert_replicas_equal(&rejoin_under_writes(NodeId(0)));
}

#[test]
fn stale_cas_on_a_key_deleted_before_the_join_loses_at_the_joiner_too() {
    let mut c = rejoin_under_writes(NodeId(2));
    // `gone` was at version 1 when it was deleted: it is not "never written".
    write(&mut c, 0, |s, n| {
        s.cas(n, "gone", 0, Bytes::from_static(b"stale"))
    });
    c.run_for(Duration::from_secs(1));
    for id in 0..3 {
        let store = c.app::<DataStore>(NodeId(id)).unwrap();
        assert_eq!(store.get("gone"), None, "n{id} let the stale CAS through");
    }
    // Recreated, it continues its version sequence everywhere.
    write(&mut c, 2, |s, n| {
        s.put(n, "gone", Bytes::from_static(b"back"))
    });
    c.run_for(Duration::from_secs(1));
    for id in 0..3 {
        let store = c.app::<DataStore>(NodeId(id)).unwrap();
        assert_eq!(store.get("gone").map(|v| v.version), Some(2), "n{id}");
    }
}

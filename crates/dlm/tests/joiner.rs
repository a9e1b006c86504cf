//! §2.7 mutual exclusion at a member that joins late: a restarted
//! member's replica of the lock table starts empty, and must not read
//! "empty" as "free".

use raincore_dlm::{LockEvent, LockManager};
use raincore_session::StartMode;
use raincore_sim::{AuditView, Cluster, ClusterBuilder, ClusterConfig};
use raincore_types::{Duration, NodeId, Ring};

const LOCK: &str = "config";
const OWNER: NodeId = NodeId(0);
const JOINER: NodeId = NodeId(2);
const MEMBERS: [NodeId; 3] = [OWNER, NodeId(1), JOINER];

fn lock(c: &mut Cluster, id: NodeId) {
    c.with_app(id, |lm: &mut LockManager, s| lm.lock(s, LOCK))
        .expect("a hosted lock manager")
        .expect("lock");
}

/// `(owner, waiters)` of the lock in `id`'s replica.
fn replica(c: &Cluster, id: NodeId) -> (Option<NodeId>, Vec<NodeId>) {
    let lm = c.app::<LockManager>(id).expect("a hosted lock manager");
    (lm.owner(LOCK), lm.waiters(LOCK))
}

/// Every lock event the joiner's replica has emitted since the last call.
fn joiner_events(c: &mut Cluster) -> Vec<LockEvent> {
    c.with_app(JOINER, |lm: &mut LockManager, _| {
        std::iter::from_fn(|| lm.poll_event()).collect()
    })
    .expect("a hosted lock manager")
}

/// The owner takes the lock; a member crashes, restarts `Joining` with
/// the replica `restarted` builds and asks for the lock at once — its
/// request is ordered before any table transfer can be.
fn contend_after_restart(restarted: fn(NodeId) -> LockManager) -> Cluster {
    let mut cfg = ClusterConfig::default();
    cfg.session.token_hold = Duration::from_millis(2);
    cfg.session.hungry_timeout = Duration::from_millis(100);
    cfg.session.starving_retry = Duration::from_millis(40);
    cfg.transport.retry_timeout = Duration::from_millis(10);
    let ring = Ring::from_iter(MEMBERS);
    let mut b = ClusterBuilder::new(cfg);
    for id in MEMBERS {
        b = b
            .member(id, StartMode::Founding(ring.clone()))
            .app(id, Box::new(LockManager::new(id)));
    }
    let mut c = b.build().expect("cluster");
    c.run_for(Duration::from_millis(500));
    lock(&mut c, OWNER);
    c.run_for(Duration::from_millis(500));
    assert_eq!(replica(&c, JOINER), (Some(OWNER), vec![]));

    c.crash(JOINER);
    c.run_for(Duration::from_secs(1));
    c.restart(JOINER, StartMode::Joining).expect("restart");
    c.set_app(JOINER, Box::new(restarted(JOINER))).expect("app");
    lock(&mut c, JOINER);
    c.run_for(Duration::from_secs(2));
    assert!(c.membership_agreed(), "{}", c.dump_state());
    for id in [OWNER, NodeId(1)] {
        assert_eq!(replica(&c, id), (Some(OWNER), vec![JOINER]), "at {id}");
    }
    c
}

#[test]
fn joiner_queues_behind_the_owner_it_never_saw_take_the_lock() {
    let mut c = contend_after_restart(LockManager::joining);
    assert_eq!(replica(&c, JOINER), (Some(OWNER), vec![JOINER]));
    assert_eq!(
        joiner_events(&mut c),
        vec![],
        "nothing is granted, to the joiner or by it, while the owner holds"
    );
    // The owner releases: the joiner is next, at every replica.
    c.with_app(OWNER, |lm: &mut LockManager, s| lm.unlock(s, LOCK))
        .expect("a hosted lock manager")
        .expect("unlock");
    c.run_for(Duration::from_millis(500));
    for id in MEMBERS {
        assert_eq!(replica(&c, id), (Some(JOINER), vec![]), "at {id}");
    }
    let lock = LOCK.to_string();
    assert_eq!(
        joiner_events(&mut c),
        vec![
            LockEvent::Released {
                lock: lock.clone(),
                owner: OWNER,
                forced: false
            },
            LockEvent::Granted {
                lock,
                owner: JOINER
            },
        ]
    );
}

/// The control: the same run with a replica that takes its empty table
/// for the group's — every restarted member before the transfer existed
/// — has the joiner inside the critical section beside the owner.
#[test]
fn a_replica_that_skips_the_transfer_grants_itself_the_held_lock() {
    let mut c = contend_after_restart(LockManager::new);
    assert_eq!(replica(&c, JOINER).0, Some(JOINER), "two owners");
    assert!(joiner_events(&mut c).contains(&LockEvent::Granted {
        lock: LOCK.to_string(),
        owner: JOINER
    }));
}

/// The member that owes the joiner the table — the lowest of those
/// already there — dies in the round between the join and its
/// transfer's delivery. The joiner is still unserved at the next elder,
/// which sends its own: the joiner syncs, and queues behind the owner.
#[test]
fn the_next_elder_sends_the_table_when_the_sender_dies_first() {
    const SENDER: NodeId = NodeId(0);
    const HOLDER: NodeId = NodeId(1);
    let mut cfg = ClusterConfig::default();
    cfg.session.token_hold = Duration::from_millis(2);
    cfg.session.hungry_timeout = Duration::from_millis(100);
    cfg.session.starving_retry = Duration::from_millis(40);
    cfg.transport.retry_timeout = Duration::from_millis(10);
    let mut c = Cluster::founding(3, cfg).expect("cluster");
    for id in MEMBERS {
        c.set_app(id, Box::new(LockManager::new(id))).expect("app");
    }
    c.run_for(Duration::from_millis(500));
    lock(&mut c, HOLDER);
    c.run_for(Duration::from_millis(500));

    c.crash(JOINER);
    c.run_for(Duration::from_secs(1));
    c.restart(JOINER, StartMode::Joining).expect("restart");
    c.set_app(JOINER, Box::new(LockManager::joining(JOINER)))
        .expect("app");
    lock(&mut c, JOINER);
    let in_senders_ring =
        |c: &Cluster| c.session(SENDER).is_some_and(|s| s.ring().contains(JOINER));
    while !in_senders_ring(&c) {
        c.run_for(Duration::from_micros(50));
    }
    c.crash(SENDER);
    c.run_for(Duration::from_secs(2));
    assert!(c.membership_agreed(), "{}", c.dump_state());
    for id in [HOLDER, JOINER] {
        assert_eq!(replica(&c, id), (Some(HOLDER), vec![JOINER]), "at {id}");
    }
    assert_eq!(
        joiner_events(&mut c),
        vec![],
        "nothing granted to the joiner"
    );
}

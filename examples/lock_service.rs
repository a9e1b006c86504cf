//! Distributed lock manager in action (§2.7).
//!
//! Three nodes contend for the same named data lock. Grants come from
//! the replicated lock table (driven by the totally ordered multicast),
//! so every replica sees the identical grant sequence; when the owner
//! crashes mid-hold, the membership change force-releases its locks and
//! the next waiter inherits.
//!
//! ```bash
//! cargo run --example lock_service
//! ```

use raincore::dlm::{LockEvent, LockManager};
use raincore::prelude::*;
use raincore::sim::ClusterConfig;

fn main() {
    let mut cfg = ClusterConfig::default();
    cfg.session.token_hold = Duration::from_millis(5);
    cfg.session.hungry_timeout = Duration::from_millis(300);
    let mut cluster = Cluster::founding(3, cfg).expect("cluster");
    // Every node hosts one replica of the lock table, fed that node's
    // session events as they happen.
    for id in cluster.member_ids() {
        cluster
            .set_app(id, Box::new(LockManager::new(id)))
            .expect("member");
    }
    cluster.run_for(Duration::from_millis(500));
    let replica = |cluster: &Cluster, i: u32| -> (Option<NodeId>, Vec<NodeId>) {
        let lm = cluster.app::<LockManager>(NodeId(i)).expect("hosted");
        (lm.owner("database"), lm.waiters("database"))
    };

    println!("== three nodes race for the lock \"database\" ==");
    for i in [1u32, 2, 0] {
        cluster
            .with_app(NodeId(i), |lm: &mut LockManager, s| lm.lock(s, "database"))
            .expect("hosted")
            .unwrap();
    }
    cluster.run_for(Duration::from_secs(1));
    let (owner, waiters) = replica(&cluster, 0);
    println!("owner (node 0's replica): {owner:?}");
    println!("waiters: {waiters:?}");

    println!("\n== the owner releases; FIFO hand-over ==");
    cluster
        .with_app(owner.unwrap(), |lm: &mut LockManager, s| {
            lm.unlock(s, "database")
        })
        .expect("hosted")
        .unwrap();
    cluster.run_for(Duration::from_secs(1));
    println!("owner now: {:?}", replica(&cluster, 0).0);

    println!("\n== the new owner crashes while holding the lock ==");
    let owner = replica(&cluster, 0).0.unwrap();
    cluster.crash(owner);
    cluster.run_for(Duration::from_secs(1));
    let survivor = if owner == NodeId(0) { 1 } else { 0 };
    println!(
        "owner after forced release (node {survivor}'s replica): {:?}",
        replica(&cluster, survivor).0
    );

    // Every live replica saw the identical grant history.
    let mut history = |id: NodeId| {
        cluster
            .with_app(id, |lm: &mut LockManager, _| {
                std::iter::from_fn(|| lm.poll_event())
                    .filter_map(|e| match e {
                        LockEvent::Granted { owner, .. } => Some(owner),
                        LockEvent::Released { .. } => None,
                    })
                    .collect::<Vec<_>>()
            })
            .expect("hosted")
    };
    let mut live = (0..3).map(NodeId).filter(|&id| id != owner);
    let first = history(live.next().expect("a survivor"));
    println!("\ngrant history: {first:?}");
    for id in live {
        assert_eq!(history(id), first, "replicas agree");
    }
    println!("all live replicas agree on the grant history.");
}

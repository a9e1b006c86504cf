//! The Distributed Data Service: shared-memory-style programming on a
//! cluster (Figure 2 / §5 of the paper).
//!
//! Three nodes share a key-value store: local reads, totally ordered
//! writes, lock-free compare-and-swap leader election, and cluster-wide
//! counters — "the ease of developing a multi-thread shared-memory
//! application on a single processor". A node that restarts is sent the
//! store before it reads or applies anything.
//!
//! ```bash
//! cargo run --example shared_data
//! ```

use bytes::Bytes;
use raincore::data::DataStore;
use raincore::prelude::*;
use raincore::session::StartMode;
use raincore::sim::ClusterConfig;

/// Node `i`'s replica of the store.
fn store(cluster: &Cluster, i: u32) -> &DataStore {
    cluster.app(NodeId(i)).expect("a hosted store")
}

/// Runs a write of node `i`'s replica, which multicasts through its node.
fn write(
    cluster: &mut Cluster,
    i: u32,
    op: impl FnOnce(&mut DataStore, &mut SessionNode) -> raincore::types::Result<()>,
) {
    cluster
        .with_app(NodeId(i), op)
        .expect("a hosted store")
        .expect("write");
}

fn main() {
    let mut cfg = ClusterConfig::default();
    cfg.session.token_hold = Duration::from_millis(5);
    let mut cluster = Cluster::founding(3, cfg).expect("cluster");
    // Every node hosts a replica, fed that node's session events.
    for id in cluster.member_ids() {
        cluster
            .set_app(id, Box::new(DataStore::new(id)))
            .expect("member");
    }
    cluster.run_for(Duration::from_millis(500));

    println!("== every node writes its own status key ==");
    for i in 0..3u32 {
        let key = format!("status/node-{i}");
        write(&mut cluster, i, |s, node| {
            s.put(node, &key, Bytes::from_static(b"healthy"))
        });
    }
    cluster.run_for(Duration::from_secs(1));
    for (k, v) in store(&cluster, 2).iter() {
        println!(
            "  node 2 reads locally: {k} = {:?} (v{})",
            String::from_utf8_lossy(&v.value),
            v.version
        );
    }

    println!("\n== lock-free leader election with compare-and-swap ==");
    write(&mut cluster, 0, |s, node| {
        s.put(node, "leader", Bytes::from_static(b"-"))
    });
    cluster.run_for(Duration::from_secs(1));
    // All three race from the same observed version; the agreed total
    // order picks exactly one winner.
    for i in 0..3u32 {
        let name = format!("node-{i}");
        write(&mut cluster, i, |s, node| {
            s.cas(node, "leader", 1, Bytes::from(name.into_bytes()))
        });
    }
    cluster.run_for(Duration::from_secs(1));
    let elected = store(&cluster, 0).get("leader");
    println!(
        "  elected: {:?} (every replica agrees: {})",
        String::from_utf8_lossy(&elected.unwrap().value),
        (0..3).all(|i| store(&cluster, i).get("leader") == elected)
    );

    println!("\n== a cluster-wide counter ==");
    for round in 0..4 {
        for i in 0..3u32 {
            write(&mut cluster, i, |s, node| {
                s.add(node, "requests-served", 100 + round)
            });
        }
    }
    cluster.run_for(Duration::from_secs(1));
    let served = |i| store(&cluster, i).get_i64("requests-served");
    println!(
        "  requests-served = {} on every replica: {}",
        served(1),
        (0..3).all(|i| served(i) == served(0))
    );

    println!("\n== node 2 restarts with an empty replica ==");
    cluster.crash(NodeId(2));
    cluster.run_for(Duration::from_secs(2));
    cluster
        .restart(NodeId(2), StartMode::Joining)
        .expect("restart");
    // A member that joins a running group is built `joining`: it waits
    // for the group's table instead of taking its empty one for it.
    cluster
        .set_app(NodeId(2), Box::new(DataStore::joining(NodeId(2))))
        .expect("member");
    cluster.run_for(Duration::from_secs(2));
    let (theirs, mine) = (store(&cluster, 0), store(&cluster, 2));
    println!(
        "  node 2 was sent {} keys, versions and all: {}",
        mine.len(),
        mine.iter().eq(theirs.iter())
    );
}

//! Split brain and merge: the §2.4 story.
//!
//! A six-node group partitions into two islands; each island keeps
//! functioning as an independent sub-group (its own token, its own
//! multicasts). When connectivity returns, BODYODOR discovery beacons
//! find the other side and the group-id tie-break merges the tokens back
//! into one group without deadlock.
//!
//! ```bash
//! cargo run --example split_brain
//! ```

use bytes::Bytes;
use raincore::prelude::*;
use raincore::sim::{AuditView, ClusterConfig};

fn main() {
    let mut cfg = ClusterConfig::default();
    cfg.session.token_hold = Duration::from_millis(5);
    cfg.session.hungry_timeout = Duration::from_millis(300);
    cfg.session.beacon_period = Duration::from_millis(200);
    let mut cluster = Cluster::founding(6, cfg).expect("cluster");
    cluster.run_for(Duration::from_secs(1));
    println!("one group: {:?}", cluster.groups());

    println!("\n== the network partitions: {{0,1,2}} | {{3,4,5}} ==");
    cluster.partition(&[
        &[NodeId(0), NodeId(1), NodeId(2)],
        &[NodeId(3), NodeId(4), NodeId(5)],
    ]);
    cluster.run_for(Duration::from_secs(2));
    println!("sub-groups: {:?}", cluster.groups());

    // Both islands keep multicasting internally.
    cluster
        .multicast(
            NodeId(0),
            DeliveryMode::Agreed,
            Bytes::from_static(b"west side"),
        )
        .unwrap();
    cluster
        .multicast(
            NodeId(4),
            DeliveryMode::Agreed,
            Bytes::from_static(b"east side"),
        )
        .unwrap();
    cluster.run_for(Duration::from_secs(1));
    println!(
        "node 2 heard: {:?}",
        cluster
            .deliveries(NodeId(2))
            .iter()
            .map(|d| String::from_utf8_lossy(&d.payload).into_owned())
            .collect::<Vec<_>>()
    );
    println!(
        "node 5 heard: {:?}",
        cluster
            .deliveries(NodeId(5))
            .iter()
            .map(|d| String::from_utf8_lossy(&d.payload).into_owned())
            .collect::<Vec<_>>()
    );

    println!("\n== connectivity returns: discovery + merge ==");
    cluster.heal();
    cluster.run_for(Duration::from_secs(4));
    println!("groups after merge: {:?}", cluster.groups());
    println!("membership converged: {}", cluster.membership_agreed());

    let merges: u64 = cluster
        .member_ids()
        .iter()
        .map(|&id| cluster.metrics(id).merges)
        .sum();
    println!("token merges performed: {merges}");

    // Post-merge, a multicast reaches all six again.
    cluster
        .multicast(
            NodeId(5),
            DeliveryMode::Agreed,
            Bytes::from_static(b"rejoined"),
        )
        .unwrap();
    cluster.run_for(Duration::from_secs(1));
    let everyone = cluster.member_ids().iter().all(|&id| {
        cluster
            .deliveries(id)
            .iter()
            .any(|d| d.payload == Bytes::from_static(b"rejoined"))
    });
    println!("post-merge multicast reached all six nodes: {everyone}");
}

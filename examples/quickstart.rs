//! Quickstart: a four-node Raincore group in the deterministic simulator.
//!
//! Forms the group, multicasts messages with agreed (total) ordering,
//! crashes a node and watches the aggressive failure detection heal the
//! membership, then lets the crashed node rejoin through the 911
//! protocol.
//!
//! ```bash
//! cargo run --example quickstart
//! ```

use bytes::Bytes;
use raincore::prelude::*;
use raincore::session::StartMode;
use raincore::sim::{AuditView, ClusterConfig};

fn main() {
    // A cluster of four members (node 0 founds the token), default
    // simulated switched network.
    let mut cfg = ClusterConfig::default();
    cfg.session.token_hold = Duration::from_millis(5);
    cfg.session.hungry_timeout = Duration::from_millis(300);
    let mut cluster = Cluster::founding(4, cfg).expect("cluster");

    println!("== forming the group ==");
    cluster.run_for(Duration::from_millis(500));
    println!(
        "membership at node 0: {:?} (converged: {})",
        cluster.session(NodeId(0)).unwrap().ring(),
        cluster.membership_agreed()
    );

    println!("\n== reliable multicast with agreed total ordering ==");
    cluster
        .multicast(
            NodeId(1),
            DeliveryMode::Agreed,
            Bytes::from_static(b"hello from n1"),
        )
        .unwrap();
    cluster
        .multicast(
            NodeId(3),
            DeliveryMode::Agreed,
            Bytes::from_static(b"hello from n3"),
        )
        .unwrap();
    cluster
        .multicast(
            NodeId(2),
            DeliveryMode::Safe,
            Bytes::from_static(b"safe from n2"),
        )
        .unwrap();
    cluster.run_for(Duration::from_secs(1));
    for id in cluster.member_ids() {
        let seq: Vec<String> = cluster
            .deliveries(id)
            .iter()
            .map(|d| format!("{}:{}", d.origin, String::from_utf8_lossy(&d.payload)))
            .collect();
        println!("deliveries at {id}: [{}]", seq.join(", "));
    }
    println!("(identical order everywhere — that is the agreed-ordering guarantee)");

    println!("\n== crash node 2: aggressive failure detection ==");
    cluster.crash(NodeId(2));
    cluster.run_for(Duration::from_secs(1));
    println!(
        "membership at node 0: {:?} (converged: {})",
        cluster.session(NodeId(0)).unwrap().ring(),
        cluster.membership_agreed()
    );

    println!("\n== node 2 restarts and rejoins via the 911 protocol ==");
    cluster
        .restart(NodeId(2), StartMode::Joining)
        .expect("restart");
    cluster.run_for(Duration::from_secs(2));
    println!(
        "membership at node 0: {:?} (converged: {})",
        cluster.session(NodeId(0)).unwrap().ring(),
        cluster.membership_agreed()
    );

    let m = cluster.metrics(NodeId(0));
    println!(
        "\nnode 0 counters: {} tokens received, {} task switches, {} deliveries",
        m.tokens_received, m.task_switches, m.deliveries
    );
}

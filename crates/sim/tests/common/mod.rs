//! The seeded 5-node run two suites share: `typestate_equivalence.rs` pins
//! what it puts on the wire, `exact_wakeups.rs` ticks its idle members.

use bytes::Bytes;
use raincore_session::StartMode;
use raincore_sim::{AuditView, Cluster, ClusterConfig};
use raincore_types::{DeliveryMode, Duration, NodeId};

/// Five founding members on fast timers, with light seeded loss so
/// retransmissions, NACK pulls and false alarms happen.
pub fn five_nodes() -> Cluster {
    let mut cfg = ClusterConfig::default();
    cfg.session.token_hold = Duration::from_millis(2);
    cfg.session.hungry_timeout = Duration::from_millis(100);
    cfg.session.starving_retry = Duration::from_millis(40);
    cfg.session.beacon_period = Duration::from_millis(50);
    cfg.session.bulk_threshold = 512;
    cfg.transport.retry_timeout = Duration::from_millis(10);
    cfg.transport.max_retries = 4;
    cfg.net.loss = 0.03;
    cfg.net.seed = 14;
    Cluster::founding(5, cfg).expect("cluster")
}

/// Drives [`five_nodes`] through traffic, a crash, the master lock, a
/// rejoin, a partition and its merge; ends converged.
pub fn drive_five_nodes(c: &mut Cluster) {
    // A mixed workload: inline and out-of-band (>= 512 B) payloads,
    // agreed and safe, from rotating origins.
    let mut sent = 0u32;
    let mut burst = |c: &mut Cluster, origins: &[u32], n: u32| {
        for _ in 0..n {
            let from = NodeId(origins[(sent as usize) % origins.len()]);
            let mode = match sent % 3 {
                0 => DeliveryMode::Safe,
                _ => DeliveryMode::Agreed,
            };
            let len = [24, 1500][(sent % 2) as usize];
            let payload = Bytes::from(vec![sent as u8; len]);
            c.multicast(from, mode, payload).expect("multicast");
            sent += 1;
        }
    };

    c.run_for(Duration::from_millis(500));
    burst(c, &[0, 1, 2, 3, 4], 20);
    c.run_for(Duration::from_millis(300));
    // Crash with traffic in flight, then the master lock across the gap.
    burst(c, &[0, 1, 2, 4], 8);
    c.run_for(Duration::from_millis(3));
    c.crash(NodeId(3));
    c.run_for(Duration::from_secs(1));
    c.session_mut(NodeId(1))
        .expect("n1")
        .request_master()
        .expect("request");
    c.run_for(Duration::from_millis(200));
    let now = c.now();
    c.session_mut(NodeId(1))
        .expect("n1")
        .release_master(now)
        .expect("release");
    burst(c, &[0, 1, 2, 4], 8);
    c.restart(NodeId(3), StartMode::Joining).expect("restart");
    c.run_for(Duration::from_secs(2));
    burst(c, &[3, 0], 6);
    // Partition, traffic on both sides, heal, merge.
    c.partition(&[&[NodeId(0), NodeId(1)], &[NodeId(2), NodeId(3), NodeId(4)]]);
    c.run_for(Duration::from_secs(2));
    burst(c, &[0, 2, 1, 4], 8);
    c.run_for(Duration::from_secs(1));
    c.heal();
    c.run_for(Duration::from_secs(6));
    burst(c, &[4, 3, 2, 1, 0], 10);
    c.run_for(Duration::from_secs(2));
    assert!(c.membership_agreed(), "{}", c.dump_state());
}

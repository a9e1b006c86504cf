//! Property-based integration tests of the paper's core guarantees
//! (§2.5, §2.6) under randomized workloads, loss and failures.
//!
//! The properties:
//!
//! * **Agreement / common prefix** — delivery sequences at any two nodes
//!   are consistent: one is a prefix of the other (they can only differ
//!   in how far they have caught up, never in order or content).
//! * **Exactly-once** — no node delivers the same (origin, seq) twice.
//! * **Atomicity in quiescence** — after the disturbance ends and the
//!   group stabilizes, all live members have delivered the same set.
//! * **Determinism** — a run is a pure function of its seed.

use bytes::Bytes;
use proptest::prelude::*;
use raincore::prelude::*;
use raincore::sim::{AuditView, ClusterConfig};
use raincore_types::OriginSeq;

fn cfg(loss: f64, seed: u64) -> ClusterConfig {
    let mut c = ClusterConfig::default();
    c.session.token_hold = Duration::from_millis(2);
    c.session.hungry_timeout = Duration::from_millis(100);
    c.session.starving_retry = Duration::from_millis(40);
    c.session.beacon_period = Duration::from_millis(50);
    c.transport.retry_timeout = Duration::from_millis(10);
    c.transport.max_retries = 8;
    c.net.loss = loss;
    c.net.seed = seed;
    c
}

fn delivery_keys(c: &Cluster, id: NodeId) -> Vec<(NodeId, OriginSeq, u8)> {
    c.deliveries(id)
        .iter()
        .map(|d| (d.origin, d.seq, d.payload[0]))
        .collect()
}

fn is_prefix<T: PartialEq>(a: &[T], b: &[T]) -> bool {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    long.starts_with(short)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn prop_common_prefix_and_exactly_once_under_loss(
        seed in 0u64..10_000,
        loss in 0.0f64..0.2,
        sends in proptest::collection::vec((0u32..4, 0u8..2), 1..25),
    ) {
        let mut cluster = Cluster::founding(4, cfg(loss, seed)).unwrap();
        cluster.run_for(Duration::from_secs(1));
        for (i, &(from, mode)) in sends.iter().enumerate() {
            let mode = if mode == 0 { DeliveryMode::Agreed } else { DeliveryMode::Safe };
            cluster.multicast(NodeId(from), mode, Bytes::from(vec![i as u8])).unwrap();
            // Spread the sends out a little.
            cluster.run_for(Duration::from_millis(3));
        }
        cluster.run_for(Duration::from_secs(8));

        let seqs: Vec<Vec<(NodeId, OriginSeq, u8)>> =
            (0..4).map(|i| delivery_keys(&cluster, NodeId(i))).collect();
        // Exactly once.
        for (i, s) in seqs.iter().enumerate() {
            let mut dedup = s.clone();
            dedup.sort();
            dedup.dedup();
            prop_assert_eq!(dedup.len(), s.len(), "node {} delivered duplicates", i);
        }
        // Common prefix pairwise.
        for i in 0..4 {
            for j in (i + 1)..4 {
                prop_assert!(
                    is_prefix(&seqs[i], &seqs[j]),
                    "nodes {} and {} disagree:\n{:?}\n{:?}",
                    i, j, seqs[i], seqs[j]
                );
            }
        }
        // Quiescent atomicity: everyone delivered everything.
        for (i, s) in seqs.iter().enumerate() {
            prop_assert_eq!(s.len(), sends.len(), "node {} incomplete", i);
        }
    }

    #[test]
    fn prop_crash_preserves_agreement(
        seed in 0u64..10_000,
        victim in 1u32..4,
        kill_after_ms in 0u64..40,
        sends in proptest::collection::vec(0u32..4, 1..12),
    ) {
        let mut cluster = Cluster::founding(4, cfg(0.0, seed)).unwrap();
        cluster.run_for(Duration::from_secs(1));
        for (i, &from) in sends.iter().enumerate() {
            cluster
                .multicast(NodeId(from), DeliveryMode::Agreed, Bytes::from(vec![i as u8]))
                .unwrap();
        }
        cluster.run_for(Duration::from_millis(kill_after_ms));
        cluster.crash(NodeId(victim));
        cluster.run_for(Duration::from_secs(8));

        prop_assert!(cluster.membership_agreed());
        let live: Vec<NodeId> = cluster.live_members();
        prop_assert_eq!(live.len(), 3);
        let reference = delivery_keys(&cluster, live[0]);
        for &id in &live[1..] {
            let got = delivery_keys(&cluster, id);
            prop_assert!(
                is_prefix(&reference, &got),
                "{:?} vs {:?}", reference, got
            );
        }
        // Messages from survivors must have been delivered by all
        // survivors (atomicity for live originators).
        for (i, &from) in sends.iter().enumerate() {
            if NodeId(from) == NodeId(victim) {
                continue; // the victim's queued messages may die with it
            }
            for &id in &live {
                prop_assert!(
                    delivery_keys(&cluster, id).iter().any(|(_, _, p)| *p == i as u8),
                    "survivor {} missed message {} from live node {}",
                    id, i, from
                );
            }
        }
    }

    #[test]
    fn prop_runs_are_pure_functions_of_seed(seed in 0u64..1_000) {
        let run = || {
            let mut cluster = Cluster::founding(3, cfg(0.1, seed)).unwrap();
            cluster.run_for(Duration::from_secs(1));
            cluster.multicast(NodeId(1), DeliveryMode::Agreed, Bytes::from_static(b"d")).unwrap();
            cluster.run_for(Duration::from_secs(1));
            (
                delivery_keys(&cluster, NodeId(0)),
                cluster.metrics(NodeId(0)),
                cluster.steps(),
            )
        };
        prop_assert_eq!(run(), run());
    }
}

#[test]
fn delivery_sequences_identical_after_quiescence_with_mixed_modes() {
    // Deterministic heavyweight version of the property: 30 messages,
    // every mode combination, moderate loss.
    let mut cluster = Cluster::founding(5, cfg(0.05, 99)).unwrap();
    cluster.run_for(Duration::from_secs(1));
    for i in 0..30u8 {
        let mode = if i % 4 == 0 {
            DeliveryMode::Safe
        } else {
            DeliveryMode::Agreed
        };
        cluster
            .multicast(NodeId(u32::from(i) % 5), mode, Bytes::from(vec![i]))
            .unwrap();
        cluster.run_for(Duration::from_millis(2));
    }
    cluster.run_for(Duration::from_secs(10));
    let reference = delivery_keys(&cluster, NodeId(0));
    assert_eq!(reference.len(), 30);
    for i in 1..5 {
        assert_eq!(delivery_keys(&cluster, NodeId(i)), reference, "node {i}");
    }
}

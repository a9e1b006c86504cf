//! Cross-layer observability integration: the trace journal, the metric
//! counters and the latency histograms must tell the same story about the
//! same run.

use bytes::Bytes;
use raincore_obs::{parse_journal_json, render_events_json, TraceKind};
use raincore_sim::{standard_invariants, Cluster, ClusterConfig};
use raincore_types::{DeliveryMode, Duration, NodeId, Time};

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
fn journal_token_ordering_matches_session_metrics() {
    let mut c = Cluster::founding(5, fast_cfg()).unwrap();
    c.run_checked(Time::ZERO + Duration::from_secs(1), standard_invariants)
        .expect("healthy run");

    for id in c.member_ids() {
        let m = c.metrics(id);
        let obs = c.session(id).unwrap().obs();
        assert_eq!(obs.journal().dropped(), 0, "node {id}: journal overflowed");

        // Every token accept left exactly one TOKEN_RX trace, so the
        // journal's accept count equals the metrics counter.
        let rx_seqs: Vec<u64> = obs
            .journal()
            .iter()
            .filter_map(|e| match e.kind {
                TraceKind::TokenRx { seq, .. } => Some(seq),
                _ => None,
            })
            .collect();
        assert_eq!(
            rx_seqs.len() as u64,
            m.tokens_received,
            "node {id}: TOKEN_RX traces vs tokens_received"
        );
        assert!(
            m.tokens_received > 20,
            "node {id}: token actually circulated"
        );

        // The token seq is a high-water mark: accepts happen in strictly
        // increasing seq order at every node.
        assert!(
            rx_seqs.windows(2).all(|w| w[0] < w[1]),
            "node {id}: token seqs not strictly increasing: {rx_seqs:?}"
        );

        // Histogram side of the same story: one rotation interval per
        // accept after the first.
        let rot = obs.token_rotation.summary();
        assert_eq!(rot.count, m.tokens_received - 1, "node {id}");
        assert!(
            rot.max >= rot.p99 && rot.p99 >= rot.p50 && rot.p50 > 0,
            "{rot:?}"
        );
    }

    // Deliveries recorded in journals match the delivery counters too.
    for id in c.member_ids() {
        let delivered_traces = c
            .session(id)
            .unwrap()
            .obs()
            .journal()
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::Delivered { .. }))
            .count() as u64;
        assert_eq!(delivered_traces, c.metrics(id).deliveries, "node {id}");
    }
}

#[test]
fn holder_crash_shows_up_in_journal_and_histograms() {
    let mut c = Cluster::founding(4, fast_cfg()).unwrap();
    c.run_until(Time::ZERO + Duration::from_secs(1));
    let holder = c.eating_nodes().pop().expect("someone is eating");
    c.crash(holder);
    let t = c.now();
    c.run_until(t + Duration::from_secs(2));

    // Exactly one survivor regenerated; its journal carries the 911
    // causality and its recovery histogram one sample.
    let recovered: Vec<NodeId> = c
        .live_members()
        .into_iter()
        .filter(|&id| c.metrics(id).regenerations > 0)
        .collect();
    assert_eq!(recovered.len(), 1, "exactly one regenerator");
    let winner = recovered[0];
    let obs = c.session(winner).unwrap().obs();
    assert_eq!(obs.recovery_911.count(), 1);
    let text = obs.journal().render_text();
    assert!(text.contains("CALL911_TX"), "{text}");
    assert!(text.contains("RECOVERED911"), "{text}");
    assert!(text.contains("TOKEN_REGEN"), "{text}");

    // The merged cluster journal shows the peer failure detection.
    let merged = c.journal_text();
    let failed_line = merged
        .lines()
        .find(|l| l.contains("PEER_FAILED") && l.contains(&format!("peer=n{}", holder.0)));
    assert!(failed_line.is_some(), "{merged}");

    // Failure-on-delivery latency was measured at the transport layer of
    // whoever was pointing at the dead node.
    let failure_samples: u64 = c
        .live_members()
        .iter()
        .map(|&id| {
            c.session(id)
                .unwrap()
                .transport_obs()
                .failure_latency
                .count()
        })
        .sum();
    assert!(
        failure_samples > 0,
        "at least one failure-on-delivery latency sample"
    );
}

/// A real run's merged journal — a token-holder crash, a partition and
/// its heal, `Safe` multicasts on both sides of each — survives export,
/// parse and re-export byte for byte, not just hand-built samples.
#[test]
fn a_real_runs_journal_round_trips_byte_for_byte() {
    let mut c = Cluster::founding(5, fast_cfg()).unwrap();
    let safe_from_all = |c: &mut Cluster| {
        for id in c.live_members() {
            c.multicast(id, DeliveryMode::Safe, Bytes::from_static(b"safe"))
                .expect("multicast");
        }
    };
    c.run_until(Time::ZERO + Duration::from_secs(1));
    safe_from_all(&mut c);
    let holder = c.eating_nodes().pop().expect("someone is eating");
    c.crash(holder);
    c.run_for(Duration::from_secs(2));
    safe_from_all(&mut c);
    let live = c.live_members();
    c.partition(&[&live[..2], &live[2..]]);
    c.run_for(Duration::from_secs(2));
    c.heal();
    c.run_for(Duration::from_secs(6));
    safe_from_all(&mut c);
    c.run_for(Duration::from_secs(1));

    let exported = c.journal_json();
    // Vacuity guard: the run exercised regeneration, merging and the
    // safe hold-back queue, so the round trip covers their rows.
    for label in ["TOKEN_REGEN", "CAUSE_911", "MERGED", "SAFE_HELD"] {
        assert!(
            exported.contains(&format!("\"event\":\"{label}\"")),
            "no {label} in the journal"
        );
    }
    let events = parse_journal_json(&exported).expect("parse the run's journal");
    assert_eq!(render_events_json(&events), exported);
}

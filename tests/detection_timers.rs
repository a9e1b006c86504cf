//! Tier-1 smoke of the measured detection timers (DESIGN.md §17) on real
//! sockets: the timers must come down to what the ring measures and
//! still raise no alarm on a calm ring whose host is busy.
//!
//! Three `RuntimeNode`s over loopback UDP with the stock transport
//! configuration turn for two seconds beside a thread that spins on a
//! core. Read from the members' own exports afterwards: every member
//! armed the floor of the adaptive timeout (so the ceiling of 50 ms was
//! left behind), and nothing was retransmitted, no send failed, nobody
//! starved, called 911 or regenerated, and no member was suspected.
//!
//! The counts are wall-clock facts, so they are only held against the
//! timers on a host that let the threads run: the longest the spinning
//! thread was kept off its core, and the longest any member saw the
//! token take over its idle round (a member's thread that gets no CPU
//! holds the token up by exactly that long), must both stay under half
//! a timeout. On a host that stalled longer the counts are printed.

// Real-socket test: deadlines are wall-clock.
#![allow(clippy::disallowed_types)]

mod common;

use raincore::obs::{HistSummary, Snapshot, SnapshotValue};
use raincore::runtime::RuntimeNode;
use raincore::transport::MIN_RTO;
use raincore::types::{Duration, SessionConfig, TransportConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

const NODES: u32 = 3;
const TOKEN_HOLD: Duration = Duration::from_millis(5);

fn spawn_cluster() -> Vec<RuntimeNode> {
    let cfg = SessionConfig {
        token_hold: TOKEN_HOLD,
        hungry_timeout: Duration::from_millis(400),
        ..SessionConfig::for_cluster(NODES)
    };
    common::loopback_ring(NODES, cfg, TransportConfig::default())
}

fn exports(nodes: &[RuntimeNode]) -> Vec<Snapshot> {
    nodes
        .iter()
        .map(|n| Snapshot::parse_json(&n.obs_dump().expect("obs dump").json).unwrap())
        .collect()
}

/// A histogram's summary in one member's export.
fn summary(snap: &Snapshot, name: &str) -> HistSummary {
    snap.entries_named(name)
        .find_map(|e| match &e.value {
            SnapshotValue::Histogram { summary, .. } => Some(*summary),
            SnapshotValue::Counter(_) | SnapshotValue::Gauge(_) => None,
        })
        .unwrap_or_else(|| panic!("{name} missing from an export"))
}

/// A counter summed over every member's export.
fn total(snaps: &[Snapshot], name: &str) -> u64 {
    snaps
        .iter()
        .enumerate()
        .map(|(id, s)| {
            s.counter_value(name, &[("node", id.to_string().as_str())])
                .unwrap_or_else(|| panic!("{name} missing from node {id}'s export"))
        })
        .sum()
}

#[test]
fn calm_ring_beside_a_busy_thread_adapts_and_raises_no_alarm() {
    let nodes = spawn_cluster();
    // The sibling: spins on a core, and notes the longest it was kept off
    // it — a host that stalls *it* for half a timeout is not the busy
    // host this test is about but an overloaded one.
    let stop = Arc::new(AtomicBool::new(false));
    let spinner = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let (mut last, mut worst) = (Instant::now(), std::time::Duration::ZERO);
            while !stop.load(Ordering::SeqCst) {
                let now = Instant::now();
                worst = worst.max(now - last);
                last = now;
                std::hint::spin_loop();
            }
            worst
        })
    };
    std::thread::sleep(std::time::Duration::from_secs(2));
    let snaps = exports(&nodes);
    stop.store(true, Ordering::SeqCst);
    let spinner_stall = spinner.join().expect("spinner");
    for n in &nodes {
        n.leave();
    }

    let passes = total(&snaps, "raincore_session_tokens_sent");
    assert!(passes > 100, "the ring turned: {passes} passes");
    // Every member measured its successor and armed the floor.
    for (id, s) in snaps.iter().enumerate() {
        let rto = summary(s, "raincore_transport_rto_ns");
        assert_eq!(rto.min, MIN_RTO.as_nanos(), "node {id}: {rto:?}");
        assert_eq!(
            rto.max,
            TransportConfig::default().retry_timeout.as_nanos(),
            "node {id} started cold, at the ceiling: {rto:?}"
        );
    }

    // How long the host kept a thread waiting: the spinner's own worst,
    // and the members' — the worst round any of them saw, over the idle
    // round of `NODES × token_hold`.
    let idle_round = TOKEN_HOLD.saturating_mul(u64::from(NODES)).as_nanos();
    let ring_stall = snaps
        .iter()
        .map(|s| summary(s, "raincore_token_rotation_ns").max)
        .max()
        .map_or(0, |worst| worst.saturating_sub(idle_round));
    let host_stall = spinner_stall.max(std::time::Duration::from_nanos(ring_stall));
    let alarms: Vec<(&str, u64)> = [
        // One acknowledgement later than one timeout.
        "raincore_transport_retransmissions",
        // A peer silent for three timeouts.
        "raincore_transport_msgs_failed",
        "raincore_session_failures_detected",
        "raincore_session_false_suspicions",
        "raincore_session_calls911_sent",
        "raincore_session_regenerations",
    ]
    .into_iter()
    .map(|name| (name, total(&snaps, name)))
    .filter(|&(_, n)| n > 0)
    .collect();
    if host_stall < MIN_RTO.div(2).to_std() {
        assert!(alarms.is_empty(), "alarms on a calm ring: {alarms:?}");
    } else if !alarms.is_empty() {
        eprintln!(
            "host overloaded (a thread waited {host_stall:?} for a core): \
             {alarms:?} not held against the timers"
        );
    }
}

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
//! a timeout for a retransmission to be an alarm, and under a give-up
//! budget for a failed send, a failed probe or a call to 911 to be one.
//! On a host that stalled longer the counts are printed.
//!
//! The second case is the lost token (§17.3): four members, the one that
//! is EATING stopped on its driver thread. Its predecessor asks after
//! `4·rotation + 2·give-up`, hears nothing for one give-up, regenerates
//! alone, and deliveries resume well inside the 400 ms `hungry_timeout`
//! that used to be waited out first.

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
/// Three tries at the floor: what a measured loopback peer is given.
const GIVE_UP: Duration = MIN_RTO.saturating_mul(3);
/// Both cases read wall-clock counts off a 2-core host: one at a time.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn spawn_cluster(nodes: u32, token_hold: Duration) -> Vec<RuntimeNode> {
    let cfg = SessionConfig {
        token_hold,
        hungry_timeout: Duration::from_millis(400),
        ..SessionConfig::for_cluster(nodes)
    };
    common::loopback_ring(nodes, cfg, TransportConfig::default())
}

fn exports(nodes: &[&RuntimeNode]) -> Vec<Snapshot> {
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
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let nodes = spawn_cluster(NODES, TOKEN_HOLD);
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
    let snaps = exports(&nodes.iter().collect::<Vec<_>>());
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
    let raised = |names: &[&'static str]| -> Vec<(&'static str, u64)> {
        let counts = names.iter().map(|&name| (name, total(&snaps, name)));
        counts.filter(|&(_, n)| n > 0).collect()
    };
    // One acknowledgement later than one timeout.
    let late = raised(&["raincore_transport_retransmissions"]);
    // A peer silent for three timeouts — and, with every member's probe
    // armed at `4 × 15 + 2 × 48` ms (130 rotations seen, four needed),
    // one silent for that long and three more.
    let silent = raised(&[
        "raincore_transport_msgs_failed",
        "raincore_session_failures_detected",
        "raincore_session_false_suspicions",
        "raincore_session_probes_failed",
        "raincore_session_calls911_sent",
        "raincore_session_regenerations",
    ]);
    if host_stall < MIN_RTO.div(2).to_std() {
        assert!(late.is_empty(), "retransmissions on a calm ring: {late:?}");
    }
    if host_stall < GIVE_UP.to_std() {
        assert!(silent.is_empty(), "alarms on a calm ring: {silent:?}");
    } else if !silent.is_empty() || !late.is_empty() {
        eprintln!(
            "host overloaded (a thread waited {host_stall:?} for a core): \
             {late:?} {silent:?} not held against the timers"
        );
    }
}

#[test]
fn token_lost_with_a_stopped_holder_is_regenerated_by_one_caller_inside_300_ms() {
    use raincore::session::SessionEvent;
    use raincore::types::DeliveryMode;
    const STOPPED: std::time::Duration = std::time::Duration::from_millis(1500);
    const HOLD: Duration = Duration::from_millis(2);
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let nodes = spawn_cluster(4, HOLD);
    let (submitter, victim, observer) = (&nodes[0], &nodes[2], &nodes[3]);
    let done = AtomicBool::new(false);
    let (stopped_tx, stopped_rx) = std::sync::mpsc::channel();
    let (deliveries, host_stall, snaps) = std::thread::scope(|s| {
        // Load, and a clock on the host: one multicast every 2 ms, and the
        // longest the submitting thread overslept.
        let load = s.spawn(|| {
            let mut worst = std::time::Duration::ZERO;
            while !done.load(Ordering::SeqCst) {
                let t = Instant::now();
                let _ = submitter.multicast(DeliveryMode::Agreed, bytes::Bytes::from_static(b"m"));
                std::thread::sleep(std::time::Duration::from_millis(2));
                worst = worst.max(t.elapsed());
            }
            worst
        });
        let watch = s.spawn(|| {
            let mut at = Vec::new();
            while !done.load(Ordering::SeqCst) {
                let ev = observer.recv_event(std::time::Duration::from_millis(5));
                if let Some(SessionEvent::Delivery(_)) = ev {
                    at.push(Instant::now());
                }
            }
            at
        });
        // Let every member see four rotations, then stop the victim's
        // driver thread while it holds the token: to its peers, a member
        // that died EATING.
        std::thread::sleep(std::time::Duration::from_millis(500));
        s.spawn(|| loop {
            // Stopped halfway through its hold, not as it accepts: its
            // loop has turned since (every try here turns it once), so
            // the acknowledgement of the pass that fed it is on the wire
            // — a holder that died after that pass was complete.
            let tx = stopped_tx.clone();
            let stopped = victim.with_app(move |_: &mut (), node, now| {
                let halfway = now + HOLD.div(2);
                let held = node.is_eating() && node.next_wakeup().is_some_and(|w| w <= halfway);
                held.then(|| {
                    let _ = tx.send(Instant::now());
                    std::thread::sleep(STOPPED);
                })
            });
            if stopped != Some(None) {
                return;
            }
            std::thread::sleep(std::time::Duration::from_micros(100));
        });
        let stopped_at = stopped_rx.recv().expect("the victim was caught eating");
        std::thread::sleep(STOPPED.mul_f64(0.6));
        // The survivors' exports, while the victim is still stopped.
        let snaps = exports(&[&nodes[0], &nodes[1], &nodes[3]]);
        done.store(true, Ordering::SeqCst);
        let at = watch.join().expect("watcher");
        let since = at.iter().rposition(|&t| t <= stopped_at).expect("load ran");
        (at[since..].to_vec(), load.join().expect("load"), snaps)
    });
    for n in &nodes {
        n.leave();
    }

    let outage = deliveries.windows(2).map(|w| w[1] - w[0]).max();
    let outage = outage.expect("deliveries resumed at the observer");
    // A survivor's own counter (one member per export, whatever its id).
    let counter = |snap: &Snapshot, name: &str| -> u64 {
        let own = snap.entries_named(name).find_map(|e| match e.value {
            SnapshotValue::Counter(n) => Some(n),
            SnapshotValue::Gauge(_) | SnapshotValue::Histogram { .. } => None,
        });
        own.unwrap_or_else(|| panic!("{name} missing from an export"))
    };
    let sum = |name: &str| -> u64 { snaps.iter().map(|s| counter(s, name)).sum() };
    let callers = snaps
        .iter()
        .filter(|s| counter(s, "raincore_session_calls911_sent") > 0);
    assert_eq!(sum("raincore_session_regenerations"), 1);
    assert_eq!(callers.count(), 1, "the dead holder's predecessor, alone");
    assert_eq!(sum("raincore_session_probes_failed"), 1);
    assert!(sum("raincore_session_probes_sent") >= 3, "everyone asked");
    assert_eq!(sum("raincore_session_false_suspicions"), 0);
    // 4 × 8 ms of rotation + 2 × 48 ms, a give-up of 48 ms, a vote and a
    // round: 190 ms on a host that runs its threads.
    assert!(outage > GIVE_UP.to_std(), "{outage:?}");
    if host_stall < MIN_RTO.to_std() {
        assert!(
            outage < std::time::Duration::from_millis(300),
            "lost-token outage {outage:?}"
        );
    } else {
        eprintln!("host overloaded (a thread overslept {host_stall:?}): outage {outage:?}");
    }
}

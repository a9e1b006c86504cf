//! Tier-1 smoke of size-gated rotation pacing (DESIGN.md §16) on real
//! sockets, read from the system's own exports.
//!
//! Three `RuntimeNode`s over loopback UDP. Idle, the ring must keep the
//! paper's round rate: one hop per `token_hold`, no faster. Under a
//! closed loop that keeps the token full it must turn at the loaded pace
//! — twice the idle one, kept by its first member's clock — and still
//! deliver every message exactly once, byte for byte, in one order, at
//! every member, with nothing dropped and no 911. Two loops fill it: 16
//! 64-byte payloads a member (48 entries, about 3.6 KB on the wire), and
//! eight 8 KiB payloads from the first member alone, which travel out of
//! band — a ~200-byte token that is full by the freight it orders.
//!
//! The bounds compare hop *counts* against the wall time the counting
//! took, with slack in the direction a busy host pushes. An idle ring on
//! a starved host only hops less. A loaded ring keeps its pace as long
//! as the host turns the token round within a loaded round, so
//! `token_hold` is 10 ms here: that leaves 15 ms for three hops, and a
//! debug build sharing two cores with the other tests needs about three.
//! The share of passes sooner than `token_hold` is a pure count and does
//! not depend on the host at all.

// Real-socket test: deadlines are wall-clock.
#![allow(clippy::disallowed_types)]

mod common;

use raincore::obs::Snapshot;
use raincore::runtime::RuntimeNode;
use raincore::session::SessionEvent;
use raincore::types::{DeliveryMode, Duration, NodeId, OriginSeq, SessionConfig, TransportConfig};
use std::collections::HashSet;
use std::time::Instant;

const NODES: u32 = 3;
const TOKEN_HOLD: Duration = Duration::from_millis(10);

fn spawn_cluster() -> Vec<RuntimeNode> {
    let cfg = SessionConfig {
        token_hold: TOKEN_HOLD,
        hungry_timeout: Duration::from_millis(400),
        bulk_threshold: 512,
        ..SessionConfig::for_cluster(NODES)
    };
    common::loopback_ring(NODES, cfg, TransportConfig::default())
}

/// A counter summed over every member's export.
fn total(nodes: &[RuntimeNode], name: &str) -> u64 {
    nodes
        .iter()
        .enumerate()
        .map(|(id, n)| {
            let snap = Snapshot::parse_json(&n.obs_dump().expect("obs dump").json).unwrap();
            snap.counter_value(name, &[("node", id.to_string().as_str())])
                .unwrap_or_else(|| panic!("{name} missing from node {id}'s export"))
        })
        .sum()
}

/// Hops a ring that waits out `token_hold` at every hop makes in `wall`.
fn paced_hops(wall: std::time::Duration) -> f64 {
    wall.as_nanos() as f64 / TOKEN_HOLD.as_nanos() as f64
}

#[test]
fn idle_ring_hops_once_per_token_hold() {
    let nodes = spawn_cluster();
    std::thread::sleep(std::time::Duration::from_millis(200));
    let started = Instant::now();
    let before = total(&nodes, "raincore_session_tokens_sent");
    std::thread::sleep(std::time::Duration::from_secs(1));
    let hops = total(&nodes, "raincore_session_tokens_sent") - before;
    let wall = started.elapsed();
    assert!(hops > 10, "the ring is alive: {hops} hops in {wall:?}");
    assert!(
        (hops as f64) <= 1.2 * paced_hops(wall),
        "{hops} hops in {wall:?}: an idle ring must not beat token_hold"
    );
    assert_eq!(total(&nodes, "raincore_session_tokens_passed_early"), 0);
    for n in &nodes {
        n.leave();
    }
}

type Log = Vec<(NodeId, OriginSeq)>;

/// A closed loop: each of the first `origins` members keeps `window`
/// agreed multicasts in flight, the `k`th of them carrying `payload(k)`.
struct ClosedLoop {
    origins: usize,
    window: usize,
    payload: fn(u64) -> bytes::Bytes,
    /// Multicasts each member has submitted: its next origin sequence.
    submitted: Vec<u64>,
}

impl ClosedLoop {
    fn submit(&mut self, nodes: &[RuntimeNode], origin: usize) {
        let k = self.submitted[origin];
        let seq = nodes[origin]
            .multicast(DeliveryMode::Agreed, (self.payload)(k))
            .unwrap();
        assert_eq!(seq, OriginSeq(k));
        self.submitted[origin] += 1;
    }

    /// Drains every member's events into its delivery log, checking each
    /// payload against what its origin submitted under that sequence;
    /// with `refill`, each own multicast that became atomic is replaced
    /// by a new one.
    fn pump(&mut self, nodes: &[RuntimeNode], logs: &mut [Log], refill: bool) {
        for (i, n) in nodes.iter().enumerate() {
            // Block briefly on one member so the caller's loop does not spin.
            let mut next = match i {
                0 => n.recv_event(std::time::Duration::from_millis(1)),
                _ => n.try_recv_event(),
            };
            while let Some(ev) = next {
                match ev {
                    SessionEvent::Delivery(d) => {
                        assert!(d.payload == (self.payload)(d.seq.0), "payload of {d:?}");
                        logs[i].push((d.origin, d.seq));
                    }
                    SessionEvent::MulticastAtomic { .. } if refill => self.submit(nodes, i),
                    _ => {}
                }
                next = n.try_recv_event();
            }
        }
    }

    /// Runs the loop for a measured second and checks the loaded pace,
    /// the exports and the delivery logs.
    fn run(origins: usize, window: usize, payload: fn(u64) -> bytes::Bytes) {
        let mut this = ClosedLoop {
            origins,
            window,
            payload,
            submitted: vec![0; NODES as usize],
        };
        this.measure();
    }

    fn measure(&mut self) {
        let nodes = spawn_cluster();
        let mut logs: Vec<Log> = vec![Vec::new(); nodes.len()];
        for origin in 0..self.origins {
            for _ in 0..self.window {
                self.submit(&nodes, origin);
            }
        }
        // Warm-up, then the measured second between two exports.
        let warm = Instant::now();
        while warm.elapsed() < std::time::Duration::from_millis(200) {
            self.pump(&nodes, &mut logs, true);
        }
        let started = Instant::now();
        let before = total(&nodes, "raincore_session_tokens_sent");
        let early_before = total(&nodes, "raincore_session_tokens_passed_early");
        while started.elapsed() < std::time::Duration::from_secs(1) {
            self.pump(&nodes, &mut logs, true);
        }
        let early = total(&nodes, "raincore_session_tokens_passed_early") - early_before;
        let hops = total(&nodes, "raincore_session_tokens_sent") - before;
        let wall = started.elapsed();
        // Drain: no refills, until every member has every message.
        let submitted = self.submitted.iter().sum::<u64>() as usize;
        let deadline = Instant::now() + std::time::Duration::from_secs(20);
        while logs.iter().any(|l| l.len() < submitted) && Instant::now() < deadline {
            self.pump(&nodes, &mut logs, false);
        }

        // Twice the idle pace, no more: two members pass at once and the
        // first passes every half idle round, late wake-ups made up for.
        assert!(
            hops as f64 > 1.5 * paced_hops(wall),
            "{hops} hops in {wall:?}: a full token must not wait out token_hold"
        );
        assert!(
            hops as f64 <= 2.2 * paced_hops(wall),
            "{hops} hops in {wall:?}: a clock paces the loaded ring, not the host"
        );
        // `early` was read first, so it can only undercount against `hops`.
        assert!(
            2 * early > hops,
            "{early} of {hops} passes sooner than token_hold: the token was full throughout"
        );
        assert_eq!(total(&nodes, "raincore_io_send_dropped"), 0);
        assert_eq!(total(&nodes, "raincore_session_regenerations"), 0);
        for n in &nodes {
            n.leave();
        }
        for (i, log) in logs.iter().enumerate() {
            assert_eq!(log.len(), submitted, "node {i} delivered every message");
            assert_eq!(log, &logs[0], "node {i} delivered in node 0's order");
        }
        let distinct: HashSet<_> = logs[0].iter().collect();
        assert_eq!(distinct.len(), submitted, "exactly once");
    }
}

#[test]
fn full_token_keeps_the_loaded_pace_and_still_delivers_exactly_once_in_order() {
    ClosedLoop::run(3, 16, |_| bytes::Bytes::from(vec![0x5a; 64]));
}

#[test]
fn token_full_of_out_of_band_freight_keeps_the_loaded_pace_too() {
    // 8 KiB whose every byte depends on its place and its sequence.
    fn payload(k: u64) -> bytes::Bytes {
        (0..8192u64).map(|i| (i ^ (k * 31)) as u8).collect()
    }
    ClosedLoop::run(1, 8, payload);
}

//! The adaptive retransmission timeout: estimator, Karn's rule,
//! floor, ceiling, spacing of the retries, and when what was measured
//! is forgotten.

use super::MIN_RTO;
use crate::testkit::{drain, endpoint, exchange, pair, MS, US};
use crate::Endpoint;
use bytes::Bytes;
use raincore_net::Addr;
use raincore_types::{Duration, Incarnation, NodeId, StateDigest, Time, TransportConfig};

/// The timeout `a` arms for a fresh message to node 1 at `at` (with
/// nothing else in flight).
fn armed(a: &mut Endpoint, at: Time) -> Duration {
    let id = a.send(at, NodeId(1), Bytes::from_static(b"probe")).unwrap();
    drain(a);
    let due = a.next_wakeup().unwrap();
    a.abort(id);
    due.since(at)
}

#[test]
fn cold_peer_is_armed_with_the_configured_timeout() {
    let (mut a, _b) = pair(TransportConfig::default(), 1);
    assert_eq!(armed(&mut a, Time::ZERO), MS(50));
}

#[test]
fn estimator_converges_on_a_constant_rtt() {
    let cfg = TransportConfig {
        retry_timeout: Duration::from_secs(10),
        ..Default::default()
    };
    let (mut a, mut b) = pair(cfg, 1);
    let mut now = Time::ZERO;
    now = exchange(&mut a, &mut b, now, MS(40));
    // RFC 6298 §2.2: the first sample R gives srtt = R, rttvar = R/2.
    assert_eq!(armed(&mut a, now), MS(40) + MS(20).saturating_mul(4));
    for _ in 0..60 {
        now = exchange(&mut a, &mut b, now, MS(40));
    }
    let rto = armed(&mut a, now);
    assert!(
        rto >= MS(40) && rto <= MS(41),
        "the variance term decays to nothing on a constant RTT, and \
         what is left is rounded up to the 1 ms grid: {rto:?}"
    );
    // It follows a change of path, and the variance opens up again.
    now = exchange(&mut a, &mut b, now, MS(80));
    assert!(armed(&mut a, now) > MS(80));
}

#[test]
fn lan_rtt_is_floored_at_min_rto() {
    let (mut a, mut b) = pair(TransportConfig::default(), 1);
    let now = exchange(&mut a, &mut b, Time::ZERO, US(120));
    assert_eq!(armed(&mut a, now), MIN_RTO);
    assert_eq!(a.obs().rto.count(), 2, "every armed timeout is recorded");
}

#[test]
fn retries_are_evenly_spaced_between_floor_and_ceiling() {
    let give_up = |rtt: Duration, ceiling: Duration| {
        let cfg = TransportConfig {
            retry_timeout: ceiling,
            max_retries: 4,
            ..Default::default()
        };
        let (mut a, mut b) = pair(cfg, 1);
        let t0 = exchange(&mut a, &mut b, Time::ZERO, rtt);
        let budget = a.give_up_budget(NodeId(1));
        a.send(t0, NodeId(1), Bytes::from_static(b"void")).unwrap();
        let mut due = vec![];
        while let Some(t) = a.next_wakeup() {
            due.push(t.since(t0));
            a.on_tick(t);
        }
        assert_eq!(a.stats().retransmissions, 3);
        assert_eq!(a.stats().msgs_failed, 1);
        assert_eq!(due[3], budget, "the budget is when the verdict falls");
        assert_eq!(
            armed(&mut a, t0 + due[3]),
            ceiling,
            "a peer that failed is a peer nothing is known of"
        );
        due
    };
    // A LAN peer: the floor, four times — no back-off.
    assert_eq!(give_up(US(120), MS(50)), [MS(16), MS(32), MS(48), MS(64)]);
    // A slow one: srtt + 4·rttvar = 3·R after the first sample.
    assert_eq!(give_up(MS(10), MS(50)), [MS(30), MS(60), MS(90), MS(120)]);
    // The configured timeout is the ceiling.
    assert_eq!(give_up(MS(10), MS(25)), [MS(25), MS(50), MS(75), MS(100)]);
    // At or under the floor the configured timeout is all there is.
    assert_eq!(give_up(US(120), MS(9)), [MS(9), MS(18), MS(27), MS(36)]);
}

#[test]
fn give_up_budget_counts_every_address_the_strategy_walks() {
    use raincore_types::config::SendStrategy;
    let budget = |strategy, nics| {
        let cfg = TransportConfig {
            strategy,
            ..Default::default()
        };
        let (mut a, mut b) = pair(cfg, nics);
        let cold = a.give_up_budget(NodeId(1));
        exchange(&mut a, &mut b, Time::ZERO, US(120));
        assert_eq!(a.obs().rto.count(), 1, "asking arms nothing");
        (cold, a.give_up_budget(NodeId(1)))
    };
    assert_eq!(budget(SendStrategy::Sequential, 1), (MS(150), MS(48)));
    assert_eq!(budget(SendStrategy::Sequential, 2), (MS(300), MS(96)));
    assert_eq!(budget(SendStrategy::Parallel, 2), (MS(150), MS(48)));
}

#[test]
fn ack_of_a_retransmitted_message_moves_nothing() {
    let (mut a, mut b) = pair(TransportConfig::default(), 1);
    let t0 = exchange(&mut a, &mut b, Time::ZERO, US(120));
    let before = a.peers().map[&NodeId(1)].rtt;
    // Karn: the first copy is lost, the retry is acknowledged 30 ms
    // after the send. Which copy the ack answers cannot be known.
    a.send(t0, NodeId(1), Bytes::from_static(b"again")).unwrap();
    drain(&mut a);
    a.on_tick(t0 + MIN_RTO);
    for d in drain(&mut a) {
        b.on_datagram(t0 + MS(30), d);
    }
    for d in drain(&mut b) {
        a.on_datagram(t0 + MS(30), d);
    }
    assert_eq!(a.stats().retransmissions, 1);
    assert_eq!(a.stats().msgs_delivered, 2);
    assert_eq!(a.peers().map[&NodeId(1)].rtt, before);
    // The completion-latency histogram still takes it.
    assert_eq!(a.obs().rtt.count(), 2);
}

#[test]
fn estimate_is_forgotten_with_the_peers_previous_life() {
    let (mut a, mut b) = pair(TransportConfig::default(), 1);
    exchange(&mut b, &mut a, Time::ZERO, US(120));
    let now = exchange(&mut a, &mut b, Time::ZERO, US(120));
    assert_eq!(armed(&mut a, now), MIN_RTO);
    // Node 1 restarts and speaks.
    let mut b2 = endpoint(1, Incarnation(1), TransportConfig::default(), 1);
    b2.send(now, NodeId(0), Bytes::from_static(b"back"))
        .unwrap();
    for d in drain(&mut b2) {
        a.on_datagram(now, d);
    }
    assert_eq!(armed(&mut a, now), MS(50), "cold again");
}

#[test]
fn estimate_is_forgotten_when_the_peer_is_removed_or_readdressed() {
    let (mut a, mut b) = pair(TransportConfig::default(), 1);
    let now = exchange(&mut a, &mut b, Time::ZERO, US(120));
    a.peers_mut().set(NodeId(1), vec![Addr::primary(NodeId(1))]);
    assert_eq!(armed(&mut a, now), MS(50));
    let now = exchange(&mut a, &mut b, now, US(120));
    assert_eq!(armed(&mut a, now), MIN_RTO);
    a.peers_mut().remove(NodeId(1));
    a.peers_mut().set(NodeId(1), vec![Addr::primary(NodeId(1))]);
    assert_eq!(armed(&mut a, now), MS(50));
}

#[test]
fn armed_timeouts_are_part_of_the_state_digest() {
    let digest = |ep: &Endpoint, now: Time| {
        let mut d = StateDigest::identity();
        ep.digest_into(now, &mut d);
        d.finish()
    };
    let (mut a, mut b) = pair(TransportConfig::default(), 1);
    let (mut c, mut d) = pair(TransportConfig::default(), 1);
    let t = exchange(&mut a, &mut b, Time::ZERO, US(120));
    exchange(&mut c, &mut d, Time::ZERO, US(120));
    assert_eq!(digest(&a, t), digest(&c, t));
    // Estimates that differ below the 1 ms grid arm the same timers
    // and are one state; one that arms another timeout is another.
    exchange(&mut a, &mut b, t, US(120));
    exchange(&mut c, &mut d, t, US(900));
    let t2 = t + US(900);
    assert_ne!(a.peers().map[&NodeId(1)].rtt, c.peers().map[&NodeId(1)].rtt);
    let rto = |ep: &Endpoint| ep.peers().rto(NodeId(1), MS(50));
    assert_eq!(rto(&a), rto(&c));
    assert_eq!(digest(&a, t2), digest(&c, t2));
    exchange(&mut a, &mut b, t2, US(120));
    exchange(&mut c, &mut d, t2, MS(30));
    assert!(rto(&c) > rto(&a));
    assert_ne!(digest(&a, t2), digest(&c, t2), "a different timeout");
}

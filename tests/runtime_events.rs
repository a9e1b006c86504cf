//! `RuntimeNode::recv_event` timeout semantics.
//!
//! The event channel sits between the driver thread and the application.
//! Pollers (the conformance-harness child drains events between exports)
//! must be able to ask "anything queued?" with a zero or short timeout and
//! get an immediate, lossless answer: a queued event is returned right
//! away, never silently dropped, and an empty queue returns `None` without
//! waiting out a long timeout.

// Real-socket test: deadlines are wall-clock.
#![allow(clippy::disallowed_types)]

mod common;

use raincore::runtime::RuntimeNode;
use raincore::session::SessionEvent;
use raincore::types::{DeliveryMode, Duration, SessionConfig, TransportConfig};

/// Spawn a pair of founding nodes wired over localhost UDP.
fn spawn_pair() -> Vec<RuntimeNode> {
    let mut cfg = SessionConfig::for_cluster(2);
    cfg.token_hold = Duration::from_millis(5);
    cfg.hungry_timeout = Duration::from_millis(500);
    common::loopback_ring(2, cfg, TransportConfig::default())
}

/// A zero timeout returns a queued event immediately — it never reports
/// `None` while something is waiting, and never drops the event.
#[test]
fn zero_timeout_returns_queued_event() {
    let nodes = spawn_pair();
    std::thread::sleep(std::time::Duration::from_millis(200));
    nodes[0]
        .multicast(DeliveryMode::Agreed, bytes::Bytes::from_static(b"queued"))
        .unwrap();

    // Wait (with a generous blocking recv) for the delivery to arrive on
    // node 1, then put it "back" conceptually by asserting the zero-
    // timeout path sees every later event without loss: drain with
    // timeout=0 only, counting deliveries.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let mut seen_delivery = false;
    while std::time::Instant::now() < deadline && !seen_delivery {
        // Let events accumulate, then drain exclusively with zero timeout.
        std::thread::sleep(std::time::Duration::from_millis(50));
        while let Some(ev) = nodes[1].recv_event(std::time::Duration::ZERO) {
            if let SessionEvent::Delivery(d) = ev {
                assert_eq!(&d.payload[..], b"queued");
                seen_delivery = true;
            }
        }
    }
    assert!(
        seen_delivery,
        "zero-timeout recv_event must hand over queued events, not drop them"
    );
    for n in &nodes {
        n.leave();
    }
}

/// A zero timeout on an empty queue returns `None` promptly (well under a
/// scheduler quantum), rather than blocking.
#[test]
fn zero_timeout_on_empty_queue_is_prompt() {
    let nodes = spawn_pair();
    // Drain whatever the founding handshake queued.
    while nodes[0]
        .recv_event(std::time::Duration::from_millis(200))
        .is_some()
    {}
    let start = std::time::Instant::now();
    let got = nodes[0].recv_event(std::time::Duration::ZERO);
    let took = start.elapsed();
    assert!(got.is_none());
    assert!(
        took < std::time::Duration::from_millis(50),
        "zero timeout must not block: took {took:?}"
    );
    for n in &nodes {
        n.leave();
    }
}

/// A short (non-zero) timeout also returns a queued event immediately and
/// times out promptly when empty — the wait is bounded by the timeout,
/// not by the driver's poll cadence.
#[test]
fn short_timeout_bounds_the_wait() {
    let nodes = spawn_pair();
    std::thread::sleep(std::time::Duration::from_millis(200));
    nodes[1]
        .multicast(DeliveryMode::Agreed, bytes::Bytes::from_static(b"short"))
        .unwrap();
    // Every queued event is eventually retrievable through 1ms-timeout
    // calls alone.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let mut seen_delivery = false;
    while std::time::Instant::now() < deadline && !seen_delivery {
        if let Some(SessionEvent::Delivery(d)) =
            nodes[0].recv_event(std::time::Duration::from_millis(1))
        {
            assert_eq!(&d.payload[..], b"short");
            seen_delivery = true;
        }
    }
    assert!(seen_delivery, "1ms-timeout polling must not lose events");

    // And with a drained queue, a 5ms timeout returns within ~50ms.
    while nodes[0]
        .recv_event(std::time::Duration::from_millis(200))
        .is_some()
    {}
    let start = std::time::Instant::now();
    let got = nodes[0].recv_event(std::time::Duration::from_millis(5));
    let took = start.elapsed();
    assert!(got.is_none());
    assert!(
        took < std::time::Duration::from_millis(100),
        "short timeout overshot: {took:?}"
    );
    for n in &nodes {
        n.leave();
    }
}

/// Events queued before the driver thread stops remain receivable after
/// it has exited: shutdown must not eat the tail of the event stream.
#[test]
fn events_survive_driver_shutdown() {
    let nodes = spawn_pair();
    std::thread::sleep(std::time::Duration::from_millis(200));
    nodes[0]
        .multicast(DeliveryMode::Agreed, bytes::Bytes::from_static(b"tail"))
        .unwrap();
    // Wait until node 1 has delivered (visible via its metrics), then
    // stop it without draining its queue first.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let dump = nodes[1].obs_dump().expect("node 1 still running");
        if dump.journal.contains("DELIVER") {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "delivery never reached node 1"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    nodes[1].leave();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !nodes[1].is_finished() {
        assert!(
            std::time::Instant::now() < deadline,
            "driver thread did not stop after leave"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    // The queued delivery is still there, via a zero-timeout receive.
    let mut seen_delivery = false;
    while let Some(ev) = nodes[1].recv_event(std::time::Duration::ZERO) {
        if let SessionEvent::Delivery(d) = ev {
            assert_eq!(&d.payload[..], b"tail");
            seen_delivery = true;
        }
    }
    assert!(
        seen_delivery,
        "events queued before shutdown must survive the driver exiting"
    );
    nodes[0].leave();
}

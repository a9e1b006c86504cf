//! `RuntimeNode` over loopback UDP: a multicast and the master lock cross
//! real sockets, the running node exports its observability state, and a
//! hosted application is fed on the driver thread.

// Real-socket test: deadlines are wall-clock.
#![allow(clippy::disallowed_types)]

mod common;

use raincore::data::DataStore;
use raincore::runtime::RuntimeNode;
use raincore::session::SessionEvent;
use raincore::types::{DeliveryMode, Duration, NodeId, SessionConfig, TransportConfig};
use std::time::{Duration as Wall, Instant};

// A node is shared by reference across scoped threads
// (`benchmark/src/drive.rs`, `tests/detection_timers.rs`), so it must stay
// `Send + Sync`. A `std::sync::mpsc::Receiver` inside it is `!Sync`; this
// fails to compile if one gets in unguarded.
const _: fn() = || {
    fn shared_across_threads<T: Send + Sync>() {}
    shared_across_threads::<RuntimeNode>();
};

fn cfg(n: u32) -> SessionConfig {
    let mut cfg = SessionConfig::for_cluster(n);
    cfg.token_hold = Duration::from_millis(5);
    cfg.hungry_timeout = Duration::from_millis(500);
    cfg
}

/// Waits up to five seconds for an event of `node` that `wanted` accepts.
fn await_event(node: &RuntimeNode, mut wanted: impl FnMut(&SessionEvent) -> bool) -> bool {
    let deadline = Instant::now() + Wall::from_secs(5);
    while Instant::now() < deadline {
        if node
            .recv_event(Wall::from_millis(100))
            .is_some_and(|ev| wanted(&ev))
        {
            return true;
        }
    }
    false
}

#[test]
fn three_nodes_form_group_and_multicast_over_udp() {
    let nodes = common::loopback_ring(3, cfg(3), TransportConfig::default());
    // Multicast from node 1 and expect delivery events on node 2.
    std::thread::sleep(Wall::from_millis(300));
    nodes[1]
        .multicast(DeliveryMode::Agreed, bytes::Bytes::from_static(b"over-udp"))
        .unwrap();
    let delivered = await_event(&nodes[2], |ev| match ev {
        SessionEvent::Delivery(d) => {
            assert_eq!(&d.payload[..], b"over-udp");
            assert_eq!(d.origin, NodeId(1));
            true
        }
        _ => false,
    });
    assert!(delivered, "multicast crossed real UDP sockets");
    // The running node can be snapshotted without stopping it.
    let dump = nodes[2].obs_dump().expect("obs dump");
    assert!(dump
        .prometheus
        .contains("raincore_session_tokens_received{node=\"2\"}"));
    assert!(dump
        .prometheus
        .contains("# TYPE raincore_token_rotation_ns histogram"));
    assert!(dump.journal.contains("TOKEN_RX"), "{}", dump.journal);
    assert!(dump.json.contains("\"name\":\"raincore_transport_rtt_ns\""));
    // Every transport counter is exported, the ack counters included.
    for name in [
        "msgs_sent",
        "data_frames_sent",
        "acks_sent",
        "acks_suppressed",
        "ack_frags_coalesced",
    ] {
        let line = format!("raincore_transport_{name}{{node=\"2\"}}");
        assert!(dump.prometheus.contains(&line), "{line}");
    }
    assert!(dump.journal_json.starts_with('['));
    // The per-mode submit latencies — what an application sees on a
    // real UDP cluster — are exported for both delivery modes.
    for name in ["submit_to_deliver_ns", "submit_to_atomic_ns"] {
        for mode in ["agreed", "safe"] {
            let line = format!("raincore_{name}_count{{mode=\"{mode}\",node=\"2\"}}");
            assert!(dump.prometheus.contains(&line), "{line}");
        }
    }
    // Trace health and the causal hop pipeline are in the same dump:
    // overflow counter, per-stage latency, spans with real timings,
    // and the process-wide flight recorder naming the last hop.
    assert!(dump
        .prometheus
        .contains("raincore_trace_dropped_events{node=\"2\"} 0"));
    assert!(dump
        .prometheus
        .contains("raincore_hop_stage_ns_count{node=\"2\",stage=\"protocol\"}"));
    assert!(dump.journal.contains("HOP_SPAN"), "{}", dump.journal);
    assert!(
        dump.flight.contains("last hop before dump: circ="),
        "{}",
        dump.flight
    );
    // The batched I/O engine's instrumentation is in the same dump:
    // syscalls vs packets per direction, the batch-size histograms,
    // and the derived syscalls-per-packet gauge.
    assert!(dump
        .prometheus
        .contains("raincore_io_syscalls{node=\"2\",op=\"recv\"}"));
    assert!(dump
        .prometheus
        .contains("raincore_io_packets{node=\"2\",op=\"send\"}"));
    assert!(dump
        .prometheus
        .contains("raincore_io_batch_size_count{dir=\"recv\",node=\"2\"}"));
    assert!(dump
        .prometheus
        .contains("raincore_io_syscalls_per_packet_milli{node=\"2\"}"));
    assert!(dump.json.contains("\"name\":\"raincore_io_syscalls\""));
    // How late the driver's own wake-ups were, in both renderings.
    assert!(dump
        .prometheus
        .contains("raincore_runtime_wake_late_ns_count{node=\"2\"}"));
    assert!(dump
        .json
        .contains("\"name\":\"raincore_runtime_wake_late_ns\""));
    for n in &nodes {
        n.leave();
    }
}

#[test]
fn master_lock_round_trips_over_udp() {
    let nodes = common::loopback_ring(2, cfg(2), TransportConfig::default());
    std::thread::sleep(Wall::from_millis(200));
    nodes[1].request_master();
    let acquired = await_event(&nodes[1], |ev| matches!(ev, SessionEvent::MasterAcquired));
    assert!(acquired, "master lock acquired over real UDP");
    nodes[1].release_master();
    assert!(await_event(&nodes[1], |ev| matches!(
        ev,
        SessionEvent::MasterReleased
    )));
    for n in &nodes {
        n.leave();
    }
}

/// A hosted application is fed on the driver thread and reached from
/// this one through `with_app`: a write submitted at one member's replica
/// lands in the other's, and the events still reach `recv_event`.
#[test]
fn hosted_data_store_replicates_over_udp() {
    let nodes =
        common::loopback_ring_hosting(2, cfg(2), TransportConfig::default(), DataStore::new);
    nodes[0]
        .with_app(|store: &mut DataStore, session, _| store.add(session, "hits", 3))
        .expect("node 0 hosts a store")
        .expect("add");
    let deadline = Instant::now() + Wall::from_secs(5);
    let read = |n: &RuntimeNode| n.with_app(|s: &mut DataStore, _, _| s.get_i64("hits"));
    while read(&nodes[1]) != Some(3) {
        assert!(Instant::now() < deadline, "the add never reached node 1");
        std::thread::sleep(Wall::from_millis(5));
    }
    assert_eq!(read(&nodes[0]), Some(3));
    assert!(
        await_event(&nodes[1], |ev| matches!(ev, SessionEvent::Delivery(_))),
        "a hosted application does not swallow the event"
    );
    assert_eq!(
        nodes[0].with_app(|_: &mut raincore::dlm::LockManager, _, _| ()),
        None,
        "what is hosted here is not a lock manager"
    );
    for n in &nodes {
        n.leave();
    }
}

//! Tier-1 guard on the transport's ack economy, read from the system's
//! own exports.
//!
//! A 3-node `RuntimeNode` cluster over loopback UDP multicasts 8 KiB
//! payloads out of band (`bulk_threshold` 512: six fire-and-forget
//! fragments to each of two receivers, twelve datagrams per multicast)
//! while the token — a single-fragment reliable message, one ack each —
//! orders the ids. Anything beyond that is overhead this test bounds:
//! an ack per *fragment*, or any ack at all for a bulk frame, pushes
//! datagrams per delivery past 14 and acks past one per reliable message.

// Real-socket test: deadlines are wall-clock.
#![allow(clippy::disallowed_types)]

mod common;

use raincore::obs::Snapshot;
use raincore::runtime::RuntimeNode;
use raincore::session::SessionEvent;
use raincore::types::{DeliveryMode, Duration, SessionConfig, TransportConfig};

const NODES: u32 = 3;
const PAYLOAD: usize = 8192;
/// Multicasts in flight: eight 8 KiB payloads fit the default socket
/// receive buffer, so nothing is dropped and nothing is retried.
const WINDOW: usize = 8;
const MESSAGES: usize = 400;

fn spawn_cluster() -> Vec<RuntimeNode> {
    let cfg = SessionConfig {
        token_hold: Duration::from_millis(2),
        hungry_timeout: Duration::from_millis(400),
        bulk_threshold: 512,
        ..SessionConfig::for_cluster(NODES)
    };
    common::loopback_ring(NODES, cfg, TransportConfig::default())
}

/// Blocks until `node` delivers one more multicast.
fn await_delivery(node: &RuntimeNode) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    while std::time::Instant::now() < deadline {
        if let Some(SessionEvent::Delivery(d)) =
            node.recv_event(std::time::Duration::from_millis(100))
        {
            assert_eq!(d.payload.len(), PAYLOAD);
            return;
        }
    }
    panic!("no delivery within 20 s");
}

/// A counter summed over every member's export.
fn total(dumps: &[Snapshot], name: &str, op: Option<&str>) -> u64 {
    dumps
        .iter()
        .enumerate()
        .map(|(id, snap)| {
            let node = id.to_string();
            let mut labels = vec![("node", node.as_str())];
            labels.extend(op.map(|op| ("op", op)));
            snap.counter_value(name, &labels)
                .unwrap_or_else(|| panic!("{name} missing from node {id}'s export"))
        })
        .sum()
}

fn dump_all(nodes: &[RuntimeNode]) -> Vec<Snapshot> {
    nodes
        .iter()
        .map(|n| Snapshot::parse_json(&n.obs_dump().expect("obs dump").json).unwrap())
        .collect()
}

#[test]
fn bulk_multicast_costs_no_more_than_its_fragments_and_one_ack_per_token() {
    let nodes = spawn_cluster();
    let payload = bytes::Bytes::from(vec![0x5a; PAYLOAD]);
    let submit = || {
        nodes[0]
            .multicast(DeliveryMode::Agreed, payload.clone())
            .unwrap();
    };
    // Warm-up: the ring is up once a multicast has come round.
    submit();
    await_delivery(&nodes[1]);

    // The measured stretch: a closed loop, WINDOW multicasts in flight,
    // counted between two exports so that idle rotation before and after
    // is not charged to it.
    let before = dump_all(&nodes);
    for _ in 0..WINDOW {
        submit();
    }
    for delivered in 0..MESSAGES {
        await_delivery(&nodes[1]);
        if delivered + WINDOW < MESSAGES {
            submit();
        }
    }
    let after = dump_all(&nodes);
    for n in &nodes {
        n.leave();
    }

    let delta = |name: &str, op: Option<&str>| total(&after, name, op) - total(&before, name, op);
    let datagrams = delta("raincore_io_packets", Some("send"));
    let acks = delta("raincore_transport_acks_sent", None);
    let reliable = delta("raincore_transport_msgs_sent", None);
    let retransmissions = delta("raincore_transport_retransmissions", None);
    let suppressed = delta("raincore_transport_acks_suppressed", None);

    let per_delivery = datagrams as f64 / MESSAGES as f64;
    assert!(
        per_delivery <= 14.0,
        "{datagrams} datagrams for {MESSAGES} deliveries = {per_delivery:.2} each \
         ({acks} acks, {reliable} reliable messages, {retransmissions} retransmissions)"
    );
    // One ack per reliable message (the token fits one fragment), one
    // more per retransmitted copy; the receiver side lags the sender side
    // by at most the messages in flight at the two exports.
    assert!(
        acks <= reliable + retransmissions + u64::from(NODES),
        "{acks} acks for {reliable} reliable messages and {retransmissions} retransmissions"
    );
    // The bulk frames really were fire-and-forget, and counted as such.
    assert!(
        suppressed >= 12 * (MESSAGES as u64 - WINDOW as u64),
        "{suppressed} unacknowledged bulk frames for {MESSAGES} multicasts"
    );
}

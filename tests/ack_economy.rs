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
//!
//! The second case shrinks the datagram instead: 64-byte multicasts ride
//! a token that a 64-byte MTU cuts into three fragments or more, and a
//! message still draws one ack, however its fragments arrive.

// Real-socket test: deadlines are wall-clock.
#![allow(clippy::disallowed_types)]

mod common;

use raincore::obs::Snapshot;
use raincore::runtime::RuntimeNode;
use raincore::session::SessionEvent;
use raincore::types::{DeliveryMode, Duration, SessionConfig, TransportConfig};

const NODES: u32 = 3;
/// The out-of-band case's payload.
const PAYLOAD: usize = 8192;
/// Multicasts in flight: eight 8 KiB payloads fit the default socket
/// receive buffer, so nothing is dropped and nothing is retried.
const WINDOW: usize = 8;
const MESSAGES: usize = 400;

fn spawn_cluster(bulk_threshold: usize, mtu: usize) -> Vec<RuntimeNode> {
    let cfg = SessionConfig {
        token_hold: Duration::from_millis(2),
        hungry_timeout: Duration::from_millis(400),
        bulk_threshold,
        ..SessionConfig::for_cluster(NODES)
    };
    let transport = TransportConfig {
        mtu,
        ..TransportConfig::default()
    };
    common::loopback_ring(NODES, cfg, transport)
}

/// Blocks until `node` delivers one more multicast, of `len` bytes.
fn await_delivery(node: &RuntimeNode, len: usize) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    while std::time::Instant::now() < deadline {
        if let Some(SessionEvent::Delivery(d)) =
            node.recv_event(std::time::Duration::from_millis(100))
        {
            assert_eq!(d.payload.len(), len);
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

/// Runs node 0's closed loop of `MESSAGES` multicasts of `len` bytes,
/// `WINDOW` in flight, and returns a counter's growth over it, summed
/// over every member. The stretch is counted between two exports, so
/// that idle rotation before and after is not charged to it.
fn closed_loop(nodes: &[RuntimeNode], len: usize) -> impl Fn(&str, Option<&str>) -> u64 {
    let payload = bytes::Bytes::from(vec![0x5a; len]);
    let submit = || {
        nodes[0]
            .multicast(DeliveryMode::Agreed, payload.clone())
            .unwrap();
    };
    // Warm-up: the ring is up once a multicast has come round.
    submit();
    await_delivery(&nodes[1], len);

    let before = dump_all(nodes);
    for _ in 0..WINDOW {
        submit();
    }
    for delivered in 0..MESSAGES {
        await_delivery(&nodes[1], len);
        if delivered + WINDOW < MESSAGES {
            submit();
        }
    }
    let after = dump_all(nodes);
    for n in nodes {
        n.leave();
    }
    move |name, op| total(&after, name, op) - total(&before, name, op)
}

#[test]
fn bulk_multicast_costs_no_more_than_its_fragments_and_one_ack_per_token() {
    let nodes = spawn_cluster(512, TransportConfig::default().mtu);
    let delta = closed_loop(&nodes, PAYLOAD);
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

#[test]
fn a_token_of_many_fragments_draws_one_ack_per_message() {
    // 64-byte multicasts inline (no bulk threshold) over a 64-byte MTU.
    let nodes = spawn_cluster(0, 64);
    let delta = closed_loop(&nodes, 64);
    let acks = delta("raincore_transport_acks_sent", None);
    let reliable = delta("raincore_transport_msgs_sent", None);
    let frames = delta("raincore_transport_data_frames_sent", None);
    let retransmissions = delta("raincore_transport_retransmissions", None);
    assert_eq!(delta("raincore_transport_unreliable_sent", None), 0);
    println!("{frames} frames, {acks} acks, {reliable} reliable messages, {retransmissions} retransmissions");
    // Vacuity: the reliable messages — the token, nearly all of them —
    // really are cut into three fragments or more.
    assert!(
        frames >= 3 * (reliable + retransmissions),
        "{frames} frames for {reliable} reliable messages: the token did not fragment"
    );
    // A receiver idle in `poll` when the first fragment lands wakes and
    // drains before the rest arrive; that drain acknowledges nothing, so
    // the bound is the one a single-fragment token meets.
    assert!(
        acks <= reliable + retransmissions + u64::from(NODES),
        "{acks} acks for {reliable} reliable messages and {retransmissions} retransmissions"
    );
}

//! The receiving half: incarnation admission, reassembly, exactly-once
//! hand-up, and the acknowledgement of a whole message — when it leaves,
//! which fragments it names and which link it returns on.

use crate::frame::Frame;
use crate::testkit::{acked_sets, drain, drain_events, endpoint, pair, ten_fragment_cfg};
use crate::TransportEvent;
use bytes::Bytes;
use raincore_net::{Addr, SimNet, SimNetConfig};
use raincore_types::config::SendStrategy;
use raincore_types::wire::WireDecode;
use raincore_types::{Duration, Incarnation, NodeId, Time, TransportConfig};

#[test]
fn stale_incarnation_frames_are_ignored() {
    let (mut a_old, mut b) = pair(TransportConfig::default(), 1);
    // New life of node 0 speaks first…
    let mut a_new = endpoint(0, Incarnation(1), TransportConfig::default(), 1);
    a_new
        .send(Time::ZERO, NodeId(1), Bytes::from_static(b"new"))
        .unwrap();
    let d = a_new.poll_outgoing().unwrap();
    b.on_datagram(Time::ZERO, d);
    assert_eq!(b.stats().msgs_received, 1);
    // …then a ghost frame from incarnation 0 arrives: dropped, no ack.
    a_old
        .send(Time::ZERO, NodeId(1), Bytes::from_static(b"old"))
        .unwrap();
    let d = a_old.poll_outgoing().unwrap();
    let acks_before = b.stats().acks_sent;
    b.on_datagram(Time::ZERO, d);
    assert_eq!(b.stats().msgs_received, 1, "ghost not delivered");
    assert_eq!(b.stats().acks_sent, acks_before, "ghost not acked");
    assert_eq!(b.stats().stale_dropped, 1);
}

#[test]
fn duplicate_data_reacked_but_not_redelivered() {
    let (mut a, mut b) = pair(TransportConfig::default(), 1);
    a.send(Time::ZERO, NodeId(1), Bytes::from_static(b"dup"))
        .unwrap();
    let d = a.poll_outgoing().unwrap();
    b.on_datagram(Time::ZERO, d.clone());
    b.on_datagram(Time::ZERO, d);
    assert_eq!(b.stats().msgs_received, 1);
    assert_eq!(b.stats().acks_sent, 2, "duplicate still acknowledged");
    assert_eq!(b.stats().duplicates_dropped, 1);
}

#[test]
fn interleaved_fragments_of_two_messages_reassemble_independently() {
    let cfg = TransportConfig {
        mtu: 64,
        ..Default::default()
    };
    let (mut a, mut b) = pair(cfg, 1);
    let p1: Vec<u8> = (0..=160).collect();
    let p2: Vec<u8> = (80..=240).collect();
    a.send(Time::ZERO, NodeId(1), Bytes::from(p1.clone()))
        .unwrap();
    a.send(Time::ZERO, NodeId(1), Bytes::from(p2.clone()))
        .unwrap();
    // Deliver all frames to b in a zig-zag order.
    let mut frames = vec![];
    while let Some(d) = a.poll_outgoing() {
        frames.push(d);
    }
    assert_eq!(frames.len(), 6, "3 fragments each");
    let order = [0usize, 3, 1, 4, 5, 2];
    for &i in &order {
        b.on_datagram(Time::ZERO, frames[i].clone());
    }
    let mut got = vec![];
    while let Some(TransportEvent::Received { payload, .. }) = b.poll_event() {
        got.push(payload.to_vec());
    }
    got.sort();
    let mut want = vec![p1, p2];
    want.sort();
    assert_eq!(got, want);
}

#[test]
fn parallel_strategy_single_delivery_despite_duplicate_paths() {
    let cfg = TransportConfig {
        strategy: SendStrategy::Parallel,
        ..Default::default()
    };
    let (mut a, mut b) = pair(cfg, 2);
    let mut net = SimNet::new(SimNetConfig::default());
    a.send(Time::ZERO, NodeId(1), Bytes::from_static(b"dup-path"))
        .unwrap();
    // Both copies arrive; exactly one delivery, both acked.
    while let Some(d) = a.poll_outgoing() {
        net.send(Time::ZERO, d);
    }
    for d in net.pop_arrivals(Time::ZERO + Duration::from_secs(1)) {
        if d.dst.node == NodeId(1) {
            b.on_datagram(Time::ZERO, d);
        }
    }
    let mut deliveries = 0;
    while let Some(ev) = b.poll_event() {
        if matches!(ev, TransportEvent::Received { .. }) {
            deliveries += 1;
        }
    }
    assert_eq!(deliveries, 1, "duplicate-path copies suppressed");
    assert_eq!(b.stats().duplicates_dropped, 1);
    assert_eq!(b.stats().acks_sent, 2, "both copies acknowledged");
}

#[test]
fn first_fragment_drained_alone_draws_nothing_and_the_whole_message_one_ack() {
    let (mut a, mut b) = pair(ten_fragment_cfg(), 1);
    a.send(Time::ZERO, NodeId(1), Bytes::from(vec![3u8; 300]))
        .unwrap();
    let sent = drain(&mut a);
    assert_eq!(sent.len(), 3);
    // A receiver idle in `poll` wakes on the first fragment and drains.
    b.on_datagram(Time::ZERO, sent[0].clone());
    assert_eq!(drain(&mut b), vec![], "a part of the message draws no ack");
    for d in &sent[1..] {
        b.on_datagram(Time::ZERO, d.clone());
    }
    let acks = drain(&mut b);
    assert_eq!(
        acked_sets(&acks),
        vec![vec![0, 1, 2]],
        "one ack, naming all"
    );
    assert_eq!((b.stats().acks_sent, b.stats().ack_frags_coalesced), (1, 2));
    for d in acks {
        a.on_datagram(Time::ZERO, d);
    }
    assert!(matches!(
        a.poll_event(),
        Some(TransportEvent::Delivered { .. })
    ));
}

#[test]
fn lost_fragment_draws_no_ack_and_the_whole_message_is_resent() {
    let (mut a, mut b) = pair(ten_fragment_cfg(), 1);
    let payload: Vec<u8> = (0..300).map(|i| (i % 251) as u8).collect();
    let id = a
        .send(Time::ZERO, NodeId(1), Bytes::from(payload.clone()))
        .unwrap();
    // The last fragment is lost. (Were a middle one lost, each fragment
    // resent behind it would find the message delivered and be re-acked:
    // the duplicate rule below.)
    let mut sent = drain(&mut a);
    sent.pop();
    for d in sent {
        b.on_datagram(Time::ZERO, d);
    }
    assert_eq!(drain(&mut b), vec![], "an incomplete message draws no ack");
    assert!(b.poll_event().is_none());
    // The retry resends every fragment; the receiver completes the
    // message, hands it up and acknowledges it once.
    let t1 = Time::ZERO + Duration::from_millis(10);
    a.on_tick(t1);
    let resent = drain(&mut a);
    let indices: Vec<u32> = resent
        .iter()
        .filter_map(|d| match Frame::decode_from_bytes(&d.payload) {
            Ok(Frame::Data { frag_index, .. }) => Some(frag_index),
            _ => None,
        })
        .collect();
    assert_eq!(indices, vec![0, 1, 2], "the whole message, not the gap");
    for d in resent {
        b.on_datagram(t1, d);
    }
    assert_eq!(
        drain_events(&mut b),
        vec![TransportEvent::Received {
            from: NodeId(0),
            payload: Bytes::from(payload)
        }]
    );
    let acks = drain(&mut b);
    assert_eq!(acked_sets(&acks), vec![vec![0, 1, 2]]);
    for d in acks {
        a.on_datagram(t1, d);
    }
    assert_eq!(
        a.poll_event(),
        Some(TransportEvent::Delivered {
            msg_id: id,
            to: NodeId(1)
        })
    );
    assert_eq!(a.stats().data_frames_sent, 6);
    assert_eq!(b.stats().acks_sent, 1);
}

#[test]
fn duplicate_fragment_of_a_delivered_message_is_reacked_with_the_full_set() {
    let (mut a, mut b) = pair(ten_fragment_cfg(), 1);
    a.send(Time::ZERO, NodeId(1), Bytes::from(vec![9u8; 1000]))
        .unwrap();
    for d in drain(&mut a) {
        b.on_datagram(Time::ZERO, d);
    }
    assert_eq!(drain(&mut b).len(), 1, "the ack that gets lost");
    // The sender heard nothing and resends all ten; the receiver has
    // delivered the message, and every fragment of it that arrives is
    // answered at once with the whole message.
    let t1 = Time::ZERO + Duration::from_millis(10);
    a.on_tick(t1);
    let resent = drain(&mut a);
    assert_eq!(resent.len(), 10);
    b.on_datagram(t1, resent[3].clone());
    let acks = drain(&mut b);
    assert_eq!(
        acked_sets(&acks),
        vec![(0..10).collect::<Vec<u32>>()],
        "one duplicate fragment is answered with the whole message"
    );
    for d in &resent[4..] {
        b.on_datagram(t1, d.clone());
    }
    assert_eq!(
        acked_sets(&drain(&mut b)),
        vec![(0..10).collect::<Vec<u32>>(); 6],
        "each at once: nothing waits for a drain"
    );
    assert_eq!(b.stats().msgs_received, 1);
    assert_eq!(b.stats().duplicates_dropped, 7);
    for d in acks {
        a.on_datagram(t1, d);
    }
    assert!(matches!(
        a.poll_event(),
        Some(TransportEvent::Delivered { .. })
    ));
}

#[test]
fn peer_restart_voids_the_fragments_of_its_previous_life() {
    let (mut a_old, mut b) = pair(ten_fragment_cfg(), 1);
    a_old
        .send(Time::ZERO, NodeId(1), Bytes::from(vec![1u8; 300]))
        .unwrap();
    let old = drain(&mut a_old);
    b.on_datagram(Time::ZERO, old[0].clone());
    // The peer's new life speaks before the rest of the old message.
    let mut a_new = endpoint(0, Incarnation(1), ten_fragment_cfg(), 1);
    a_new
        .send(Time::ZERO, NodeId(1), Bytes::from(vec![2u8; 300]))
        .unwrap();
    for d in drain(&mut a_new).into_iter().chain(old) {
        b.on_datagram(Time::ZERO, d);
    }
    let acks = drain(&mut b);
    assert_eq!(acked_sets(&acks), vec![vec![0, 1, 2]]);
    assert!(matches!(
        Frame::decode_from_bytes(&acks[0].payload),
        Ok(Frame::Ack {
            inc: Incarnation(1),
            ..
        })
    ));
    assert_eq!((b.stats().msgs_received, b.stats().stale_dropped), (1, 3));
}

#[test]
fn parallel_strategy_acks_on_the_link_the_data_arrived_on() {
    let cfg = TransportConfig {
        strategy: SendStrategy::Parallel,
        ..ten_fragment_cfg()
    };
    let (mut a, mut b) = pair(cfg, 2);
    a.send(Time::ZERO, NodeId(1), Bytes::from(vec![5u8; 400]))
        .unwrap();
    let sent = drain(&mut a);
    assert_eq!(sent.len(), 8, "four fragments on each of two links");
    for d in sent {
        b.on_datagram(Time::ZERO, d);
    }
    // The first link's copy completes the message; every fragment of
    // the second copy is a duplicate of a delivered message.
    let acks = drain(&mut b);
    assert_eq!(acked_sets(&acks), vec![vec![0, 1, 2, 3]; 5]);
    let links: Vec<(Addr, Addr)> = acks.iter().map(|d| (d.src, d.dst)).collect();
    let link = |k| (Addr::new(NodeId(1), k), Addr::new(NodeId(0), k));
    assert_eq!(
        links,
        vec![link(0), link(1), link(1), link(1), link(1)],
        "each ack returns on the link its data arrived on"
    );
    assert_eq!(b.stats().msgs_received, 1);
}

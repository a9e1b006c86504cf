//! The receiving half: incarnation admission, reassembly, exactly-once
//! hand-up, and the acknowledgements owed — which fragments they name,
//! how many there are and which link they return on.

use crate::frame::Frame;
use crate::testkit::{acked_sets, drain, endpoint, pair, ten_fragment_cfg};
use crate::{Endpoint, TransportEvent};
use bytes::Bytes;
use raincore_net::{Addr, SimNet, SimNetConfig};
use raincore_types::config::SendStrategy;
use raincore_types::wire::WireDecode;
use raincore_types::{Duration, Incarnation, NodeId, StateDigest, Time, TransportConfig};

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
fn lost_fragment_is_named_missing_and_alone_resent() {
    let (mut a, mut b) = pair(ten_fragment_cfg(), 1);
    let payload: Vec<u8> = (0..1000).map(|i| (i % 251) as u8).collect();
    let id = a
        .send(Time::ZERO, NodeId(1), Bytes::from(payload.clone()))
        .unwrap();
    // Fragment 4 is lost; the other nine arrive as one burst.
    let mut sent = drain(&mut a);
    sent.remove(4);
    for d in sent {
        b.on_datagram(Time::ZERO, d);
    }
    let acks = drain(&mut b);
    assert_eq!(
        acked_sets(&acks),
        vec![vec![0, 1, 2, 3, 5, 6, 7, 8, 9]],
        "one ack naming the nine fragments held"
    );
    for d in acks {
        a.on_datagram(Time::ZERO, d);
    }
    assert!(a.poll_event().is_none(), "not delivered yet");
    // The retry resends exactly the missing fragment.
    let t1 = Time::ZERO + Duration::from_millis(10);
    a.on_tick(t1);
    let resent = drain(&mut a);
    assert_eq!(resent.len(), 1);
    assert!(matches!(
        Frame::decode_from_bytes(&resent[0].payload),
        Ok(Frame::Data { frag_index: 4, .. })
    ));
    for d in resent {
        b.on_datagram(t1, d);
    }
    assert_eq!(
        b.poll_event(),
        Some(TransportEvent::Received {
            from: NodeId(0),
            payload: Bytes::from(payload)
        })
    );
    let acks = drain(&mut b);
    assert_eq!(acked_sets(&acks), vec![(0..10).collect::<Vec<u32>>()]);
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
    assert_eq!(a.stats().data_frames_sent, 11);
    assert_eq!(b.stats().acks_sent, 2);
}

#[test]
fn lost_ack_is_repeated_with_the_full_set_on_duplicate_data() {
    let (mut a, mut b) = pair(ten_fragment_cfg(), 1);
    a.send(Time::ZERO, NodeId(1), Bytes::from(vec![9u8; 1000]))
        .unwrap();
    for d in drain(&mut a) {
        b.on_datagram(Time::ZERO, d);
    }
    assert_eq!(drain(&mut b).len(), 1, "the ack that gets lost");
    // The sender heard nothing and resends all ten; the receiver has
    // delivered the message and re-acks every fragment, once.
    let t1 = Time::ZERO + Duration::from_millis(10);
    a.on_tick(t1);
    let resent = drain(&mut a);
    assert_eq!(resent.len(), 10);
    b.on_datagram(t1, resent[3].clone());
    assert_eq!(
        acked_sets(&drain(&mut b)),
        vec![(0..10).collect::<Vec<u32>>()],
        "one duplicate fragment is answered with the whole message"
    );
    for d in resent {
        b.on_datagram(t1, d);
    }
    let acks = drain(&mut b);
    assert_eq!(acks.len(), 1);
    assert_eq!(b.stats().msgs_received, 1);
    assert_eq!(b.stats().duplicates_dropped, 11);
    for d in acks {
        a.on_datagram(t1, d);
    }
    assert!(matches!(
        a.poll_event(),
        Some(TransportEvent::Delivered { .. })
    ));
}

#[test]
fn peer_restart_cancels_acks_owed_to_its_previous_life() {
    let (mut a_old, mut b) = pair(ten_fragment_cfg(), 1);
    a_old
        .send(Time::ZERO, NodeId(1), Bytes::from(vec![1u8; 300]))
        .unwrap();
    let old = drain(&mut a_old);
    b.on_datagram(Time::ZERO, old[0].clone());
    // Before the next drain the peer's new life speaks.
    let mut a_new = endpoint(0, Incarnation(1), ten_fragment_cfg(), 1);
    a_new
        .send(Time::ZERO, NodeId(1), Bytes::from(vec![2u8; 300]))
        .unwrap();
    for d in drain(&mut a_new) {
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
}

#[test]
fn parallel_strategy_acks_each_link_once() {
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
    let acks = drain(&mut b);
    assert_eq!(acked_sets(&acks), vec![vec![0, 1, 2, 3]; 2]);
    let links: Vec<(Addr, Addr)> = acks.iter().map(|d| (d.src, d.dst)).collect();
    assert_eq!(
        links,
        vec![
            (Addr::new(NodeId(1), 0), Addr::new(NodeId(0), 0)),
            (Addr::new(NodeId(1), 1), Addr::new(NodeId(0), 1)),
        ],
        "each ack returns on the link its data arrived on"
    );
    assert_eq!(b.stats().msgs_received, 1);
}

#[test]
fn owed_acks_are_part_of_the_state_digest() {
    let digest = |ep: &Endpoint| {
        let mut d = StateDigest::identity();
        ep.digest_into(Time::ZERO, &mut d);
        d.finish()
    };
    let (mut a, mut b) = pair(ten_fragment_cfg(), 1);
    a.send(Time::ZERO, NodeId(1), Bytes::from(vec![1u8; 300]))
        .unwrap();
    b.on_datagram(Time::ZERO, a.poll_outgoing().unwrap());
    // The same reassembly state, with the ack owed and with it gone.
    let owing = digest(&b);
    assert_eq!(drain(&mut b).len(), 1);
    assert_ne!(owing, digest(&b));
}

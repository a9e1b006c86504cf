//! End to end over a simulated wire: a message goes in at one endpoint
//! and comes out whole at the other; what cannot be decoded goes nowhere.

use crate::frame::{Frame, MAX_FRAGS};
use crate::testkit::{drain_events, pair, pump};
use crate::TransportEvent;
use bytes::Bytes;
use raincore_net::{Addr, Datagram, SimNet, SimNetConfig};
use raincore_types::wire::{WireDecode, WireEncode};
use raincore_types::{Duration, Incarnation, MsgId, NodeId, Time, TransportConfig};

#[test]
fn small_message_delivers_and_acks() {
    let (mut a, mut b) = pair(TransportConfig::default(), 1);
    let mut net = SimNet::new(SimNetConfig::default());
    let id = a
        .send(Time::ZERO, NodeId(1), Bytes::from_static(b"hello"))
        .unwrap();
    pump(&mut net, &mut a, &mut b, Duration::from_secs(1));
    assert_eq!(
        drain_events(&mut a),
        vec![TransportEvent::Delivered {
            msg_id: id,
            to: NodeId(1)
        }]
    );
    assert_eq!(
        drain_events(&mut b),
        vec![TransportEvent::Received {
            from: NodeId(0),
            payload: Bytes::from_static(b"hello")
        }]
    );
    assert_eq!(a.in_flight(), 0);
    assert_eq!(b.stats().acks_sent, 1);
}

#[test]
fn empty_payload_is_a_valid_message() {
    let (mut a, mut b) = pair(TransportConfig::default(), 1);
    let mut net = SimNet::new(SimNetConfig::default());
    a.send(Time::ZERO, NodeId(1), Bytes::new()).unwrap();
    pump(&mut net, &mut a, &mut b, Duration::from_secs(1));
    let ev = drain_events(&mut b);
    assert_eq!(
        ev,
        vec![TransportEvent::Received {
            from: NodeId(0),
            payload: Bytes::new()
        }]
    );
}

#[test]
fn unreliable_send_delivers_without_completion_events() {
    let cfg = TransportConfig {
        mtu: 100,
        ..Default::default()
    };
    let (mut a, mut b) = pair(cfg, 1);
    let mut net = SimNet::new(SimNetConfig::default());
    let payload: Vec<u8> = (0..350).map(|i| (i % 251) as u8).collect();
    a.send_unreliable(Time::ZERO, NodeId(1), Bytes::from(payload.clone()))
        .unwrap();
    pump(&mut net, &mut a, &mut b, Duration::from_secs(1));
    // The receiver reassembles and delivers normally...
    let ev = drain_events(&mut b);
    assert_eq!(ev.len(), 1);
    match &ev[0] {
        TransportEvent::Received { payload: got, .. } => assert_eq!(&got[..], &payload[..]),
        other => panic!("unexpected {other:?}"),
    }
    // ...without acknowledging a single frame, and the sender keeps no
    // in-flight state and reports no completion either way.
    assert_eq!(b.stats().acks_sent, 0);
    assert_eq!(b.stats().acks_suppressed, 4);
    assert_eq!(drain_events(&mut a), vec![]);
    assert_eq!(a.in_flight(), 0);
    assert_eq!(a.stats().data_frames_sent, 4);
    assert_eq!(
        (a.stats().unreliable_sent, a.stats().msgs_sent),
        (1, 0),
        "fire-and-forget sends are not in-flight messages"
    );
}

#[test]
fn large_message_fragments_and_reassembles() {
    let cfg = TransportConfig {
        mtu: 100,
        ..Default::default()
    };
    let (mut a, mut b) = pair(cfg, 1);
    let mut net = SimNet::new(SimNetConfig::default());
    let payload: Vec<u8> = (0..1000).map(|i| (i % 251) as u8).collect();
    a.send(Time::ZERO, NodeId(1), Bytes::from(payload.clone()))
        .unwrap();
    pump(&mut net, &mut a, &mut b, Duration::from_secs(1));
    let ev = drain_events(&mut b);
    assert_eq!(ev.len(), 1);
    match &ev[0] {
        TransportEvent::Received { payload: got, .. } => assert_eq!(&got[..], &payload[..]),
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(a.stats().data_frames_sent, 10);
    // The ten fragments arrive as one burst and share one ack.
    assert_eq!(b.stats().acks_sent, 1);
    assert_eq!(b.stats().ack_frags_coalesced, 9);
    assert!(matches!(
        drain_events(&mut a)[..],
        [TransportEvent::Delivered { .. }]
    ));
}

#[test]
fn many_messages_preserve_per_message_atomicity() {
    let cfg = TransportConfig {
        mtu: 64,
        retry_timeout: Duration::from_millis(10),
        max_retries: 30,
        ..Default::default()
    };
    let (mut a, mut b) = pair(cfg, 1);
    let mut net = SimNet::new(SimNetConfig {
        loss: 0.25,
        seed: 99,
        ..Default::default()
    });
    let mut sent = vec![];
    for i in 0..20u8 {
        let payload: Vec<u8> = std::iter::repeat_n(i, 150).collect();
        sent.push(payload.clone());
        a.send(Time::ZERO, NodeId(1), Bytes::from(payload)).unwrap();
    }
    pump(&mut net, &mut a, &mut b, Duration::from_secs(30));
    let mut got: Vec<Vec<u8>> = drain_events(&mut b)
        .into_iter()
        .filter_map(|e| match e {
            TransportEvent::Received { payload, .. } => Some(payload.to_vec()),
            _ => None,
        })
        .collect();
    got.sort();
    let mut want = sent.clone();
    want.sort();
    assert_eq!(got, want, "all 20 messages delivered whole, exactly once");
}

#[test]
fn malformed_frames_dropped() {
    let (_, mut b) = pair(TransportConfig::default(), 1);
    // Garbage payload.
    b.on_datagram(
        Time::ZERO,
        Datagram::control(
            Addr::primary(NodeId(0)),
            Addr::primary(NodeId(1)),
            Bytes::from_static(&[0xff, 1, 2]),
        ),
    );
    // frag_index >= frag_count.
    let bad = Frame::Data {
        from: NodeId(0),
        inc: Incarnation::FIRST,
        msg_id: MsgId(0),
        frag_index: 5,
        frag_count: 2,
        reliable: true,
        payload: Bytes::new(),
    };
    b.on_datagram(
        Time::ZERO,
        Datagram::control(
            Addr::primary(NodeId(0)),
            Addr::primary(NodeId(1)),
            bad.encode_to_bytes(),
        ),
    );
    assert_eq!(b.stats().msgs_received, 0);
    assert_eq!(b.stats().acks_sent, 0);
    assert!(b.poll_event().is_none());
}

#[test]
fn oversized_ack_set_is_rejected_before_allocation() {
    use raincore_types::wire::Writer;
    let (mut a, _b) = pair(TransportConfig::default(), 1);
    a.send(Time::ZERO, NodeId(1), Bytes::from_static(b"x"))
        .unwrap();
    // Hand-built tag-3 ack declaring one word more than MAX_FRAGS
    // allows, every word naming fragment 0 of its range.
    let mut w = Writer::new();
    w.put_u8(3);
    NodeId(1).encode(&mut w);
    Incarnation::FIRST.encode(&mut w);
    MsgId(0).encode(&mut w);
    w.put_varint(u64::from(MAX_FRAGS / 64) + 1);
    for _ in 0..=MAX_FRAGS / 64 {
        w.put_varint(1);
    }
    let payload = w.finish();
    assert!(Frame::decode_from_bytes(&payload).is_err());
    a.on_datagram(
        Time::ZERO,
        Datagram::control(Addr::primary(NodeId(1)), Addr::primary(NodeId(0)), payload),
    );
    assert_eq!(a.in_flight(), 1, "undecodable ack marks nothing");
}

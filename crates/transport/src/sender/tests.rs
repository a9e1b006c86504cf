//! The sending half: retries, the walk over a peer's addresses, the
//! failure-on-delivery verdict, aborts, and which acknowledgements are
//! believed.

use crate::frame::{FragSet, MAX_FRAGS};
use crate::testkit::{
    ack_dgram, drain, drain_events, exchange, pair, pump, ten_fragment_cfg, MS, US,
};
use crate::TransportEvent;
use bytes::Bytes;
use raincore_net::{Addr, SimNet, SimNetConfig};
use raincore_types::config::SendStrategy;
use raincore_types::{Duration, Error, Incarnation, MsgId, NodeId, Time, TransportConfig};

#[test]
fn unreliable_send_loss_never_reports_delivery_failure() {
    let cfg = TransportConfig {
        retry_timeout: Duration::from_millis(10),
        max_retries: 3,
        ..Default::default()
    };
    let (mut a, mut b) = pair(cfg, 1);
    let mut net = SimNet::new(SimNetConfig::default());
    net.set_node(NodeId(1), false); // peer unreachable: every frame lost
    a.send_unreliable(Time::ZERO, NodeId(1), Bytes::from_static(b"gone"))
        .unwrap();
    pump(&mut net, &mut a, &mut b, Duration::from_secs(10));
    // Bulk loss is recovered end-to-end by the session's NACK pull; the
    // transport must not retry it or feed the failure detector.
    assert_eq!(drain_events(&mut a), vec![]);
    assert_eq!(drain_events(&mut b), vec![]);
    assert_eq!(a.stats().retransmissions, 0);
    assert_eq!(a.stats().msgs_failed, 0);
}

#[test]
fn loss_triggers_retransmission_but_single_delivery() {
    let cfg = TransportConfig {
        retry_timeout: Duration::from_millis(10),
        max_retries: 20,
        ..Default::default()
    };
    let (mut a, mut b) = pair(cfg, 1);
    let mut net = SimNet::new(SimNetConfig {
        loss: 0.4,
        seed: 11,
        ..Default::default()
    });
    a.send(Time::ZERO, NodeId(1), Bytes::from_static(b"lossy"))
        .unwrap();
    pump(&mut net, &mut a, &mut b, Duration::from_secs(10));
    let got = drain_events(&mut b);
    assert_eq!(
        got.iter()
            .filter(|e| matches!(e, TransportEvent::Received { .. }))
            .count(),
        1,
        "exactly-once delivery despite loss"
    );
    assert_eq!(
        drain_events(&mut a),
        vec![TransportEvent::Delivered {
            msg_id: MsgId(0),
            to: NodeId(1)
        }]
    );
}

#[test]
fn failure_on_delivery_after_retries_exhausted() {
    let cfg = TransportConfig {
        retry_timeout: Duration::from_millis(10),
        max_retries: 3,
        ..Default::default()
    };
    let (mut a, mut b) = pair(cfg, 1);
    let mut net = SimNet::new(SimNetConfig::default());
    net.set_node(NodeId(1), false); // peer is dead
    let id = a
        .send(Time::ZERO, NodeId(1), Bytes::from_static(b"x"))
        .unwrap();
    let end = pump(&mut net, &mut a, &mut b, Duration::from_secs(5));
    assert_eq!(
        drain_events(&mut a),
        vec![TransportEvent::DeliveryFailed {
            msg_id: id,
            to: NodeId(1)
        }]
    );
    // 3 transmissions, 10 ms apart → failure detected at ~30 ms: fast
    // local-view detection, as the aggressive protocol requires.
    assert!(
        end <= Time::ZERO + Duration::from_millis(50),
        "took {end:?}"
    );
    assert_eq!(a.stats().data_frames_sent, 3);
    assert_eq!(a.stats().msgs_failed, 1);
}

#[test]
fn sequential_strategy_fails_over_to_second_address() {
    let cfg = TransportConfig {
        retry_timeout: Duration::from_millis(10),
        max_retries: 2,
        strategy: SendStrategy::Sequential,
        ..Default::default()
    };
    let (mut a, mut b) = pair(cfg, 2);
    let mut net = SimNet::new(SimNetConfig::default());
    // Unplug the peer's first NIC: primary path dead, secondary alive.
    net.set_nic(Addr::new(NodeId(1), 0), false);
    let id = a
        .send(Time::ZERO, NodeId(1), Bytes::from_static(b"via-backup"))
        .unwrap();
    pump(&mut net, &mut a, &mut b, Duration::from_secs(5));
    assert_eq!(
        drain_events(&mut a),
        vec![TransportEvent::Delivered {
            msg_id: id,
            to: NodeId(1)
        }]
    );
    let got = drain_events(&mut b);
    assert!(matches!(&got[..], [TransportEvent::Received { .. }]));
}

#[test]
fn parallel_strategy_survives_first_link_without_waiting() {
    let cfg = TransportConfig {
        retry_timeout: Duration::from_millis(100),
        max_retries: 2,
        strategy: SendStrategy::Parallel,
        ..Default::default()
    };
    let (mut a, mut b) = pair(cfg, 2);
    let mut net = SimNet::new(SimNetConfig::default());
    net.set_nic(Addr::new(NodeId(1), 0), false);
    a.send(Time::ZERO, NodeId(1), Bytes::from_static(b"x"))
        .unwrap();
    let end = pump(&mut net, &mut a, &mut b, Duration::from_secs(5));
    // Delivered via NIC 1 on the first shot: well before one retry period.
    assert!(
        end < Time::ZERO + Duration::from_millis(100),
        "took {end:?}"
    );
    assert!(matches!(
        drain_events(&mut a)[..],
        [TransportEvent::Delivered { .. }]
    ));
}

#[test]
fn both_addresses_dead_reports_failure() {
    let cfg = TransportConfig {
        retry_timeout: Duration::from_millis(5),
        max_retries: 2,
        strategy: SendStrategy::Sequential,
        ..Default::default()
    };
    let (mut a, mut b) = pair(cfg, 2);
    let mut net = SimNet::new(SimNetConfig::default());
    net.set_node(NodeId(1), false);
    let id = a
        .send(Time::ZERO, NodeId(1), Bytes::from_static(b"x"))
        .unwrap();
    pump(&mut net, &mut a, &mut b, Duration::from_secs(5));
    assert_eq!(
        drain_events(&mut a),
        vec![TransportEvent::DeliveryFailed {
            msg_id: id,
            to: NodeId(1)
        }]
    );
    // 2 attempts on addr 0 + 2 attempts on addr 1.
    assert_eq!(a.stats().data_frames_sent, 4);
}

#[test]
fn unknown_peer_rejected_synchronously() {
    let (mut a, _b) = pair(TransportConfig::default(), 1);
    assert_eq!(
        a.send(Time::ZERO, NodeId(9), Bytes::new()).unwrap_err(),
        Error::UnknownNode(NodeId(9))
    );
}

#[test]
fn abort_cancels_without_event() {
    let (mut a, _b) = pair(TransportConfig::default(), 1);
    let id = a
        .send(Time::ZERO, NodeId(1), Bytes::from_static(b"x"))
        .unwrap();
    assert!(a.abort(id));
    assert!(!a.abort(id));
    a.on_tick(Time::ZERO + Duration::from_secs(10));
    assert!(a.poll_event().is_none());
    assert_eq!(a.in_flight(), 0);
}

#[test]
fn next_wakeup_tracks_earliest_retry() {
    let cfg = TransportConfig {
        retry_timeout: Duration::from_millis(30),
        ..Default::default()
    };
    let (mut a, _b) = pair(cfg, 1);
    assert_eq!(a.next_wakeup(), None);
    a.send(Time::ZERO, NodeId(1), Bytes::from_static(b"x"))
        .unwrap();
    assert_eq!(
        a.next_wakeup(),
        Some(Time::ZERO + Duration::from_millis(30))
    );
}

#[test]
fn abort_mid_retry_stops_retransmissions() {
    let cfg = TransportConfig {
        retry_timeout: Duration::from_millis(10),
        max_retries: 10,
        ..Default::default()
    };
    let (mut a, _b) = pair(cfg, 1);
    let id = a
        .send(Time::ZERO, NodeId(1), Bytes::from_static(b"x"))
        .unwrap();
    while a.poll_outgoing().is_some() {}
    a.on_tick(Time::ZERO + Duration::from_millis(10));
    assert!(a.poll_outgoing().is_some(), "one retransmission happened");
    while a.poll_outgoing().is_some() {}
    assert!(a.abort(id));
    a.on_tick(Time::ZERO + Duration::from_millis(100));
    assert!(
        a.poll_outgoing().is_none(),
        "no retransmissions after abort"
    );
    assert_eq!(a.next_wakeup(), None);
}

#[test]
fn peer_removed_mid_send_fails_on_next_retry() {
    let cfg = TransportConfig {
        retry_timeout: Duration::from_millis(10),
        max_retries: 5,
        ..Default::default()
    };
    let (mut a, _b) = pair(cfg, 1);
    let id = a
        .send(Time::ZERO, NodeId(1), Bytes::from_static(b"x"))
        .unwrap();
    a.peers_mut().remove(NodeId(1));
    a.on_tick(Time::ZERO + Duration::from_millis(10));
    let mut failed = false;
    while let Some(ev) = a.poll_event() {
        if let TransportEvent::DeliveryFailed { msg_id, to } = ev {
            assert_eq!(msg_id, id);
            assert_eq!(to, NodeId(1));
            failed = true;
        }
    }
    assert!(failed, "vanished peer reported as failure-on-delivery");
}

#[test]
fn ack_for_unknown_fragment_index_ignored() {
    let (mut a, _b) = pair(TransportConfig::default(), 1);
    a.send(Time::ZERO, NodeId(1), Bytes::from_static(b"x"))
        .unwrap();
    // Forged acks naming fragments the message does not have: one out
    // of range for the message, one a full-width set minus fragment 0.
    let mut all_but_first = FragSet::new();
    for i in 1..MAX_FRAGS {
        all_but_first.insert(i);
    }
    assert_eq!(all_but_first.len(), MAX_FRAGS - 1);
    for frags in [FragSet::single(99), all_but_first] {
        a.on_datagram(Time::ZERO, ack_dgram(1, Incarnation::FIRST, 0, frags));
    }
    assert_eq!(a.in_flight(), 1, "message still pending");
    assert!(a.poll_event().is_none());
}

#[test]
fn acks_nobody_waits_for_are_counted_no_ops() {
    let (mut a, _b) = pair(TransportConfig::default(), 1);
    // A fire-and-forget message, a completed one and one never sent:
    // an ack for any of them marks nothing and creates no state.
    a.send_unreliable(Time::ZERO, NodeId(1), Bytes::from_static(b"bulk"))
        .unwrap();
    a.send(Time::ZERO, NodeId(1), Bytes::from_static(b"x"))
        .unwrap();
    a.on_datagram(
        Time::ZERO,
        ack_dgram(1, Incarnation::FIRST, 1, FragSet::single(0)),
    );
    assert_eq!(a.stats().msgs_delivered, 1);
    for msg_id in [0, 1, 77] {
        a.on_datagram(
            Time::ZERO,
            ack_dgram(1, Incarnation::FIRST, msg_id, FragSet::first_n(6)),
        );
    }
    assert_eq!(a.stats().acks_unmatched, 3);
    assert_eq!(a.in_flight(), 0);
    assert_eq!(a.stats().msgs_delivered, 1);
    // An ack for a previous life of this node is dropped before that.
    a.on_datagram(
        Time::ZERO,
        ack_dgram(1, Incarnation(7), 0, FragSet::single(0)),
    );
    assert_eq!(a.stats().stale_dropped, 1);
    assert_eq!(a.stats().acks_unmatched, 3);
}

#[test]
fn stale_incarnation_set_ack_is_ignored() {
    let (mut a, _b) = pair(ten_fragment_cfg(), 1);
    a.send(Time::ZERO, NodeId(1), Bytes::from(vec![1u8; 1000]))
        .unwrap();
    a.on_datagram(
        Time::ZERO,
        ack_dgram(1, Incarnation(3), 0, FragSet::first_n(10)),
    );
    assert_eq!(a.in_flight(), 1);
    assert_eq!(a.stats().stale_dropped, 1);
    a.on_datagram(
        Time::ZERO,
        ack_dgram(1, Incarnation::FIRST, 0, FragSet::first_n(10)),
    );
    assert_eq!(a.in_flight(), 0);
}

#[test]
fn zero_byte_fragmented_boundary() {
    // Payload exactly at the MTU boundary: one fragment, not two.
    let cfg = TransportConfig {
        mtu: 100,
        ..Default::default()
    };
    let (mut a, _b) = pair(cfg, 1);
    a.send(Time::ZERO, NodeId(1), Bytes::from(vec![7u8; 100]))
        .unwrap();
    let mut frames = 0;
    while a.poll_outgoing().is_some() {
        frames += 1;
    }
    assert_eq!(frames, 1);
}

#[test]
fn acknowledgement_after_the_verdict_refutes_it() {
    let (mut a, mut b) = pair(TransportConfig::default(), 1);
    let t0 = exchange(&mut a, &mut b, Time::ZERO, US(120));
    // The peer gets the message at once and is slow to answer: its
    // acknowledgement is still on the way when the sender gives up.
    let id = a.send(t0, NodeId(1), Bytes::from_static(b"slow")).unwrap();
    for d in drain(&mut a) {
        b.on_datagram(t0, d);
    }
    let late = drain(&mut b);
    while let Some(t) = a.next_wakeup() {
        a.on_tick(t);
        drain(&mut a);
    }
    let events: Vec<_> = std::iter::from_fn(|| a.poll_event()).collect();
    assert!(events.contains(&TransportEvent::DeliveryFailed {
        msg_id: id,
        to: NodeId(1)
    }));
    for d in late.clone() {
        a.on_datagram(t0 + MS(60), d);
    }
    assert_eq!(
        a.poll_event(),
        Some(TransportEvent::FailureRefuted {
            msg_id: id,
            to: NodeId(1)
        })
    );
    // Once: a duplicate of the late acknowledgement is just unmatched.
    for d in late {
        a.on_datagram(t0 + MS(61), d);
    }
    assert_eq!(a.poll_event(), None);
    assert_eq!(a.stats().acks_unmatched, 2);
}

#[test]
fn only_the_addressee_is_believed() {
    let cfg = TransportConfig {
        retry_timeout: MS(10),
        max_retries: 1,
        ..Default::default()
    };
    let (mut a, _b) = pair(cfg, 1);
    a.peers_mut().set(NodeId(2), vec![Addr::primary(NodeId(2))]);
    let ack = |from, id: MsgId| ack_dgram(from, Incarnation::FIRST, id.0, FragSet::single(0));
    // Sent to node 1 and acknowledged by node 2, then by ourselves: the
    // send is not complete, node 1 is not timed, nothing is reported.
    let id = a
        .send(Time::ZERO, NodeId(1), Bytes::from_static(b"x"))
        .unwrap();
    for from in [2, 0] {
        a.on_datagram(Time::ZERO, ack(from, id));
    }
    assert_eq!((a.in_flight(), a.stats().acks_unmatched), (1, 2));
    assert_eq!((a.poll_event(), a.obs().rtt.count()), (None, 0));
    a.on_datagram(Time::ZERO, ack(1, id));
    let to = NodeId(1);
    assert_eq!(
        a.poll_event(),
        Some(TransportEvent::Delivered { msg_id: id, to })
    );
    // Nor does node 2 refute a verdict on node 1.
    let msg_id = a.send(Time::ZERO, to, Bytes::from_static(b"y")).unwrap();
    a.on_tick(Time::ZERO + MS(10));
    assert_eq!(
        a.poll_event(),
        Some(TransportEvent::DeliveryFailed { msg_id, to })
    );
    a.on_datagram(Time::ZERO + MS(11), ack(2, msg_id));
    assert_eq!(a.poll_event(), None);
    a.on_datagram(Time::ZERO + MS(12), ack(1, msg_id));
    assert_eq!(
        a.poll_event(),
        Some(TransportEvent::FailureRefuted { msg_id, to })
    );
    assert_eq!(a.stats().acks_unmatched, 4);
}

#[test]
fn a_partial_set_completes_nothing_and_the_retry_resends_every_fragment() {
    let (mut a, _b) = pair(ten_fragment_cfg(), 1);
    let id = a
        .send(Time::ZERO, NodeId(1), Bytes::from(vec![4u8; 300]))
        .unwrap();
    assert_eq!(drain(&mut a).len(), 3);
    // A peer that names two of the three fragments holds a part of the
    // message, which says nothing: the send stays pending, unmarked.
    let mut two = FragSet::single(0);
    two.insert(1);
    a.on_datagram(Time::ZERO, ack_dgram(1, Incarnation::FIRST, id.0, two));
    assert_eq!((a.in_flight(), a.stats().acks_unmatched), (1, 1));
    assert_eq!(a.poll_event(), None);
    a.on_tick(Time::ZERO + MS(10));
    assert_eq!(
        drain(&mut a).len(),
        3,
        "the retry resends the whole message"
    );
    // The whole set completes it.
    a.on_datagram(
        Time::ZERO + MS(11),
        ack_dgram(1, Incarnation::FIRST, id.0, FragSet::first_n(3)),
    );
    assert_eq!(
        a.poll_event(),
        Some(TransportEvent::Delivered {
            msg_id: id,
            to: NodeId(1)
        })
    );
    assert_eq!(a.obs().rtt.count(), 1);
}

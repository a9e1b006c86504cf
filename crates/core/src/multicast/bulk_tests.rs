//! Two-phase (out-of-band) delivery: id manifests ride the token,
//! payloads travel around it (DESIGN.md §13).

use crate::node::testkit::{self, first_msg, outgoing_msgs};
use crate::{SessionEvent, SessionNode, StartMode};
use bytes::Bytes;
use raincore_types::*;

fn mk_bulk(id: u32, mutate: impl FnOnce(&mut SessionConfig)) -> SessionNode {
    testkit::mk_with(id, 3, StartMode::Founding(Ring::from([0, 1, 2])), mutate)
}

fn oob(origin: u32, seq: u64, mode: DeliveryMode, len: u64, seen: &[u32]) -> Attached {
    let mut a = Attached::new_oob(NodeId(origin), OriginSeq(seq), mode, len);
    a.seen = seen.iter().map(|&i| NodeId(i)).collect();
    a
}

fn inline(origin: u32, seq: u64, mode: DeliveryMode, seen: &[u32]) -> Attached {
    let mut a = Attached::new(
        NodeId(origin),
        OriginSeq(seq),
        mode,
        Bytes::from_static(b"inl"),
    );
    a.seen = seen.iter().map(|&i| NodeId(i)).collect();
    a
}

fn deliveries(n: &mut SessionNode) -> Vec<(NodeId, OriginSeq, Bytes)> {
    let mut out = vec![];
    while let Some(ev) = n.poll_event() {
        if let SessionEvent::Delivery(d) = ev {
            out.push((d.origin, d.seq, d.payload));
        }
    }
    out
}

#[test]
fn manifest_without_payload_blocks_until_frame_arrives() {
    let mut n = mk_bulk(1, |_| {});
    let mut t = Token::founding(Ring::from([0, 1, 2]));
    t.seq = 10;
    t.msgs = vec![
        oob(0, 0, DeliveryMode::Agreed, 4, &[0]),
        inline(2, 0, DeliveryMode::Agreed, &[2, 0]),
    ]
    .into();
    n.on_session_msg(Time::ZERO, SessionMsg::Token(t));
    assert_eq!(
        deliveries(&mut n),
        vec![],
        "ordered id without payload must block the queue"
    );
    // The bulk frame arrives out of band: both deliver, token order.
    n.on_session_msg(
        Time::ZERO,
        SessionMsg::Bulk(BulkData {
            origin: NodeId(0),
            seq: OriginSeq(0),
            payload: Bytes::from_static(b"wxyz"),
        }),
    );
    let got = deliveries(&mut n);
    assert_eq!(got.len(), 2);
    assert_eq!(
        got[0],
        (NodeId(0), OriginSeq(0), Bytes::from_static(b"wxyz"))
    );
    assert_eq!(got[1].0, NodeId(2));
}

#[test]
fn payload_arriving_before_manifest_delivers_at_ordering_time() {
    let mut n = mk_bulk(1, |_| {});
    // Bulk frames race the token by design.
    n.on_session_msg(
        Time::ZERO,
        SessionMsg::Bulk(BulkData {
            origin: NodeId(0),
            seq: OriginSeq(0),
            payload: Bytes::from_static(b"early"),
        }),
    );
    assert_eq!(deliveries(&mut n), vec![], "no delivery before ordering");
    let mut t = Token::founding(Ring::from([0, 1, 2]));
    t.seq = 10;
    t.msgs = vec![oob(0, 0, DeliveryMode::Agreed, 5, &[0])].into();
    n.on_session_msg(Time::ZERO, SessionMsg::Token(t));
    assert_eq!(
        deliveries(&mut n),
        vec![(NodeId(0), OriginSeq(0), Bytes::from_static(b"early"))]
    );
}

#[test]
fn oob_entry_marked_seen_only_with_payload_in_hand() {
    let mut n = mk_bulk(1, |_| {});
    let mut t = Token::founding(Ring::from([0, 1, 2]));
    t.seq = 10;
    t.msgs = vec![oob(0, 0, DeliveryMode::Agreed, 4, &[0])].into();
    n.on_session_msg(Time::ZERO, SessionMsg::Token(t));
    n.on_tick(Time::ZERO + n.config().token_hold);
    let (_, SessionMsg::Token(sent)) = first_msg(&mut n) else {
        panic!()
    };
    let entry = sent.msgs.iter().next().unwrap();
    assert!(
        !entry.seen.contains(&NodeId(1)),
        "must not acknowledge a payload we do not hold: {:?}",
        entry.seen
    );
    // With the payload in hand the next pass acknowledges.
    n.on_session_msg(
        Time::ZERO,
        SessionMsg::Bulk(BulkData {
            origin: NodeId(0),
            seq: OriginSeq(0),
            payload: Bytes::from_static(b"wxyz"),
        }),
    );
    let mut t = Token::founding(Ring::from([0, 1, 2]));
    t.seq = 20;
    t.msgs = vec![oob(0, 0, DeliveryMode::Agreed, 4, &[0])].into();
    n.on_session_msg(Time::ZERO + Duration::from_millis(40), SessionMsg::Token(t));
    n.on_tick(Time::ZERO + Duration::from_millis(40) + n.config().token_hold);
    let (_, SessionMsg::Token(sent)) = first_msg(&mut n) else {
        panic!()
    };
    let entry = sent.msgs.iter().next().unwrap();
    assert!(entry.seen.contains(&NodeId(1)));
}

#[test]
fn origin_splits_large_payloads_and_piggybacks_small_ones() {
    // Node 0 founds the 3-ring and holds the token.
    let mut n = mk_bulk(0, |c| c.bulk_threshold = 8);
    n.multicast(DeliveryMode::Agreed, Bytes::from(vec![7u8; 64]))
        .unwrap();
    n.multicast(DeliveryMode::Agreed, Bytes::from_static(b"tiny"))
        .unwrap();
    n.on_tick(Time::ZERO + n.config().token_hold);
    let msgs = outgoing_msgs(&mut n);
    let bulk_dsts: Vec<NodeId> = msgs
        .iter()
        .filter_map(|(dst, m)| match m {
            SessionMsg::Bulk(b) => {
                assert_eq!(b.origin, NodeId(0));
                assert_eq!(b.payload.len(), 64);
                Some(*dst)
            }
            _ => None,
        })
        .collect();
    assert_eq!(bulk_dsts, vec![NodeId(1), NodeId(2)]);
    assert_eq!(n.metrics().bulk_frames_sent, 2);
    let token = msgs
        .iter()
        .find_map(|(_, m)| match m {
            SessionMsg::Token(t) => Some(t.clone()),
            _ => None,
        })
        .expect("token pass");
    let entries: Vec<&Attached> = token.msgs.iter().collect();
    assert_eq!(entries.len(), 2);
    assert!(entries[0].is_oob(), "64B >= threshold goes out-of-band");
    assert_eq!(entries[0].payload_len(), 64);
    assert!(!entries[1].is_oob(), "4B < threshold stays piggybacked");
    assert_eq!(
        token.payload_bytes(),
        4,
        "token carries only the inline payload bytes"
    );
}

#[test]
fn missing_payload_fires_rotating_nack_pulls() {
    let mut n = mk_bulk(1, |_| {});
    // Node 2 also holds the payload (it is in the seen set).
    let entry = oob(0, 0, DeliveryMode::Agreed, 4, &[0, 2]);
    let mut t = Token::founding(Ring::from([0, 1, 2]));
    t.seq = 10;
    t.msgs = vec![entry].into();
    n.on_session_msg(Time::ZERO, SessionMsg::Token(t));
    let pull = super::BULK_PULL_TIMEOUT;
    assert!(
        n.next_wakeup().is_some_and(|w| w <= Time::ZERO + pull),
        "wakeup must cover the pull deadline"
    );
    let nack_dsts = |msgs: Vec<(NodeId, SessionMsg)>| -> Vec<NodeId> {
        msgs.into_iter()
            .filter_map(|(dst, m)| match m {
                SessionMsg::BulkNack(nk) => {
                    assert_eq!(nk.from, NodeId(1));
                    assert_eq!((nk.origin, nk.seq), (NodeId(0), OriginSeq(0)));
                    Some(dst)
                }
                _ => None,
            })
            .collect()
    };
    n.on_tick(Time::ZERO + pull);
    assert_eq!(nack_dsts(outgoing_msgs(&mut n)), vec![NodeId(0)]);
    n.on_tick(Time::ZERO + pull + pull);
    assert_eq!(
        nack_dsts(outgoing_msgs(&mut n)),
        vec![NodeId(2)],
        "second pull rotates to another holder"
    );
    n.on_tick(Time::ZERO + pull + pull + pull);
    assert_eq!(nack_dsts(outgoing_msgs(&mut n)), vec![NodeId(0)]);
    assert_eq!(n.metrics().bulk_nacks_sent, 3);
}

#[test]
fn any_holder_serves_a_nack_from_its_store() {
    let mut n = mk_bulk(1, |_| {});
    n.on_session_msg(
        Time::ZERO,
        SessionMsg::Bulk(BulkData {
            origin: NodeId(0),
            seq: OriginSeq(3),
            payload: Bytes::from_static(b"data"),
        }),
    );
    n.on_session_msg(
        Time::ZERO,
        SessionMsg::BulkNack(BulkNack {
            from: NodeId(2),
            origin: NodeId(0),
            seq: OriginSeq(3),
        }),
    );
    let msgs = outgoing_msgs(&mut n);
    let served: Vec<_> = msgs
        .iter()
        .filter_map(|(dst, m)| match m {
            SessionMsg::Bulk(b) => Some((*dst, b.payload.clone())),
            _ => None,
        })
        .collect();
    assert_eq!(served, vec![(NodeId(2), Bytes::from_static(b"data"))]);
    assert_eq!(n.metrics().bulk_nacks_served, 1);
    // A NACK for something we do not hold is silently ignored.
    n.on_session_msg(
        Time::ZERO,
        SessionMsg::BulkNack(BulkNack {
            from: NodeId(2),
            origin: NodeId(0),
            seq: OriginSeq(99),
        }),
    );
    assert!(outgoing_msgs(&mut n).is_empty());
    assert_eq!(n.metrics().bulk_nacks_served, 1);
}

#[test]
fn duplicate_bulk_frames_deliver_exactly_once() {
    let mut n = mk_bulk(1, |_| {});
    let frame = BulkData {
        origin: NodeId(0),
        seq: OriginSeq(0),
        payload: Bytes::from_static(b"wxyz"),
    };
    n.on_session_msg(Time::ZERO, SessionMsg::Bulk(frame.clone()));
    n.on_session_msg(Time::ZERO, SessionMsg::Bulk(frame.clone())); // origin resend
    assert_eq!(n.metrics().bulk_duplicates, 1);
    let mut t = Token::founding(Ring::from([0, 1, 2]));
    t.seq = 10;
    t.msgs = vec![oob(0, 0, DeliveryMode::Agreed, 4, &[0])].into();
    n.on_session_msg(Time::ZERO, SessionMsg::Token(t));
    n.on_session_msg(Time::ZERO, SessionMsg::Bulk(frame)); // NACK answer racing in after delivery
    assert_eq!(deliveries(&mut n).len(), 1);
    assert_eq!(n.metrics().deliveries, 1);
}

#[test]
fn blind_delivery_dial_reopens_the_payload_gap() {
    // The seeded protocol bug the model checker must find: delivering
    // an ordered id whose payload never arrived.
    let mut n = mk_bulk(1, |c| c.bulk_blind_delivery = true);
    let mut t = Token::founding(Ring::from([0, 1, 2]));
    t.seq = 10;
    t.msgs = vec![oob(0, 0, DeliveryMode::Agreed, 4, &[0])].into();
    n.on_session_msg(Time::ZERO, SessionMsg::Token(t));
    assert_eq!(
        deliveries(&mut n),
        vec![(NodeId(0), OriginSeq(0), Bytes::new())],
        "blind delivery hands the application an empty payload"
    );
}

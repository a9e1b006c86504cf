//! Direct token-injection tests of the hold-back delivery discipline
//! (§2.6 cross-mode total order).

use crate::node::testkit;
use crate::{SessionEvent, SessionNode, StartMode};
use bytes::Bytes;
use raincore_types::*;

fn mk(id: u32) -> SessionNode {
    testkit::mk(id, 3, StartMode::Founding(Ring::from([0, 1, 2])))
}

fn deliveries(n: &mut SessionNode) -> Vec<(NodeId, OriginSeq)> {
    let mut out = vec![];
    while let Some(ev) = n.poll_event() {
        if let SessionEvent::Delivery(d) = ev {
            out.push((d.origin, d.seq));
        }
    }
    out
}

fn attached(origin: u32, seq: u64, mode: DeliveryMode, seen: &[u32]) -> Attached {
    let mut a = Attached::new(
        NodeId(origin),
        OriginSeq(seq),
        mode,
        Bytes::from_static(b"p"),
    );
    a.seen = seen.iter().map(|&i| NodeId(i)).collect();
    a
}

#[test]
fn incomplete_safe_message_blocks_later_agreed() {
    let mut n = mk(1); // HUNGRY (node 0 founded)
    let mut t = Token::founding(Ring::from([0, 1, 2]));
    t.seq = 10;
    t.msgs = vec![
        attached(0, 0, DeliveryMode::Safe, &[0]), // not seen by all yet
        attached(2, 0, DeliveryMode::Agreed, &[2, 0]),
    ]
    .into();
    n.on_session_msg(Time::ZERO, SessionMsg::Token(t));
    assert!(n.is_eating());
    assert_eq!(
        deliveries(&mut n),
        vec![],
        "safe head blocks the agreed message"
    );

    // Next round: the safe message is now seen by everyone.
    let mut t = Token::founding(Ring::from([0, 1, 2]));
    t.seq = 13;
    t.msgs = vec![
        attached(0, 0, DeliveryMode::Safe, &[0, 2, 1]),
        attached(2, 0, DeliveryMode::Agreed, &[2, 0, 1]),
    ]
    .into();
    n.on_session_msg(Time::ZERO + Duration::from_millis(20), SessionMsg::Token(t));
    assert_eq!(
        deliveries(&mut n),
        vec![(NodeId(0), OriginSeq(0)), (NodeId(2), OriginSeq(0))],
        "both delivered, in token order"
    );
}

#[test]
fn agreed_before_safe_delivers_immediately() {
    let mut n = mk(1);
    let mut t = Token::founding(Ring::from([0, 1, 2]));
    t.seq = 10;
    t.msgs = vec![
        attached(0, 0, DeliveryMode::Agreed, &[0]),
        attached(0, 1, DeliveryMode::Safe, &[0]),
    ]
    .into();
    n.on_session_msg(Time::ZERO, SessionMsg::Token(t));
    assert_eq!(
        deliveries(&mut n),
        vec![(NodeId(0), OriginSeq(0))],
        "the agreed head delivers; only the safe tail waits"
    );
}

#[test]
fn own_attachment_behind_blocked_safe_waits_too() {
    let mut n = mk(1);
    // Queue a local multicast while hungry.
    n.multicast(DeliveryMode::Agreed, Bytes::from_static(b"mine"))
        .unwrap();
    // Token arrives with a blocked safe message at the head.
    let mut t = Token::founding(Ring::from([0, 1, 2]));
    t.seq = 10;
    t.msgs = vec![attached(0, 0, DeliveryMode::Safe, &[0])].into();
    n.on_session_msg(Time::ZERO, SessionMsg::Token(t));
    // Pass the token: our message attaches *behind* the safe one.
    n.on_tick(Time::ZERO + n.config().token_hold);
    assert_eq!(
        deliveries(&mut n),
        vec![],
        "own agreed message must not jump the blocked safe message"
    );
    // Once the safe message completes, both deliver in order.
    let mut t = Token::founding(Ring::from([0, 1, 2]));
    t.seq = 20;
    t.msgs = vec![
        attached(0, 0, DeliveryMode::Safe, &[0, 1, 2]),
        attached(1, 0, DeliveryMode::Agreed, &[1, 0, 2]),
    ]
    .into();
    n.on_session_msg(Time::ZERO + Duration::from_millis(50), SessionMsg::Token(t));
    assert_eq!(
        deliveries(&mut n),
        vec![(NodeId(0), OriginSeq(0)), (NodeId(1), OriginSeq(0))]
    );
}

#[test]
fn duplicate_attachment_across_rounds_delivers_once() {
    let mut n = mk(1);
    let mut t = Token::founding(Ring::from([0, 1, 2]));
    t.seq = 10;
    t.msgs = vec![attached(0, 0, DeliveryMode::Agreed, &[0])].into();
    n.on_session_msg(Time::ZERO, SessionMsg::Token(t));
    // The same message rides the next round too (not yet retired).
    let mut t = Token::founding(Ring::from([0, 1, 2]));
    t.seq = 13;
    t.msgs = vec![attached(0, 0, DeliveryMode::Agreed, &[0, 1, 2])].into();
    n.on_session_msg(Time::ZERO + Duration::from_millis(20), SessionMsg::Token(t));
    assert_eq!(
        deliveries(&mut n).len(),
        1,
        "exactly-once despite re-seeing it"
    );
}

#[test]
fn safe_readiness_survives_token_retirement() {
    // A safe message observed incomplete, then the token arrives with
    // it already complete AND retires it in the same pass at another
    // node — this node must still deliver from its hold-back copy.
    let mut n = mk(1);
    let mut t = Token::founding(Ring::from([0, 1, 2]));
    t.seq = 10;
    t.msgs = vec![attached(0, 0, DeliveryMode::Safe, &[0])].into();
    n.on_session_msg(Time::ZERO, SessionMsg::Token(t));
    assert_eq!(deliveries(&mut n), vec![]);
    // Next round: message now seen by all (still on token).
    let mut t = Token::founding(Ring::from([0, 1, 2]));
    t.seq = 13;
    t.msgs = vec![attached(0, 0, DeliveryMode::Safe, &[0, 2, 1])].into();
    n.on_session_msg(Time::ZERO + Duration::from_millis(20), SessionMsg::Token(t));
    assert_eq!(deliveries(&mut n), vec![(NodeId(0), OriginSeq(0))]);
}

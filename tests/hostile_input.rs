//! Input a peer chose: what one forged datagram can cost a member.

// What is measured is the CPU a decode takes: wall-clock.
#![allow(clippy::disallowed_types)]

use raincore::types::messages::{SessionMsg, TraceCtx};
use raincore::types::wire::{WireDecode, WireEncode, Writer};
use raincore::types::NodeId;
use std::time::{Duration, Instant};

/// Members on the forged ring: about 100 KB of varints, a token the
/// transport carries in some 80 fragments of its 4 096.
const FORGED: u32 = 40_000;

/// The wire image of a token whose ring is `ids`, written field by field
/// so that building it costs nothing the decoder is being timed on.
fn forged_token(ids: &[NodeId]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(SessionMsg::TAG_TOKEN);
    w.put_varint(7);
    TraceCtx::default().encode(&mut w);
    ids.to_vec().encode(&mut w);
    w.put_bool(false);
    w.put_varint(0);
    w.as_slice().to_vec()
}

/// Decodes `wire` and returns how long that took.
fn timed_decode(wire: &[u8]) -> (Result<SessionMsg, String>, Duration) {
    let t0 = Instant::now();
    let msg = SessionMsg::decode_from_bytes(wire).map_err(|e| e.to_string());
    (msg, t0.elapsed())
}

/// A duplicate check that scans the members before each member takes
/// 0.35 s of one core in release for this ring (4.4 s in a debug build):
/// a few such tokens wedge a member. Sorting a copy takes about 5 ms in a
/// debug build; the budget leaves twenty times that, and is still under
/// what the scan takes in release.
#[test]
fn a_forged_forty_thousand_member_ring_decodes_quickly_and_a_tail_duplicate_is_refused() {
    const BUDGET: Duration = Duration::from_millis(100);
    let mut ids: Vec<NodeId> = (0..FORGED).map(NodeId).collect();
    let wire = forged_token(&ids);
    assert!(wire.len() < 128 * 1024, "{} bytes", wire.len());
    let (msg, took) = timed_decode(&wire);
    let token = match msg {
        Ok(SessionMsg::Token(token)) => token,
        other => panic!(
            "a ring of distinct ids decodes: {:?}",
            other.map(|m| m.kind())
        ),
    };
    assert_eq!(token.ring.len(), FORGED as usize);
    assert!(took < BUDGET, "decoding took {took:?}");

    // Every id is checked against every other: a duplicate at the very
    // end, of the very first member, is found, and found as quickly.
    *ids.last_mut().expect("a forged ring") = NodeId(0);
    let (msg, took) = timed_decode(&forged_token(&ids));
    assert!(msg.is_err(), "a ring with a duplicate id is corrupt");
    assert!(took < BUDGET, "refusing took {took:?}");
}

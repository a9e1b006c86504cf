//! Deterministic seeded fuzzing of the wire codec.
//!
//! Unlike the proptest suites in `src/`, these tests are exactly
//! reproducible from a fixed seed (no persisted regression files, no
//! shrinking): every CI run explores the same inputs, so a failure here
//! is a failure everywhere. Three attack surfaces:
//!
//! 1. random garbage decoded as every message type must return
//!    `Err`/`Ok`, never panic;
//! 2. valid encodings with seeded byte mutations (flips, truncations,
//!    extensions) must decode without panicking;
//! 3. randomized instances of every [`SessionMsg`] variant — and of both
//!    flavours of transport `DATA` frame and both forms of `ACK` — must
//!    round-trip encode→decode exactly.
//!
//! The one proptest here pins [`IdList`], the inline id list of every
//! token entry, to the `Vec<NodeId>` it replaced.

use bytes::Bytes;
use proptest::prelude::*;
use raincore_transport::{FragSet, Frame, MAX_FRAGS};
use raincore_types::id_list::INLINE_IDS;
use raincore_types::messages::{
    Attached, AttachedBody, BodyOdor, BulkData, BulkNack, Call911, DeliveryMode, OpenSubmit,
    Reply911, SessionMsg, Token, TraceCtx, Verdict911,
};
use raincore_types::wire::{WireDecode, WireEncode, WireError, Writer};
use raincore_types::{
    DigestInto, GroupId, IdList, Incarnation, MsgId, NodeId, OriginSeq, Ring, StateDigest,
    TokenEncoder,
};

/// Minimal xorshift64* PRNG: deterministic, dependency-free, good enough
/// for byte fuzzing.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next() as u8).collect()
    }
}

fn arb_ring(rng: &mut Rng) -> Ring {
    let n = rng.below(8) as usize;
    Ring::from_iter((0..n).map(|_| NodeId(rng.below(64) as u32)))
}

fn arb_attached(rng: &mut Rng) -> Attached {
    Attached {
        origin: NodeId(rng.below(100) as u32),
        seq: OriginSeq(rng.below(100_000)),
        mode: if rng.below(2) == 0 {
            DeliveryMode::Agreed
        } else {
            DeliveryMode::Safe
        },
        // Ids on both sides of the one-byte varint boundary.
        seen: (0..rng.below(6))
            .map(|_| NodeId(rng.below(300) as u32))
            .collect(),
        confirmed: (0..rng.below(6))
            .map(|_| NodeId(rng.below(64) as u32))
            .collect(),
        body: if rng.below(4) == 0 {
            // Out-of-band manifest entry: the token carries only the id
            // and expected payload length.
            AttachedBody::Oob {
                len: rng.below(1 << 20),
            }
        } else {
            let n = rng.below(128) as usize;
            AttachedBody::Inline(Bytes::from(rng.bytes(n)))
        },
    }
}

fn arb_msg(rng: &mut Rng) -> SessionMsg {
    match rng.below(9) {
        0 => SessionMsg::Token(Token {
            seq: rng.next(),
            trace: TraceCtx::mint(NodeId(rng.below(64) as u32), rng.next(), rng.next()),
            ring: arb_ring(rng),
            tbm: rng.below(2) == 0,
            msgs: (0..rng.below(5)).map(|_| arb_attached(rng)).collect(),
        }),
        1 => SessionMsg::Call911(Call911 {
            from: NodeId(rng.below(64) as u32),
            last_token_seq: rng.next(),
            req_id: rng.next(),
        }),
        2 => SessionMsg::Reply911(Reply911 {
            from: NodeId(rng.below(64) as u32),
            req_id: rng.next(),
            verdict: Verdict911::Grant,
        }),
        3 => SessionMsg::Reply911(Reply911 {
            from: NodeId(rng.below(64) as u32),
            req_id: rng.next(),
            verdict: Verdict911::Deny {
                newer_seq: rng.next(),
            },
        }),
        4 => SessionMsg::BodyOdor(BodyOdor {
            from: NodeId(rng.below(64) as u32),
            group: GroupId(NodeId(rng.below(64) as u32)),
        }),
        5 => SessionMsg::Open(OpenSubmit {
            from: NodeId(rng.below(64) as u32),
            seq: OriginSeq(rng.below(100_000)),
            payload: {
                let n = rng.below(128) as usize;
                Bytes::from(rng.bytes(n))
            },
        }),
        6 => SessionMsg::Bulk(BulkData {
            origin: NodeId(rng.below(64) as u32),
            seq: OriginSeq(rng.below(100_000)),
            payload: {
                let n = rng.below(2048) as usize;
                Bytes::from(rng.bytes(n))
            },
        }),
        7 => SessionMsg::BulkNack(BulkNack {
            from: NodeId(rng.below(64) as u32),
            origin: NodeId(rng.below(64) as u32),
            seq: OriginSeq(rng.below(100_000)),
        }),
        // Header only: the mutations below append to it and flip its tag.
        _ => SessionMsg::Probe,
    }
}

/// A transport frame: reliable or fire-and-forget `DATA`, or an `ACK`
/// naming one fragment (original wire form) or a set (bitmap form).
fn arb_frame(rng: &mut Rng) -> Frame {
    let from = NodeId(rng.below(64) as u32);
    let inc = Incarnation(rng.below(4) as u32);
    let msg_id = MsgId(rng.below(1 << 40));
    match rng.below(4) {
        shape @ (0 | 1) => {
            let frag_count = 1 + rng.below(16) as u32;
            let n = rng.below(200) as usize;
            Frame::Data {
                from,
                inc,
                msg_id,
                frag_index: rng.below(u64::from(frag_count)) as u32,
                frag_count,
                reliable: shape == 0,
                payload: Bytes::from(rng.bytes(n)),
            }
        }
        2 => Frame::Ack {
            from,
            inc,
            msg_id,
            frags: FragSet::single(rng.below(u64::from(MAX_FRAGS)) as u32),
        },
        _ => {
            let mut frags = FragSet::first_n(rng.below(80) as u32);
            for _ in 0..rng.below(6) {
                frags.insert(rng.below(u64::from(MAX_FRAGS)) as u32);
            }
            Frame::Ack {
                from,
                inc,
                msg_id,
                frags,
            }
        }
    }
}

#[test]
fn random_garbage_never_panics() {
    let mut rng = Rng::new(0xC0FFEE);
    for _ in 0..20_000 {
        let len = rng.below(256) as usize;
        let data = rng.bytes(len);
        let _ = SessionMsg::decode_from_bytes(&data);
        let _ = Token::decode_from_bytes(&data);
        let _ = Attached::decode_from_bytes(&data);
        let _ = Vec::<u64>::decode_from_bytes(&data);
        // A decoded ack set is the peer's word: whatever the bytes say, it
        // stays within the per-message fragment bound.
        if let Ok(Frame::Ack { frags, .. }) = Frame::decode_from_bytes(&data) {
            assert!(frags.len() <= MAX_FRAGS);
        }
    }
}

#[test]
fn mutated_valid_encodings_never_panic() {
    let mut rng = Rng::new(0xBADF00D);
    for _ in 0..5_000 {
        let msg = arb_msg(&mut rng);
        let mut buf = msg.encode_to_bytes().to_vec();
        match rng.below(3) {
            0 => {
                // Flip a few random bytes.
                for _ in 0..=rng.below(4) {
                    if !buf.is_empty() {
                        let at = rng.below(buf.len() as u64) as usize;
                        buf[at] ^= rng.next() as u8;
                    }
                }
            }
            1 => {
                // Truncate.
                let keep = rng.below(buf.len() as u64 + 1) as usize;
                buf.truncate(keep);
            }
            _ => {
                // Append trailing garbage.
                let n = 1 + rng.below(8) as usize;
                buf.extend(rng.bytes(n));
            }
        }
        let _ = SessionMsg::decode_from_bytes(&buf);
    }
}

/// Both `DATA` flavours and both `ACK` forms round-trip, each under its
/// own wire tag; seeded byte mutations of them never panic the decoder or
/// yield a set beyond the fragment bound.
#[test]
fn transport_frames_round_trip_and_survive_mutation() {
    let mut rng = Rng::new(0xF4A6);
    let mut seen_tags = [false; 4];
    for _ in 0..5_000 {
        let frame = arb_frame(&mut rng);
        let mut buf = frame.encode_to_bytes().to_vec();
        let want_tag = match &frame {
            Frame::Data { reliable: true, .. } => 0,
            Frame::Data {
                reliable: false, ..
            } => 2,
            Frame::Ack { frags, .. } if frags.len() == 1 => 1,
            Frame::Ack { .. } => 3,
        };
        assert_eq!(buf[0], want_tag);
        seen_tags[want_tag as usize] = true;
        assert_eq!(Frame::decode_from_bytes(&buf).expect("valid frame"), frame);

        // Flip a few bytes, then maybe cut the tail off.
        for _ in 0..=rng.below(3) {
            let at = rng.below(buf.len() as u64) as usize;
            buf[at] ^= rng.next() as u8;
        }
        if rng.below(2) == 0 {
            buf.truncate(rng.below(buf.len() as u64) as usize);
        }
        if let Ok(Frame::Ack { frags, .. }) = Frame::decode_from_bytes(&buf) {
            assert!(frags.len() <= MAX_FRAGS);
        }
    }
    assert!(seen_tags.iter().all(|&s| s), "{seen_tags:?}");
}

/// The pooled [`TokenEncoder`] must be byte-identical to a fresh full
/// encode at every step of a long mutation walk: seq bumps, membership
/// joins/leaves, tbm flips, messages (inline and manifest) boarding and
/// retiring, and CoW clones standing in for `last_copy` snapshots. One
/// persistent encoder across the whole walk, so nothing a previous
/// encode left in its scratch buffer can leak into the next.
#[test]
fn patched_header_encode_matches_full_reencode() {
    let mut rng = Rng::new(0x70_4B_3E);
    let mut enc = TokenEncoder::new();
    let mut token = Token::founding(arb_ring(&mut rng));
    // Where the walk draws the pacing rule's line: half the range its
    // manifest lengths come from, and how many entries fell on each side.
    const LINE: u64 = 1 << 19;
    let mut weighed = [0u32; 2];
    for step in 0..5_000 {
        match rng.below(11) {
            // Steady state dominates: most hops bump seq and the trace
            // hop counter together and change nothing else.
            0..=5 => {
                token.seq = token.seq.wrapping_add(1 + rng.below(3));
                token.trace.hop = token.trace.hop.wrapping_add(1 + rng.below(3));
            }
            6 => {
                token.ring.push(NodeId(rng.below(64) as u32));
            }
            7 => {
                let id = NodeId(rng.below(64) as u32);
                token.ring.remove(id);
            }
            8 => token.tbm = !token.tbm,
            9 => {
                // Regeneration/merge mints a fresh circulation: every
                // trace-context varint changes width-unpredictably.
                token.trace =
                    TraceCtx::mint(NodeId(rng.below(64) as u32), rng.next(), token.trace.hop);
            }
            _ => {
                if token.msgs.is_empty() || rng.below(2) == 0 {
                    token.msgs.push(arb_attached(&mut rng));
                } else {
                    token.msgs = Default::default();
                }
            }
        }
        // A CoW snapshot, as `SessionNode` takes for `last_copy`. Dropped
        // or mutated later, it must never disturb the encoder's view.
        let snapshot = token.clone();
        if rng.below(4) == 0 {
            let mut fork = snapshot.clone();
            fork.ring.push(NodeId(99));
            fork.msgs.push(arb_attached(&mut rng));
        }
        let pooled = enc.encode(&token);
        let full = SessionMsg::Token(token.clone()).encode_to_bytes();
        assert_eq!(pooled[..], full[..], "divergence at step {step}");
        // The pacing rule sizes tokens without encoding them: the
        // arithmetic must agree with the encoder to the byte.
        assert_eq!(token.wire_len(), full.len(), "token wire_len at {step}");
        // ... and weighs freight where it travels: an inline entry is its
        // wire bytes, and so is a manifest entry for a payload under the
        // line; one for a payload at or over it, those plus the payload.
        let mut beside_bytes = 0;
        for m in token.msgs.iter() {
            assert_eq!(m.wire_len(), m.encode_to_bytes().len(), "entry at {step}");
            let beside = match m.body {
                AttachedBody::Oob { len } if len >= LINE => len as usize,
                AttachedBody::Inline(_) | AttachedBody::Oob { .. } => 0,
            };
            assert_eq!(
                m.load_len(LINE as usize),
                m.wire_len() + beside,
                "entry load at {step}"
            );
            weighed[usize::from(beside > 0)] += u32::from(m.is_oob());
            beside_bytes += beside;
        }
        assert_eq!(
            token.load_len(LINE as usize),
            full.len() + beside_bytes,
            "load at {step}"
        );
        let decoded = SessionMsg::decode_from_bytes(&pooled).expect("decodes");
        assert_eq!(decoded, SessionMsg::Token(snapshot));
    }
    assert!(weighed.iter().all(|&n| n > 100), "both sides: {weighed:?}");
}

/// A manifest length is a varint a peer chose, and the pacing rule adds
/// it up: off the wire, hostile lengths must saturate the sums, never
/// wrap them (release) or panic (debug). `SessionNode` takes it from
/// here in `node::tests::forged_manifest_length_can_only_fill_the_token`.
#[test]
fn hostile_manifest_length_saturates_the_load() {
    let forged = |len| Attached::new_oob(NodeId(1), OriginSeq(7), DeliveryMode::Agreed, len);
    let mut token = Token::founding(Ring::from([0, 1, 2]));
    for len in [u64::MAX, u64::MAX, u64::MAX - 3, 1 << 63, 8192] {
        token.msgs.push(forged(len));
    }
    let wire = SessionMsg::Token(token.clone()).encode_to_bytes();
    assert_eq!(
        token.wire_len(),
        wire.len(),
        "ten-byte varints sized exactly"
    );
    let SessionMsg::Token(back) = SessionMsg::decode_from_bytes(&wire).expect("decodes") else {
        panic!("a token decoded to a different variant");
    };
    assert_eq!(back, token);
    const LINE: usize = 2625;
    assert_eq!(back.msgs[0].load_len(LINE), usize::MAX);
    assert_eq!(back.msgs[4].load_len(LINE), back.msgs[4].wire_len() + 8192);
    assert_eq!(back.load_len(LINE), usize::MAX);
    // One honest entry behind a forged one does not wrap the sum back.
    token.msgs = [forged(u64::MAX), forged(8192)].into_iter().collect();
    assert_eq!(token.load_len(LINE), usize::MAX);
}

#[test]
fn all_variants_round_trip() {
    let mut rng = Rng::new(0x5EED);
    let mut seen_tags = [false; 8];
    for _ in 0..5_000 {
        let msg = arb_msg(&mut rng);
        let tag = match &msg {
            SessionMsg::Token(_) => 0,
            SessionMsg::Call911(_) => 1,
            SessionMsg::Reply911(_) => 2,
            SessionMsg::BodyOdor(_) => 3,
            SessionMsg::Open(_) => 4,
            SessionMsg::Bulk(_) => 5,
            SessionMsg::BulkNack(_) => 6,
            SessionMsg::Probe => 7,
        };
        seen_tags[tag] = true;
        let buf = msg.encode_to_bytes();
        let back = SessionMsg::decode_from_bytes(&buf).expect("valid encoding must decode");
        assert_eq!(back, msg);
    }
    assert!(
        seen_tags.iter().all(|&s| s),
        "seeded generator must cover every SessionMsg variant: {seen_tags:?}"
    );
}

/// Manifest-token ↔ piggyback-token equivalence at the delivery layer:
/// a payload shipped as an `Oob` manifest entry plus its out-of-band
/// [`BulkData`] frame must, after a wire round trip of both parts,
/// reassemble to exactly the `(key, mode, payload)` triple the inline
/// piggyback encoding of the same multicast delivers — while the
/// manifest wire image stays payload-free. Seeded walk over sizes,
/// modes and watermark states.
#[test]
fn manifest_round_trip_matches_piggyback_at_delivery() {
    let mut rng = Rng::new(0x0B_1D5);
    for step in 0..2_000 {
        let origin = NodeId(rng.below(64) as u32);
        let seq = OriginSeq(rng.below(100_000));
        let mode = if rng.below(2) == 0 {
            DeliveryMode::Agreed
        } else {
            DeliveryMode::Safe
        };
        let payload_len = rng.below(4096) as usize;
        let payload = Bytes::from(rng.bytes(payload_len));

        let mut inline = Attached::new(origin, seq, mode, payload.clone());
        let mut manifest = Attached::new_oob(origin, seq, mode, payload.len() as u64);
        // Watermark churn must not disturb the equivalence.
        for _ in 0..rng.below(4) {
            let n = NodeId(rng.below(64) as u32);
            inline.mark_seen(n);
            manifest.mark_seen(n);
            if mode == DeliveryMode::Safe {
                inline.mark_confirmed(n);
                manifest.mark_confirmed(n);
            }
        }

        let inline_wire = inline.encode_to_bytes();
        let manifest_wire = manifest.encode_to_bytes();
        assert_eq!(inline.wire_len(), inline_wire.len());
        assert_eq!(manifest.wire_len(), manifest_wire.len());
        let bulk_wire = SessionMsg::Bulk(BulkData {
            origin,
            seq,
            payload: payload.clone(),
        })
        .encode_to_bytes();

        let inline_back = Attached::decode_from_bytes(&inline_wire).expect("inline decodes");
        let manifest_back = Attached::decode_from_bytes(&manifest_wire).expect("manifest decodes");
        let SessionMsg::Bulk(bulk_back) = SessionMsg::decode_from_bytes(&bulk_wire).expect("bulk")
        else {
            panic!("bulk frame decoded to a different variant at step {step}");
        };

        // Same ordered id, same mode, same watermark on both paths.
        assert_eq!(manifest_back.key(), inline_back.key());
        assert_eq!(manifest_back.mode, inline_back.mode);
        assert_eq!(manifest_back.seen, inline_back.seen);
        assert_eq!(manifest_back.confirmed, inline_back.confirmed);
        // Delivery-layer payload: inline carries it, manifest + bulk
        // frame reassemble it.
        assert_eq!((bulk_back.origin, bulk_back.seq), manifest_back.key());
        assert_eq!(
            bulk_back.payload,
            inline_back
                .inline_payload()
                .expect("piggyback is inline")
                .clone()
        );
        assert_eq!(manifest_back.payload_len(), bulk_back.payload.len());
        assert!(manifest_back.inline_payload().is_none());
        // The manifest never smuggles the payload onto the token.
        if payload.len() > 64 {
            assert!(
                manifest_wire.len() < inline_wire.len(),
                "manifest must be smaller than piggyback at step {step}"
            );
        }
    }
}

proptest! {
    /// From empty through the spill to three times the inline room, an
    /// [`IdList`] is the `Vec<NodeId>` it replaced: the same bytes on the
    /// wire, the same list back, the same positional digest; and a count
    /// that claims more ids than bytes remain is refused by the length
    /// check, before a single id is stored.
    #[test]
    fn id_list_is_a_vec_of_node_ids(
        raw in proptest::collection::vec(0u32..100_000, 0..=3 * INLINE_IDS),
    ) {
        let ids: Vec<NodeId> = raw.into_iter().map(NodeId).collect();
        let list: IdList = ids.iter().copied().collect();
        let wire = list.encode_to_bytes();
        prop_assert_eq!(&wire[..], &ids.encode_to_bytes()[..]);

        let back = IdList::decode_from_bytes(&wire).expect("decodes");
        prop_assert_eq!(&back[..], &ids[..]);
        prop_assert_eq!(&back, &list);

        let digest = |f: &dyn Fn(&mut StateDigest)| {
            let mut d = StateDigest::identity();
            f(&mut d);
            d.finish()
        };
        let as_vec = digest(&|d| {
            d.write_len(ids.len());
            for &n in &ids {
                d.node(n);
            }
        });
        prop_assert_eq!(digest(&|d| list.digest_into(d)), as_vec);
        prop_assert_eq!(digest(&|d| back.digest_into(d)), as_vec);

        // The ids' bytes after a count one larger than those bytes.
        let id_bytes: usize = ids.iter().map(|n| n.encode_to_bytes().len()).sum();
        let body = &wire[wire.len() - id_bytes..];
        let mut forged = Writer::new();
        forged.put_varint(body.len() as u64 + 1);
        forged.put_raw(body);
        let refused = IdList::decode_from_bytes(forged.as_slice());
        prop_assert!(
            matches!(refused, Err(WireError::BadLength { .. })),
            "{refused:?}"
        );
    }
}

/// A count no datagram could back is refused without reserving room for
/// it: `Vec::with_capacity` of this many ids would abort the process.
#[test]
fn id_list_refuses_a_count_beyond_the_datagram() {
    let mut w = Writer::new();
    w.put_varint(1 << 60);
    w.put_raw(&[1, 2, 3]);
    assert_eq!(
        IdList::decode_from_bytes(w.as_slice()),
        Err(WireError::BadLength {
            declared: 1 << 60,
            remaining: 3
        })
    );
}

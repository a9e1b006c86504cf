//! Wire-codec micro-benchmarks: encode/decode throughput for the token
//! (the hottest message: it crosses the wire L·N times per second) and
//! the transport frame.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use raincore_transport::Frame;
use raincore_types::wire::{WireDecode, WireEncode};
use raincore_types::{
    Attached, DeliveryMode, Incarnation, MsgId, NodeId, OriginSeq, Ring, SessionMsg, Token,
};
use std::hint::black_box;

fn make_token(members: u32, msgs: usize, payload: usize) -> Token {
    let mut t = Token::founding(Ring::from_iter((0..members).map(NodeId)));
    t.seq = 123_456;
    for i in 0..msgs {
        let mut a = Attached::new(
            NodeId((i as u32) % members),
            OriginSeq(i as u64),
            DeliveryMode::Agreed,
            Bytes::from(vec![0u8; payload]),
        );
        for m in 0..members / 2 {
            a.mark_seen(NodeId(m));
        }
        t.msgs.push(a);
    }
    t
}

fn bench_token(c: &mut Criterion) {
    let mut g = c.benchmark_group("codec/token");
    for (members, msgs, payload) in [(4u32, 0usize, 0usize), (4, 4, 256), (16, 16, 1024)] {
        let token = make_token(members, msgs, payload);
        let encoded = SessionMsg::Token(token.clone()).encode_to_bytes();
        g.throughput(Throughput::Bytes(encoded.len() as u64));
        g.bench_with_input(
            BenchmarkId::new("encode", format!("n{members}_m{msgs}_p{payload}")),
            &token,
            |b, t| b.iter(|| black_box(SessionMsg::Token(t.clone()).encode_to_bytes())),
        );
        g.bench_with_input(
            BenchmarkId::new("decode", format!("n{members}_m{msgs}_p{payload}")),
            &encoded,
            |b, buf| b.iter(|| black_box(SessionMsg::decode_from_bytes(buf).unwrap())),
        );
    }
    g.finish();
}

fn bench_frame(c: &mut Criterion) {
    let frame = Frame::Data {
        from: NodeId(3),
        inc: Incarnation(1),
        msg_id: MsgId(42),
        frag_index: 0,
        frag_count: 1,
        reliable: true,
        payload: Bytes::from(vec![7u8; 1024]),
    };
    let encoded = frame.encode_to_bytes();
    let mut g = c.benchmark_group("codec/frame");
    g.throughput(Throughput::Bytes(encoded.len() as u64));
    g.bench_function("encode_1k", |b| {
        b.iter(|| black_box(frame.encode_to_bytes()))
    });
    g.bench_function("decode_1k", |b| {
        b.iter(|| black_box(Frame::decode_from_bytes(&encoded).unwrap()))
    });
    g.finish();
}

criterion_group!(benches, bench_token, bench_frame);
criterion_main!(benches);

//! Proof obligations for the batched I/O engine (ISSUE 10):
//!
//! 1. **Receive equivalence** — the same raw byte stream (valid frames,
//!    garbage headers, truncated frames, trailing bytes, oversized
//!    datagrams) produces identical `Datagram` sequences and identical
//!    drop counts through the `recvmmsg` path and the portable scalar
//!    path.
//! 2. **Send equivalence** — the bytes `sendmmsg` gathers per frame
//!    (stack header iovec + payload iovec) are byte-identical to the
//!    scalar path's `encode_wire` output.
//! 3. **Pool safety** — a payload handed out by the pool is never
//!    rewritten while the receiver still holds it, across enough churn
//!    that blocks demonstrably get reused.
//! 4. **Burst capacity** — a burst larger than one `recvmmsg` batch is
//!    still delivered completely, in multiple batches.
//! 5. **Bind-time arrivals** — a datagram that reaches a bound `UdpNet`
//!    before it becomes a `BatchIo` waits in the kernel socket buffer and
//!    is delivered by the first `recv_batch`, on both backends.

// Real-socket test: deadlines are wall-clock.
#![allow(clippy::disallowed_types)]
// The test plays a foreign peer that sends raw bytes, and a sink that
// reads the engine's, on plain sockets.
#![allow(clippy::disallowed_methods)]

use bytes::Bytes;
use raincore_net::batch::{BatchConfig, BatchIo, IoBackend};
use raincore_net::{encode_wire, Addr, Datagram, UdpNet};
use raincore_types::NodeId;
use std::collections::HashMap;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

fn loopback() -> SocketAddr {
    "127.0.0.1:0".parse().unwrap()
}

fn bind_io(node: u32, cfg: BatchConfig) -> (BatchIo, SocketAddr, Addr) {
    let addr = Addr::primary(NodeId(node));
    let io = BatchIo::bind(&[(addr, loopback())], HashMap::new(), cfg).unwrap();
    let saddr = io.local_socket_addr(addr).unwrap();
    (io, saddr, addr)
}

/// Drains `io` until `want` datagrams arrived or every raw byte blob has
/// had ample time to be processed.
fn drain(io: &mut BatchIo, want: usize) -> Vec<Datagram> {
    let mut got = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(5);
    while got.len() < want && Instant::now() < deadline {
        io.recv_batch(&mut got, Duration::from_millis(20));
    }
    // One extra sweep so unexpected extras would be caught too.
    io.recv_batch(&mut got, Duration::from_millis(20));
    got
}

/// The adversarial byte stream: `(blob, Some(expected payload))` for
/// frames that must decode, `None` for frames that must be dropped.
fn adversarial_stream(src: Addr, dst: Addr, slot: usize) -> Vec<(Vec<u8>, Option<Vec<u8>>)> {
    let frame = |payload: &[u8]| {
        encode_wire(&Datagram::control(
            src,
            dst,
            Bytes::copy_from_slice(payload),
        ))
        .to_vec()
    };
    let valid_small = frame(b"hello");
    let valid_empty = frame(b"");
    let valid_big = frame(&vec![0xA5u8; slot / 2]);
    let mut truncated = frame(b"truncate-me");
    truncated.truncate(truncated.len() - 3);
    let mut trailing = frame(b"trailing");
    trailing.push(0xEE);
    // Larger than a pool slot: the kernel truncates it to `slot` bytes
    // and the decoder then rejects the short payload.
    let oversized = frame(&vec![0x42u8; slot * 2]);
    vec![
        (valid_small, Some(b"hello".to_vec())),
        (valid_empty, Some(Vec::new())),
        (vec![0xFF, 0xFF, 0xFF], None),
        (truncated, None),
        (valid_big, Some(vec![0xA5u8; slot / 2])),
        (trailing, None),
        (Vec::new(), None),
        (oversized, None),
    ]
}

/// Feeds the adversarial stream into one backend and returns the decoded
/// datagrams plus the decode-drop count.
fn run_recv_case(backend: IoBackend) -> (Vec<Datagram>, u64) {
    let cfg = BatchConfig {
        slot: 512,
        backend,
        ..BatchConfig::default()
    };
    let (mut rx, rx_saddr, rx_addr) = bind_io(1, cfg);
    let src = Addr::primary(NodeId(7));
    let stream = adversarial_stream(src, rx_addr, cfg.slot);
    let expected: Vec<&Vec<u8>> = stream.iter().filter_map(|(_, e)| e.as_ref()).collect();
    let raw = UdpSocket::bind(loopback()).unwrap();
    for (blob, _) in &stream {
        raw.send_to(blob, rx_saddr).unwrap();
        // Pace the blobs so none is lost to a full socket buffer; order
        // on loopback is then deterministic.
        std::thread::sleep(Duration::from_millis(2));
    }
    let got = drain(&mut rx, expected.len());
    (got, rx.metrics().decode_dropped.get())
}

#[test]
fn recv_paths_decode_identical_streams() {
    let (batched, batched_drops) = run_recv_case(IoBackend::Batched);
    let (scalar, scalar_drops) = run_recv_case(IoBackend::Scalar);
    assert_eq!(batched.len(), scalar.len());
    for (b, s) in batched.iter().zip(&scalar) {
        assert_eq!(b, s);
    }
    assert_eq!(batched_drops, scalar_drops);
    // And both match the oracle: the frames built to be valid, in order.
    let src = Addr::primary(NodeId(7));
    let dst = Addr::primary(NodeId(1));
    let expected: Vec<Vec<u8>> = adversarial_stream(src, dst, 512)
        .into_iter()
        .filter_map(|(_, e)| e)
        .collect();
    assert_eq!(batched.len(), expected.len());
    for (d, want) in batched.iter().zip(&expected) {
        assert_eq!(d.src, src);
        assert_eq!(d.dst, dst);
        assert_eq!(&d.payload[..], &want[..]);
    }
    assert_eq!(
        batched_drops, 5,
        "garbage, truncated, trailing, empty datagram, oversized"
    );
}

#[test]
fn recv_drop_counts_include_every_malformed_case() {
    // 5 malformed blobs in the stream: garbage header, truncated,
    // trailing byte, zero-length datagram, oversized-then-truncated.
    let (_, drops) = run_recv_case(IoBackend::default_for_platform());
    assert_eq!(drops, 5);
}

#[test]
fn send_paths_are_byte_equivalent() {
    let sink = UdpSocket::bind(loopback()).unwrap();
    sink.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let sink_saddr = sink.local_addr().unwrap();
    let dst = Addr::primary(NodeId(9));
    let frames: Vec<Datagram> = vec![
        Datagram::control(Addr::primary(NodeId(0)), dst, Bytes::from_static(b"ctl")),
        Datagram::data(Addr::primary(NodeId(0)), dst, Bytes::new()),
        Datagram::data(
            Addr::primary(NodeId(0)),
            dst,
            Bytes::from(vec![0x5Au8; 900]),
        ),
    ];
    let mut per_backend: Vec<Vec<Vec<u8>>> = Vec::new();
    for backend in [IoBackend::Batched, IoBackend::Scalar] {
        let cfg = BatchConfig {
            backend,
            ..BatchConfig::default()
        };
        let src = Addr::primary(NodeId(0));
        let mut tx = BatchIo::bind(&[(src, loopback())], HashMap::new(), cfg).unwrap();
        tx.add_peer(dst, sink_saddr);
        assert_eq!(tx.send_batch(&frames), frames.len());
        let mut buf = vec![0u8; 65536];
        let mut wires = Vec::new();
        for _ in 0..frames.len() {
            let (n, _) = sink.recv_from(&mut buf).unwrap();
            wires.push(buf[..n].to_vec());
        }
        per_backend.push(wires);
    }
    assert_eq!(per_backend[0], per_backend[1], "sendmmsg vs send_to bytes");
    for (wire, d) in per_backend[0].iter().zip(&frames) {
        assert_eq!(&wire[..], &encode_wire(d)[..], "wire matches the codec");
    }
}

#[test]
fn pool_blocks_are_never_rewritten_while_held() {
    // Small slots + tiny pool = heavy churn; batch 4 so bursts span
    // multiple blocks.
    let cfg = BatchConfig {
        batch: 4,
        slot: 256,
        pool_blocks: 2,
        backend: IoBackend::default_for_platform(),
    };
    let (mut rx, rx_saddr, rx_addr) = bind_io(1, cfg);
    let src_addr = Addr::primary(NodeId(0));
    let mut tx = BatchIo::bind(&[(src_addr, loopback())], HashMap::new(), cfg).unwrap();
    tx.add_peer(rx_addr, rx_saddr);

    let frame =
        |round: u8, i: u8| Datagram::control(src_addr, rx_addr, Bytes::from(vec![round ^ i; 64]));
    // Round 0: receive and HOLD the payloads (plus an immediate copy).
    let first: Vec<Datagram> = (0..8).map(|i| frame(0, i)).collect();
    tx.send_batch(&first);
    let held = drain(&mut rx, 8);
    assert_eq!(held.len(), 8);
    let copies: Vec<Vec<u8>> = held.iter().map(|d| d.payload.to_vec()).collect();

    // Rounds 1..16: churn the pool hard while the round-0 payloads are
    // still alive, dropping each round's datagrams immediately so their
    // blocks become reusable.
    for round in 1..16u8 {
        let burst: Vec<Datagram> = (0..8).map(|i| frame(round, i)).collect();
        tx.send_batch(&burst);
        let got = drain(&mut rx, 8);
        assert_eq!(got.len(), 8, "round {round}");
    }
    // The pool demonstrably reused returned blocks...
    assert!(
        rx.metrics().pool_reused.get() > 0,
        "reuse never happened — pool config defeated the test"
    );
    // ...and never scribbled over a held payload.
    for (d, copy) in held.iter().zip(&copies) {
        assert_eq!(&d.payload[..], &copy[..], "held payload was rewritten");
    }
}

#[test]
fn burst_larger_than_one_batch_is_fully_delivered() {
    let cfg = BatchConfig {
        batch: 8,
        slot: 512,
        pool_blocks: 4,
        backend: IoBackend::default_for_platform(),
    };
    let (mut rx, rx_saddr, rx_addr) = bind_io(1, cfg);
    let src_addr = Addr::primary(NodeId(0));
    let mut tx = BatchIo::bind(&[(src_addr, loopback())], HashMap::new(), cfg).unwrap();
    tx.add_peer(rx_addr, rx_saddr);
    let total = 100u8;
    let frames: Vec<Datagram> = (0..total)
        .map(|i| Datagram::control(src_addr, rx_addr, Bytes::from(vec![i; 32])))
        .collect();
    assert_eq!(tx.send_batch(&frames), usize::from(total));
    let got = drain(&mut rx, usize::from(total));
    assert_eq!(got.len(), usize::from(total));
    let mut seen: Vec<u8> = got.iter().map(|d| d.payload[0]).collect();
    seen.sort_unstable();
    let want: Vec<u8> = (0..total).collect();
    assert_eq!(seen, want);
    // It took more than one recv syscall (batch is 8 < 100) — and, on
    // the batched backend, far fewer than one syscall per packet.
    let recv_calls = rx.metrics().syscalls_recv.get();
    assert!(recv_calls > 1);
    if cfg!(target_os = "linux") && rx.backend() == IoBackend::Batched {
        assert!(
            recv_calls < u64::from(total),
            "batching collapsed {total} packets into {recv_calls} syscalls"
        );
        assert_eq!(
            tx.metrics().syscalls_send.get(),
            u64::from(total).div_ceil(8),
            "send side flushed in full batches"
        );
    }
}

#[test]
fn datagram_sent_before_into_batch_io_is_delivered_first() {
    for backend in [IoBackend::Batched, IoBackend::Scalar] {
        let cfg = BatchConfig {
            backend,
            ..BatchConfig::default()
        };
        let (mut tx, tx_saddr, tx_addr) = bind_io(0, cfg);
        let rx_addr = Addr::primary(NodeId(1));
        let mut net = UdpNet::bind(&[(rx_addr, loopback())], HashMap::new()).unwrap();
        net.add_peer(tx_addr, tx_saddr);
        tx.add_peer(rx_addr, net.local_socket_addr(rx_addr).unwrap());
        // Loopback `sendmmsg`/`send_to` has queued the datagram on the
        // receiving socket by the time it returns, so no pacing is needed.
        let early = Datagram::control(tx_addr, rx_addr, Bytes::from_static(b"early"));
        assert_eq!(tx.send_batch(std::slice::from_ref(&early)), 1);

        let mut rx = net.into_batch_io(cfg).unwrap();
        let mut got = Vec::new();
        assert_eq!(
            rx.recv_batch(&mut got, Duration::from_secs(5)),
            1,
            "{backend:?}: first recv_batch returns the bind-time datagram"
        );
        assert_eq!(got, [early]);
        // The peer map survived the conversion too.
        let reply = Datagram::control(rx_addr, tx_addr, Bytes::from_static(b"reply"));
        assert_eq!(rx.send_batch(std::slice::from_ref(&reply)), 1);
        assert_eq!(drain(&mut tx, 1), [reply]);
    }
}

//! I/O shard: one pump's view of the batched UDP engine.
//!
//! The runtime's sharding model is one shard per node: each
//! [`IoShard`] owns a *disjoint* set of sockets (a node's NICs plus its
//! wake socket) and is driven by exactly one thread, so shards scale
//! across cores with zero shared state between them — no reader
//! threads, no per-datagram channel hop. The driver thread drains
//! `poll_outgoing()` into the shard's bounded send queue, flushes it as
//! `sendmmsg` batches, and pulls received bursts out by value for the
//! `on_datagram` loop.
//!
//! Backpressure policy: the outgoing queue is bounded by `out_cap`.
//! Because the owning thread is the only producer, "full" triggers an
//! immediate synchronous flush (bounded memory, never blocks on a lock);
//! if the kernel itself refuses (`WouldBlock` — socket buffer full) the
//! remainder is dropped and counted in `send_dropped`, which is exactly
//! the promise UDP makes and the transport layer's retransmission
//! already covers. Incoming bursts are delivered by value and never
//! queued here at all, so receive backpressure is the socket buffer —
//! also the UDP contract.

// The runtime's I/O shard: socket timeouts and flush pacing are wall-clock.
#![allow(clippy::disallowed_types)]

use raincore_net::batch::{BatchIo, IoBackend, IoMetrics, IoWaker};
use raincore_net::Datagram;
use std::time::Duration;

/// Default bound on the outgoing frame queue.
pub const DEFAULT_OUT_CAP: usize = 256;

/// A single-threaded I/O pump over a [`BatchIo`] endpoint: bounded
/// outgoing queue with a flush-on-full policy, and burst receives
/// delivered by value.
pub struct IoShard {
    io: BatchIo,
    outgoing: Vec<Datagram>,
    out_cap: usize,
    burst: Vec<Datagram>,
}

impl IoShard {
    /// Wraps `io` with an outgoing queue bounded at `out_cap` frames
    /// (0 is rounded up to 1).
    pub fn new(io: BatchIo, out_cap: usize) -> IoShard {
        let out_cap = out_cap.max(1);
        IoShard {
            io,
            outgoing: Vec::with_capacity(out_cap),
            burst: Vec::new(),
            out_cap,
        }
    }

    /// A handle other threads use to interrupt [`IoShard::pump_recv`].
    pub fn waker(&self) -> std::io::Result<IoWaker> {
        self.io.waker()
    }

    /// The engine's instrumentation handles.
    pub fn metrics(&self) -> &IoMetrics {
        self.io.metrics()
    }

    /// The syscall backend in use.
    pub fn backend(&self) -> IoBackend {
        self.io.backend()
    }

    /// Frames currently queued for the next flush.
    pub fn queued(&self) -> usize {
        self.outgoing.len()
    }

    /// Queues one outgoing frame. When the queue hits `out_cap` it is
    /// flushed synchronously first (flush-on-full), so memory stays
    /// bounded no matter how fast the protocol produces frames.
    pub fn enqueue(&mut self, d: Datagram) {
        if self.outgoing.len() >= self.out_cap {
            self.flush();
        }
        self.outgoing.push(d);
    }

    /// Sends every queued frame in syscall batches; returns how many the
    /// kernel accepted (the rest are counted dropped).
    pub fn flush(&mut self) -> usize {
        if self.outgoing.is_empty() {
            return 0;
        }
        let sent = self.io.send_batch(&self.outgoing);
        self.outgoing.clear();
        sent
    }

    /// Receives one burst, waiting up to `timeout` for the first
    /// datagram, and drains it by value — the caller feeds each datagram
    /// straight into `on_datagram` with no channel in between.
    pub fn pump_recv(&mut self, timeout: Duration) -> std::vec::Drain<'_, Datagram> {
        self.burst.clear();
        self.io.recv_batch(&mut self.burst, timeout);
        self.burst.drain(..)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use raincore_net::batch::BatchConfig;
    use raincore_net::Addr;
    use raincore_types::NodeId;
    use std::collections::HashMap;
    use std::net::SocketAddr;
    use std::time::Instant;

    fn loopback() -> SocketAddr {
        "127.0.0.1:0".parse().unwrap()
    }

    fn shard_pair(out_cap: usize) -> (IoShard, IoShard, Addr, Addr) {
        let a_addr = Addr::primary(NodeId(0));
        let b_addr = Addr::primary(NodeId(1));
        let cfg = BatchConfig::default();
        let mut a = BatchIo::bind(&[(a_addr, loopback())], HashMap::new(), cfg).unwrap();
        let mut b = BatchIo::bind(&[(b_addr, loopback())], HashMap::new(), cfg).unwrap();
        a.add_peer(b_addr, b.local_socket_addr(b_addr).unwrap());
        b.add_peer(a_addr, a.local_socket_addr(a_addr).unwrap());
        (
            IoShard::new(a, out_cap),
            IoShard::new(b, out_cap),
            a_addr,
            b_addr,
        )
    }

    #[test]
    fn enqueue_past_capacity_flushes_instead_of_growing() {
        let (mut a, _b, a_addr, b_addr) = shard_pair(4);
        for i in 0..10u8 {
            a.enqueue(Datagram::control(
                a_addr,
                b_addr,
                Bytes::copy_from_slice(&[i]),
            ));
            assert!(a.queued() <= 4, "queue stayed bounded");
        }
        // Two automatic flush-on-full flushes happened (at 4 and 8).
        assert_eq!(a.metrics().packets_sent.get(), 8);
        a.flush();
        assert_eq!(a.metrics().packets_sent.get(), 10);
        assert_eq!(a.queued(), 0);
    }

    #[test]
    fn burst_round_trips_by_value() {
        let (mut a, mut b, a_addr, b_addr) = shard_pair(64);
        for i in 0..20u8 {
            a.enqueue(Datagram::control(
                a_addr,
                b_addr,
                Bytes::copy_from_slice(&[i; 3]),
            ));
        }
        assert_eq!(a.flush(), 20);
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while got.len() < 20 && Instant::now() < deadline {
            got.extend(b.pump_recv(Duration::from_millis(50)));
        }
        assert_eq!(got.len(), 20);
        for (i, d) in got.iter().enumerate() {
            assert_eq!(&d.payload[..], &[i as u8; 3][..]);
        }
    }
}

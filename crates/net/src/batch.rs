//! Batched-syscall UDP I/O engine with buffer pooling.
//!
//! The protocol hot path costs a handful of allocations per hop;
//! crossing the kernel one `sendto`/`recvfrom` at a time would dominate
//! it. [`BatchIo`] is the only socket path in the tree:
//!
//! - **Receive** with `recvmmsg` into a reusable pool of pinned blocks.
//!   Each received datagram is a zero-copy [`Bytes`] slice of a pooled
//!   block (the PR-5 CoW discipline extended to the syscall boundary); a
//!   block returns to the pool and is rewritten only once every slice into
//!   it has been dropped (`Arc` strong count back to one).
//! - **Send** with `sendmmsg`, gathering every queued frame for a socket
//!   into one syscall, two iovecs per frame (stack-encoded wire header +
//!   the payload `Bytes` in place — no per-frame copy or allocation).
//! - **Wait** with one `poll(2)` across all owned sockets plus a loopback
//!   wake socket, so a driver thread can block on the network and still be
//!   roused instantly by a command ([`IoWaker`]).
//!
//! A portable scalar path ([`IoBackend::Scalar`]) does the same work with
//! one-datagram-at-a-time `std` socket calls; it is the only backend off
//! Linux and is byte-equivalent by construction (both paths share
//! `encode_wire_header`/[`decode_wire_shared`] and the pool-slot
//! truncation policy — proven in `tests/batch_equivalence.rs`).
//!
//! Everything is instrumented: syscalls and packets are counted
//! separately per direction so *syscalls-per-packet* is a first-class
//! metric, and per-flush batch sizes feed `raincore_io_batch_size`
//! histograms (see [`IoMetrics`]).

// The real-socket I/O engine: receive timeouts and flush timing are
// wall-clock by nature. `SimNet`, beside it, stays on virtual time.
#![allow(clippy::disallowed_types)]
// The one socket path: the engine binds its own wake sockets.
#![allow(clippy::disallowed_methods)]

use crate::addr::{Addr, Datagram};
use crate::udp::{decode_wire_shared, encode_wire, encode_wire_header, WIRE_HDR_MAX};
use bytes::Bytes;
use raincore_obs::{Counter, Histogram};
use std::collections::HashMap;
use std::net::{SocketAddr, UdpSocket};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[cfg(target_os = "linux")]
use crate::mmsg;
#[cfg(target_os = "linux")]
use std::os::fd::AsRawFd;

/// Which syscall strategy a [`BatchIo`] uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoBackend {
    /// `sendmmsg`/`recvmmsg`/`poll` batching (Linux only; requesting it
    /// elsewhere silently falls back to [`IoBackend::Scalar`]).
    Batched,
    /// Portable one-datagram-at-a-time `std` socket calls. Kept as the
    /// non-Linux fallback and as the reference `tests/batch_equivalence.rs`
    /// and the `bench_udp_pps` gate compare the batched backend against.
    Scalar,
}

impl IoBackend {
    /// The best backend available on this platform.
    pub fn default_for_platform() -> IoBackend {
        if cfg!(target_os = "linux") {
            IoBackend::Batched
        } else {
            IoBackend::Scalar
        }
    }
}

/// Tuning knobs for [`BatchIo`].
#[derive(Clone, Copy, Debug)]
pub struct BatchConfig {
    /// Maximum datagrams moved per `sendmmsg`/`recvmmsg` call.
    pub batch: usize,
    /// Bytes reserved per received datagram (one pool-block slot). A
    /// datagram longer than this is truncated by the kernel and then
    /// dropped by the wire decoder.
    pub slot: usize,
    /// Pool capacity in blocks (each `batch × slot` bytes). The pool
    /// grows past this transiently when receivers hold payload slices,
    /// but never retains more than this many blocks.
    pub pool_blocks: usize,
    /// Syscall strategy.
    pub backend: IoBackend,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            batch: 32,
            slot: 65_536,
            pool_blocks: 4,
            backend: IoBackend::default_for_platform(),
        }
    }
}

/// Shared I/O instrumentation handles. Cloning shares the underlying
/// atomics, so the runtime can hold one clone for `ObsDump` while the
/// pump thread records on another.
#[derive(Clone, Default)]
pub struct IoMetrics {
    /// `sendmmsg`/`send_to` calls issued.
    pub syscalls_send: Counter,
    /// `recvmmsg`/`recv_from` calls issued (successful, i.e. ≥1 datagram).
    pub syscalls_recv: Counter,
    /// `poll(2)` calls issued (batched backend only).
    pub syscalls_poll: Counter,
    /// Datagrams handed to the kernel.
    pub packets_sent: Counter,
    /// Datagrams received from the kernel (before wire decoding).
    pub packets_recv: Counter,
    /// Datagrams accepted per send syscall.
    pub send_batch: Histogram,
    /// Datagrams returned per recv syscall.
    pub recv_batch: Histogram,
    /// Frames dropped on the send side: unknown source/peer address, a
    /// kernel `WouldBlock`, or any other send error (UDP contract — the
    /// transport layer retransmits).
    pub send_dropped: Counter,
    /// Received datagrams dropped by the wire decoder (truncation,
    /// garbage header, foreign traffic).
    pub decode_dropped: Counter,
    /// Pool acquisitions satisfied by reusing a returned block.
    pub pool_reused: Counter,
    /// Pool acquisitions that had to allocate a fresh block.
    pub pool_grown: Counter,
}

impl IoMetrics {
    /// Fresh, zeroed instrumentation.
    pub fn new() -> Self {
        IoMetrics::default()
    }

    /// Syscalls per packet × 1000 (integer milli-units, so the gauge is
    /// exportable without floats). Counts send + recv + poll syscalls
    /// over send + recv packets; 0 when no packets moved yet.
    pub fn syscalls_per_packet_milli(&self) -> u64 {
        let syscalls =
            self.syscalls_send.get() + self.syscalls_recv.get() + self.syscalls_poll.get();
        let packets = self.packets_sent.get() + self.packets_recv.get();
        (syscalls * 1000).checked_div(packets).unwrap_or(0)
    }
}

/// Reusable receive blocks. A block leaves the pool with a strong count
/// of exactly one (sole ownership ⇒ writable via `Arc::get_mut`), gets
/// sliced into zero-copy payloads, and comes back with the slices still
/// outstanding; it becomes writable again only when every slice has
/// dropped. The pool never hands out a block something still reads.
struct BufferPool {
    blocks: Vec<Arc<[u8]>>,
    block_len: usize,
    max_blocks: usize,
    reused: Counter,
    grown: Counter,
}

impl BufferPool {
    fn new(block_len: usize, max_blocks: usize, metrics: &IoMetrics) -> Self {
        BufferPool {
            blocks: Vec::with_capacity(max_blocks),
            block_len,
            max_blocks: max_blocks.max(1),
            reused: metrics.pool_reused.clone(),
            grown: metrics.pool_grown.clone(),
        }
    }

    /// A block this caller exclusively owns (strong count == 1).
    fn acquire(&mut self) -> Arc<[u8]> {
        if let Some(pos) = self.blocks.iter().position(|b| Arc::strong_count(b) == 1) {
            self.reused.inc();
            return self.blocks.swap_remove(pos);
        }
        // Every retained block is still referenced by live payloads. Let
        // one go so a future release is retained instead — otherwise a
        // receiver that holds payloads long-term would permanently clog
        // the pool and end all reuse. Dropping our ref is free: the
        // block's memory lives on until its last payload slice drops.
        if self.blocks.len() >= self.max_blocks {
            self.blocks.swap_remove(0);
        }
        self.grown.inc();
        vec![0u8; self.block_len].into()
    }

    /// Returns a block (its payload slices may still be alive). Beyond
    /// capacity the block is dropped here and freed when the last slice
    /// goes.
    fn release(&mut self, block: Arc<[u8]>) {
        if self.blocks.len() < self.max_blocks {
            self.blocks.push(block);
        }
    }
}

/// A cloneable handle that interrupts a [`BatchIo::recv_batch`] wait from
/// another thread by poking the engine's loopback wake socket.
pub struct IoWaker {
    sock: UdpSocket,
    to: SocketAddr,
}

impl IoWaker {
    /// Wakes the engine if it is blocked waiting for datagrams. Cheap and
    /// best-effort (a lost wake only costs one poll timeout).
    pub fn wake(&self) {
        let _ = self.sock.send_to(&[1], self.to);
    }
}

impl Clone for IoWaker {
    fn clone(&self) -> Self {
        IoWaker {
            sock: self.sock.try_clone().expect("clone waker socket"),
            to: self.to,
        }
    }
}

#[cfg(target_os = "linux")]
struct Scratch {
    /// Stack images of each frame's wire header (send side).
    hdr_bufs: Vec<[u8; WIRE_HDR_MAX]>,
    /// Kernel sockaddr images per send slot.
    addrs: Vec<mmsg::SockAddr>,
    /// Two iovecs per send slot (header, payload).
    send_iov: Vec<mmsg::IoVec>,
    /// Send slot headers.
    send_hdrs: Vec<mmsg::MMsgHdr>,
    /// One iovec per recv slot.
    recv_iov: Vec<mmsg::IoVec>,
    /// Recv slot headers.
    recv_hdrs: Vec<mmsg::MMsgHdr>,
    /// Pollfd set, rebuilt in place per wait.
    pollfds: Vec<mmsg::PollFd>,
}

#[cfg(target_os = "linux")]
impl Scratch {
    fn new(batch: usize, nsocks: usize) -> Scratch {
        Scratch {
            hdr_bufs: vec![[0u8; WIRE_HDR_MAX]; batch],
            addrs: vec![mmsg::SockAddr::zero(); batch],
            send_iov: vec![mmsg::IoVec::zero(); batch * 2],
            send_hdrs: vec![mmsg::MMsgHdr::zero(); batch],
            recv_iov: vec![mmsg::IoVec::zero(); batch],
            recv_hdrs: vec![mmsg::MMsgHdr::zero(); batch],
            pollfds: Vec::with_capacity(nsocks + 1),
        }
    }
}

/// Batched UDP endpoint for one node: all of the node's sockets, a
/// receive buffer pool, and the send/recv scratch arrays, owned by one
/// pump thread (no internal threads, no internal channels).
pub struct BatchIo {
    sockets: Vec<(Addr, UdpSocket)>,
    index: HashMap<Addr, usize>,
    peers: HashMap<Addr, SocketAddr>,
    pool: BufferPool,
    metrics: IoMetrics,
    backend: IoBackend,
    batch: usize,
    slot: usize,
    wake_rx: UdpSocket,
    wake_to: SocketAddr,
    #[cfg(target_os = "linux")]
    scratch: Scratch,
}

impl BatchIo {
    /// Binds one socket per `(local logical addr, socket addr)` pair.
    /// Pass port `0` to let the OS choose (see
    /// [`BatchIo::local_socket_addr`]).
    pub fn bind(
        local: &[(Addr, SocketAddr)],
        peers: HashMap<Addr, SocketAddr>,
        cfg: BatchConfig,
    ) -> std::io::Result<Self> {
        crate::udp::UdpNet::bind(local, peers)?.into_batch_io(cfg)
    }

    pub(crate) fn from_parts(
        sockets: Vec<(Addr, UdpSocket)>,
        peers: HashMap<Addr, SocketAddr>,
        cfg: BatchConfig,
    ) -> std::io::Result<Self> {
        let backend = if cfg!(target_os = "linux") {
            cfg.backend
        } else {
            IoBackend::Scalar
        };
        let batch = cfg.batch.max(1);
        let slot = cfg.slot.max(64);
        let mut index = HashMap::with_capacity(sockets.len());
        for (i, (laddr, sock)) in sockets.iter().enumerate() {
            sock.set_nonblocking(true)?;
            index.insert(*laddr, i);
        }
        let wake_rx = UdpSocket::bind("127.0.0.1:0")?;
        wake_rx.set_nonblocking(true)?;
        let wake_to = wake_rx.local_addr()?;
        let metrics = IoMetrics::new();
        let pool = BufferPool::new(batch * slot, cfg.pool_blocks, &metrics);
        #[cfg(target_os = "linux")]
        let scratch = Scratch::new(batch, sockets.len());
        Ok(BatchIo {
            sockets,
            index,
            peers,
            pool,
            metrics,
            backend,
            batch,
            slot,
            wake_rx,
            wake_to,
            #[cfg(target_os = "linux")]
            scratch,
        })
    }

    /// The OS socket address actually bound for a local logical address.
    pub fn local_socket_addr(&self, addr: Addr) -> Option<SocketAddr> {
        let &i = self.index.get(&addr)?;
        self.sockets[i].1.local_addr().ok()
    }

    /// Registers (or updates) the socket address of a peer's logical
    /// address.
    pub fn add_peer(&mut self, addr: Addr, saddr: SocketAddr) {
        self.peers.insert(addr, saddr);
    }

    /// The instrumentation handles (cloneable; see [`IoMetrics`]).
    pub fn metrics(&self) -> &IoMetrics {
        &self.metrics
    }

    /// The backend actually in use after platform fallback.
    pub fn backend(&self) -> IoBackend {
        self.backend
    }

    /// A handle other threads can use to interrupt [`BatchIo::recv_batch`].
    pub fn waker(&self) -> std::io::Result<IoWaker> {
        let sock = UdpSocket::bind("127.0.0.1:0")?;
        Ok(IoWaker {
            sock,
            to: self.wake_to,
        })
    }

    /// Sends every frame in `frames`, batching consecutive frames that
    /// share a source socket into single `sendmmsg` calls (scalar
    /// backend: one `send_to` each). Returns the number of frames the
    /// kernel accepted; the rest were dropped and counted in
    /// [`IoMetrics::send_dropped`] — UDP semantics, the transport layer's
    /// retransmission handles the gap.
    pub fn send_batch(&mut self, frames: &[Datagram]) -> usize {
        if frames.is_empty() {
            return 0;
        }
        match self.backend {
            #[cfg(target_os = "linux")]
            IoBackend::Batched => self.send_batched(frames),
            _ => self.send_scalar(frames),
        }
    }

    /// Receives a burst of datagrams into `out`, waiting up to `timeout`
    /// for the first one (a zero timeout never blocks). Returns how many
    /// were appended. Datagrams that fail wire decoding (garbage,
    /// truncation, foreign traffic) are dropped and counted.
    pub fn recv_batch(&mut self, out: &mut Vec<Datagram>, timeout: Duration) -> usize {
        match self.backend {
            #[cfg(target_os = "linux")]
            IoBackend::Batched => self.recv_batched(out, timeout),
            _ => self.recv_scalar(out, timeout),
        }
    }

    fn drain_wake(&self) {
        let mut buf = [0u8; 8];
        while self.wake_rx.recv_from(&mut buf).is_ok() {}
    }

    // ---- batched backend (Linux) -------------------------------------

    #[cfg(target_os = "linux")]
    fn send_batched(&mut self, frames: &[Datagram]) -> usize {
        let mut accepted = 0;
        let mut i = 0;
        while i < frames.len() {
            let Some(&si) = self.index.get(&frames[i].src) else {
                self.metrics.send_dropped.inc();
                i += 1;
                continue;
            };
            // Fill send slots with the run of frames on this socket.
            let mut n = 0;
            while i < frames.len() && n < self.batch {
                let d = &frames[i];
                match self.index.get(&d.src) {
                    Some(&s) if s == si => {}
                    _ => break, // socket changed — flush what we have
                }
                let Some(&to) = self.peers.get(&d.dst) else {
                    self.metrics.send_dropped.inc();
                    i += 1;
                    continue;
                };
                let hlen = encode_wire_header(d, &mut self.scratch.hdr_bufs[n]);
                self.scratch.addrs[n] = mmsg::SockAddr::from_socket_addr(&to);
                self.scratch.send_iov[2 * n] = mmsg::IoVec {
                    base: self.scratch.hdr_bufs[n].as_mut_ptr(),
                    len: hlen,
                };
                self.scratch.send_iov[2 * n + 1] = mmsg::IoVec {
                    base: d.payload.as_ptr() as *mut u8,
                    len: d.payload.len(),
                };
                let mh = &mut self.scratch.send_hdrs[n];
                *mh = mmsg::MMsgHdr::zero();
                mh.hdr.name = self.scratch.addrs[n].as_ptr();
                mh.hdr.namelen = self.scratch.addrs[n].len();
                mh.hdr.iov = &mut self.scratch.send_iov[2 * n];
                mh.hdr.iovlen = if d.payload.is_empty() { 1 } else { 2 };
                n += 1;
                i += 1;
            }
            if n > 0 {
                accepted += self.flush_send(si, n);
            }
        }
        accepted
    }

    /// One or more `sendmmsg` calls over the first `n` filled send slots.
    #[cfg(target_os = "linux")]
    fn flush_send(&mut self, si: usize, n: usize) -> usize {
        let fd = self.sockets[si].1.as_raw_fd();
        let mut done = 0;
        while done < n {
            match mmsg::send_many(fd, &mut self.scratch.send_hdrs[done..n]) {
                Ok(0) => break,
                Ok(k) => {
                    self.metrics.syscalls_send.inc();
                    self.metrics.packets_sent.add(k as u64);
                    self.metrics.send_batch.record(k as u64);
                    done += k;
                }
                Err(_) => {
                    // WouldBlock (socket buffer full) or a routing error:
                    // drop the remainder. UDP makes no delivery promise
                    // here either way.
                    break;
                }
            }
        }
        if done < n {
            self.metrics.send_dropped.add((n - done) as u64);
        }
        done
    }

    #[cfg(target_os = "linux")]
    fn recv_batched(&mut self, out: &mut Vec<Datagram>, timeout: Duration) -> usize {
        self.scratch.pollfds.clear();
        for (_, sock) in &self.sockets {
            self.scratch.pollfds.push(mmsg::PollFd {
                fd: sock.as_raw_fd(),
                events: mmsg::POLLIN,
                revents: 0,
            });
        }
        self.scratch.pollfds.push(mmsg::PollFd {
            fd: self.wake_rx.as_raw_fd(),
            events: mmsg::POLLIN,
            revents: 0,
        });
        let mut ms = timeout.as_millis().min(i32::MAX as u128) as i32;
        if ms == 0 && !timeout.is_zero() {
            ms = 1;
        }
        self.metrics.syscalls_poll.inc();
        let ready = match mmsg::poll_read(&mut self.scratch.pollfds, ms) {
            Ok(r) => r,
            Err(_) => return 0,
        };
        if ready == 0 {
            return 0;
        }
        let wake_ready = self.scratch.pollfds[self.sockets.len()].revents & mmsg::POLLIN != 0;
        if wake_ready {
            self.drain_wake();
        }
        let mut got = 0;
        for si in 0..self.sockets.len() {
            if self.scratch.pollfds[si].revents & mmsg::POLLIN == 0 {
                continue;
            }
            got += self.drain_socket_batched(si, out);
        }
        got
    }

    /// `recvmmsg` one socket until it reports empty.
    #[cfg(target_os = "linux")]
    fn drain_socket_batched(&mut self, si: usize, out: &mut Vec<Datagram>) -> usize {
        let local = self.sockets[si].0;
        let fd = self.sockets[si].1.as_raw_fd();
        let slot = self.slot;
        let nslots = self.batch;
        let mut got = 0;
        loop {
            let mut block = self.pool.acquire();
            {
                let buf = Arc::get_mut(&mut block).expect("pool block uniquely owned");
                for (j, chunk) in buf.chunks_mut(slot).take(nslots).enumerate() {
                    self.scratch.recv_iov[j] = mmsg::IoVec {
                        base: chunk.as_mut_ptr(),
                        len: slot.min(chunk.len()),
                    };
                    let mh = &mut self.scratch.recv_hdrs[j];
                    *mh = mmsg::MMsgHdr::zero();
                    mh.hdr.iov = &mut self.scratch.recv_iov[j];
                    mh.hdr.iovlen = 1;
                }
            }
            let k = match mmsg::recv_many(fd, &mut self.scratch.recv_hdrs[..nslots]) {
                Ok(k) => k,
                Err(_) => {
                    // WouldBlock: the socket is drained.
                    self.pool.release(block);
                    return got;
                }
            };
            if k == 0 {
                self.pool.release(block);
                return got;
            }
            self.metrics.syscalls_recv.inc();
            self.metrics.packets_recv.add(k as u64);
            self.metrics.recv_batch.record(k as u64);
            for j in 0..k {
                let len = (self.scratch.recv_hdrs[j].len as usize).min(slot);
                let view = Bytes::from_owner(block.clone()).slice(j * slot..j * slot + len);
                match decode_wire_shared(&view, local) {
                    Some(d) => {
                        out.push(d);
                        got += 1;
                    }
                    None => self.metrics.decode_dropped.inc(),
                }
            }
            self.pool.release(block);
            if k < nslots {
                return got;
            }
        }
    }

    // ---- scalar backend (portable fallback / equivalence reference) ---

    fn send_scalar(&mut self, frames: &[Datagram]) -> usize {
        let mut accepted = 0;
        for d in frames {
            let Some(&si) = self.index.get(&d.src) else {
                self.metrics.send_dropped.inc();
                continue;
            };
            let Some(&to) = self.peers.get(&d.dst) else {
                self.metrics.send_dropped.inc();
                continue;
            };
            match self.sockets[si].1.send_to(&encode_wire(d), to) {
                Ok(_) => {
                    self.metrics.syscalls_send.inc();
                    self.metrics.packets_sent.inc();
                    self.metrics.send_batch.record(1);
                    accepted += 1;
                }
                Err(_) => self.metrics.send_dropped.inc(),
            }
        }
        accepted
    }

    fn recv_scalar(&mut self, out: &mut Vec<Datagram>, timeout: Duration) -> usize {
        let deadline = (!timeout.is_zero()).then(|| Instant::now() + timeout);
        loop {
            self.drain_wake();
            let got = self.recv_scalar_pass(out);
            if got > 0 {
                return got;
            }
            match deadline {
                Some(d) if Instant::now() < d => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                _ => return 0,
            }
        }
    }

    /// One non-blocking sweep over every socket, single datagram per
    /// syscall. Each datagram still lands in a pool slot so the
    /// truncation policy and zero-copy decode are identical to the
    /// batched path.
    fn recv_scalar_pass(&mut self, out: &mut Vec<Datagram>) -> usize {
        let slot = self.slot;
        let mut got = 0;
        for si in 0..self.sockets.len() {
            let local = self.sockets[si].0;
            loop {
                let mut block = self.pool.acquire();
                let buf = Arc::get_mut(&mut block).expect("pool block uniquely owned");
                let n = match self.sockets[si].1.recv_from(&mut buf[..slot]) {
                    Ok((n, _from)) => n,
                    Err(_) => {
                        self.pool.release(block);
                        break;
                    }
                };
                self.metrics.syscalls_recv.inc();
                self.metrics.packets_recv.inc();
                self.metrics.recv_batch.record(1);
                let view = Bytes::from_owner(block.clone()).slice(..n.min(slot));
                match decode_wire_shared(&view, local) {
                    Some(d) => {
                        out.push(d);
                        got += 1;
                    }
                    None => self.metrics.decode_dropped.inc(),
                }
                self.pool.release(block);
            }
        }
        got
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raincore_types::NodeId;

    fn loopback() -> SocketAddr {
        "127.0.0.1:0".parse().unwrap()
    }

    fn pair(backend: IoBackend) -> (BatchIo, BatchIo, Addr, Addr) {
        let a_addr = Addr::primary(NodeId(0));
        let b_addr = Addr::primary(NodeId(1));
        let cfg = BatchConfig {
            backend,
            ..BatchConfig::default()
        };
        let mut a = BatchIo::bind(&[(a_addr, loopback())], HashMap::new(), cfg).unwrap();
        let mut b = BatchIo::bind(&[(b_addr, loopback())], HashMap::new(), cfg).unwrap();
        a.add_peer(b_addr, b.local_socket_addr(b_addr).unwrap());
        b.add_peer(a_addr, a.local_socket_addr(a_addr).unwrap());
        (a, b, a_addr, b_addr)
    }

    fn exchange(backend: IoBackend) {
        let (mut a, mut b, a_addr, b_addr) = pair(backend);
        let frames: Vec<Datagram> = (0..5u8)
            .map(|i| Datagram::control(a_addr, b_addr, Bytes::copy_from_slice(&[i; 10])))
            .collect();
        assert_eq!(a.send_batch(&frames), 5);
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while got.len() < 5 && Instant::now() < deadline {
            b.recv_batch(&mut got, Duration::from_millis(50));
        }
        assert_eq!(got.len(), 5);
        for (i, d) in got.iter().enumerate() {
            assert_eq!(d.src, a_addr);
            assert_eq!(d.dst, b_addr);
            assert_eq!(&d.payload[..], &[i as u8; 10][..]);
        }
        assert_eq!(a.metrics().packets_sent.get(), 5);
        assert_eq!(b.metrics().packets_recv.get(), 5);
        if backend == IoBackend::Batched && cfg!(target_os = "linux") {
            // The whole burst fit one sendmmsg.
            assert_eq!(a.metrics().syscalls_send.get(), 1);
        }
    }

    #[test]
    fn batched_round_trip() {
        exchange(IoBackend::Batched);
    }

    #[test]
    fn scalar_round_trip() {
        exchange(IoBackend::Scalar);
    }

    #[test]
    fn unknown_addrs_are_counted_drops() {
        let (mut a, _b, a_addr, _) = pair(IoBackend::default_for_platform());
        let unknown = Addr::primary(NodeId(99));
        let sent = a.send_batch(&[
            Datagram::control(a_addr, unknown, Bytes::from_static(b"x")),
            Datagram::control(unknown, a_addr, Bytes::from_static(b"y")),
        ]);
        assert_eq!(sent, 0);
        assert_eq!(a.metrics().send_dropped.get(), 2);
    }

    #[test]
    fn waker_interrupts_wait() {
        let (mut a, _b, _, _) = pair(IoBackend::default_for_platform());
        let waker = a.waker().unwrap();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            waker.wake();
        });
        let t0 = Instant::now();
        let mut out = Vec::new();
        a.recv_batch(&mut out, Duration::from_secs(10));
        assert!(t0.elapsed() < Duration::from_secs(9));
        assert!(out.is_empty());
        h.join().unwrap();
    }

    #[test]
    fn empty_payload_frame_survives() {
        let (mut a, mut b, a_addr, b_addr) = pair(IoBackend::default_for_platform());
        a.send_batch(&[Datagram::control(a_addr, b_addr, Bytes::new())]);
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while got.is_empty() && Instant::now() < deadline {
            b.recv_batch(&mut got, Duration::from_millis(50));
        }
        assert_eq!(got.len(), 1);
        assert!(got[0].payload.is_empty());
    }
}

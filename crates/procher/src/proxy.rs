//! Userspace loss-injecting UDP proxy.
//!
//! Every harness child is told that peer `N` lives at the proxy's socket
//! for `N`; the proxy receives each packet, consults its fault state, and
//! forwards the bytes unchanged to the *real* socket of `N`. No header
//! rewriting is needed: the wire format carries the logical source
//! in-band and the destination is the receiving socket
//! ([`raincore_net::decode_wire`]), so a forwarded datagram is
//! indistinguishable from a direct one.
//!
//! Fault state mirrors the simulator's chaos vocabulary
//! ([`raincore_sim::ChaosFault`]):
//!
//! * **dials** — seeded i.i.d. drop / duplicate / reorder probabilities
//!   (permille) plus a uniform added delay, applied per packet;
//! * **links** — pairwise cuts ([`LossProxy::set_link`]), whole-node
//!   unplugs ([`LossProxy::set_node`], the 1-NIC equivalent of the §2.1
//!   cable pull) and full partitions ([`LossProxy::partition`]);
//! * **heal** — restores every pairwise cut and partition but *not*
//!   unplugged nodes, matching `ChaosFault::Heal` semantics;
//! * **stall** — one shot: every datagram to and from one node is held
//!   for a while and then released in the order it came
//!   ([`LossProxy::stall`]; [`LossProxy::stall_next`] picks the node as
//!   `ChaosFault::DelaySpike` picks its link, by the next datagram). An
//!   unplug loses what a stall only keeps waiting.
//!
//! All rolls come from one seeded RNG behind the state mutex, so a run's
//! packet fate sequence is reproducible up to OS packet timing.

// Real-time UDP proxy: delay injection is wall-clock by design, and its
// stop/pause flags are shared with the relay threads.
#![allow(clippy::disallowed_types)]

use raincore_net::{decode_wire, Addr};
use raincore_types::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering as CmpOrdering;
use std::collections::{BTreeSet, BinaryHeap, HashMap};
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const MAX_DGRAM: usize = 65_536;
const READ_TIMEOUT: Duration = Duration::from_millis(20);

/// Per-packet injection probabilities (permille) and added delay.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProxyDials {
    /// Probability of dropping a packet, in thousandths.
    pub drop_permille: u32,
    /// Probability of duplicating a packet, in thousandths.
    pub dup_permille: u32,
    /// Probability of holding a packet back (reordering it behind its
    /// successors), in thousandths.
    pub reorder_permille: u32,
    /// Fixed extra one-way delay applied to every packet, microseconds.
    pub delay_us: u64,
    /// Extra drop probability (thousandths) applied *only* to
    /// out-of-band bulk payload frames (DESIGN.md §13), on top of
    /// `drop_permille` — the real-socket analogue of
    /// `ChaosFault::BulkLoss`.
    pub bulk_drop_permille: u32,
}

/// Counters of what the proxy did to traffic (monotonic over the run).
#[derive(Clone, Copy, Debug, Default)]
pub struct ProxyStats {
    /// Packets forwarded (including duplicates and delayed sends).
    pub forwarded: u64,
    /// Packets dropped by the loss dial.
    pub dropped_loss: u64,
    /// Bulk frames dropped by the targeted bulk-loss dial.
    pub dropped_bulk: u64,
    /// Packets dropped by a link cut, node unplug or partition.
    pub dropped_blocked: u64,
    /// Extra copies injected by the duplication dial.
    pub duplicated: u64,
    /// Packets held back by the reorder/delay dials.
    pub delayed: u64,
    /// Packets held by a one-shot stall of their sender or receiver.
    pub stalled: u64,
    /// Datagrams that did not decode as Raincore wire traffic.
    pub undecodable: u64,
}

struct State {
    dests: HashMap<NodeId, SocketAddr>,
    pairs_down: BTreeSet<(NodeId, NodeId)>,
    nodes_down: BTreeSet<NodeId>,
    partition: Option<Vec<BTreeSet<NodeId>>>,
    /// Nodes whose traffic is held, and until when.
    stalls: HashMap<NodeId, Instant>,
    /// A stall waiting for the next datagram to name its node.
    stall_next: Option<Duration>,
    dials: ProxyDials,
    rng: StdRng,
    stats: ProxyStats,
}

impl State {
    fn connected(&self, a: NodeId, b: NodeId) -> bool {
        if self.nodes_down.contains(&a) || self.nodes_down.contains(&b) {
            return false;
        }
        let key = if a <= b { (a, b) } else { (b, a) };
        if self.pairs_down.contains(&key) {
            return false;
        }
        match &self.partition {
            None => true,
            Some(groups) => {
                let ga = groups.iter().position(|g| g.contains(&a));
                let gb = groups.iter().position(|g| g.contains(&b));
                // A node listed in no group is cut off from everyone.
                ga.is_some() && ga == gb
            }
        }
    }
}

struct Delayed {
    due: Instant,
    seq: u64,
    buf: Vec<u8>,
    to: SocketAddr,
}

// Min-heap on (due, seq): BinaryHeap is a max-heap, so order is reversed.
impl PartialEq for Delayed {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for Delayed {}
impl PartialOrd for Delayed {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for Delayed {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        (other.due, other.seq).cmp(&(self.due, self.seq))
    }
}

/// The proxy: one inbound socket per logical node, a shared outbound
/// socket, reader threads and a delay pump.
pub struct LossProxy {
    addrs: HashMap<NodeId, SocketAddr>,
    state: Arc<Mutex<State>>,
    delay_q: Arc<(Mutex<BinaryHeap<Delayed>>, Condvar)>,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl LossProxy {
    /// Binds one loopback socket per node in `ids` plus the shared
    /// outbound socket, and starts the forwarding threads. `seed` fixes
    /// the packet-fate RNG.
    pub fn bind(ids: &[NodeId], seed: u64) -> std::io::Result<LossProxy> {
        let state = Arc::new(Mutex::new(State {
            dests: HashMap::new(),
            pairs_down: BTreeSet::new(),
            nodes_down: BTreeSet::new(),
            partition: None,
            stalls: HashMap::new(),
            stall_next: None,
            dials: ProxyDials::default(),
            rng: StdRng::seed_from_u64(seed ^ 0x70726F_63686572), // "procher"
            stats: ProxyStats::default(),
        }));
        let delay_q: Arc<(Mutex<BinaryHeap<Delayed>>, Condvar)> =
            Arc::new((Mutex::new(BinaryHeap::new()), Condvar::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let out = Arc::new(UdpSocket::bind("127.0.0.1:0")?);
        let mut addrs = HashMap::new();
        let mut threads = Vec::new();
        for &id in ids {
            let sock = UdpSocket::bind("127.0.0.1:0")?;
            sock.set_read_timeout(Some(READ_TIMEOUT))?;
            addrs.insert(id, sock.local_addr()?);
            threads.push(spawn_reader(
                sock,
                id,
                state.clone(),
                delay_q.clone(),
                out.clone(),
                stop.clone(),
            ));
        }
        threads.push(spawn_pump(delay_q.clone(), out, stop.clone()));
        Ok(LossProxy {
            addrs,
            state,
            delay_q,
            stop,
            threads,
        })
    }

    /// The proxy socket that stands in for node `id` — what every *other*
    /// node should use as `id`'s address.
    pub fn proxy_addr(&self, id: NodeId) -> Option<SocketAddr> {
        self.addrs.get(&id).copied()
    }

    /// Registers (or updates, after a restart) the real socket of `id`.
    pub fn set_dest(&self, id: NodeId, saddr: SocketAddr) {
        self.state.lock().unwrap().dests.insert(id, saddr);
    }

    /// Replaces the injection dials.
    pub fn set_dials(&self, dials: ProxyDials) {
        self.state.lock().unwrap().dials = dials;
    }

    /// Cuts (`up == false`) or restores one bidirectional link.
    pub fn set_link(&self, a: NodeId, b: NodeId, up: bool) {
        let key = if a <= b { (a, b) } else { (b, a) };
        let mut s = self.state.lock().unwrap();
        if up {
            s.pairs_down.remove(&key);
        } else {
            s.pairs_down.insert(key);
        }
    }

    /// Unplugs (`up == false`) or re-plugs a whole node — the single-NIC
    /// equivalent of pulling its cable.
    pub fn set_node(&self, id: NodeId, up: bool) {
        let mut s = self.state.lock().unwrap();
        if up {
            s.nodes_down.remove(&id);
        } else {
            s.nodes_down.insert(id);
        }
    }

    /// Partitions the cluster into `groups`; packets cross group
    /// boundaries (or leave unlisted nodes) only after [`Self::heal`].
    pub fn partition(&self, groups: &[Vec<NodeId>]) {
        let groups: Vec<BTreeSet<NodeId>> =
            groups.iter().map(|g| g.iter().copied().collect()).collect();
        self.state.lock().unwrap().partition = Some(groups);
    }

    /// Restores every pairwise cut and the partition. Unplugged nodes
    /// stay unplugged (matching `ChaosFault::Heal`).
    pub fn heal(&self) {
        let mut s = self.state.lock().unwrap();
        s.pairs_down.clear();
        s.partition = None;
    }

    /// Holds every datagram to and from `id` until `length` from now,
    /// then releases them in the order they came: what the peers of a
    /// node whose host stopped running it see, where [`Self::set_node`]
    /// is a pulled cable. One shot; a new stall of `id` replaces one
    /// still running.
    pub fn stall(&self, id: NodeId, length: Duration) {
        let mut s = self.state.lock().unwrap();
        s.stalls.insert(id, Instant::now() + length);
    }

    /// Arms a [`Self::stall`] of whichever node sends the next datagram
    /// — `ChaosFault::DelaySpike` on real sockets, the node standing in
    /// for the link the simulator stalls.
    pub fn stall_next(&self, length: Duration) {
        self.state.lock().unwrap().stall_next = Some(length);
    }

    /// Snapshot of the traffic counters.
    pub fn stats(&self) -> ProxyStats {
        self.state.lock().unwrap().stats
    }
}

impl Drop for LossProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.delay_q.1.notify_all();
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
    }
}

/// The forwarding decision for one received packet, computed under the
/// state lock and executed outside it.
enum Fate {
    Drop,
    Forward {
        to: SocketAddr,
        copies: u32,
        delay: Duration,
        /// A stall holds the packet until then; `delay` counts from it.
        not_before: Option<Instant>,
    },
}

fn decide(state: &mut State, src: NodeId, dst: NodeId, is_bulk: bool) -> Fate {
    let Some(&to) = state.dests.get(&dst) else {
        state.stats.dropped_blocked += 1;
        return Fate::Drop;
    };
    if !state.connected(src, dst) {
        state.stats.dropped_blocked += 1;
        return Fate::Drop;
    }
    let dials = state.dials;
    let roll =
        |rng: &mut StdRng, permille: u32| permille > 0 && rng.random_range(0u32..1000) < permille;
    // The targeted dial draws only for bulk frames, so enabling it never
    // perturbs the fate sequence of the rest of the traffic.
    if is_bulk && roll(&mut state.rng, dials.bulk_drop_permille) {
        state.stats.dropped_bulk += 1;
        return Fate::Drop;
    }
    if roll(&mut state.rng, dials.drop_permille) {
        state.stats.dropped_loss += 1;
        return Fate::Drop;
    }
    let mut copies = 1;
    if roll(&mut state.rng, dials.dup_permille) {
        copies = 2;
        state.stats.duplicated += 1;
    }
    let mut delay = Duration::from_micros(dials.delay_us);
    if roll(&mut state.rng, dials.reorder_permille) {
        // Hold this packet back while its successors pass.
        delay += Duration::from_micros(state.rng.random_range(500..4_000));
    }
    if !delay.is_zero() {
        state.stats.delayed += 1;
    }
    let now = Instant::now();
    if let Some(length) = state.stall_next.take() {
        state.stalls.insert(src, now + length);
    }
    state.stalls.retain(|_, until| *until > now);
    let held = |n: &NodeId| state.stalls.get(n).copied();
    let not_before = held(&src).max(held(&dst));
    state.stats.stalled += u64::from(not_before.is_some());
    state.stats.forwarded += u64::from(copies);
    Fate::Forward {
        to,
        copies,
        delay,
        not_before,
    }
}

fn spawn_reader(
    sock: UdpSocket,
    dst: NodeId,
    state: Arc<Mutex<State>>,
    delay_q: Arc<(Mutex<BinaryHeap<Delayed>>, Condvar)>,
    out: Arc<UdpSocket>,
    stop: Arc<AtomicBool>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("procher-proxy-{dst}"))
        .spawn(move || {
            let mut buf = vec![0u8; MAX_DGRAM];
            let mut seq = 0u64;
            while !stop.load(Ordering::SeqCst) {
                let n = match sock.recv_from(&mut buf) {
                    Ok((n, _)) => n,
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        continue;
                    }
                    Err(_) => return,
                };
                let fate = {
                    let mut s = state.lock().unwrap();
                    match decode_wire(&buf[..n], Addr::primary(dst)) {
                        None => {
                            s.stats.undecodable += 1;
                            Fate::Drop
                        }
                        Some(d) => {
                            let is_bulk = raincore_sim::is_bulk_frame(&d.payload);
                            decide(&mut s, d.src.node, dst, is_bulk)
                        }
                    }
                };
                let Fate::Forward {
                    to,
                    copies,
                    delay,
                    not_before,
                } = fate
                else {
                    continue;
                };
                for _ in 0..copies {
                    if delay.is_zero() && not_before.is_none() {
                        let _ = out.send_to(&buf[..n], to);
                    } else {
                        // Everything a stall holds for this node falls due
                        // at one instant, and leaves in `seq` order.
                        seq += 1;
                        let mut q = delay_q.0.lock().unwrap();
                        q.push(Delayed {
                            due: not_before.unwrap_or_else(Instant::now) + delay,
                            seq,
                            buf: buf[..n].to_vec(),
                            to,
                        });
                        delay_q.1.notify_one();
                    }
                }
            }
        })
        .expect("spawn proxy reader thread")
}

fn spawn_pump(
    delay_q: Arc<(Mutex<BinaryHeap<Delayed>>, Condvar)>,
    out: Arc<UdpSocket>,
    stop: Arc<AtomicBool>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("procher-proxy-pump".to_string())
        .spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                let mut due: Vec<Delayed> = Vec::new();
                {
                    let mut q = delay_q.0.lock().unwrap();
                    let now = Instant::now();
                    while q.peek().is_some_and(|d| d.due <= now) {
                        due.push(q.pop().expect("peeked"));
                    }
                    if due.is_empty() {
                        let wait = q
                            .peek()
                            .map(|d| d.due.saturating_duration_since(now))
                            .unwrap_or(Duration::from_millis(5))
                            .min(Duration::from_millis(5));
                        let _ = delay_q.1.wait_timeout(q, wait);
                    }
                }
                for d in due {
                    // Already counted as forwarded when queued.
                    let _ = out.send_to(&d.buf, d.to);
                }
            }
        })
        .expect("spawn proxy pump thread")
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use raincore_net::{encode_wire, Datagram};

    fn wire(src: u32, payload: &'static [u8]) -> Vec<u8> {
        encode_wire(&Datagram::control(
            Addr::primary(NodeId(src)),
            Addr::primary(NodeId(99)), // dst is not on the wire
            Bytes::from_static(payload),
        ))
        .to_vec()
    }

    fn recv_on(sock: &UdpSocket) -> Option<Vec<u8>> {
        let mut buf = [0u8; 1500];
        sock.set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        sock.recv_from(&mut buf)
            .ok()
            .map(|(n, _)| buf[..n].to_vec())
    }

    #[test]
    fn forwards_unchanged_and_respects_blocks() {
        let ids = [NodeId(0), NodeId(1)];
        let proxy = LossProxy::bind(&ids, 7).expect("bind proxy");
        let dest = UdpSocket::bind("127.0.0.1:0").expect("bind dest");
        proxy.set_dest(NodeId(1), dest.local_addr().unwrap());
        let sender = UdpSocket::bind("127.0.0.1:0").expect("bind sender");
        let to = proxy.proxy_addr(NodeId(1)).unwrap();

        let pkt = wire(0, b"hello");
        sender.send_to(&pkt, to).unwrap();
        assert_eq!(recv_on(&dest).as_deref(), Some(&pkt[..]));

        // A pairwise cut blocks 0 -> 1; healing restores it.
        proxy.set_link(NodeId(0), NodeId(1), false);
        std::thread::sleep(Duration::from_millis(10));
        sender.send_to(&pkt, to).unwrap();
        assert_eq!(recv_on(&dest), None);
        proxy.heal();
        std::thread::sleep(Duration::from_millis(10));
        sender.send_to(&pkt, to).unwrap();
        assert_eq!(recv_on(&dest).as_deref(), Some(&pkt[..]));

        // A partition separating 0 and 1 blocks; heal restores.
        proxy.partition(&[vec![NodeId(0)], vec![NodeId(1)]]);
        std::thread::sleep(Duration::from_millis(10));
        sender.send_to(&pkt, to).unwrap();
        assert_eq!(recv_on(&dest), None);
        proxy.heal();

        // A node unplug survives heal.
        proxy.set_node(NodeId(1), false);
        proxy.heal();
        std::thread::sleep(Duration::from_millis(10));
        sender.send_to(&pkt, to).unwrap();
        assert_eq!(recv_on(&dest), None);
        proxy.set_node(NodeId(1), true);
        std::thread::sleep(Duration::from_millis(10));
        sender.send_to(&pkt, to).unwrap();
        assert_eq!(recv_on(&dest).as_deref(), Some(&pkt[..]));

        let stats = proxy.stats();
        assert_eq!(stats.forwarded, 3);
        assert_eq!(stats.dropped_blocked, 3);
    }

    #[test]
    fn full_drop_dial_drops_everything() {
        let proxy = LossProxy::bind(&[NodeId(1)], 7).expect("bind proxy");
        let dest = UdpSocket::bind("127.0.0.1:0").expect("bind dest");
        proxy.set_dest(NodeId(1), dest.local_addr().unwrap());
        proxy.set_dials(ProxyDials {
            drop_permille: 1000,
            ..ProxyDials::default()
        });
        let sender = UdpSocket::bind("127.0.0.1:0").expect("bind sender");
        let to = proxy.proxy_addr(NodeId(1)).unwrap();
        for _ in 0..20 {
            sender.send_to(&wire(0, b"x"), to).unwrap();
        }
        assert_eq!(recv_on(&dest), None);
        assert_eq!(proxy.stats().dropped_loss, 20);
    }

    /// Builds a genuine out-of-band bulk payload frame on the wire: a
    /// `SessionMsg::Bulk` inside a single-fragment transport DATA frame,
    /// wrapped in a wire datagram — exactly what
    /// [`raincore_sim::is_bulk_frame`] matches in the simulator.
    fn bulk_wire(src: u32) -> Vec<u8> {
        use raincore::transport::Frame;
        use raincore_types::messages::{BulkData, SessionMsg};
        use raincore_types::wire::WireEncode;
        use raincore_types::{Incarnation, MsgId, OriginSeq};
        let msg = SessionMsg::Bulk(BulkData {
            origin: NodeId(src),
            seq: OriginSeq(1),
            payload: Bytes::from(vec![0xAB; 64]),
        });
        let frame = Frame::Data {
            from: NodeId(src),
            inc: Incarnation::FIRST,
            msg_id: MsgId(1),
            frag_index: 0,
            frag_count: 1,
            reliable: false,
            payload: msg.encode_to_bytes(),
        };
        encode_wire(&Datagram::control(
            Addr::primary(NodeId(src)),
            Addr::primary(NodeId(99)),
            frame.encode_to_bytes(),
        ))
        .to_vec()
    }

    /// The targeted bulk-loss dial kills every bulk payload frame while
    /// ordinary traffic sails through untouched — the real-socket
    /// analogue of `ChaosFault::BulkLoss` at 1000‰.
    #[test]
    fn bulk_dial_drops_only_bulk_frames() {
        let proxy = LossProxy::bind(&[NodeId(1)], 7).expect("bind proxy");
        let dest = UdpSocket::bind("127.0.0.1:0").expect("bind dest");
        proxy.set_dest(NodeId(1), dest.local_addr().unwrap());
        proxy.set_dials(ProxyDials {
            bulk_drop_permille: 1000,
            ..ProxyDials::default()
        });
        let sender = UdpSocket::bind("127.0.0.1:0").expect("bind sender");
        let to = proxy.proxy_addr(NodeId(1)).unwrap();

        // Bulk frames: all dropped by the targeted dial.
        for _ in 0..10 {
            sender.send_to(&bulk_wire(0), to).unwrap();
        }
        assert_eq!(recv_on(&dest), None);
        assert_eq!(proxy.stats().dropped_bulk, 10);

        // Non-bulk traffic is untouched even at 1000‰ bulk loss.
        let pkt = wire(0, b"token");
        sender.send_to(&pkt, to).unwrap();
        assert_eq!(recv_on(&dest).as_deref(), Some(&pkt[..]));
        let stats = proxy.stats();
        assert_eq!(stats.forwarded, 1);
        assert_eq!(stats.dropped_loss, 0);
    }

    #[test]
    fn stall_holds_one_nodes_traffic_and_releases_it_in_order() {
        let ids = [NodeId(0), NodeId(1), NodeId(2)];
        let proxy = LossProxy::bind(&ids, 7).expect("bind proxy");
        let dests: Vec<UdpSocket> = ids
            .iter()
            .map(|&id| {
                let sock = UdpSocket::bind("127.0.0.1:0").expect("bind dest");
                proxy.set_dest(id, sock.local_addr().unwrap());
                sock
            })
            .collect();
        let sender = UdpSocket::bind("127.0.0.1:0").expect("bind sender");
        let to = |id: u32| proxy.proxy_addr(NodeId(id)).unwrap();
        const PKTS: [&[u8]; 3] = [b"first", b"second", b"third"];

        let start = Instant::now();
        proxy.stall(NodeId(1), Duration::from_millis(60));
        for payload in PKTS {
            sender.send_to(&wire(0, payload), to(1)).unwrap(); // to the stalled node
        }
        sender.send_to(&wire(1, b"from"), to(2)).unwrap(); // from it
        sender.send_to(&wire(0, b"past"), to(2)).unwrap(); // past it
        assert_eq!(recv_on(&dests[2]), Some(wire(0, b"past")), "not held");
        assert!(start.elapsed() < Duration::from_millis(50));
        for payload in PKTS {
            assert_eq!(recv_on(&dests[1]), Some(wire(0, payload)), "in order");
        }
        assert!(start.elapsed() >= Duration::from_millis(60));
        assert_eq!(recv_on(&dests[2]), Some(wire(1, b"from")));
        assert_eq!(proxy.stats().stalled, 4);
        // One shot: the node's traffic flows again.
        sender.send_to(&wire(0, b"after"), to(1)).unwrap();
        assert_eq!(recv_on(&dests[1]), Some(wire(0, b"after")));

        // Armed for whoever sends next: node 2 it is.
        proxy.stall_next(Duration::from_millis(40));
        let start = Instant::now();
        sender.send_to(&wire(2, b"picks"), to(0)).unwrap();
        assert_eq!(recv_on(&dests[0]), Some(wire(2, b"picks")));
        assert!(start.elapsed() >= Duration::from_millis(40));
        assert_eq!(proxy.stats().stalled, 5);
    }

    #[test]
    fn delay_dial_holds_packets_back() {
        let proxy = LossProxy::bind(&[NodeId(1)], 7).expect("bind proxy");
        let dest = UdpSocket::bind("127.0.0.1:0").expect("bind dest");
        proxy.set_dest(NodeId(1), dest.local_addr().unwrap());
        proxy.set_dials(ProxyDials {
            delay_us: 30_000,
            ..ProxyDials::default()
        });
        let sender = UdpSocket::bind("127.0.0.1:0").expect("bind sender");
        let to = proxy.proxy_addr(NodeId(1)).unwrap();
        let start = Instant::now();
        sender.send_to(&wire(0, b"slow"), to).unwrap();
        assert!(recv_on(&dest).is_some());
        assert!(start.elapsed() >= Duration::from_millis(25));
        assert_eq!(proxy.stats().delayed, 1);
    }
}

//! Deterministic simulated network.
//!
//! [`SimNet`] is a time-driven model of the LAN the paper's cluster lives
//! on. It is *passive*: callers (the discrete-event scheduler in
//! `raincore-sim`, or unit tests) pass the current virtual time into
//! [`SimNet::send`] and drain arrivals with [`SimNet::pop_arrivals`]; the
//! network itself never owns a clock or a thread, which is what makes whole
//! cluster runs bit-for-bit reproducible from a seed.
//!
//! Two media are modelled (§4.1 of the paper contrasts them):
//!
//! * [`MediumKind::Switch`] — full-duplex switched Ethernet. Each NIC
//!   serializes its own traffic at `bandwidth_bps`, and a store-and-forward
//!   egress queue limits each *receiver* to the same rate. Aggregate
//!   cluster throughput scales with the number of NICs — the paper's
//!   `N × 100 Mbit/s` argument for unicast-based design.
//! * [`MediumKind::Hub`] — a single shared half-duplex medium; every
//!   packet occupies the one channel, capping the whole cluster at
//!   `bandwidth_bps` — the broadcast configuration the paper rejects.

use crate::addr::{Addr, Datagram};
use crate::stats::NetStats;
use raincore_types::{Duration, NodeId, Time};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

/// Which physical medium connects the cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MediumKind {
    /// Full-duplex switched Ethernet: per-NIC bandwidth, per-receiver
    /// egress queues. Aggregate throughput grows with node count.
    Switch,
    /// Shared half-duplex medium (hub): one channel for everyone.
    Hub,
}

/// Configuration of the simulated network.
#[derive(Clone, Debug)]
pub struct SimNetConfig {
    /// Medium model.
    pub medium: MediumKind,
    /// Link rate in bits per second (`0` = infinite, no serialization
    /// delay). The paper's testbed is Fast Ethernet: `100_000_000`.
    pub bandwidth_bps: u64,
    /// One-way propagation latency.
    pub latency: Duration,
    /// Deterministic uniform jitter added to latency, in `[0, jitter]`.
    pub jitter: Duration,
    /// Independent per-packet loss probability in `[0, 1]`.
    pub loss: f64,
    /// RNG seed for loss sampling and jitter.
    pub seed: u64,
}

impl Default for SimNetConfig {
    fn default() -> Self {
        SimNetConfig {
            medium: MediumKind::Switch,
            bandwidth_bps: 0,
            latency: Duration::from_micros(100),
            jitter: Duration::ZERO,
            loss: 0.0,
            seed: 0xAA1C_C0DE,
        }
    }
}

impl SimNetConfig {
    /// The paper's lab: switched Fast Ethernet (100 Mbit/s per NIC) with
    /// a LAN-scale 100 µs one-way latency.
    pub fn fast_ethernet_switch() -> Self {
        SimNetConfig {
            bandwidth_bps: 100_000_000,
            ..Default::default()
        }
    }

    /// Same speed but a shared hub medium (the configuration §4.1 argues
    /// limits the cluster to one NIC's throughput).
    pub fn fast_ethernet_hub() -> Self {
        SimNetConfig {
            medium: MediumKind::Hub,
            bandwidth_bps: 100_000_000,
            ..Default::default()
        }
    }
}

#[derive(Debug)]
struct InFlight {
    at: Time,
    seq: u64,
    dgram: Datagram,
}

impl PartialEq for InFlight {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for InFlight {}
impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A one-shot stall of one link (chaos injection): what a peer whose
/// thread does not get a CPU looks like from outside.
#[derive(Debug)]
struct DelaySpike {
    length: Duration,
    /// The node pair the next inter-node datagram picked, and when the
    /// stall ends; `None` while armed and waiting for that datagram.
    on: Option<((NodeId, NodeId), Time)>,
}

/// The simulated network. See the module docs for the model.
#[derive(Debug)]
pub struct SimNet {
    cfg: SimNetConfig,
    rng: StdRng,
    seq: u64,
    in_flight: BinaryHeap<Reverse<InFlight>>,
    /// Per-NIC transmit-side busy horizon (switch mode).
    tx_busy: HashMap<Addr, Time>,
    /// Per-NIC receive-side (egress-queue) busy horizon (switch mode).
    rx_busy: HashMap<Addr, Time>,
    /// Shared-medium busy horizon (hub mode).
    medium_busy: Time,
    /// Directed node pairs whose packets are dropped (link failures and
    /// partitions).
    blocked: HashSet<(NodeId, NodeId)>,
    /// NICs administratively down ("unplugged cables").
    down_nics: HashSet<Addr>,
    /// Crashed nodes: everything from/to them is dropped.
    down_nodes: HashSet<NodeId>,
    /// Per-packet duplication probability (chaos injection hook).
    dup: f64,
    /// Per-packet reordering probability (chaos injection hook).
    reorder: f64,
    /// Extra-delay window for reordered packets and duplicate copies.
    reorder_window: Duration,
    /// Loss probability applied only to packets selected by `matcher`
    /// (targeted chaos injection, e.g. bulk-frame loss).
    matched_loss: f64,
    /// Payload predicate for `matched_loss`. A plain `fn` pointer: the
    /// classifier cannot capture state, which keeps the hook `Debug` and
    /// the net crate free of upper-layer dependencies — callers that can
    /// decode transport/session frames pass their classifier down.
    matcher: Option<fn(&[u8]) -> bool>,
    /// Duplicate copies injected so far.
    dups_injected: u64,
    /// Reorder delays injected so far.
    reorders_injected: u64,
    /// Packets dropped by the matched-loss hook so far.
    matched_drops: u64,
    spike: Option<DelaySpike>,
    stats: NetStats,
}

impl SimNet {
    /// Creates a network with the given configuration.
    pub fn new(cfg: SimNetConfig) -> Self {
        let rng = StdRng::seed_from_u64(cfg.seed);
        SimNet {
            cfg,
            rng,
            seq: 0,
            in_flight: BinaryHeap::new(),
            tx_busy: HashMap::new(),
            rx_busy: HashMap::new(),
            medium_busy: Time::ZERO,
            blocked: HashSet::new(),
            down_nics: HashSet::new(),
            down_nodes: HashSet::new(),
            dup: 0.0,
            reorder: 0.0,
            reorder_window: Duration::ZERO,
            matched_loss: 0.0,
            matcher: None,
            dups_injected: 0,
            reorders_injected: 0,
            matched_drops: 0,
            spike: None,
            stats: NetStats::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &SimNetConfig {
        &self.cfg
    }

    /// Puts `dgram` on the wire at virtual time `now`. The packet may be
    /// dropped immediately (loss, down node/NIC, blocked pair) — exactly
    /// like a UDP send, the caller gets no error; drops are visible only
    /// in [`SimNet::stats`].
    pub fn send(&mut self, now: Time, dgram: Datagram) {
        if self.down_nodes.contains(&dgram.src.node)
            || self.down_nics.contains(&dgram.src)
            || self.is_blocked(dgram.src.node, dgram.dst.node)
        {
            self.stats.record_dropped(&dgram);
            return;
        }
        self.stats.record_sent(&dgram);
        if self.cfg.loss > 0.0 && self.rng.random::<f64>() < self.cfg.loss {
            self.stats.record_dropped(&dgram);
            return;
        }
        // Targeted loss draws from the RNG only when the dial is enabled
        // AND the matcher selects the packet, so runs without it (or for
        // non-matching traffic) keep the exact historical draw sequence.
        if self.matched_loss > 0.0 {
            if let Some(matches) = self.matcher {
                if matches(&dgram.payload) && self.rng.random::<f64>() < self.matched_loss {
                    self.stats.record_dropped(&dgram);
                    self.matched_drops += 1;
                    return;
                }
            }
        }
        let mut at = self.arrival_time(now, &dgram);
        at = self.hold_for_spike(now, &dgram, at);
        // Injection hooks draw from the RNG only when enabled, so runs
        // with injection off keep the exact historical draw sequence.
        if self.reorder > 0.0 && self.rng.random::<f64>() < self.reorder {
            at += self.sample_extra_delay();
            self.reorders_injected += 1;
        }
        if self.dup > 0.0 && self.rng.random::<f64>() < self.dup {
            let copy_at = at + self.sample_extra_delay();
            self.seq += 1;
            self.in_flight.push(Reverse(InFlight {
                at: copy_at,
                seq: self.seq,
                dgram: dgram.clone(),
            }));
            self.dups_injected += 1;
        }
        self.seq += 1;
        self.in_flight.push(Reverse(InFlight {
            at,
            seq: self.seq,
            dgram,
        }));
    }

    fn arrival_time(&mut self, now: Time, d: &Datagram) -> Time {
        // Loopback skips the medium entirely.
        if d.src.node == d.dst.node {
            return now + Duration::from_micros(1);
        }
        let tx = self.tx_time(d);
        let lat = self.cfg.latency + self.sample_jitter();
        if self.cfg.bandwidth_bps == 0 {
            // Infinite bandwidth: no serialization, no queueing.
            return now + lat;
        }
        match self.cfg.medium {
            MediumKind::Switch => {
                // Ingress serialization on the sender's NIC…
                let start = (*self.tx_busy.get(&d.src).unwrap_or(&Time::ZERO)).max(now);
                let end_tx = start + tx;
                self.tx_busy.insert(d.src, end_tx);
                // …propagation…
                let at_switch = end_tx + lat;
                // …then store-and-forward egress serialization toward the
                // receiver's NIC, which is where fan-in contention queues.
                let start_rx = (*self.rx_busy.get(&d.dst).unwrap_or(&Time::ZERO)).max(at_switch);
                let deliver = start_rx + tx;
                self.rx_busy.insert(d.dst, deliver);
                deliver
            }
            MediumKind::Hub => {
                // One shared channel: every packet serializes through it.
                let start = self.medium_busy.max(now);
                let end = start + tx;
                self.medium_busy = end;
                end + lat
            }
        }
    }

    /// An armed delay spike stalls the link of the next inter-node
    /// datagram: nothing put on that node pair, either way, arrives
    /// before the stall ends.
    fn hold_for_spike(&mut self, now: Time, d: &Datagram, at: Time) -> Time {
        let (a, b) = (d.src.node, d.dst.node);
        let Some(spike) = self.spike.as_mut().filter(|_| a != b) else {
            return at;
        };
        let pair = (a.min(b), a.max(b));
        let (link, until) = *spike.on.get_or_insert((pair, now + spike.length));
        if now >= until {
            self.spike = None;
        } else if link == pair {
            return at.max(until);
        }
        at
    }

    fn tx_time(&self, d: &Datagram) -> Duration {
        match (d.wire_bytes() * 8 * 1_000_000_000).checked_div(self.cfg.bandwidth_bps) {
            Some(ns) => Duration::from_nanos(ns),
            None => Duration::ZERO, // bandwidth 0 = infinite
        }
    }

    fn sample_jitter(&mut self) -> Duration {
        if self.cfg.jitter.is_zero() {
            Duration::ZERO
        } else {
            Duration::from_nanos(self.rng.random_range(0..=self.cfg.jitter.as_nanos()))
        }
    }

    /// Extra delay for a reordered packet or duplicate copy: strictly
    /// positive (so it lands behind at least some later traffic) and
    /// bounded by the configured window.
    fn sample_extra_delay(&mut self) -> Duration {
        let window = self.reorder_window.as_nanos().max(1);
        Duration::from_nanos(self.rng.random_range(1..=window))
    }

    /// Earliest pending arrival time, if any packets are in flight.
    pub fn next_arrival(&self) -> Option<Time> {
        self.in_flight.peek().map(|Reverse(f)| f.at)
    }

    /// Number of packets currently in flight.
    pub fn in_flight_len(&self) -> usize {
        self.in_flight.len()
    }

    /// Removes and returns every datagram whose arrival time is `<= now`,
    /// in deterministic (time, enqueue) order. Packets whose destination
    /// node or NIC went down while they were in flight are dropped here.
    pub fn pop_arrivals(&mut self, now: Time) -> Vec<Datagram> {
        let mut out = Vec::new();
        while let Some(Reverse(f)) = self.in_flight.peek() {
            if f.at > now {
                break;
            }
            let Some(Reverse(f)) = self.in_flight.pop() else {
                break;
            };
            if self.down_nodes.contains(&f.dgram.dst.node)
                || self.down_nics.contains(&f.dgram.dst)
                || self.is_blocked(f.dgram.src.node, f.dgram.dst.node)
            {
                self.stats.record_dropped(&f.dgram);
                continue;
            }
            self.stats.record_recv(&f.dgram);
            out.push(f.dgram);
        }
        out
    }

    fn is_blocked(&self, from: NodeId, to: NodeId) -> bool {
        self.blocked.contains(&(from, to))
    }

    /// Brings a bidirectional node-to-node link up or down. Down links
    /// drop packets in both directions (§2.3's "the link between A and B
    /// fails" scenario).
    pub fn set_link(&mut self, a: NodeId, b: NodeId, up: bool) {
        self.set_link_directed(a, b, up);
        self.set_link_directed(b, a, up);
    }

    /// Brings a single direction of a link up or down (asymmetric
    /// failures).
    pub fn set_link_directed(&mut self, from: NodeId, to: NodeId, up: bool) {
        if up {
            self.blocked.remove(&(from, to));
        } else {
            self.blocked.insert((from, to));
        }
    }

    /// Administratively downs or restores one NIC — the simulated
    /// equivalent of unplugging a network cable (§3.2's fail-over demo).
    pub fn set_nic(&mut self, addr: Addr, up: bool) {
        if up {
            self.down_nics.remove(&addr);
        } else {
            self.down_nics.insert(addr);
        }
    }

    /// Crashes or revives a whole node. A crashed node's packets (both
    /// directions) are silently dropped.
    pub fn set_node(&mut self, node: NodeId, up: bool) {
        if up {
            self.down_nodes.remove(&node);
        } else {
            self.down_nodes.insert(node);
        }
    }

    /// True if `node` is currently crashed.
    pub fn node_is_down(&self, node: NodeId) -> bool {
        self.down_nodes.contains(&node)
    }

    /// Partitions the cluster: packets between nodes in *different* groups
    /// are dropped. Links inside each group are untouched.
    pub fn partition(&mut self, groups: &[&[NodeId]]) {
        for (i, ga) in groups.iter().enumerate() {
            for gb in groups.iter().skip(i + 1) {
                for &a in ga.iter() {
                    for &b in gb.iter() {
                        self.set_link(a, b, false);
                    }
                }
            }
        }
    }

    /// Removes every link-level block (heals partitions and link
    /// failures). NIC and node states are untouched.
    pub fn heal_all_links(&mut self) {
        self.blocked.clear();
    }

    /// True while any link-level block (directed link failure or
    /// partition edge) is in force.
    pub fn has_blocked_links(&self) -> bool {
        !self.blocked.is_empty()
    }

    /// True if `addr`'s NIC is administratively down (cable unplugged).
    pub fn nic_is_down(&self, addr: Addr) -> bool {
        self.down_nics.contains(&addr)
    }

    /// Sets the per-packet duplication probability (chaos injection).
    /// Duplicate copies arrive within the reorder window after the
    /// original; `0.0` disables the hook and its RNG draws entirely.
    pub fn set_duplication(&mut self, prob: f64) {
        self.dup = prob.clamp(0.0, 1.0);
    }

    /// Sets the per-packet reordering probability and the extra-delay
    /// window applied to reordered packets and duplicate copies. `0.0`
    /// disables the hook and its RNG draws entirely.
    pub fn set_reordering(&mut self, prob: f64, window: Duration) {
        self.reorder = prob.clamp(0.0, 1.0);
        self.reorder_window = window;
    }

    /// Adjusts the uniform latency jitter at runtime (chaos injection).
    pub fn set_jitter(&mut self, jitter: Duration) {
        self.cfg.jitter = jitter;
    }

    /// Arms a one-shot delay spike (chaos injection): the link that
    /// carries the next inter-node datagram stalls for `length` from that
    /// datagram on, in both directions, and then delivers what it held.
    /// A new spike replaces one that is still armed or running.
    pub fn set_delay_spike(&mut self, length: Duration) {
        self.spike = (!length.is_zero()).then_some(DelaySpike { length, on: None });
    }

    /// Sets a *targeted* loss dial: packets whose payload the `matches`
    /// predicate selects are additionally dropped with probability
    /// `prob`. Non-matching traffic is untouched, and with `prob == 0.0`
    /// the hook (and its RNG draws) is disabled entirely. Used by the
    /// chaos harness to drop only out-of-band bulk frames.
    pub fn set_matched_loss(&mut self, prob: f64, matches: fn(&[u8]) -> bool) {
        self.matched_loss = prob.clamp(0.0, 1.0);
        self.matcher = Some(matches);
    }

    /// Packets dropped by the matched-loss hook since construction.
    pub fn matched_drops(&self) -> u64 {
        self.matched_drops
    }

    /// Duplicate copies injected since construction.
    pub fn dups_injected(&self) -> u64 {
        self.dups_injected
    }

    /// Reorder delays injected since construction.
    pub fn reorders_injected(&self) -> u64 {
        self.reorders_injected
    }

    /// Read access to the accounting counters.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Resets the accounting counters (e.g. after warm-up).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PacketClass;

    #[test]
    fn delay_spike_stalls_one_link_once() {
        let mut net = SimNet::new(SimNetConfig::default());
        let at = |ms: u64| Time::ZERO + Duration::from_millis(ms);
        let dgram = |from: u32, to: u32| {
            Datagram::control(
                Addr::primary(NodeId(from)),
                Addr::primary(NodeId(to)),
                bytes::Bytes::from_static(b"x"),
            )
        };
        net.set_delay_spike(Duration::from_millis(30));
        // The next datagram picks the link; the stall holds both
        // directions of it and nothing else.
        net.send(at(10), dgram(0, 1));
        net.send(at(20), dgram(1, 0));
        net.send(at(20), dgram(1, 2));
        assert_eq!(net.pop_arrivals(at(39)).len(), 1, "1→2 is not stalled");
        assert_eq!(net.pop_arrivals(at(40)).len(), 2, "released together");
        // One shot: the link is back to its latency.
        net.send(at(50), dgram(0, 1));
        assert_eq!(
            net.next_arrival(),
            Some(at(50) + Duration::from_micros(100))
        );
    }
    use bytes::Bytes;

    fn dg(src: u32, dst: u32, len: usize) -> Datagram {
        Datagram::control(
            Addr::primary(NodeId(src)),
            Addr::primary(NodeId(dst)),
            Bytes::from(vec![0u8; len]),
        )
    }

    #[test]
    fn delivers_after_latency() {
        let mut net = SimNet::new(SimNetConfig {
            latency: Duration::from_millis(1),
            ..Default::default()
        });
        net.send(Time::ZERO, dg(0, 1, 10));
        assert_eq!(
            net.next_arrival(),
            Some(Time::ZERO + Duration::from_millis(1))
        );
        assert!(net
            .pop_arrivals(Time::ZERO + Duration::from_micros(999))
            .is_empty());
        let got = net.pop_arrivals(Time::ZERO + Duration::from_millis(1));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].dst.node, NodeId(1));
        assert_eq!(net.in_flight_len(), 0);
    }

    #[test]
    fn bandwidth_serializes_packets() {
        // 100 Mbit/s: a 1208-byte frame (1250 incl. header) takes 100 µs.
        let mut net = SimNet::new(SimNetConfig {
            bandwidth_bps: 100_000_000,
            latency: Duration::ZERO,
            ..Default::default()
        });
        let payload = 1250 - 42;
        net.send(Time::ZERO, dg(0, 1, payload));
        net.send(Time::ZERO, dg(0, 1, payload));
        // First: ingress tx 100 µs + store-and-forward egress 100 µs =
        // 200 µs. The second pipelines: its ingress finishes at 200 µs and
        // the egress port is free by then, so it delivers at 300 µs.
        let t1 = Time::ZERO + Duration::from_micros(200);
        let t2 = Time::ZERO + Duration::from_micros(300);
        assert_eq!(net.next_arrival(), Some(t1));
        assert_eq!(net.pop_arrivals(t1).len(), 1);
        assert_eq!(net.next_arrival(), Some(t2));
    }

    #[test]
    fn switch_gives_parallel_capacity_hub_serializes() {
        let payload = 1250 - 42; // 100 µs at 100 Mbit/s
        let mk = |medium| SimNetConfig {
            medium,
            bandwidth_bps: 100_000_000,
            latency: Duration::ZERO,
            ..Default::default()
        };
        // Two disjoint pairs transmit simultaneously.
        let mut sw = SimNet::new(mk(MediumKind::Switch));
        sw.send(Time::ZERO, dg(0, 1, payload));
        sw.send(Time::ZERO, dg(2, 3, payload));
        let done = Time::ZERO + Duration::from_micros(200);
        assert_eq!(
            sw.pop_arrivals(done).len(),
            2,
            "switch carries both in parallel"
        );

        let mut hub = SimNet::new(mk(MediumKind::Hub));
        hub.send(Time::ZERO, dg(0, 1, payload));
        hub.send(Time::ZERO, dg(2, 3, payload));
        // Hub: second waits for the shared medium → 100 µs then 200 µs.
        assert_eq!(
            hub.pop_arrivals(Time::ZERO + Duration::from_micros(100))
                .len(),
            1
        );
        assert_eq!(
            hub.pop_arrivals(Time::ZERO + Duration::from_micros(200))
                .len(),
            1
        );
    }

    #[test]
    fn receiver_fanin_contends_on_switch() {
        let payload = 1250 - 42;
        let mut net = SimNet::new(SimNetConfig {
            bandwidth_bps: 100_000_000,
            latency: Duration::ZERO,
            ..Default::default()
        });
        // Two different senders target the same receiver: egress queue
        // serializes them (200 µs and 300 µs).
        net.send(Time::ZERO, dg(0, 2, payload));
        net.send(Time::ZERO, dg(1, 2, payload));
        assert_eq!(
            net.pop_arrivals(Time::ZERO + Duration::from_micros(200))
                .len(),
            1
        );
        assert_eq!(
            net.pop_arrivals(Time::ZERO + Duration::from_micros(300))
                .len(),
            1
        );
    }

    #[test]
    fn loss_is_seeded_and_counted() {
        let cfg = SimNetConfig {
            loss: 0.5,
            seed: 7,
            latency: Duration::ZERO,
            ..Default::default()
        };
        let run = |cfg: SimNetConfig| {
            let mut net = SimNet::new(cfg);
            for i in 0..100 {
                net.send(Time::ZERO, dg(0, 1, i));
            }
            let delivered = net.pop_arrivals(Time::ZERO + Duration::from_secs(1)).len();
            let dropped = net.stats().total_dropped(PacketClass::Control).pkts;
            (delivered, dropped)
        };
        let (d1, l1) = run(cfg.clone());
        let (d2, l2) = run(cfg);
        assert_eq!((d1, l1), (d2, l2), "same seed → same outcome");
        assert_eq!(d1 + l1 as usize, 100);
        assert!(d1 > 20 && d1 < 80, "loss ≈ 0.5, got {d1}/100 delivered");
    }

    #[test]
    fn matched_loss_targets_only_selected_packets() {
        fn starts_with_0xbb(payload: &[u8]) -> bool {
            payload.first() == Some(&0xBB)
        }
        let mk = || {
            let mut net = SimNet::new(SimNetConfig {
                latency: Duration::ZERO,
                seed: 21,
                ..Default::default()
            });
            net.set_matched_loss(1.0, starts_with_0xbb);
            net
        };
        let mut net = mk();
        for i in 0..50u8 {
            let tag = if i % 2 == 0 { 0xBB } else { 0x01 };
            net.send(
                Time::ZERO,
                Datagram::control(
                    Addr::primary(NodeId(0)),
                    Addr::primary(NodeId(1)),
                    Bytes::from(vec![tag, i]),
                ),
            );
        }
        let got = net.pop_arrivals(Time::ZERO + Duration::from_secs(1));
        assert_eq!(got.len(), 25, "only non-matching packets survive");
        assert!(got.iter().all(|d| d.payload[0] == 0x01));
        assert_eq!(net.matched_drops(), 25);
        // Deterministic from the seed.
        let mut net2 = mk();
        for i in 0..50u8 {
            let tag = if i % 2 == 0 { 0xBB } else { 0x01 };
            net2.send(
                Time::ZERO,
                Datagram::control(
                    Addr::primary(NodeId(0)),
                    Addr::primary(NodeId(1)),
                    Bytes::from(vec![tag, i]),
                ),
            );
        }
        assert_eq!(
            net2.pop_arrivals(Time::ZERO + Duration::from_secs(1)).len(),
            25
        );
        // Probability 0 disables the hook even with a matcher installed.
        let mut off = SimNet::new(SimNetConfig {
            latency: Duration::ZERO,
            ..Default::default()
        });
        off.set_matched_loss(0.0, starts_with_0xbb);
        off.send(
            Time::ZERO,
            Datagram::control(
                Addr::primary(NodeId(0)),
                Addr::primary(NodeId(1)),
                Bytes::from(vec![0xBB]),
            ),
        );
        assert_eq!(
            off.pop_arrivals(Time::ZERO + Duration::from_secs(1)).len(),
            1
        );
        assert_eq!(off.matched_drops(), 0);
    }

    #[test]
    fn blocked_links_drop_both_directions() {
        let mut net = SimNet::new(SimNetConfig::default());
        net.set_link(NodeId(0), NodeId(1), false);
        net.send(Time::ZERO, dg(0, 1, 1));
        net.send(Time::ZERO, dg(1, 0, 1));
        net.send(Time::ZERO, dg(0, 2, 1));
        assert_eq!(
            net.pop_arrivals(Time::ZERO + Duration::from_secs(1)).len(),
            1
        );
        net.set_link(NodeId(0), NodeId(1), true);
        net.send(Time::ZERO + Duration::from_secs(1), dg(0, 1, 1));
        assert_eq!(
            net.pop_arrivals(Time::ZERO + Duration::from_secs(2)).len(),
            1
        );
    }

    #[test]
    fn nic_down_is_cable_unplug() {
        let mut net = SimNet::new(SimNetConfig::default());
        net.set_nic(Addr::primary(NodeId(0)), false);
        net.send(Time::ZERO, dg(0, 1, 1)); // tx on downed NIC
        net.send(Time::ZERO, dg(1, 0, 1)); // rx on downed NIC
                                           // A second NIC on the same node still works.
        net.send(
            Time::ZERO,
            Datagram::control(
                Addr::new(NodeId(0), 1),
                Addr::primary(NodeId(1)),
                Bytes::new(),
            ),
        );
        assert_eq!(
            net.pop_arrivals(Time::ZERO + Duration::from_secs(1)).len(),
            1
        );
    }

    #[test]
    fn node_down_drops_in_flight_packets() {
        let mut net = SimNet::new(SimNetConfig {
            latency: Duration::from_millis(10),
            ..Default::default()
        });
        net.send(Time::ZERO, dg(0, 1, 1));
        net.set_node(NodeId(1), false); // crashes while packet in flight
        assert!(net.node_is_down(NodeId(1)));
        assert!(net
            .pop_arrivals(Time::ZERO + Duration::from_secs(1))
            .is_empty());
        assert_eq!(net.stats().total_dropped(PacketClass::Control).pkts, 1);
    }

    #[test]
    fn partition_blocks_across_groups_only() {
        let mut net = SimNet::new(SimNetConfig::default());
        let a = [NodeId(0), NodeId(1)];
        let b = [NodeId(2), NodeId(3)];
        net.partition(&[&a, &b]);
        net.send(Time::ZERO, dg(0, 1, 1)); // intra A: ok
        net.send(Time::ZERO, dg(2, 3, 1)); // intra B: ok
        net.send(Time::ZERO, dg(0, 2, 1)); // cross: dropped
        net.send(Time::ZERO, dg(3, 1, 1)); // cross: dropped
        assert_eq!(
            net.pop_arrivals(Time::ZERO + Duration::from_secs(1)).len(),
            2
        );
        net.heal_all_links();
        net.send(Time::ZERO + Duration::from_secs(1), dg(0, 2, 1));
        assert_eq!(
            net.pop_arrivals(Time::ZERO + Duration::from_secs(2)).len(),
            1
        );
    }

    #[test]
    fn loopback_bypasses_bandwidth() {
        let mut net = SimNet::new(SimNetConfig {
            bandwidth_bps: 1, // absurdly slow medium
            latency: Duration::from_secs(10),
            ..Default::default()
        });
        net.send(Time::ZERO, dg(5, 5, 1000));
        assert_eq!(
            net.next_arrival(),
            Some(Time::ZERO + Duration::from_micros(1))
        );
    }

    #[test]
    fn arrivals_pop_in_time_order() {
        let mut net = SimNet::new(SimNetConfig {
            latency: Duration::from_millis(5),
            ..Default::default()
        });
        net.send(Time::ZERO + Duration::from_millis(2), dg(0, 1, 1));
        net.send(Time::ZERO, dg(2, 1, 2));
        let got = net.pop_arrivals(Time::ZERO + Duration::from_secs(1));
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].src.node, NodeId(2), "earlier send arrives first");
    }

    #[test]
    fn stats_conservation() {
        let mut net = SimNet::new(SimNetConfig {
            loss: 0.3,
            seed: 3,
            ..Default::default()
        });
        for i in 0..200u32 {
            net.send(Time::ZERO, dg(i % 4, (i + 1) % 4, 64));
        }
        let delivered = net.pop_arrivals(Time::ZERO + Duration::from_secs(5)).len() as u64;
        let s = net.stats();
        let sent_attempts = 200;
        // sent counter excludes pre-send drops (none here: no blocks), and
        // every packet is either delivered or dropped by loss.
        assert_eq!(s.total_sent(PacketClass::Control).pkts, sent_attempts);
        assert_eq!(
            s.total_recv(PacketClass::Control).pkts + s.total_dropped(PacketClass::Control).pkts,
            sent_attempts
        );
        assert_eq!(s.total_recv(PacketClass::Control).pkts, delivered);
    }
}

#[cfg(test)]
mod jitter_tests {
    use super::*;
    use bytes::Bytes;

    fn dg(src: u32, dst: u32) -> Datagram {
        Datagram::control(
            Addr::primary(NodeId(src)),
            Addr::primary(NodeId(dst)),
            Bytes::from_static(b"j"),
        )
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        let cfg = SimNetConfig {
            latency: Duration::from_millis(1),
            jitter: Duration::from_micros(500),
            seed: 17,
            ..Default::default()
        };
        let run = |cfg: SimNetConfig| -> Vec<u64> {
            let mut net = SimNet::new(cfg);
            let mut arrivals = vec![];
            for i in 0..50 {
                net.send(Time::ZERO, dg(i % 4, (i + 1) % 4));
            }
            while let Some(t) = net.next_arrival() {
                arrivals.push(t.as_nanos());
                net.pop_arrivals(t);
            }
            arrivals
        };
        let a = run(cfg.clone());
        let b = run(cfg.clone());
        assert_eq!(a, b, "same seed, same jitter draws");
        for &t in &a {
            assert!(
                (1_000_000..=1_500_000).contains(&t),
                "arrival {t} outside latency+jitter window"
            );
        }
        // Different seed, different draws.
        let c = run(SimNetConfig { seed: 18, ..cfg });
        assert_ne!(a, c);
    }
}

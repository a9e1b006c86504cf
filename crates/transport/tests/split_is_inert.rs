//! The transport behaves like the parent of its split into components.
//!
//! `crates/sim/tests/typestate_equivalence.rs::session_core_split_is_inert`
//! pins the datagram stream of a whole cluster, but over one NIC and the
//! sequential strategy only. This is the transport's own pin: three
//! endpoints with two NICs each over a seeded lossy, duplicating
//! [`SimNet`], under both [`SendStrategy`] values, with a 64-byte MTU so
//! every message fragments. The constants were captured from the
//! one-`impl` `Endpoint` (PR 16) before it was split; any drift — one
//! more retransmission, an ack on another link, a reordered event — moves
//! a hash.

use bytes::Bytes;
use raincore_net::{Addr, Datagram, SimNet, SimNetConfig};
use raincore_transport::{Endpoint, PeerTable, TransportEvent, TransportStats};
use raincore_types::config::SendStrategy;
use raincore_types::{Duration, Incarnation, NodeId, Time, TransportConfig};

const NODES: u32 = 3;
const NICS: u8 = 2;
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a, 64-bit.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// What one run leaves behind: the FNV-1a of every datagram polled out of
/// any endpoint (in poll order, tagged with the endpoint), of each
/// endpoint's event stream, and of each endpoint's final counters.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    wire: u64,
    datagrams: u64,
    events: [u64; NODES as usize],
    stats: [u64; NODES as usize],
}

struct World {
    net: SimNet,
    eps: Vec<Endpoint>,
    cfg: TransportConfig,
    now: Time,
    wire: u64,
    datagrams: u64,
    events: [u64; NODES as usize],
    /// Late acknowledgements that refuted a give-up (vacuity guard).
    refuted: u64,
    /// Datagrams addressed to a peer's second NIC (vacuity guard).
    second_link: u64,
    /// Counters of endpoints replaced by a restart (vacuity guard).
    retired: Vec<TransportStats>,
}

fn endpoint(id: u32, inc: Incarnation, cfg: &TransportConfig) -> Endpoint {
    Endpoint::new(
        NodeId(id),
        inc,
        (0..NICS).map(|k| Addr::new(NodeId(id), k)).collect(),
        PeerTable::full_mesh((0..NODES).map(NodeId), NICS),
        cfg.clone(),
    )
    .expect("endpoint")
}

impl World {
    fn new(strategy: SendStrategy) -> Self {
        let cfg = TransportConfig {
            mtu: 64,
            // Above the 16 ms floor, so the measured timeout engages.
            retry_timeout: Duration::from_millis(40),
            max_retries: 3,
            strategy,
        };
        let mut net = SimNet::new(SimNetConfig {
            loss: 0.06,
            seed: 17,
            ..Default::default()
        });
        net.set_duplication(0.05);
        World {
            net,
            eps: (0..NODES)
                .map(|i| endpoint(i, Incarnation::FIRST, &cfg))
                .collect(),
            cfg,
            now: Time::ZERO,
            wire: FNV_OFFSET,
            datagrams: 0,
            events: [FNV_OFFSET; NODES as usize],
            refuted: 0,
            second_link: 0,
            retired: Vec::new(),
        }
    }

    /// Drains endpoint `i`'s outbox into the wire hash and returns it.
    fn drain(&mut self, i: usize) -> Vec<Datagram> {
        let out: Vec<Datagram> = std::iter::from_fn(|| self.eps[i].poll_outgoing()).collect();
        for d in &out {
            fnv1a(&mut self.wire, &[i as u8, d.src.nic, d.dst.nic]);
            fnv1a(&mut self.wire, &d.src.node.0.to_le_bytes());
            fnv1a(&mut self.wire, &d.dst.node.0.to_le_bytes());
            fnv1a(&mut self.wire, &(d.payload.len() as u64).to_le_bytes());
            fnv1a(&mut self.wire, &d.payload);
            self.datagrams += 1;
            self.second_link += u64::from(d.dst.nic == 1);
        }
        out
    }

    fn drain_events(&mut self) {
        for (i, ep) in self.eps.iter_mut().enumerate() {
            while let Some(ev) = ep.poll_event() {
                fnv1a(&mut self.events[i], format!("{ev:?}\n").as_bytes());
                self.refuted += u64::from(matches!(ev, TransportEvent::FailureRefuted { .. }));
            }
        }
    }

    /// Drives every endpoint and the network until `until`.
    fn run_until(&mut self, until: Time) {
        loop {
            for i in 0..self.eps.len() {
                for d in self.drain(i) {
                    self.net.send(self.now, d);
                }
            }
            let arrivals = self.net.pop_arrivals(self.now);
            if !arrivals.is_empty() {
                for d in arrivals {
                    self.eps[d.dst.node.0 as usize].on_datagram(self.now, d);
                }
                continue;
            }
            self.drain_events();
            let next = self
                .eps
                .iter()
                .filter_map(Endpoint::next_wakeup)
                .chain(self.net.next_arrival())
                .min();
            match next {
                Some(t) if t <= until => {
                    self.now = t;
                    for ep in &mut self.eps {
                        ep.on_tick(t);
                    }
                }
                _ => {
                    self.now = until;
                    return;
                }
            }
        }
    }

    fn run_for(&mut self, d: Duration) {
        self.run_until(self.now + d);
    }

    /// A burst of traffic between every ordered pair still in each
    /// other's table: reliable messages of one to five fragments and
    /// fire-and-forget ones of three.
    fn burst(&mut self, round: u8) {
        for from in 0..NODES {
            for to in (0..NODES).filter(|&to| to != from) {
                let len = 40 + 70 * usize::from((round + from as u8 + 2 * to as u8) % 4);
                let fill = round
                    .wrapping_mul(31)
                    .wrapping_add((from * NODES + to) as u8);
                let ep = &mut self.eps[from as usize];
                let _ = ep.send(self.now, NodeId(to), Bytes::from(vec![fill; len]));
                let _ = ep.send_unreliable(self.now, NodeId(to), Bytes::from(vec![!fill; 150]));
            }
        }
    }

    /// Node `id` crashes and comes back as a new incarnation.
    fn restart(&mut self, id: u32, inc: Incarnation) {
        self.drain_events();
        let old = std::mem::replace(&mut self.eps[id as usize], endpoint(id, inc, &self.cfg));
        self.retired.push(old.stats());
    }

    /// The pin is only worth its constants if the run reached every
    /// branch it names.
    fn assert_not_vacuous(&self) {
        let sum = |f: fn(&TransportStats) -> u64| -> u64 {
            let live = self.eps.iter().map(|ep| f(&ep.stats())).sum::<u64>();
            live + self.retired.iter().map(f).sum::<u64>()
        };
        assert!(sum(|s| s.data_frames_sent) > 3 * sum(|s| s.msgs_sent + s.unreliable_sent));
        assert!(sum(|s| s.retransmissions) > 0, "loss was retried");
        assert!(sum(|s| s.duplicates_dropped) > 0, "duplicates arrived");
        assert!(sum(|s| s.ack_frags_coalesced) > 20, "bursts shared acks");
        assert!(sum(|s| s.stale_dropped) > 0, "the restart left ghosts");
        assert!(sum(|s| s.msgs_failed) >= 2, "a removed peer and a mute one");
        assert!(sum(|s| s.acks_unmatched) > 0 && self.refuted > 0);
        assert!(sum(|s| s.msgs_delivered) > 60);
        assert!(self.second_link > 0, "the second address was used");
    }

    fn finish(mut self) -> Fingerprint {
        self.drain_events();
        self.assert_not_vacuous();
        let mut stats = [FNV_OFFSET; NODES as usize];
        for (hash, ep) in stats.iter_mut().zip(&self.eps) {
            for (name, value) in ep.stats().fields() {
                fnv1a(hash, format!("{name}={value}\n").as_bytes());
            }
        }
        Fingerprint {
            wire: self.wire,
            datagrams: self.datagrams,
            events: self.events,
            stats,
        }
    }
}

fn run(strategy: SendStrategy) -> Fingerprint {
    const MS: fn(u64) -> Duration = Duration::from_millis;
    let mut w = World::new(strategy);

    // Calm rounds: round trips are measured and the timeouts come down.
    // Without jitter the fragments of a message arrive as one burst and
    // share an acknowledgement; with it they mostly do not.
    for round in 0..4 {
        w.burst(round);
        w.run_for(MS(25));
    }
    w.net.set_jitter(Duration::from_micros(300));

    // A link cut: node 1's first NIC is unplugged. Sequential sends walk
    // over to its second address; parallel ones never notice.
    w.net.set_nic(Addr::new(NodeId(1), 0), false);
    for round in 4..7 {
        w.burst(round);
        w.run_for(MS(150));
    }
    w.net.set_nic(Addr::new(NodeId(1), 0), true);
    w.run_for(MS(100));

    // Node 2 restarts at a higher incarnation with traffic to and from
    // its previous life in flight.
    w.burst(7);
    w.run_for(Duration::from_micros(150));
    w.restart(2, Incarnation(1));
    w.burst(8);
    w.run_for(MS(200));

    // Node 0 drops node 2 from its table mid-send: the next retry finds
    // nobody to send to. Then it learns the addresses again.
    w.net.set_node(NodeId(2), false);
    let _ = w.eps[0].send(w.now, NodeId(2), Bytes::from(vec![0xd2; 200]));
    w.run_for(MS(5));
    w.eps[0].peers_mut().remove(NodeId(2));
    w.run_for(MS(100));
    w.net.set_node(NodeId(2), true);
    let addrs = (0..NICS).map(|k| Addr::new(NodeId(2), k)).collect();
    w.eps[0].peers_mut().set(NodeId(2), addrs);
    w.burst(9);
    w.run_for(MS(200));

    // A give-up and a late acknowledgement: node 1 takes the message at
    // once, its acknowledgements are held back, and every retry is lost.
    let _ = w.eps[0].send(w.now, NodeId(1), Bytes::from(vec![0x1a; 180]));
    for d in w.drain(0) {
        w.eps[1].on_datagram(w.now, d);
    }
    let late = w.drain(1);
    w.net.set_node(NodeId(1), false);
    w.run_for(MS(400));
    w.net.set_node(NodeId(1), true);
    for d in late {
        w.eps[0].on_datagram(w.now, d);
    }
    w.burst(10);
    w.run_for(MS(300));
    w.finish()
}

/// What the parent of the transport split (PR 16's one-`impl` `Endpoint`)
/// leaves behind for [`run`] under the sequential strategy.
const PARENT_SEQUENTIAL: Fingerprint = Fingerprint {
    wire: 0x3ec1_00b0_7b5e_2678,
    datagrams: 632,
    events: [
        0x2ebc_b5d3_5f52_714c,
        0xbd0b_9a74_73d5_b958,
        0x215c_8aaa_f043_7846,
    ],
    stats: [
        0x68b0_dfe6_d819_f749,
        0x699a_761d_dad6_b6cf,
        0x9d30_60d1_1940_232b,
    ],
};

/// The same under the parallel strategy.
const PARENT_PARALLEL: Fingerprint = Fingerprint {
    wire: 0x7029_3e09_3737_cbe4,
    datagrams: 1005,
    events: [
        0xb3d7_a411_0061_1d4b,
        0x5ec4_d54b_b5f5_034c,
        0xcad4_0552_a10b_f23a,
    ],
    stats: [
        0x6d09_a86d_da34_5e52,
        0x5221_6eb0_6c46_2268,
        0x36e4_b8fe_a2b3_f12d,
    ],
};

#[test]
fn transport_split_is_inert() {
    let sequential = run(SendStrategy::Sequential);
    let parallel = run(SendStrategy::Parallel);
    assert_eq!(
        (&sequential, &parallel),
        (&PARENT_SEQUENTIAL, &PARENT_PARALLEL),
        "the transport no longer behaves like its parent: \
         {sequential:#x?} {parallel:#x?}"
    );
}

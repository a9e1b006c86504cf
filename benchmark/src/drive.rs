//! The load generator of the UDP workloads: one submitter thread that
//! follows the seeded schedule (or keeps a closed loop's windows full)
//! and one collector thread that drains every member's event channel,
//! stamps what arrives and hands back raw logs. No metric is computed
//! here; `udp.rs` reads them off the logs.

use crate::clock;
use crate::cluster::{Node, UdpCluster, WARMUP_INDEX};
use crate::pinned as P;
use crate::schedule::{self, Act, Mode, OpenSchedule};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use raincore_procher::proxy::LossProxy;
use raincore_session::SessionEvent;
use raincore_types::{DeliveryMode, NodeId};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

pub enum Load {
    /// Every origin keeps `window` multicasts of `len` bytes in flight; a
    /// completion is the delivery at the timing member.
    Closed {
        origins: Vec<u32>,
        len: u32,
        window: usize,
    },
    Open(OpenSchedule),
}

pub struct Plan {
    pub nodes: u32,
    /// The member whose deliveries are timed. The collector blocks on its
    /// channel, so its stamps are taken the moment an event is there; the
    /// other members are drained without waiting and only checked.
    pub timing: u32,
    /// The member that cycles the master lock (it is the timing member
    /// where there is one, for the same reason).
    pub lock_node: Option<u32>,
    /// The member the schedule unplugs and replugs.
    pub flap_node: Option<u32>,
    pub load: Load,
    pub seed: u64,
    pub warmup_ns: u64,
    pub window_ns: u64,
    /// Instants, ns after the start of the warm-up and ascending, at which
    /// the collector reads the meters; consecutive readings bound a slice.
    pub meter_edges: Vec<u64>,
}

/// One submit, accepted or not. Its position in `RunLog::sent` is the
/// workload index its payload carries.
#[derive(Clone, Copy, Debug)]
pub struct Sent {
    pub origin: u32,
    /// Origin sequence the program returned; `None` if it refused.
    pub seq: Option<u64>,
    pub len: u32,
    pub mode: Mode,
    pub step: u8,
    /// The instant latency counts from: the scheduled instant in an open
    /// loop, the instant just before the call in a closed one.
    pub due: u64,
    /// How late after `due` the call began, ns.
    pub late: u64,
    /// Wall time of the `multicast` call, ns.
    pub call_ns: u64,
}

/// The meters at one instant: what the program has used up to then.
#[derive(Clone, Copy, Debug)]
pub struct Reading {
    pub at: u64,
    /// CPU of the program's driver threads, ns.
    pub cpu_ns: u64,
    /// Datagrams the members have handed to the proxy (0 without one).
    pub proxied: u64,
}

#[derive(Clone, Copy, Debug)]
pub struct Delivered {
    pub origin: u32,
    pub seq: u64,
    pub index: u64,
    pub len: u32,
    pub content_ok: bool,
    pub at: u64,
}

/// Session events other than deliveries, counted per member.
#[derive(Clone, Copy, Debug, Default)]
pub struct EventCounts {
    pub regenerated: u64,
    pub merged: u64,
    pub membership: u64,
    pub starving: u64,
    pub shut_down: u64,
}

pub struct RunLog {
    /// Start of the warm-up and the measured window `[t0, t1)`.
    pub run0: u64,
    pub t0: u64,
    pub t1: u64,
    pub sent: Vec<Sent>,
    pub per_node: Vec<Vec<Delivered>>,
    pub events: Vec<EventCounts>,
    /// Scheduled instants of the lock requests made, and the instants
    /// `MasterAcquired` was seen, pairwise.
    pub lock_requested: Vec<u64>,
    pub lock_acquired: Vec<u64>,
    /// Lock requests the submitter skipped because the previous one was
    /// still waiting for the token (the generator shedding its own load,
    /// not the program refusing anything).
    pub lock_skipped: u64,
    /// Instants the unplugs and replugs were applied.
    pub unplugged: Vec<u64>,
    pub replugged: Vec<u64>,
    /// The meters, read at (just after) each of the plan's `meter_edges`.
    pub meter: Vec<Reading>,
    /// Driver-thread-to-collector hand-off times, ns (traced run only).
    pub handoff_ns: Vec<u64>,
}

struct Shared {
    submit_done: AtomicBool,
    accepted: AtomicU64,
    lock_pending: AtomicBool,
}

struct Submitted {
    sent: Vec<Sent>,
    lock_requested: Vec<u64>,
    lock_skipped: u64,
    unplugged: Vec<u64>,
    replugged: Vec<u64>,
}

struct Submitter<'a> {
    /// The measured window.
    t0: u64,
    t1: u64,
    plan: &'a Plan,
    cluster: &'a UdpCluster,
    shared: &'a Shared,
    out: Submitted,
}

impl Submitter<'_> {
    fn send(&mut self, origin: u32, len: u32, mode: Mode, step: u8, due: Option<u64>) {
        let index = self.out.sent.len() as u64;
        let payload = schedule::payload(self.plan.seed, index, len);
        let wire_mode = match mode {
            Mode::Agreed => DeliveryMode::Agreed,
            Mode::Safe => DeliveryMode::Safe,
        };
        let before = clock::now_ns();
        let reply = self.cluster.nodes[origin as usize].multicast(wire_mode, payload);
        let call_ns = clock::now_ns() - before;
        if reply.is_ok() {
            self.shared.accepted.fetch_add(1, Ordering::SeqCst);
        }
        let due = due.unwrap_or(before);
        self.out.sent.push(Sent {
            origin,
            seq: reply.ok().map(|s| s.0),
            len,
            mode,
            step,
            due,
            late: before.saturating_sub(due),
            call_ns,
        });
    }

    fn closed(&mut self, origins: &[u32], len: u32, window: usize, credits: &Receiver<u32>) {
        let (t0, t1) = (self.t0, self.t1);
        for &origin in origins {
            for _ in 0..window {
                self.send(origin, len, Mode::Agreed, 0, None);
            }
        }
        while clock::now_ns() < t1 {
            match credits.recv_timeout(Duration::from_millis(20)) {
                Ok(origin) => {
                    let step = u8::from(clock::now_ns() >= t0);
                    self.send(origin, len, Mode::Agreed, step, None);
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
    }

    fn open(&mut self, schedule: &OpenSchedule, run0: u64) {
        for &(due, act) in &schedule.acts {
            let due = run0 + due;
            clock::sleep_until(due);
            match act {
                Act::Send(m) => self.send(m.origin, m.len, m.mode, m.step, Some(due)),
                Act::LockRequest => {
                    if self.shared.lock_pending.swap(true, Ordering::SeqCst) {
                        self.out.lock_skipped += 1;
                    } else if let Some(lock) = self.plan.lock_node {
                        self.cluster.nodes[lock as usize].request_master();
                        self.out.lock_requested.push(due);
                    }
                }
                Act::Unplug | Act::Replug => {
                    let (Some(proxy), Some(flap)) = (&self.cluster.proxy, self.plan.flap_node)
                    else {
                        continue;
                    };
                    proxy.set_node(NodeId(flap), act == Act::Replug);
                    let log = if act == Act::Unplug {
                        &mut self.out.unplugged
                    } else {
                        &mut self.out.replugged
                    };
                    log.push(clock::now_ns());
                }
            }
        }
    }
}

struct Collector<'a> {
    plan: &'a Plan,
    nodes: &'a [Node],
    proxy: Option<&'a LossProxy>,
    shared: &'a Shared,
    credits: Option<Sender<u32>>,
    per_node: Vec<Vec<Delivered>>,
    events: Vec<EventCounts>,
    lock_acquired: Vec<u64>,
    handoff_ns: Vec<u64>,
}

impl Collector<'_> {
    fn handle(&mut self, node: usize, ev: SessionEvent, handed_off: u64) {
        let at = clock::now_ns();
        if handed_off > 0 {
            self.handoff_ns.push(at.saturating_sub(handed_off));
        }
        let counts = &mut self.events[node];
        match ev {
            SessionEvent::Delivery(d) => {
                let (index, content_ok) = schedule::verify_payload(self.plan.seed, &d.payload);
                if index == WARMUP_INDEX {
                    return;
                }
                self.per_node[node].push(Delivered {
                    origin: d.origin.0,
                    seq: d.seq.0,
                    index,
                    len: d.payload.len() as u32,
                    content_ok,
                    at,
                });
                if node == self.plan.timing as usize {
                    if let Some(credits) = &self.credits {
                        let _ = credits.send(d.origin.0);
                    }
                }
            }
            SessionEvent::MasterAcquired => {
                if Some(node as u32) == self.plan.lock_node {
                    self.lock_acquired.push(at);
                    self.nodes[node].release_master();
                    self.shared.lock_pending.store(false, Ordering::SeqCst);
                }
            }
            SessionEvent::TokenRegenerated { .. } => counts.regenerated += 1,
            SessionEvent::Merged { .. } => counts.merged += 1,
            SessionEvent::MembershipChanged { .. } => counts.membership += 1,
            SessionEvent::Starving => counts.starving += 1,
            SessionEvent::ShutDown { .. } => counts.shut_down += 1,
            SessionEvent::MulticastAtomic { .. } | SessionEvent::MasterReleased => {}
        }
    }

    /// Drains every member until the submitter is done and every full
    /// member has delivered everything accepted, or the drain deadline.
    fn run(&mut self, run0: u64, t1: u64) -> Vec<Reading> {
        let timing = self.plan.timing as usize;
        let edges = &self.plan.meter_edges;
        let mut meter = Vec::new();
        loop {
            let mut next = self.nodes[timing].recv_event(Duration::from_millis(1));
            while let Some((ev, handed_off)) = next {
                self.handle(timing, ev, handed_off);
                next = self.nodes[timing].recv_event(Duration::ZERO);
            }
            for node in (0..self.nodes.len()).filter(|&i| i != timing) {
                while let Some((ev, handed_off)) = self.nodes[node].recv_event(Duration::ZERO) {
                    self.handle(node, ev, handed_off);
                }
            }
            let now = clock::now_ns();
            if edges
                .get(meter.len())
                .is_some_and(|&edge| now >= run0 + edge)
            {
                // Every datagram a member sends reaches the proxy, which
                // forwards it or drops it for the unplug.
                let proxied = self.proxy.map_or(0, |p| {
                    let s = p.stats();
                    s.forwarded + s.dropped_blocked
                });
                meter.push(Reading {
                    at: now,
                    cpu_ns: clock::cpu_ns(&clock::DRIVER_THREADS),
                    proxied,
                });
            }
            let accepted = self.shared.accepted.load(Ordering::SeqCst);
            let complete = self.shared.submit_done.load(Ordering::SeqCst)
                && self.per_node.iter().enumerate().all(|(i, log)| {
                    Some(i as u32) == self.plan.flap_node || log.len() as u64 >= accepted
                });
            let expired = now >= t1 + P::DRAIN_DEADLINE_MS * 1_000_000;
            if (complete || expired) && meter.len() == edges.len() {
                return meter;
            }
        }
    }
}

/// Runs `plan` against `cluster`: warm-up, the measured window, drain.
pub fn run(plan: &Plan, cluster: &UdpCluster) -> RunLog {
    let n = plan.nodes as usize;
    let shared = Shared {
        submit_done: AtomicBool::new(false),
        accepted: AtomicU64::new(0),
        lock_pending: AtomicBool::new(false),
    };
    let (credits_tx, credits_rx) = unbounded::<u32>();
    let run0 = clock::now_ns();
    let t0 = run0 + plan.warmup_ns;
    let t1 = t0 + plan.window_ns;
    let mut submitter = Submitter {
        t0,
        t1,
        plan,
        cluster,
        shared: &shared,
        out: Submitted {
            sent: Vec::new(),
            lock_requested: Vec::new(),
            lock_skipped: 0,
            unplugged: Vec::new(),
            replugged: Vec::new(),
        },
    };
    let mut collector = Collector {
        plan,
        nodes: &cluster.nodes,
        proxy: cluster.proxy.as_ref(),
        shared: &shared,
        credits: matches!(plan.load, Load::Closed { .. }).then_some(credits_tx),
        per_node: vec![Vec::new(); n],
        events: vec![EventCounts::default(); n],
        lock_acquired: Vec::new(),
        handoff_ns: Vec::new(),
    };
    let meter = std::thread::scope(|s| {
        let collecting = s.spawn(|| collector.run(run0, t1));
        match &plan.load {
            Load::Closed {
                origins,
                len,
                window,
            } => submitter.closed(origins, *len, *window, &credits_rx),
            Load::Open(schedule) => submitter.open(schedule, run0),
        }
        shared.submit_done.store(true, Ordering::SeqCst);
        collecting.join().expect("collector thread panicked")
    });
    RunLog {
        run0,
        t0,
        t1,
        sent: submitter.out.sent,
        per_node: collector.per_node,
        events: collector.events,
        lock_requested: submitter.out.lock_requested,
        lock_acquired: collector.lock_acquired,
        lock_skipped: submitter.out.lock_skipped,
        unplugged: submitter.out.unplugged,
        replugged: submitter.out.replugged,
        meter,
        handoff_ns: collector.handoff_ns,
    }
}

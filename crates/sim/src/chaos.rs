//! Deterministic seeded chaos/soak harness.
//!
//! The bounded model checker ([`crate::explore`]) proves the protocol
//! safe on tiny clusters by exhausting every interleaving; the scripted
//! integration tests exercise a handful of hand-picked disturbances. This
//! module fills the gap between them: long-horizon *randomized* fault
//! schedules on realistic cluster sizes (4–12 nodes, including
//! multi-group merge scenarios), checked against the safety auditors
//! *and* the liveness oracles of [`crate::audit`].
//!
//! Everything is driven from a single `u64` seed:
//!
//! 1. [`generate_schedule`] expands a seed into a weighted stream of
//!    [`ChaosEvent`]s — crashes, restarts, NIC unplugs (exercising the
//!    §2.1 multi-address strategies), directed link flaps, partitions and
//!    heals, plus message duplication/reordering and timer-jitter dials
//!    that feed the injection hooks in `raincore-net`'s [`SimNet`].
//! 2. [`run_chaos`] replays the schedule tick by tick over a [`Cluster`],
//!    feeding every simulation quantum to the token auditor and every
//!    tick to the [`ScheduleEngine`], which holds the rules of the run:
//!    which disturbances it *believes* are outstanding, when the safety
//!    auditors may speak, and the bounds within which the cluster must
//!    reconverge once the schedule ends and the believed network is clean.
//! 3. On violation, [`shrink`] cuts the failing schedule down to a
//!    1-minimal one and [`dump_violation`] renders a replayable text dump
//!    that [`parse_dump`] reads back (`chaos --replay FILE`).
//!
//! Determinism contract: `(ChaosConfig, schedule)` fully determines a
//! run. The schedule generator and the network share nothing but their
//! seeds, so a minimized schedule replays identically without the
//! generator.
//!
//! [`SimNet`]: raincore_net::SimNet

use crate::cluster::{Cluster, ClusterBuilder, ClusterConfig};
use crate::engine::{minimize, NetBelief, ScheduleEngine, TickBounds};
use bytes::Bytes;
use raincore_net::Addr;
use raincore_session::StartMode;
use raincore_types::{DeliveryMode, Duration, Error, NodeId, Result, Ring, Time};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::str::FromStr;

// ----------------------------------------------------------------------
// Fault taxonomy
// ----------------------------------------------------------------------

/// One injectable disturbance. Probabilities are expressed in permille
/// (integer thousandths) so schedules round-trip through text exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosFault {
    /// Crash a node (process + all NICs).
    Crash(NodeId),
    /// Restart a crashed node in [`StartMode::Joining`]. Scheduled for a
    /// member that is up it does nothing, in every world
    /// ([`ScheduleEngine::next_due`]).
    Restart(NodeId),
    /// Cut one bidirectional node-to-node link.
    LinkDown(NodeId, NodeId),
    /// Restore one bidirectional node-to-node link.
    LinkUp(NodeId, NodeId),
    /// Unplug one NIC's cable (§2.1 multi-address fail-over).
    NicDown(Addr),
    /// Re-plug one NIC.
    NicUp(Addr),
    /// Partition the cluster into the given groups.
    Partition(Vec<Vec<NodeId>>),
    /// Heal every link-level failure and partition.
    Heal,
    /// Set per-packet duplication probability, in permille.
    Duplicate(u32),
    /// Set per-packet reordering probability, in permille.
    Reorder(u32),
    /// Set uniform latency jitter, in microseconds.
    Jitter(u64),
    /// Set the drop probability (permille) applied *only* to out-of-band
    /// bulk payload frames (DESIGN.md §13) — the targeted fault behind
    /// the id-without-payload hazard: the token still orders every id
    /// while the payloads racing it get lost.
    BulkLoss(u32),
    /// Stall one link once, for this many microseconds: the link of the
    /// next datagram between two nodes holds everything put on it, either
    /// way, until the stall is over. What a member whose thread does not
    /// get a CPU looks like to its peers — the fault the adaptive
    /// detection timers (DESIGN.md §17) must tell from a dead member.
    DelaySpike(u64),
}

/// How a fault bears on what the verifiers may claim while it is fresh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A member went down or came back: its group identity is no longer
    /// the founding one ([`crate::audit::GroupIdOracle`]).
    Churn(NodeId),
    /// Connectivity changed: the safety auditors' link-calm window closes
    /// for a grace period ([`ScheduleEngine::link_calm`]).
    Link,
    /// An injection dial: the claims hold under it.
    Dial,
}

impl ChaosFault {
    /// Stable class name used for obs counters and CLI summaries.
    pub fn class(&self) -> &'static str {
        match self {
            ChaosFault::Crash(_) => "crash",
            ChaosFault::Restart(_) => "restart",
            ChaosFault::LinkDown(..) => "link-down",
            ChaosFault::LinkUp(..) => "link-up",
            ChaosFault::NicDown(_) => "nic-down",
            ChaosFault::NicUp(_) => "nic-up",
            ChaosFault::Partition(_) => "partition",
            ChaosFault::Heal => "heal",
            ChaosFault::Duplicate(_) => "dup",
            ChaosFault::Reorder(_) => "reorder",
            ChaosFault::Jitter(_) => "jitter",
            ChaosFault::BulkLoss(_) => "bulk-loss",
            ChaosFault::DelaySpike(_) => "delay-spike",
        }
    }

    /// The fault's [`FaultKind`]. A delay spike a member can outwait is a
    /// dial. One that reaches `give_up_floor` is a link that was down for
    /// a while: the member behind it is evicted although it got what it
    /// was sent, and the token may fork until the stale copy is
    /// discarded. `None` for a world that cannot stall a link.
    pub fn kind(&self, give_up_floor: Option<Duration>) -> FaultKind {
        match self {
            ChaosFault::Crash(id) | ChaosFault::Restart(id) => FaultKind::Churn(*id),
            ChaosFault::LinkDown(..)
            | ChaosFault::LinkUp(..)
            | ChaosFault::NicDown(_)
            | ChaosFault::NicUp(_)
            | ChaosFault::Partition(_)
            | ChaosFault::Heal => FaultKind::Link,
            ChaosFault::DelaySpike(us)
                if give_up_floor
                    .is_some_and(|floor| Duration::from_micros(*us) + SPIKE_MARGIN >= floor) =>
            {
                FaultKind::Link
            }
            ChaosFault::Duplicate(_)
            | ChaosFault::Reorder(_)
            | ChaosFault::Jitter(_)
            | ChaosFault::BulkLoss(_)
            | ChaosFault::DelaySpike(_) => FaultKind::Dial,
        }
    }
}

impl fmt::Display for ChaosFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaosFault::Crash(n) => write!(f, "crash {n}"),
            ChaosFault::Restart(n) => write!(f, "restart {n}"),
            ChaosFault::LinkDown(a, b) => write!(f, "link-down {a} {b}"),
            ChaosFault::LinkUp(a, b) => write!(f, "link-up {a} {b}"),
            ChaosFault::NicDown(a) => write!(f, "nic-down {a}"),
            ChaosFault::NicUp(a) => write!(f, "nic-up {a}"),
            ChaosFault::Partition(groups) => {
                write!(f, "partition ")?;
                for (i, g) in groups.iter().enumerate() {
                    if i > 0 {
                        write!(f, "|")?;
                    }
                    for (j, n) in g.iter().enumerate() {
                        if j > 0 {
                            write!(f, ",")?;
                        }
                        write!(f, "{n}")?;
                    }
                }
                Ok(())
            }
            ChaosFault::Heal => write!(f, "heal"),
            ChaosFault::Duplicate(p) => write!(f, "dup {p}"),
            ChaosFault::Reorder(p) => write!(f, "reorder {p}"),
            ChaosFault::Jitter(us) => write!(f, "jitter {us}"),
            ChaosFault::BulkLoss(p) => write!(f, "bulk-loss {p}"),
            ChaosFault::DelaySpike(us) => write!(f, "delay-spike {us}"),
        }
    }
}

pub(crate) fn parse_node(s: &str) -> Option<NodeId> {
    s.strip_prefix('n')?.parse().ok().map(NodeId)
}

fn parse_addr(s: &str) -> Option<Addr> {
    let (node, nic) = s.split_once('.')?;
    Some(Addr::new(parse_node(node)?, nic.parse().ok()?))
}

impl FromStr for ChaosFault {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, String> {
        let mut it = s.split_whitespace();
        let kind = it.next().ok_or("empty fault")?;
        let bad = || format!("malformed fault: {s:?}");
        let node =
            |it: &mut std::str::SplitWhitespace| it.next().and_then(parse_node).ok_or_else(bad);
        match kind {
            "crash" => Ok(ChaosFault::Crash(node(&mut it)?)),
            "restart" => Ok(ChaosFault::Restart(node(&mut it)?)),
            "link-down" => Ok(ChaosFault::LinkDown(node(&mut it)?, node(&mut it)?)),
            "link-up" => Ok(ChaosFault::LinkUp(node(&mut it)?, node(&mut it)?)),
            "nic-down" => Ok(ChaosFault::NicDown(
                it.next().and_then(parse_addr).ok_or_else(bad)?,
            )),
            "nic-up" => Ok(ChaosFault::NicUp(
                it.next().and_then(parse_addr).ok_or_else(bad)?,
            )),
            "partition" => {
                let spec = it.next().ok_or_else(bad)?;
                let mut groups = Vec::new();
                for g in spec.split('|') {
                    let members: Option<Vec<NodeId>> = g.split(',').map(parse_node).collect();
                    groups.push(members.ok_or_else(bad)?);
                }
                Ok(ChaosFault::Partition(groups))
            }
            "heal" => Ok(ChaosFault::Heal),
            "dup" => Ok(ChaosFault::Duplicate(
                it.next().and_then(|v| v.parse().ok()).ok_or_else(bad)?,
            )),
            "reorder" => Ok(ChaosFault::Reorder(
                it.next().and_then(|v| v.parse().ok()).ok_or_else(bad)?,
            )),
            "jitter" => Ok(ChaosFault::Jitter(
                it.next().and_then(|v| v.parse().ok()).ok_or_else(bad)?,
            )),
            "bulk-loss" => Ok(ChaosFault::BulkLoss(
                it.next().and_then(|v| v.parse().ok()).ok_or_else(bad)?,
            )),
            "delay-spike" => Ok(ChaosFault::DelaySpike(
                it.next().and_then(|v| v.parse().ok()).ok_or_else(bad)?,
            )),
            _ => Err(bad()),
        }
    }
}

/// A fault scheduled at an engine tick: text form `@12 crash n2`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosEvent {
    /// Engine tick (0-based) at which the fault fires.
    pub tick: u64,
    /// The fault itself.
    pub fault: ChaosFault,
}

impl fmt::Display for ChaosEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{} {}", self.tick, self.fault)
    }
}

impl FromStr for ChaosEvent {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, String> {
        let s = s.trim();
        let rest = s
            .strip_prefix('@')
            .ok_or_else(|| format!("missing @tick: {s:?}"))?;
        let (tick, fault) = rest
            .split_once(' ')
            .ok_or_else(|| format!("missing fault: {s:?}"))?;
        Ok(ChaosEvent {
            tick: tick.parse().map_err(|_| format!("bad tick: {s:?}"))?,
            fault: fault.parse()?,
        })
    }
}

// ----------------------------------------------------------------------
// Configuration
// ----------------------------------------------------------------------

/// How the cluster starts before the fault stream begins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosScenario {
    /// All nodes found one group together.
    Founding,
    /// Every node starts isolated and must coalesce via discovery/merge.
    Isolated,
    /// Two founding groups that share one eligible membership and must
    /// merge via BODYODOR discovery (§2.4).
    Split,
}

impl fmt::Display for ChaosScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaosScenario::Founding => write!(f, "founding"),
            ChaosScenario::Isolated => write!(f, "isolated"),
            ChaosScenario::Split => write!(f, "split"),
        }
    }
}

impl FromStr for ChaosScenario {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, String> {
        match s {
            "founding" => Ok(ChaosScenario::Founding),
            "isolated" => Ok(ChaosScenario::Isolated),
            "split" => Ok(ChaosScenario::Split),
            other => Err(format!("unknown scenario: {other:?}")),
        }
    }
}

/// Everything that determines one chaos run. Together with a schedule it
/// fully determines the outcome (see the module docs).
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Cluster size (the issue's envelope is 4–12).
    pub nodes: u32,
    /// NICs per node (≥ 2 exercises the §2.1 fail-over strategies).
    pub nics: u8,
    /// Seed for both the schedule generator and the network model.
    pub seed: u64,
    /// Initial topology.
    pub scenario: ChaosScenario,
    /// Ticks of active fault injection.
    pub ticks: u64,
    /// Virtual duration of one engine tick.
    pub tick: Duration,
    /// Ticks of undisturbed run-in before injection starts.
    pub warmup_ticks: u64,
    /// Mean ticks between generated faults (0 disables generation).
    pub fault_period: u64,
    /// Multicast one workload message every this many ticks (0 = none).
    pub workload_period: u64,
    /// Quiet = no believed link blocks and this many ticks since the
    /// last fault.
    pub grace_ticks: u64,
    /// Token-liveness bound: max quiet ticks without token progress.
    pub token_bound_ticks: u64,
    /// Convergence bound: max quiet ticks without membership agreement.
    pub convergence_bound_ticks: u64,
    /// Converged quiet ticks required after the schedule to declare the
    /// run clean.
    pub post_ticks: u64,
    /// Arm the deliberately seeded liveness bug: heals update the
    /// engine's belief but never reach the network (the chaos analogue
    /// of the model checker's `forge_token`).
    pub seeded_fault: bool,
    /// Out-of-band dissemination threshold handed to every member's
    /// [`SessionConfig`](raincore_types::SessionConfig) (0 = piggyback
    /// only, the pre-§13 behavior). When on, the schedule generator adds
    /// bulk-loss dial events (from an RNG stream separate from the main
    /// one, so seeds generate identical non-bulk schedules either way)
    /// and the workload alternates payloads large enough to take the
    /// out-of-band path.
    pub bulk_threshold: usize,
    /// Pads every piggybacked workload payload to this many bytes (0 =
    /// the one-byte payloads of the calm-ring soaks). Past two transport
    /// datagrams a single message fills the token, so every hop that
    /// carries it is an early pass (DESIGN.md §16) of a token fragmented
    /// three ways — the regime the padded soak puts under fault injection.
    pub payload_pad: usize,
    /// The delay-spike soak (DESIGN.md §17.5). When on, the schedule is
    /// nothing but [`ChaosFault::DelaySpike`]s and the members run the
    /// stock detection timeouts (`retry_timeout` 50 ms, `hungry_timeout`
    /// 400 ms), so their timers come down to what they measure. The first
    /// half of the run stalls links for less than the members' give-up
    /// budget, and no member may suspect another; the second half stalls
    /// them for longer, up to `delay_spike` times the budget in percent,
    /// and whatever that breaks must heal.
    pub delay_spike: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            nodes: 5,
            nics: 2,
            seed: 1,
            scenario: ChaosScenario::Founding,
            ticks: 500,
            tick: Duration::from_millis(10),
            warmup_ticks: 100,
            fault_period: 25,
            workload_period: 10,
            grace_ticks: 150,
            token_bound_ticks: 150,
            convergence_bound_ticks: 1500,
            post_ticks: 100,
            seeded_fault: false,
            bulk_threshold: 0,
            payload_pad: 0,
            delay_spike: 0,
        }
    }
}

impl ChaosConfig {
    /// The named merge-torture scenario: the 5-node partition/heal storm
    /// `tests/merge_torture.rs` used to hand-script, now expressed as a
    /// seeded schedule over the same fast-timer cluster.
    pub fn merge_torture(seed: u64) -> Self {
        ChaosConfig {
            nodes: 5,
            seed,
            ticks: 300,
            fault_period: 20,
            ..ChaosConfig::default()
        }
    }

    /// The five tick bounds, as the [`ScheduleEngine`] takes them.
    pub fn bounds(&self) -> TickBounds {
        TickBounds {
            ticks: self.ticks,
            grace_ticks: self.grace_ticks,
            token_bound_ticks: self.token_bound_ticks,
            convergence_bound_ticks: self.convergence_bound_ticks,
            post_ticks: self.post_ticks,
        }
    }

    /// The fast-timer cluster configuration every chaos run uses.
    pub fn cluster_config(&self) -> ClusterConfig {
        let mut c = ClusterConfig::default();
        c.session.token_hold = Duration::from_millis(2);
        c.session.hungry_timeout = Duration::from_millis(100);
        c.session.starving_retry = Duration::from_millis(40);
        c.session.beacon_period = Duration::from_millis(50);
        c.transport.retry_timeout = Duration::from_millis(10);
        if self.delay_spike > 0 {
            c.session.hungry_timeout = Duration::from_millis(400);
            c.transport.retry_timeout = raincore_types::TransportConfig::default().retry_timeout;
        }
        c.session.bulk_threshold = self.bulk_threshold;
        c.net.seed = self.seed;
        c.nics = self.nics.max(1);
        c
    }

    /// The least a member of this cluster waits before failure-on-delivery
    /// once it has measured its peer: every try on every address at the
    /// floor of the adaptive timeout.
    pub fn give_up_floor(&self) -> Duration {
        let t = self.cluster_config().transport;
        raincore_transport::MIN_RTO
            .min(t.retry_timeout)
            .saturating_mul(u64::from(t.max_retries))
            .saturating_mul(u64::from(self.nics.max(1)))
    }

    fn build_cluster(&self) -> Result<Cluster> {
        if self.nodes < 2 {
            return Err(Error::Config("chaos needs at least 2 nodes"));
        }
        let cfg = self.cluster_config();
        match self.scenario {
            ChaosScenario::Founding => Cluster::founding(self.nodes, cfg),
            ChaosScenario::Isolated => Cluster::isolated(self.nodes, cfg),
            ChaosScenario::Split => {
                // Two founding rings over one eligible membership; the
                // builder defaults eligibility to all members, so the
                // groups discover each other and must merge.
                let cut = self.nodes / 2;
                let ring_a = Ring::from_iter((0..cut).map(NodeId));
                let ring_b = Ring::from_iter((cut..self.nodes).map(NodeId));
                let mut b = ClusterBuilder::new(cfg);
                for i in 0..self.nodes {
                    let ring = if i < cut {
                        ring_a.clone()
                    } else {
                        ring_b.clone()
                    };
                    b = b.member(NodeId(i), StartMode::Founding(ring));
                }
                b.build()
            }
        }
    }

    /// Renders the `key=value` config line embedded in dump headers.
    pub fn header_line(&self) -> String {
        format!(
            "nodes={} nics={} seed={} scenario={} ticks={} tick_us={} warmup={} \
             fault_period={} workload={} grace={} token_bound={} conv_bound={} \
             post={} seeded_fault={} bulk_threshold={} pad={} delay_spike={}",
            self.nodes,
            self.nics,
            self.seed,
            self.scenario,
            self.ticks,
            self.tick.as_nanos() / 1_000,
            self.warmup_ticks,
            self.fault_period,
            self.workload_period,
            self.grace_ticks,
            self.token_bound_ticks,
            self.convergence_bound_ticks,
            self.post_ticks,
            self.seeded_fault,
            self.bulk_threshold,
            self.payload_pad,
            self.delay_spike,
        )
    }

    /// Parses a `key=value` config line produced by [`Self::header_line`].
    /// Unknown keys are ignored; missing keys keep their defaults.
    pub fn from_header_line(line: &str) -> std::result::Result<Self, String> {
        let mut cfg = ChaosConfig::default();
        for pair in line.split_whitespace() {
            let Some((k, v)) = pair.split_once('=') else {
                return Err(format!("malformed config pair: {pair:?}"));
            };
            let num = || v.parse::<u64>().map_err(|_| format!("bad value: {pair:?}"));
            match k {
                "nodes" => cfg.nodes = num()? as u32,
                "nics" => cfg.nics = num()? as u8,
                "seed" => cfg.seed = num()?,
                "scenario" => cfg.scenario = v.parse()?,
                "ticks" => cfg.ticks = num()?,
                "tick_us" => cfg.tick = Duration::from_micros(num()?),
                "warmup" => cfg.warmup_ticks = num()?,
                "fault_period" => cfg.fault_period = num()?,
                "workload" => cfg.workload_period = num()?,
                "grace" => cfg.grace_ticks = num()?,
                "token_bound" => cfg.token_bound_ticks = num()?,
                "conv_bound" => cfg.convergence_bound_ticks = num()?,
                "post" => cfg.post_ticks = num()?,
                "seeded_fault" => cfg.seeded_fault = v == "true",
                "bulk_threshold" => cfg.bulk_threshold = num()? as usize,
                "pad" => cfg.payload_pad = num()? as usize,
                "delay_spike" => cfg.delay_spike = num()?,
                _ => {}
            }
        }
        Ok(cfg)
    }
}

// ----------------------------------------------------------------------
// Schedule generation
// ----------------------------------------------------------------------

/// Expands `cfg.seed` into a weighted fault schedule. The generator keeps
/// just enough state to stay *survivable*: at least two nodes stay up, a
/// node never loses its last NIC, and an epilogue at `cfg.ticks` restores
/// every node, NIC and link and zeroes the injection dials so the
/// liveness oracles have a fair convergence target.
pub fn generate_schedule(cfg: &ChaosConfig) -> Vec<ChaosEvent> {
    let mut rng = StdRng::seed_from_u64(
        cfg.seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(cfg.nodes)),
    );
    if cfg.delay_spike > 0 {
        return generate_spikes(cfg, &mut rng);
    }
    let n = cfg.nodes;
    let mut crashed: Vec<NodeId> = Vec::new();
    let mut blocked: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
    let mut nics_down: Vec<Addr> = Vec::new();
    let mut partitioned = false;
    let mut events: Vec<ChaosEvent> = Vec::new();
    let push = |tick: u64, fault: ChaosFault, events: &mut Vec<ChaosEvent>| {
        events.push(ChaosEvent { tick, fault });
    };

    for tick in 0..cfg.ticks {
        if cfg.fault_period == 0 || rng.random_range(0..cfg.fault_period) != 0 {
            continue;
        }
        let roll = rng.random_range(0u32..100);
        let fault = match roll {
            // Crash: keep at least two nodes alive.
            0..=17 => {
                let up: Vec<NodeId> = (0..n)
                    .map(NodeId)
                    .filter(|id| !crashed.contains(id))
                    .collect();
                if up.len() <= 2 {
                    None
                } else {
                    let v = up[rng.random_range(0..up.len())];
                    crashed.push(v);
                    Some(ChaosFault::Crash(v))
                }
            }
            // Restart a random victim.
            18..=32 => {
                if crashed.is_empty() {
                    None
                } else {
                    let v = crashed.swap_remove(rng.random_range(0..crashed.len()));
                    Some(ChaosFault::Restart(v))
                }
            }
            // Directed pair link cut.
            33..=45 => {
                let a = NodeId(rng.random_range(0..n));
                let b = NodeId(rng.random_range(0..n));
                if a == b {
                    None
                } else {
                    let key = (a.min(b), a.max(b));
                    if blocked.insert(key) {
                        Some(ChaosFault::LinkDown(key.0, key.1))
                    } else {
                        None
                    }
                }
            }
            // Restore one cut link.
            46..=55 => {
                if blocked.is_empty() {
                    None
                } else {
                    let i = rng.random_range(0..blocked.len());
                    let key = *blocked.iter().nth(i).unwrap_or(&(NodeId(0), NodeId(0)));
                    blocked.remove(&key);
                    Some(ChaosFault::LinkUp(key.0, key.1))
                }
            }
            // Unplug a NIC, never a node's last one.
            56..=65 => {
                if cfg.nics < 2 {
                    None
                } else {
                    let candidates: Vec<Addr> = (0..n)
                        .flat_map(|i| (0..cfg.nics).map(move |k| Addr::new(NodeId(i), k)))
                        .filter(|a| !nics_down.contains(a))
                        .filter(|a| {
                            let down_here = nics_down.iter().filter(|d| d.node == a.node).count();
                            down_here + 1 < usize::from(cfg.nics)
                        })
                        .collect();
                    if candidates.is_empty() {
                        None
                    } else {
                        let a = candidates[rng.random_range(0..candidates.len())];
                        nics_down.push(a);
                        Some(ChaosFault::NicDown(a))
                    }
                }
            }
            // Re-plug a NIC.
            66..=73 => {
                if nics_down.is_empty() {
                    None
                } else {
                    let a = nics_down.swap_remove(rng.random_range(0..nics_down.len()));
                    Some(ChaosFault::NicUp(a))
                }
            }
            // Full partition into two or three groups.
            74..=83 => {
                let mut ids: Vec<NodeId> = (0..n).map(NodeId).collect();
                // Fisher–Yates with the schedule RNG.
                for i in (1..ids.len()).rev() {
                    ids.swap(i, rng.random_range(0..=i));
                }
                let parts = if n >= 6 && rng.random_range(0..2) == 0 {
                    3
                } else {
                    2
                };
                let mut groups: Vec<Vec<NodeId>> = Vec::new();
                let base = ids.len() / parts;
                let mut rest = ids.as_slice();
                for p in 0..parts {
                    let take = if p == parts - 1 {
                        rest.len()
                    } else {
                        base.max(1)
                    };
                    let (g, r) = rest.split_at(take.min(rest.len()));
                    if !g.is_empty() {
                        groups.push(g.to_vec());
                    }
                    rest = r;
                }
                if groups.len() < 2 {
                    None
                } else {
                    partitioned = true;
                    Some(ChaosFault::Partition(groups))
                }
            }
            // Heal everything.
            84..=91 => {
                if partitioned || !blocked.is_empty() {
                    partitioned = false;
                    blocked.clear();
                    Some(ChaosFault::Heal)
                } else {
                    None
                }
            }
            // Injection dials.
            92..=94 => Some(ChaosFault::Duplicate(rng.random_range(0..=80))),
            95..=97 => Some(ChaosFault::Reorder(rng.random_range(0..=120))),
            _ => Some(ChaosFault::Jitter(rng.random_range(0..=500))),
        };
        if let Some(fault) = fault {
            push(tick, fault, &mut events);
        }
    }

    // Bulk-loss dials ride a *separate* RNG stream so enabling the
    // out-of-band path never perturbs the main generator: a seed's
    // non-bulk schedule is byte-identical with bulk on or off.
    if cfg.bulk_threshold > 0 && cfg.fault_period > 0 {
        let mut brng = StdRng::seed_from_u64(
            cfg.seed
                .wrapping_mul(0xA076_1D64_78BD_642F)
                .wrapping_add(u64::from(cfg.nodes)),
        );
        for tick in 0..cfg.ticks {
            if brng.random_range(0..cfg.fault_period.saturating_mul(3)) == 0 {
                let permille = brng.random_range(50..=400);
                push(tick, ChaosFault::BulkLoss(permille), &mut events);
            }
        }
        push(cfg.ticks, ChaosFault::BulkLoss(0), &mut events);
    }

    // Epilogue: restore the world so convergence is achievable.
    let end = cfg.ticks;
    push(end, ChaosFault::Duplicate(0), &mut events);
    push(end, ChaosFault::Reorder(0), &mut events);
    push(end, ChaosFault::Jitter(0), &mut events);
    for a in nics_down {
        push(end, ChaosFault::NicUp(a), &mut events);
    }
    if partitioned || !blocked.is_empty() {
        push(end, ChaosFault::Heal, &mut events);
    }
    for v in crashed {
        push(end, ChaosFault::Restart(v), &mut events);
    }
    events
}

/// Margin between a generated stall and the give-up budget it is meant
/// to stay under or go over: link latency both ways, and the tick.
const SPIKE_MARGIN: Duration = Duration::from_millis(2);

/// The delay-spike schedule: stalls just over one armed timeout and
/// safely under the give-up budget in the first half of the run, over the
/// budget in the second.
fn generate_spikes(cfg: &ChaosConfig, rng: &mut StdRng) -> Vec<ChaosEvent> {
    let budget = cfg.give_up_floor().as_nanos() / 1_000;
    let margin = SPIKE_MARGIN.as_nanos() / 1_000;
    let one_rto = raincore_transport::MIN_RTO.as_nanos() / 1_000;
    let over = (budget * cfg.delay_spike / 100).max(budget + 2 * margin);
    // Two stalls that run into each other add up: keep them a stall and
    // a give-up apart.
    let apart = (over + budget) / (cfg.tick.as_nanos() / 1_000).max(1) + 1;
    let mut events: Vec<ChaosEvent> = Vec::new();
    for tick in 0..cfg.ticks {
        if cfg.fault_period == 0
            || rng.random_range(0..cfg.fault_period) != 0
            || events.last().is_some_and(|e| tick < e.tick + apart)
        {
            continue;
        }
        let us = if tick < cfg.ticks / 2 {
            rng.random_range(one_rto + margin..=budget - margin)
        } else {
            rng.random_range(budget + margin..=over)
        };
        events.push(ChaosEvent {
            tick,
            fault: ChaosFault::DelaySpike(us),
        });
    }
    events
}

// ----------------------------------------------------------------------
// Engine
// ----------------------------------------------------------------------

/// A liveness or safety violation observed during a chaos run.
#[derive(Debug, Clone)]
pub struct ChaosViolation {
    /// Engine tick at which the violation was recorded.
    pub tick: u64,
    /// Virtual time at which the violation was recorded.
    pub at: Time,
    /// Human-readable description (stable prefix per oracle).
    pub reason: String,
}

/// Trace evidence frozen at the instant a violation fired, while the
/// cluster still held it: the merged journal (JSON, `tracectl`'s input
/// format), the flight-recorder dump naming the triggering hop, and the
/// rendered causal waterfall.
#[derive(Debug, Clone)]
pub struct ChaosEvidence {
    /// Merged per-node trace journals as a JSON event array.
    pub journal_json: String,
    /// Flight-recorder text dump (last ~1k protocol moments, all nodes).
    pub flight_text: String,
    /// Causally ordered token waterfall rendered from the journals.
    pub waterfall: String,
}

/// Outcome of one chaos run.
pub struct ChaosReport {
    /// The first violation, if any oracle or auditor fired.
    pub violation: Option<ChaosViolation>,
    /// Trace evidence captured at the violation instant (`None` on a
    /// clean run).
    pub evidence: Option<ChaosEvidence>,
    /// True if the run ended quiet and converged.
    pub converged: bool,
    /// Engine ticks executed (includes convergence/soak tail).
    pub ticks_run: u64,
    /// Faults applied from the schedule.
    pub faults_applied: u64,
    /// Scheduled restarts the engine skipped because the member was up
    /// (counted in `faults_applied` all the same).
    pub restarts_skipped: u64,
    /// Applied fault counts per class (also exported via `registry`).
    pub fault_counts: BTreeMap<&'static str, u64>,
    /// Duplicate copies the network injected.
    pub dups_injected: u64,
    /// Reorder delays the network injected.
    pub reorders_injected: u64,
    /// Deliveries the completeness auditor checked against an expected
    /// payload length — soaks with bulk loss enabled assert this is
    /// nonzero so the §13 oracle cannot pass vacuously.
    pub completeness_checked: u64,
    /// Bulk frames the targeted loss dial actually dropped.
    pub bulk_drops_injected: u64,
    /// Token passes the pacing rule released early, summed over the
    /// members as they stand at the end (a restart zeroes a member's
    /// count, so this is a floor) — padded soaks assert it is nonzero so
    /// the early-pass path cannot go unexercised.
    pub early_passes: u64,
    /// Retransmissions while every delay spike so far was under the
    /// give-up budget (delay-spike soaks only): a stall crossed an armed
    /// timeout and the member outwaited it. Soaks assert it is nonzero,
    /// so "no suspicion under the budget" cannot pass for want of spikes
    /// that reached a timer.
    pub spike_retransmissions: u64,
    /// Evictions of members that were alive all along, summed over the
    /// members as they stand at the end. Delay-spike soaks assert it is
    /// nonzero: some stall over the budget must have been believed.
    pub false_suspicions: u64,
    /// Successor probes sent (DESIGN.md §17.3), summed like
    /// `early_passes`. Delay-spike soaks — the ones that run the stock
    /// timeouts, under which the probe limit is armed — assert it is
    /// nonzero: some member was hungry for long enough to ask.
    pub probes_sent: u64,
    /// Metrics registry with `raincore_chaos_*` counters.
    pub registry: raincore_obs::Registry,
}

/// Runs `schedule` over a fresh cluster built from `cfg`. The tick loop
/// and the quietness rules are the [`ScheduleEngine`]'s; what is written
/// here is what only the simulator has: faults applied to the `SimNet`,
/// the seeded workload, virtual time advanced one quantum at a time with
/// the token auditor watching each, and the delay-spike oracle.
pub fn run_chaos(cfg: &ChaosConfig, schedule: &[ChaosEvent]) -> Result<ChaosReport> {
    Ok(run_and_keep(cfg, schedule)?.0)
}

/// [`run_chaos`], handing back the cluster as the run left it.
fn run_and_keep(cfg: &ChaosConfig, schedule: &[ChaosEvent]) -> Result<(ChaosReport, Cluster)> {
    let mut cluster = cfg.build_cluster()?;
    let registry = raincore_obs::Registry::new();
    let violations_counter = registry.counter("raincore_chaos_violations_total", &[]);
    // In process every claim but delivery order is sound (a member's log
    // runs on across its restarts, and a partition's two sides deliver
    // different things): the order auditor is never fed.
    let belief = NetBelief::new(cfg.nodes, cfg.nics);
    let give_up_floor = cfg.give_up_floor();
    let mut engine = ScheduleEngine::new(schedule, cfg.bounds(), belief, Some(give_up_floor), true);

    let mut now = Time::ZERO;
    for _ in 0..cfg.warmup_ticks {
        now += cfg.tick;
        cluster.run_until_with(now, |c| engine.auditors.token.observe(c));
    }

    let mut workload_turn = 0u64;
    let mut violation: Option<ChaosViolation> = None;
    let mut evidence: Option<ChaosEvidence> = None;
    // The delay-spike oracle: until a stall outlasts the give-up budget
    // (`ScheduleEngine::spike_over_floor`), nothing may have made any
    // member suspect another.
    let mut retx_under_budget = 0u64;
    let mut ticks_run = 0u64;

    for tick in 0..cfg.bounds().horizon() {
        ticks_run = tick + 1;
        while let Some(fault) = engine.next_due(tick) {
            apply_fault(&mut cluster, fault, cfg.seeded_fault);
        }

        if cfg.workload_period > 0 && tick % cfg.workload_period == 0 {
            let live = cluster.live_members();
            if !live.is_empty() {
                let from = live[(workload_turn as usize) % live.len()];
                let mode = if workload_turn.is_multiple_of(3) {
                    DeliveryMode::Safe
                } else {
                    DeliveryMode::Agreed
                };
                // With the out-of-band path on, every other message is
                // fat enough to disseminate as a bulk frame the loss dial
                // can target; odd-sized so truncation cannot alias. Every
                // other one of those is eight thresholds long: a full
                // token's worth of freight by itself, beside a token
                // that stays a few dozen bytes and is passed early all
                // the same (§16.1).
                let byte = (workload_turn & 0xff) as u8;
                let payload = if cfg.bulk_threshold > 0 && workload_turn % 2 == 1 {
                    let thresholds = if workload_turn % 4 == 3 { 8 } else { 2 };
                    Bytes::from(vec![byte; cfg.bulk_threshold * thresholds + 1])
                } else {
                    Bytes::from(vec![byte; cfg.payload_pad.max(1)])
                };
                // Backpressure (token full) is expected under churn.
                let _ = cluster.multicast(from, mode, payload);
                workload_turn += 1;
            }
        }

        now += cfg.tick;
        // Reality, not belief, says whether a pair is severed.
        let link_calm = engine.link_calm(tick, cluster.connectivity_severed());
        if link_calm {
            cluster.run_until_with(now, |c| engine.auditors.token.observe(c));
        } else {
            cluster.run_until(now);
        }
        let mut spike_suspicion = None;
        if cfg.delay_spike > 0 && !engine.spike_over_floor() {
            let live = cluster.live_members();
            if live
                .iter()
                .any(|&id| cluster.metrics(id).failures_detected > 0)
            {
                spike_suspicion = Some(format!(
                    "false suspicion: a delay spike under the give-up budget ({give_up_floor:?}) \
                     made a member give up on a peer"
                ));
            }
            retx_under_budget = live
                .iter()
                .map(|&id| cluster.transport_stats(id).retransmissions)
                .sum();
        }
        let verdict = engine.observe_tick(&cluster, tick, link_calm);

        if let Some(reason) = spike_suspicion.or(verdict) {
            violations_counter.inc();
            // Stamp the violation into the shared flight ring (node
            // u32::MAX = the harness itself), then freeze the trace
            // evidence while the cluster still holds it.
            cluster.flight().record(
                cluster.now().as_nanos(),
                u32::MAX,
                raincore_obs::RecKind::Violation,
                0,
                0,
                0,
                0,
            );
            evidence = Some(ChaosEvidence {
                journal_json: cluster.journal_json(),
                flight_text: cluster.flight().render_text(),
                waterfall: raincore_obs::render_waterfall(
                    &cluster.merged_journal(),
                    &raincore_obs::WaterfallOpts::default(),
                ),
            });
            violation = Some(ChaosViolation {
                tick,
                at: cluster.now(),
                reason,
            });
            break;
        }

        if engine.settled(tick, &cluster, true) {
            break;
        }
    }

    let converged = violation.is_none() && cluster.membership_converged();
    let sum_metric = |f: fn(&raincore_session::SessionMetrics) -> u64| -> u64 {
        let ids = cluster.member_ids();
        ids.iter().map(|&id| f(&cluster.metrics(id))).sum()
    };
    let early_passes = sum_metric(|m| m.tokens_passed_early);
    let false_suspicions = sum_metric(|m| m.false_suspicions);
    let probes_sent = sum_metric(|m| m.probes_sent);
    let net = cluster.net_mut();
    let dups_injected = net.dups_injected();
    let reorders_injected = net.reorders_injected();
    let bulk_drops_injected = net.matched_drops();
    for (class, count) in &engine.fault_counts {
        registry
            .counter("raincore_chaos_faults_total", &[("class", class)])
            .add(*count);
    }
    registry
        .counter("raincore_chaos_dups_injected_total", &[])
        .add(dups_injected);
    registry
        .counter("raincore_chaos_reorders_injected_total", &[])
        .add(reorders_injected);
    registry
        .counter("raincore_chaos_bulk_drops_injected_total", &[])
        .add(bulk_drops_injected);
    let report = ChaosReport {
        violation,
        evidence,
        converged,
        ticks_run,
        faults_applied: engine.faults_applied(),
        restarts_skipped: engine.restarts_skipped,
        fault_counts: engine.fault_counts,
        dups_injected,
        reorders_injected,
        completeness_checked: engine.auditors.completeness.checked,
        bulk_drops_injected,
        early_passes,
        spike_retransmissions: retx_under_budget,
        false_suspicions,
        probes_sent,
        registry,
    };
    Ok((report, cluster))
}

fn apply_fault(cluster: &mut Cluster, fault: &ChaosFault, seeded_fault: bool) {
    match fault {
        ChaosFault::Crash(id) => cluster.crash(*id),
        ChaosFault::Restart(id) => {
            let _ = cluster.restart(*id, StartMode::Joining);
        }
        ChaosFault::LinkDown(a, b) => cluster.set_link(*a, *b, false),
        ChaosFault::LinkUp(a, b) => cluster.set_link(*a, *b, true),
        ChaosFault::NicDown(a) => cluster.set_nic(*a, false),
        ChaosFault::NicUp(a) => cluster.set_nic(*a, true),
        ChaosFault::Partition(groups) => {
            let refs: Vec<&[NodeId]> = groups.iter().map(|g| g.as_slice()).collect();
            cluster.partition(&refs);
        }
        // The seeded liveness bug: the repair is believed but never
        // executed, so the network stays partitioned while the engine
        // (and hence the quietness flag) thinks it healed.
        ChaosFault::Heal => {
            if !seeded_fault {
                cluster.heal();
            }
        }
        ChaosFault::Duplicate(permille) => {
            cluster
                .net_mut()
                .set_duplication(f64::from(*permille) / 1000.0);
        }
        ChaosFault::Reorder(permille) => {
            let window = Duration::from_micros(2_000);
            cluster
                .net_mut()
                .set_reordering(f64::from(*permille) / 1000.0, window);
        }
        ChaosFault::Jitter(us) => cluster.net_mut().set_jitter(Duration::from_micros(*us)),
        ChaosFault::BulkLoss(permille) => {
            cluster
                .net_mut()
                .set_matched_loss(f64::from(*permille) / 1000.0, crate::explore::is_bulk_frame);
        }
        ChaosFault::DelaySpike(us) => {
            cluster
                .net_mut()
                .set_delay_spike(Duration::from_micros(*us));
        }
    }
}

// ----------------------------------------------------------------------
// Shrinking and dumps
// ----------------------------------------------------------------------

/// Truncates a failing `schedule` at the tick of its violation and
/// shrinks it to a 1-minimal one (`engine::minimize`).
pub fn shrink(cfg: &ChaosConfig, schedule: &[ChaosEvent], tick: u64) -> Result<Vec<ChaosEvent>> {
    let upto = schedule.iter().filter(|e| e.tick <= tick);
    let truncated: Vec<ChaosEvent> = upto.cloned().collect();
    minimize(&truncated, |s| Ok(run_chaos(cfg, s)?.violation.is_some()))
}

/// What [`find_and_minimize`] found: the violation, the truncated
/// original schedule, and its 1-minimal shrink.
pub type FoundViolation = (ChaosViolation, Vec<ChaosEvent>, Vec<ChaosEvent>);

/// Finds a violation for `cfg` (generating the schedule from its seed),
/// truncates the schedule at the violation tick and minimizes it.
/// Returns `None` if the run is clean.
pub fn find_and_minimize(cfg: &ChaosConfig) -> Result<Option<FoundViolation>> {
    let schedule = generate_schedule(cfg);
    let report = run_chaos(cfg, &schedule)?;
    let Some(violation) = report.violation else {
        return Ok(None);
    };
    let minimized = shrink(cfg, &schedule, violation.tick)?;
    Ok(Some((violation, schedule, minimized)))
}

/// Renders a replayable violation dump: commented header (reason, tick,
/// config) followed by one event per line.
pub fn dump_violation(
    cfg: &ChaosConfig,
    violation: &ChaosViolation,
    events: &[ChaosEvent],
) -> String {
    let mut out = String::new();
    out.push_str("# raincore chaos violation dump\n");
    out.push_str(&format!("# reason: {}\n", violation.reason));
    out.push_str(&format!("# tick: {} at {}\n", violation.tick, violation.at));
    out.push_str(&format!("# config: {}\n", cfg.header_line()));
    for e in events {
        out.push_str(&format!("{e}\n"));
    }
    out
}

/// Parses a dump produced by [`dump_violation`] back into the config and
/// schedule needed to replay it.
pub fn parse_dump(text: &str) -> std::result::Result<(ChaosConfig, Vec<ChaosEvent>), String> {
    let mut cfg = ChaosConfig::default();
    let mut saw_config = false;
    let mut events = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            if let Some(c) = rest.trim().strip_prefix("config:") {
                cfg = ChaosConfig::from_header_line(c.trim())?;
                saw_config = true;
            }
            continue;
        }
        events.push(line.parse::<ChaosEvent>()?);
    }
    if !saw_config {
        return Err("dump has no `# config:` header".into());
    }
    Ok((cfg, events))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_generation_is_deterministic_and_seed_sensitive() {
        let cfg = ChaosConfig::default();
        let a = generate_schedule(&cfg);
        let b = generate_schedule(&cfg);
        assert_eq!(a, b, "same seed, same schedule");
        assert!(!a.is_empty(), "default config must generate faults");
        let other = ChaosConfig {
            seed: cfg.seed + 1,
            ..cfg
        };
        assert_ne!(a, generate_schedule(&other), "different seed differs");
    }

    #[test]
    fn events_round_trip_through_text() {
        let events = vec![
            ChaosEvent {
                tick: 3,
                fault: ChaosFault::Crash(NodeId(2)),
            },
            ChaosEvent {
                tick: 5,
                fault: ChaosFault::Restart(NodeId(2)),
            },
            ChaosEvent {
                tick: 7,
                fault: ChaosFault::LinkDown(NodeId(0), NodeId(3)),
            },
            ChaosEvent {
                tick: 8,
                fault: ChaosFault::LinkUp(NodeId(0), NodeId(3)),
            },
            ChaosEvent {
                tick: 9,
                fault: ChaosFault::NicDown(Addr::new(NodeId(1), 1)),
            },
            ChaosEvent {
                tick: 10,
                fault: ChaosFault::NicUp(Addr::new(NodeId(1), 1)),
            },
            ChaosEvent {
                tick: 11,
                fault: ChaosFault::Partition(vec![
                    vec![NodeId(0), NodeId(1)],
                    vec![NodeId(2), NodeId(3)],
                ]),
            },
            ChaosEvent {
                tick: 12,
                fault: ChaosFault::Heal,
            },
            ChaosEvent {
                tick: 13,
                fault: ChaosFault::Duplicate(55),
            },
            ChaosEvent {
                tick: 14,
                fault: ChaosFault::Reorder(80),
            },
            ChaosEvent {
                tick: 15,
                fault: ChaosFault::Jitter(250),
            },
            ChaosEvent {
                tick: 16,
                fault: ChaosFault::BulkLoss(300),
            },
        ];
        for e in &events {
            let text = e.to_string();
            let back: ChaosEvent = text.parse().unwrap_or_else(|err| panic!("{text}: {err}"));
            assert_eq!(&back, e, "{text}");
        }
    }

    #[test]
    fn dump_round_trips_config_and_events() {
        let cfg = ChaosConfig {
            nodes: 7,
            seed: 42,
            scenario: ChaosScenario::Split,
            seeded_fault: true,
            bulk_threshold: 512,
            payload_pad: 3000,
            ..ChaosConfig::default()
        };
        let violation = ChaosViolation {
            tick: 17,
            at: Time::ZERO + Duration::from_millis(170),
            reason: "membership liveness: test".into(),
        };
        let events = vec![
            ChaosEvent {
                tick: 9,
                fault: ChaosFault::Partition(vec![vec![NodeId(0)], vec![NodeId(1), NodeId(2)]]),
            },
            ChaosEvent {
                tick: 12,
                fault: ChaosFault::Heal,
            },
        ];
        let dump = dump_violation(&cfg, &violation, &events);
        let (parsed_cfg, parsed_events) = parse_dump(&dump).expect("parse");
        assert_eq!(parsed_events, events);
        assert_eq!(parsed_cfg.nodes, cfg.nodes);
        assert_eq!(parsed_cfg.seed, cfg.seed);
        assert_eq!(parsed_cfg.scenario, cfg.scenario);
        assert_eq!(parsed_cfg.seeded_fault, cfg.seeded_fault);
        assert_eq!(parsed_cfg.tick, cfg.tick);
        assert_eq!(parsed_cfg.bulk_threshold, cfg.bulk_threshold);
        assert_eq!(parsed_cfg.payload_pad, cfg.payload_pad);
    }

    #[test]
    fn bulk_dial_only_extends_the_schedule() {
        // Enabling the out-of-band path must not perturb the main RNG
        // stream: strip the bulk-loss events and the schedules match, so
        // every pinned seed keeps its exact non-bulk fault sequence.
        let base = ChaosConfig::default();
        let bulk = ChaosConfig {
            bulk_threshold: 512,
            ..base.clone()
        };
        let plain = generate_schedule(&base);
        let with_bulk = generate_schedule(&bulk);
        let stripped: Vec<ChaosEvent> = with_bulk
            .iter()
            .filter(|e| !matches!(e.fault, ChaosFault::BulkLoss(_)))
            .cloned()
            .collect();
        assert_eq!(stripped, plain, "bulk dial perturbed the base schedule");
        assert!(
            with_bulk
                .iter()
                .any(|e| matches!(e.fault, ChaosFault::BulkLoss(p) if p > 0)),
            "bulk-enabled schedule generated no bulk-loss events"
        );
        assert!(
            with_bulk
                .iter()
                .any(|e| e.fault == ChaosFault::BulkLoss(0) && e.tick == bulk.ticks),
            "missing bulk-loss epilogue reset"
        );
    }

    #[test]
    fn restart_of_a_member_that_is_up_changes_nothing() {
        // A 1-minimal dump may lose the `crash` line and keep the
        // `restart`: it must replay to what it replays to on real sockets,
        // where nothing restarts a process that is running.
        // (`ticks` past the grace of a fault at tick 5: both runs then
        // settle on the same tick.)
        let cfg = ChaosConfig {
            nodes: 4,
            ticks: 200,
            fault_period: 0,
            ..ChaosConfig::default()
        };
        let stray = vec![ChaosEvent {
            tick: 5,
            fault: ChaosFault::Restart(NodeId(0)),
        }];
        let (calm, calm_cluster) = run_and_keep(&cfg, &[]).unwrap();
        let (report, cluster) = run_and_keep(&cfg, &stray).unwrap();
        assert!(report.violation.is_none(), "{:?}", report.violation);
        assert!(report.converged);
        assert_eq!(report.faults_applied, 1, "counted");
        assert_eq!(report.fault_counts["restart"], 1);
        assert_eq!(report.restarts_skipped, 1);
        assert_eq!((calm.faults_applied, calm.ticks_run), (0, report.ticks_run));
        for id in cluster.member_ids() {
            assert!(!cluster.deliveries(id).is_empty());
            assert_eq!(cluster.deliveries(id), calm_cluster.deliveries(id), "{id}");
            // A new incarnation would have started its counters at zero.
            assert_eq!(cluster.metrics(id), calm_cluster.metrics(id), "{id}");
        }
        // The comparison is not blind: the same line after a crash bites.
        let mut churn = stray;
        churn[0].tick = 6;
        churn.insert(
            0,
            ChaosEvent {
                tick: 5,
                fault: ChaosFault::Crash(NodeId(0)),
            },
        );
        let (bitten, churned) = run_and_keep(&cfg, &churn).unwrap();
        assert_eq!(bitten.restarts_skipped, 0);
        assert_ne!(churned.metrics(NodeId(0)), calm_cluster.metrics(NodeId(0)));
    }

    #[test]
    fn generator_respects_survivability_rules() {
        for seed in 0..20 {
            let cfg = ChaosConfig {
                seed,
                ticks: 2_000,
                fault_period: 5,
                ..ChaosConfig::default()
            };
            let schedule = generate_schedule(&cfg);
            let mut crashed: BTreeSet<NodeId> = BTreeSet::new();
            let mut nics_down: BTreeSet<Addr> = BTreeSet::new();
            for e in &schedule {
                match &e.fault {
                    ChaosFault::Crash(id) => {
                        crashed.insert(*id);
                        assert!(
                            (crashed.len() as u32) <= cfg.nodes - 2,
                            "seed {seed}: too many simultaneous crashes"
                        );
                    }
                    ChaosFault::Restart(id) => {
                        crashed.remove(id);
                    }
                    ChaosFault::NicDown(a) => {
                        nics_down.insert(*a);
                        let here = nics_down.iter().filter(|d| d.node == a.node).count();
                        assert!(
                            here < usize::from(cfg.nics),
                            "seed {seed}: node {} lost its last NIC",
                            a.node
                        );
                    }
                    ChaosFault::NicUp(a) => {
                        nics_down.remove(a);
                    }
                    _ => {}
                }
            }
            assert!(crashed.is_empty(), "seed {seed}: epilogue must restart all");
            assert!(
                nics_down.is_empty(),
                "seed {seed}: epilogue must re-plug all"
            );
        }
    }
}

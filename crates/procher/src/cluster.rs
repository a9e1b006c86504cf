//! The parent: spawns real child processes, applies a chaos schedule
//! through the proxy, and audits merged real-socket telemetry.
//!
//! [`run_cluster`] runs a [`raincore_sim::ChaosEvent`] schedule through
//! the [`ScheduleEngine`] that [`raincore_sim::run_chaos`] runs it
//! through — one set of quietness rules, auditors and liveness oracles —
//! but the "cluster" is N OS processes over UDP and the audit view is
//! rebuilt each tick from the children's export files instead of read
//! out of simulator memory.
//!
//! Fault mapping (1 NIC per node):
//!
//! | schedule fault        | real-world action                           |
//! |-----------------------|---------------------------------------------|
//! | `crash nK`            | `SIGKILL` the child process                 |
//! | `restart nK`          | respawn as a token-less joiner, +1 incarnation (the engine skips it while `nK` is up) |
//! | `link-down/up a b`    | pairwise cut in the proxy                   |
//! | `nic-down/up nK.0`    | whole-node unplug in the proxy (another index is refused) |
//! | `partition ...`       | group-based cut in the proxy                |
//! | `heal`                | clear cuts + partition (unplugs persist)    |
//! | `dup/reorder/jitter/bulk-loss` | proxy injection dials              |
//! | `delay-spike`         | one-shot proxy stall of the next datagram's sender (a node stands in for the simulator's link) |
//!
//! Safety auditors quantified over a single instant (token uniqueness,
//! unique 911 winner) are deliberately *not* run here: per-node exports
//! are written on independent clocks, so the merged view is time-skewed
//! and those claims would false-positive. The skew-tolerant checks run
//! instead — see the crate docs and `DESIGN.md` §10.

// Real-socket harness parent: wall-clock ticks over OS processes, never
// protocol time.
#![allow(clippy::disallowed_types)]

use crate::child::{ChildArgs, Ctl, StartKind};
use crate::export::{merge_export_journals, node_file, ChildExport};
use crate::proxy::{LossProxy, ProxyDials, ProxyStats};
use raincore_sim::text::{text_fields, Codec, FilePath, Plain, TextFields};
use raincore_sim::{
    AuditView, ChaosEvent, ChaosFault, NetBelief, NodeStatus, ScheduleEngine, StatusView,
    TickBounds,
};
use raincore_types::{NodeId, Time};
use std::collections::{BTreeMap, HashMap};
use std::io::BufRead;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Configuration of one harness run.
#[derive(Clone, Debug)]
pub struct ProcConfig {
    /// Cluster size.
    pub nodes: u32,
    /// Seed for the proxy's packet-fate RNG.
    pub seed: u64,
    /// How every child starts at tick 0: founding one group with the
    /// full ring, or isolated singletons that merge via discovery.
    pub scenario: StartKind,
    /// Parent tick length in milliseconds (schedule ticks are parent
    /// ticks).
    pub tick_ms: u64,
    /// The tick bounds of the run, in parent ticks.
    pub bounds: TickBounds,
    /// Baseline injection dials (schedule `dup`/`reorder`/`jitter`
    /// faults override individual dials mid-run).
    pub dials: ProxyDials,
    /// Agreed multicasts each child originates.
    pub workload_count: u32,
    /// Pacing between originations, milliseconds.
    pub workload_period_ms: u64,
    /// Out-of-band bulk threshold handed to every child's session config
    /// (bytes; 0 keeps the OOB path off). With it on, odd workload
    /// multicasts are sized past the threshold so real bulk frames cross
    /// the proxy.
    pub bulk_threshold: usize,
    /// Child export period, milliseconds.
    pub export_ms: u64,
    /// Directory for export/ctl files and the run report.
    pub out_dir: PathBuf,
    /// Path of the `procher` binary to spawn children from.
    pub child_exe: PathBuf,
}

impl ProcConfig {
    /// Defaults sized like the simulator chaos defaults, scaled to the
    /// 10 ms parent tick: 1.5 s grace, 3 s token bound, 15 s convergence
    /// bound, 0.5 s converged tail.
    pub fn new(child_exe: PathBuf, out_dir: PathBuf) -> ProcConfig {
        ProcConfig {
            nodes: 4,
            seed: 1,
            scenario: StartKind::Founding,
            tick_ms: 10,
            bounds: TickBounds {
                ticks: 300,
                grace_ticks: 150,
                token_bound_ticks: 300,
                convergence_bound_ticks: 1500,
                post_ticks: 50,
            },
            dials: ProxyDials::default(),
            workload_count: 3,
            workload_period_ms: 40,
            bulk_threshold: 0,
            export_ms: 50,
            out_dir,
            child_exe,
        }
    }
}

// The soak flags, one row per field. `report.txt` records every row on
// its `config:` line, the flagless ones too.
text_fields! {
    impl ProcConfig {
        "seed" => seed: Plain, "--seed N";
        "nodes" => nodes: Plain, "--nodes N";
        "loss" => dials.drop_permille: Permille, "--loss P";
        "dup" => dials.dup_permille: Permille, "--dup P";
        "reorder" => dials.reorder_permille: Permille, "--reorder P";
        "delay_us" => dials.delay_us: Plain, "--delay-us N";
        "bulk_loss" => dials.bulk_drop_permille: Permille;
        "ticks" => bounds.ticks: Plain, "--ticks N";
        "grace" => bounds.grace_ticks: Plain;
        "token_bound" => bounds.token_bound_ticks: Plain;
        "conv_bound" => bounds.convergence_bound_ticks: Plain;
        "post" => bounds.post_ticks: Plain;
        "tick_ms" => tick_ms: Plain, "--tick-ms N";
        "scenario" => scenario: Plain, "--scenario founding|isolated";
        "workload_count" => workload_count: Plain, "--workload-count N";
        "workload_period_ms" => workload_period_ms: Plain, "--workload-period-ms N";
        "bulk_threshold" => bulk_threshold: Plain, "--bulk THRESHOLD";
        "export_ms" => export_ms: Plain;
        "out_dir" => out_dir: FilePath, "--out-dir DIR";
    }
}

/// A per-packet probability in [0, 1], kept in permille: `0.05` is 50.
struct Permille;

impl Codec<u32> for Permille {
    fn write(v: &u32) -> String {
        (f64::from(*v) / 1000.0).to_string()
    }
    fn read(word: &str) -> Option<u32> {
        let p: f64 = word.parse().ok()?;
        let permille = (p * 1000.0).round() as u32;
        (0.0..=1.0).contains(&p).then_some(permille)
    }
}

impl ProcConfig {
    /// Refuses a run that could prove nothing, before anything is bound
    /// or spawned: no member, no tick, no member to found a group, or a
    /// fault aimed at a node or NIC the cluster does not have.
    pub fn validate(&self, schedule: &[ChaosEvent]) -> Result<(), String> {
        if self.nodes == 0 {
            return Err("--nodes 0: a cluster of no member converges vacuously".into());
        }
        if self.tick_ms == 0 {
            return Err("--tick-ms 0: a tick that takes no time leaves no time to converge".into());
        }
        if self.scenario == StartKind::Joining {
            return Err("--scenario joining: no member would found a group".into());
        }
        for event in schedule {
            let named = match &event.fault {
                ChaosFault::Crash(n) | ChaosFault::Restart(n) => vec![*n],
                ChaosFault::LinkDown(a, b) | ChaosFault::LinkUp(a, b) => vec![*a, *b],
                // `apply` unplugs the whole node for a NIC fault, which
                // the one-NIC belief follows only for index 0.
                ChaosFault::NicDown(nic) | ChaosFault::NicUp(nic) if nic.nic != 0 => {
                    return Err(format!("`{event}`: a procher child has one NIC, index 0"));
                }
                ChaosFault::NicDown(nic) | ChaosFault::NicUp(nic) => vec![nic.node],
                ChaosFault::Partition(groups) => groups.concat(),
                ChaosFault::Heal
                | ChaosFault::Duplicate(_)
                | ChaosFault::Reorder(_)
                | ChaosFault::Jitter(_)
                | ChaosFault::BulkLoss(_)
                | ChaosFault::DelaySpike(_) => Vec::new(),
            };
            if let Some(n) = named.iter().find(|n| n.0 >= self.nodes) {
                return Err(format!("`{event}`: the cluster has no {n}"));
            }
        }
        Ok(())
    }
}

/// Outcome of one harness run.
#[derive(Debug)]
pub struct ProcReport {
    /// First oracle/auditor violation, as `(tick, reason)`.
    pub violation: Option<(u64, String)>,
    /// True if the run ended quiet and converged (and, on crash-free
    /// workload runs, with every delivery accounted for).
    pub converged: bool,
    /// Ticks executed, including the convergence tail.
    pub ticks_run: u64,
    /// Faults applied from the schedule.
    pub faults_applied: u64,
    /// Scheduled restarts skipped because the child was running.
    pub restarts_skipped: u64,
    /// Export documents parsed.
    pub exports_parsed: u64,
    /// Final per-node status from the last export of each child.
    pub per_node: BTreeMap<NodeId, NodeStatus>,
    /// Sum of per-node 911 regenerations at the end of the run.
    pub total_regenerations: u64,
    /// Proxy traffic counters.
    pub proxy: ProxyStats,
    /// On non-convergence: what blocked the streak on the last tick that
    /// reset it (diagnostic, not an oracle verdict).
    pub last_block: Option<String>,
}

struct ChildProc {
    proc: Child,
    incarnation: u32,
    alive: bool,
}

struct Harness<'a> {
    cfg: &'a ProcConfig,
    proxy: LossProxy,
    children: BTreeMap<NodeId, ChildProc>,
    /// Cache of the last successfully parsed export per node: raw text
    /// (to skip reparsing unchanged files) and the extracted status.
    cache: HashMap<NodeId, (String, u32, NodeStatus)>,
    exports_parsed: u64,
    started: Instant,
}

impl<'a> Harness<'a> {
    /// Binds the proxy and spawns every member of `cfg`'s cluster.
    fn launch(cfg: &'a ProcConfig, start: StartKind) -> std::io::Result<Harness<'a>> {
        std::fs::create_dir_all(&cfg.out_dir)?;
        let ids: Vec<NodeId> = (0..cfg.nodes).map(NodeId).collect();
        let proxy = LossProxy::bind(&ids, cfg.seed)?;
        proxy.set_dials(cfg.dials);
        let mut h = Harness {
            cfg,
            proxy,
            children: BTreeMap::new(),
            cache: HashMap::new(),
            exports_parsed: 0,
            started: Instant::now(),
        };
        for id in ids {
            h.spawn_child(id, 0, start)?;
        }
        Ok(h)
    }

    fn export_path(&self, id: NodeId) -> PathBuf {
        node_file(&self.cfg.out_dir, id, "export")
    }

    /// Writes `word` to child `id`'s ctl file.
    fn ctl(&self, id: NodeId, word: Ctl) -> std::io::Result<()> {
        std::fs::write(node_file(&self.cfg.out_dir, id, "ctl"), word.to_string())
    }

    fn spawn_child(
        &mut self,
        id: NodeId,
        incarnation: u32,
        start: StartKind,
    ) -> std::io::Result<()> {
        let proxy_of = |p| {
            self.proxy
                .proxy_addr(NodeId(p))
                .expect("bound for every member")
        };
        let child = ChildArgs {
            node: id,
            incarnation,
            start,
            peers: (0..self.cfg.nodes).map(proxy_of).collect(),
            dir: self.cfg.out_dir.clone(),
            export_ms: self.cfg.export_ms,
            workload_count: self.cfg.workload_count,
            workload_period_ms: self.cfg.workload_period_ms,
            bulk_threshold: self.cfg.bulk_threshold,
        };
        // A fresh incarnation must not inherit the previous life's export
        // or ctl state.
        let _ = std::fs::remove_file(self.export_path(id));
        self.ctl(id, Ctl::Run)?;
        let mut proc = Command::new(&self.cfg.child_exe)
            .arg("--child")
            .args(child.pairs())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdout = proc.stdout.take().expect("piped stdout");
        let mut lines = std::io::BufReader::new(stdout).lines();
        let port_line = lines
            .next()
            .transpose()?
            .ok_or_else(|| std::io::Error::other(format!("child {id} exited before PORT")))?;
        let saddr = port_line
            .strip_prefix("PORT ")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| std::io::Error::other(format!("child {id}: bad line `{port_line}`")))?;
        let ready = lines.next().transpose()?;
        if ready.as_deref() != Some("READY") {
            return Err(std::io::Error::other(format!("child {id} never got READY")));
        }
        // The reader thread for the child's stdout is no longer needed;
        // children print nothing after READY.
        drop(lines);
        self.proxy.set_dest(id, saddr);
        self.cache.remove(&id);
        self.children.insert(
            id,
            ChildProc {
                proc,
                incarnation,
                alive: true,
            },
        );
        Ok(())
    }

    fn kill_child(&mut self, id: NodeId) {
        if let Some(c) = self.children.get_mut(&id) {
            let _ = c.proc.kill();
            let _ = c.proc.wait();
            c.alive = false;
        }
    }

    /// Applies one schedule fault to the children and the proxy.
    fn apply(&mut self, fault: &ChaosFault, dials: &mut ProxyDials) -> std::io::Result<()> {
        match fault {
            ChaosFault::Crash(id) => self.kill_child(*id),
            ChaosFault::Restart(id) => {
                let next = self.children.get(id).map_or(0, |c| c.incarnation + 1);
                self.spawn_child(*id, next, StartKind::Joining)?;
            }
            ChaosFault::LinkDown(a, b) => self.proxy.set_link(*a, *b, false),
            ChaosFault::LinkUp(a, b) => self.proxy.set_link(*a, *b, true),
            ChaosFault::NicDown(addr) => self.proxy.set_node(addr.node, false),
            ChaosFault::NicUp(addr) => self.proxy.set_node(addr.node, true),
            ChaosFault::Partition(groups) => self.proxy.partition(groups),
            ChaosFault::Heal => self.proxy.heal(),
            ChaosFault::Duplicate(p) => {
                dials.dup_permille = *p;
                self.proxy.set_dials(*dials);
            }
            ChaosFault::Reorder(p) => {
                dials.reorder_permille = *p;
                self.proxy.set_dials(*dials);
            }
            ChaosFault::Jitter(us) => {
                dials.delay_us = *us;
                self.proxy.set_dials(*dials);
            }
            ChaosFault::BulkLoss(p) => {
                dials.bulk_drop_permille = *p;
                self.proxy.set_dials(*dials);
            }
            ChaosFault::DelaySpike(us) => self.proxy.stall_next(Duration::from_micros(*us)),
        }
        Ok(())
    }

    /// Reaps children that exited on their own; returns their ids.
    fn reap(&mut self) -> Vec<NodeId> {
        let mut gone = Vec::new();
        for (&id, c) in self.children.iter_mut() {
            if c.alive && c.proc.try_wait().ok().flatten().is_some() {
                c.alive = false;
                gone.push(id);
            }
        }
        gone
    }

    /// Rebuilds the audit view from the children's current export files.
    /// Every configured node appears; a node with no current-incarnation
    /// export (dead, restarting, or not yet exporting) audits as dead.
    fn status_view(&mut self) -> StatusView {
        let mut view = StatusView::new(Time(self.started.elapsed().as_nanos() as u64));
        for i in 0..self.cfg.nodes {
            let id = NodeId(i);
            let child = self.children.get(&id);
            let raw = std::fs::read_to_string(self.export_path(id)).unwrap_or_default();
            let mut status = NodeStatus::default();
            if !raw.is_empty() {
                let cached = self.cache.get(&id).filter(|(prev, _, _)| *prev == raw);
                let parsed: Option<(u32, NodeStatus)> = match cached {
                    Some((_, inc, st)) => Some((*inc, st.clone())),
                    None => match ChildExport::parse_status(&raw) {
                        Ok(exp) => {
                            self.exports_parsed += 1;
                            let st = exp.node_status();
                            let inc = exp.incarnation;
                            self.cache.insert(id, (raw.clone(), inc, st.clone()));
                            Some((inc, st))
                        }
                        // A torn read (rename midway) fixes itself next
                        // tick; keep the previous status meanwhile.
                        Err(_) => self.cache.get(&id).map(|(_, inc, st)| (*inc, st.clone())),
                    },
                };
                if let Some((inc, st)) = parsed {
                    let current = child.is_some_and(|c| c.alive && c.incarnation == inc);
                    status = st;
                    status.live &= current;
                }
            }
            if !child.is_some_and(|c| c.alive) {
                status.live = false;
            }
            view.insert(id, status);
        }
        view
    }

    fn shutdown(&mut self) {
        for i in 0..self.cfg.nodes {
            let id = NodeId(i);
            if self.children.get(&id).is_some_and(|c| c.alive) {
                let _ = self.ctl(id, Ctl::Leave);
            }
        }
        let deadline = Instant::now() + Duration::from_secs(3);
        while Instant::now() < deadline {
            if self.reap().is_empty() && self.children.values().all(|c| !c.alive) {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        for i in 0..self.cfg.nodes {
            self.kill_child(NodeId(i));
        }
    }
}

impl Drop for Harness<'_> {
    fn drop(&mut self) {
        // Never leak child processes, even on an error path.
        let ids: Vec<NodeId> = self.children.keys().copied().collect();
        for id in ids {
            self.kill_child(id);
        }
    }
}

/// What [`run_holder_case`] read from the children's exports.
#[derive(Debug)]
pub struct HolderReport {
    /// Membership changes, 911 calls and failed sends any member had
    /// recorded after the holder's stall and before its crash.
    pub alarms_after_stall: u64,
    /// Every outage a survivor repaired after the crash.
    pub outages: Vec<raincore_obs::OutageRow>,
    /// Survivors that called 911.
    pub callers: usize,
    /// Tokens the survivors regenerated.
    pub regenerations: u64,
    /// Verdicts of theirs a late acknowledgement refuted.
    pub false_suspicions: u64,
    /// Successor probes they sent.
    pub probes_sent: u64,
}

/// The holder case (DESIGN.md §17.5): a founding cluster under load whose
/// member `victim` is first kept off the CPU for `stall` while it holds
/// the token, then killed holding it. Reads what the children exported
/// in between and after; judging it is the caller's.
pub fn run_holder_case(
    cfg: &ProcConfig,
    victim: NodeId,
    stall: Duration,
) -> std::io::Result<HolderReport> {
    cfg.validate(&[]).map_err(std::io::Error::other)?;
    let mut h = Harness::launch(cfg, StartKind::Founding)?;
    let ids: Vec<NodeId> = (0..cfg.nodes).map(NodeId).collect();
    let settle = Duration::from_millis(10 * cfg.export_ms.max(50));
    let exports = |h: &Harness<'_>| -> Vec<ChildExport> {
        let read = |&id: &NodeId| std::fs::read_to_string(h.export_path(id)).ok();
        let survivors = ids.iter().filter(|&&id| id != victim);
        let parsed = survivors
            .filter_map(read)
            .map(|raw| ChildExport::parse(&raw));
        parsed.filter_map(Result::ok).collect()
    };
    let sum = |exports: &[ChildExport], name: &str| -> u64 {
        let own = |e: &ChildExport| {
            let node = e.node.0.to_string();
            e.snapshot.counter_value(name, &[("node", node.as_str())])
        };
        exports.iter().filter_map(own).sum()
    };
    const ALARMS: [&str; 4] = [
        "raincore_session_failures_detected",
        "raincore_session_calls911_sent",
        "raincore_session_probes_failed",
        "raincore_transport_msgs_failed",
    ];

    // Four rotations and then some, so every probe limit is armed.
    std::thread::sleep(settle);
    h.ctl(victim, Ctl::Stall(stall.as_millis() as u64))?;
    std::thread::sleep(stall + settle);
    let calm = exports(&h);
    let alarms_after_stall = ALARMS.iter().map(|name| sum(&calm, name)).sum();

    h.ctl(victim, Ctl::Die)?;
    std::thread::sleep(2 * settle);
    let after = exports(&h);
    let outages = after
        .iter()
        .flat_map(|e| raincore_obs::outages(&e.journal))
        .collect();
    let called = |e: &&ChildExport| sum(std::slice::from_ref(*e), ALARMS[1]) > 0;
    let report = HolderReport {
        alarms_after_stall,
        outages,
        callers: after.iter().filter(called).count(),
        regenerations: sum(&after, "raincore_session_regenerations"),
        false_suspicions: sum(&after, "raincore_session_false_suspicions"),
        probes_sent: sum(&after, "raincore_session_probes_sent"),
    };
    h.shutdown();
    Ok(report)
}

/// Writes the merged cross-node trace artifacts into `out_dir` from
/// whatever export/flight files the children left behind:
/// `journal.json` (the `tracectl` input format) and `waterfall.txt`
/// (the rendered causal waterfall plus every child's flight-recorder
/// dump). Called on failed runs so CI uploads a ready post-mortem; also
/// usable on any finished out_dir.
pub fn write_trace_artifacts(out_dir: &std::path::Path, nodes: u32) -> std::io::Result<()> {
    let mut exports = Vec::new();
    for i in 0..nodes {
        if let Ok(raw) = std::fs::read_to_string(node_file(out_dir, NodeId(i), "export")) {
            if let Ok(exp) = ChildExport::parse(&raw) {
                exports.push(exp);
            }
        }
    }
    let events = merge_export_journals(&exports);
    std::fs::write(
        out_dir.join("journal.json"),
        raincore_obs::render_events_json(&events),
    )?;
    let mut text = raincore_obs::render_waterfall(&events, &raincore_obs::WaterfallOpts::default());
    for i in 0..nodes {
        if let Ok(flight) = std::fs::read_to_string(node_file(out_dir, NodeId(i), "flight")) {
            text.push_str(&format!("--- node {i} flight recorder ---\n{flight}"));
        }
    }
    std::fs::write(out_dir.join("waterfall.txt"), text)
}

/// Runs `schedule` over a fresh process cluster built from `cfg`.
///
/// Blocks until the run converges, violates, or exhausts its bounded
/// budget; children are always torn down before returning. Export files
/// and `report.txt` stay in `cfg.out_dir` as the run's artifacts.
pub fn run_cluster(cfg: &ProcConfig, schedule: &[ChaosEvent]) -> std::io::Result<ProcReport> {
    cfg.validate(schedule).map_err(std::io::Error::other)?;
    let mut h = Harness::launch(cfg, cfg.scenario)?;

    let has_churn = schedule
        .iter()
        .any(|e| matches!(e.fault, ChaosFault::Crash(_) | ChaosFault::Restart(_)));
    // One NIC per node, stalls measured against what a child that has
    // timed its peer waits (stock transport: three tries at the floor),
    // and no claim about one instant.
    let belief = NetBelief::new(cfg.nodes, 1);
    let give_up = raincore::transport::MIN_RTO.saturating_mul(3);
    let mut engine = ScheduleEngine::new(schedule, cfg.bounds, belief, Some(give_up), false);
    let mut dials = cfg.dials;
    let mut last_block: Option<String> = None;
    let mut violation: Option<(u64, String)> = None;
    let expect_deliveries = if cfg.workload_count > 0 && !has_churn {
        Some((cfg.nodes as usize) * (cfg.workload_count as usize))
    } else {
        None
    };
    let mut ticks_run = 0u64;

    for tick in 0..cfg.bounds.horizon() {
        ticks_run = tick + 1;
        while let Some(fault) = engine.next_due(tick) {
            h.apply(fault, &mut dials)?;
        }

        std::thread::sleep(Duration::from_millis(cfg.tick_ms));
        for id in h.reap() {
            // A self-exited child counts as crashed.
            engine.note_crash(id);
        }

        let view = h.status_view();
        // No reality to ask out of process: belief says what is severed.
        let link_calm = engine.link_calm(tick, engine.blocked());
        // Per-node delivery logs reset on restart, so cross-node prefix
        // agreement is only a whole-run claim on churn-free schedules.
        if !has_churn {
            engine.auditors.order.observe(&view);
        }
        if let Some(reason) = engine.observe_tick(&view, tick, link_calm) {
            violation = Some((tick, reason));
            break;
        }

        let deliveries_done = expect_deliveries.is_none_or(|want| {
            view.nodes()
                .values()
                .all(|n| !n.live || n.deliveries.len() >= want)
        });
        if engine.settled(tick, &view, deliveries_done) {
            break;
        }
        if engine.in_tail(tick) && engine.streak() == 0 {
            last_block = Some(if !engine.quiet(tick) {
                "not yet quiet (standing damage or fault grace)".to_string()
            } else if !view.membership_agreed() {
                let groups: Vec<String> = view
                    .nodes()
                    .iter()
                    .map(|(id, n)| {
                        format!(
                            "n{}:{}{}",
                            id.0,
                            if n.live { "" } else { "dead " },
                            n.group.map_or("-".to_string(), |g| g.0 .0.to_string()),
                        )
                    })
                    .collect();
                format!("membership not agreed [{}]", groups.join(" "))
            } else {
                let lags: Vec<String> = view
                    .nodes()
                    .iter()
                    .filter(|(_, n)| n.live)
                    .map(|(id, n)| format!("n{}:{}", id.0, n.deliveries.len()))
                    .collect();
                format!(
                    "deliveries incomplete (want {} per node) [{}]",
                    expect_deliveries.unwrap_or(0),
                    lags.join(" ")
                )
            });
        }
    }

    // Snapshot the final view *before* the graceful shutdown: ctl-driven
    // leaves legitimately shrink the ring one child at a time, and the
    // report should describe the converged cluster, not the teardown.
    let final_view = h.status_view();
    h.shutdown();
    let per_node = final_view.into_nodes();
    let total_regenerations = per_node.values().map(|n| n.regenerations).sum();
    let converged = violation.is_none() && engine.has_settled();
    let report = ProcReport {
        violation,
        converged,
        ticks_run,
        faults_applied: engine.faults_applied(),
        restarts_skipped: engine.restarts_skipped,
        exports_parsed: h.exports_parsed,
        per_node,
        total_regenerations,
        proxy: h.proxy.stats(),
        last_block: if converged { None } else { last_block },
    };
    let mut text = String::new();
    text.push_str(&format!(
        "procher run: nodes={} seed={} ticks_run={} faults={} exports={}\n",
        cfg.nodes, cfg.seed, report.ticks_run, report.faults_applied, report.exports_parsed
    ));
    text.push_str(&format!(
        "converged={} regenerations={} proxy={:?}\n",
        report.converged, report.total_regenerations, report.proxy
    ));
    text.push_str(&format!("config: {}\n", cfg.words()));
    for event in schedule {
        text.push_str(&format!("fault: {event}\n"));
    }
    match &report.violation {
        Some((tick, reason)) => text.push_str(&format!("VIOLATION @tick {tick}: {reason}\n")),
        None => text.push_str("no violation\n"),
    }
    if let Some(block) = &report.last_block {
        text.push_str(&format!("last convergence blocker: {block}\n"));
    }
    std::fs::write(cfg.out_dir.join("report.txt"), text)?;
    if !converged {
        // Failed runs leave the merged waterfall + flight dumps beside
        // the report so the CI artifact upload has the full post-mortem.
        write_trace_artifacts(&cfg.out_dir, cfg.nodes)?;
    }
    Ok(report)
}

//! The parent: spawns real child processes, applies a chaos schedule
//! through the proxy, and audits merged real-socket telemetry.
//!
//! [`run_cluster`] is the real-socket analogue of
//! [`raincore_sim::run_chaos`]: the same [`raincore_sim::ChaosEvent`]
//! schedule vocabulary, the same belief-gated quietness rules, and the
//! same liveness oracles — but the "cluster" is N OS processes over UDP
//! and the audit view is rebuilt each tick from the children's export
//! files instead of read out of simulator memory.
//!
//! Fault mapping (1 NIC per node):
//!
//! | schedule fault        | real-world action                           |
//! |-----------------------|---------------------------------------------|
//! | `crash nK`            | `SIGKILL` the child process                 |
//! | `restart nK`          | respawn as a token-less joiner, +1 incarnation |
//! | `link-down/up a b`    | pairwise cut in the proxy                   |
//! | `nic-down/up nK:0`    | whole-node unplug in the proxy              |
//! | `partition ...`       | group-based cut in the proxy                |
//! | `heal`                | clear cuts + partition (unplugs persist)    |
//! | `dup/reorder/jitter`  | proxy injection dials                       |
//!
//! Safety auditors quantified over a single instant (token uniqueness,
//! unique 911 winner) are deliberately *not* run here: per-node exports
//! are written on independent clocks, so the merged view is time-skewed
//! and those claims would false-positive. The skew-tolerant checks run
//! instead — see the crate docs and `DESIGN.md` §10.

// Real-socket harness parent: wall-clock ticks over OS processes, never
// protocol time.
#![allow(clippy::disallowed_types)]

use crate::child::StartKind;
use crate::export::{merge_export_journals, ChildExport};
use crate::proxy::{LossProxy, ProxyDials, ProxyStats};
use raincore_sim::{
    AuditView, ChaosEvent, ChaosFault, LivenessOracles, MembershipAuditor, NodeStatus,
    OrderAuditor, StatusView,
};
use raincore_types::{NodeId, Time};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::BufRead;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How every child starts at tick 0.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scenario {
    /// All nodes found one group with the full ring.
    Founding,
    /// All nodes start as singleton groups and merge via discovery.
    Isolated,
}

/// Configuration of one harness run.
#[derive(Clone, Debug)]
pub struct ProcConfig {
    /// Cluster size.
    pub nodes: u32,
    /// Seed for the proxy's packet-fate RNG.
    pub seed: u64,
    /// Start scenario.
    pub scenario: Scenario,
    /// Parent tick length in milliseconds (schedule ticks are parent
    /// ticks).
    pub tick_ms: u64,
    /// Schedule horizon in ticks — the run soaks at least this long.
    pub ticks: u64,
    /// Ticks after the last fault before the view counts as quiet.
    pub grace_ticks: u64,
    /// Token-progress bound for the liveness oracle, in quiet ticks.
    pub token_bound_ticks: u64,
    /// Convergence bound, in quiet ticks.
    pub conv_bound_ticks: u64,
    /// Consecutive converged ticks required to finish.
    pub post_ticks: u64,
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
            scenario: Scenario::Founding,
            tick_ms: 10,
            ticks: 300,
            grace_ticks: 150,
            token_bound_ticks: 300,
            conv_bound_ticks: 1500,
            post_ticks: 50,
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

/// The parent's belief about standing connectivity damage — the
/// real-socket mirror of the chaos engine's `NetBelief`, specialized to
/// one NIC per node. Injection dials never count as damage: oracles must
/// hold *under* loss, not merely after it stops.
#[derive(Debug, Default)]
struct Belief {
    pairs: BTreeSet<(NodeId, NodeId)>,
    nodes_down: BTreeSet<NodeId>,
    partitioned: bool,
}

impl Belief {
    fn note(&mut self, fault: &ChaosFault) {
        match fault {
            ChaosFault::LinkDown(a, b) => {
                let key = if a <= b { (*a, *b) } else { (*b, *a) };
                self.pairs.insert(key);
            }
            ChaosFault::LinkUp(a, b) => {
                let key = if a <= b { (*a, *b) } else { (*b, *a) };
                self.pairs.remove(&key);
            }
            ChaosFault::NicDown(addr) => {
                self.nodes_down.insert(addr.node);
            }
            ChaosFault::NicUp(addr) => {
                self.nodes_down.remove(&addr.node);
            }
            ChaosFault::Partition(_) => self.partitioned = true,
            ChaosFault::Heal => {
                self.pairs.clear();
                self.partitioned = false;
            }
            // Crashes change the live set, not connectivity; dials never
            // sever anything.
            ChaosFault::Crash(_)
            | ChaosFault::Restart(_)
            | ChaosFault::Duplicate(_)
            | ChaosFault::Reorder(_)
            | ChaosFault::Jitter(_)
            | ChaosFault::BulkLoss(_)
            | ChaosFault::DelaySpike(_) => {}
        }
    }

    fn blocked(&self) -> bool {
        self.partitioned || !self.pairs.is_empty() || !self.nodes_down.is_empty()
    }
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

impl Harness<'_> {
    fn export_path(&self, id: NodeId) -> PathBuf {
        self.cfg.out_dir.join(format!("node-{}.export", id.0))
    }

    fn ctl_path(&self, id: NodeId) -> PathBuf {
        self.cfg.out_dir.join(format!("node-{}.ctl", id.0))
    }

    fn spawn_child(
        &mut self,
        id: NodeId,
        incarnation: u32,
        start: StartKind,
    ) -> std::io::Result<()> {
        let peers: Vec<String> = (0..self.cfg.nodes)
            .map(NodeId)
            .filter_map(|p| self.proxy.proxy_addr(p).map(|a| format!("{}={a}", p.0)))
            .collect();
        let start_s = match start {
            StartKind::Founding => "founding",
            StartKind::Isolated => "isolated",
            StartKind::Joining => "joining",
        };
        // A fresh incarnation must not inherit the previous life's export
        // or ctl state.
        let _ = std::fs::remove_file(self.export_path(id));
        std::fs::write(self.ctl_path(id), "run")?;
        let mut proc = Command::new(&self.cfg.child_exe)
            .arg("--child")
            .args(["--node", &id.0.to_string()])
            .args(["--nodes", &self.cfg.nodes.to_string()])
            .args(["--incarnation", &incarnation.to_string()])
            .args(["--start", start_s])
            .args(["--peers", &peers.join(",")])
            .args(["--export", &self.export_path(id).display().to_string()])
            .args(["--ctl", &self.ctl_path(id).display().to_string()])
            .args(["--export-ms", &self.cfg.export_ms.to_string()])
            .args(["--workload-count", &self.cfg.workload_count.to_string()])
            .args([
                "--workload-period-ms",
                &self.cfg.workload_period_ms.to_string(),
            ])
            .args(["--bulk-threshold", &self.cfg.bulk_threshold.to_string()])
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
                let _ = std::fs::write(self.ctl_path(id), "leave");
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

/// Writes the merged cross-node trace artifacts into `out_dir` from
/// whatever export/flight files the children left behind:
/// `journal.json` (the `tracectl` input format) and `waterfall.txt`
/// (the rendered causal waterfall plus every child's flight-recorder
/// dump). Called on failed runs so CI uploads a ready post-mortem; also
/// usable on any finished out_dir.
pub fn write_trace_artifacts(out_dir: &std::path::Path, nodes: u32) -> std::io::Result<()> {
    let mut exports = Vec::new();
    for i in 0..nodes {
        if let Ok(raw) = std::fs::read_to_string(out_dir.join(format!("node-{i}.export"))) {
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
        if let Ok(flight) = std::fs::read_to_string(out_dir.join(format!("node-{i}.flight"))) {
            text.push_str(&format!("--- node {i} flight recorder ---\n{flight}"));
        }
    }
    std::fs::write(out_dir.join("waterfall.txt"), text)
}

fn first_violation(
    membership: &MembershipAuditor,
    order: Option<&OrderAuditor>,
    oracles: &LivenessOracles,
) -> Option<String> {
    if let Some((t, viewer, x)) = membership.violations.first() {
        return Some(format!(
            "membership resurrection at {t}: {viewer} saw purged node {x}"
        ));
    }
    if let Some((t, a, b)) = order.and_then(|o| o.violations.first()) {
        return Some(format!(
            "delivery order diverged at {t}: nodes {a} and {b} disagree"
        ));
    }
    oracles.first_violation().map(|(_, reason)| reason)
}

/// Runs `schedule` over a fresh process cluster built from `cfg`.
///
/// Blocks until the run converges, violates, or exhausts its bounded
/// budget; children are always torn down before returning. Export files
/// and `report.txt` stay in `cfg.out_dir` as the run's artifacts.
pub fn run_cluster(cfg: &ProcConfig, schedule: &[ChaosEvent]) -> std::io::Result<ProcReport> {
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
    let start_kind = match cfg.scenario {
        Scenario::Founding => StartKind::Founding,
        Scenario::Isolated => StartKind::Isolated,
    };
    for &id in &ids {
        h.spawn_child(id, 0, start_kind)?;
    }

    let mut ordered: Vec<&ChaosEvent> = schedule.iter().collect();
    ordered.sort_by_key(|e| e.tick);
    let has_churn = ordered
        .iter()
        .any(|e| matches!(e.fault, ChaosFault::Crash(_) | ChaosFault::Restart(_)));
    // Per-node delivery logs reset on restart, so cross-node prefix
    // agreement is only a whole-run claim on churn-free schedules.
    let mut order = (!has_churn).then(OrderAuditor::new);
    let mut membership = MembershipAuditor::with_dwell(20);
    let mut oracles = LivenessOracles::new(cfg.token_bound_ticks, cfg.conv_bound_ticks);
    let mut belief = Belief::default();
    let mut dials = cfg.dials;
    let mut last_fault: Option<u64> = None;
    let mut last_link_fault: Option<u64> = None;
    let mut was_link_calm = true;
    let mut faults_applied = 0u64;
    let mut converged_streak = 0u64;
    let mut last_block: Option<String> = None;
    let mut violation: Option<(u64, String)> = None;
    let mut idx = 0usize;
    let expect_deliveries = if cfg.workload_count > 0 && !has_churn {
        Some((cfg.nodes as usize) * (cfg.workload_count as usize))
    } else {
        None
    };
    let horizon = cfg.ticks + cfg.grace_ticks + cfg.conv_bound_ticks + cfg.post_ticks + 2;
    let mut ticks_run = 0u64;

    for tick in 0..horizon {
        ticks_run = tick + 1;
        while idx < ordered.len() && ordered[idx].tick <= tick {
            let fault = &ordered[idx].fault;
            match fault {
                ChaosFault::Crash(id) => {
                    h.kill_child(*id);
                    oracles.note_crash(*id);
                }
                ChaosFault::Restart(id) => {
                    // Mirror the simulator: restarting a live node is a
                    // no-op; a dead one rejoins with a new incarnation.
                    let next = match h.children.get(id) {
                        Some(c) if c.alive => None,
                        Some(c) => Some(c.incarnation + 1),
                        None => Some(0),
                    };
                    if let Some(inc) = next {
                        oracles.note_crash(*id);
                        h.spawn_child(*id, inc, StartKind::Joining)?;
                    }
                }
                ChaosFault::LinkDown(a, b) => h.proxy.set_link(*a, *b, false),
                ChaosFault::LinkUp(a, b) => h.proxy.set_link(*a, *b, true),
                ChaosFault::NicDown(addr) => h.proxy.set_node(addr.node, false),
                ChaosFault::NicUp(addr) => h.proxy.set_node(addr.node, true),
                ChaosFault::Partition(groups) => {
                    h.proxy
                        .partition(&groups.iter().map(|g| g.to_vec()).collect::<Vec<_>>());
                }
                ChaosFault::Heal => h.proxy.heal(),
                ChaosFault::Duplicate(p) => {
                    dials.dup_permille = *p;
                    h.proxy.set_dials(dials);
                }
                ChaosFault::Reorder(p) => {
                    dials.reorder_permille = *p;
                    h.proxy.set_dials(dials);
                }
                ChaosFault::Jitter(us) => {
                    dials.delay_us = *us;
                    h.proxy.set_dials(dials);
                }
                ChaosFault::BulkLoss(p) => {
                    dials.bulk_drop_permille = *p;
                    h.proxy.set_dials(dials);
                }
                // Simulator-only: the proxy has no one-shot stall, and no
                // schedule generated for real sockets carries one.
                ChaosFault::DelaySpike(_) => {}
            }
            belief.note(fault);
            if matches!(
                fault,
                ChaosFault::LinkDown(..)
                    | ChaosFault::LinkUp(..)
                    | ChaosFault::NicDown(_)
                    | ChaosFault::NicUp(_)
                    | ChaosFault::Partition(_)
                    | ChaosFault::Heal
            ) {
                last_link_fault = Some(tick);
            }
            faults_applied += 1;
            last_fault = Some(tick);
            idx += 1;
        }

        std::thread::sleep(Duration::from_millis(cfg.tick_ms));
        for id in h.reap() {
            // A self-exited child counts as crashed for vacuity purposes.
            oracles.note_crash(id);
        }

        let view = h.status_view();
        let link_calm = !belief.blocked()
            && last_link_fault.is_none_or(|lf| tick.saturating_sub(lf) >= cfg.grace_ticks);
        if link_calm {
            if was_link_calm {
                membership.observe(&view);
            } else {
                membership.rebaseline(&view);
            }
        }
        was_link_calm = link_calm;
        if let Some(o) = order.as_mut() {
            o.observe(&view);
        }
        let quiet = !belief.blocked()
            && last_fault.is_none_or(|lf| tick.saturating_sub(lf) >= cfg.grace_ticks);
        oracles.observe_tick(&view, quiet);

        if let Some(reason) = first_violation(&membership, order.as_ref(), &oracles) {
            violation = Some((tick, reason));
            break;
        }

        if idx >= ordered.len() && tick >= cfg.ticks {
            let deliveries_done = expect_deliveries.is_none_or(|want| {
                view.nodes
                    .values()
                    .all(|n| !n.live || n.deliveries.len() >= want)
            });
            if quiet && view.membership_agreed() && deliveries_done {
                converged_streak += 1;
                if converged_streak >= cfg.post_ticks {
                    break;
                }
            } else {
                converged_streak = 0;
                last_block = Some(if !quiet {
                    "not yet quiet (standing damage or fault grace)".to_string()
                } else if !view.membership_agreed() {
                    let groups: Vec<String> = view
                        .nodes
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
                        .nodes
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
    }

    // Snapshot the final view *before* the graceful shutdown: ctl-driven
    // leaves legitimately shrink the ring one child at a time, and the
    // report should describe the converged cluster, not the teardown.
    let final_view = h.status_view();
    h.shutdown();
    let per_node: BTreeMap<NodeId, NodeStatus> = final_view.nodes.clone().into_iter().collect();
    let total_regenerations = per_node.values().map(|n| n.regenerations).sum();
    let converged = violation.is_none() && converged_streak >= cfg.post_ticks;
    let report = ProcReport {
        violation,
        converged,
        ticks_run,
        faults_applied,
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

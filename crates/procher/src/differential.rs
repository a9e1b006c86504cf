//! Differential sim↔real conformance: one fixed seeded workload, two
//! executions, zero tolerated divergence.
//!
//! The same protocol code runs under two drivers: the deterministic
//! discrete-event simulator ([`raincore_sim::Cluster`] over `SimNet`)
//! and a real process cluster ([`crate::cluster::run_cluster`] over UDP
//! through the proxy). Both sides use the identical
//! [`crate::fast_profile`] timers and the identical workload: node `i`
//! originates `count` agreed multicasts with payload `m{i}-{j}`.
//!
//! Wall-clock scheduling makes instruction-level equality meaningless —
//! token arrival timing legitimately differs between the two worlds, so
//! the *interleaving* of different origins' messages in the agreed order
//! may differ. What must NOT differ are the timing-invariant projections
//! the paper's guarantees pin down (§2.6):
//!
//! * **completeness** — every node on both sides delivers exactly the
//!   same message set (every `(origin, seq)` pair, once);
//! * **agreement** — within each side, all nodes report the *same*
//!   delivery sequence (agreed total order);
//! * **per-origin FIFO** — each origin's messages appear in ascending
//!   sequence order on every node;
//! * **membership** — both sides converge on the full ring;
//! * **stability** — neither side needed a 911 regeneration on a
//!   fault-free network (counts are compared and must both be zero).

use crate::child::{workload_payload, StartKind};
use crate::cluster::{run_cluster, ProcConfig};
use crate::fast_profile;
use raincore_sim::text::{text_fields, FilePath, Plain};
use raincore_sim::{Cluster, ClusterConfig};
use raincore_types::{DeliveryMode, Duration as VDuration, NodeId, OriginSeq, Time};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Per-node delivery sequences: node → `(origin, seq)` in local
/// delivery order.
pub type DeliveryLogs = BTreeMap<NodeId, Vec<(NodeId, OriginSeq)>>;

/// Configuration of one differential run.
#[derive(Clone, Debug)]
pub struct DiffConfig {
    /// Cluster size on both sides.
    pub nodes: u32,
    /// Seed (proxy RNG; the sim side is fully deterministic anyway).
    pub seed: u64,
    /// Multicasts each node originates.
    pub count: u32,
    /// Origination pacing, milliseconds (real side; virtual ms sim side).
    pub period_ms: u64,
    /// Out-of-band bulk threshold applied on *both* sides (bytes; 0 keeps
    /// the OOB path off). With it on, odd workload messages are padded
    /// past the threshold, so real bulk frames cross real sockets and the
    /// delivered-set/order projections must still match the simulator.
    pub bulk_threshold: usize,
    /// Artifact directory for the real side.
    pub out_dir: PathBuf,
    /// Path of the `procher` binary for spawning children.
    pub child_exe: PathBuf,
}

// The differential's flags, one row per field.
text_fields! {
    impl DiffConfig {
        "nodes" => nodes: Plain, "--nodes N";
        "seed" => seed: Plain, "--seed N";
        "count" => count: Plain, "--count N";
        "period_ms" => period_ms: Plain, "--period-ms N";
        "bulk_threshold" => bulk_threshold: Plain, "--bulk THRESHOLD";
        "out_dir" => out_dir: FilePath, "--out-dir DIR";
    }
}

impl DiffConfig {
    /// Three nodes sending three multicasts each, 30 ms apart, with the
    /// out-of-band path off.
    pub fn new(child_exe: PathBuf, out_dir: PathBuf) -> DiffConfig {
        DiffConfig {
            nodes: 3,
            seed: 1,
            count: 3,
            period_ms: 30,
            bulk_threshold: 0,
            out_dir,
            child_exe,
        }
    }

    /// Refuses a differential that compares nothing: no member, or no
    /// multicast to deliver.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 {
            return Err("--nodes 0: a cluster of no member compares nothing".into());
        }
        if self.count == 0 {
            return Err("--count 0: a workload of no multicast compares nothing".into());
        }
        Ok(())
    }
}

/// Outcome of a differential run: the divergence list is empty on
/// conformance.
#[derive(Debug)]
pub struct DiffReport {
    /// Human-readable divergences (empty means the sides agree).
    pub divergences: Vec<String>,
    /// Per-node delivery sequences from the simulator side.
    pub sim: DeliveryLogs,
    /// Per-node delivery sequences from the process side.
    pub real: DeliveryLogs,
    /// Total 911 regenerations on the simulator side.
    pub sim_regenerations: u64,
    /// Total 911 regenerations on the process side.
    pub real_regenerations: u64,
    /// Real bulk payload frames dropped by the proxy's targeted dial
    /// (only non-zero on `bulk_threshold > 0` runs).
    pub real_bulk_drops: u64,
}

/// Runs the workload through the simulator and returns each node's
/// delivery sequence plus the total regeneration count.
fn run_sim_side(cfg: &DiffConfig) -> Result<(DeliveryLogs, u64), String> {
    let mut session = fast_profile(cfg.nodes);
    session.bulk_threshold = cfg.bulk_threshold;
    let ccfg = ClusterConfig {
        session,
        nics: 1,
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::founding(cfg.nodes, ccfg).map_err(|e| e.to_string())?;
    let ids: Vec<NodeId> = (0..cfg.nodes).map(NodeId).collect();
    let period = VDuration::from_millis(cfg.period_ms.max(1));
    let want = (cfg.nodes as usize) * (cfg.count as usize);
    // Same shape as the child loop: paced sends, retried under token
    // backpressure, then run until every node has delivered everything.
    let mut sent = vec![0u32; cfg.nodes as usize];
    let mut t = Time::ZERO + VDuration::from_millis(200); // founding warm-up
    cluster.run_until(t);
    let deadline = Time::ZERO + VDuration::from_secs(120);
    while t < deadline {
        for &id in &ids {
            let k = sent[id.0 as usize];
            if k < cfg.count
                && cluster
                    .multicast(
                        id,
                        DeliveryMode::Agreed,
                        workload_payload(id, k, cfg.bulk_threshold),
                    )
                    .is_ok()
            {
                sent[id.0 as usize] = k + 1;
            }
        }
        t += period;
        cluster.run_until(t);
        if sent.iter().all(|&k| k == cfg.count)
            && ids.iter().all(|&id| cluster.deliveries(id).len() >= want)
        {
            break;
        }
    }
    let mut out = BTreeMap::new();
    let mut regens = 0u64;
    for &id in &ids {
        out.insert(
            id,
            cluster
                .deliveries(id)
                .iter()
                .map(|d| (d.origin, d.seq))
                .collect(),
        );
        regens += cluster.metrics(id).regenerations;
    }
    Ok((out, regens))
}

fn check_side(
    name: &str,
    side: &DeliveryLogs,
    want_per_node: usize,
    divergences: &mut Vec<String>,
) {
    let mut reference: Option<(NodeId, &Vec<(NodeId, OriginSeq)>)> = None;
    for (id, log) in side {
        if log.len() != want_per_node {
            divergences.push(format!(
                "{name}: node {id} delivered {} of {want_per_node} messages",
                log.len()
            ));
        }
        // Per-origin FIFO.
        let mut last: BTreeMap<NodeId, OriginSeq> = BTreeMap::new();
        for &(origin, seq) in log {
            if last.get(&origin).is_some_and(|&prev| seq <= prev) {
                divergences.push(format!(
                    "{name}: node {id} delivered origin {origin} out of sequence at seq {}",
                    seq.0
                ));
                break;
            }
            last.insert(origin, seq);
        }
        // Cross-node agreement on the full sequence.
        match &reference {
            None => reference = Some((*id, log)),
            Some((ref_id, ref_log)) => {
                if log != *ref_log {
                    divergences.push(format!(
                        "{name}: delivery order diverges between nodes {ref_id} and {id}"
                    ));
                }
            }
        }
    }
}

/// Runs both sides and diffs the projections. `Err` means a side failed
/// to run at all; a clean run with differences returns them in
/// [`DiffReport::divergences`].
pub fn run_differential(cfg: &DiffConfig) -> std::io::Result<DiffReport> {
    cfg.validate().map_err(std::io::Error::other)?;
    let (sim, sim_regenerations) = run_sim_side(cfg).map_err(std::io::Error::other)?;

    let mut pcfg = ProcConfig::new(cfg.child_exe.clone(), cfg.out_dir.clone());
    pcfg.nodes = cfg.nodes;
    pcfg.seed = cfg.seed;
    pcfg.scenario = StartKind::Founding;
    pcfg.workload_count = cfg.count;
    pcfg.workload_period_ms = cfg.period_ms;
    pcfg.bulk_threshold = cfg.bulk_threshold;
    if cfg.bulk_threshold > 0 {
        // Drop 40% of the real bulk payload frames: the differential's
        // claim becomes "NACK recovery restores the sim projections
        // under real bulk loss", not merely "OOB works on a clean wire".
        pcfg.dials.bulk_drop_permille = 400;
    }
    // No faults, no dials: the schedule horizon only needs to cover the
    // workload; convergence + delivery completeness end the run.
    pcfg.bounds.ticks = (cfg.count as u64 * cfg.period_ms / pcfg.tick_ms).max(50);
    let report = run_cluster(&pcfg, &[])?;

    let mut divergences = Vec::new();
    if let Some((tick, reason)) = &report.violation {
        divergences.push(format!("real: oracle violation @tick {tick}: {reason}"));
    }
    if !report.converged {
        divergences.push("real: process cluster did not converge".to_string());
    }
    if cfg.bulk_threshold > 0 && report.proxy.dropped_bulk == 0 {
        divergences.push(
            "real: bulk-loss dial was armed but no bulk frame was dropped \
             (out-of-band path not exercised)"
                .to_string(),
        );
    }
    let real: DeliveryLogs = report
        .per_node
        .iter()
        .map(|(&id, st)| (id, st.deliveries.clone()))
        .collect();
    let want = (cfg.nodes as usize) * (cfg.count as usize);
    check_side("sim", &sim, want, &mut divergences);
    check_side("real", &real, want, &mut divergences);
    // Cross-side: identical delivered sets per node (order is compared
    // within each side; across sides only the set is timing-invariant).
    for (id, sim_log) in &sim {
        let mut a = sim_log.clone();
        let mut b = real.get(id).cloned().unwrap_or_default();
        a.sort_unstable();
        b.sort_unstable();
        if a != b {
            divergences.push(format!(
                "node {id}: delivered message sets differ between sim and real"
            ));
        }
    }
    // Final membership: both sides on the full ring.
    for (id, st) in &report.per_node {
        let full = st
            .ring
            .as_ref()
            .is_some_and(|r| r.len() == cfg.nodes as usize);
        if !full {
            divergences.push(format!("real: node {id} did not end on the full ring"));
        }
    }
    if sim_regenerations != report.total_regenerations {
        divergences.push(format!(
            "regeneration counts differ: sim {sim_regenerations}, real {}",
            report.total_regenerations
        ));
    }
    if !divergences.is_empty() {
        // A diff can fail on a converged run (delivery sets differ), so
        // make sure the waterfall post-mortem exists either way.
        crate::cluster::write_trace_artifacts(&cfg.out_dir, cfg.nodes)?;
    }
    Ok(DiffReport {
        divergences,
        sim,
        real,
        sim_regenerations,
        real_regenerations: report.total_regenerations,
        real_bulk_drops: report.proxy.dropped_bulk,
    })
}

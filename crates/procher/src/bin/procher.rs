//! `procher` — the real-socket multi-process conformance harness CLI.
//!
//! Modes:
//!
//! * (default) **soak** — spawn `--nodes` children over UDP through the
//!   loss proxy, apply `--loss/--dup/--reorder/--delay-us` dials and an
//!   optional `--fault "@tick fault"` schedule, audit with the chaos
//!   liveness oracles. `procher --seed 1 --nodes 4 --loss 0.05`.
//! * `--differential` — replay one seeded workload through both the
//!   deterministic simulator and a process cluster and diff the
//!   timing-invariant projections; any divergence fails.
//! * `--regression bootstrap` — replay the pinned total-copy-loss
//!   bootstrap schedule (sim regression `@712 crash n3 ... @1990 heal`)
//!   on real sockets.
//! * `--gate` — the bounded CI smoke: a short lossy soak with a
//!   crash/restart, two small differential runs, and the holder case (the
//!   member holding the token stalled, then killed).
//! * `--child` / `--probe` — internal (child process body; spawn probe).
//!
//! Exit codes: `0` pass, `1` violation or divergence, `2` usage error,
//! `77` subprocess spawning forbidden by the environment (skip).

use raincore_procher::child::{run_child, ChildArgs, StartKind};
use raincore_procher::cluster::{run_cluster, run_holder_case, ProcConfig, Scenario};
use raincore_procher::differential::{run_differential, DiffConfig};
use raincore_sim::ChaosEvent;
use raincore_types::NodeId;
use std::path::PathBuf;
use std::process::ExitCode;

const EXIT_VIOLATION: u8 = 1;
const EXIT_USAGE: u8 = 2;
const EXIT_SKIP: u8 = 77;

fn usage(msg: &str) -> ExitCode {
    eprintln!("procher: {msg}");
    eprintln!(
        "usage: procher [--seed N] [--nodes N] [--loss P] [--dup P] [--reorder P] \
         [--delay-us N] [--ticks N] [--tick-ms N] [--scenario founding|isolated] \
         [--workload-count N] [--workload-period-ms N] [--bulk THRESHOLD] \
         [--fault \"@tick fault\"]... [--out-dir DIR]\n\
         \x20      procher --differential [--seed N] [--nodes N] [--count N] [--period-ms N] \
         [--bulk THRESHOLD]\n\
         \x20      procher --regression bootstrap\n\
         \x20      procher --gate"
    );
    ExitCode::from(EXIT_USAGE)
}

/// Simple `--key value` argument cursor.
struct Args {
    argv: Vec<String>,
    i: usize,
}

impl Args {
    fn next(&mut self) -> Option<String> {
        let v = self.argv.get(self.i).cloned();
        self.i += v.is_some() as usize;
        v
    }

    fn value(&mut self, flag: &str) -> Result<String, String> {
        self.next().ok_or_else(|| format!("{flag} needs a value"))
    }

    fn parse<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        let v = self.value(flag)?;
        v.parse().map_err(|e| format!("{flag} `{v}`: {e}"))
    }
}

fn default_out_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("procher-{tag}-{}", std::process::id()))
}

/// True if this environment lets us spawn subprocesses: re-runs this
/// binary with `--probe`, which exits 0 immediately.
fn spawn_allowed(exe: &PathBuf) -> bool {
    std::process::Command::new(exe)
        .arg("--probe")
        .status()
        .map(|s| s.success())
        .unwrap_or(false)
}

fn permille_from_prob(flag: &str, v: &str) -> Result<u32, String> {
    let p: f64 = v.parse().map_err(|e| format!("{flag} `{v}`: {e}"))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("{flag} must be a probability in [0, 1]"));
    }
    Ok((p * 1000.0).round() as u32)
}

fn child_main(mut args: Args) -> Result<i32, String> {
    let mut node = None;
    let mut nodes = None;
    let mut incarnation = 0u32;
    let mut start = StartKind::Founding;
    let mut peers = Vec::new();
    let mut export_path = None;
    let mut ctl_path = None;
    let mut export_ms = 50u64;
    let mut workload_count = 0u32;
    let mut workload_period_ms = 40u64;
    let mut bulk_threshold = 0usize;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--node" => node = Some(NodeId(args.parse("--node")?)),
            "--nodes" => nodes = Some(args.parse("--nodes")?),
            "--incarnation" => incarnation = args.parse("--incarnation")?,
            "--start" => start = args.parse("--start")?,
            "--peers" => {
                for kv in args.value("--peers")?.split(',') {
                    let (id, saddr) = kv
                        .split_once('=')
                        .ok_or_else(|| format!("bad peer `{kv}`"))?;
                    peers.push((
                        NodeId(id.parse().map_err(|e| format!("peer id `{id}`: {e}"))?),
                        saddr
                            .parse()
                            .map_err(|e| format!("peer addr `{saddr}`: {e}"))?,
                    ));
                }
            }
            "--export" => export_path = Some(PathBuf::from(args.value("--export")?)),
            "--ctl" => ctl_path = Some(PathBuf::from(args.value("--ctl")?)),
            "--export-ms" => export_ms = args.parse("--export-ms")?,
            "--workload-count" => workload_count = args.parse("--workload-count")?,
            "--workload-period-ms" => workload_period_ms = args.parse("--workload-period-ms")?,
            "--bulk-threshold" => bulk_threshold = args.parse("--bulk-threshold")?,
            other => return Err(format!("unknown child flag `{other}`")),
        }
    }
    let child = ChildArgs {
        node: node.ok_or("--node is required")?,
        nodes: nodes.ok_or("--nodes is required")?,
        incarnation,
        start,
        peers,
        export_path: export_path.ok_or("--export is required")?,
        ctl_path: ctl_path.ok_or("--ctl is required")?,
        export_ms,
        workload_count,
        workload_period_ms,
        bulk_threshold,
    };
    run_child(&child).map_err(|e| e.to_string())
}

/// Runs `schedule` and prints the outcome. `pinned`: the schedule is a
/// checked-in regression, which must crash what it restarts — a skipped
/// restart means it no longer tests the rejoin it was kept for.
fn soak_report(cfg: &ProcConfig, schedule: &[ChaosEvent], pinned: bool) -> Result<bool, String> {
    let report = run_cluster(cfg, schedule).map_err(|e| e.to_string())?;
    println!(
        "procher: nodes={} seed={} ticks_run={} faults={} exports={} regenerations={} \
         proxy(forwarded={} dropped_loss={} dropped_bulk={} dropped_blocked={} dup={} delayed={} \
         stalled={})",
        cfg.nodes,
        cfg.seed,
        report.ticks_run,
        report.faults_applied,
        report.exports_parsed,
        report.total_regenerations,
        report.proxy.forwarded,
        report.proxy.dropped_loss,
        report.proxy.dropped_bulk,
        report.proxy.dropped_blocked,
        report.proxy.duplicated,
        report.proxy.delayed,
        report.proxy.stalled,
    );
    if report.restarts_skipped > 0 {
        println!(
            "{} scheduled restart(s) skipped: the child was running",
            report.restarts_skipped
        );
        if pinned {
            println!("FAILED: a pinned schedule must crash what it restarts");
            return Ok(false);
        }
    }
    match &report.violation {
        Some((tick, reason)) => {
            println!("VIOLATION @tick {tick}: {reason}");
            println!("artifacts: {}", cfg.out_dir.display());
            Ok(false)
        }
        None if !report.converged => {
            println!("FAILED: cluster did not converge within the budget");
            if let Some(block) = &report.last_block {
                println!("last convergence blocker: {block}");
            }
            println!("artifacts: {}", cfg.out_dir.display());
            Ok(false)
        }
        None => {
            println!("ok: converged");
            Ok(true)
        }
    }
}

fn diff_report(cfg: &DiffConfig) -> Result<bool, String> {
    let report = run_differential(cfg).map_err(|e| e.to_string())?;
    println!(
        "differential: nodes={} count={} bulk_threshold={} sim_deliveries={} \
         real_deliveries={} sim_regens={} real_regens={} real_bulk_drops={}",
        cfg.nodes,
        cfg.count,
        cfg.bulk_threshold,
        report.sim.values().map(Vec::len).sum::<usize>(),
        report.real.values().map(Vec::len).sum::<usize>(),
        report.sim_regenerations,
        report.real_regenerations,
        report.real_bulk_drops,
    );
    if report.divergences.is_empty() {
        println!("ok: zero sim<->real divergence");
        return Ok(true);
    }
    for d in &report.divergences {
        println!("DIVERGENCE: {d}");
    }
    println!("artifacts: {}", cfg.out_dir.display());
    Ok(false)
}

/// The holder case (DESIGN.md §17.5) and its verdict: a member that is
/// kept off the CPU for 100 ms while it holds the token raises no alarm
/// anywhere, and when it dies holding it the token is regenerated, by
/// its predecessor alone, inside 300 ms of that member's own clock —
/// the successor probe at work, where `hungry_timeout` is 400 ms.
fn holder_report(cfg: &ProcConfig) -> Result<bool, String> {
    use raincore_obs::OutageMode;
    let stall = std::time::Duration::from_millis(100);
    let report = run_holder_case(cfg, NodeId(2), stall).map_err(|e| e.to_string())?;
    // Let-go to regenerated: every stage but the deliveries either side.
    let repaired_ms = |stages: &[u64; 6]| stages[1..5].iter().sum::<u64>() as f64 / 1e6;
    let rows: Vec<String> = report
        .outages
        .iter()
        .map(|r| format!("n{} {:?} {:.1} ms", r.node, r.mode, repaired_ms(&r.stages)))
        .collect();
    println!(
        "holder: nodes={} alarms_after_stall={} outages=[{}] callers={} regenerations={} \
         false_suspicions={} probes_sent={}",
        cfg.nodes,
        report.alarms_after_stall,
        rows.join(", "),
        report.callers,
        report.regenerations,
        report.false_suspicions,
        report.probes_sent,
    );
    let repaired = matches!(&report.outages[..],
        [r] if r.mode == OutageMode::Regen && repaired_ms(&r.stages) < 300.0);
    let ok = report.alarms_after_stall == 0
        && repaired
        && (
            report.callers,
            report.regenerations,
            report.false_suspicions,
        ) == (1, 1, 0);
    if ok {
        println!("ok: the stall evicted nobody, the crash was repaired by one caller");
    } else {
        println!("FAILED: holder case");
        println!("artifacts: {}", cfg.out_dir.display());
    }
    Ok(ok)
}

/// The pinned total-copy-loss bootstrap schedule — the sim regression
/// (`chaos_regression_total_copy_loss_bootstrap`), now replayed over
/// real sockets: every node holding a token copy dies and the restarted
/// survivors must found fresh groups and re-merge.
fn bootstrap_regression() -> (ProcConfig, Vec<ChaosEvent>) {
    let out = default_out_dir("regression");
    let exe = std::env::current_exe().expect("current exe");
    let mut cfg = ProcConfig::new(exe, out);
    cfg.nodes = 8;
    cfg.seed = 25;
    cfg.scenario = Scenario::Isolated;
    cfg.tick_ms = 5;
    cfg.bounds.ticks = 2000;
    cfg.bounds.grace_ticks = 300;
    cfg.bounds.token_bound_ticks = 600;
    cfg.bounds.convergence_bound_ticks = 3000;
    cfg.bounds.post_ticks = 100;
    cfg.workload_count = 0;
    let schedule = [
        "@712 crash n3",
        "@976 crash n4",
        "@1039 crash n6",
        "@1059 crash n2",
        "@1531 link-down n5 n7",
        "@1582 partition n4,n0,n3,n6|n5,n1,n2,n7",
        "@1670 crash n0",
        "@1671 restart n0",
        "@1679 crash n1",
        "@1685 crash n5",
        "@1686 restart n5",
        "@1783 crash n7",
        "@1990 heal",
    ]
    .iter()
    .map(|s| s.parse().expect("pinned schedule line"))
    .collect();
    (cfg, schedule)
}

fn gate() -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    // Leg 1: 3-node lossy soak with a crash/restart cycle.
    let mut cfg = ProcConfig::new(exe.clone(), default_out_dir("gate-soak"));
    cfg.nodes = 3;
    cfg.seed = 7;
    cfg.bounds.ticks = 400;
    cfg.dials.drop_permille = 50;
    let schedule: Vec<ChaosEvent> = ["@100 crash n2", "@200 restart n2"]
        .iter()
        .map(|s| s.parse().expect("gate schedule line"))
        .collect();
    let soak_ok = soak_report(&cfg, &schedule, true)?;
    // Leg 2: small differential run.
    let diff = DiffConfig {
        nodes: 3,
        seed: 7,
        count: 3,
        period_ms: 30,
        bulk_threshold: 0,
        out_dir: default_out_dir("gate-diff"),
        child_exe: exe.clone(),
    };
    let diff_ok = diff_report(&diff)?;
    // Leg 3: the same differential with the out-of-band path on and the
    // proxy dropping 20% of the real bulk frames — the delivered-set and
    // order projections must still match the simulator (NACK recovery).
    let bulk_diff = DiffConfig {
        nodes: 3,
        seed: 7,
        count: 4,
        period_ms: 30,
        bulk_threshold: 512,
        out_dir: default_out_dir("gate-bulk-diff"),
        child_exe: exe.clone(),
    };
    let bulk_ok = diff_report(&bulk_diff)?;
    // Leg 4: the holder of the token stalled, then killed, under load.
    let mut holder = ProcConfig::new(exe, default_out_dir("gate-holder"));
    holder.workload_count = 600;
    holder.workload_period_ms = 5;
    let holder_ok = holder_report(&holder)?;
    Ok(soak_ok && diff_ok && bulk_ok && holder_ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--probe") {
        return ExitCode::SUCCESS;
    }
    if argv.first().map(String::as_str) == Some("--child") {
        let args = Args { argv, i: 1 };
        return match child_main(args) {
            Ok(code) => ExitCode::from(code as u8),
            Err(e) => {
                eprintln!("procher child: {e}");
                ExitCode::from(EXIT_USAGE)
            }
        };
    }

    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("procher: cannot locate own binary: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    if !spawn_allowed(&exe) {
        eprintln!("procher: subprocess spawning is forbidden here; skipping (exit 77)");
        return ExitCode::from(EXIT_SKIP);
    }

    match argv.first().map(String::as_str) {
        Some("--gate") => {
            return match gate() {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::from(EXIT_VIOLATION),
                Err(e) => usage(&e),
            };
        }
        Some("--regression") => {
            if argv.get(1).map(String::as_str) != Some("bootstrap") {
                return usage("--regression takes the schedule name `bootstrap`");
            }
            let (cfg, schedule) = bootstrap_regression();
            return match soak_report(&cfg, &schedule, true) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::from(EXIT_VIOLATION),
                Err(e) => usage(&e),
            };
        }
        Some("--differential") => {
            let mut args = Args { argv, i: 1 };
            let mut cfg = DiffConfig {
                nodes: 3,
                seed: 1,
                count: 3,
                period_ms: 30,
                bulk_threshold: 0,
                out_dir: default_out_dir("diff"),
                child_exe: exe,
            };
            while let Some(flag) = args.next() {
                let r = match flag.as_str() {
                    "--nodes" => args.parse("--nodes").map(|v| cfg.nodes = v),
                    "--seed" => args.parse("--seed").map(|v| cfg.seed = v),
                    "--count" => args.parse("--count").map(|v| cfg.count = v),
                    "--period-ms" => args.parse("--period-ms").map(|v| cfg.period_ms = v),
                    "--bulk" => args.parse("--bulk").map(|v| cfg.bulk_threshold = v),
                    "--out-dir" => args.value("--out-dir").map(|v| cfg.out_dir = v.into()),
                    other => Err(format!("unknown differential flag `{other}`")),
                };
                if let Err(e) = r {
                    return usage(&e);
                }
            }
            return match diff_report(&cfg) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::from(EXIT_VIOLATION),
                Err(e) => usage(&e),
            };
        }
        _ => {}
    }

    // Default soak mode.
    let mut cfg = ProcConfig::new(exe, default_out_dir("soak"));
    let mut schedule: Vec<ChaosEvent> = Vec::new();
    let mut args = Args { argv, i: 0 };
    while let Some(flag) = args.next() {
        let r = match flag.as_str() {
            "--seed" => args.parse("--seed").map(|v| cfg.seed = v),
            "--nodes" => args.parse("--nodes").map(|v| cfg.nodes = v),
            "--ticks" => args.parse("--ticks").map(|v| cfg.bounds.ticks = v),
            "--tick-ms" => args.parse("--tick-ms").map(|v| cfg.tick_ms = v),
            "--loss" => args
                .value("--loss")
                .and_then(|v| permille_from_prob("--loss", &v))
                .map(|v| cfg.dials.drop_permille = v),
            "--dup" => args
                .value("--dup")
                .and_then(|v| permille_from_prob("--dup", &v))
                .map(|v| cfg.dials.dup_permille = v),
            "--reorder" => args
                .value("--reorder")
                .and_then(|v| permille_from_prob("--reorder", &v))
                .map(|v| cfg.dials.reorder_permille = v),
            "--delay-us" => args.parse("--delay-us").map(|v| cfg.dials.delay_us = v),
            "--scenario" => args.value("--scenario").and_then(|v| match v.as_str() {
                "founding" => {
                    cfg.scenario = Scenario::Founding;
                    Ok(())
                }
                "isolated" => {
                    cfg.scenario = Scenario::Isolated;
                    Ok(())
                }
                other => Err(format!("unknown scenario `{other}`")),
            }),
            "--workload-count" => args
                .parse("--workload-count")
                .map(|v| cfg.workload_count = v),
            "--workload-period-ms" => args
                .parse("--workload-period-ms")
                .map(|v| cfg.workload_period_ms = v),
            "--bulk" => args.parse("--bulk").map(|v| cfg.bulk_threshold = v),
            "--fault" => args
                .value("--fault")
                .and_then(|v| v.parse::<ChaosEvent>().map_err(|e| format!("--fault: {e}")))
                .map(|ev| schedule.push(ev)),
            "--out-dir" => args.value("--out-dir").map(|v| cfg.out_dir = v.into()),
            other => return usage(&format!("unknown flag `{other}`")),
        };
        if let Err(e) = r {
            return usage(&e);
        }
    }
    match soak_report(&cfg, &schedule, false) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(EXIT_VIOLATION),
        Err(e) => usage(&e),
    }
}

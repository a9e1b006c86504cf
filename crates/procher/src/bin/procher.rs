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

use raincore_procher::child::{run_child, ChildArgs};
use raincore_procher::cluster::{run_cluster, run_holder_case, ProcConfig};
use raincore_procher::differential::{run_differential, DiffConfig};
use raincore_sim::outln;
use raincore_sim::text::TextFields;
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
        "usage: procher {} [--fault \"@tick fault\"]...\n\
         \x20      procher --differential {}\n\
         \x20      procher --regression bootstrap\n\
         \x20      procher --gate",
        ProcConfig::flag_usage(),
        DiffConfig::flag_usage(),
    );
    ExitCode::from(EXIT_USAGE)
}

/// Applies `--flag value` pairs to `cfg`'s rows; `--fault` lines go to
/// `schedule`, in a mode that takes one.
fn read_flags<C: TextFields>(
    cfg: &mut C,
    argv: &[String],
    mut schedule: Option<&mut Vec<ChaosEvent>>,
) -> Result<(), String> {
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} needs a value", pair[0]));
        };
        match (flag.as_str(), schedule.as_deref_mut()) {
            ("--fault", Some(schedule)) => {
                schedule.push(value.parse().map_err(|e| format!("--fault: {e}"))?);
            }
            _ => cfg.set_flag(flag, value).ok_or_else(|| {
                format!("unknown flag, or a value it does not take: {flag} {value}")
            })?,
        }
    }
    Ok(())
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

/// Runs `schedule` and prints the outcome. `pinned`: the schedule is a
/// checked-in regression, which must crash what it restarts — a skipped
/// restart means it no longer tests the rejoin it was kept for.
fn soak_report(cfg: &ProcConfig, schedule: &[ChaosEvent], pinned: bool) -> Result<bool, String> {
    let report = run_cluster(cfg, schedule).map_err(|e| e.to_string())?;
    outln!(
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
        outln!(
            "{} scheduled restart(s) skipped: the child was running",
            report.restarts_skipped
        );
        if pinned {
            outln!("FAILED: a pinned schedule must crash what it restarts");
            return Ok(false);
        }
    }
    match &report.violation {
        Some((tick, reason)) => {
            outln!("VIOLATION @tick {tick}: {reason}");
            outln!("artifacts: {}", cfg.out_dir.display());
            Ok(false)
        }
        None if !report.converged => {
            outln!("FAILED: cluster did not converge within the budget");
            if let Some(block) = &report.last_block {
                outln!("last convergence blocker: {block}");
            }
            outln!("artifacts: {}", cfg.out_dir.display());
            Ok(false)
        }
        None => {
            outln!("ok: converged");
            Ok(true)
        }
    }
}

fn diff_report(cfg: &DiffConfig) -> Result<bool, String> {
    let report = run_differential(cfg).map_err(|e| e.to_string())?;
    outln!(
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
        outln!("ok: zero sim<->real divergence");
        return Ok(true);
    }
    for d in &report.divergences {
        outln!("DIVERGENCE: {d}");
    }
    outln!("artifacts: {}", cfg.out_dir.display());
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
    outln!(
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
        outln!("ok: the stall evicted nobody, the crash was repaired by one caller");
    } else {
        outln!("FAILED: holder case");
        outln!("artifacts: {}", cfg.out_dir.display());
    }
    Ok(ok)
}

/// The pinned total-copy-loss bootstrap schedule — the sim regression
/// (`chaos_regression_total_copy_loss_bootstrap`), now replayed over
/// real sockets: every node holding a token copy dies and the restarted
/// survivors must found fresh groups and re-merge.
fn bootstrap_regression(exe: PathBuf) -> Result<(ProcConfig, Vec<ChaosEvent>), String> {
    let mut cfg = ProcConfig::new(exe, default_out_dir("regression"));
    cfg.read_words(
        "nodes=8 seed=25 scenario=isolated tick_ms=5 ticks=2000 grace=300 token_bound=600 \
         conv_bound=3000 post=100 workload_count=0",
    )?;
    let schedule = schedule(&[
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
    ])?;
    Ok((cfg, schedule))
}

fn schedule(lines: &[&str]) -> Result<Vec<ChaosEvent>, String> {
    lines.iter().map(|line| line.parse()).collect()
}

fn gate(exe: PathBuf) -> Result<bool, String> {
    // Leg 1: 3-node lossy soak with a crash/restart cycle.
    let mut cfg = ProcConfig::new(exe.clone(), default_out_dir("gate-soak"));
    cfg.read_words("nodes=3 seed=7 ticks=400 loss=0.05")?;
    let crash_restart = schedule(&["@100 crash n2", "@200 restart n2"])?;
    let soak_ok = soak_report(&cfg, &crash_restart, true)?;
    // Leg 2: small differential run.
    let mut diff = DiffConfig::new(exe.clone(), default_out_dir("gate-diff"));
    diff.read_words("seed=7")?;
    let diff_ok = diff_report(&diff)?;
    // Leg 3: the same differential with the out-of-band path on and the
    // proxy dropping 40% of the real bulk frames — the delivered-set and
    // order projections must still match the simulator (NACK recovery).
    let mut bulk_diff = DiffConfig::new(exe.clone(), default_out_dir("gate-bulk-diff"));
    bulk_diff.read_words("seed=7 count=4 bulk_threshold=512")?;
    let bulk_ok = diff_report(&bulk_diff)?;
    // Leg 4: the holder of the token stalled, then killed, under load.
    let mut holder = ProcConfig::new(exe, default_out_dir("gate-holder"));
    holder.read_words("workload_count=600 workload_period_ms=5")?;
    let holder_ok = holder_report(&holder)?;
    Ok(soak_ok && diff_ok && bulk_ok && holder_ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--probe") => return ExitCode::SUCCESS,
        Some("--child") => {
            let child = ChildArgs::from_args(argv[1..].iter().map(String::as_str));
            return match child.and_then(|c| run_child(&c).map_err(|e| e.to_string())) {
                Ok(code) => ExitCode::from(code as u8),
                Err(e) => {
                    eprintln!("procher child: {e}");
                    ExitCode::from(EXIT_USAGE)
                }
            };
        }
        _ => {}
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

    let verdict = match argv.first().map(String::as_str) {
        Some("--gate") => gate(exe),
        Some("--regression") if argv.get(1).map(String::as_str) == Some("bootstrap") => {
            let regression = bootstrap_regression(exe);
            regression.and_then(|(cfg, schedule)| soak_report(&cfg, &schedule, true))
        }
        Some("--regression") => Err("--regression takes the schedule name `bootstrap`".into()),
        Some("--differential") => {
            let mut cfg = DiffConfig::new(exe, default_out_dir("diff"));
            read_flags(&mut cfg, &argv[1..], None).and_then(|()| diff_report(&cfg))
        }
        _ => {
            let mut cfg = ProcConfig::new(exe, default_out_dir("soak"));
            let mut schedule = Vec::new();
            read_flags(&mut cfg, &argv, Some(&mut schedule))
                .and_then(|()| soak_report(&cfg, &schedule, false))
        }
    };
    match verdict {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(EXIT_VIOLATION),
        Err(e) => usage(&e),
    }
}

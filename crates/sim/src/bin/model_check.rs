//! Bounded model-checking gate for `scripts/check.sh` and CI.
//!
//! Three modes:
//!
//! * default — exhaustively explore the bounded 3-node scenario (crash +
//!   loss budgets) and exit non-zero on any invariant violation, writing
//!   a minimized replayable schedule dump;
//! * `--seeded-check` — inject the forged two-token fault and exit
//!   non-zero unless the explorer *finds* the violation (proves the
//!   search actually searches);
//! * `--replay FILE` — re-run a schedule dump in the world its
//!   `# scenario:` header describes and report whether it reproduces the
//!   violation its `# reason:` line states.
//!
//! Dumps are written, read and replayed by `raincore_sim::dump`, as the
//! `chaos` binary's are; a dump that cannot be written exits 2.
//!
//! Wall-clock throughput (schedules/sec) is measured with
//! `std::time::Instant`; this binary is a driver, not protocol code, and
//! carries a lint allowlist entry for it.

// Wall-clock throughput reporting only, never protocol time.
#![allow(clippy::disallowed_types)]

use raincore_sim::explore::{replay, Reduction, DUMP};
use raincore_sim::outln;
use raincore_sim::text::TextFields;
use raincore_sim::{Explorer, ModelCheckConfig};
use raincore_types::Duration;
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: model_check {} [--min-schedules N] [--dump FILE] [--seeded-check] \
         [--replay FILE] [--no-reduction] [--stats-out FILE] [--min-early-passes N] \
         [--min-probes N] [--retry-ms MS] [--hungry-ms MS]",
        ModelCheckConfig::flag_usage()
    );
    std::process::exit(2);
}

fn main() {
    let mut cfg = ModelCheckConfig::default();
    let mut min_schedules: u64 = 0;
    let mut min_early_passes: u64 = 0;
    let mut min_probes: u64 = 0;
    let mut dump_path = String::from("model-check-violation.txt");
    let mut seeded_check = false;
    let mut replay_path: Option<String> = None;
    let mut stats_out: Option<String> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let next = |i: &mut usize| -> String {
        *i += 1;
        args.get(*i - 1).cloned().unwrap_or_else(|| usage())
    };
    while i < args.len() {
        let arg = next(&mut i);
        match arg.as_str() {
            "--min-schedules" => min_schedules = next(&mut i).parse().unwrap_or_else(|_| usage()),
            "--dump" => dump_path = next(&mut i),
            "--seeded-check" => seeded_check = true,
            "--replay" => replay_path = Some(next(&mut i)),
            // Pure sleep-set DFS (the differential baseline).
            "--no-reduction" => cfg.reduction = Reduction::None,
            "--stats-out" => stats_out = Some(next(&mut i)),
            "--min-early-passes" => {
                min_early_passes = next(&mut i).parse().unwrap_or_else(|_| usage())
            }
            // The lost-token leg (DESIGN.md §17.5): the adversary moves on
            // a ring that has turned four times, so that every member's
            // probe limit is armed, and the run fails unless some
            // schedule sent this many probes.
            "--min-probes" => {
                min_probes = next(&mut i).parse().unwrap_or_else(|_| usage());
                cfg.warm_rotations = 4;
            }
            // The adaptive-timer leg (DESIGN.md §17.5): timeouts far enough
            // above what the model measures for the timers to come down.
            "--retry-ms" => {
                let ms = next(&mut i).parse().unwrap_or_else(|_| usage());
                cfg.transport.retry_timeout = Duration::from_millis(ms);
            }
            "--hungry-ms" => {
                let ms = next(&mut i).parse().unwrap_or_else(|_| usage());
                cfg.session.hungry_timeout = Duration::from_millis(ms);
            }
            // Every flag that sets one field of the `# scenario:` header
            // (`--nodes`, `--mtu`, `--multicast`, ...) is that field's row.
            flag => cfg.set_flag(flag, &next(&mut i)).unwrap_or_else(|| usage()),
        }
    }

    if let Some(path) = replay_path {
        DUMP.replay(&path, cfg, |cfg, steps| {
            let r = replay(cfg, steps)?;
            let n = steps.len();
            let progress = match &r.violation {
                Some((step, _)) => format!("after {step} of {n} actions"),
                None => format!("{} of {n} actions applied", r.applied),
            };
            Ok((r.verdict(), progress, r.world.dump_state()))
        });
    }
    if seeded_check {
        cfg.forge_token = true;
    }

    let t0 = Instant::now();
    let mut explorer = Explorer::new(cfg.clone());
    let report = DUMP.or_exit(explorer.run(), "setup failed");
    let elapsed = t0.elapsed().as_secs_f64().max(1e-9);
    let s = report.stats;
    outln!(
        "model-check: nodes={} depth<={} crashes<={} drops<={} forge_token={} reduction={:?}",
        cfg.nodes,
        cfg.max_depth,
        cfg.crash_budget,
        cfg.drop_budget,
        cfg.forge_token,
        cfg.reduction
    );
    outln!(
        "model-check: {} schedules ({} states, {} sleep-pruned, {} state-pruned, {} actions, deepest {}, {} early passes, {} probes) in {:.2}s — {:.0} schedules/s{}",
        s.schedules,
        s.states,
        s.pruned,
        s.states_pruned,
        s.actions,
        s.deepest,
        s.early_passes,
        s.probes,
        elapsed,
        s.schedules as f64 / elapsed,
        if report.capped { " [capped]" } else { " [exhausted]" },
    );
    if let Some(path) = &stats_out {
        let json = format!(
            "{{\n  \"nodes\": {},\n  \"max_depth\": {},\n  \"reduction\": \"{:?}\",\n  \
             \"schedules\": {},\n  \"states\": {},\n  \"sleep_pruned\": {},\n  \
             \"states_pruned\": {},\n  \"actions\": {},\n  \"deepest\": {},\n  \
             \"elapsed_secs\": {:.3},\n  \"capped\": {},\n  \"violation\": {}\n}}\n",
            cfg.nodes,
            cfg.max_depth,
            cfg.reduction,
            s.schedules,
            s.states,
            s.pruned,
            s.states_pruned,
            s.actions,
            s.deepest,
            elapsed,
            report.capped,
            report.violation.is_some(),
        );
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("model-check: cannot write {path}: {e}");
        }
    }

    if let Some(v) = &report.violation {
        let what = if seeded_check {
            "as expected"
        } else {
            "bounded exploration"
        };
        DUMP.report(&cfg, v, &dump_path, &[], seeded_check, what);
        return;
    }
    if seeded_check {
        eprintln!(
            "model-check: FAIL — seeded two-token fault was NOT found \
             (explorer is not exploring)"
        );
        std::process::exit(1);
    }
    if s.schedules < min_schedules {
        eprintln!(
            "model-check: FAIL — only {} schedules explored (< {min_schedules}); \
             bounds too tight for a meaningful gate",
            s.schedules
        );
        std::process::exit(1);
    }
    if s.early_passes < min_early_passes {
        eprintln!(
            "model-check: FAIL — at most {} early passes along any schedule \
             (< {min_early_passes}); the pacing rule was not exercised",
            s.early_passes
        );
        std::process::exit(1);
    }
    if s.probes < min_probes {
        eprintln!(
            "model-check: FAIL — at most {} successor probes along any schedule \
             (< {min_probes}); no member was hungry past its probe limit",
            s.probes
        );
        std::process::exit(1);
    }
    outln!("model-check: OK — no invariant violations");
}

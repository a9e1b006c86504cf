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
//! * `--replay FILE` — re-run a schedule dump and report whether the
//!   violation reproduces.
//!
//! Wall-clock throughput (schedules/sec) is measured with
//! `std::time::Instant`; this binary is a driver, not protocol code, and
//! carries a lint allowlist entry for it.

// Wall-clock throughput reporting only, never protocol time.
#![allow(clippy::disallowed_types)]

use raincore_sim::explore::{parse_schedule, replay, Reduction};
use raincore_sim::{Explorer, ModelCheckConfig};
use raincore_types::{Duration, NodeId};
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: model_check [--nodes N] [--depth N] [--crashes N] [--drops N] \
         [--max-schedules N] [--min-schedules N] [--dump FILE] [--seeded-check] [--replay FILE] \
         [--no-reduction] [--stats-out FILE] [--mtu BYTES] [--multicast ORIGIN:LEN]... \
         [--min-early-passes N] [--min-probes N] [--retry-ms MS] [--hungry-ms MS] \
         [--bulk-threshold BYTES] [--bulk-drops N]"
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
            "--nodes" => cfg.nodes = next(&mut i).parse().unwrap_or_else(|_| usage()),
            "--depth" => cfg.max_depth = next(&mut i).parse().unwrap_or_else(|_| usage()),
            "--crashes" => cfg.crash_budget = next(&mut i).parse().unwrap_or_else(|_| usage()),
            "--drops" => cfg.drop_budget = next(&mut i).parse().unwrap_or_else(|_| usage()),
            "--max-schedules" => {
                cfg.max_schedules = next(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--min-schedules" => min_schedules = next(&mut i).parse().unwrap_or_else(|_| usage()),
            "--dump" => dump_path = next(&mut i),
            "--seeded-check" => seeded_check = true,
            "--replay" => replay_path = Some(next(&mut i)),
            // Pure sleep-set DFS (the differential baseline).
            "--no-reduction" => cfg.reduction = Reduction::None,
            "--stats-out" => stats_out = Some(next(&mut i)),
            // The early-pass leg: a small MTU puts the pacing line
            // (DESIGN.md §16) within reach of a few seeded multicasts.
            "--mtu" => cfg.transport.mtu = next(&mut i).parse().unwrap_or_else(|_| usage()),
            "--multicast" => {
                let spec = next(&mut i);
                let seed = spec
                    .split_once(':')
                    .and_then(|(o, l)| Some((NodeId(o.parse().ok()?), l.parse().ok()?)));
                cfg.seed_bulk.push(seed.unwrap_or_else(|| usage()));
            }
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
            // The freight leg (DESIGN.md §16.5): seeded multicasts of at
            // least this many bytes travel out of band, and the adversary
            // may drop that many of their payload frames.
            "--bulk-threshold" => {
                cfg.session.bulk_threshold = next(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--bulk-drops" => {
                cfg.bulk_drop_budget = next(&mut i).parse().unwrap_or_else(|_| usage())
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
            _ => usage(),
        }
    }

    if let Some(path) = replay_path {
        run_replay(&cfg, &path);
        return;
    }
    if seeded_check {
        cfg.forge_token = true;
    }

    let t0 = Instant::now();
    let mut explorer = Explorer::new(cfg.clone());
    let report = match explorer.run() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("model-check: setup failed: {e}");
            std::process::exit(2);
        }
    };
    let elapsed = t0.elapsed().as_secs_f64().max(1e-9);
    let s = report.stats;
    println!(
        "model-check: nodes={} depth<={} crashes<={} drops<={} forge_token={} reduction={:?}",
        cfg.nodes, cfg.max_depth, cfg.crash_budget, cfg.drop_budget, cfg.forge_token, cfg.reduction
    );
    println!(
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

    if seeded_check {
        match report.violation {
            Some(v) => {
                println!("model-check: seeded fault FOUND as expected: {}", v.reason);
                println!(
                    "model-check: minimized to {} of {} actions",
                    v.minimized.len(),
                    v.schedule.len()
                );
                let dump = v.dump(&cfg);
                if let Err(e) = std::fs::write(&dump_path, &dump) {
                    eprintln!("model-check: cannot write {dump_path}: {e}");
                }
                println!("{dump}");
            }
            None => {
                eprintln!(
                    "model-check: FAIL — seeded two-token fault was NOT found \
                     (explorer is not exploring)"
                );
                std::process::exit(1);
            }
        }
        return;
    }

    if let Some(v) = report.violation {
        let dump = v.dump(&cfg);
        if let Err(e) = std::fs::write(&dump_path, &dump) {
            eprintln!("model-check: cannot write {dump_path}: {e}");
        }
        eprintln!("model-check: FAIL — {}", v.reason);
        eprintln!("{dump}");
        eprintln!("model-check: dump written to {dump_path}");
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
    println!("model-check: OK — no invariant violations");
}

fn run_replay(cfg: &ModelCheckConfig, path: &str) {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("model-check: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    let schedule = match parse_schedule(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("model-check: bad schedule in {path}: {e}");
            std::process::exit(2);
        }
    };
    // A dump produced with the seeded fault needs the fault re-armed.
    let mut cfg = cfg.clone();
    if text.contains("forge_token=true") {
        cfg.forge_token = true;
    }
    if let Some(warm) = text.split("warm_rotations=").nth(1) {
        let digits: String = warm.chars().take_while(char::is_ascii_digit).collect();
        cfg.warm_rotations = digits.parse().unwrap_or(cfg.warm_rotations);
    }
    let r = match replay(&cfg, &schedule) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("model-check: replay setup failed: {e}");
            std::process::exit(2);
        }
    };
    match r.violation {
        Some((step, reason)) => {
            println!(
                "model-check: violation reproduced after {step} of {} actions: {reason}",
                schedule.len()
            );
            println!("{}", r.world.dump_state());
        }
        None => {
            println!(
                "model-check: schedule replayed clean ({} of {} actions applied) — \
                 violation did NOT reproduce",
                r.applied,
                schedule.len()
            );
            std::process::exit(1);
        }
    }
}

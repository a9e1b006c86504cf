//! Chaos/soak gate for `scripts/check.sh` and CI.
//!
//! Three modes:
//!
//! * default / `--soak N` — run N seeded chaos schedules (rotating
//!   cluster sizes and start scenarios unless pinned) and exit non-zero
//!   on the first safety or liveness violation, writing a minimized
//!   replayable schedule dump;
//! * `--seeded-fault` — arm the deliberately broken heal (the liveness
//!   analogue of the model checker's forged token) and exit non-zero
//!   unless the harness *finds* the violation, shrinks it to a 1-minimal
//!   schedule and reproduces it from the dump;
//! * `--replay FILE` — re-run a schedule dump and report whether the
//!   violation reproduces.
//!
//! Wall-clock throughput is measured with `std::time::Instant`; this
//! binary is a driver, not protocol code, and carries a lint allowlist
//! entry for it.

// Wall-clock soak throughput reporting only, never protocol time.
#![allow(clippy::disallowed_types)]

use raincore_sim::chaos::{
    dump_violation, find_and_minimize, generate_schedule, parse_dump, run_chaos, ChaosConfig,
    ChaosEvidence, ChaosScenario,
};
use std::collections::BTreeMap;
use std::time::Instant;

/// Writes the trace evidence captured at the violation instant next to
/// the schedule dump: `<stem>-journal.json` (tracectl input),
/// `<stem>-flight.txt` and `<stem>-waterfall.txt`.
fn write_evidence(dump_path: &str, evidence: Option<&ChaosEvidence>) {
    let Some(ev) = evidence else { return };
    let stem = dump_path.strip_suffix(".txt").unwrap_or(dump_path);
    for (suffix, body) in [
        ("-journal.json", ev.journal_json.as_str()),
        ("-flight.txt", ev.flight_text.as_str()),
        ("-waterfall.txt", ev.waterfall.as_str()),
    ] {
        let path = format!("{stem}{suffix}");
        match std::fs::write(&path, body) {
            Ok(()) => eprintln!("chaos: evidence written to {path}"),
            Err(e) => eprintln!("chaos: cannot write {path}: {e}"),
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: chaos [--seed N] [--soak N] [--nodes N] [--ticks N] \
         [--fault-period N] [--scenario founding|isolated|split] \
         [--bulk THRESHOLD] [--pad BYTES] [--delay-spike PERCENT] [--seeded-fault] \
         [--replay FILE] \
         [--dump FILE] [--no-shrink]"
    );
    std::process::exit(2);
}

/// Derives the k-th soak run's config: unless pinned on the command
/// line, cluster size sweeps the issue's 4–12 envelope and the start
/// scenario rotates through all three topologies.
fn soak_cfg(base: &ChaosConfig, k: u64, pin_nodes: bool, pin_scenario: bool) -> ChaosConfig {
    let mut cfg = base.clone();
    cfg.seed = base.seed + k;
    if !pin_nodes {
        cfg.nodes = 4 + u32::try_from((cfg.seed * 7) % 9).unwrap_or(0);
    }
    if !pin_scenario {
        cfg.scenario = match cfg.seed % 3 {
            0 => ChaosScenario::Founding,
            1 => ChaosScenario::Isolated,
            _ => ChaosScenario::Split,
        };
    }
    cfg
}

fn print_fault_summary(counts: &BTreeMap<&'static str, u64>) {
    let total: u64 = counts.values().sum();
    println!("chaos: {total} faults applied by class:");
    for (class, count) in counts {
        println!("chaos:   raincore_chaos_faults_total{{class=\"{class}\"}} {count}");
    }
}

fn main() {
    let mut base = ChaosConfig::default();
    let mut soak: u64 = 1;
    let mut dump_path = String::from("chaos-violation.txt");
    let mut replay_path: Option<String> = None;
    let mut shrink = true;
    let mut pin_nodes = false;
    let mut pin_scenario = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let next = |i: &mut usize| -> String {
        *i += 1;
        args.get(*i - 1).cloned().unwrap_or_else(|| usage())
    };
    while i < args.len() {
        let arg = next(&mut i);
        match arg.as_str() {
            "--seed" => base.seed = next(&mut i).parse().unwrap_or_else(|_| usage()),
            "--soak" => soak = next(&mut i).parse().unwrap_or_else(|_| usage()),
            "--nodes" => {
                base.nodes = next(&mut i).parse().unwrap_or_else(|_| usage());
                pin_nodes = true;
            }
            "--ticks" => base.ticks = next(&mut i).parse().unwrap_or_else(|_| usage()),
            "--fault-period" => {
                base.fault_period = next(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--scenario" => {
                base.scenario = next(&mut i).parse().unwrap_or_else(|_| usage());
                pin_scenario = true;
            }
            "--bulk" => base.bulk_threshold = next(&mut i).parse().unwrap_or_else(|_| usage()),
            "--pad" => base.payload_pad = next(&mut i).parse().unwrap_or_else(|_| usage()),
            "--delay-spike" => base.delay_spike = next(&mut i).parse().unwrap_or_else(|_| usage()),
            "--seeded-fault" => base.seeded_fault = true,
            "--replay" => replay_path = Some(next(&mut i)),
            "--dump" => dump_path = next(&mut i),
            "--no-shrink" => shrink = false,
            _ => usage(),
        }
    }

    if let Some(path) = replay_path {
        run_replay(&path);
        return;
    }
    if base.seeded_fault {
        run_seeded_fault(&base, &dump_path, pin_nodes, pin_scenario);
        return;
    }

    let t0 = Instant::now();
    let mut totals: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut total_ticks = 0u64;
    let mut bulk_drops = 0u64;
    let mut completeness_checked = 0u64;
    let mut early_passes = 0u64;
    let mut spike_retransmissions = 0u64;
    let mut false_suspicions = 0u64;
    let mut probes_sent = 0u64;
    for k in 0..soak {
        let cfg = soak_cfg(&base, k, pin_nodes, pin_scenario);
        let schedule = generate_schedule(&cfg);
        let report = match run_chaos(&cfg, &schedule) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("chaos: setup failed for seed {}: {e}", cfg.seed);
                std::process::exit(2);
            }
        };
        for (class, count) in &report.fault_counts {
            *totals.entry(class).or_default() += count;
        }
        total_ticks += report.ticks_run;
        if let Some(v) = &report.violation {
            eprintln!(
                "chaos: FAIL — seed {} nodes {} scenario {}: {}",
                cfg.seed, cfg.nodes, cfg.scenario, v.reason
            );
            let events = if shrink {
                match raincore_sim::chaos::shrink(&cfg, &schedule, v.tick) {
                    Ok(m) => {
                        eprintln!("chaos: minimized {} events to {}", schedule.len(), m.len());
                        m
                    }
                    Err(e) => {
                        eprintln!("chaos: shrink failed ({e}); dumping full schedule");
                        schedule.clone()
                    }
                }
            } else {
                schedule.clone()
            };
            let dump = dump_violation(&cfg, v, &events);
            if let Err(e) = std::fs::write(&dump_path, &dump) {
                eprintln!("chaos: cannot write {dump_path}: {e}");
            }
            write_evidence(&dump_path, report.evidence.as_ref());
            eprintln!("{dump}");
            eprintln!("chaos: dump written to {dump_path}");
            std::process::exit(1);
        }
        if cfg.bulk_threshold > 0 && report.completeness_checked == 0 {
            eprintln!(
                "chaos: FAIL — seed {}: bulk soak ran but the completeness \
                 oracle never checked a delivery (vacuous)",
                cfg.seed
            );
            std::process::exit(1);
        }
        bulk_drops += report.bulk_drops_injected;
        completeness_checked += report.completeness_checked;
        early_passes += report.early_passes;
        spike_retransmissions += report.spike_retransmissions;
        false_suspicions += report.false_suspicions;
        probes_sent += report.probes_sent;
        println!(
            "chaos: seed {} nodes {:2} scenario {:8} OK — {} faults, {} dups, {} reorders, {} bulk drops, {} ticks",
            cfg.seed,
            cfg.nodes,
            cfg.scenario.to_string(),
            report.faults_applied,
            report.dups_injected,
            report.reorders_injected,
            report.bulk_drops_injected,
            report.ticks_run,
        );
    }
    if base.bulk_threshold > 0 {
        println!(
            "chaos: bulk soak — {bulk_drops} bulk frames dropped, \
             {completeness_checked} deliveries completeness-checked"
        );
        if bulk_drops == 0 {
            eprintln!("chaos: FAIL — bulk soak dropped no bulk frames (fault not exercised)");
            std::process::exit(1);
        }
        println!("chaos: bulk soak — {early_passes} token passes were early");
        if early_passes == 0 {
            eprintln!(
                "chaos: FAIL — bulk soak passed no token early (out-of-band freight not weighed)"
            );
            std::process::exit(1);
        }
    }
    if base.payload_pad > 0 {
        println!("chaos: padded soak — {early_passes} token passes were early");
        if early_passes == 0 {
            eprintln!(
                "chaos: FAIL — padded soak passed no token early (pacing rule not exercised)"
            );
            std::process::exit(1);
        }
    }
    if base.delay_spike > 0 {
        println!(
            "chaos: delay-spike soak — {spike_retransmissions} retransmissions under the \
             give-up budget, {false_suspicions} live members suspected over it"
        );
        if spike_retransmissions == 0 {
            eprintln!("chaos: FAIL — no delay spike crossed an armed timeout (vacuous)");
            std::process::exit(1);
        }
        if false_suspicions == 0 {
            eprintln!("chaos: FAIL — no delay spike outlasted a give-up budget (vacuous)");
            std::process::exit(1);
        }
        println!("chaos: delay-spike soak — {probes_sent} successor probes sent");
        if probes_sent == 0 {
            eprintln!("chaos: FAIL — no member was hungry past its probe limit (vacuous)");
            std::process::exit(1);
        }
    }
    let elapsed = t0.elapsed().as_secs_f64().max(1e-9);
    print_fault_summary(&totals);
    println!(
        "chaos: OK — {soak} seeds clean ({total_ticks} ticks) in {elapsed:.2}s — {:.0} ticks/s",
        total_ticks as f64 / elapsed
    );
}

/// `--seeded-fault`: the harness must find the broken-heal liveness bug,
/// shrink it to a 1-minimal schedule, dump it, and reproduce it from the
/// minimized schedule. Exit 0 only if all of that works.
fn run_seeded_fault(base: &ChaosConfig, dump_path: &str, pin_nodes: bool, pin_scenario: bool) {
    let t0 = Instant::now();
    const ATTEMPTS: u64 = 50;
    for k in 0..ATTEMPTS {
        let cfg = soak_cfg(base, k, pin_nodes, pin_scenario);
        let found = match find_and_minimize(&cfg) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("chaos: setup failed for seed {}: {e}", cfg.seed);
                std::process::exit(2);
            }
        };
        let Some((violation, schedule, minimized)) = found else {
            continue;
        };
        println!(
            "chaos: seeded fault FOUND at seed {} (nodes {}, scenario {}): {}",
            cfg.seed, cfg.nodes, cfg.scenario, violation.reason
        );
        println!(
            "chaos: minimized {} events to {} in {:.2}s",
            schedule.len(),
            minimized.len(),
            t0.elapsed().as_secs_f64()
        );
        // The minimized schedule must still reproduce the violation.
        match run_chaos(&cfg, &minimized) {
            Ok(r) if r.violation.is_some() => {
                write_evidence(dump_path, r.evidence.as_ref());
            }
            Ok(_) => {
                eprintln!("chaos: FAIL — minimized schedule no longer reproduces");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("chaos: replay setup failed: {e}");
                std::process::exit(2);
            }
        }
        let dump = dump_violation(&cfg, &violation, &minimized);
        if let Err(e) = std::fs::write(dump_path, &dump) {
            eprintln!("chaos: cannot write {dump_path}: {e}");
        }
        println!("{dump}");
        println!("chaos: dump written to {dump_path}; replay with --replay {dump_path}");
        return;
    }
    eprintln!(
        "chaos: FAIL — seeded broken-heal fault was NOT found in {ATTEMPTS} seeds \
         (liveness oracles are not watching)"
    );
    std::process::exit(1);
}

fn run_replay(path: &str) {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("chaos: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    // The dump header carries the full config, including seeded_fault,
    // so a broken-heal dump re-arms the bug on replay.
    let (cfg, schedule) = match parse_dump(&text) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("chaos: bad dump in {path}: {e}");
            std::process::exit(2);
        }
    };
    let report = match run_chaos(&cfg, &schedule) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("chaos: replay setup failed: {e}");
            std::process::exit(2);
        }
    };
    print_fault_summary(&report.fault_counts);
    if report.restarts_skipped > 0 {
        println!(
            "chaos: {} scheduled restart(s) skipped — the member was up",
            report.restarts_skipped
        );
    }
    match report.violation {
        Some(v) => {
            println!(
                "chaos: violation reproduced at tick {} ({}): {}",
                v.tick, v.at, v.reason
            );
        }
        None => {
            println!(
                "chaos: schedule replayed clean ({} faults applied) — violation did NOT reproduce",
                report.faults_applied
            );
            std::process::exit(1);
        }
    }
}

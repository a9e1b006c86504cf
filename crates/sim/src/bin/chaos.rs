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
//! * `--replay FILE` — re-run a schedule dump and report whether it
//!   reproduces the violation its `# reason:` line states.
//!
//! Dumps are shrunk, written, read and replayed by `raincore_sim::dump`,
//! as the `model_check` binary's are. A dump and its evidence files come
//! from one run of the schedule dumped, and a dump that cannot be written
//! exits 2.
//!
//! Wall-clock throughput is measured with `std::time::Instant`; this
//! binary is a driver, not protocol code, and carries a lint allowlist
//! entry for it.

// Wall-clock soak throughput reporting only, never protocol time.
#![allow(clippy::disallowed_types)]

use raincore_sim::chaos::{
    generate_schedule, run_chaos, ChaosConfig, ChaosEvent, ChaosScenario, ChaosViolation, DUMP,
};
use raincore_sim::dump;
use raincore_sim::outln;
use raincore_sim::text::TextFields;
use std::collections::BTreeMap;
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: chaos {} [--soak N] [--nodes N] [--scenario founding|isolated|split] \
         [--seeded-fault] [--replay FILE] [--dump FILE] [--no-shrink]",
        ChaosConfig::flag_usage()
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
    outln!("chaos: {total} faults applied by class:");
    for (class, count) in counts {
        outln!("chaos:   raincore_chaos_faults_total{{class=\"{class}\"}} {count}");
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
            "--soak" => soak = next(&mut i).parse().unwrap_or_else(|_| usage()),
            "--nodes" => {
                base.nodes = next(&mut i).parse().unwrap_or_else(|_| usage());
                pin_nodes = true;
            }
            "--scenario" => {
                base.scenario = next(&mut i).parse().unwrap_or_else(|_| usage());
                pin_scenario = true;
            }
            "--seeded-fault" => base.seeded_fault = true,
            "--replay" => replay_path = Some(next(&mut i)),
            "--dump" => dump_path = next(&mut i),
            "--no-shrink" => shrink = false,
            // Every other flag sets one field of the `# config:` header.
            flag => base
                .set_flag(flag, &next(&mut i))
                .unwrap_or_else(|| usage()),
        }
    }

    if let Some(path) = replay_path {
        // The dump header carries the full config, including
        // seeded_fault, so a broken-heal dump re-arms the bug on replay.
        DUMP.replay(&path, base, |cfg, steps| {
            let report = run_chaos(cfg, steps)?;
            print_fault_summary(&report.fault_counts);
            if report.restarts_skipped > 0 {
                outln!(
                    "chaos: {} scheduled restart(s) skipped — the member was up",
                    report.restarts_skipped
                );
            }
            let progress = match &report.violation {
                Some(v) => format!("at tick {} ({})", v.tick, v.at),
                None => format!("{} faults applied", report.faults_applied),
            };
            let verdict = report.violation.as_ref().map(ChaosViolation::verdict);
            Ok((verdict, progress, String::new()))
        });
    }
    // `--seeded-fault` soaks until it finds the broken heal, 50 seeds at
    // most, and fails if it does not.
    let seeded = base.seeded_fault;
    let soak = if seeded { 50 } else { soak };

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
        let setup = format!("setup failed for seed {}", cfg.seed);
        let report = DUMP.or_exit(run_chaos(&cfg, &schedule), &setup);
        for (class, count) in &report.fault_counts {
            *totals.entry(class).or_default() += count;
        }
        total_ticks += report.ticks_run;
        if report.violation.is_some() {
            let run = |s: &[ChaosEvent]| {
                let r = run_chaos(&cfg, s)?;
                Ok((
                    r.violation.as_ref().map(ChaosViolation::verdict),
                    r.evidence,
                ))
            };
            let found = DUMP.or_exit(dump::shrink(&schedule, shrink, run), "shrink failed");
            let evidence = found.evidence.as_ref().map_or(Vec::new(), |ev| {
                vec![
                    ("-journal.json", ev.journal_json.as_str()),
                    ("-flight.txt", ev.flight_text.as_str()),
                    ("-waterfall.txt", ev.waterfall.as_str()),
                ]
            });
            let (seed, nodes, scenario) = (cfg.seed, cfg.nodes, cfg.scenario);
            let what = format!("at seed {seed} (nodes {nodes}, scenario {scenario})");
            DUMP.report(&cfg, &found, &dump_path, &evidence, seeded, &what);
            return;
        }
        if seeded {
            continue;
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
        outln!(
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
    if seeded {
        eprintln!(
            "chaos: FAIL — seeded broken-heal fault was NOT found in {soak} seeds \
             (liveness oracles are not watching)"
        );
        std::process::exit(1);
    }
    if base.bulk_threshold > 0 {
        outln!(
            "chaos: bulk soak — {bulk_drops} bulk frames dropped, \
             {completeness_checked} deliveries completeness-checked"
        );
        if bulk_drops == 0 {
            eprintln!("chaos: FAIL — bulk soak dropped no bulk frames (fault not exercised)");
            std::process::exit(1);
        }
        outln!("chaos: bulk soak — {early_passes} token passes were early");
        if early_passes == 0 {
            eprintln!(
                "chaos: FAIL — bulk soak passed no token early (out-of-band freight not weighed)"
            );
            std::process::exit(1);
        }
    }
    if base.payload_pad > 0 {
        outln!("chaos: padded soak — {early_passes} token passes were early");
        if early_passes == 0 {
            eprintln!(
                "chaos: FAIL — padded soak passed no token early (pacing rule not exercised)"
            );
            std::process::exit(1);
        }
    }
    if base.delay_spike > 0 {
        outln!(
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
        outln!("chaos: delay-spike soak — {probes_sent} successor probes sent");
        if probes_sent == 0 {
            eprintln!("chaos: FAIL — no member was hungry past its probe limit (vacuous)");
            std::process::exit(1);
        }
    }
    let elapsed = t0.elapsed().as_secs_f64().max(1e-9);
    print_fault_summary(&totals);
    outln!(
        "chaos: OK — {soak} seeds clean ({total_ticks} ticks) in {elapsed:.2}s — {:.0} ticks/s",
        total_ticks as f64 / elapsed
    );
}

//! Integration tests for the chaos harness: clean soaks across every
//! start scenario, the seeded-fault detection/shrink/replay loop, and
//! pinned regressions for the real protocol bugs the harness found in
//! the core protocol (see the `chaos_regression_*` tests).

use raincore_sim::chaos::{
    generate_schedule, run_chaos, ChaosConfig, ChaosEvent, ChaosScenario, ChaosViolation, DUMP,
};
use raincore_sim::dump::{self, Found, Verdict};
use raincore_types::Result;
use std::process::Command;

/// A small, debug-build-friendly config: short fault phase and a tight
/// convergence bound so seeded-fault runs don't crawl to the horizon.
fn small_cfg(seed: u64, scenario: ChaosScenario) -> ChaosConfig {
    ChaosConfig {
        nodes: 5,
        seed,
        scenario,
        ticks: 120,
        convergence_bound_ticks: 400,
        ..ChaosConfig::default()
    }
}

/// Every start scenario runs a short generated schedule clean: no safety
/// or liveness violation, converged at the end, and the liveness oracles
/// demonstrably engaged (per-fault-class counters exported).
#[test]
fn chaos_short_soak_all_scenarios_clean() {
    for scenario in [
        ChaosScenario::Founding,
        ChaosScenario::Isolated,
        ChaosScenario::Split,
    ] {
        for seed in 1..=3u64 {
            let cfg = small_cfg(seed, scenario);
            let schedule = generate_schedule(&cfg);
            let report = run_chaos(&cfg, &schedule).expect("setup");
            assert!(
                report.violation.is_none(),
                "seed {seed} scenario {scenario} violated: {}",
                report.violation.unwrap().reason
            );
            assert!(
                report.converged,
                "seed {seed} scenario {scenario} did not converge"
            );
            let rendered = report.registry.snapshot().to_prometheus();
            assert!(
                rendered.contains("raincore_chaos_faults_total"),
                "fault-class counters missing from metrics export"
            );
        }
    }
}

/// With the out-of-band path enabled, a sustained bulk-loss dial drops a
/// hefty fraction of real bulk frames while the token keeps ordering
/// their ids. The §13 completeness oracle (no node delivers an id whose
/// payload it lacks) must hold non-vacuously, and the NACK pull path
/// must still deliver everything — the run converges clean.
#[test]
fn chaos_bulk_loss_soak_completeness_holds() {
    for seed in 1..=3u64 {
        let cfg = ChaosConfig {
            bulk_threshold: 512,
            ..small_cfg(seed, ChaosScenario::Founding)
        };
        let schedule: Vec<ChaosEvent> = ["@0 bulk-loss 300", "@100 bulk-loss 0"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let report = run_chaos(&cfg, &schedule).expect("setup");
        assert!(
            report.violation.is_none(),
            "seed {seed}: {}",
            report.violation.unwrap().reason
        );
        assert!(report.converged, "seed {seed} did not converge");
        assert!(
            report.bulk_drops_injected > 0,
            "seed {seed}: bulk-loss dial dropped nothing — fault not exercised"
        );
        assert!(
            report.completeness_checked > 0,
            "seed {seed}: completeness oracle never checked a delivery"
        );
        // Every other bulk payload is 4 KiB: the token that orders it is
        // full by that freight alone (DESIGN.md §16.1).
        assert!(
            report.early_passes > 0,
            "seed {seed}: no token pass was early — out-of-band freight not weighed"
        );
    }
}

/// Payloads padded past two transport datagrams fill the token on their
/// own: every hop that carries one is an early pass (DESIGN.md §16) of a
/// token fragmented three ways. Crashes, partitions, duplication and
/// reordering must find nothing there either — and the run must really
/// have been in that regime.
#[test]
fn chaos_padded_soak_passes_early_and_stays_clean() {
    for seed in 1..=3u64 {
        let cfg = ChaosConfig {
            payload_pad: 3000,
            ..small_cfg(seed, ChaosScenario::Founding)
        };
        let report = run_chaos(&cfg, &generate_schedule(&cfg)).expect("setup");
        assert!(
            report.violation.is_none(),
            "seed {seed}: {}",
            report.violation.unwrap().reason
        );
        assert!(report.converged, "seed {seed} did not converge");
        assert!(report.faults_applied > 0, "seed {seed} injected no fault");
        assert!(
            report.early_passes > 0,
            "seed {seed}: no token pass was early — pacing rule not exercised"
        );
    }
}

/// One chaos run as `dump::shrink` takes it: the verdict a dump of it
/// states, and no evidence.
fn verdict_of(cfg: &ChaosConfig, schedule: &[ChaosEvent]) -> Result<(Option<Verdict>, ())> {
    let report = run_chaos(cfg, schedule)?;
    Ok((report.violation.as_ref().map(ChaosViolation::verdict), ()))
}

/// `schedule` shrunk to a 1-minimal schedule under `cfg`.
fn shrunk(cfg: &ChaosConfig, schedule: &[ChaosEvent]) -> Found<ChaosEvent> {
    dump::shrink(schedule, true, |s| verdict_of(cfg, s)).expect("setup")
}

/// The deliberately seeded broken heal (belief updated, network still
/// partitioned) must be caught by the convergence oracle, shrink to a
/// 1-minimal schedule, and reproduce from its own dump.
#[test]
fn chaos_seeded_fault_found_shrunk_and_replayable() {
    let mut cfg = small_cfg(7, ChaosScenario::Founding);
    cfg.seeded_fault = true;
    // Handcrafted storm with redundant events around the fatal
    // partition+broken-heal pair.
    let schedule: Vec<ChaosEvent> = [
        "@5 jitter 200",
        "@10 crash n4",
        "@20 restart n4",
        "@30 partition n0,n1|n2,n3,n4",
        "@50 heal",
        "@60 dup 40",
        "@80 dup 0",
    ]
    .iter()
    .map(|s| s.parse().unwrap())
    .collect();

    let report = run_chaos(&cfg, &schedule).expect("setup");
    let violation = report.violation.expect("broken heal must trip an oracle");
    assert!(
        violation.reason.contains("membership liveness"),
        "expected the convergence oracle, got: {}",
        violation.reason
    );

    let found = shrunk(&cfg, &schedule);
    let minimized = &found.minimized;
    assert!(
        minimized.len() < schedule.len(),
        "shrinker removed nothing from a padded schedule"
    );

    // 1-minimality: removing any single surviving event loses the bug.
    let again = shrunk(&cfg, minimized);
    assert_eq!(&again.minimized, minimized, "schedule not 1-minimal");

    // The dump round-trips and the violation it states reproduces from it.
    let dump = DUMP.render(&cfg, &found.verdict, minimized);
    let (cfg2, stated, schedule2) = DUMP
        .read(&dump, ChaosConfig::default())
        .expect("parse dump");
    assert!(cfg2.seeded_fault, "dump header lost the seeded-fault flag");
    let replay = run_chaos(&cfg2, &schedule2).expect("setup");
    let replayed = replay.violation.map(|v| v.reason);
    assert!(
        replayed.is_some(),
        "minimized dump no longer reproduces the violation"
    );
    assert_eq!(
        stated, replayed,
        "the dump's # reason: is not its schedule's"
    );
}

/// End-to-end search: the seeded broken heal is found from generated
/// schedules alone within a few seeds, and shrinks.
#[test]
fn chaos_seeded_fault_found_from_generated_schedules() {
    for seed in 1..=20u64 {
        let mut cfg = small_cfg(seed, ChaosScenario::Founding);
        cfg.seeded_fault = true;
        let schedule = generate_schedule(&cfg);
        if let Some(violation) = run_chaos(&cfg, &schedule).expect("setup").violation {
            let minimized = shrunk(&cfg, &schedule).minimized;
            assert!(minimized.len() <= schedule.len());
            assert!(
                !minimized.is_empty(),
                "an empty schedule cannot violate liveness"
            );
            let replay = run_chaos(&cfg, &minimized).expect("setup");
            assert!(
                replay.violation.is_some(),
                "minimized schedule no longer reproduces: {}",
                violation.reason
            );
            return;
        }
    }
    panic!("seeded broken heal was not found in 20 generated schedules");
}

/// Regression: a member that crashes and restarts before the group purges
/// it used to deadlock every subsequent 911 vote — the restarted node was
/// still listed in the old ring, was reachable (so never excluded by
/// failure-on-delivery), but silently ignored 911 calls from groups it no
/// longer belonged to. This is the exact schedule the chaos harness
/// found and shrank; `on_call911` now grants as a non-member.
#[test]
fn chaos_regression_crash_restart_911_deadlock() {
    let cfg = ChaosConfig {
        nodes: 11,
        seed: 1,
        scenario: ChaosScenario::Isolated,
        ..ChaosConfig::default()
    };
    let schedule: Vec<ChaosEvent> = [
        "@55 crash n3",
        "@233 crash n10",
        "@287 crash n9",
        "@329 crash n6",
        "@330 restart n6",
    ]
    .iter()
    .map(|s| s.parse().unwrap())
    .collect();
    let report = run_chaos(&cfg, &schedule).expect("setup");
    assert!(
        report.violation.is_none(),
        "911 deadlock regressed: {}",
        report.violation.unwrap().reason
    );
    assert!(report.converged, "cluster did not reconverge");
    assert_eq!(report.restarts_skipped, 0);
}

/// Regression: a restarted joiner whose first NIC was unplugged used to
/// livelock 911 forever. Every exchange with the joiner pays the
/// redundant-address failover, so its grant arrives just after the
/// caller's starving retry — and the retry used to mint a fresh req id,
/// discarding the grant in flight, deterministically, every round. The
/// retry is now a retransmission of the standing vote (same req id), so
/// late grants count. Schedule found and shrunk by the harness at soak
/// seed 67 — plus the `crash n4` the shrinker had dropped while a
/// `restart` of a member that was up still reincarnated it.
#[test]
fn chaos_regression_nic_failover_911_livelock() {
    let cfg = ChaosConfig {
        nodes: 5,
        seed: 67,
        scenario: ChaosScenario::Isolated,
        ticks: 2000,
        ..ChaosConfig::default()
    };
    let schedule: Vec<ChaosEvent> = ["@188 nic-down n4.0", "@544 crash n4", "@545 restart n4"]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
    let report = run_chaos(&cfg, &schedule).expect("setup");
    assert!(
        report.violation.is_none(),
        "911 retry livelock regressed: {}",
        report.violation.unwrap().reason
    );
    assert!(report.converged, "cluster did not reconverge");
    // n4 did come back as a joiner (a `restart` of a member that is up
    // is skipped, and this schedule would then test nothing).
    assert_eq!(
        (report.fault_counts["restart"], report.restarts_skipped),
        (1, 0)
    );
}

/// Regression: if every node holding a token copy dies, the survivors
/// used to probe each other forever — no copy means no beacons, no
/// beacons means no discovery, and a 911 vote cannot regenerate what
/// nobody remembers. A token-less joiner now founds a fresh singleton
/// group after `BOOTSTRAP_PROBE_LIMIT` (16) unanswered probes, and discovery
/// plus merge (§2.4) glue the concurrently founded groups back together.
/// Schedule found and shrunk by the harness at soak seed 25 (plus the
/// two `crash` lines it had dropped, see above): n0 and n5 restart into
/// a cluster whose last copy holder (n7) dies.
#[test]
fn chaos_regression_total_copy_loss_bootstrap() {
    let cfg = ChaosConfig {
        nodes: 8,
        seed: 25,
        scenario: ChaosScenario::Isolated,
        ticks: 2000,
        ..ChaosConfig::default()
    };
    let schedule: Vec<ChaosEvent> = [
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
    .map(|s| s.parse().unwrap())
    .collect();
    let report = run_chaos(&cfg, &schedule).expect("setup");
    assert!(
        report.violation.is_none(),
        "total-copy-loss bootstrap regressed: {}",
        report.violation.unwrap().reason
    );
    assert!(report.converged, "survivors did not re-form a group");
    // Both restarts took: n0 and n5 rejoined token-less.
    assert_eq!(
        (report.fault_counts["restart"], report.restarts_skipped),
        (2, 0)
    );
}

/// Runs the `chaos` binary; returns its exit code, and its stdout
/// followed by its stderr.
fn chaos(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_chaos"))
        .args(args)
        .output()
        .expect("chaos runs");
    let (stdout, stderr) = (&out.stdout, &out.stderr);
    let text = String::from_utf8_lossy(stdout) + String::from_utf8_lossy(stderr);
    (out.status.code(), text.into())
}

/// A dump passes `--replay` only if its schedule reproduces the violation
/// its `# reason:` line states: another one fails it (exit 1, both
/// reasons printed), and a dump that states none replays as any dump did.
#[test]
fn a_replay_that_reproduces_another_violation_fails() {
    let cfg = ChaosConfig {
        seeded_fault: true,
        ..small_cfg(7, ChaosScenario::Founding)
    };
    let schedule: Vec<ChaosEvent> = ["@30 partition n0,n1|n2,n3,n4", "@50 heal"]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
    let (verdict, ()) = verdict_of(&cfg, &schedule).expect("setup");
    let verdict = verdict.expect("the broken heal trips an oracle");
    let stated = DUMP.render(&cfg, &verdict, &schedule);
    let other = "token liveness: nonsense";
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let cases = [
        ("chaos-stated-reason.txt", stated.clone(), Some(0)),
        (
            "chaos-other-reason.txt",
            stated.replace(&verdict.reason, other),
            Some(1),
        ),
        (
            "chaos-no-reason.txt",
            stated.replace(&format!("# reason: {}\n", verdict.reason), ""),
            Some(0),
        ),
    ];
    for (name, text, code) in cases {
        assert_eq!(
            text == stated,
            name.contains("stated"),
            "{name}: the edit took"
        );
        let path = dir.join(name);
        std::fs::write(&path, text).expect("write");
        let (got, out) = chaos(&["--replay", path.to_str().expect("utf-8 path")]);
        assert_eq!(got, code, "{name}: {out}");
        assert!(
            out.contains(&format!(": {}", verdict.reason)),
            "{name}: {out}"
        );
        assert_eq!(out.contains(other), name.contains("other"), "{name}: {out}");
    }
}

/// The seeded-fault search fails when its dump or evidence cannot be
/// written: they are what the search exists to leave.
#[test]
fn a_dump_that_cannot_be_written_fails() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("no-such-dir");
    let dump = dir.join("chaos-seeded.txt");
    let dump = dump.to_str().expect("utf-8 path");
    let (code, out) = chaos(&["--seeded-fault", "--nodes", "5", "--dump", dump]);
    assert_eq!(code, Some(2), "{out}");
    assert!(out.contains("cannot write"), "{out}");
}

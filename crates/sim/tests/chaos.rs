//! Integration tests for the chaos harness: clean soaks across every
//! start scenario, the seeded-fault detection/shrink/replay loop, and
//! pinned regressions for the real protocol bugs the harness found in
//! the core protocol (see the `chaos_regression_*` tests).

use raincore_sim::chaos::{
    dump_violation, find_and_minimize, generate_schedule, parse_dump, run_chaos, shrink,
    ChaosConfig, ChaosEvent, ChaosScenario,
};

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

    let minimized = shrink(&cfg, &schedule, violation.tick).expect("shrink");
    assert!(
        minimized.len() < schedule.len(),
        "shrinker removed nothing from a padded schedule"
    );

    // 1-minimality: removing any single surviving event loses the bug.
    for skip in 0..minimized.len() {
        let without: Vec<ChaosEvent> = minimized
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != skip)
            .map(|(_, e)| e.clone())
            .collect();
        let r = run_chaos(&cfg, &without).expect("setup");
        assert!(
            r.violation.is_none(),
            "dropping {} still violates — schedule not 1-minimal",
            minimized[skip]
        );
    }

    // The dump round-trips and the violation reproduces from it.
    let dump = dump_violation(&cfg, &violation, &minimized);
    let (cfg2, schedule2) = parse_dump(&dump).expect("parse dump");
    assert!(cfg2.seeded_fault, "dump header lost the seeded-fault flag");
    let replay = run_chaos(&cfg2, &schedule2).expect("setup");
    assert!(
        replay.violation.is_some(),
        "minimized dump no longer reproduces the violation"
    );
}

/// End-to-end search: `find_and_minimize` must locate the seeded broken
/// heal from generated schedules alone within a few seeds.
#[test]
fn chaos_seeded_fault_found_from_generated_schedules() {
    for seed in 1..=20u64 {
        let mut cfg = small_cfg(seed, ChaosScenario::Founding);
        cfg.seeded_fault = true;
        if let Some((violation, schedule, minimized)) = find_and_minimize(&cfg).expect("setup") {
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

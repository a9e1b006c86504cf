//! Tier-1 smoke of the verification layers (`cargo test -q` at the root
//! runs only the facade crate's tests, so without this a green tier-1
//! says nothing about the model checker or the chaos harness):
//!
//! * the bounded model checker exhausts a 3-node space clean, with the
//!   state cache (`Reduction::Hash`) and without it (`Reduction::None`,
//!   the differential reference), and the cache visits fewer states;
//! * the seeded `forge_token` fault is found under the cache and its
//!   minimized schedule reproduces under the uncached replay;
//! * one seeded chaos run passes every auditor and oracle, with the
//!   completeness auditor demonstrably engaged;
//! * the early-pass space (64-byte MTU, a token that fills two datagrams)
//!   exhausts clean and demonstrably contains early passes.
//!
//! Bounds are sized for a debug build; the full-depth gates live in
//! `scripts/check.sh`.

use raincore::sim::chaos::{generate_schedule, run_chaos, ChaosConfig};
use raincore::sim::explore::{replay, Reduction};
use raincore::sim::{Explorer, ModelCheckConfig};
use raincore::types::NodeId;

fn three_node_cfg(reduction: Reduction) -> ModelCheckConfig {
    ModelCheckConfig {
        nodes: 3,
        max_depth: 9,
        max_schedules: 200_000,
        reduction,
        ..ModelCheckConfig::default()
    }
}

#[test]
fn state_cache_and_plain_search_agree_on_a_clean_space() {
    let cached = Explorer::new(three_node_cfg(Reduction::Hash))
        .run()
        .expect("setup");
    let plain = Explorer::new(three_node_cfg(Reduction::None))
        .run()
        .expect("setup");
    for (name, report) in [("Hash", &cached), ("None", &plain)] {
        assert!(
            report.violation.is_none(),
            "{name}: clean space violated: {:?}",
            report.violation.as_ref().map(|v| &v.reason)
        );
        assert!(!report.capped, "{name}: bounds too tight to exhaust");
    }
    assert!(cached.stats.states_pruned > 0, "state cache never pruned");
    assert!(
        cached.stats.states < plain.stats.states,
        "state cache visited no fewer states: {} vs {}",
        cached.stats.states,
        plain.stats.states
    );
}

#[test]
fn seeded_fault_found_under_the_cache_replays_without_it() {
    let mut cached = three_node_cfg(Reduction::Hash);
    cached.forge_token = true;
    let v = Explorer::new(cached.clone())
        .run()
        .expect("setup")
        .violation
        .expect("the forged second token must be found");
    assert!(v.reason.contains("token uniqueness"), "{}", v.reason);

    let plain = ModelCheckConfig {
        reduction: Reduction::None,
        ..cached
    };
    let (_, reason) = replay(&plain, &v.minimized)
        .expect("replay setup")
        .violation
        .expect("schedule minimized under the cache must replay without it");
    assert!(reason.contains("token uniqueness"), "{reason}");
}

#[test]
fn early_pass_space_is_clean_and_not_vacuous() {
    // A token filled by what rides it, and one filled by 120 bytes that
    // travel beside it (DESIGN.md §16.5).
    let inline = vec![(NodeId(0), 30), (NodeId(0), 30), (NodeId(1), 30)];
    for (seed_bulk, bulk_threshold) in [(inline, 0), (vec![(NodeId(1), 120)], 100)] {
        let mut cfg = ModelCheckConfig {
            max_depth: 8,
            seed_bulk,
            bulk_drop_budget: 1,
            ..three_node_cfg(Reduction::Hash)
        };
        cfg.transport.mtu = 64;
        cfg.session.bulk_threshold = bulk_threshold;
        let report = Explorer::new(cfg).run().expect("setup");
        assert!(
            report.violation.is_none(),
            "{:?}",
            report.violation.as_ref().map(|v| &v.reason)
        );
        assert!(!report.capped, "bounds too tight to exhaust");
        assert!(report.stats.early_passes > 0, "no schedule passed early");
    }
}

#[test]
fn seeded_chaos_run_passes_every_auditor() {
    let cfg = ChaosConfig {
        nodes: 4,
        seed: 13,
        ticks: 120,
        convergence_bound_ticks: 400,
        bulk_threshold: 512,
        ..ChaosConfig::default()
    };
    let report = run_chaos(&cfg, &generate_schedule(&cfg)).expect("setup");
    assert!(
        report.violation.is_none(),
        "{}",
        report.violation.map(|v| v.reason).unwrap_or_default()
    );
    assert!(report.converged, "run did not end quiet and converged");
    assert!(report.faults_applied > 0, "schedule injected no fault");
    assert!(
        report.completeness_checked > 0,
        "completeness auditor never checked a delivery"
    );
}

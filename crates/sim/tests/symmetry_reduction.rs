//! Soundness tests for the model checker's canonical state cache
//! (`Reduction::Hash`; the file keeps its historical name).
//!
//! Reduction is only allowed to merge states that genuinely cannot be
//! distinguished by any future schedule: a reduced exploration must find
//! the same violations as an unreduced one, never fewer, and a
//! counterexample minimized under reduction must still be 1-minimal when
//! replayed without it (replay never prunes — reduction is a search
//! optimization, not a semantics change).
//!
//! The headline >2x state reduction at 4 nodes needs release-build
//! depths; it is asserted by the CI gate (`scripts/check.sh` runs the
//! `model_check` binary with and without `--no-reduction` and compares
//! the `states` counters). These tests pin the *soundness* half at
//! debug-friendly bounds.

use raincore_sim::audit::MembershipAuditor;
use raincore_sim::explore::{replay, Action, Reduction};
use raincore_sim::{Explorer, ModelCheckConfig, ModelWorld};
use raincore_types::NodeId;

fn four_node_cfg(reduction: Reduction) -> ModelCheckConfig {
    ModelCheckConfig {
        nodes: 4,
        max_depth: 7,
        max_schedules: 2_000_000,
        reduction,
        ..ModelCheckConfig::default()
    }
}

/// Clean 4-node exploration: reduction must not invent a violation, must
/// actually prune, and must still exhaust the bounded space.
#[test]
fn reduced_clean_exploration_matches_unreduced() {
    let unreduced = Explorer::new(four_node_cfg(Reduction::None))
        .run()
        .expect("setup");
    let reduced = Explorer::new(four_node_cfg(Reduction::Hash))
        .run()
        .expect("setup");

    assert!(
        unreduced.violation.is_none(),
        "clean space violated without reduction: {:?}",
        unreduced.violation.map(|v| v.reason)
    );
    assert!(
        reduced.violation.is_none(),
        "reduction introduced a spurious violation: {:?}",
        reduced.violation.map(|v| v.reason)
    );
    assert!(!unreduced.capped && !reduced.capped, "bounds too tight");
    assert!(
        reduced.stats.states_pruned > 0,
        "state cache never pruned at 4 nodes"
    );
    assert!(
        reduced.stats.states < unreduced.stats.states,
        "reduction explored no fewer states: {} vs {}",
        reduced.stats.states,
        unreduced.stats.states
    );
}

/// Seeded 4-node fault: the reduced search finds the same (canonical)
/// violation the unreduced search finds — same violated property — and
/// its minimized counterexample replays *without* reduction.
#[test]
fn reduced_search_finds_the_seeded_fault() {
    let mut cfg_none = four_node_cfg(Reduction::None);
    cfg_none.forge_token = true;
    cfg_none.max_schedules = 60_000;
    let mut cfg_hash = cfg_none.clone();
    cfg_hash.reduction = Reduction::Hash;

    let unreduced = Explorer::new(cfg_none.clone()).run().expect("setup");
    let reduced = Explorer::new(cfg_hash).run().expect("setup");

    let vu = unreduced
        .violation
        .expect("unreduced search finds the forged token");
    let vr = reduced
        .violation
        .expect("reduced search must not prune away the forged token");
    assert!(vu.reason.contains("token uniqueness"), "{}", vu.reason);
    assert!(
        vr.reason.contains("token uniqueness"),
        "reduced search found a different property violation: {}",
        vr.reason
    );

    // The counterexample is reduction-independent: replay (which never
    // prunes) reproduces it under the unreduced config.
    let rep = replay(&cfg_none, &vr.minimized).expect("replay setup");
    let (_, reason) = rep
        .violation
        .expect("schedule minimized under reduction must replay unreduced");
    assert!(reason.contains("token uniqueness"), "{reason}");
}

/// DESIGN.md §13: buffered-bulk state feeds the canonical digest. Two
/// worlds that ran the same schedule except for the fate of one
/// out-of-band payload frame — delivered (resident in the receiver's
/// bulk store) vs dropped (gone; only a NACK pull can recover it) —
/// must never share a fingerprint, and the digest must stay
/// deterministic for the same fate.
#[test]
fn digest_separates_bulk_payload_residency() {
    let mut cfg = ModelCheckConfig {
        bulk_drop_budget: 1,
        seed_bulk: vec![(NodeId(0), 16)],
        ..ModelCheckConfig::default()
    };
    cfg.session.bulk_threshold = 8;

    // Walk a deterministic prefix until a bulk payload frame is pending.
    let mut prefix: Vec<Action> = Vec::new();
    let mut probe = ModelWorld::new(&cfg).expect("setup");
    let (key, dst) = loop {
        let actions = probe.enabled_actions();
        if let Some(Action::DropBulk { key }) = actions
            .iter()
            .find(|a| matches!(a, Action::DropBulk { .. }))
            .copied()
        {
            let dst = actions
                .iter()
                .find_map(|a| match a {
                    Action::Deliver { key: k, dst } if *k == key => Some(*dst),
                    _ => None,
                })
                .expect("a pending frame is always deliverable");
            break (key, dst);
        }
        let a = actions.first().copied().expect("live world has actions");
        probe.apply(&a);
        prefix.push(a);
        assert!(prefix.len() < 100, "no bulk frame within 100 steps");
    };

    let run = |fate: Action| {
        let mut w = ModelWorld::new(&cfg).expect("setup");
        for a in &prefix {
            assert!(w.apply(a), "prefix must replay deterministically");
        }
        assert!(w.apply(&fate), "fate action must be enabled");
        w
    };
    let delivered = run(Action::Deliver { key, dst });
    let dropped = run(Action::DropBulk { key });
    let delivered_again = run(Action::Deliver { key, dst });

    let m = MembershipAuditor::default();
    assert_ne!(
        delivered.fingerprint(&m),
        dropped.fingerprint(&m),
        "resident and lost bulk payload merged"
    );
    assert_eq!(
        delivered.fingerprint(&m),
        delivered_again.fingerprint(&m),
        "same schedule digested differently"
    );
}

/// 1-minimality survives reduction: dropping any single action from a
/// schedule shrunk under the reduced search breaks the repro.
#[test]
fn minimized_schedule_is_one_minimal_under_reduction() {
    let mut cfg = four_node_cfg(Reduction::Hash);
    cfg.forge_token = true;
    cfg.max_schedules = 60_000;
    let report = Explorer::new(cfg.clone()).run().expect("setup");
    let v = report.violation.expect("seeded fault found");
    assert!(!v.minimized.is_empty());
    for skip in 0..v.minimized.len() {
        let mut shorter = v.minimized.clone();
        shorter.remove(skip);
        let rep = replay(&cfg, &shorter).expect("replay setup");
        assert!(
            rep.violation.is_none(),
            "dropping action {skip} should break the repro, still got: {:?}",
            rep.violation
        );
    }
}

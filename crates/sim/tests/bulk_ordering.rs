//! Model-check proof of the out-of-band dissemination split (DESIGN.md
//! §13): the token orders bulk ids via manifests while payloads travel
//! out-of-band, and an adversary that drops exactly the bulk payload
//! frames ([`Action::DropBulk`]) must never be able to make a node
//! deliver an id whose payload it lacks.
//!
//! Three claims, each pinned here:
//!
//! * **safety** — bounded-exhaustive 3-node exploration with a seeded
//!   bulk workload and a bulk-loss budget finds zero completeness (or
//!   any other) violations: the NACK pull path closes the
//!   id-without-payload window under every interleaving;
//! * **non-vacuity** — the `bulk_blind_delivery` fault dial (deliver on
//!   watermark without waiting for the payload) makes the *same* search
//!   find the completeness violation, minimize it, and reproduce it from
//!   the dump — the auditor is demonstrably watching;
//! * **regression** — the minimized blind-delivery schedule is pinned as
//!   a replayable fixture (`fixtures/bulk_blind_3node.txt`).

use raincore_sim::explore::{parse_schedule, replay, Action, Reduction};
use raincore_sim::{Explorer, ModelCheckConfig};
use raincore_types::NodeId;

/// 3-node scenario with the out-of-band path on: two seeded bulk
/// multicasts (payloads past the 8-byte threshold) and a bulk-loss
/// budget, so `drop-bulk` actions appear alongside ordinary deliveries.
fn bulk_cfg() -> ModelCheckConfig {
    let mut cfg = ModelCheckConfig {
        max_depth: 10,
        crash_budget: 0,
        drop_budget: 0,
        bulk_drop_budget: 1,
        seed_bulk: vec![(NodeId(0), 16), (NodeId(1), 16)],
        max_schedules: 200_000,
        ..ModelCheckConfig::default()
    };
    cfg.session.bulk_threshold = 8;
    cfg
}

/// The freight leg's scenario (DESIGN.md §16.5): one 120-byte payload
/// that a 64-byte MTU cuts into three bulk fragments a member.
fn fragmented_bulk_cfg() -> ModelCheckConfig {
    let mut cfg = ModelCheckConfig {
        bulk_drop_budget: 1,
        seed_bulk: vec![(NodeId(1), 120)],
        ..ModelCheckConfig::default()
    };
    cfg.transport.mtu = 64;
    cfg.session.bulk_threshold = 100;
    cfg
}

/// The bulk-loss adversary is actually armed: some reachable state
/// offers a `drop-bulk` action (the searches over these scenarios would
/// be vacuous if no bulk payload frame ever crossed the model wire, or
/// if a payload of several fragments could not be targeted).
#[test]
fn drop_bulk_actions_are_reachable() {
    'scenario: for cfg in [bulk_cfg(), fragmented_bulk_cfg()] {
        let mut world = raincore_sim::ModelWorld::new(&cfg).expect("setup");
        for _ in 0..50 {
            if world
                .enabled_actions()
                .iter()
                .any(|a| matches!(a, Action::DropBulk { .. }))
            {
                continue 'scenario;
            }
            let actions = world.enabled_actions();
            let Some(a) = actions.first().copied() else {
                break;
            };
            world.apply(&a);
        }
        panic!(
            "no drop-bulk action became enabled within 50 steps: {:?}",
            cfg.seed_bulk
        );
    }
}

/// Bounded-exhaustive 3-node search under bulk loss: zero violations.
/// The protocol may only deliver an ordered bulk id once its payload is
/// resident (buffer, piggyback fallback or NACK pull) — under *every*
/// interleaving of deliveries, bulk drops and timer fires.
#[test]
fn exhaustive_bulk_loss_exploration_is_clean() {
    let report = Explorer::new(bulk_cfg()).run().expect("setup");
    assert!(
        report.violation.is_none(),
        "bulk loss broke an invariant: {:?}",
        report.violation.map(|v| v.reason)
    );
    assert!(!report.capped, "search capped before exhausting the space");
    // The space exhausts at 3 166 schedules (4 555 states). It was 26 557
    // (34 188) while every bulk frame put an acknowledgement on the model
    // wire: fire-and-forget frames are no longer acked, so those acks —
    // which no protocol state ever depended on — left the in-flight set.
    // The floor guards against accidentally tightened bounds.
    assert!(
        report.stats.schedules > 1_000,
        "space suspiciously small: {} schedules",
        report.stats.schedules
    );
}

/// Non-vacuity: with the `bulk_blind_delivery` fault dial on (deliver on
/// watermark without the payload), the identical search must *find* the
/// completeness violation, minimize it to a 1-minimal schedule, and
/// reproduce it from its own dump.
#[test]
fn blind_delivery_fault_is_found_minimized_and_replayable() {
    let mut cfg = bulk_cfg();
    cfg.session.bulk_blind_delivery = true;
    let report = Explorer::new(cfg.clone()).run().expect("setup");
    let violation = report
        .violation
        .expect("blind delivery must trip the completeness auditor");
    assert!(
        violation.reason.contains("completeness"),
        "unexpected violation: {}",
        violation.reason
    );
    assert!(!violation.minimized.is_empty());

    // Dump round-trip and replay.
    let dump = violation.dump(&cfg);
    let parsed = parse_schedule(&dump).expect("dump parses");
    assert_eq!(parsed, violation.minimized);
    let rep = replay(&cfg, &violation.minimized).expect("replay setup");
    let (_, reason) = rep.violation.expect("minimized schedule reproduces");
    assert!(reason.contains("completeness"), "{reason}");

    // 1-minimality: every single-action deletion loses the bug.
    for skip in 0..violation.minimized.len() {
        let mut shorter = violation.minimized.clone();
        shorter.remove(skip);
        let rep = replay(&cfg, &shorter).expect("replay setup");
        assert!(
            rep.violation.is_none(),
            "dropping action {skip} should break the repro, still got: {:?}",
            rep.violation
        );
    }
}

/// Pinned regression: the minimized blind-delivery counterexample the
/// search found, replayed from its committed fixture. If a refactor
/// reintroduces id-without-payload delivery, this is the exact schedule
/// that exposes it — and if the fixture stops reproducing under the
/// blind dial, the completeness oracle itself has gone blind.
#[test]
fn pinned_blind_delivery_fixture_reproduces() {
    let text = include_str!("fixtures/bulk_blind_3node.txt");
    let schedule = parse_schedule(text).expect("fixture parses");
    assert!(!schedule.is_empty(), "fixture is empty");

    let mut cfg = bulk_cfg();
    cfg.session.bulk_blind_delivery = true;
    let rep = replay(&cfg, &schedule).expect("replay setup");
    let (_, reason) = rep
        .violation
        .expect("pinned schedule must reproduce the completeness violation");
    assert!(reason.contains("completeness"), "{reason}");

    // The same schedule against the real (non-blind) protocol is clean:
    // the two-phase deliver holds the id back until the payload arrives.
    let rep = replay(&bulk_cfg(), &schedule).expect("replay setup");
    assert!(
        rep.violation.is_none(),
        "the fixed protocol still fails the pinned schedule: {:?}",
        rep.violation
    );
}

/// Seeded 4-node bulk run under state-cache reduction: the reduced and
/// unreduced searches agree on the violation set — both empty on the
/// real protocol, both the completeness violation under the blind dial —
/// so merging states with buffered-bulk content (bulk store, dedup
/// window, holdback payload residency) never hides a bulk bug.
#[test]
fn four_node_bulk_reduction_preserves_violation_sets() {
    let mk = |reduction: Reduction, blind: bool| {
        let mut cfg = ModelCheckConfig {
            nodes: 4,
            max_depth: 7,
            crash_budget: 0,
            drop_budget: 0,
            bulk_drop_budget: 1,
            seed_bulk: vec![(NodeId(0), 16)],
            max_schedules: 2_000_000,
            reduction,
            ..ModelCheckConfig::default()
        };
        cfg.session.bulk_threshold = 8;
        cfg.session.bulk_blind_delivery = blind;
        cfg
    };

    // Clean space: neither search finds anything, reduction still prunes.
    let unreduced = Explorer::new(mk(Reduction::None, false))
        .run()
        .expect("setup");
    let reduced = Explorer::new(mk(Reduction::Hash, false))
        .run()
        .expect("setup");
    assert!(
        unreduced.violation.is_none(),
        "clean bulk space violated unreduced: {:?}",
        unreduced.violation.map(|v| v.reason)
    );
    assert!(
        reduced.violation.is_none(),
        "reduction invented a bulk violation: {:?}",
        reduced.violation.map(|v| v.reason)
    );
    assert!(!unreduced.capped && !reduced.capped, "bounds too tight");
    assert!(
        reduced.stats.states <= unreduced.stats.states,
        "reduction explored more states: {} vs {}",
        reduced.stats.states,
        unreduced.stats.states
    );

    // Seeded space: both must find the same property violation.
    let vu = Explorer::new(mk(Reduction::None, true))
        .run()
        .expect("setup")
        .violation
        .expect("unreduced search finds blind delivery");
    let vr = Explorer::new(mk(Reduction::Hash, true))
        .run()
        .expect("setup")
        .violation
        .expect("reduced search must not prune away blind delivery");
    assert!(vu.reason.contains("completeness"), "{}", vu.reason);
    assert!(vr.reason.contains("completeness"), "{}", vr.reason);
}

//! Regression tests for the bounded model checker: a clean bounded
//! exploration must report no violations, and the deliberately seeded
//! two-token fault must be found, minimized, dumped and replayable.

use raincore_sim::explore::{parse_schedule, replay};
use raincore_sim::{Explorer, ModelCheckConfig};

fn small_cfg() -> ModelCheckConfig {
    ModelCheckConfig {
        max_depth: 10,
        max_schedules: 1_500,
        ..ModelCheckConfig::default()
    }
}

#[test]
fn clean_exploration_reports_no_violation() {
    let mut explorer = Explorer::new(small_cfg());
    let report = explorer.run().expect("exploration must set up");
    assert!(
        report.violation.is_none(),
        "clean 3-node scenario must audit clean: {:?}",
        report.violation.map(|v| v.reason)
    );
    assert!(
        report.stats.schedules > 100,
        "bounded search must cover many schedules, got {}",
        report.stats.schedules
    );
    // Throughput counters must be live so the CLI summary means something.
    let schedules = explorer
        .registry()
        .counter("raincore_mc_schedules_total", &[])
        .get();
    assert_eq!(schedules, report.stats.schedules);
    assert!(
        explorer
            .registry()
            .counter("raincore_mc_states_total", &[])
            .get()
            >= schedules,
        "every schedule visits at least one state"
    );
}

/// The early-pass leg (DESIGN.md §16). With a 64-byte MTU the pacing
/// line is 120 bytes: node 0's two seeded multicasts leave room (its pass
/// waits out `token_hold`), node 1's queued one pushes the token it
/// accepts over the line, and node 2 accepts a token that is already
/// full — paced, released-by-queue and released-by-size hops in one
/// space, over a token that travels as two or three fragments which the
/// adversary delivers in any order, drops and cuts short by a crash. The
/// search must exhaust clean with and without the state cache, and must
/// have seen early passes.
#[test]
fn early_pass_space_exhausts_clean_with_and_without_the_cache() {
    use raincore_sim::explore::Reduction;
    use raincore_types::NodeId;
    let cfg = |reduction| {
        let mut cfg = ModelCheckConfig {
            max_depth: 9,
            max_schedules: 500_000,
            seed_bulk: vec![(NodeId(0), 30), (NodeId(0), 30), (NodeId(1), 30)],
            reduction,
            ..ModelCheckConfig::default()
        };
        cfg.transport.mtu = 64;
        cfg
    };
    let cached = Explorer::new(cfg(Reduction::Hash)).run().expect("setup");
    let plain = Explorer::new(cfg(Reduction::None)).run().expect("setup");
    for (name, report) in [("Hash", &cached), ("None", &plain)] {
        assert!(
            report.violation.is_none(),
            "{name}: {:?}",
            report.violation.as_ref().map(|v| &v.reason)
        );
        assert!(!report.capped, "{name}: bounds too tight to exhaust");
        assert_eq!(report.stats.early_passes, 2, "{name}: nodes 1 and 2");
    }
    assert!(cached.stats.states < plain.stats.states);
}

/// The freight leg (DESIGN.md §16.5). Node 1's one seeded multicast is
/// 120 bytes against a 100-byte `bulk_threshold`: it travels out of band
/// as three-fragment bulk payloads, and the token that orders it weighs
/// some thirty bytes against the 120-byte line — full by the freight it
/// orders, a full token's worth in one payload, and by nothing else.
/// Node 1 is released by what it has queued, node 2 by the manifest
/// entry on the token it accepts. The adversary
/// reorders and drops the fragments, may lose one bulk payload outright
/// (`drop-bulk`, armed for a fragmented payload too: `bulk_ordering.rs`)
/// and crash a member; every auditor, delivery completeness among them,
/// must hold with and without the state cache.
#[test]
fn freight_space_exhausts_clean_with_and_without_the_cache() {
    use raincore_sim::explore::Reduction;
    use raincore_types::NodeId;
    let cfg = |len, reduction| {
        let mut cfg = ModelCheckConfig {
            max_depth: 8,
            max_schedules: 500_000,
            bulk_drop_budget: 1,
            seed_bulk: vec![(NodeId(1), len)],
            reduction,
            ..ModelCheckConfig::default()
        };
        cfg.transport.mtu = 64;
        cfg.session.bulk_threshold = 100;
        cfg
    };
    let run = |len, reduction| Explorer::new(cfg(len, reduction)).run().expect("setup");
    let cached = run(120, Reduction::Hash);
    let plain = run(120, Reduction::None);
    for (name, report) in [("Hash", &cached), ("None", &plain)] {
        assert!(
            report.violation.is_none(),
            "{name}: {:?}",
            report.violation.as_ref().map(|v| &v.reason)
        );
        assert!(!report.capped, "{name}: bounds too tight to exhaust");
        assert_eq!(report.stats.early_passes, 2, "{name}: nodes 1 and 2");
    }
    assert!(cached.stats.states < plain.stats.states);
    // A byte less is not a full token's worth: it weighs its manifest
    // entry, and every schedule waits out the hold.
    let under = run(119, Reduction::Hash);
    assert!(under.violation.is_none() && !under.capped);
    assert_eq!(under.stats.early_passes, 0);
}

/// The lost-token leg (DESIGN.md §17.5). The adversary moves on a ring
/// that has turned four times, so every member's probe limit (24 ms of
/// rotation + two 30 ms give-ups, under the 100 ms `hungry_timeout`) is
/// armed: a crash of the EATING member is then found by its predecessor's
/// probe, not by the backstop. Exhausts clean either way, and from a cold
/// ring — the space every other leg explores — nobody ever asks.
#[test]
fn lost_token_space_exhausts_clean_and_asks_before_it_starves() {
    use raincore_sim::explore::Reduction;
    let cfg = |warm_rotations, reduction| ModelCheckConfig {
        max_depth: 10,
        max_schedules: 500_000,
        warm_rotations,
        reduction,
        ..ModelCheckConfig::default()
    };
    let run = |warm, reduction| Explorer::new(cfg(warm, reduction)).run().expect("setup");
    let cached = run(4, Reduction::Hash);
    let plain = run(4, Reduction::None);
    for (name, report) in [("Hash", &cached), ("None", &plain)] {
        assert!(
            report.violation.is_none(),
            "{name}: {:?}",
            report.violation.as_ref().map(|v| &v.reason)
        );
        assert!(!report.capped, "{name}: bounds too tight to exhaust");
        assert_eq!(report.stats.probes, 2, "{name}: one answered, one not");
    }
    assert!(cached.stats.states < plain.stats.states);
    assert_eq!(run(0, Reduction::Hash).stats.probes, 0);
}

/// One schedule of that space, by hand: the holder dies with the token,
/// everything else is delivered in order. Its predecessor's probe fails,
/// it alone calls 911 and regenerates, and the ring of two turns again.
#[test]
fn failed_probe_regenerates_once_in_the_model_world() {
    use raincore_sim::explore::{Action, ModelWorld};
    use raincore_sim::AuditView;
    use raincore_types::NodeId;
    let cfg = ModelCheckConfig {
        warm_rotations: 4,
        ..ModelCheckConfig::default()
    };
    let mut world = ModelWorld::new(&cfg).expect("setup");
    let holder = NodeId(2);
    assert!(world.is_eating(holder), "{}", world.dump_state());
    assert!(world.apply(&Action::Crash(holder)));
    let regens = |w: &ModelWorld| [0, 1].map(|i| w.regenerations(NodeId(i)));
    for _ in 0..40 {
        let enabled = world.enabled_actions();
        let deliver = enabled.iter().find(|a| matches!(a, Action::Deliver { .. }));
        assert!(world.apply(deliver.unwrap_or(&Action::Tick)));
        if regens(&world) != [0, 0] {
            break;
        }
    }
    assert_eq!(regens(&world), [0, 1], "{}", world.dump_state());
    assert_eq!(world.probes(), 2, "node 0 asked node 1, node 1 the dead");
    assert_eq!(world.ring_of(NodeId(1)).map(|r| r.len()), Some(2));
}

#[test]
fn seeded_two_token_fault_is_found_minimized_and_replayable() {
    let mut cfg = small_cfg();
    cfg.forge_token = true;
    cfg.max_schedules = 5_000;
    let report = Explorer::new(cfg.clone()).run().expect("setup");
    let violation = report
        .violation
        .expect("the forged token must violate token uniqueness");
    assert!(
        violation.reason.contains("token uniqueness"),
        "unexpected reason: {}",
        violation.reason
    );
    assert!(!violation.minimized.is_empty());
    assert!(violation.minimized.len() <= violation.schedule.len());

    // The dump must parse back to exactly the minimized schedule.
    let dump = violation.dump(&cfg);
    let parsed = parse_schedule(&dump).expect("dump must parse");
    assert_eq!(parsed, violation.minimized);

    // Replaying the minimized schedule must reproduce the violation.
    let rep = replay(&cfg, &violation.minimized).expect("replay setup");
    let (_, reason) = rep
        .violation
        .expect("minimized schedule must still reproduce the violation");
    assert!(reason.contains("token uniqueness"), "{reason}");

    // Greedy minimization fixpoint: removing any single action yields a
    // schedule that no longer fails (1-minimality).
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

#[test]
fn replay_skips_disabled_actions() {
    // A schedule full of actions that are never enabled (unknown message
    // keys, crashes beyond budget) must replay cleanly with nothing
    // applied.
    let cfg = small_cfg();
    let schedule = parse_schedule("deliver n7#999->n0\ndrop n7#998\n").expect("parse");
    let rep = replay(&cfg, &schedule).expect("setup");
    assert_eq!(rep.applied, 0);
    assert!(rep.violation.is_none());
}

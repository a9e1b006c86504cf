//! Replays the minimized model-checker violation fixtures under
//! `tests/fixtures/`. Each fixture is a real dump harvested from
//! `model_check --seeded-check`: a 1-minimal action schedule that drives
//! a forged far-future token into the cluster and violates §2.2/§2.5
//! token uniqueness.
//!
//! Two directions are asserted: with the forged-token fault re-armed the
//! replay must flag token uniqueness (the auditors still see the bug),
//! and the *same schedule without the forgery* must replay clean (the
//! violation is caused by the fault, not by the schedule or auditors).

use raincore_sim::explore::{replay, Action, DUMP};
use raincore_sim::ModelCheckConfig;

/// Reads a fixture: the checker config from its `# scenario:` header,
/// the reason it records, and its schedule.
fn read(text: &str) -> (ModelCheckConfig, Option<String>, Vec<Action>) {
    let fixture = DUMP.read(text, ModelCheckConfig::default());
    fixture.expect("the fixture parses")
}

fn check_fixture(text: &str) {
    let (cfg, _, schedule) = read(text);
    assert!(
        cfg.forge_token,
        "fixture was not produced by a seeded check"
    );
    assert!(!schedule.is_empty(), "fixture has an empty schedule");

    // Forged: the dumped violation must reproduce.
    let forged = replay(&cfg, &schedule).expect("replay setup");
    let (_, reason) = forged
        .violation
        .expect("forged-token fixture must reproduce a violation");
    assert!(
        reason.contains("token uniqueness"),
        "expected a token-uniqueness violation, got: {reason}"
    );

    // Unforged: the same schedule without the fault is harmless.
    let mut clean_cfg = cfg.clone();
    clean_cfg.forge_token = false;
    let clean = replay(&clean_cfg, &schedule).expect("replay setup");
    assert!(
        clean.violation.is_none(),
        "schedule violates even without the forged token: {:?}",
        clean.violation
    );
}

#[test]
fn forged_token_3node_fixture_reproduces() {
    check_fixture(include_str!("fixtures/forged_token_3node.txt"));
}

/// The audit verdict must be *identical* to the one recorded when the
/// fixture was harvested — same violated property, same group, same
/// simulated instant, down to the byte. This pins the whole replay
/// pipeline (wire codec, token forwarding, auditors) against silent
/// behavioral drift: a hot-path optimization that changed what goes on
/// the wire or when would shift the violation time or wording here.
#[test]
fn replay_audit_verdict_matches_recorded_reason() {
    let (cfg, recorded, schedule) = read(include_str!("fixtures/forged_token_3node.txt"));
    let recorded = recorded.expect("fixture has a reason header");
    let replayed = replay(&cfg, &schedule).expect("replay setup");
    let (_, reason) = replayed.violation.expect("violation reproduces");
    assert_eq!(
        reason, recorded,
        "replay verdict drifted from the recorded audit result"
    );
}

#[test]
fn forged_token_4node_fixture_reproduces() {
    check_fixture(include_str!("fixtures/forged_token_4node.txt"));
}

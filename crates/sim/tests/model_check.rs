//! Regression tests for the bounded model checker: a clean bounded
//! exploration must report no violations, and the deliberately seeded
//! two-token fault must be found, minimized, dumped and replayable —
//! also through the `model_check` binary, from the dump alone.

use raincore_sim::dump;
use raincore_sim::explore::{replay, Reduction, DUMP};
use raincore_sim::text::TextFields;
use raincore_sim::{Explorer, ModelCheckConfig};
use raincore_types::{Duration, NodeId};
use std::process::{Command, Stdio};

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
        report.violation.map(|v| v.verdict.reason)
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
            report.violation.as_ref().map(|v| &v.verdict.reason)
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
            report.violation.as_ref().map(|v| &v.verdict.reason)
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
            report.violation.as_ref().map(|v| &v.verdict.reason)
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
    let reason = &violation.verdict.reason;
    assert!(
        reason.contains("token uniqueness"),
        "unexpected reason: {reason}"
    );
    assert!(!violation.minimized.is_empty());
    assert!(violation.minimized.len() <= violation.schedule.len());

    // The dump must parse back to exactly the minimized schedule.
    let dump = DUMP.render(&cfg, &violation.verdict, &violation.minimized);
    let (_, stated, parsed) = DUMP.read(&dump, cfg.clone()).expect("dump must parse");
    assert_eq!(parsed, violation.minimized);

    // Replaying the minimized schedule must reproduce the violation the
    // dump states.
    let rep = replay(&cfg, &violation.minimized).expect("replay setup");
    let (_, reason) = rep
        .violation
        .expect("minimized schedule must still reproduce the violation");
    assert!(reason.contains("token uniqueness"), "{reason}");
    assert_eq!(stated, Some(reason));

    // Greedy minimization fixpoint: removing any single action yields a
    // schedule that no longer fails (1-minimality).
    let run = |s: &[_]| Ok((replay(&cfg, s)?.verdict(), ()));
    let again = dump::shrink(&violation.minimized, true, run).expect("replay setup");
    assert_eq!(again.minimized, violation.minimized, "not 1-minimal");
}

#[test]
fn replay_skips_disabled_actions() {
    // A schedule full of actions that are never enabled (unknown message
    // keys, crashes beyond budget) must replay cleanly with nothing
    // applied.
    let cfg = small_cfg();
    let text = "deliver n7#999->n0\ndrop n7#998\n";
    let (_, _, schedule) = DUMP.read(text, cfg.clone()).expect("parse");
    let rep = replay(&cfg, &schedule).expect("setup");
    assert_eq!(rep.applied, 0);
    assert!(rep.violation.is_none());
}

#[test]
fn scenario_header_reads_back_every_field() {
    let mut cfg = ModelCheckConfig {
        nodes: 4,
        max_depth: 17,
        crash_budget: 2,
        drop_budget: 3,
        bulk_drop_budget: 1,
        seed_bulk: vec![(NodeId(0), 30), (NodeId(2), 120)],
        max_delay: Duration::from_micros(2_500),
        max_schedules: 77,
        forge_token: true,
        reduction: Reduction::None,
        warm_rotations: 4,
        ..ModelCheckConfig::default()
    };
    cfg.transport.mtu = 64;
    cfg.transport.retry_timeout = Duration::from_millis(50);
    cfg.session.bulk_threshold = 100;
    cfg.session.hungry_timeout = Duration::from_nanos(400_000_001);
    cfg.session.bulk_blind_delivery = true;
    // Every row is off its default, so every row is read back.
    let default = ModelCheckConfig::default().scenario();
    for (set, stock) in cfg.scenario().split(' ').zip(default.split(' ')) {
        assert_ne!(set, stock, "a row the round trip does not exercise");
    }
    assert_eq!(
        cfg.scenario().split(' ').count(),
        ModelCheckConfig::FIELDS.len()
    );
    let header = format!("# scenario: {}\n", cfg.scenario());
    let mut read = ModelCheckConfig::default();
    read.read_scenario(&header).expect("header parses");
    assert_eq!(format!("{read:?}"), format!("{cfg:?}"));

    // The header an older build wrote: the fields it names, a `Debug`
    // duration among them; the rest keep their value.
    let mut old = ModelCheckConfig::default();
    old.read_scenario("# scenario: nodes=4 crash_budget=0 max_delay=5.000ms forge_token=true")
        .expect("old header parses");
    assert_eq!((old.nodes, old.crash_budget, old.forge_token), (4, 0, true));
    assert_eq!(old.max_delay, Duration::from_millis(5));
    assert_eq!(old.transport.mtu, ModelCheckConfig::default().transport.mtu);
    assert!(old.read_scenario("# scenario: colour=blue").is_err());
    // Each row reads only what it writes.
    for field in ModelCheckConfig::FIELDS {
        let word = format!("# scenario: {}=?", field.key);
        assert!(old.read_scenario(&word).is_err(), "{word}");
    }
}

/// A world the search would pass without checking anything is refused
/// before it is explored: no member, or a seeded multicast from a node
/// outside the world (it would seed nothing). The CLI exits 2 on either,
/// also when the world comes from a dump's header.
#[test]
fn a_vacuous_world_is_refused() {
    use raincore_sim::ModelWorld;
    use raincore_types::Error;
    let empty = ModelCheckConfig {
        nodes: 0,
        ..ModelCheckConfig::default()
    };
    let outsider = ModelCheckConfig {
        seed_bulk: vec![(NodeId(0), 30), (NodeId(7), 30)],
        ..ModelCheckConfig::default()
    };
    for cfg in [&empty, &outsider] {
        assert!(matches!(cfg.validate(), Err(Error::Config(_))), "{cfg:?}");
        assert!(matches!(ModelWorld::new(cfg), Err(Error::Config(_))));
        assert!(Explorer::new(cfg.clone()).run().is_err());
    }
    assert!(ModelCheckConfig::default().validate().is_ok());
    assert_eq!(model_check(&["--nodes", "0"]).0, Some(2));
    assert_eq!(model_check(&["--multicast", "7:30"]).0, Some(2));
    let dump = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("outsider-dump.txt");
    std::fs::write(&dump, "# scenario: nodes=3 multicasts=3:30\ntick\n").expect("write");
    let (code, out) = model_check(&["--replay", dump.to_str().expect("utf-8 path")]);
    assert_eq!(code, Some(2), "{out}");
}

/// Runs the `model_check` binary; returns its exit code, and its stdout
/// followed by its stderr.
fn model_check(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_model_check"))
        .args(args)
        .output()
        .expect("model_check runs");
    let (stdout, stderr) = (&out.stdout, &out.stderr);
    let text = String::from_utf8_lossy(stdout) + String::from_utf8_lossy(stderr);
    (out.status.code(), text.into())
}

#[test]
fn a_dump_replays_from_its_own_header_alone() {
    // Found in a world unlike the default one: a 64-byte MTU, so the
    // token fragments, and three seeded multicasts riding it.
    let dump = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("fragmented-dump.txt");
    let dump = dump.to_str().expect("utf-8 path");
    let (code, _) = model_check(&[
        "--seeded-check",
        "--mtu",
        "64",
        "--multicast",
        "0:30",
        "--multicast",
        "0:30",
        "--multicast",
        "1:30",
        "--dump",
        dump,
    ]);
    assert_eq!(code, Some(0), "the seeded fault is found");
    let text = std::fs::read_to_string(dump).expect("dump written");
    assert!(
        text.contains("mtu=64") && text.contains("multicasts=0:30,0:30,1:30"),
        "{text}"
    );
    // The printed replay command, nothing else: the world comes from the
    // header, so every action applies and the violation reproduces.
    let (code, out) = model_check(&["--replay", dump]);
    assert_eq!(code, Some(0), "{out}");
    let steps = DUMP.read(&text, ModelCheckConfig::default());
    let steps = steps.expect("dump parses").2.len();
    assert!(
        out.contains(&format!(
            "violation reproduced after {steps} of {steps} actions"
        )),
        "{out}"
    );
}

/// A reader that goes before the verdict is printed (`| head -1`,
/// `| true`) does not turn it into a panic: the replay still exits with
/// its own code.
#[test]
fn a_closed_stdout_keeps_the_verdict() {
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/forged_token_3node.txt"
    );
    let mut child = Command::new(env!("CARGO_BIN_EXE_model_check"))
        .args(["--replay", fixture])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("model_check runs");
    drop(child.stdout.take());
    let status = child.wait().expect("model_check exits");
    assert_eq!(status.code(), Some(0));
}

/// A dump passes `--replay` only if its schedule reproduces the violation
/// its `# reason:` line states: another violation fails it (exit 1, both
/// reasons printed), and a dump that states none replays as any dump did.
#[test]
fn a_replay_that_reproduces_another_violation_fails() {
    let fixture = include_str!("fixtures/forged_token_3node.txt");
    let recorded = "token uniqueness violated in group g0 at 0.032000s";
    let other = "agreed order diverged between n0 and n2";
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let cases = [
        ("stated-reason-dump.txt", fixture.to_string(), Some(0)),
        (
            "other-reason-dump.txt",
            fixture.replace(recorded, other),
            Some(1),
        ),
        (
            "no-reason-dump.txt",
            fixture.replace(&format!("# reason: {recorded}\n"), ""),
            Some(0),
        ),
    ];
    for (name, text, code) in cases {
        assert_eq!(
            text == fixture,
            name.starts_with("stated"),
            "{name}: the edit took"
        );
        let path = dir.join(name);
        std::fs::write(&path, text).expect("write");
        let (got, out) = model_check(&["--replay", path.to_str().expect("utf-8 path")]);
        assert_eq!(got, code, "{name}: {out}");
        assert!(out.contains(&format!("reproduced after 7 of 7 actions: {recorded}")));
        assert_eq!(
            out.contains(other),
            name.starts_with("other"),
            "{name}: {out}"
        );
    }
}

/// The seeded check fails when its dump cannot be written: the dump is
/// the evidence it exists to leave.
#[test]
fn a_dump_that_cannot_be_written_fails() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("no-such-dir");
    let dump = dir.join("seeded.txt");
    let (code, out) = model_check(&["--seeded-check", "--dump", dump.to_str().expect("utf-8")]);
    assert_eq!(code, Some(2), "{out}");
    assert!(out.contains("cannot write"), "{out}");
}

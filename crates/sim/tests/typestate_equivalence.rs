//! Behavioral-equivalence suite for the typestate refactor.
//!
//! The HUNGRY/EATING/STARVING core was rebuilt from a data-carrying
//! `enum State` into consuming typestate transitions ([`Role`] over
//! `Hungry`/`Eating`/`Starving`/`Down`). The refactor must be *inert at
//! runtime*: every schedule the old core was pinned against has to
//! drive the new core to byte-identical audit verdicts.
//!
//! Three families of evidence:
//!
//! * the two minimized model-checker fixtures replay to the exact
//!   recorded violation string (time, group and wording included);
//! * the three `chaos_regression_*` schedules (each a real shrunk
//!   counterexample from a past soak) still replay clean and converge;
//! * the newest committed `BENCH_<pr>.json` allocation counts hold —
//!   the typestate wrappers must not add a single steady-state
//!   allocation to the token hop.

mod common;

use raincore_sim::chaos::{run_chaos, ChaosConfig, ChaosEvent, ChaosScenario};
use raincore_sim::explore::{replay, DUMP};
use raincore_sim::ModelCheckConfig;

/// Replays a fixture in the world its `# scenario:` header states (every
/// key is read, and an unknown one is an error) and asserts the audit
/// verdict is byte-identical to the one recorded when the fixture was
/// harvested (pre-refactor).
fn assert_verdict_exact(text: &str) {
    let read = DUMP.read(text, ModelCheckConfig::default());
    let (cfg, recorded, schedule) = read.expect("the fixture parses");
    let recorded = recorded.expect("fixture has a reason header");
    let replayed = replay(&cfg, &schedule).expect("replay setup");
    let (_, reason) = replayed
        .violation
        .expect("fixture violation must reproduce through the typestate core");
    assert_eq!(
        reason, recorded,
        "typestate core drifted from the recorded audit verdict"
    );
}

#[test]
fn forged_token_3node_verdict_is_byte_exact() {
    assert_verdict_exact(include_str!("fixtures/forged_token_3node.txt"));
}

#[test]
fn forged_token_4node_verdict_is_byte_exact() {
    assert_verdict_exact(include_str!("fixtures/forged_token_4node.txt"));
}

/// Replays one of the harvested chaos regression schedules and asserts
/// the run is clean and reconverges — the same verdict the schedule was
/// pinned with before the refactor.
fn assert_chaos_clean(cfg: ChaosConfig, schedule: &[&str]) {
    let schedule: Vec<ChaosEvent> = schedule.iter().map(|s| s.parse().unwrap()).collect();
    let report = run_chaos(&cfg, &schedule).expect("setup");
    assert!(
        report.violation.is_none(),
        "typestate core changed a pinned chaos verdict: {}",
        report.violation.unwrap().reason
    );
    assert!(report.converged, "cluster did not reconverge");
    assert_eq!(report.restarts_skipped, 0, "a restart tested nothing");
}

#[test]
fn chaos_crash_restart_911_schedule_still_clean() {
    assert_chaos_clean(
        ChaosConfig {
            nodes: 11,
            seed: 1,
            scenario: ChaosScenario::Isolated,
            ..ChaosConfig::default()
        },
        &[
            "@55 crash n3",
            "@233 crash n10",
            "@287 crash n9",
            "@329 crash n6",
            "@330 restart n6",
        ],
    );
}

#[test]
fn chaos_nic_failover_911_schedule_still_clean() {
    assert_chaos_clean(
        ChaosConfig {
            nodes: 5,
            seed: 67,
            scenario: ChaosScenario::Isolated,
            ticks: 2000,
            ..ChaosConfig::default()
        },
        &["@188 nic-down n4.0", "@544 crash n4", "@545 restart n4"],
    );
}

#[test]
fn chaos_total_copy_loss_schedule_still_clean() {
    assert_chaos_clean(
        ChaosConfig {
            nodes: 8,
            seed: 25,
            scenario: ChaosScenario::Isolated,
            ticks: 2000,
            ..ChaosConfig::default()
        },
        &[
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
        ],
    );
}

/// The committed benchmark baseline must keep recording the hot-path
/// allocation floor: 4 allocations per steady-state token hop, and the
/// model-check state cost inside its 250-alloc budget. `micro_bench`
/// re-measures and gates these in release CI; this test pins the
/// *committed* numbers so a stale or hand-edited baseline fails fast.
/// The baseline is the one `scripts/check.sh` compares against: the
/// highest-numbered `BENCH_<pr>.json` at the repository root.
#[test]
fn committed_bench_baseline_holds_alloc_floors() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let (pr, path) = std::fs::read_dir(&root)
        .expect("repository root")
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            let name = path.file_name()?.to_str()?;
            let pr: u32 = name
                .strip_prefix("BENCH_")?
                .strip_suffix(".json")?
                .parse()
                .ok()?;
            Some((pr, path))
        })
        .max()
        .expect("a committed BENCH_<pr>.json");
    let json = std::fs::read_to_string(path).expect("baseline is readable");
    let alloc_of = |bench: &str| -> f64 {
        let obj_start = json
            .find(&format!("\"name\": \"{bench}\""))
            .unwrap_or_else(|| panic!("BENCH_{pr}.json has {bench}"));
        let obj = &json[obj_start..];
        let at = obj.find("\"allocs_per_op\":").expect("allocs_per_op field");
        obj[at..]
            .split_once(':')
            .expect("value")
            .1
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.')
            .collect::<String>()
            .parse()
            .expect("numeric allocs_per_op")
    };
    let hop = alloc_of("bench_token_hop");
    assert!(
        hop <= 4.01,
        "committed bench_token_hop allocs/hop drifted above the floor: {hop}"
    );
    let mc = alloc_of("bench_model_check_states");
    assert!(
        mc <= 250.0,
        "committed bench_model_check_states allocs/state exceeds the 250 budget: {mc}"
    );
}

/// FNV-1a, 64-bit.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// What the parent of the session-core split (PR 13's one-`impl`
/// `SessionNode`) produced for the run in
/// [`session_core_split_is_inert`]: per node, the FNV-1a of its
/// `SessionEvent` stream; then the FNV-1a of every datagram the network
/// delivered, in delivery order. Any behavioural drift — an extra
/// retransmission, a reordered event, one changed token byte — moves a
/// hash, whether or not an oracle would have objected.
///
/// The same constants held through the measured retransmission timeout
/// (DESIGN.md §17), and that is their second job: the run's
/// `retry_timeout` of 10 ms is under the floor of the adaptive timeout,
/// so this is the pin that such a configuration puts the same bytes on
/// the wire as it did before the timer could adapt.
///
/// Re-harvested once on purpose, when an idle beacon timer stopped
/// moving (DESIGN.md §2.4): a member whose whole eligible set is in the
/// ring no longer re-arms its BODYODOR timer on every tick, so after the
/// crash and the partition its beacons keep their own phase — 15 277 →
/// 15 149 datagrams. Ticking only the members that are due moved nothing.
/// Re-harvested a second time when the probe limit became `2·rotation +
/// 1·give-up` (DESIGN.md §17.3): a probe is now armed wherever that is
/// under `hungry_timeout`, and here it is (`2·11 + 40` = 62 ms against
/// 100; the old `4·11 + 2·40` = 124 ms armed nothing). Seven probes are
/// sent, two of them to crashed members, which then starve their
/// senders before the backstop would — 15 149 → 15 164 datagrams.
const PARENT_EVENT_HASHES: [u64; 5] = [
    0xe4cd_15e4_094e_ed71,
    0xa992_2a00_7c50_1ddd,
    0xc53d_04c6_4285_d1f9,
    0x348e_1eba_ed7b_efb4,
    0x5b56_aa25_ae98_2321,
];
const PARENT_WIRE_HASH: u64 = 0x440b_80a9_c69e_a184;
const PARENT_WIRE_DATAGRAMS: u64 = 15_164;

#[test]
fn session_core_split_is_inert() {
    use raincore_types::NodeId;
    use std::cell::RefCell;
    use std::rc::Rc;

    let mut c = common::five_nodes();
    let wire = Rc::new(RefCell::new((FNV_OFFSET, 0u64)));
    let tap = Rc::clone(&wire);
    c.set_wire_tap(move |d| {
        let (hash, count) = &mut *tap.borrow_mut();
        fnv1a(hash, &d.src.node.0.to_le_bytes());
        fnv1a(hash, &[d.src.nic]);
        fnv1a(hash, &d.dst.node.0.to_le_bytes());
        fnv1a(hash, &[d.dst.nic]);
        fnv1a(hash, &(d.payload.len() as u64).to_le_bytes());
        fnv1a(hash, &d.payload);
        *count += 1;
    });
    common::drive_five_nodes(&mut c);

    let event_hashes: Vec<u64> = (0..5)
        .map(|i| {
            let mut hash = FNV_OFFSET;
            for ev in c.take_events(NodeId(i)) {
                fnv1a(&mut hash, format!("{ev:?}\n").as_bytes());
            }
            hash
        })
        .collect();
    let (wire_hash, datagrams) = *wire.borrow();
    assert_eq!(
        (event_hashes.as_slice(), wire_hash, datagrams),
        (
            PARENT_EVENT_HASHES.as_slice(),
            PARENT_WIRE_HASH,
            PARENT_WIRE_DATAGRAMS
        ),
        "the session core no longer behaves like its parent: \
         {event_hashes:#x?} wire {wire_hash:#x} over {datagrams} datagrams"
    );
}

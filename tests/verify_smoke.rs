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
//!   exhausts clean and demonstrably contains early passes;
//! * the application oracle: three members hosting the lock, data and
//!   VIP managers keep equal tables through a crash and a `Joining`
//!   restart under load (DESIGN.md §18.3).
//!
//! Bounds are sized for a debug build; the full-depth gates live in
//! `scripts/check.sh`.

use raincore::data::DataStore;
use raincore::dlm::LockManager;
use raincore::session::StartMode;
use raincore::sim::chaos::{generate_schedule, run_chaos, ChaosConfig};
use raincore::sim::explore::{replay, Reduction};
use raincore::sim::{AuditView, Cluster, ClusterConfig, Explorer, ModelCheckConfig};
use raincore::types::{Duration, NodeId, VipId};
use raincore::vip::VipManager;

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
            report.violation.as_ref().map(|v| &v.verdict.reason)
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
    let reason = &v.verdict.reason;
    assert!(reason.contains("token uniqueness"), "{reason}");

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
            report.violation.as_ref().map(|v| &v.verdict.reason)
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

/// What every member hosts: all three replicated tables.
type Apps = (LockManager, (DataStore, VipManager));

/// One round of load at `id`: count a hit, and take a turn at the lock —
/// release it if held, else ask for it unless already in line.
fn load(c: &mut Cluster, id: NodeId) {
    c.with_app(id, |(locks, (store, _)): &mut Apps, session| {
        store.add(session, "hits", 1).expect("add");
        if locks.held_by_me("l") {
            locks.unlock(session, "l").expect("unlock");
        } else if !locks.waiters("l").contains(&id) {
            locks.lock(session, "l").expect("lock");
        }
    })
    .expect("hosted applications");
}

#[test]
fn replicated_tables_stay_equal_through_a_crash_and_a_joining_restart() {
    let pool = || (0..6).map(VipId).collect();
    let mut cfg = ClusterConfig::default();
    cfg.session.token_hold = Duration::from_millis(2);
    cfg.session.hungry_timeout = Duration::from_millis(100);
    cfg.session.starving_retry = Duration::from_millis(40);
    cfg.transport.retry_timeout = Duration::from_millis(10);
    let mut c = Cluster::founding(3, cfg).expect("cluster");
    for id in c.member_ids() {
        let apps: Apps = (
            LockManager::new(id),
            (DataStore::new(id), VipManager::new(id, pool())),
        );
        c.set_app(id, Box::new(apps)).expect("app");
    }
    c.run_for(Duration::from_millis(300));
    // The victim submits nothing before it dies: a restarted origin
    // numbers its multicasts from 0 again, and its peers would take as
    // many of the new ones for the old (DESIGN.md §18.3, "Known gaps").
    let victim = NodeId(2);
    for round in 0..70 {
        match round {
            15 => c.crash(victim),
            40 => {
                c.restart(victim, StartMode::Joining).expect("restart");
                let apps: Apps = (
                    LockManager::joining(victim),
                    (
                        DataStore::joining(victim),
                        VipManager::joining(victim, pool()),
                    ),
                );
                c.set_app(victim, Box::new(apps)).expect("app");
            }
            _ => {}
        }
        let loading = if round < 40 { 2 } else { 3 };
        for id in (0..loading).map(NodeId) {
            load(&mut c, id);
        }
        c.run_for(Duration::from_millis(10));
    }
    c.run_for(Duration::from_secs(1));
    assert!(c.membership_agreed(), "{}", c.dump_state());

    let tables = |id: u32| {
        let (locks, (store, vips)): &Apps = c.app(NodeId(id)).expect("hosted applications");
        let kv: Vec<_> = store.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        (
            (locks.owner("l"), locks.waiters("l")),
            kv,
            vips.assignment().clone(),
        )
    };
    let group = tables(0);
    assert_eq!(group.1.len(), 1, "{:?}", group.1);
    assert_eq!(group.1[0].1.version, 2 * 40 + 3 * 30, "an add was lost");
    assert_eq!(group.2.len(), 6, "a VIP is unassigned: {:?}", group.2);
    assert!(
        group.2.values().any(|&owner| owner == victim),
        "the restarted member was rebalanced nothing: {:?}",
        group.2
    );
    for id in 1..3 {
        assert_eq!(tables(id), group, "n{id}'s tables are not the group's");
    }
}

//! The simulator ticks a member only when its session's or its
//! application's `next_wakeup` has come, which is sound only if a tick
//! before that instant is a no-op. Each run here checks exactly that
//! after every quantum: every live member that is not due is ticked
//! anyway ([`Cluster::tick_undue`]), and the run fails if that moved its
//! session's state digest, sent or queued anything, or moved its
//! application's wakeup.

mod common;

use raincore_rainwall::scenario::{Scenario, ScenarioCfg};
use raincore_session::StartMode;
use raincore_sim::chaos::{generate_schedule, run_chaos_with, ChaosConfig, ChaosScenario};
use raincore_sim::{AuditView, Cluster, ClusterBuilder, ClusterConfig};
use raincore_types::{Duration, NodeId, Ring, Time, VipId};
use raincore_vip::{SubnetArp, VipManager};

/// After every quantum of `c`'s runs, ticks its idle members and fails
/// the test, naming `run`, if any tick did something.
fn tick_undue_after_every_quantum(c: &mut Cluster, run: String) {
    c.set_quantum_tap(move |c| {
        if let Some(changed) = c.tick_undue() {
            panic!("{run}: {changed}");
        }
    });
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release only: scripts/check.sh chaos runs it"
)]
fn the_five_node_run() {
    let mut c = common::five_nodes();
    tick_undue_after_every_quantum(&mut c, "five nodes".into());
    common::drive_five_nodes(&mut c);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release only: scripts/check.sh chaos runs it"
)]
fn hosted_vip_managers() {
    // `hosting_is_inert`'s run: three members each hosting a replica of a
    // six-VIP pool, a crash, the victim's rejoin as a joiner, the
    // leader's crash.
    let mut cfg = ClusterConfig::default();
    cfg.session.token_hold = Duration::from_millis(2);
    cfg.session.hungry_timeout = Duration::from_millis(100);
    cfg.session.starving_retry = Duration::from_millis(40);
    cfg.session.beacon_period = Duration::from_millis(50);
    cfg.transport.retry_timeout = Duration::from_millis(10);
    let pool = || (0..6).map(VipId).collect::<Vec<_>>();
    let arp = SubnetArp::shared();
    let ring = Ring::from_iter((0..3).map(NodeId));
    let mut b = ClusterBuilder::new(cfg);
    for id in (0..3).map(NodeId) {
        let replica = VipManager::new(id, pool()).announcing(arp.clone());
        b = b
            .member(id, StartMode::Founding(ring.clone()))
            .app(id, Box::new(replica));
    }
    let mut c = b.build().expect("cluster");
    tick_undue_after_every_quantum(&mut c, "hosted VIP".into());
    c.run_for(Duration::from_secs(2));
    c.crash(NodeId(2));
    c.run_for(Duration::from_secs(2));
    c.restart(NodeId(2), StartMode::Joining).expect("restart");
    let joiner = VipManager::joining(NodeId(2), pool()).announcing(arp.clone());
    c.set_app(NodeId(2), Box::new(joiner)).expect("app");
    c.run_for(Duration::from_secs(3));
    c.crash(NodeId(0));
    c.run_for(Duration::from_secs(2));
    assert!(c.membership_agreed());
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release only: scripts/check.sh chaos runs it"
)]
fn a_rainwall_cluster() {
    // Gateways are members hosting the VIP manager, clients and servers
    // plain hosts whose applications keep their own timers.
    let mut s = Scenario::build(ScenarioCfg {
        gateways: 2,
        clients: 2,
        servers: 2,
        vips: 4,
        object_bytes: 20_000,
        ..ScenarioCfg::default()
    })
    .expect("scenario");
    tick_undue_after_every_quantum(&mut s.cluster, "rainwall".into());
    s.cluster.run_until(Time::ZERO + Duration::from_secs(2));
    s.cluster.crash(NodeId(1));
    s.cluster.run_for(Duration::from_secs(2));
    assert!(s.completed() > 0 && s.retries() > 0);
}

/// Twenty seeds of one soak kind, sized and shaped the way
/// `chaos --soak` sizes and shapes its runs.
fn soak(kind: &str, base: ChaosConfig) {
    for k in 1..=20u64 {
        let cfg = ChaosConfig {
            seed: k,
            nodes: 4 + (k * 7 % 9) as u32,
            scenario: [
                ChaosScenario::Founding,
                ChaosScenario::Isolated,
                ChaosScenario::Split,
            ][(k % 3) as usize],
            ticks: 300,
            ..base.clone()
        };
        let run = format!("{kind} soak, seed {k}");
        let report = run_chaos_with(&cfg, &generate_schedule(&cfg), |c| {
            tick_undue_after_every_quantum(c, run.clone());
        })
        .expect("setup");
        assert!(report.violation.is_none(), "{run}: {:?}", report.violation);
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release only: scripts/check.sh chaos runs it"
)]
fn plain_chaos_soak() {
    soak("plain", ChaosConfig::default());
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release only: scripts/check.sh chaos runs it"
)]
fn bulk_chaos_soak() {
    let bulk = ChaosConfig {
        bulk_threshold: 512,
        ..ChaosConfig::default()
    };
    soak("bulk", bulk);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release only: scripts/check.sh chaos runs it"
)]
fn padded_chaos_soak() {
    let padded = ChaosConfig {
        payload_pad: 3000,
        ..ChaosConfig::default()
    };
    soak("padded", padded);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release only: scripts/check.sh chaos runs it"
)]
fn delay_spike_chaos_soak() {
    let spiky = ChaosConfig {
        delay_spike: 250,
        ..ChaosConfig::default()
    };
    soak("delay-spike", spiky);
}

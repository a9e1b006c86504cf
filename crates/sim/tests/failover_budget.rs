//! The fail-over budget (DESIGN.md §17) on a 4-node ring with the stock
//! transport configuration — `retry_timeout` 50 ms × 3, the values the
//! end-to-end benchmark pins: once the members have measured each other,
//! a dead successor is skipped in three round-trip-scaled timeouts, not
//! three 50 ms ones, and the vote that regenerates a lost token closes as
//! fast — the starvation before it is still `hungry_timeout` (scaling
//! that with the rotation was measured and refused, §17.3, so the lost
//! token costs 450 ms here and not the 200 ms the issue hoped for). Each
//! bound is asserted together with `false_suspicions == 0`: fast is
//! worth nothing if it is wrong.

use bytes::Bytes;
use raincore_obs::{OutageMode, OutageStage, TraceKind};
use raincore_session::StartMode;
use raincore_sim::{Cluster, ClusterBuilder, ClusterConfig, NodeApp, NodeCtl};
use raincore_types::{DeliveryMode, Duration, NodeId, Ring, Time, TransportConfig};

const NODES: u32 = 4;
const VICTIM: NodeId = NodeId(3);
const OBSERVER: NodeId = NodeId(2);
/// One 64-byte agreed multicast per period from each of nodes 0 and 1,
/// as `udp_failover` submits them.
const SUBMIT_PERIOD: Duration = Duration::from_micros(2_500);

fn cfg() -> ClusterConfig {
    let mut c = ClusterConfig {
        transport: TransportConfig::default(),
        ..ClusterConfig::default()
    };
    c.session.token_hold = Duration::from_millis(2);
    c.session.hungry_timeout = Duration::from_millis(400);
    c.session.starving_retry = Duration::from_millis(150);
    c.session.beacon_period = Duration::from_millis(100);
    c
}

struct Paced {
    next: Time,
}

impl NodeApp for Paced {
    fn on_tick(&mut self, ctl: &mut NodeCtl<'_>) {
        while self.next <= ctl.now {
            self.next += SUBMIT_PERIOD;
            if let Some(s) = ctl.session.as_mut() {
                s.multicast(DeliveryMode::Agreed, Bytes::from_static(&[0xA5; 64]))
                    .expect("multicast");
            }
        }
    }

    fn next_wakeup(&self) -> Option<Time> {
        Some(self.next)
    }
}

/// A ring that has turned for a second under load.
fn warmed_up() -> Cluster {
    let ring = Ring::from_iter((0..NODES).map(NodeId));
    let mut b = ClusterBuilder::new(cfg());
    for i in 0..NODES {
        b = b.member(NodeId(i), StartMode::Founding(ring.clone()));
    }
    for origin in [0, 1] {
        b = b.app(NodeId(origin), Box::new(Paced { next: Time::ZERO }));
    }
    let mut c = b.build().expect("cluster");
    c.run_for(Duration::from_secs(1));
    assert!(c.membership_converged());
    c
}

/// Runs until `holder` is EATING, then crashes the victim.
fn crash_victim_while(c: &mut Cluster, holder: NodeId) -> Time {
    while !c.eating_nodes().contains(&holder) {
        c.run_for(Duration::from_micros(100));
    }
    c.crash(VICTIM);
    c.now()
}

/// The longest gap between deliveries at the observer from `since` on.
fn outage_at_observer(c: &Cluster, since: Time) -> Duration {
    let session = c.session(OBSERVER).expect("observer");
    let mut times: Vec<u64> = session
        .obs()
        .journal()
        .iter()
        .filter(|e| matches!(e.kind, TraceKind::Delivered { .. }))
        .map(|e| e.t_ns)
        .collect();
    times.dedup();
    let before = times.iter().rposition(|&t| t <= since.as_nanos());
    let from = before.expect("deliveries before the crash");
    let gap = times[from..].windows(2).map(|w| w[1] - w[0]).max();
    Duration(gap.expect("deliveries after the crash"))
}

fn assert_no_false_suspicion(c: &Cluster) {
    for id in c.live_members() {
        let m = c.metrics(id);
        assert_eq!(m.false_suspicions, 0, "{id}: {m:?}");
    }
}

/// The one outage some member repaired, from its own stage histograms.
fn repaired_outage(c: &Cluster) -> (NodeId, [u64; 5]) {
    let mut rows = c.live_members().into_iter().filter_map(|id| {
        let stages = &c.session(id)?.obs().outage_stages;
        let vote = &stages[2];
        (vote.count() > 0).then(|| (id, [0, 1, 2, 3, 4].map(|i| stages[i].sum())))
    });
    let row = rows.next().expect("some member repaired the outage");
    assert!(rows.next().is_none(), "one outage, one repairer");
    row
}

#[test]
fn skipped_hop_costs_three_measured_timeouts() {
    let mut c = warmed_up();
    // The token is two hops from the victim: its predecessor will find it
    // dead on the next pass.
    let crashed = crash_victim_while(&mut c, NodeId(0));
    c.run_for(Duration::from_millis(500));

    let outage = outage_at_observer(&c, crashed);
    assert!(
        outage <= Duration::from_millis(60),
        "skipped-hop outage {outage:?}"
    );
    assert!(
        outage >= raincore_transport::MIN_RTO.saturating_mul(3),
        "no detector is faster than its own timeouts: {outage:?}"
    );
    assert_no_false_suspicion(&c);
    assert!(c.membership_converged());
    assert!(!c.session(OBSERVER).unwrap().ring().contains(VICTIM));
    let regens: u64 = c
        .live_members()
        .iter()
        .map(|&id| c.metrics(id).regenerations)
        .sum();
    assert_eq!(regens, 0, "a skipped hop starves nobody into a 911 round");

    // The budget, read from the program: the victim's predecessor lived
    // the outage as detect (three timeouts) + resume (the rest of a
    // round), and the stages add up to the gap it saw.
    let (repairer, stages) = repaired_outage(&c);
    assert_eq!(repairer, OBSERVER, "the predecessor does the skipping");
    let [quiet, detect, vote, repair, resume] = stages;
    assert_eq!(
        Duration(detect),
        raincore_transport::MIN_RTO.saturating_mul(3)
    );
    assert_eq!((vote, repair), (0, 0));
    assert_eq!(Duration(quiet + detect + resume), outage);
    let row = raincore_obs::outages(&c.merged_journal());
    assert_eq!(row.len(), 1);
    assert_eq!((row[0].mode, row[0].stages), (OutageMode::Skip, stages));
    assert_eq!(OutageStage::ALL[1].label(), "detect");
}

#[test]
fn lost_token_costs_the_hungry_timeout_and_one_measured_give_up() {
    let mut c = warmed_up();
    let crashed = crash_victim_while(&mut c, VICTIM);
    c.run_for(Duration::from_millis(800));

    let outage = outage_at_observer(&c, crashed);
    assert!(
        outage <= Duration::from_millis(460),
        "lost-token outage {outage:?}"
    );
    assert_no_false_suspicion(&c);
    assert!(c.membership_converged());
    let regens: u64 = c
        .live_members()
        .iter()
        .map(|&id| c.metrics(id).regenerations)
        .sum();
    assert_eq!(regens, 1);

    let rows = raincore_obs::outages(&c.merged_journal());
    assert_eq!(rows.len(), 1, "{rows:?}");
    assert_eq!(rows[0].mode, OutageMode::Regen);
    let [_, detect, vote, ..] = rows[0].stages;
    // The configured 400 ms of starvation; then the dead voter's 911
    // call fails in 48 ms, where it took 150.
    assert_eq!(Duration(detect), Duration::from_millis(400));
    assert_eq!(
        Duration(vote),
        raincore_transport::MIN_RTO.saturating_mul(3)
    );
}

#[test]
fn a_member_slower_than_the_timeouts_is_a_false_suspicion_and_is_counted() {
    let mut c = warmed_up();
    while !c.eating_nodes().contains(&OBSERVER) {
        c.run_for(Duration::from_micros(100));
    }
    // The next datagram is the observer's pass to the victim: that link
    // stalls for longer than the observer is patient, then delivers.
    c.net_mut().set_delay_spike(Duration::from_millis(100));
    c.run_for(Duration::from_millis(90));
    assert!(!c.session(OBSERVER).unwrap().ring().contains(VICTIM));
    assert_eq!(c.metrics(OBSERVER).false_suspicions, 0, "not known yet");
    c.run_for(Duration::from_secs(2));

    // The victim had the token all along and acknowledged it, late: the
    // member that had given up on it knows its verdict was false. The
    // fork that made is healed, and the victim is back in.
    assert!(c.membership_converged(), "{}", c.dump_state());
    assert_eq!(c.session(OBSERVER).unwrap().ring().len(), NODES as usize);
    assert_eq!(c.metrics(OBSERVER).false_suspicions, 1);
    let elsewhere: u64 = [0, 1, 3]
        .iter()
        .map(|&i| c.metrics(NodeId(i)).false_suspicions)
        .sum();
    assert_eq!(
        elsewhere, 0,
        "only the member that gave the verdict counts it"
    );
}

#[test]
fn a_member_behind_a_cut_link_is_not_a_false_suspicion() {
    let mut c = warmed_up();
    while !c.eating_nodes().contains(&NodeId(0)) {
        c.run_for(Duration::from_micros(100));
    }
    c.set_link(OBSERVER, VICTIM, false);
    c.run_for(Duration::from_millis(100));
    assert!(!c.session(OBSERVER).unwrap().ring().contains(VICTIM));
    c.set_link(OBSERVER, VICTIM, true);
    c.run_for(Duration::from_secs(2));
    assert!(c.membership_converged(), "{}", c.dump_state());
    assert_eq!(c.session(OBSERVER).unwrap().ring().len(), NODES as usize);
    // Nothing the observer sent arrived, so nothing was acknowledged: the
    // verdict — unreachable — was true.
    assert_no_false_suspicion(&c);
}

//! The fail-over budget (DESIGN.md §17) on a 4-node ring with the stock
//! transport configuration — `retry_timeout` 50 ms × 3, the values the
//! end-to-end benchmark pins: once the members have measured each other,
//! a dead successor is skipped in three round-trip-scaled timeouts, not
//! three 50 ms ones; and a token that died with its holder is missed by
//! the holder's predecessor, which asks after `4·rotation + 2·give-up`
//! (§17.3), hears nothing for one give-up, and regenerates — 180 ms, not
//! the 450 the `hungry_timeout` cost. Each bound is asserted together
//! with `false_suspicions == 0`, and the probe against two holders that
//! are slow and not dead: fast is worth nothing if it is wrong.

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
/// Three tries at the floor: what a measured LAN peer is given.
const GIVE_UP: Duration = raincore_transport::MIN_RTO.saturating_mul(3);

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
fn repaired_outage(c: &Cluster) -> (NodeId, [u64; 6]) {
    let mut rows = c.live_members().into_iter().filter_map(|id| {
        let stages = &c.session(id)?.obs().outage_stages;
        let vote = &stages[3];
        (vote.count() > 0).then(|| (id, [0, 1, 2, 3, 4, 5].map(|i| stages[i].sum())))
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
        outage >= GIVE_UP,
        "no detector is faster than its own timeouts: {outage:?}"
    );
    assert_no_false_suspicion(&c);
    assert!(c.membership_converged());
    assert!(!c.session(OBSERVER).unwrap().ring().contains(VICTIM));
    assert_eq!(
        sum_over(&c, |m| m.regenerations),
        0,
        "a skipped hop starves nobody into a 911 round"
    );

    // The budget, read from the program: the victim's predecessor lived
    // the outage as detect (three timeouts) + resume (the rest of a
    // round), and the stages add up to the gap it saw.
    let (repairer, stages) = repaired_outage(&c);
    assert_eq!(repairer, OBSERVER, "the predecessor does the skipping");
    let [quiet, wait, detect, vote, repair, resume] = stages;
    assert_eq!(Duration(detect), GIVE_UP);
    assert_eq!((wait, vote, repair), (0, 0, 0), "the pass was the probe");
    assert_eq!(Duration(quiet + detect + resume), outage);
    let row = raincore_obs::outages(&c.merged_journal());
    assert_eq!(row.len(), 1);
    assert_eq!((row[0].mode, row[0].stages), (OutageMode::Skip, stages));
    assert_eq!(OutageStage::ALL[2].label(), "detect");
    assert_eq!(
        sum_over(&c, |m| m.probes_sent),
        0,
        "nobody was hungry for long enough to ask"
    );
}

/// The lost-token outage as its repairer (the dead holder's predecessor)
/// lived it, and the gap the observer saw.
fn lose_the_token() -> (Cluster, [u64; 6], Duration) {
    let mut c = warmed_up();
    let crashed = crash_victim_while(&mut c, VICTIM);
    c.run_for(Duration::from_millis(800));
    let outage = outage_at_observer(&c, crashed);
    let rows = raincore_obs::outages(&c.merged_journal());
    assert_eq!(rows.len(), 1, "{rows:?}");
    assert_eq!(
        (rows[0].node, rows[0].mode),
        (OBSERVER.0, OutageMode::Regen)
    );
    (c, rows[0].stages, outage)
}

/// How long the victim's predecessor stays hungry before it asks: the
/// `wait` stage of the lost-token run. The runs below repeat that run's
/// first second exactly, so the limit they arm is this one.
fn probe_limit() -> Duration {
    Duration(lose_the_token().1[1])
}

fn sum_over(c: &Cluster, f: fn(&raincore_session::SessionMetrics) -> u64) -> u64 {
    c.live_members().iter().map(|&id| f(&c.metrics(id))).sum()
}

fn membership_changes(c: &mut Cluster) -> usize {
    (0..NODES)
        .flat_map(|i| c.take_events(NodeId(i)))
        .filter(|e| matches!(e, raincore_session::SessionEvent::MembershipChanged { .. }))
        .count()
}

/// A holder that is slow and not dead was asked, answered, and nothing
/// else happened.
fn assert_asked_and_nothing_else(c: &mut Cluster) {
    assert!(sum_over(c, |m| m.probes_sent) > 0, "nobody asked");
    assert_eq!(sum_over(c, |m| m.probes_failed), 0);
    assert_eq!(sum_over(c, |m| m.calls911_sent), 0);
    assert_eq!(sum_over(c, |m| m.failures_detected), 0);
    assert_no_false_suspicion(c);
    assert_eq!(membership_changes(c), 0);
    assert!(c.membership_converged());
    assert_eq!(c.session(OBSERVER).unwrap().ring().len(), NODES as usize);
}

#[test]
fn lost_token_costs_a_probe_limit_and_one_measured_give_up() {
    let (c, stages, outage) = lose_the_token();
    assert!(
        outage <= Duration::from_millis(200),
        "lost-token outage {outage:?}"
    );
    assert_no_false_suspicion(&c);
    assert!(c.membership_converged());
    assert_eq!(sum_over(&c, |m| m.regenerations), 1);

    // The budget, read from the program. The predecessor waited four
    // rotations (8.4 ms each, on the 1 ms grid) and two give-ups, asked,
    // and heard nothing for one give-up; the dead member was out of the
    // ring before the ballot was drawn, so the vote is a round trip.
    let [quiet, wait, detect, vote, repair, resume] = stages;
    assert_eq!(
        Duration(wait),
        Duration::from_millis(4 * 9) + GIVE_UP + GIVE_UP
    );
    assert_eq!(Duration(detect), GIVE_UP);
    assert!(Duration(vote) < Duration::from_millis(5), "vote {vote} ns");
    assert_eq!(
        Duration(quiet + wait + detect + vote + repair + resume),
        outage
    );
    assert_eq!(repaired_outage(&c), (OBSERVER, stages));

    // One caller: the others asked members that were alive.
    let callers = c
        .live_members()
        .into_iter()
        .filter(|&id| c.metrics(id).calls911_sent > 0);
    assert_eq!(callers.collect::<Vec<_>>(), [OBSERVER]);
    assert_eq!(c.metrics(OBSERVER).probes_failed, 1);
    assert_eq!(sum_over(&c, |m| m.probes_failed), 1);
    assert!(sum_over(&c, |m| m.probes_sent) >= 3, "everyone asked");
}

#[test]
fn last_survivor_of_a_ring_of_two_regenerates_with_nobody_to_ask() {
    let ring = Ring::from_iter((0..2).map(NodeId));
    let mut b = ClusterBuilder::new(cfg());
    for i in 0..2 {
        b = b.member(NodeId(i), StartMode::Founding(ring.clone()));
    }
    let mut c = b.build().expect("cluster");
    c.run_for(Duration::from_secs(1));
    while !c.eating_nodes().contains(&NodeId(1)) {
        c.run_for(Duration::from_micros(100));
    }
    c.crash(NodeId(1));
    // `4·5 + 2·48` ms of wait and one give-up, well inside the backstop.
    c.run_for(Duration::from_millis(200));
    let m = c.metrics(NodeId(0));
    assert_eq!((m.probes_failed, m.regenerations), (1, 1), "{m:?}");
    assert_eq!((m.calls911_sent, m.bootstrap_foundings), (0, 0), "{m:?}");
    assert_eq!(c.session(NodeId(0)).unwrap().ring().len(), 1);
    assert_eq!(c.eating_nodes(), [NodeId(0)], "alone, and turning");
}

#[test]
fn a_holder_keeping_the_master_lock_is_asked_and_left_alone() {
    let mut c = warmed_up();
    c.session_mut(VICTIM).unwrap().request_master().unwrap();
    while !c.session(VICTIM).unwrap().holds_master() {
        c.run_for(Duration::from_micros(100));
    }
    membership_changes(&mut c);
    // Longer than any multiple of the rotation a shortened timeout could
    // afford, shorter than the backstop.
    c.run_for(Duration::from_millis(350));
    assert!(c.session(VICTIM).unwrap().holds_master());
    let now = c.now();
    c.session_mut(VICTIM).unwrap().release_master(now).unwrap();
    c.run_for(Duration::from_millis(200));
    assert_asked_and_nothing_else(&mut c);
    assert!(
        c.metrics(OBSERVER).probes_sent >= 2,
        "asked, and asked again"
    );
}

#[test]
fn a_holder_stalled_for_less_than_limit_and_give_up_is_asked_and_left_alone() {
    let stall = probe_limit() + GIVE_UP - Duration::from_millis(10);
    let mut c = warmed_up();
    while !c.eating_nodes().contains(&VICTIM) {
        c.run_for(Duration::from_micros(100));
    }
    membership_changes(&mut c);
    c.stall(VICTIM, stall);
    c.run_for(stall + Duration::from_millis(200));
    assert_eq!(c.metrics(OBSERVER).probes_sent, 1, "the one that mattered");
    assert_asked_and_nothing_else(&mut c);
}

#[test]
fn a_holder_stalled_past_limit_and_give_up_is_one_false_suspicion_and_a_rejoin() {
    let stall = probe_limit() + GIVE_UP + Duration::from_millis(20);
    let mut c = warmed_up();
    while !c.eating_nodes().contains(&VICTIM) {
        c.run_for(Duration::from_micros(100));
    }
    c.stall(VICTIM, stall);
    c.run_for(stall - Duration::from_millis(10));
    assert!(!c.session(OBSERVER).unwrap().ring().contains(VICTIM));
    assert_eq!(c.metrics(OBSERVER).regenerations, 1);
    assert_eq!(c.metrics(OBSERVER).false_suspicions, 0, "not known yet");
    c.run_for(Duration::from_secs(2));

    // What a falsely failed token pass costs, and no more: the victim
    // acknowledged late, the member that gave the verdict knows it was
    // false, the stale token lost to the regenerated one, and the victim
    // is back in.
    assert!(c.membership_converged(), "{}", c.dump_state());
    assert_eq!(c.session(OBSERVER).unwrap().ring().len(), NODES as usize);
    assert_eq!(c.metrics(OBSERVER).false_suspicions, 1);
    assert_eq!(sum_over(&c, |m| m.false_suspicions), 1);
    assert_eq!(c.metrics(OBSERVER).regenerations, 1);
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

//! Size-gated rotation pacing (DESIGN.md §16) at cluster scale: a ring
//! with nothing to carry keeps the paper's idle round rate — `token_hold`
//! per hop, so the idle packet budget is what it always was — and a ring
//! whose token is full turns twice as fast, on one member's clock.

use bytes::Bytes;
use raincore_session::{SessionEvent, StartMode};
use raincore_sim::{standard_invariants, Cluster, ClusterBuilder, ClusterConfig, NodeApp, NodeCtl};
use raincore_types::{DeliveryMode, Duration, NodeId, Ring, Time};

const NODES: u32 = 4;
const TOKEN_HOLD: Duration = Duration::from_millis(2);
/// Hops per second of a ring that waits out `token_hold` at every hop.
const PACED_HOPS_PER_S: u64 = Duration::from_secs(1).0 / TOKEN_HOLD.0;

fn cfg() -> ClusterConfig {
    let mut c = ClusterConfig::default();
    c.session.token_hold = TOKEN_HOLD;
    c.session.hungry_timeout = Duration::from_millis(100);
    c.session.starving_retry = Duration::from_millis(40);
    c.transport.retry_timeout = Duration::from_millis(10);
    c
}

/// A closed loop: `window` 64-byte agreed multicasts outstanding, one
/// more submitted whenever one becomes atomic.
struct ClosedLoop {
    window: usize,
}

impl ClosedLoop {
    fn submit(ctl: &mut NodeCtl<'_>) {
        if let Some(s) = ctl.session.as_mut() {
            s.multicast(DeliveryMode::Agreed, Bytes::from_static(&[0x5A; 64]))
                .expect("multicast");
        }
    }
}

impl NodeApp for ClosedLoop {
    fn on_tick(&mut self, ctl: &mut NodeCtl<'_>) {
        for _ in 0..std::mem::take(&mut self.window) {
            Self::submit(ctl);
        }
    }

    fn on_session_event(&mut self, ctl: &mut NodeCtl<'_>, event: &SessionEvent) {
        if matches!(event, SessionEvent::MulticastAtomic { .. }) {
            Self::submit(ctl);
        }
    }
}

/// `(tokens sent, of which sooner than `token_hold`)` over one second of a
/// warmed-up ring; every member runs `app`, if any.
fn hops_in_one_second(window: Option<usize>) -> (u64, u64) {
    let ring = Ring::from_iter((0..NODES).map(NodeId));
    let mut b = ClusterBuilder::new(cfg());
    for i in 0..NODES {
        b = b.member(NodeId(i), StartMode::Founding(ring.clone()));
        if let Some(window) = window {
            b = b.app(NodeId(i), Box::new(ClosedLoop { window }));
        }
    }
    let mut c = b.build().expect("cluster");
    let totals = |c: &Cluster| {
        c.member_ids().iter().fold((0, 0), |(sent, early), &id| {
            let m = c.metrics(id);
            (sent + m.tokens_sent, early + m.tokens_passed_early)
        })
    };
    c.run_until(Time::ZERO + Duration::from_millis(200));
    let before = totals(&c);
    c.run_checked(
        Time::ZERO + Duration::from_millis(1200),
        standard_invariants,
    )
    .expect("healthy run");
    let after = totals(&c);
    // One total order, whatever the pace.
    let reference = c.delivery_ids(NodeId(0)).to_vec();
    for i in 1..NODES {
        let got = c.delivery_ids(NodeId(i));
        let common = got.len().min(reference.len());
        assert_eq!(got[..common], reference[..common], "order at n{i}");
    }
    if window.is_some() {
        assert!(reference.len() > 1000, "{} deliveries", reference.len());
    }
    (after.0 - before.0, after.1 - before.1)
}

#[test]
fn idle_ring_keeps_the_idle_packet_budget() {
    let (hops, early) = hops_in_one_second(None);
    assert_eq!(early, 0, "an empty token is never full");
    assert!(
        hops <= PACED_HOPS_PER_S,
        "{hops} hops/s from an idle ring paced at {PACED_HOPS_PER_S}"
    );
    assert!(hops > PACED_HOPS_PER_S / 2, "the ring is alive: {hops}");
}

#[test]
fn light_load_is_still_paced() {
    // 4 × 4 messages of ~75 wire bytes: far below two datagrams.
    let (hops, early) = hops_in_one_second(Some(4));
    assert_eq!(early, 0);
    assert!(hops <= PACED_HOPS_PER_S, "{hops}");
}

#[test]
fn saturated_ring_turns_at_twice_the_idle_pace() {
    // 4 × 16 messages of ~75 wire bytes: well past two datagrams. Three
    // members pass at once, the first keeps the loaded round — half an
    // idle one — on its own clock, so the rate is that clock's.
    let (hops, early) = hops_in_one_second(Some(16));
    let loaded = 2 * PACED_HOPS_PER_S;
    assert!(
        hops > loaded - loaded / 50 && hops <= loaded + u64::from(NODES),
        "{hops} hops/s from a saturated ring, loaded pace {loaded}"
    );
    assert!(early * 2 > hops, "{early} of {hops} passes early");
}

//! Size-gated rotation pacing (DESIGN.md §16) at cluster scale: a ring
//! with nothing to carry keeps the paper's idle round rate — `token_hold`
//! per hop, so the idle packet budget is what it always was — and a ring
//! whose token is full turns twice as fast, on one member's clock,
//! whether the freight that fills it rides the token or travels beside
//! it.

use raincore_session::StartMode;
use raincore_sim::{standard_invariants, ClosedLoop, Cluster, ClusterBuilder, ClusterConfig};
use raincore_types::{Duration, NodeId, Ring, Time};

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

/// One second of a warmed-up ring, summed over its members.
struct Second {
    /// Tokens sent, and how many of them sooner than `token_hold`.
    hops: u64,
    early: u64,
    deliveries: u64,
    nacks: u64,
}

/// Runs a `nodes`-member ring whose `origins` each run `app` (64-byte
/// payloads ride the token, anything from 512 bytes travels beside it).
fn one_second(nodes: u32, origins: std::ops::Range<u32>, app: Option<ClosedLoop>) -> Second {
    let ring = Ring::from_iter((0..nodes).map(NodeId));
    let mut cfg = cfg();
    cfg.session.bulk_threshold = 512;
    let mut b = ClusterBuilder::new(cfg);
    for i in 0..nodes {
        b = b.member(NodeId(i), StartMode::Founding(ring.clone()));
        if let Some(app) = app.clone().filter(|_| origins.contains(&i)) {
            b = b.app(NodeId(i), Box::new(app));
        }
    }
    let mut c = b.build().expect("cluster");
    let totals = |c: &Cluster| {
        c.member_ids().iter().fold([0; 4], |sum, &id| {
            let m = c.metrics(id);
            let add = [
                m.tokens_sent,
                m.tokens_passed_early,
                m.deliveries,
                m.bulk_nacks_sent,
            ];
            std::array::from_fn(|k| sum[k] + add[k])
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
    let reference = c.deliveries(NodeId(0));
    for i in 1..nodes {
        let got = c.deliveries(NodeId(i));
        let common = got.len().min(reference.len());
        assert_eq!(got[..common], reference[..common], "order at n{i}");
    }
    if app.is_some() {
        assert!(reference.len() > 1000, "{} deliveries", reference.len());
    }
    let [hops, early, deliveries, nacks] = std::array::from_fn(|k| after[k] - before[k]);
    Second {
        hops,
        early,
        deliveries,
        nacks,
    }
}

/// Every member of a [`NODES`]-ring keeps `window` 64-byte multicasts in
/// flight.
fn small(window: usize) -> Second {
    one_second(NODES, 0..NODES, Some(ClosedLoop { window, len: 64 }))
}

// The simulator is deterministic and none of the three cases below
// carries an out-of-band entry, so their hop counts are pinned: weighing
// freight (§16.1) must compute the same integers there.

#[test]
fn idle_ring_keeps_the_idle_packet_budget() {
    let Second { hops, early, .. } = one_second(NODES, 0..0, None);
    assert_eq!(early, 0, "an empty token is never full");
    assert!(
        hops <= PACED_HOPS_PER_S,
        "{hops} hops/s from an idle ring paced at {PACED_HOPS_PER_S}"
    );
    assert_eq!(hops, 476);
}

#[test]
fn light_load_is_still_paced() {
    // 4 × 4 messages of ~75 wire bytes: far below two datagrams.
    let Second { hops, early, .. } = small(4);
    assert_eq!(early, 0);
    assert_eq!(hops, 476);
}

#[test]
fn saturated_ring_turns_at_twice_the_idle_pace() {
    // 4 × 16 messages of ~75 wire bytes: well past two datagrams. Three
    // members pass at once, the first keeps the loaded round — half an
    // idle one — on its own clock, so the rate is that clock's.
    let Second { hops, early, .. } = small(16);
    assert_eq!(hops, 2 * PACED_HOPS_PER_S);
    assert!(early * 2 > hops, "{early} of {hops} passes early");
}

#[test]
fn bulk_ring_turns_at_twice_the_idle_pace_on_freight_the_token_never_carries() {
    // The `udp_bulk` shape: three members, the first keeps eight 8 KiB
    // multicasts in flight. The token that orders them weighs ~200 bytes
    // and is full all the same — 64 KiB has left by another road — so
    // the two other members pass it at once and the origin, which is the
    // pace-keeper, every loaded round: one round, eight deliveries.
    let app = ClosedLoop {
        window: 8,
        len: 8192,
    };
    let Second {
        hops,
        early,
        deliveries,
        nacks,
    } = one_second(3, 0..1, Some(app));
    let loaded = 2 * PACED_HOPS_PER_S;
    assert!(
        hops > loaded - loaded / 50 && hops <= loaded + 3,
        "{hops} hops/s from a ring full of out-of-band freight, loaded pace {loaded}"
    );
    // Two passes in three: all of node 1's and node 2's, none of node 0's.
    assert!(
        early * 3 >= hops * 2 - 3 && early * 3 <= hops * 2 + 3,
        "{early} of {hops} passes early"
    );
    // 3 hops order 8 multicasts, each delivered at 3 members: 0.375 hops
    // per multicast, give or take the round the second cuts in two.
    let multicasts = deliveries / 3;
    assert!(
        (hops * 8).abs_diff(multicasts * 3) <= 24,
        "{hops} hops for {multicasts} multicasts"
    );
    assert_eq!(nacks, 0, "every payload beat its manifest entry");
}

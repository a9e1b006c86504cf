//! Experiment implementations (see the crate docs for the index).

use crate::baselines;
use bytes::Bytes;
use raincore_net::{Addr, MediumKind, PacketClass, SimNetConfig};
use raincore_obs::{HistSummary, Histogram};
use raincore_rainwall::{Scenario, ScenarioCfg};
use raincore_sim::{AuditView, Cluster, ClusterConfig};
use raincore_types::{DeliveryMode, Duration, NodeId, Time};

/// Merges a per-node histogram (picked off each member's observability
/// side-car) across the whole cluster into one summary.
fn merged_hist(
    c: &Cluster,
    pick: impl Fn(&raincore_session::SessionNode) -> &Histogram,
) -> HistSummary {
    let merged = Histogram::new();
    for id in c.member_ids() {
        if let Some(s) = c.session(id) {
            merged.merge_from(pick(s));
        }
    }
    merged.summary()
}

/// Per-second session-layer parameters shared by the protocol experiments.
fn proto_cfg(n: u32, l_rounds_per_sec: f64) -> ClusterConfig {
    let mut c = ClusterConfig {
        session: raincore_types::SessionConfig::for_cluster(n).with_token_rate(n, l_rounds_per_sec),
        ..Default::default()
    };
    c.session.hungry_timeout = Duration::from_secs_f64((4.0 / l_rounds_per_sec).max(0.5));
    c.session.starving_retry = Duration::from_millis(100);
    c.session.beacon_period = Duration::from_secs(5);
    c.transport.retry_timeout = Duration::from_millis(20);
    // §4.1's model counts "N packets of N·M bytes": the token is one
    // packet per hop. A jumbo MTU keeps the transport from fragmenting
    // large tokens so the measurement matches the paper's unit of count
    // (the fragmentation trade-off is discussed in EXPERIMENTS.md).
    c.transport.mtu = 60_000;
    c
}

// ======================================================================
// E1 — §4.1 task-switching table
// ======================================================================

/// One row of the task-switching comparison.
#[derive(Clone, Copy, Debug)]
pub struct TaskSwitchRow {
    /// Cluster size.
    pub n: u32,
    /// Multicasts per second per node.
    pub m: u32,
    /// Token rounds per second (Raincore's `L`).
    pub l: f64,
    /// Measured group-communication wake-ups per second per node, Raincore.
    pub raincore: f64,
    /// Same, reliable acknowledged fan-out.
    pub reliable: f64,
    /// Same, sequencer 2PC (consistent ordering) — max over nodes, since
    /// the sequencer is the hotspot.
    pub sequenced_max: f64,
    /// Sequencer 2PC, mean over nodes.
    pub sequenced_mean: f64,
}

/// Measures §4.1's CPU metric: group-communication processing wake-ups
/// per second per node, with `n` nodes each multicasting `m` messages/s.
/// Raincore's token does `l` rounds/s and runs in the simulator for
/// `secs`; the broadcast baselines are their closed forms
/// ([`crate::baselines`]).
pub fn taskswitch(n: u32, m: u32, l: f64, secs: u64) -> TaskSwitchRow {
    let payload = Bytes::from(vec![0u8; 64]);
    let mut c = Cluster::founding(n, proto_cfg(n, l)).expect("cluster");
    c.run_until(Time::ZERO + Duration::from_secs(1));
    let before: u64 = (0..n).map(|i| c.metrics(NodeId(i)).task_switches).sum();
    let step = Duration::from_nanos(1_000_000_000 / u64::from(m.max(1)));
    let mut t = c.now();
    for _ in 0..(m as u64 * secs) {
        for i in 0..n {
            let _ = c.multicast(NodeId(i), DeliveryMode::Agreed, payload.clone());
        }
        t += step;
        c.run_until(t);
    }
    let after: u64 = (0..n).map(|i| c.metrics(NodeId(i)).task_switches).sum();
    let (reliable, _) = baselines::acked_fan_out(n, payload.len()).wakeups_per_s(n, m);
    let (sequenced_mean, sequenced_max) =
        baselines::sequencer_2pc(n, payload.len()).wakeups_per_s(n, m);
    TaskSwitchRow {
        n,
        m,
        l,
        raincore: (after - before) as f64 / secs as f64 / f64::from(n),
        reliable,
        sequenced_max,
        sequenced_mean,
    }
}

// ======================================================================
// E2 — §4.1 network-overhead table
// ======================================================================

/// One row of the network-overhead comparison: each of `n` nodes
/// multicasts one message of `msg_bytes`.
#[derive(Clone, Debug)]
pub struct NetOverheadRow {
    /// Protocol label.
    pub protocol: String,
    /// Control packets put on the wire for the round: for Raincore, the
    /// margin over an idle twin of the same cluster in the same window.
    pub packets: i64,
    /// Control bytes on the wire (marginal for Raincore).
    pub bytes: i64,
    /// The paper's closed-form prediction for packets.
    pub formula_packets: String,
    /// The paper's closed-form prediction for bytes.
    pub formula_bytes: String,
}

/// §4.1's network overhead for all four protocols: Raincore measured in
/// the simulator, the broadcast baselines from their closed forms.
pub fn netoverhead(n: u32, msg_bytes: usize) -> Vec<NetOverheadRow> {
    let payload = Bytes::from(vec![0u8; msg_bytes]);
    // Two identical clusters over the same window, only one of them
    // loaded: the token's own traffic cancels hop for hop.
    let [idle, loaded] = [false, true].map(|load| {
        let mut c = Cluster::founding(n, proto_cfg(n, 10.0)).expect("cluster");
        c.run_for(Duration::from_secs(1));
        c.reset_net_stats();
        for i in (0..n).filter(|_| load) {
            c.multicast(NodeId(i), DeliveryMode::Agreed, payload.clone())
                .expect("multicast");
        }
        c.run_for(Duration::from_secs(2));
        c.net_stats().total_sent(PacketClass::Control)
    });
    let nn = u64::from(n);
    let fan_bytes = nn * (nn - 1) * msg_bytes as u64;
    let mut rows = vec![NetOverheadRow {
        protocol: "raincore (marginal)".into(),
        packets: loaded.pkts as i64 - idle.pkts as i64,
        bytes: loaded.bytes as i64 - idle.bytes as i64,
        formula_packets: "0 extra (piggybacked)".into(),
        formula_bytes: format!("N²·M = {}", nn * nn * msg_bytes as u64),
    }];
    for (protocol, cost, formula_packets, formula_bytes) in [
        (
            "fan-out (unreliable)",
            baselines::fan_out(n, msg_bytes),
            format!("N(N-1) = {}", nn * (nn - 1)),
            format!("≈N(N-1)·M = {fan_bytes}"),
        ),
        (
            "fan-out + acks",
            baselines::acked_fan_out(n, msg_bytes),
            format!("2N(N-1) = {}", 2 * nn * (nn - 1)),
            format!(">N(N-1)·M = {fan_bytes}"),
        ),
        (
            "sequencer 2PC",
            baselines::sequencer_2pc(n, msg_bytes),
            "≈4N² (4 phases)".into(),
            "≫".into(),
        ),
    ] {
        rows.push(NetOverheadRow {
            protocol: protocol.into(),
            packets: cost.packets as i64,
            bytes: cost.bytes as i64,
            formula_packets,
            formula_bytes,
        });
    }
    rows
}

// ======================================================================
// E3 — Figure 3: Rainwall throughput and scaling
// ======================================================================

/// One point of Figure 3.
#[derive(Clone, Copy, Debug)]
pub struct Fig3Point {
    /// Gateways in the cluster.
    pub gateways: u32,
    /// Aggregate client goodput, Mbit/s.
    pub mbps: f64,
    /// Scaling factor versus the 1-node run.
    pub scaling: f64,
    /// Group-communication CPU share (50 µs per wake-up), percent.
    pub cpu_pct: f64,
    /// Token-rotation period distribution across the gateways
    /// (raincore-obs histogram, nanoseconds).
    pub rotation: HistSummary,
}

/// Runs the Figure-3 benchmark for one cluster size.
pub fn fig3_point(gateways: u32, secs: u64) -> Fig3Point {
    let cfg = ScenarioCfg {
        gateways,
        clients: 8,
        servers: 8,
        vips: (gateways * 2).max(4),
        // Closed-loop clients: enough downloads in flight to saturate the
        // cluster without over-queuing it (the paper's load generators
        // were tuned per run the same way).
        flows_per_client: gateways + 1,
        ..Default::default()
    };
    let mut s = Scenario::build(cfg).expect("scenario");
    let warm = Time::ZERO + Duration::from_secs(2);
    let end = warm + Duration::from_secs(secs);
    s.cluster.run_until(end);
    let mbps = s.goodput_mbps(warm, end);
    let cpu: f64 = s
        .gateway_ids
        .iter()
        .map(|&g| s.group_comm_cpu_share(g, Duration::from_micros(50), end.since(Time::ZERO)))
        .sum::<f64>()
        / f64::from(gateways);
    let rotation = merged_hist(&s.cluster, |n| &n.obs().token_rotation);
    Fig3Point {
        gateways,
        mbps,
        scaling: 0.0,
        cpu_pct: cpu * 100.0,
        rotation,
    }
}

/// Runs the full Figure-3 sweep (1, 2, 4 gateways by default).
pub fn fig3(sizes: &[u32], secs: u64) -> Vec<Fig3Point> {
    let mut pts: Vec<Fig3Point> = sizes.iter().map(|&g| fig3_point(g, secs)).collect();
    if let Some(base) = pts.first().map(|p| p.mbps) {
        for p in &mut pts {
            p.scaling = p.mbps / base;
        }
    }
    pts
}

// ======================================================================
// E4 — §3.2 fail-over hiccup
// ======================================================================

/// Result of the cable-unplug fail-over experiment.
#[derive(Clone, Debug)]
pub struct FailoverResult {
    /// Time of the unplug.
    pub unplug_at: Time,
    /// Duration of the traffic gap (goodput below half the pre-failure
    /// average). The paper's claim: under two seconds.
    pub gap: Duration,
    /// Aggregate goodput per 100 ms bucket around the event
    /// (bucket index, Mbit/s within that bucket).
    pub series: Vec<(f64, f64)>,
    /// Flows abandoned and retried during the hiccup.
    pub retries: u64,
    /// Token-rotation period distribution across the gateways
    /// (raincore-obs histogram, nanoseconds).
    pub rotation: HistSummary,
    /// Transport failure-on-delivery latency: time from first transmission
    /// to the failure notification that triggers fail-over (nanoseconds).
    pub failover_latency: HistSummary,
    /// 911 token-recovery duration distribution (nanoseconds); empty when
    /// the victim was not holding the token.
    pub recovery: HistSummary,
}

/// Unplugs one gateway's cable mid-download and measures the hiccup.
pub fn failover() -> FailoverResult {
    let cfg = ScenarioCfg {
        gateways: 2,
        clients: 6,
        servers: 6,
        vips: 4,
        ..Default::default()
    };
    let bucket = cfg.bucket;
    let mut s = Scenario::build(cfg).expect("scenario");
    let unplug_at = Time::ZERO + Duration::from_secs(5);
    s.cluster.run_until(unplug_at);
    // Pull the cable of gateway 1 (its only NIC): the simulated
    // equivalent of §3.2's accidental unplug.
    s.cluster.set_nic(Addr::primary(NodeId(1)), false);
    // Rainwall monitors "critical resources such as … the network
    // interfaces" (§3.2): the victim's interface monitor notices the dead
    // link shortly after and the node shuts itself down, so it stops
    // claiming virtual IPs while unreachable.
    let noticed = unplug_at + Duration::from_millis(100);
    s.cluster.run_until(noticed);
    {
        let victim = s.cluster.session_mut(NodeId(1)).expect("victim");
        victim.add_critical_resource("nic0");
        victim.set_resource(noticed, "nic0", false);
    }
    s.cluster.run_until(unplug_at + Duration::from_secs(7));

    let series_raw = s.bucket_series();
    let bpersec = 1_000_000_000 / bucket.as_nanos().max(1);
    let pre_from = (unplug_at.as_nanos() / bucket.as_nanos()).saturating_sub(2 * bpersec);
    let unplug_bucket = unplug_at.as_nanos() / bucket.as_nanos();
    let pre: Vec<u64> = (pre_from..unplug_bucket)
        .map(|b| series_raw.get(&b).copied().unwrap_or(0))
        .collect();
    let pre_avg = pre.iter().sum::<u64>() as f64 / pre.len().max(1) as f64;
    // The gap: consecutive buckets after the unplug below 50 % of the
    // pre-failure average.
    let mut gap_buckets = 0u64;
    let mut b = unplug_bucket;
    loop {
        let v = series_raw.get(&b).copied().unwrap_or(0) as f64;
        if v >= pre_avg * 0.5 {
            break;
        }
        gap_buckets += 1;
        b += 1;
        if gap_buckets > 12 * bpersec {
            break; // never recovered (report a huge gap)
        }
    }
    let to_mbps = |bytes: u64| bytes as f64 * 8.0 / bucket.as_secs_f64() / 1e6;
    let series: Vec<(f64, f64)> = (pre_from..unplug_bucket + 5 * bpersec)
        .map(|b| {
            (
                b as f64 * bucket.as_secs_f64(),
                to_mbps(series_raw.get(&b).copied().unwrap_or(0)),
            )
        })
        .collect();
    FailoverResult {
        unplug_at,
        gap: Duration::from_nanos(gap_buckets * bucket.as_nanos()),
        series,
        retries: s.retries(),
        rotation: merged_hist(&s.cluster, |n| &n.obs().token_rotation),
        failover_latency: merged_hist(&s.cluster, |n| &n.transport_obs().failure_latency),
        recovery: merged_hist(&s.cluster, |n| &n.obs().recovery_911),
    }
}

// ======================================================================
// E5 — hub vs switch medium
// ======================================================================

/// One row of the medium comparison.
#[derive(Clone, Copy, Debug)]
pub struct MediumRow {
    /// Gateways.
    pub gateways: u32,
    /// Aggregate goodput on a switched medium, Mbit/s.
    pub switch_mbps: f64,
    /// Aggregate goodput on a shared hub, Mbit/s.
    pub hub_mbps: f64,
}

/// Compares cluster throughput on switched vs hub media (§4.1's
/// N×100 Mbit/s vs 100 Mbit/s argument).
pub fn medium(sizes: &[u32], secs: u64) -> Vec<MediumRow> {
    let run = |g: u32, kind: MediumKind| -> f64 {
        let mut cfg = ScenarioCfg {
            gateways: g,
            clients: 8,
            servers: 8,
            vips: (g * 2).max(4),
            ..Default::default()
        };
        cfg.cluster.net = match kind {
            MediumKind::Switch => SimNetConfig::fast_ethernet_switch(),
            MediumKind::Hub => SimNetConfig::fast_ethernet_hub(),
        };
        let mut s = Scenario::build(cfg).expect("scenario");
        let warm = Time::ZERO + Duration::from_secs(2);
        let end = warm + Duration::from_secs(secs);
        s.cluster.run_until(end);
        s.goodput_mbps(warm, end)
    };
    sizes
        .iter()
        .map(|&g| MediumRow {
            gateways: g,
            switch_mbps: run(g, MediumKind::Switch),
            hub_mbps: run(g, MediumKind::Hub),
        })
        .collect()
}

// ======================================================================
// A1/A2 — token frequency and delivery-mode latency ablations
// ======================================================================

/// Measures mean multicast delivery latency (injection at node 0 →
/// delivery at the farthest node) and the task-switch rate, at a given
/// token rate.
pub fn latency_at_rate(n: u32, l: f64, mode: DeliveryMode, samples: u32) -> (f64, f64) {
    let mut c = Cluster::founding(n, proto_cfg(n, l)).expect("cluster");
    c.run_for(Duration::from_secs(1));
    // Probe at the originator's first successor: it sees an agreed
    // message on the very next hop, but must wait the extra round for a
    // safe one — the position where §2.6's cost difference is visible.
    let probe = NodeId(1);
    let mut total = Duration::ZERO;
    for k in 0..samples {
        let sent_at = c.now();
        let marker = Bytes::from(vec![k as u8; 8]);
        c.multicast(NodeId(0), mode, marker).expect("multicast");
        let before = c.deliveries(probe).len();
        let mut delivered_at = None;
        let deadline = sent_at + Duration::from_secs(10);
        c.run_until_with(deadline, |c| {
            if delivered_at.is_none() && c.deliveries(probe).len() > before {
                delivered_at = Some(c.now());
            }
        });
        total += delivered_at.expect("delivered").since(sent_at);
        // run_until_with runs to the deadline; measure switches below.
    }
    let lat = total.as_secs_f64() / f64::from(samples);
    let elapsed = c.now().since(Time::ZERO).as_secs_f64();
    let switches = c.metrics(NodeId(0)).task_switches as f64 / elapsed;
    (lat, switches)
}

// ======================================================================
// A3 — redundant links ablation
// ======================================================================

/// Outcome of unplugging one NIC of a member, with and without a
/// redundant second link.
#[derive(Clone, Debug)]
pub struct RedundantRow {
    /// NICs per node.
    pub nics: u8,
    /// Membership-change events observed at node 0 in the 5 s after the
    /// unplug (0 = the failure was masked).
    pub membership_changes: usize,
    /// Whether the cluster converged back to full membership.
    pub full_membership: bool,
}

/// §2.1 ablation: does a redundant physical link mask a cable pull?
pub fn redundant_links(nics: u8) -> RedundantRow {
    let mut cfg = proto_cfg(4, 10.0);
    cfg.nics = nics;
    cfg.transport.max_retries = 2;
    let mut c = Cluster::founding(4, cfg).expect("cluster");
    c.run_for(Duration::from_secs(1));
    let _ = c.take_events(NodeId(0));
    c.set_nic(Addr::new(NodeId(1), 0), false);
    c.run_for(Duration::from_secs(5));
    let changes = c
        .take_events(NodeId(0))
        .iter()
        .filter(|e| matches!(e, raincore_session::SessionEvent::MembershipChanged { .. }))
        .count();
    RedundantRow {
        nics,
        membership_changes: changes,
        full_membership: c.membership_agreed()
            && c.live_members().len() == 4
            && c.session(NodeId(0)).unwrap().ring().len() == 4,
    }
}

// ======================================================================
// E6 — §2.5 quiescent-period membership agreement
// ======================================================================

/// Outcome of one disturbance burst.
#[derive(Clone, Debug)]
pub struct QuiescentRow {
    /// Simultaneous crashes in the burst.
    pub crashes: u32,
    /// Time from the burst to converged (N-k) membership.
    pub shrink_convergence: Option<Duration>,
    /// Time from restarting all victims (as joiners) back to full
    /// membership.
    pub rejoin_convergence: Option<Duration>,
}

/// §2.5: once disturbances stop, how long until every member agrees on
/// the membership? Crashes `k` of `n` members at once, measures the
/// convergence time, then restarts them all and measures re-convergence.
pub fn quiescent(n: u32, crashes: u32) -> QuiescentRow {
    let mut c = Cluster::founding(n, proto_cfg(n, 10.0)).expect("cluster");
    c.run_for(Duration::from_secs(1));
    // Burst: kill k members at the same instant (never node 0, so ids
    // stay deterministic; mixture of holder/non-holder is up to fate).
    let victims: Vec<NodeId> = (1..=crashes).map(NodeId).collect();
    for &v in &victims {
        c.crash(v);
    }
    let t0 = c.now();
    let mut shrink = None;
    c.run_until_with(t0 + Duration::from_secs(10), |c| {
        if shrink.is_none()
            && c.live_members().len() == (n - crashes) as usize
            && c.membership_agreed()
        {
            shrink = Some(c.now().since(t0));
        }
    });
    // Quiet period, then everyone returns at once.
    for &v in &victims {
        c.restart(v, raincore_session::StartMode::Joining)
            .expect("restart");
    }
    let t1 = c.now();
    let mut rejoin = None;
    c.run_until_with(t1 + Duration::from_secs(20), |c| {
        if rejoin.is_none() && c.live_members().len() == n as usize && c.membership_agreed() {
            rejoin = Some(c.now().since(t1));
        }
    });
    QuiescentRow {
        crashes,
        shrink_convergence: shrink,
        rejoin_convergence: rejoin,
    }
}

// ======================================================================
// A5 — how far one ring goes
// ======================================================================

/// One row of the flat ring's size sweep.
#[derive(Clone, Debug)]
pub struct RingSizeRow {
    /// Member count.
    pub n: u32,
    /// Mean multicast latency from node 0 to the farthest member (s).
    pub latency: f64,
    /// Task switches per second per node.
    pub switches: f64,
}

/// A flat ring of `n` members at a 2 ms token hold: mean Agreed latency
/// from node 0 to the member half a ring away over `samples` multicasts,
/// and the wake-up rate that hold costs every node.
pub fn flat_ring(n: u32, samples: u32) -> RingSizeRow {
    let hold = Duration::from_millis(2);
    let mut cfg = ClusterConfig {
        session: raincore_types::SessionConfig::for_cluster(n),
        ..Default::default()
    };
    cfg.session.token_hold = hold;
    cfg.session.hungry_timeout = hold
        .saturating_mul(u64::from(n) * 8)
        .max(Duration::from_millis(200));
    cfg.transport.retry_timeout = Duration::from_millis(10);
    let mut c = Cluster::founding(n, cfg).expect("cluster");
    c.run_for(Duration::from_secs(1));
    let probe = NodeId(n / 2); // roughly farthest from node 0 on the ring
    let mut total = Duration::ZERO;
    for k in 0..samples {
        let sent = c.now();
        c.multicast(NodeId(0), DeliveryMode::Agreed, Bytes::from(vec![k as u8]))
            .unwrap();
        let before = c.deliveries(probe).len();
        let mut at = None;
        c.run_until_with(sent + Duration::from_secs(10), |c| {
            if at.is_none() && c.deliveries(probe).len() > before {
                at = Some(c.now());
            }
        });
        total += at.expect("delivered").since(sent);
    }
    let elapsed = c.now().since(Time::ZERO).as_secs_f64();
    RingSizeRow {
        n,
        latency: total.as_secs_f64() / f64::from(samples),
        switches: c.metrics(NodeId(1)).task_switches as f64 / elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taskswitch_raincore_tracks_l_not_mn() {
        let row = taskswitch(4, 20, 10.0, 2);
        // Raincore ≈ L per node regardless of M; baselines ≈ M·(N-1)+.
        assert!(
            row.raincore < 3.0 * row.l,
            "raincore {:.1} vs L {}",
            row.raincore,
            row.l
        );
        assert!(
            row.reliable > 3.0 * row.raincore,
            "reliable fan-out ({:.0}) must dwarf raincore ({:.0})",
            row.reliable,
            row.raincore
        );
        assert!(row.sequenced_max >= row.reliable * 0.8);
    }

    #[test]
    fn netoverhead_token_marginal_packets_near_zero() {
        let rows = netoverhead(4, 1024);
        let rc = &rows[0];
        assert!(rc.protocol.contains("raincore"));
        assert!(
            rc.packets.abs() <= 8,
            "piggybacking adds (almost) no packets, got {}",
            rc.packets
        );
        // Marginal bytes ≈ N²·M = 16 KiB (plus seen-list overhead).
        assert!(rc.bytes > 12_000 && rc.bytes < 40_000, "bytes {}", rc.bytes);
        let fanout = &rows[1];
        assert_eq!(fanout.packets, 12, "N(N-1) with N=4");
        let acked = &rows[2];
        assert_eq!(acked.packets, 24, "2N(N-1) with N=4");
    }

    #[test]
    fn latency_decreases_with_token_rate() {
        let (slow, _) = latency_at_rate(4, 2.0, DeliveryMode::Agreed, 4);
        let (fast, _) = latency_at_rate(4, 50.0, DeliveryMode::Agreed, 4);
        assert!(fast < slow, "L=50 ({fast:.4}s) must beat L=2 ({slow:.4}s)");
    }

    #[test]
    fn safe_slower_than_agreed() {
        let (agreed, _) = latency_at_rate(4, 20.0, DeliveryMode::Agreed, 4);
        let (safe, _) = latency_at_rate(4, 20.0, DeliveryMode::Safe, 4);
        assert!(safe > agreed, "safe {safe:.4}s vs agreed {agreed:.4}s");
    }

    #[test]
    fn redundant_link_masks_cable_pull() {
        let single = redundant_links(1);
        let dual = redundant_links(2);
        assert!(
            dual.full_membership,
            "dual-link cluster stays whole: {dual:?}"
        );
        assert_eq!(dual.membership_changes, 0, "failure fully masked");
        assert!(
            single.membership_changes > 0,
            "single-link cluster must churn: {single:?}"
        );
    }
}

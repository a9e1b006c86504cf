//! Hot-path micro-benchmarks with allocation accounting — the one
//! micro-bench harness of the repository.
//!
//! The benchmarks, all dependency-free (std timing, a counting global
//! allocator for exact allocation counts):
//!
//! | name | kernel |
//! |---|---|
//! | `bench_token_hop` | steady-state token hop: decode → CoW `last_copy` snapshot → seq bump → patch-per-hop encode ([`TokenEncoder`]) |
//! | `bench_wire_codec` | encode+decode round-trip of a message-laden token |
//! | `bench_chaos_tick` | one seeded chaos run, normalized per engine tick |
//! | `bench_model_check_states` | one bounded model-check search, normalized per state visited |
//! | `bench_multicast_throughput` | token hop under 64 in-flight 1KiB multicasts: piggyback payloads vs out-of-band id manifests |
//! | `bench_udp_pps` | loopback packet throughput: batched vs scalar backends of the one I/O engine (≥3x packets-per-syscall asserted) |
//! | `bench_udp_rtt` | ping round-trip p50/p99 over the batched engine while each ping shares its batch with background load |
//! | `bench_failure_detect` | two simulated fail-overs with the stock detection timeouts: crash → failure-on-delivery (a skipped hop) and crash → token regenerated (a lost token), in simulated ns that repeat exactly |
//! | `bench_lost_token_outage` | `sim_core`'s fail-over on its own: eight simulated members, stock timeouts, the EATING member crashes — the repairer's outage stages (wait for the successor probe, its give-up, the vote) in simulated ns, probes sent and 911 callers; counts that repeat exactly |
//! | `bench_bulk_closed_loop` | one simulated second of the `udp_bulk` shape (3 nodes, node 0 keeps 8 × 8 KiB out-of-band multicasts in flight): deliveries per simulated second, hops per delivery and the share of passes the pacing rule released early — counts that repeat exactly |
//!
//! `bytes_per_op` is **heap bytes allocated** per operation (not wire
//! bytes): together with `allocs_per_op` it is the deterministic,
//! machine-independent signal CI gates on. `ns_per_op` is reported for
//! humans and trend lines but never gated (timers are noisy in CI).
//!
//! Usage:
//!
//! ```text
//! micro_bench [--out PATH] [--compare BASELINE]
//! ```
//!
//! `--out` writes the JSON report (default `BENCH.current.json`, which is
//! ignored). The committed `BENCH_<pr>.json` files are a trajectory — a PR
//! adds its row with `--out BENCH_<pr>.json` and the gate compares against
//! the newest one (the retired legacy rows of the first, PR 5's, are
//! quoted in EXPERIMENTS.md P1/P2).
//! `--compare` additionally loads a committed baseline and exits non-zero
//! if any of the six gated benches — `bench_token_hop`,
//! `bench_hop_latency`, `bench_model_check_states`,
//! `bench_multicast_throughput`, `bench_udp_pps`, `bench_udp_rtt` —
//! allocates >25% more per op than the baseline records.

// A micro-benchmark measures wall time by design, and its counting
// allocator keeps statistics that are never used for control flow.
#![allow(clippy::disallowed_types)]
// Adding a variant to a protocol or fault enum must be a compile-time
// event at every dispatch site (DESIGN.md §6b).
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]

use bytes::Bytes;
use raincore_net::{Addr, BatchConfig, BatchIo, Datagram, IoBackend, PacketClass};
use raincore_sim::chaos::{generate_schedule, run_chaos, ChaosConfig};
use raincore_sim::explore::Explorer;
use raincore_sim::ModelCheckConfig;
use raincore_types::wire::{WireDecode, WireEncode};
use raincore_types::{
    Attached, DeliveryMode, NodeId, OriginSeq, Ring, SessionMsg, Token, TokenEncoder,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

// ----------------------------------------------------------------------
// Counting allocator: exact allocs/bytes, deterministic across runs.
// ----------------------------------------------------------------------

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: defers every operation to `System`; only adds relaxed counter
// bumps, which allocate nothing and cannot fail.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING_ALLOC: CountingAlloc = CountingAlloc;

// ----------------------------------------------------------------------
// Harness
// ----------------------------------------------------------------------

struct BenchResult {
    name: &'static str,
    ops: u64,
    ns_per_op: f64,
    bytes_per_op: f64,
    allocs_per_op: f64,
    /// Extra report-only fields (`name → value`), e.g. the per-stage
    /// hop-latency percentiles. Never gated: timings are machine noise.
    extras: Vec<(String, f64)>,
}

/// Runs `f` once (it loops internally and returns its op count) with the
/// allocator counters and a wall timer around it.
fn measure(name: &'static str, f: impl FnOnce() -> u64) -> BenchResult {
    let a0 = ALLOC_CALLS.load(Ordering::Relaxed);
    let b0 = ALLOC_BYTES.load(Ordering::Relaxed);
    let t0 = Instant::now();
    let ops = f().max(1);
    let ns = t0.elapsed().as_nanos() as f64;
    let allocs = (ALLOC_CALLS.load(Ordering::Relaxed) - a0) as f64;
    let bytes = (ALLOC_BYTES.load(Ordering::Relaxed) - b0) as f64;
    let r = BenchResult {
        name,
        ops,
        ns_per_op: ns / ops as f64,
        bytes_per_op: bytes / ops as f64,
        allocs_per_op: allocs / ops as f64,
        extras: Vec::new(),
    };
    println!(
        "{:28} {:>10} ops  {:>12.1} ns/op  {:>10.1} B/op  {:>8.2} allocs/op",
        r.name, r.ops, r.ns_per_op, r.bytes_per_op, r.allocs_per_op
    );
    r
}

fn quiescent_token(members: u32) -> Token {
    let mut t = Token::founding(Ring::from_iter((0..members).map(NodeId)));
    t.seq = 1_000;
    t
}

// ----------------------------------------------------------------------
// Kernels
// ----------------------------------------------------------------------

const HOPS: u64 = 100_000;

/// The steady-state hop: decode the incoming wire image, take
/// the CoW `last_copy` snapshot (an `Arc` bump), bump `seq`, and encode
/// through the pooled patch-per-hop encoder.
fn token_hop() -> u64 {
    let mut enc = TokenEncoder::new();
    let mut wire = enc.encode(&quiescent_token(8));
    let mut last_copy = None;
    for _ in 0..HOPS {
        let SessionMsg::Token(mut t) = SessionMsg::decode_from_bytes(&wire).expect("decodes")
        else {
            unreachable!("wire image is a token")
        };
        t.seq += 1;
        last_copy = Some(t.clone());
        wire = enc.encode(&t);
        black_box(&wire);
    }
    black_box(&last_copy);
    assert!(
        enc.cache_hits() >= HOPS - 1,
        "steady-state hops must hit the body cache"
    );
    HOPS
}

/// Encode+decode round-trip of a token carrying piggybacked multicasts —
/// the non-quiescent codec cost the body cache cannot help with.
fn wire_codec() -> u64 {
    const OPS: u64 = 20_000;
    let mut t = quiescent_token(8);
    for i in 0..4u64 {
        let mut a = Attached::new(
            NodeId((i % 8) as u32),
            OriginSeq(i),
            DeliveryMode::Agreed,
            Bytes::from(vec![0xAB; 128]),
        );
        a.mark_seen(NodeId(0));
        t.msgs.push(a);
    }
    let msg = SessionMsg::Token(t);
    for _ in 0..OPS {
        let wire = msg.encode_to_bytes();
        let back = SessionMsg::decode_from_bytes(&wire).expect("round-trips");
        black_box(&back);
    }
    OPS
}

/// One seeded chaos run (schedule generation + engine + oracles),
/// normalized per engine tick — the end-to-end cost of a simulated
/// protocol instant.
fn chaos_tick() -> u64 {
    let cfg = ChaosConfig {
        nodes: 4,
        seed: 5,
        ticks: 200,
        ..ChaosConfig::default()
    };
    let schedule = generate_schedule(&cfg);
    let report = run_chaos(&cfg, &schedule).expect("chaos run");
    assert!(report.violation.is_none(), "seed 5 is a known-clean run");
    report.ticks_run
}

/// Per-stage hop-latency percentiles, captured by [`hop_latency`] for
/// the report writer (the harness closure can only return an op count).
static HOP_STAGE_SUMMARIES: std::sync::OnceLock<Vec<(String, f64)>> = std::sync::OnceLock::new();

/// A 4-node simulated ring driven with a *real* monotonic stage clock:
/// virtual time schedules the protocol, the wall clock times each hop's
/// recv → decode → protocol → encode → send pipeline. One op is one
/// completed hop span; the per-stage p50/p99 land in the report as
/// extra (never-gated) fields, while allocs/op rides the standard gate.
fn hop_latency() -> u64 {
    use raincore_obs::{Stage, StageClock, StageHists};
    use raincore_sim::{Cluster, ClusterConfig};
    use raincore_types::{Duration, Time};

    let mut cfg = ClusterConfig::default();
    cfg.session.token_hold = Duration::from_millis(2);
    cfg.session.hungry_timeout = Duration::from_millis(100);
    let mut c = Cluster::founding(4, cfg).expect("founding cluster");
    for id in c.member_ids() {
        c.session_mut(id)
            .expect("member")
            .obs_mut()
            .set_stage_clock(StageClock::monotonic());
    }
    c.run_until(Time::ZERO + Duration::from_secs(2));

    let agg = StageHists::new();
    for id in c.member_ids() {
        let o = c.session(id).expect("member").obs();
        for stage in Stage::ALL {
            agg.get(stage).merge_from(o.hop_stages.get(stage));
        }
    }
    let mut extras = Vec::new();
    for (stage, s) in agg.summaries() {
        extras.push((format!("{}_p50_ns", stage.label()), s.p50 as f64));
        extras.push((format!("{}_p99_ns", stage.label()), s.p99 as f64));
    }
    let ops = agg.get(Stage::Send).count();
    HOP_STAGE_SUMMARIES.set(extras).expect("set once");
    ops
}

/// Per-mode token-load bytes and the piggyback→OOB reduction factor,
/// captured by [`multicast_throughput`] for the report writer.
static MULTICAST_SUMMARIES: std::sync::OnceLock<Vec<(String, f64)>> = std::sync::OnceLock::new();

/// DESIGN.md §13 measured at the wire: a token carrying 64 in-flight
/// 1KiB agreed multicasts hops the ring twice over — once with every
/// payload piggybacked inline (the pre-split path) and once as
/// out-of-band id manifests (the payloads travel as bulk frames, so the
/// token carries only `(origin, seq, len)` plus the seen-set watermark).
/// One op is one hop (decode → seq bump → patch-per-hop encode); the
/// *token-load* bytes per hop — wire size beyond the quiescent token —
/// land in the report per mode together with their ratio, and the ≥5x
/// dissemination/ordering split win is asserted in-process.
fn multicast_throughput() -> u64 {
    const MSGS: u64 = 64;
    const PAYLOAD: usize = 1024;
    const LOAD_HOPS: u64 = 2_000;

    let quiescent_len = TokenEncoder::new().encode(&quiescent_token(8)).len() as u64;

    let run = |oob: bool| -> f64 {
        let mut t = quiescent_token(8);
        for i in 0..MSGS {
            let origin = NodeId((i % 8) as u32);
            let mut a = if oob {
                Attached::new_oob(origin, OriginSeq(i), DeliveryMode::Agreed, PAYLOAD as u64)
            } else {
                Attached::new(
                    origin,
                    OriginSeq(i),
                    DeliveryMode::Agreed,
                    Bytes::from(vec![0xCD; PAYLOAD]),
                )
            };
            a.mark_seen(NodeId(0));
            t.msgs.push(a);
        }
        let mut enc = TokenEncoder::new();
        let mut wire = enc.encode(&t);
        let mut load = 0u64;
        for _ in 0..LOAD_HOPS {
            let SessionMsg::Token(mut t) = SessionMsg::decode_from_bytes(&wire).expect("decodes")
            else {
                unreachable!("wire image is a token")
            };
            t.seq += 1;
            load += (wire.len() as u64).saturating_sub(quiescent_len);
            wire = enc.encode(&t);
            black_box(&wire);
        }
        load as f64 / LOAD_HOPS as f64
    };

    let piggyback = run(false);
    let oob = run(true);
    let reduction = piggyback / oob;
    assert!(
        reduction >= 5.0,
        "id manifests must shrink the token load at least 5x at 64 in-flight \
         1KiB multicasts: piggyback {piggyback:.0} B/hop vs oob {oob:.0} B/hop \
         ({reduction:.1}x)"
    );
    MULTICAST_SUMMARIES
        .set(vec![
            ("piggyback_load_bytes_per_hop".to_string(), piggyback),
            ("oob_load_bytes_per_hop".to_string(), oob),
            ("payload_bytes_reduction_x".to_string(), reduction),
        ])
        .expect("set once");
    2 * LOAD_HOPS
}

/// Simulated crash → detection spans, captured by [`failure_detect`] for
/// the report writer.
static FAILURE_DETECT_SUMMARIES: std::sync::OnceLock<Vec<(String, f64)>> =
    std::sync::OnceLock::new();

/// DESIGN.md §17 as two counts: on a warmed-up 4-node simulated ring with
/// the stock timeouts (`retry_timeout` 50 ms × 3, `hungry_timeout`
/// 400 ms), how long after a crash the failure-on-delivery of the pass to
/// the dead member fires, and — when it died holding the token — how long
/// until a survivor has regenerated it. Simulated time: the spans repeat
/// to the nanosecond, so a change to either detection rule moves them and
/// nothing else does. One op is one fail-over.
fn failure_detect() -> u64 {
    use raincore_obs::TraceKind;
    use raincore_sim::{Cluster, ClusterConfig};
    use raincore_types::{Duration, Time};

    const VICTIM: NodeId = NodeId(3);
    let span = |holder: NodeId, done: fn(&TraceKind) -> bool| -> f64 {
        let mut cfg = ClusterConfig::default();
        cfg.session.token_hold = Duration::from_millis(2);
        cfg.session.hungry_timeout = Duration::from_millis(400);
        cfg.session.starving_retry = Duration::from_millis(150);
        let mut c = Cluster::founding(4, cfg).expect("founding cluster");
        c.run_until(Time::ZERO + Duration::from_secs(1));
        while !c.eating_nodes().contains(&holder) {
            c.run_for(Duration::from_micros(100));
        }
        let crashed = c.now();
        c.crash(VICTIM);
        c.run_for(Duration::from_secs(1));
        let journal = c.merged_journal();
        let at = journal
            .iter()
            .find(|e| e.t_ns >= crashed.as_nanos() && done(&e.kind))
            .expect("the fail-over completed");
        (at.t_ns - crashed.as_nanos()) as f64
    };
    let skip = span(NodeId(0), |k| matches!(k, TraceKind::PeerFailed { .. }));
    let regen = span(VICTIM, |k| matches!(k, TraceKind::TokenRegenerated { .. }));
    FAILURE_DETECT_SUMMARIES
        .set(vec![
            ("crash_to_delivery_failed_sim_ns".to_string(), skip),
            ("crash_to_regenerated_sim_ns".to_string(), regen),
        ])
        .expect("set once");
    2
}

/// The lost-token budget, captured by [`lost_token_outage`] for the
/// report writer.
static LOST_TOKEN_SUMMARIES: std::sync::OnceLock<Vec<(String, f64)>> = std::sync::OnceLock::new();

/// DESIGN.md §17.3 as simulated time: the ring of the end-to-end
/// benchmark's `sim_core` (eight members, `token_hold` 2 ms, stock
/// timeouts) loses its token with the member that is EATING. That
/// member's predecessor waits `4·rotation + 2·give-up`, asks it, hears
/// nothing for one give-up and regenerates with the dead member already
/// out of the ballot. The stages are the repairer's own
/// (`raincore_obs::OutageTracker`), a delivery either side of the outage
/// giving it edges; they repeat to the nanosecond. One op is the
/// fail-over.
fn lost_token_outage() -> u64 {
    use raincore_sim::{Cluster, ClusterConfig};
    use raincore_types::{Duration, Time};

    const NODES: u32 = 8;
    const VICTIM: NodeId = NodeId(5);
    let mut cfg = ClusterConfig::default();
    cfg.session.token_hold = Duration::from_millis(2);
    cfg.session.hungry_timeout = Duration::from_millis(400);
    cfg.session.starving_retry = Duration::from_millis(150);
    let mut c = Cluster::founding(NODES, cfg).expect("founding cluster");
    let edge = |c: &mut Cluster| {
        c.multicast(NodeId(0), DeliveryMode::Agreed, Bytes::from_static(b"edge"))
            .expect("multicast");
    };
    c.run_until(Time::ZERO + Duration::from_secs(1));
    edge(&mut c);
    c.run_for(Duration::from_millis(100));
    while !c.eating_nodes().contains(&VICTIM) {
        c.run_for(Duration::from_micros(100));
    }
    c.crash(VICTIM);
    c.run_for(Duration::from_secs(1));
    edge(&mut c);
    c.run_for(Duration::from_millis(100));
    let rows = raincore_obs::outages(&c.merged_journal());
    assert_eq!(rows.len(), 1, "one outage, one repairer: {rows:?}");
    let [_, wait, detect, vote, repair, _] = rows[0].stages;
    let live = c.live_members();
    let sum = |f: fn(&raincore_session::SessionMetrics) -> u64| -> f64 {
        live.iter().map(|&id| f(&c.metrics(id))).sum::<u64>() as f64
    };
    let callers = live.iter().filter(|&&id| c.metrics(id).calls911_sent > 0);
    LOST_TOKEN_SUMMARIES
        .set(vec![
            ("wait_sim_ns".to_string(), wait as f64),
            ("detect_sim_ns".to_string(), detect as f64),
            ("vote_sim_ns".to_string(), vote as f64),
            (
                "let_go_to_regenerated_sim_ns".to_string(),
                (wait + detect + vote + repair) as f64,
            ),
            ("probes_sent".to_string(), sum(|m| m.probes_sent)),
            ("probes_failed".to_string(), sum(|m| m.probes_failed)),
            ("callers_911".to_string(), callers.count() as f64),
        ])
        .expect("set once");
    1
}

/// Rates of the simulated bulk loop, captured by [`bulk_closed_loop`] for
/// the report writer.
static BULK_LOOP_SUMMARIES: std::sync::OnceLock<Vec<(String, f64)>> = std::sync::OnceLock::new();

/// DESIGN.md §16.1 as counts: the `udp_bulk` workload's shape on the
/// simulator — three members, `token_hold` 2 ms, the first keeping eight
/// 8 KiB multicasts in flight, every one out of band. The token that
/// orders them is full by the freight it orders, so the ring turns at
/// the loaded round (`N·token_hold/2` = 3 ms): 8 multicasts every 3 hops
/// and 3 ms, two passes in three early. Simulated time, so the counts
/// repeat exactly. One op is one multicast delivered at every member.
fn bulk_closed_loop() -> u64 {
    use raincore_session::StartMode;
    use raincore_sim::{ClosedLoop, Cluster, ClusterBuilder, ClusterConfig};
    use raincore_types::{Duration, Time};

    const NODES: u32 = 3;
    const WINDOW: usize = 8;
    const LEN: usize = 8192;

    let mut cfg = ClusterConfig::default();
    cfg.session.token_hold = Duration::from_millis(2);
    cfg.session.bulk_threshold = 512;
    let ring = Ring::from_iter((0..NODES).map(NodeId));
    let mut b = ClusterBuilder::new(cfg);
    for i in 0..NODES {
        b = b.member(NodeId(i), StartMode::Founding(ring.clone()));
    }
    let app = ClosedLoop {
        window: WINDOW,
        len: LEN,
    };
    b = b.app(NodeId(0), Box::new(app));
    let mut c = b.build().expect("cluster");
    // (tokens sent, of which early, multicasts delivered at the last member)
    let totals = |c: &Cluster| {
        let delivered = c.metrics(NodeId(NODES - 1)).deliveries;
        (0..NODES).fold((0, 0, delivered), |(sent, early, delivered), i| {
            let m = c.metrics(NodeId(i));
            (
                sent + m.tokens_sent,
                early + m.tokens_passed_early,
                delivered,
            )
        })
    };
    c.run_until(Time::ZERO + Duration::from_millis(200));
    let before = totals(&c);
    c.run_until(Time::ZERO + Duration::from_millis(1200));
    let after = totals(&c);
    let hops = (after.0 - before.0) as f64;
    let early = (after.1 - before.1) as f64;
    let deliveries = after.2 - before.2;
    BULK_LOOP_SUMMARIES
        .set(vec![
            ("deliveries_per_sim_s".to_string(), deliveries as f64),
            ("hops_per_delivery".to_string(), hops / deliveries as f64),
            ("early_pass_share".to_string(), early / hops),
        ])
        .expect("set once");
    deliveries
}

/// One bounded model-check search, normalized per state visited.
fn model_check_states() -> u64 {
    let cfg = ModelCheckConfig {
        nodes: 3,
        max_depth: 8,
        max_schedules: 1_500,
        ..ModelCheckConfig::default()
    };
    let report = Explorer::new(cfg).run().expect("model check");
    assert!(
        report.violation.is_none(),
        "bounded space is violation-free"
    );
    report.stats.states
}

/// A connected pair of batched UDP endpoints on loopback.
fn udp_pair(cfg: BatchConfig) -> (BatchIo, BatchIo, Addr, Addr) {
    let a_addr = Addr::primary(NodeId(990));
    let b_addr = Addr::primary(NodeId(991));
    let loopback: std::net::SocketAddr = "127.0.0.1:0".parse().expect("loopback");
    let mut a = BatchIo::bind(&[(a_addr, loopback)], HashMap::new(), cfg).expect("bind a");
    let mut b = BatchIo::bind(&[(b_addr, loopback)], HashMap::new(), cfg).expect("bind b");
    a.add_peer(b_addr, b.local_socket_addr(b_addr).expect("b bound"));
    b.add_peer(a_addr, a.local_socket_addr(a_addr).expect("a bound"));
    (a, b, a_addr, b_addr)
}

/// Per-backend packet rates and the batching speedup, captured by
/// [`udp_pps`] for the report writer.
static UDP_PPS_SUMMARIES: std::sync::OnceLock<Vec<(String, f64)>> = std::sync::OnceLock::new();

/// The I/O engine measured at the syscall boundary: the same
/// send-burst → drain workload over loopback UDP through both backends —
/// the `sendmmsg`/`recvmmsg` batched path and the scalar
/// one-datagram-per-syscall fallback. One op is one datagram moved end to
/// end, counted across both legs.
///
/// One figure is asserted in-process on Linux: **packets per syscall ≥
/// 3x** batched over scalar, from the engine's own syscall/packet
/// counters. This is the deterministic form of the packets/sec claim —
/// wall-clock pps on a loaded single-core CI host is dominated by the
/// kernel's fixed per-packet loopback cost plus scheduler noise, exactly
/// the "timers are machine noise" rule the rest of this harness gates by,
/// so the throughput ratio is asserted where it is reproducible (the
/// syscall ledger) and *reported* where it is noisy (wall-clock pps per
/// leg, in the extras).
///
/// The pool holds as many blocks as a burst has frames, so steady-state
/// receiving reuses blocks instead of allocating. The gated allocs/op
/// figure locks that in — an accidental per-frame allocation on the
/// batched path trips the compare gate.
fn udp_pps() -> u64 {
    const FRAMES: u64 = 48_000;
    const BURST: usize = 32;

    // (wall-clock pps, syscalls per 1000 packets) for one BatchIo leg.
    let run = |backend: IoBackend| -> (f64, f64) {
        let cfg = BatchConfig {
            batch: BURST,
            slot: 256,
            pool_blocks: BURST,
            backend,
        };
        let (mut tx, mut rx, a_addr, b_addr) = udp_pair(cfg);
        let burst: Vec<Datagram> = (0..BURST)
            .map(|i| Datagram::data(a_addr, b_addr, Bytes::from(vec![i as u8; 32])))
            .collect();
        let mut out: Vec<Datagram> = Vec::with_capacity(2 * BURST);
        let mut moved = 0u64;
        let t0 = Instant::now();
        while moved < FRAMES {
            let sent = tx.send_batch(&burst) as u64;
            let mut got = 0u64;
            let deadline = Instant::now() + Duration::from_secs(5);
            while got < sent && Instant::now() < deadline {
                got += rx.recv_batch(&mut out, Duration::from_millis(5)) as u64;
                out.clear();
            }
            moved += got;
        }
        let pps = moved as f64 / t0.elapsed().as_secs_f64();
        let syscalls = tx.metrics().syscalls_send.get()
            + tx.metrics().syscalls_poll.get()
            + rx.metrics().syscalls_recv.get()
            + rx.metrics().syscalls_poll.get();
        let packets = tx.metrics().packets_sent.get() + rx.metrics().packets_recv.get();
        (pps, syscalls as f64 * 1000.0 / packets as f64)
    };

    let (batched_pps, batched_spk) = run(IoBackend::Batched);
    let (scalar_pps, scalar_spk) = run(IoBackend::Scalar);
    let syscall_reduction = scalar_spk / batched_spk;
    if cfg!(target_os = "linux") {
        assert!(
            syscall_reduction >= 3.0,
            "batching must move at least 3x the packets per syscall: \
             batched {batched_spk:.0} syscalls/kpacket vs scalar \
             {scalar_spk:.0} syscalls/kpacket ({syscall_reduction:.1}x)"
        );
    }
    UDP_PPS_SUMMARIES
        .set(vec![
            ("batched_pps".to_string(), batched_pps),
            ("scalar_pps".to_string(), scalar_pps),
            ("batched_syscalls_per_kpacket".to_string(), batched_spk),
            ("scalar_syscalls_per_kpacket".to_string(), scalar_spk),
            ("syscall_reduction_x".to_string(), syscall_reduction),
        ])
        .expect("set once");
    2 * FRAMES
}

/// Round-trip percentiles captured by [`udp_rtt`] for the report writer.
static UDP_RTT_SUMMARIES: std::sync::OnceLock<Vec<(String, f64)>> = std::sync::OnceLock::new();

/// Ping round-trip latency over the batched engine *under load*: every
/// ping shares its `sendmmsg` batch with background data frames, so the
/// measured p50/p99 include the queueing a real token hop sees when it
/// rides a flush alongside bulk traffic. One op is one completed round
/// trip; the percentiles land in the report as extras (never gated —
/// timings are machine noise), allocs/op rides the standard gate.
fn udp_rtt() -> u64 {
    const PINGS: u64 = 2_000;
    const LOAD: usize = 15;

    let cfg = BatchConfig {
        batch: 32,
        slot: 256,
        pool_blocks: 32,
        backend: IoBackend::default_for_platform(),
    };
    let (mut a, mut b, a_addr, b_addr) = udp_pair(cfg);
    let hist = raincore_obs::Histogram::new();
    let load = Bytes::from(vec![0xB6u8; 64]);
    let mut burst: Vec<Datagram> = Vec::with_capacity(LOAD + 1);
    let mut out_b: Vec<Datagram> = Vec::new();
    let mut out_a: Vec<Datagram> = Vec::new();
    for i in 0..PINGS {
        burst.clear();
        for _ in 0..LOAD {
            burst.push(Datagram::data(a_addr, b_addr, load.clone()));
        }
        // The ping rides last in the batch — worst queueing position.
        burst.push(Datagram::control(
            a_addr,
            b_addr,
            Bytes::copy_from_slice(&i.to_le_bytes()),
        ));
        let t0 = Instant::now();
        assert_eq!(a.send_batch(&burst), LOAD + 1, "loopback accepts the batch");
        // Reflect the ping at B the moment it surfaces; drop the load.
        let deadline = Instant::now() + Duration::from_secs(5);
        'reflect: while Instant::now() < deadline {
            b.recv_batch(&mut out_b, Duration::from_millis(5));
            for d in out_b.drain(..) {
                if d.class == PacketClass::Control {
                    let echo = Datagram::control(b_addr, a_addr, d.payload);
                    assert_eq!(b.send_batch(&[echo]), 1);
                    break 'reflect;
                }
            }
        }
        let mut echoed = false;
        let deadline = Instant::now() + Duration::from_secs(5);
        while !echoed && Instant::now() < deadline {
            a.recv_batch(&mut out_a, Duration::from_millis(5));
            for d in out_a.drain(..) {
                if d.payload[..] == i.to_le_bytes()[..] {
                    hist.record(t0.elapsed().as_nanos() as u64);
                    echoed = true;
                }
            }
        }
        assert!(echoed, "ping {i} echo lost on loopback");
    }
    let s = hist.summary();
    assert_eq!(s.count, PINGS);
    UDP_RTT_SUMMARIES
        .set(vec![
            ("rtt_p50_ns".to_string(), s.p50 as f64),
            ("rtt_p99_ns".to_string(), s.p99 as f64),
        ])
        .expect("set once");
    PINGS
}

// ----------------------------------------------------------------------
// Report + compare
// ----------------------------------------------------------------------

fn to_json(results: &[BenchResult]) -> String {
    let mut out = String::from("{\n  \"schema\": \"raincore-micro-bench/v1\",\n");
    out.push_str(&format!(
        "  \"profile\": \"{}\",\n  \"benchmarks\": [\n",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
    ));
    for (i, r) in results.iter().enumerate() {
        let extras: String = r
            .extras
            .iter()
            .map(|(k, v)| format!(", \"{k}\": {v:.3}"))
            .collect();
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"ops\": {}, \"ns_per_op\": {:.1}, \"bytes_per_op\": {:.1}, \"allocs_per_op\": {:.3}{extras}}}{}\n",
            r.name,
            r.ops,
            r.ns_per_op,
            r.bytes_per_op,
            r.allocs_per_op,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Pulls `"field": <number>` out of the benchmark object named `bench`
/// in a report this binary wrote. Good enough for our own format; not a
/// general JSON parser.
fn extract(json: &str, bench: &str, field: &str) -> Option<f64> {
    let obj_start = json.find(&format!("\"name\": \"{bench}\""))?;
    let obj = &json[obj_start..json[obj_start..].find('}')? + obj_start];
    let at = obj.find(&format!("\"{field}\":"))?;
    let tail = obj[at..].split_once(':')?.1;
    let num: String = tail
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    num.parse().ok()
}

fn main() {
    let mut out_path = String::from("BENCH.current.json");
    let mut compare: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = args.next().expect("--out PATH"),
            "--compare" => compare = Some(args.next().expect("--compare BASELINE")),
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    println!("raincore micro-benchmarks (allocation-counting harness)\n");
    let mut results = [
        measure("bench_token_hop", token_hop),
        measure("bench_wire_codec", wire_codec),
        measure("bench_chaos_tick", chaos_tick),
        measure("bench_model_check_states", model_check_states),
        measure("bench_hop_latency", hop_latency),
        measure("bench_multicast_throughput", multicast_throughput),
        measure("bench_udp_pps", udp_pps),
        measure("bench_udp_rtt", udp_rtt),
        measure("bench_failure_detect", failure_detect),
        measure("bench_bulk_closed_loop", bulk_closed_loop),
        measure("bench_lost_token_outage", lost_token_outage),
    ];
    if let Some(extras) = HOP_STAGE_SUMMARIES.get() {
        results[4].extras = extras.clone();
        for (k, v) in extras {
            println!("  bench_hop_latency {k:>16} = {v:.0}");
        }
    }
    if let Some(extras) = MULTICAST_SUMMARIES.get() {
        results[5].extras = extras.clone();
        for (k, v) in extras {
            println!("  bench_multicast_throughput {k} = {v:.1}");
        }
    }
    if let Some(extras) = UDP_PPS_SUMMARIES.get() {
        results[6].extras = extras.clone();
        for (k, v) in extras {
            println!("  bench_udp_pps {k} = {v:.1}");
        }
    }
    if let Some(extras) = UDP_RTT_SUMMARIES.get() {
        results[7].extras = extras.clone();
        for (k, v) in extras {
            println!("  bench_udp_rtt {k} = {v:.0}");
        }
    }

    if let Some(extras) = FAILURE_DETECT_SUMMARIES.get() {
        results[8].extras = extras.clone();
        for (k, v) in extras {
            println!("  bench_failure_detect {k} = {v:.0}");
        }
    }

    if let Some(extras) = BULK_LOOP_SUMMARIES.get() {
        results[9].extras = extras.clone();
        for (k, v) in extras {
            println!("  bench_bulk_closed_loop {k} = {v:.3}");
        }
    }

    if let Some(extras) = LOST_TOKEN_SUMMARIES.get() {
        results[10].extras = extras.clone();
        for (k, v) in extras {
            println!("  bench_lost_token_outage {k} = {v:.0}");
        }
    }

    let new_hop = &results[0];
    // The trace context rides the patched header: carrying it must not
    // break the 6-allocations-per-hop floor the encoder work bought.
    // The measured closure includes one-time setup (founding token,
    // first full encode), hence the sub-1% amortization allowance.
    assert!(
        new_hop.allocs_per_op <= 6.01,
        "trace context pushed the hop over the 6-alloc floor: {:.3}/hop",
        new_hop.allocs_per_op
    );
    // State-fingerprinting budget: canonicalizing and hashing a model
    // state (plus the visited-table bookkeeping) must stay within 250
    // allocations per state visited, or the state cache costs more
    // than the exploration it prunes.
    let mc = results
        .iter()
        .find(|r| r.name == "bench_model_check_states")
        .expect("model-check bench ran");
    assert!(
        mc.allocs_per_op <= 250.0,
        "state fingerprinting pushed the model checker over the \
         250-allocs-per-state budget: {:.3}/state",
        mc.allocs_per_op
    );

    // Export the allocations-per-hop gauge alongside the other metrics.
    let registry = raincore_obs::Registry::new();
    registry.set_gauge(
        "raincore_bench_allocs_per_hop",
        &[("bench", "token_hop")],
        new_hop.allocs_per_op.ceil() as i64,
    );
    println!("\n{}", registry.snapshot().to_prometheus());

    let json = to_json(&results);
    std::fs::write(&out_path, &json).expect("write report");
    println!("wrote {out_path}");

    if let Some(baseline_path) = compare {
        let baseline = std::fs::read_to_string(&baseline_path).expect("read baseline");
        // The hard >25% allocation gates: the steady-state wire hop, the
        // full simulated pipeline hop (which the trace/span plumbing
        // rides on, so a tracing regression trips it), the model-check
        // state cost (which the fingerprint machinery rides
        // on), and the batched I/O engine's loopback workloads (which
        // the buffer pool rides on — a pool regression shows up as
        // per-datagram allocations).
        for gated in [
            "bench_token_hop",
            "bench_hop_latency",
            "bench_model_check_states",
            "bench_multicast_throughput",
            "bench_udp_pps",
            "bench_udp_rtt",
        ] {
            let base = extract(&baseline, gated, "allocs_per_op")
                .unwrap_or_else(|| panic!("baseline has {gated} allocs_per_op"));
            let now = results
                .iter()
                .find(|r| r.name == gated)
                .expect("gated bench ran")
                .allocs_per_op;
            let limit = base * 1.25;
            println!(
                "compare vs {baseline_path}: {gated} {now:.3} allocs/op \
                 (baseline {base:.3}, limit {limit:.3})"
            );
            if now > limit {
                eprintln!("FAIL: {gated} allocations regressed more than 25%");
                std::process::exit(1);
            }
        }
        for r in &results {
            if let Some(b) = extract(&baseline, r.name, "allocs_per_op") {
                let delta = if b > 0.0 {
                    (r.allocs_per_op / b - 1.0) * 100.0
                } else {
                    0.0
                };
                println!("  {:28} allocs/op {:+.1}% vs baseline", r.name, delta);
            }
        }
        println!("compare OK");
    }
}

//! The four workloads on real sockets. Each builds its plan from the
//! pinned shapes and the seed, runs it untraced over `RuntimeNode` (the
//! end-to-end numbers and the exported counts) and, when asked, once more
//! over the traced mirror (the span-derived per-layer numbers).

use crate::check::{self, Key, MemberLog, Rec};
use crate::cluster;
use crate::drive::{self, Load, Plan, Reading, RunLog, Sent};
use crate::layers::Exports;
use crate::pinned as P;
use crate::schedule::{self, Mode};
use crate::trace::{self, Kind, NodeTrace};
use crate::{clock, stats, Metric, Outcome};
use raincore_types::wire::WireDecode;
use raincore_types::{SessionMsg, TokenEncoder};

const NS_PER_S: u64 = 1_000_000_000;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Which of a workload's messages its primary latency is read from.
#[derive(Clone, Copy)]
enum Primary {
    /// Every timed message of the measured window.
    Window,
    /// The mid step's 64 B `Agreed` messages (`udp_paced_mix`).
    MidStepSmallAgreed,
    /// Messages due while every member is plugged in and settled
    /// (`udp_failover`): what an unplug costs is the outage metrics' to
    /// tell, and would make this one bimodal.
    Calm,
}

struct Spec {
    plan: Plan,
    via_proxy: bool,
    primary: Primary,
}

fn spec(workload: &str, seed: u64, seconds: u64, rates: [f64; 3]) -> Spec {
    let window_ns = seconds * NS_PER_S;
    let warmup_ns = (window_ns as f64 * P::WARMUP_SHARE) as u64;
    // `slices`: meter slices per step of an open schedule (a closed
    // loop's window is one step).
    let plan = |nodes, timing, lock_node, flap_node, load: Load, slices| Plan {
        nodes,
        timing,
        lock_node,
        flap_node,
        meter_edges: match &load {
            Load::Closed { .. } => meter_edges(&[warmup_ns, warmup_ns + window_ns], slices),
            Load::Open(s) => meter_edges(&s.step_ends, slices),
        },
        load,
        seed,
        warmup_ns,
        window_ns,
    };
    match workload {
        "udp_small" => Spec {
            plan: plan(
                P::SMALL_NODES,
                P::SMALL_NODES - 1,
                None,
                None,
                Load::Closed {
                    origins: (0..P::SMALL_NODES).collect(),
                    len: P::SMALL_LEN,
                    window: P::SMALL_WINDOW,
                },
                P::METER_SLICES,
            ),
            via_proxy: false,
            primary: Primary::Window,
        },
        "udp_bulk" => Spec {
            plan: plan(
                P::BULK_NODES,
                1,
                None,
                None,
                Load::Closed {
                    origins: vec![0],
                    len: P::BULK_LEN,
                    window: P::BULK_WINDOW,
                },
                P::METER_SLICES,
            ),
            via_proxy: false,
            primary: Primary::Window,
        },
        "udp_paced_mix" => Spec {
            plan: plan(
                P::MIX_NODES,
                P::MIX_NODES - 1,
                Some(P::MIX_NODES - 1),
                None,
                Load::Open(schedule::paced_mix(seed, rates, warmup_ns, window_ns)),
                P::METER_SLICES_PER_STEP,
            ),
            via_proxy: false,
            primary: Primary::MidStepSmallAgreed,
        },
        "udp_failover" => Spec {
            plan: plan(
                P::FAILOVER_NODES,
                2,
                None,
                Some(3),
                Load::Open(schedule::failover(seed, warmup_ns, window_ns)),
                1,
            ),
            via_proxy: true,
            primary: Primary::Calm,
        },
        other => panic!("unknown workload {other}"),
    }
}

/// Where the meters are read (ns after the start of the warm-up): every
/// step `[ends[k], ends[k+1])` cut into `parts` equal slices. The slices
/// of one step hold the same work, so that their median is the step's and
/// not a mixture's.
fn meter_edges(ends: &[u64], parts: u64) -> Vec<u64> {
    ends.windows(2)
        .flat_map(|w| (0..parts).map(move |k| w[0] + (w[1] - w[0]) * k / parts))
        .chain(ends.last().copied())
        .collect()
}

/// One run of a plan and everything read off it before the cluster went.
struct Ran {
    setup_s: f64,
    log: RunLog,
    exports: Exports,
    traces: Vec<NodeTrace>,
}

fn run_once(spec: &Spec, traced: bool) -> Ran {
    let plan = &spec.plan;
    let (cluster, setup_s) =
        cluster::set_up_repeatedly(plan.nodes, traced, spec.via_proxy, plan.seed);
    let log = drive::run(plan, &cluster);
    let exports = Exports(cluster.nodes.iter().filter_map(|n| n.snapshot()).collect());
    let traces = cluster.shut_down();
    Ran {
        setup_s,
        log,
        exports,
        traces,
    }
}

/// A delivery at the timing member joined to its submit.
struct Timed<'a> {
    at: u64,
    lat: u64,
    sent: &'a Sent,
}

struct Analysis<'a> {
    spec: &'a Spec,
    ran: &'a Ran,
    /// Deliveries at the timing member of messages another member sent.
    timed: Vec<Timed<'a>>,
    /// `(completion instant, latency)` samples the workload's primary
    /// latency is read from, and the interval they were delivered in.
    primary: Vec<(u64, u64)>,
    primary_span: (u64, u64),
    /// The three rate steps of `udp_paced_mix`; empty elsewhere.
    steps: Vec<RateStep>,
    /// Per unplug cycle: the longest gap between deliveries at the
    /// observer from the unplug to the cycle's end, and how long after the
    /// replug the flapping member delivered a message submitted after it.
    outages: Vec<(u64, Option<u64>)>,
}

impl<'a> Analysis<'a> {
    fn new(spec: &'a Spec, ran: &'a Ran) -> Self {
        let timing = spec.plan.timing;
        let timed = ran.log.per_node[timing as usize]
            .iter()
            .filter_map(|d| {
                let sent = ran.log.sent.get(d.index as usize)?;
                (sent.origin != timing).then(|| Timed {
                    at: d.at,
                    lat: d.at.saturating_sub(sent.due),
                    sent,
                })
            })
            .collect();
        let mut analysis = Analysis {
            spec,
            ran,
            timed,
            primary: Vec::new(),
            primary_span: (0, 0),
            steps: Vec::new(),
            outages: Vec::new(),
        };
        (analysis.primary, analysis.primary_span) = analysis.find_primary();
        analysis.steps = analysis.find_rate_steps();
        analysis.outages = analysis.find_outages();
        analysis
    }

    fn log(&self) -> &RunLog {
        &self.ran.log
    }

    /// Deliveries at the timing member in `[from, to)`.
    fn deliveries(&self, from: u64, to: u64) -> u64 {
        self.log().per_node[self.spec.plan.timing as usize]
            .iter()
            .filter(|d| d.at >= from && d.at < to)
            .count() as u64
    }

    /// `[from, to)` of step `k` of an open schedule (1 = first step after
    /// the warm-up); the whole window for a closed loop.
    fn step(&self, k: usize) -> (u64, u64) {
        match &self.spec.plan.load {
            Load::Open(s) => (
                self.log().run0 + s.step_ends[k - 1],
                self.log().run0 + s.step_ends[k],
            ),
            Load::Closed { .. } => (self.log().t0, self.log().t1),
        }
    }

    /// `(completion instant, latency)` of the timed messages delivered in
    /// `[from, to)` that `keep` selects, by completion instant.
    fn samples(&self, from: u64, to: u64, keep: impl Fn(&Sent) -> bool) -> Vec<(u64, u64)> {
        self.timed
            .iter()
            .filter(|t| t.at >= from && t.at < to && keep(t.sent))
            .map(|t| (t.at, t.lat))
            .collect()
    }

    fn find_primary(&self) -> (Vec<(u64, u64)>, (u64, u64)) {
        let log = self.log();
        let (t0, t1) = (log.t0, log.t1);
        match self.spec.primary {
            Primary::Window => (self.samples(t0, t1, |_| true), (t0, t1)),
            Primary::MidStepSmallAgreed => {
                let (from, to) = self.step(2);
                let small = |s: &Sent| s.step == 2 && s.len == P::MIX_SMALL_LEN;
                (self.samples(from, to, small), (from, to))
            }
            Primary::Calm => {
                let settle = P::FAILOVER_SETTLE_MS * 1_000_000;
                let calm = |s: &Sent| {
                    let last_unplug = log.unplugged.iter().rposition(|&u| u <= s.due);
                    last_unplug
                        .is_none_or(|i| log.replugged.get(i).is_some_and(|&r| r + settle <= s.due))
                };
                (self.samples(t0, t1, calm), (t0, t1))
            }
        }
    }

    /// What the program used per delivery at the timing member, in each
    /// meter slice of the primary span.
    fn per_slice(&self, used: fn(&Reading) -> u64) -> Vec<f64> {
        let (from, to) = self.primary_span;
        self.log()
            .meter
            .windows(2)
            .filter(|w| (from..to).contains(&((w[0].at + w[1].at) / 2)))
            .map(|w| {
                (used(&w[1]) - used(&w[0])) as f64 / self.deliveries(w[0].at, w[1].at).max(1) as f64
            })
            .collect()
    }

    /// CPU of the program's driver threads per thousand deliveries, ms.
    fn cpu_ms_per_k_slices(&self) -> Vec<f64> {
        let ns_per_delivery = self.per_slice(|r| r.cpu_ns);
        ns_per_delivery.into_iter().map(|ns| ns / 1e3).collect()
    }

    fn p50_ms(samples: &[(u64, u64)]) -> f64 {
        let mut v: Vec<u64> = samples.iter().map(|&(_, lat)| lat).collect();
        ms(stats::median(&mut v))
    }

    fn verdict(&self) -> check::Verdict {
        let log = self.log();
        let expected: Vec<Key> = log
            .sent
            .iter()
            .filter_map(|s| Some((s.origin, s.seq?)))
            .collect();
        let rejected = log.sent.iter().filter(|s| s.seq.is_none()).count() as u64;
        let logs: Vec<MemberLog> = log
            .per_node
            .iter()
            .enumerate()
            .map(|(node, delivered)| MemberLog {
                node: node as u32,
                full: Some(node as u32) != self.spec.plan.flap_node,
                recs: delivered
                    .iter()
                    .map(|d| Rec {
                        key: (d.origin, d.seq),
                        intact: d.content_ok
                            && log.sent.get(d.index as usize).is_some_and(|s| {
                                (s.origin, s.seq, s.len) == (d.origin, Some(d.seq), d.len)
                            }),
                    })
                    .collect(),
            })
            .collect();
        let mut verdict = check::check(&expected, rejected, &logs, true);
        for (node, ev) in log.events.iter().enumerate() {
            if ev.shut_down > 0 {
                verdict.failed += 1;
                verdict.breaches.push(format!("node {node} shut down"));
            }
        }
        verdict
    }

    fn end_to_end(&self) -> Vec<Metric> {
        let log = self.log();
        let (t0, t1) = (log.t0, log.t1);
        let window_s = (t1 - t0) as f64 / 1e9;
        let delivered_per_s = self.deliveries(t0, t1) as f64 / window_s;

        let (from, to) = self.primary_span;
        let lat_p50 = Self::p50_ms(&self.primary);
        // The calm stretches of `udp_failover` hold a few hundred samples
        // each, and whether a merge's aftermath falls into one decides
        // their tail: it does not repeat, and stays in the ledger
        // (`load.lat_tail_ms`).
        let lat_p99 = (!matches!(self.spec.primary, Primary::Calm))
            .then(|| ms(stats::sliced_p99(&self.primary, from, to).0));

        let safe = self.samples(from, to, |s| s.mode == Mode::Safe && s.step == 2);
        let safe_lat = (!safe.is_empty()).then(|| Self::p50_ms(&safe));
        let mut lock_waits: Vec<u64> = log
            .lock_requested
            .iter()
            .zip(&log.lock_acquired)
            .filter(|(&asked, _)| asked >= t0 && asked < t1)
            .map(|(&asked, &got)| got.saturating_sub(asked))
            .collect();
        let lock = (!lock_waits.is_empty()).then(|| ms(stats::median(&mut lock_waits)));
        // No step within the limit reads half the lowest one: a rate,
        // below every step, and never 0.
        let max_rate = self.steps.first().map(|lowest| {
            let best = self.steps.iter().rev().find(|s| s.ok);
            best.map_or(lowest.rate / 2.0, |s| s.rate)
        });
        let mut gaps: Vec<u64> = self.outages.iter().map(|o| o.0).collect();
        let outage = (!gaps.is_empty()).then(|| ms(stats::median(&mut gaps)));

        // Through the proxy the packets are metered cycle by cycle, like
        // the CPU; elsewhere the members' own counters cover the whole run.
        let wire_packets = if self.spec.via_proxy {
            stats::median_f64(&mut self.per_slice(|r| r.proxied))
        } else {
            self.ran.exports.packets_sent() as f64 / self.deliveries(0, u64::MAX).max(1) as f64
        };
        vec![
            Metric::new("setup_s", "s", self.ran.setup_s),
            Metric::new("delivered_per_s", "1/s", delivered_per_s),
            Metric::new("lat_p50_ms", "ms", lat_p50),
            Metric::or_stand_in("lat_p99_ms", "ms", lat_p99, lat_p50, "tail not steady"),
            Metric::or_stand_in(
                "safe_lat_p50_ms",
                "ms",
                safe_lat,
                lat_p50,
                "no Safe messages",
            ),
            Metric::or_stand_in("lock_acquire_p50_ms", "ms", lock, lat_p50, "no lock cycles"),
            Metric::or_stand_in(
                "max_rate_ok_per_s",
                "1/s",
                max_rate,
                delivered_per_s,
                "no rate steps",
            ),
            Metric::or_stand_in("outage_p50_ms", "ms", outage, lat_p50, "no unplug cycles"),
            // A timer-paced ring spends its CPU on wake-ups, and what a
            // wake-up costs is the host's to say: between two sets of ten
            // runs of the same code the median moved by a quarter. The
            // measured value is `runtime.cpu_ms_per_kdelivery`.
            Metric::or_stand_in(
                "cpu_ms_per_kdelivery",
                "ms",
                None,
                lat_p50,
                "follows the host",
            ),
            Metric::new("wire_packets_per_delivery", "count", wire_packets),
        ]
    }

    fn find_outages(&self) -> Vec<(u64, Option<u64>)> {
        let log = self.log();
        let Some(flap) = self.spec.plan.flap_node else {
            return Vec::new();
        };
        let observer: Vec<u64> = log.per_node[self.spec.plan.timing as usize]
            .iter()
            .map(|d| d.at)
            .collect();
        log.unplugged
            .iter()
            .enumerate()
            .map(|(i, &unplug)| {
                let end = log.unplugged.get(i + 1).copied().unwrap_or(log.t1);
                let gap = stats::longest_gap(&observer, unplug, end);
                let rejoin = log.replugged.get(i).and_then(|&replug| {
                    log.per_node[flap as usize]
                        .iter()
                        .find(|d| {
                            log.sent
                                .get(d.index as usize)
                                .is_some_and(|s| s.due >= replug)
                        })
                        .map(|d| d.at.saturating_sub(replug))
                });
                (gap, rejoin)
            })
            .collect()
    }

    fn find_rate_steps(&self) -> Vec<RateStep> {
        let Primary::MidStepSmallAgreed = self.spec.primary else {
            return Vec::new();
        };
        let log = self.log();
        let timing = &log.per_node[self.spec.plan.timing as usize];
        let backlog = |t: u64| {
            let submitted = log
                .sent
                .iter()
                .filter(|s| s.seq.is_some() && s.due < t)
                .count();
            submitted as i64 - timing.iter().filter(|d| d.at < t).count() as i64
        };
        (1..=3)
            .map(|k| {
                let (from, to) = self.step(k);
                let small =
                    self.samples(from, to, |s| s.step == k as u8 && s.len == P::MIX_SMALL_LEN);
                let p99_ms = ms(stats::sliced_p99(&small, from, to).0);
                let growth = backlog(to) - backlog(from);
                let rate = self.deliveries(from, to) as f64 / ((to - from) as f64 / 1e9);
                RateStep {
                    rate,
                    p99_ms,
                    backlog_growth: growth,
                    ok: p99_ms <= P::MIX_P99_LIMIT_MS
                        && growth as f64 <= rate * P::MIX_BACKLOG_SLACK_MS / 1e3,
                }
            })
            .collect()
    }

    /// The generator's own validity guards and the untraced `multicast`
    /// call time.
    fn load_metrics(&self) -> Vec<Metric> {
        let log = self.log();
        let mut late: Vec<u64> = log.sent.iter().map(|s| s.late).collect();
        late.sort_unstable();
        let mut calls: Vec<u64> = log.sent.iter().map(|s| s.call_ns).collect();
        let mut primary: Vec<u64> = self.primary.iter().map(|&(_, lat)| lat).collect();
        primary.sort_unstable();
        let tail = stats::highest_supported_percentile(primary.len());
        let (steps, outages) = (&self.steps, &self.outages);
        let step_p99 = |k: usize| steps.get(k).map_or(0.0, |s| s.p99_ms);
        vec![
            Metric::new(
                "runtime.submit_call_us_p50",
                "us",
                stats::median(&mut calls) as f64 / 1e3,
            ),
            Metric::new(
                "runtime.cpu_ms_per_kdelivery",
                "ms",
                stats::median_f64(&mut self.cpu_ms_per_k_slices()),
            ),
            Metric::new(
                "load.gen_late_p99_ms",
                "ms",
                ms(stats::percentile(&late, 0.99)),
            ),
            Metric::new("load.lat_p99_ms.low", "ms", step_p99(0)),
            Metric::new("load.lat_p99_ms.high", "ms", step_p99(2)),
            Metric::new(
                "load.max_rate_step",
                "count",
                steps
                    .iter()
                    .rposition(|s| s.ok)
                    .map_or(0.0, |k| k as f64 + 1.0),
            ),
            Metric::new(
                "load.outage_max_ms",
                "ms",
                ms(outages.iter().map(|o| o.0).max().unwrap_or(0)),
            ),
            Metric::new(
                "load.rejoin_p50_ms",
                "ms",
                ms(stats::median(
                    &mut outages.iter().filter_map(|o| o.1).collect::<Vec<_>>(),
                )),
            ),
            Metric::new(
                "load.rejoin_max_ms",
                "ms",
                ms(outages.iter().filter_map(|o| o.1).max().unwrap_or(0)),
            ),
            Metric::new("load.lock_skipped", "count", log.lock_skipped as f64),
            Metric::new("load.samples", "count", primary.len() as f64),
            Metric::new("load.lat_tail_percentile", "%", tail * 100.0),
            Metric::new(
                "load.lat_tail_ms",
                "ms",
                ms(stats::percentile(&primary, tail)),
            ),
        ]
    }
}

#[derive(Clone, Copy)]
struct RateStep {
    /// Measured delivered rate over the step, msgs/s.
    rate: f64,
    p99_ms: f64,
    /// Growth of the backlog (accepted, not yet delivered at the timing
    /// member) over the step, messages.
    backlog_growth: i64,
    ok: bool,
}

/// The span-derived per-layer metrics of a traced run.
fn traced_metrics(ran: &Ran, deliveries: u64) -> Vec<Metric> {
    let traces = &ran.traces;
    let wall: u64 = traces.iter().map(NodeTrace::wall_ns).sum();
    let mut self_ns = [0u64; trace::KINDS];
    let mut count = [0u64; trace::KINDS];
    for t in traces {
        let totals = t.totals();
        for k in 0..trace::KINDS {
            self_ns[k] += totals.self_ns[k];
            count[k] += totals.count[k];
        }
    }
    let share = |kinds: &[Kind]| {
        kinds.iter().map(|&k| self_ns[k as usize]).sum::<u64>() as f64 / wall.max(1) as f64
    };
    let per_delivery = |n: u64| n as f64 / deliveries.max(1) as f64;
    let p50_us = |kind| trace::p50_ns(traces, kind) as f64 / 1e3;
    let mut handoff = ran.log.handoff_ns.clone();

    // The codec, timed through its public interface on captured frames.
    let frames: Vec<&bytes::Bytes> = traces.iter().flat_map(|t| &t.token_frames).collect();
    let (mut decode_ns, mut encode_ns) = (Vec::new(), Vec::new());
    let mut encoder = TokenEncoder::new();
    for frame in frames {
        let before = clock::now_ns();
        let decoded = SessionMsg::decode_from_bytes(frame);
        decode_ns.push(clock::now_ns() - before);
        if let Ok(SessionMsg::Token(token)) = std::hint::black_box(decoded) {
            let before = clock::now_ns();
            std::hint::black_box(encoder.encode(&token));
            encode_ns.push(clock::now_ns() - before);
        }
    }
    vec![
        Metric::new("runtime.idle_wait_share", "ratio", share(&[Kind::PumpIdle])),
        Metric::new(
            "runtime.recv_wait_share",
            "ratio",
            share(&[Kind::PumpIdle, Kind::PumpData]),
        ),
        Metric::new(
            "runtime.loop_iters_per_delivery",
            "count",
            per_delivery(count[Kind::Loop as usize]),
        ),
        Metric::new(
            "runtime.event_handoff_us_p50",
            "us",
            stats::median(&mut handoff) as f64 / 1e3,
        ),
        Metric::new("net.flush_us_p50", "us", p50_us(Kind::Flush)),
        Metric::new("net.recv_call_us_p50", "us", p50_us(Kind::PumpData)),
        Metric::new(
            "transport.frames_per_delivery",
            "count",
            per_delivery(traces.iter().map(|t| t.out_data_frames).sum()),
        ),
        Metric::new(
            "transport.acks_per_delivery",
            "count",
            per_delivery(traces.iter().map(|t| t.out_ack_frames).sum()),
        ),
        Metric::new(
            "session.on_datagram_us_p50.token",
            "us",
            p50_us(Kind::DgToken),
        ),
        Metric::new(
            "session.on_datagram_us_p50.bulk",
            "us",
            p50_us(Kind::DgBulk),
        ),
        Metric::new("session.on_datagram_us_p50.ack", "us", p50_us(Kind::DgAck)),
        Metric::new("session.on_tick_us_p50", "us", p50_us(Kind::Tick)),
        Metric::new(
            "types.token_decode_ns_p50",
            "ns",
            stats::median(&mut decode_ns) as f64,
        ),
        Metric::new(
            "types.token_encode_ns_p50",
            "ns",
            stats::median(&mut encode_ns) as f64,
        ),
        Metric::new(
            "trace.coverage_ratio",
            "ratio",
            self_ns.iter().sum::<u64>() as f64 / wall.max(1) as f64,
        ),
    ]
}

pub fn run(workload: &str, seed: u64, seconds: u64, traced: bool, rates: [f64; 3]) -> Outcome {
    let spec = spec(workload, seed, seconds, rates);
    let ran = run_once(&spec, false);
    let analysis = Analysis::new(&spec, &ran);
    let mut verdict = analysis.verdict();
    let end_to_end = analysis.end_to_end();
    let run_s = (clock::now_ns() - ran.log.run0) as f64 / 1e9;
    let mut per_layer = ran.exports.metrics(analysis.deliveries(0, u64::MAX), run_s);
    per_layer.extend(analysis.load_metrics());
    if traced {
        let again = run_once(&spec, true);
        let traced_analysis = Analysis::new(&spec, &again);
        let traced_verdict = traced_analysis.verdict();
        verdict.failed += traced_verdict.failed;
        verdict.breaches.extend(traced_verdict.breaches);
        per_layer.extend(traced_metrics(
            &again,
            traced_analysis.deliveries(0, u64::MAX),
        ));
        let rate = |a: &Analysis| a.deliveries(a.log().t0, a.log().t1) as f64;
        per_layer.push(Metric::new(
            "trace.drift_ratio",
            "ratio",
            rate(&traced_analysis) / rate(&analysis).max(1.0),
        ));
        let dir = std::path::Path::new("benchmark/results");
        std::fs::create_dir_all(dir).expect("create benchmark/results");
        std::fs::write(
            dir.join(format!("trace-{workload}.json")),
            trace::render(workload, seed, &again.traces),
        )
        .expect("write the trace file");
    }
    let rejoins: Vec<String> = analysis
        .outages
        .iter()
        .map(|o| format!("{:.1}/{:.1}", ms(o.0), ms(o.1.unwrap_or(0))))
        .collect();
    let cpu_slices: Vec<String> = analysis
        .cpu_ms_per_k_slices()
        .iter()
        .map(|v| format!("{v:.1}"))
        .collect();
    let notes: Vec<String> = analysis
        .steps
        .iter()
        .map(|s| {
            format!(
                "step: delivered {:.1}/s, p99 {:.3} ms, backlog growth {}, within limit: {}",
                s.rate, s.p99_ms, s.backlog_growth, s.ok
            )
        })
        .chain(
            (!rejoins.is_empty())
                .then(|| format!("outage/rejoin ms per cycle: {}", rejoins.join(" "))),
        )
        .chain([format!(
            "cpu ms/kdelivery per slice: {}",
            cpu_slices.join(" ")
        )])
        .collect();
    Outcome {
        verdict,
        notes,
        end_to_end,
        per_layer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_edges_cut_every_step_and_keep_the_last_end() {
        assert_eq!(meter_edges(&[10, 40, 70], 3), [10, 20, 30, 40, 50, 60, 70]);
        assert_eq!(meter_edges(&[5, 9, 20], 1), [5, 9, 20]);
    }
}

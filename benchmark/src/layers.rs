//! Per-layer counts of the UDP workloads, read from outside through the
//! program's own export: the metric registry every `RuntimeNode` renders
//! in `obs_dump()`. Counters are summed over the members and cover the
//! whole run (set-up, warm-up, window, drain), so the ratios divide by
//! the whole run's deliveries at the timing member.

use crate::Metric;
use raincore_obs::{Snapshot, SnapshotEntry, SnapshotValue};

/// The members' registries after the run.
pub struct Exports(pub Vec<Snapshot>);

impl Exports {
    /// The entries called `name` (carrying `label = value`, if given) of
    /// every member.
    fn entries<'a>(
        &'a self,
        name: &'a str,
        label: Option<(&'a str, &'a str)>,
    ) -> impl Iterator<Item = &'a SnapshotEntry> {
        self.0
            .iter()
            .flat_map(move |s| s.entries_named(name))
            .filter(move |e| {
                label.is_none_or(|(l, v)| e.key.labels.iter().any(|(k, w)| k == l && w == v))
            })
    }

    /// Sum over the members of the counters called `name`.
    fn counter(&self, name: &str, label: Option<(&str, &str)>) -> u64 {
        self.entries(name, label)
            .map(|e| match e.value {
                SnapshotValue::Counter(v) => v,
                _ => 0,
            })
            .sum()
    }

    /// `(count, sum, median over members of the per-member p50)` of the
    /// histograms called `name`. The p50 is a log2 bucket bound: good
    /// enough for a layer, never used for an end-to-end metric.
    fn histogram(&self, name: &str, label: Option<(&str, &str)>) -> (u64, u64, u64) {
        let (mut count, mut sum, mut p50s) = (0, 0, Vec::new());
        for e in self.entries(name, label) {
            if let SnapshotValue::Histogram { summary, .. } = &e.value {
                count += summary.count;
                sum += summary.sum;
                if summary.count > 0 {
                    p50s.push(summary.p50);
                }
            }
        }
        (count, sum, crate::stats::median(&mut p50s))
    }

    /// Packets every member handed to the kernel.
    pub fn packets_sent(&self) -> u64 {
        self.counter("raincore_io_packets", Some(("op", "send")))
    }

    /// The count-based per-layer metrics. `deliveries` is the whole run's
    /// deliveries at the timing member, `run_s` the whole run's length.
    pub fn metrics(&self, deliveries: u64, run_s: f64) -> Vec<Metric> {
        let per = |n: u64| n as f64 / deliveries.max(1) as f64;
        let per_k = |n: u64| 1000.0 * n as f64 / deliveries.max(1) as f64;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let session = |field: &str| self.counter(&format!("raincore_session_{field}"), None);
        let transport = |field: &str| self.counter(&format!("raincore_transport_{field}"), None);
        let packets =
            self.packets_sent() + self.counter("raincore_io_packets", Some(("op", "recv")));
        let syscalls = self.counter("raincore_io_syscalls", None);
        let (send_calls, send_sum, _) =
            self.histogram("raincore_io_batch_size", Some(("dir", "send")));
        let (recv_calls, recv_sum, _) =
            self.histogram("raincore_io_batch_size", Some(("dir", "recv")));
        let us = |ns: u64| ns as f64 / 1e3;
        let hits = session("token_body_cache_hits");
        vec![
            Metric::new("net.syscalls_per_packet", "ratio", ratio(syscalls, packets)),
            Metric::new(
                "net.packets_per_delivery",
                "count",
                per(self.packets_sent()),
            ),
            Metric::new("net.send_batch_mean", "count", ratio(send_sum, send_calls)),
            Metric::new("net.recv_batch_mean", "count", ratio(recv_sum, recv_calls)),
            Metric::new(
                "net.send_dropped",
                "count",
                self.counter("raincore_io_send_dropped", None) as f64,
            ),
            Metric::new(
                "transport.retx_per_kdelivery",
                "count",
                per_k(transport("retransmissions")),
            ),
            Metric::new(
                "transport.dups_per_kdelivery",
                "count",
                per_k(transport("duplicates_dropped")),
            ),
            Metric::new(
                "transport.msgs_failed",
                "count",
                transport("msgs_failed") as f64,
            ),
            Metric::new(
                "transport.rtt_p50_us",
                "us",
                us(self.histogram("raincore_transport_rtt_ns", None).2),
            ),
            Metric::new(
                "session.token_rotation_p50_us",
                "us",
                us(self.histogram("raincore_token_rotation_ns", None).2),
            ),
            Metric::new(
                "session.tokens_per_s",
                "1/s",
                session("tokens_received") as f64 / run_s,
            ),
            Metric::new(
                "session.deliveries_per_token",
                "count",
                ratio(session("deliveries"), session("tokens_received")),
            ),
            Metric::new(
                "session.task_switches_per_delivery",
                "count",
                ratio(session("task_switches"), session("deliveries")),
            ),
            Metric::new(
                "session.hungry_wait_p50_us",
                "us",
                us(self.histogram("raincore_hungry_wait_ns", None).2),
            ),
            Metric::new(
                "session.token_bytes_p50",
                "B",
                self.histogram("raincore_token_encode_bytes", None).2 as f64,
            ),
            Metric::new(
                "session.body_cache_hit_ratio",
                "ratio",
                ratio(hits, hits + session("token_body_cache_misses")),
            ),
            Metric::new(
                "session.safe_held_back",
                "count",
                session("safe_held_back") as f64,
            ),
            Metric::new(
                "session.regens_911",
                "count",
                session("regenerations") as f64,
            ),
            Metric::new(
                "session.calls_911",
                "count",
                session("calls911_sent") as f64,
            ),
            Metric::new("session.merges", "count", session("merges") as f64),
            Metric::new(
                "bulk.frames_per_delivery",
                "count",
                per(session("bulk_frames_sent")),
            ),
            Metric::new(
                "bulk.nacks_per_kdelivery",
                "count",
                per_k(session("bulk_nacks_sent")),
            ),
            Metric::new(
                "bulk.dups_per_kdelivery",
                "count",
                per_k(session("bulk_duplicates")),
            ),
        ]
    }
}

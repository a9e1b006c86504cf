//! Lock-free log₂-bucketed histograms.
//!
//! Bucket `i` covers values whose floor(log₂) is `i`, i.e. `[2^i, 2^(i+1))`
//! (bucket 0 also holds the value 0). 64 buckets span the full `u64` domain,
//! so a histogram of nanosecond latencies resolves everything from single
//! nanoseconds to centuries with a fixed 576-byte footprint and no allocation
//! on the record path. Relative error of a reported percentile is bounded by
//! the bucket width (a factor of 2), which is plenty for the order-of-
//! magnitude latency claims the paper's evaluation makes — and min/max are
//! tracked exactly.

// Lock-free statistics, never read for control flow: the obs layer is where
// shared atomics live.
#![allow(clippy::disallowed_types)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of log₂ buckets: one per possible bit position of a `u64`.
pub const BUCKETS: usize = 64;

struct HistInner {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// A shareable, lock-free histogram handle. `clone()` shares the underlying
/// buckets (like a metrics handle), it does not copy the data.
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistInner>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Index of the bucket holding `v`: floor(log₂ v), with 0 mapping to bucket 0.
fn bucket_index(v: u64) -> usize {
    (63 - (v | 1).leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i`.
fn bucket_upper(i: usize) -> u64 {
    if i >= 63 {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            inner: Arc::new(HistInner {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                min: AtomicU64::new(u64::MAX),
                max: AtomicU64::new(0),
            }),
        }
    }

    /// Record one observation. Lock-free; callable from any thread.
    pub fn record(&self, v: u64) {
        let h = &*self.inner;
        h.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        h.count.fetch_add(1, Ordering::Relaxed);
        h.sum.fetch_add(v, Ordering::Relaxed);
        h.min.fetch_min(v, Ordering::Relaxed);
        h.max.fetch_max(v, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Fold another histogram's observations into this one.
    pub fn merge_from(&self, other: &Histogram) {
        let (a, b) = (&*self.inner, &*other.inner);
        for i in 0..BUCKETS {
            let n = b.buckets[i].load(Ordering::Relaxed);
            if n > 0 {
                a.buckets[i].fetch_add(n, Ordering::Relaxed);
            }
        }
        a.count
            .fetch_add(b.count.load(Ordering::Relaxed), Ordering::Relaxed);
        a.sum
            .fetch_add(b.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        a.min
            .fetch_min(b.min.load(Ordering::Relaxed), Ordering::Relaxed);
        a.max
            .fetch_max(b.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Upper-bound estimate of percentile `p` (0.0 ..= 1.0): the inclusive
    /// upper edge of the bucket containing the p-th ranked observation,
    /// clamped to the exact observed maximum.
    pub fn percentile(&self, p: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((p * count as f64).ceil() as u64).clamp(1, count);
        let mut cum = 0u64;
        for i in 0..BUCKETS {
            cum += self.inner.buckets[i].load(Ordering::Relaxed);
            if cum >= rank {
                return bucket_upper(i).min(self.inner.max.load(Ordering::Relaxed));
            }
        }
        self.inner.max.load(Ordering::Relaxed)
    }

    /// Consistent point-in-time summary.
    pub fn summary(&self) -> HistSummary {
        let count = self.count();
        let min = self.inner.min.load(Ordering::Relaxed);
        HistSummary {
            count,
            sum: self.sum(),
            min: if count == 0 { 0 } else { min },
            max: self.inner.max.load(Ordering::Relaxed),
            p50: self.percentile(0.50),
            p90: self.percentile(0.90),
            p99: self.percentile(0.99),
        }
    }

    /// Non-empty buckets as `(inclusive upper bound, cumulative count)`,
    /// the shape Prometheus histogram exposition wants.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for i in 0..BUCKETS {
            let n = self.inner.buckets[i].load(Ordering::Relaxed);
            if n > 0 {
                cum += n;
                out.push((bucket_upper(i), cum));
            }
        }
        out
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Histogram({:?})", self.summary())
    }
}

/// Point-in-time percentile summary of a [`Histogram`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistSummary {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
}

impl HistSummary {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Human-readable duration from nanoseconds: `850ns`, `14.2µs`, `1.8ms`, `2.35s`.
pub fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns}ns"),
        1_000..=999_999 => format!("{:.1}µs", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.1}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        // 0 and 1 share bucket 0; powers of two open a new bucket.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(7), 2);
        assert_eq!(bucket_index(8), 3);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), 63);
        // Upper bounds are inclusive and contiguous with the next lower bound.
        assert_eq!(bucket_upper(0), 1);
        assert_eq!(bucket_upper(1), 3);
        assert_eq!(bucket_upper(9), 1023);
        assert_eq!(bucket_upper(63), u64::MAX);
        for i in 0..63 {
            assert_eq!(
                bucket_index(bucket_upper(i)),
                i,
                "upper bound stays in bucket {i}"
            );
            assert_eq!(bucket_index(bucket_upper(i) + 1), i + 1);
        }
    }

    #[test]
    fn percentile_math_uniform() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 1000);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1000);
        // p50 of 1..=1000 is rank 500 → value 500 → bucket [256,511] → upper 511.
        assert_eq!(s.p50, 511);
        // p90 → rank 900 → bucket [512,1023] → clamped to max 1000.
        assert_eq!(s.p90, 1000);
        assert_eq!(s.p99, 1000);
        assert!((s.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn percentile_edge_cases() {
        let h = Histogram::new();
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.summary(), HistSummary::default());
        h.record(42);
        assert_eq!(h.percentile(0.0), 42); // rank clamps to 1 → bucket of 42, max-clamped
        assert_eq!(h.percentile(0.5), 42); // single sample: every percentile = max
        assert_eq!(h.percentile(1.0), 42);
        let s = h.summary();
        assert_eq!((s.min, s.max, s.p50, s.p99), (42, 42, 42, 42));
    }

    #[test]
    fn merge_and_cumulative() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(1);
        a.record(100);
        b.record(1000);
        a.merge_from(&b);
        let s = a.summary();
        assert_eq!(s.count, 3);
        assert_eq!(s.sum, 1101);
        assert_eq!((s.min, s.max), (1, 1000));
        let cum = a.cumulative_buckets();
        assert_eq!(cum.last().unwrap().1, 3, "cumulative count reaches total");
        assert!(cum.windows(2).all(|w| w[0].1 <= w[1].1 && w[0].0 < w[1].0));
    }

    #[test]
    fn handle_clone_shares_and_threads_record() {
        let h = Histogram::new();
        let h2 = h.clone();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for v in 0..1000u64 {
                        h.record(v);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h2.count(), 4000);
    }

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(0), "0ns");
        assert_eq!(fmt_ns(850), "850ns");
        assert_eq!(fmt_ns(14_200), "14.2µs");
        assert_eq!(fmt_ns(1_800_000), "1.8ms");
        assert_eq!(fmt_ns(2_350_000_000), "2.35s");
    }
}

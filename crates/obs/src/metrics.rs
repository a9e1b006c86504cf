//! Labeled metric registry.
//!
//! Registration (name + label set → handle) takes a short mutex; the handles
//! themselves are `Arc`'d atomics, so recording on the hot path never locks.
//! A [`Snapshot`] is a stable, sorted copy of everything registered, suitable
//! for rendering (see `export.rs`) or diffing across virtual-time steps.

// Lock-free statistics, never read for control flow: the obs layer is where
// shared atomics live.
#![allow(clippy::disallowed_types)]

use crate::hist::{HistSummary, Histogram};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Monotonically increasing counter handle (lock-free).
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn new() -> Self {
        Counter(Arc::new(AtomicU64::new(0)))
    }

    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Counter({})", self.get())
    }
}

/// Point-in-time signed gauge handle (lock-free).
#[derive(Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    pub fn new() -> Self {
        Gauge(Arc::new(AtomicI64::new(0)))
    }

    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Gauge({})", self.get())
    }
}

/// Metric identity: name plus sorted label pairs.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricKey {
    pub name: String,
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricKey {
            name: name.to_string(),
            labels,
        }
    }
}

#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// Shared registry of labeled metrics. Cloning shares the underlying table.
#[derive(Clone, Default)]
pub struct Registry {
    metrics: Arc<Mutex<BTreeMap<MetricKey, Metric>>>,
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    /// Get or create the counter for `name{labels}`.
    /// Panics if the key is already registered as a different metric type.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = MetricKey::new(name, labels);
        let mut map = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        let Metric::Counter(c) = map
            .entry(key)
            .or_insert_with(|| Metric::Counter(Counter::new()))
        else {
            panic!("metric {name:?} already registered with a different type");
        };
        c.clone()
    }

    /// Get or create the gauge for `name{labels}`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = MetricKey::new(name, labels);
        let mut map = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        let Metric::Gauge(g) = map
            .entry(key)
            .or_insert_with(|| Metric::Gauge(Gauge::new()))
        else {
            panic!("metric {name:?} already registered with a different type");
        };
        g.clone()
    }

    /// Get or create the histogram for `name{labels}`.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let key = MetricKey::new(name, labels);
        let mut map = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        let Metric::Histogram(h) = map
            .entry(key)
            .or_insert_with(|| Metric::Histogram(Histogram::new()))
        else {
            panic!("metric {name:?} already registered with a different type");
        };
        h.clone()
    }

    /// Convenience: set a gauge in one call (sim collection loops use this).
    pub fn set_gauge(&self, name: &str, labels: &[(&str, &str)], v: i64) {
        self.gauge(name, labels).set(v);
    }

    /// Register an externally owned histogram under `name{labels}`, so
    /// per-node histograms (owned by protocol state machines) appear in
    /// exports without double bookkeeping. Re-registering the same key
    /// replaces the previous handle.
    pub fn attach_histogram(&self, name: &str, labels: &[(&str, &str)], h: Histogram) {
        let key = MetricKey::new(name, labels);
        let mut map = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        map.insert(key, Metric::Histogram(h));
    }

    /// Stable, sorted point-in-time copy of every metric.
    pub fn snapshot(&self) -> Snapshot {
        let map = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        let entries = map
            .iter()
            .map(|(key, metric)| SnapshotEntry {
                key: key.clone(),
                value: match metric {
                    Metric::Counter(c) => SnapshotValue::Counter(c.get()),
                    Metric::Gauge(g) => SnapshotValue::Gauge(g.get()),
                    Metric::Histogram(h) => SnapshotValue::Histogram {
                        summary: h.summary(),
                        buckets: h.cumulative_buckets(),
                    },
                },
            })
            .collect();
        Snapshot { entries }
    }
}

/// Point-in-time copy of a [`Registry`], sorted by metric key.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    pub entries: Vec<SnapshotEntry>,
}

#[derive(Clone, Debug)]
pub struct SnapshotEntry {
    pub key: MetricKey,
    pub value: SnapshotValue,
}

#[derive(Clone, Debug)]
pub enum SnapshotValue {
    Counter(u64),
    Gauge(i64),
    Histogram {
        summary: HistSummary,
        /// Non-empty buckets as `(inclusive upper bound, cumulative count)`.
        buckets: Vec<(u64, u64)>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_same_storage() {
        let r = Registry::new();
        r.counter("hits", &[("node", "1")]).inc();
        r.counter("hits", &[("node", "1")]).add(2);
        assert_eq!(r.counter("hits", &[("node", "1")]).get(), 3);
        // Different labels → different counter.
        assert_eq!(r.counter("hits", &[("node", "2")]).get(), 0);
    }

    #[test]
    fn label_order_is_normalized() {
        let r = Registry::new();
        r.counter("m", &[("a", "1"), ("b", "2")]).inc();
        assert_eq!(r.counter("m", &[("b", "2"), ("a", "1")]).get(), 1);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_mismatch_panics() {
        let r = Registry::new();
        r.counter("m", &[]).inc();
        r.gauge("m", &[]);
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let r = Registry::new();
        r.gauge("z_gauge", &[]).set(-5);
        r.counter("a_counter", &[]).add(7);
        r.histogram("m_hist", &[]).record(100);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.entries.iter().map(|e| e.key.name.as_str()).collect();
        assert_eq!(names, vec!["a_counter", "m_hist", "z_gauge"]);
        assert!(matches!(snap.entries[0].value, SnapshotValue::Counter(7)));
        assert!(matches!(snap.entries[2].value, SnapshotValue::Gauge(-5)));
    }

    #[test]
    fn attach_histogram_shares_storage() {
        let r = Registry::new();
        let h = Histogram::new();
        r.attach_histogram("lat", &[("node", "0")], h.clone());
        h.record(123);
        let snap = r.snapshot();
        match &snap.entries[0].value {
            SnapshotValue::Histogram { summary, .. } => assert_eq!(summary.count, 1),
            other => panic!("expected histogram, got {other:?}"),
        }
    }
}

//! Always-on lock-free flight recorder.
//!
//! The trace journal is rich but bounded and per-node; the flight
//! recorder is its crash-dump counterpart: a tiny fixed-size ring of
//! binary records shared by every node in a process (or a whole simulated
//! cluster), written on the hot path with two atomic ops and **no
//! allocation, no locking, no branching on capacity**. It is always on —
//! the point is that when a chaos oracle or a procher gate trips, the
//! last ~thousand protocol moments are already captured, including the
//! exact hop (`circ`/`hop`) that triggered the violation.
//!
//! Concurrency: a global monotonic index assigns each record a slot
//! (`idx % capacity`); each slot carries a seqlock-style version counter
//! (odd while a writer is mid-flight, even when stable). [`dump`] skips
//! torn slots instead of waiting, so a reader never blocks a writer and
//! a dump is safe from any thread, any time — including a panic hook.
//! All atomics are `Relaxed`: records are self-contained (no cross-slot
//! invariants), and a rare stale read in a diagnostics dump is
//! acceptable where a hot-path fence is not.

// Lock-free statistics, never read for control flow: the obs layer is where
// shared atomics live.
#![allow(clippy::disallowed_types)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Declares [`RecKind`] and its one ordered table of labels: a row's
/// position is its discriminant, the byte a slot stores.
macro_rules! rec_kinds {
    ($($(#[$doc:meta])* $kind:ident $label:literal,)*) => {
        /// What a flight record captures. One byte on the wire-side packing.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(u8)]
        pub enum RecKind {
            $($(#[$doc])* $kind,)*
        }

        /// Every kind with its dump label, in discriminant order.
        const KINDS: &[(RecKind, &str)] = &[$((RecKind::$kind, $label),)*];
    };
}

rec_kinds! {
    /// Token hop accepted (a=token seq, b=members).
    HopRecv "HOP_RECV",
    /// Token hop passed onward (a=token seq, b=stage total ns).
    HopSend "HOP_SEND",
    /// Node entered STARVING (a=ticks hungry, b=0).
    Starving "STARVING",
    /// 911 regeneration request sent (a=req id, b=last seen seq).
    Call911 "CALL_911",
    /// Token regenerated (a=new circ, b=new seq).
    Regen "REGEN",
    /// Membership changed (a=member id, b=1 added / 0 removed).
    Member "MEMBER",
    /// Node shut down or was killed (a=b=0).
    Shutdown "SHUTDOWN",
    /// An oracle / invariant violation was raised (a=b=0).
    Violation "VIOLATION",
}

impl RecKind {
    /// Stable uppercase label for dumps.
    pub fn label(&self) -> &'static str {
        KINDS[*self as usize].1
    }

    fn to_u8(self) -> u8 {
        self as u8
    }

    fn from_u8(v: u8) -> Option<RecKind> {
        KINDS.get(usize::from(v)).map(|&(kind, _)| kind)
    }
}

/// One decoded flight record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlightRecord {
    /// Global write index (total order across the whole recorder).
    pub idx: u64,
    /// Recorder-local timestamp (virtual ticks in sim, ns in runtime).
    pub t_ns: u64,
    /// Node that wrote the record.
    pub node: u32,
    /// Record kind.
    pub kind: RecKind,
    /// Circulation id of the hop in flight (0 if none).
    pub circ: u64,
    /// Hop seq of the hop in flight (0 if none).
    pub hop: u64,
    /// Kind-specific payload, see [`RecKind`].
    pub a: u64,
    /// Kind-specific payload, see [`RecKind`].
    pub b: u64,
}

impl FlightRecord {
    /// One-line rendering for violation dumps.
    pub fn render(&self) -> String {
        format!(
            "[{:>8}] n{:<3} {:<9} circ={} hop={} a={} b={} t={}",
            self.idx,
            self.node,
            self.kind.label(),
            self.circ,
            self.hop,
            self.a,
            self.b,
            self.t_ns,
        )
    }
}

/// A recorder slot: seqlock version + seven payload words.
#[derive(Debug, Default)]
struct Slot {
    /// Odd while a writer holds the slot, even when the payload is stable.
    ver: AtomicU64,
    idx: AtomicU64,
    t_ns: AtomicU64,
    /// `(node << 8) | kind`.
    node_kind: AtomicU64,
    circ: AtomicU64,
    hop: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

/// The shared ring. Clone handles freely — all clones write the same
/// slots (an `Arc` internally, like every obs handle).
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    inner: Arc<Inner>,
}

#[derive(Debug)]
struct Inner {
    next: AtomicU64,
    slots: Box<[Slot]>,
}

/// Default ring capacity: enough for the last few token laps of a
/// mid-size group, small enough to be cache-resident.
pub const DEFAULT_FLIGHT_SLOTS: usize = 1024;

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(DEFAULT_FLIGHT_SLOTS)
    }
}

impl FlightRecorder {
    /// Creates a recorder with `slots` ring entries (min 1).
    pub fn new(slots: usize) -> Self {
        let slots = (0..slots.max(1)).map(|_| Slot::default()).collect();
        FlightRecorder {
            inner: Arc::new(Inner {
                next: AtomicU64::new(0),
                slots,
            }),
        }
    }

    /// Number of ring slots.
    pub fn capacity(&self) -> usize {
        self.inner.slots.len()
    }

    /// Total records ever written (≥ capacity means the ring has wrapped).
    pub fn written(&self) -> u64 {
        self.inner.next.load(Ordering::Relaxed)
    }

    /// Writes one record. Hot-path safe: two `fetch_add`s, six stores.
    #[allow(clippy::too_many_arguments)]
    pub fn record(&self, t_ns: u64, node: u32, kind: RecKind, circ: u64, hop: u64, a: u64, b: u64) {
        let idx = self.inner.next.fetch_add(1, Ordering::Relaxed);
        let slot = &self.inner.slots[(idx % self.inner.slots.len() as u64) as usize];
        // Seqlock write: odd version while the payload is inconsistent.
        slot.ver.fetch_add(1, Ordering::Relaxed);
        slot.idx.store(idx, Ordering::Relaxed);
        slot.t_ns.store(t_ns, Ordering::Relaxed);
        slot.node_kind.store(
            (u64::from(node) << 8) | u64::from(kind.to_u8()),
            Ordering::Relaxed,
        );
        slot.circ.store(circ, Ordering::Relaxed);
        slot.hop.store(hop, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.ver.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshots every stable slot, oldest first. Torn slots (a writer
    /// mid-flight) are skipped, never waited on.
    pub fn dump(&self) -> Vec<FlightRecord> {
        let mut out = Vec::with_capacity(self.inner.slots.len());
        for slot in self.inner.slots.iter() {
            let ver = slot.ver.load(Ordering::Relaxed);
            if ver == 0 || ver % 2 == 1 {
                continue; // never written, or torn
            }
            let node_kind = slot.node_kind.load(Ordering::Relaxed);
            let Some(kind) = RecKind::from_u8(node_kind as u8) else {
                continue;
            };
            let rec = FlightRecord {
                idx: slot.idx.load(Ordering::Relaxed),
                t_ns: slot.t_ns.load(Ordering::Relaxed),
                node: (node_kind >> 8) as u32,
                kind,
                circ: slot.circ.load(Ordering::Relaxed),
                hop: slot.hop.load(Ordering::Relaxed),
                a: slot.a.load(Ordering::Relaxed),
                b: slot.b.load(Ordering::Relaxed),
            };
            if slot.ver.load(Ordering::Relaxed) != ver {
                continue; // overwritten while we read it
            }
            out.push(rec);
        }
        out.sort_by_key(|r| r.idx);
        out
    }

    /// Human-readable dump, newest last, with a header naming the last
    /// hop seen before the dump — the prime suspect when an oracle trips.
    pub fn render_text(&self) -> String {
        let recs = self.dump();
        let mut out = String::new();
        out.push_str(&format!(
            "flight recorder: {} records captured, {} total written, {} slots\n",
            recs.len(),
            self.written(),
            self.capacity(),
        ));
        if let Some(last_hop) = recs
            .iter()
            .rev()
            .find(|r| matches!(r.kind, RecKind::HopRecv | RecKind::HopSend))
        {
            out.push_str(&format!(
                "last hop before dump: circ={} hop={} at n{} ({})\n",
                last_hop.circ,
                last_hop.hop,
                last_hop.node,
                last_hop.kind.label(),
            ));
        }
        for r in &recs {
            out.push_str(&r.render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip_in_write_order() {
        let rec = FlightRecorder::new(8);
        rec.record(10, 1, RecKind::HopRecv, 7, 3, 3, 2);
        rec.record(11, 1, RecKind::HopSend, 7, 3, 4, 900);
        rec.record(12, 2, RecKind::Starving, 7, 3, 5, 0);
        let dump = rec.dump();
        assert_eq!(dump.len(), 3);
        assert_eq!(dump[0].kind, RecKind::HopRecv);
        assert_eq!(dump[2].kind, RecKind::Starving);
        assert_eq!(dump[2].node, 2);
        assert_eq!(dump[0].idx, 0);
        assert_eq!(rec.written(), 3);
    }

    #[test]
    fn ring_wraps_keeping_the_newest() {
        let rec = FlightRecorder::new(4);
        for i in 0..10u64 {
            rec.record(i, 0, RecKind::HopRecv, 1, i, 0, 0);
        }
        let dump = rec.dump();
        assert_eq!(dump.len(), 4);
        let hops: Vec<u64> = dump.iter().map(|r| r.hop).collect();
        assert_eq!(hops, [6, 7, 8, 9]);
        assert_eq!(rec.written(), 10);
    }

    #[test]
    fn clones_share_the_ring() {
        let a = FlightRecorder::new(8);
        let b = a.clone();
        a.record(1, 0, RecKind::Regen, 9, 5, 9, 5);
        assert_eq!(b.dump().len(), 1);
        assert_eq!(b.dump()[0].circ, 9);
    }

    #[test]
    fn render_names_the_triggering_hop() {
        let rec = FlightRecorder::new(16);
        rec.record(5, 3, RecKind::HopRecv, 42, 17, 17, 4);
        rec.record(6, 3, RecKind::Violation, 0, 0, 0, 0);
        let text = rec.render_text();
        assert!(
            text.contains("last hop before dump: circ=42 hop=17 at n3"),
            "{text}"
        );
        assert!(text.contains("VIOLATION"), "{text}");
    }

    #[test]
    fn kind_labels_are_exhaustive_and_stable() {
        for v in 0..=7u8 {
            let k = RecKind::from_u8(v).unwrap();
            assert_eq!(k.to_u8(), v);
            assert!(!k.label().is_empty());
        }
        assert_eq!(RecKind::from_u8(8), None);
    }

    #[test]
    fn concurrent_writers_never_corrupt_a_dump() {
        let rec = FlightRecorder::new(32);
        let mut handles = Vec::new();
        for n in 0..4u32 {
            let r = rec.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..1000u64 {
                    r.record(i, n, RecKind::HopSend, u64::from(n), i, 0, 0);
                }
            }));
        }
        for _ in 0..50 {
            for r in rec.dump() {
                // Every surviving record must be internally consistent.
                assert_eq!(r.hop, r.t_ns);
                assert_eq!(u64::from(r.node), r.circ);
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(rec.written(), 4000);
    }
}

//! Out-of-band bulk payload store.
//!
//! The Ring Paxos split (DESIGN.md §13) sends large multicast payloads
//! *around* the token: the origin unicasts a bulk frame to every member
//! while the token carries only the id manifest that fixes the delivery
//! order. [`BulkStore`] is the bounded `(origin, seq) → payload` cache
//! both sides of that split share:
//!
//! * at the **origin** it is the retransmit cache — the payload stays
//!   resident until the manifest entry retires from the token (everyone
//!   seen), so any member's NACK can be answered;
//! * at a **receiver** it buffers payloads that arrived before the token
//!   ordered their ids (bulk frames race the token by design), and keeps
//!   them after delivery until the watermark covers the ring so the
//!   receiver can serve NACKs for peers whose frame was lost.
//!
//! The store is capacity-bounded with oldest-first eviction: a burst
//! beyond the bound degrades to NACK-pulling from the origin (whose copy
//! is release-gated on retirement), never to unbounded memory. All
//! iteration orders are deterministic (`BTreeMap`) so the model checker
//! can digest buffered-bulk state canonically.

use bytes::Bytes;
use raincore_types::{NodeId, OriginSeq, StateDigest};
use std::collections::{BTreeMap, VecDeque};

/// Bulk id: the `(origin, per-origin seq)` pair the token's manifest
/// entries order.
pub type BulkId = (NodeId, OriginSeq);

/// Bounded `(origin, seq) → payload` cache for out-of-band dissemination.
#[derive(Debug, Clone)]
pub struct BulkStore {
    /// Maximum resident entries; oldest inserted evicted first when full.
    cap: usize,
    /// Resident payloads, deterministically ordered for digesting.
    entries: BTreeMap<BulkId, Bytes>,
    /// Insertion order for eviction. May hold stale ids (removed or
    /// re-inserted entries); stale fronts are skipped during eviction.
    order: VecDeque<BulkId>,
}

impl BulkStore {
    /// Creates a store holding at most `cap` payloads (`cap` is clamped
    /// to at least 1 so insertion always succeeds).
    pub fn new(cap: usize) -> Self {
        BulkStore {
            cap: cap.max(1),
            entries: BTreeMap::new(),
            order: VecDeque::new(),
        }
    }

    /// Inserts a payload for `id`, evicting the oldest entry if the store
    /// is full. Idempotent: re-inserting a resident id keeps the original
    /// payload (the first copy won any retransmission race).
    pub fn insert(&mut self, id: BulkId, payload: Bytes) {
        if self.entries.contains_key(&id) {
            return;
        }
        while self.entries.len() >= self.cap {
            match self.order.pop_front() {
                Some(old) => {
                    self.entries.remove(&old);
                }
                // Order queue exhausted while entries remain (cannot
                // happen: every insert pushes its id) — degrade by
                // clearing rather than looping forever.
                None => {
                    self.entries.clear();
                }
            }
        }
        self.entries.insert(id, payload);
        self.order.push_back(id);
        // Keep the eviction queue from accumulating stale ids without
        // rescanning on every remove: compact when it outgrows twice the
        // capacity bound.
        if self.order.len() > self.cap.saturating_mul(2) {
            let entries = &self.entries;
            self.order.retain(|k| entries.contains_key(k));
        }
    }

    /// The resident payload for `id`, if any.
    pub fn get(&self, id: BulkId) -> Option<&Bytes> {
        self.entries.get(&id)
    }

    /// True if `id` is resident.
    pub fn contains(&self, id: BulkId) -> bool {
        self.entries.contains_key(&id)
    }

    /// Releases the payload for `id` (retirement at the origin, watermark
    /// coverage at a receiver). Missing ids are fine.
    pub fn remove(&mut self, id: BulkId) {
        self.entries.remove(&id);
    }

    /// Iterates the resident bulk ids in deterministic (`BTreeMap`) order.
    pub fn keys(&self) -> impl Iterator<Item = BulkId> + '_ {
        self.entries.keys().copied()
    }

    /// Number of resident payloads.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Feeds the resident-id set (and payload bytes) into a model-checker
    /// state digest: two states differing only in buffered-bulk contents
    /// must not merge. The eviction queue is deliberately excluded
    /// (stale ids in it are unobservable).
    pub fn digest_into(&self, d: &mut StateDigest) {
        d.write_len(self.entries.len());
        for ((origin, seq), payload) in &self.entries {
            d.node(*origin);
            d.write_u64(seq.0);
            d.write_bytes(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(o: u32, s: u64) -> BulkId {
        (NodeId(o), OriginSeq(s))
    }

    #[test]
    fn stores_and_serves_payloads() {
        let mut s = BulkStore::new(8);
        s.insert(id(1, 0), Bytes::from_static(b"alpha"));
        s.insert(id(2, 0), Bytes::from_static(b"beta"));
        assert_eq!(s.get(id(1, 0)).map(|b| &b[..]), Some(&b"alpha"[..]));
        assert_eq!(s.get(id(2, 0)).map(|b| &b[..]), Some(&b"beta"[..]));
        assert!(s.get(id(3, 0)).is_none());
        assert_eq!(s.len(), 2);
        s.remove(id(1, 0));
        assert!(!s.contains(id(1, 0)));
        assert!(s.contains(id(2, 0)));
    }

    #[test]
    fn reinsert_keeps_first_payload() {
        let mut s = BulkStore::new(4);
        s.insert(id(1, 5), Bytes::from_static(b"first"));
        s.insert(id(1, 5), Bytes::from_static(b"second"));
        assert_eq!(s.get(id(1, 5)).map(|b| &b[..]), Some(&b"first"[..]));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn evicts_oldest_first_at_capacity() {
        let mut s = BulkStore::new(3);
        for i in 0..3 {
            s.insert(id(1, i), Bytes::from_static(b"x"));
        }
        s.insert(id(1, 3), Bytes::from_static(b"x"));
        assert!(!s.contains(id(1, 0)), "oldest entry evicted");
        assert!(s.contains(id(1, 1)));
        assert!(s.contains(id(1, 3)));
        assert_eq!(s.len(), 3);
        // Removing an entry leaves a stale id in the eviction queue;
        // eviction must skip it and still pick the true oldest.
        s.remove(id(1, 1));
        s.insert(id(1, 4), Bytes::from_static(b"x"));
        s.insert(id(1, 5), Bytes::from_static(b"x"));
        assert!(!s.contains(id(1, 2)));
        assert!(s.contains(id(1, 3)));
        assert!(s.contains(id(1, 4)));
        assert!(s.contains(id(1, 5)));
    }

    #[test]
    fn digest_distinguishes_buffered_contents() {
        use raincore_types::StateDigest;
        let fp = |s: &BulkStore| {
            let mut d = StateDigest::identity();
            s.digest_into(&mut d);
            d.finish()
        };
        let mut a = BulkStore::new(8);
        let mut b = BulkStore::new(8);
        assert_eq!(fp(&a), fp(&b));
        a.insert(id(1, 0), Bytes::from_static(b"payload"));
        assert_ne!(fp(&a), fp(&b), "resident id must change the digest");
        b.insert(id(1, 0), Bytes::from_static(b"different"));
        assert_ne!(fp(&a), fp(&b), "payload bytes must change the digest");
    }

    #[test]
    fn long_churn_keeps_order_queue_bounded() {
        let mut s = BulkStore::new(4);
        for i in 0..10_000u64 {
            s.insert(id(1, i), Bytes::from_static(b"x"));
            if i % 3 == 0 {
                s.remove(id(1, i));
            }
        }
        assert!(s.len() <= 4);
        assert!(
            s.order.len() <= 9,
            "eviction queue must stay bounded, got {}",
            s.order.len()
        );
    }
}

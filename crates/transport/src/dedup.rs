//! Duplicate suppression for received messages.
//!
//! Retransmissions mean a receiver can see the same logical message more
//! than once (its acknowledgement may have been lost). The transport must
//! still acknowledge the duplicate — the sender needs the ack — but must
//! deliver the message to the upper layer exactly once.
//!
//! Message ids from one (sender, incarnation) are allocated monotonically,
//! so the tracker keeps a *watermark* (`all ids < watermark delivered`)
//! plus the sparse set of delivered ids above it. The set stays tiny in
//! practice because ids are delivered nearly in order, and memory is
//! bounded no matter how long the peer lives.
//!
//! Out-of-band bulk payloads need their own tracker ([`BulkDedup`]): a
//! retransmitted bulk payload — whether a NACK answer or an origin
//! resend — travels as a *fresh* transport message with a fresh wire
//! `MsgId`, so the per-peer window above cannot recognize it. The bulk
//! tracker keys on the session-level bulk id `(origin, seq)` instead,
//! which is stable across any number of retransmissions and across
//! *different senders* retransmitting the same payload.

use raincore_types::{MsgId, NodeId, OriginSeq, StateDigest};
use std::collections::{BTreeMap, BTreeSet};

/// Exactly-once delivery tracker for one (peer, incarnation).
#[derive(Debug, Default, Clone)]
pub struct DedupWindow {
    /// Every id `< watermark` has been delivered.
    watermark: u64,
    /// Delivered ids `>= watermark` (sparse, compacted on insert).
    above: BTreeSet<u64>,
}

impl DedupWindow {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// True if `id` has already been delivered.
    pub fn contains(&self, id: MsgId) -> bool {
        id.0 < self.watermark || self.above.contains(&id.0)
    }

    /// Records `id` as delivered. Returns `true` if it was new (the caller
    /// should deliver), `false` if it was a duplicate.
    pub fn insert(&mut self, id: MsgId) -> bool {
        // The watermark is never in `above`, so an id equal to it is new,
        // and only an id equal to it can make a prefix contiguous: the
        // in-order case, nearly every id, never touches the tree.
        if id.0 == self.watermark {
            self.watermark += 1;
            if !self.above.is_empty() {
                while self.above.remove(&self.watermark) {
                    self.watermark += 1;
                }
            }
            return true;
        }
        id.0 > self.watermark && self.above.insert(id.0)
    }

    /// Number of ids tracked above the watermark (diagnostics / tests).
    pub fn sparse_len(&self) -> usize {
        self.above.len()
    }

    /// Current watermark (diagnostics / tests).
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Feeds the full window state (watermark + sparse set) into a
    /// model-checker state digest.
    pub fn digest_into(&self, d: &mut StateDigest) {
        d.write_u64(self.watermark);
        d.write_len(self.above.len());
        for &id in &self.above {
            d.write_u64(id);
        }
    }
}

/// Exactly-once acceptance tracker for out-of-band bulk payloads, keyed
/// by the session-level bulk id `(origin, seq)`.
///
/// The wire-seq window ([`DedupWindow`]) only suppresses duplicates of
/// one *transport message*; every bulk retransmission is a new transport
/// message, so without this tracker a NACK answer racing the original
/// frame (or a duplicated datagram of a re-send) would hand the same
/// payload to the session twice. Per-origin seqs are monotonic, so each
/// origin gets its own watermark window and memory stays bounded.
#[derive(Debug, Default, Clone)]
pub struct BulkDedup {
    per_origin: BTreeMap<NodeId, DedupWindow>,
}

impl BulkDedup {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// True if the payload for `(origin, seq)` has already been accepted.
    pub fn contains(&self, origin: NodeId, seq: OriginSeq) -> bool {
        self.per_origin
            .get(&origin)
            .is_some_and(|w| w.contains(MsgId(seq.0)))
    }

    /// Records the bulk id as accepted. Returns `true` if it was new (the
    /// caller should buffer/deliver the payload), `false` on a duplicate.
    pub fn insert(&mut self, origin: NodeId, seq: OriginSeq) -> bool {
        self.per_origin
            .entry(origin)
            .or_default()
            .insert(MsgId(seq.0))
    }

    /// Feeds the full per-origin window state into a model-checker state
    /// digest.
    pub fn digest_into(&self, d: &mut StateDigest) {
        d.write_len(self.per_origin.len());
        for (origin, w) in &self.per_origin {
            d.node(*origin);
            w.digest_into(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn in_order_ids_keep_window_empty() {
        let mut w = DedupWindow::new();
        for i in 0..100 {
            assert!(w.insert(MsgId(i)), "id {i} should be new");
        }
        assert_eq!(w.sparse_len(), 0);
        assert_eq!(w.watermark(), 100);
    }

    #[test]
    fn duplicates_rejected() {
        let mut w = DedupWindow::new();
        assert!(w.insert(MsgId(0)));
        assert!(!w.insert(MsgId(0)));
        assert!(w.insert(MsgId(5)));
        assert!(!w.insert(MsgId(5)));
        assert!(w.contains(MsgId(0)));
        assert!(w.contains(MsgId(5)));
        assert!(!w.contains(MsgId(3)));
    }

    #[test]
    fn out_of_order_compacts_on_gap_fill() {
        let mut w = DedupWindow::new();
        for i in [2u64, 1, 4, 3] {
            assert!(w.insert(MsgId(i)));
        }
        assert_eq!(w.watermark(), 0);
        assert_eq!(w.sparse_len(), 4);
        assert!(w.insert(MsgId(0))); // fills the gap
        assert_eq!(w.watermark(), 5);
        assert_eq!(w.sparse_len(), 0);
    }

    #[test]
    fn id_at_the_watermark_slides_over_a_run_and_stops_at_the_next_gap() {
        let mut w = DedupWindow::new();
        for i in [1u64, 2, 3, 6] {
            assert!(w.insert(MsgId(i)));
        }
        assert_eq!((w.watermark(), w.sparse_len()), (0, 4));
        assert!(w.insert(MsgId(0)), "the id at the watermark is new");
        assert_eq!((w.watermark(), w.sparse_len()), (4, 1));
        assert!(!w.insert(MsgId(3)), "below the watermark: a duplicate");
        assert!(!w.insert(MsgId(6)), "above it: still remembered");
        assert!(w.insert(MsgId(4)));
        assert_eq!((w.watermark(), w.sparse_len()), (5, 1));
        assert!(w.insert(MsgId(5)));
        assert_eq!((w.watermark(), w.sparse_len()), (7, 0));
    }

    /// Pins the bulk-retransmission double-delivery fix: a retransmitted
    /// bulk payload arrives as a fresh transport message (fresh wire
    /// `MsgId`), so the per-peer wire-seq window happily accepts it —
    /// only the bulk-id tracker can reject it.
    #[test]
    fn retransmitted_bulk_payload_cannot_double_deliver() {
        let origin = NodeId(3);
        let seq = OriginSeq(7);

        // The wire-seq window sees two distinct transport messages and
        // accepts both: this is exactly the hole BulkDedup closes.
        let mut wire = DedupWindow::new();
        assert!(wire.insert(MsgId(100)), "original frame, wire id 100");
        assert!(
            wire.insert(MsgId(101)),
            "retransmit travels under a fresh wire id and passes wire dedup"
        );

        let mut bulk = BulkDedup::new();
        assert!(bulk.insert(origin, seq), "original payload accepted");
        assert!(
            !bulk.insert(origin, seq),
            "retransmit of the same bulk id must be rejected"
        );
        // A NACK answer served by a *different* holder is still the same
        // bulk id — rejected no matter who sent it.
        assert!(!bulk.insert(origin, seq));
        assert!(bulk.contains(origin, seq));
        // Other ids are unaffected: same origin next seq, other origin
        // same seq.
        assert!(bulk.insert(origin, OriginSeq(8)));
        assert!(bulk.insert(NodeId(4), seq));
    }

    #[test]
    fn bulk_dedup_windows_are_per_origin_and_compact() {
        let mut bulk = BulkDedup::new();
        for s in 0..50 {
            assert!(bulk.insert(NodeId(1), OriginSeq(s)));
            assert!(bulk.insert(NodeId(2), OriginSeq(s)));
        }
        // In-order seqs ride the watermark: nothing accumulates.
        assert_eq!(bulk.per_origin[&NodeId(1)].sparse_len(), 0);
        assert_eq!(bulk.per_origin[&NodeId(1)].watermark(), 50);
        assert!(bulk.contains(NodeId(1), OriginSeq(0)));
        assert!(!bulk.contains(NodeId(3), OriginSeq(0)));
    }

    proptest! {
        #[test]
        fn prop_each_id_delivered_exactly_once(
            ids in proptest::collection::vec(0u64..200, 1..400)
        ) {
            let mut w = DedupWindow::new();
            let mut delivered = std::collections::HashSet::new();
            for id in ids {
                let fresh = w.insert(MsgId(id));
                prop_assert_eq!(fresh, delivered.insert(id),
                    "tracker and reference disagree on id {}", id);
                // What the window reports follows from the set alone: the
                // least id not delivered, and how many lie above it.
                let watermark = (0..).find(|i| !delivered.contains(i)).unwrap();
                let above = delivered.iter().filter(|&&i| i > watermark).count();
                prop_assert_eq!(w.watermark(), watermark, "after id {}", id);
                prop_assert_eq!(w.sparse_len(), above, "after id {}", id);
            }
            // Everything reported delivered is contained.
            for &id in &delivered {
                prop_assert!(w.contains(MsgId(id)));
            }
        }

        #[test]
        fn prop_window_stays_compact_for_near_order(
            perm_window in 1usize..4,
            n in 10u64..200,
        ) {
            // Ids arrive at most perm_window out of order → sparse set
            // never exceeds the permutation window.
            let mut ids: Vec<u64> = (0..n).collect();
            for chunk in ids.chunks_mut(perm_window) {
                chunk.reverse();
            }
            let mut w = DedupWindow::new();
            for id in ids {
                w.insert(MsgId(id));
                prop_assert!(w.sparse_len() <= perm_window);
            }
        }
    }
}

//! Reliable atomic multicast (§2.6): attaching messages to the token,
//! the hold-back queue that turns token order into delivery order, and
//! out-of-band bulk dissemination (DESIGN.md §13).
//!
//! Ordering and dissemination are separate paths — ids ride the token,
//! large payloads travel around it — but they live in one component
//! because one rule binds them: an entry is acknowledged, delivered and
//! retired only with its **payload in hand**.

use crate::ctx::Ctx;
use crate::events::{Delivery, SessionEvent};
use crate::obs::NodeObs;
use bytes::Bytes;
use raincore_obs::TraceKind;
use raincore_transport::dedup::DedupWindow;
use raincore_transport::{BulkDedup, BulkId, BulkStore};
use raincore_types::messages::OpenSubmit;
use raincore_types::wire::WireEncode;
use raincore_types::{
    Attached, BulkData, BulkNack, DeliveryMode, DigestInto, Duration, Error, IdList, MsgId, NodeId,
    OriginSeq, Result, Ring, SessionConfig, SessionMsg, StateDigest, Time, Token,
};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Maximum application payload accepted by `multicast`.
pub const MAX_PAYLOAD: usize = 60_000;

/// Maximum multicast messages riding the token at once. When the token
/// is full, locally queued messages wait for a later pass — backpressure
/// that bounds token size (and hence hop latency) under bursts.
pub const MAX_ATTACHED: usize = 256;

/// How long a node waits for the out-of-band payload of an
/// already-ordered manifest id before NACK-pulling it from a holder.
/// Re-arms on every retry, rotating through known holders.
const BULK_PULL_TIMEOUT: Duration = Duration::from_millis(50);

/// Maximum `(origin, seq) → payload` entries in the bulk store (the
/// origin's retransmit cache plus buffered not-yet-ordered receives).
/// Oldest entries are evicted first when full.
const BULK_CACHE_ENTRIES: usize = 1024;

#[derive(Debug)]
struct PendingDelivery {
    origin: NodeId,
    seq: OriginSeq,
    mode: DeliveryMode,
    /// The payload, once in hand. Inline (piggybacked) messages are born
    /// with it; out-of-band messages start at `None` and fill when the
    /// bulk frame arrives — a missing payload blocks delivery (and, at
    /// the queue front, everything behind it: dissemination is decoupled
    /// from ordering, delivery is not).
    payload: Option<Bytes>,
    /// Agreed messages are born ready; safe messages become ready when
    /// this node observes that every member has received them.
    ready: bool,
    /// Next NACK-pull deadline for a missing out-of-band payload.
    pull_at: Option<Time>,
    /// NACK pulls fired so far; rotates the pull target (origin first,
    /// then the other holders).
    pull_tries: u32,
    /// Members known to hold the payload (the manifest entry's seen set,
    /// which is payload-gated for out-of-band entries), refreshed at each
    /// token pass. Positional order is the ring traversal order.
    holders: IdList,
}

impl PendingDelivery {
    fn key(&self) -> BulkId {
        (self.origin, self.seq)
    }
}

/// A multicast queued until we next hold the token: the entry exactly as
/// it will ride the token, and — for an out-of-band entry, whose manifest
/// carries only the length — the payload to disseminate beside it.
#[derive(Debug)]
struct Queued {
    entry: Attached,
    oob_payload: Option<Bytes>,
}

/// The multicast component.
#[derive(Debug)]
pub(crate) struct Multicast {
    outgoing: VecDeque<Queued>,
    /// Freight `outgoing` will put on a token (the sum of its entries'
    /// `load_len`: wire bytes, plus the out-of-band payloads that are a
    /// full token's worth by themselves), kept at submit/attach so the
    /// pacing rule reads it in O(1).
    outgoing_bytes: usize,
    next_origin_seq: OriginSeq,
    /// Exactly-once delivery tracking per origin. Origins are chosen by
    /// peers, so these are ordered maps, not hash maps.
    delivered: BTreeMap<NodeId, DedupWindow>,
    /// Relay-side deduplication of open-group submissions (§2.6).
    open_dedup: BTreeMap<NodeId, DedupWindow>,
    /// Hold-back queue: messages seen but not yet delivered, in token
    /// order. The front blocks the rest until it is deliverable, which
    /// keeps the total order consistent across delivery modes.
    holdback: VecDeque<PendingDelivery>,
    /// Out-of-band payload cache: origin-side retransmit cache and
    /// receiver-side buffer for payloads that raced the token.
    bulk_store: BulkStore,
    /// Exactly-once acceptance of bulk frames by bulk id — retransmits
    /// travel under fresh wire ids, so the transport window cannot see
    /// them as duplicates.
    bulk_dedup: BulkDedup,
}

/// Ordering: submit, attach, hold back, deliver, retire.
impl Multicast {
    pub(crate) fn new() -> Self {
        Multicast {
            outgoing: VecDeque::new(),
            outgoing_bytes: 0,
            next_origin_seq: OriginSeq::default(),
            delivered: BTreeMap::new(),
            open_dedup: BTreeMap::new(),
            holdback: VecDeque::new(),
            bulk_store: BulkStore::new(BULK_CACHE_ENTRIES),
            bulk_dedup: BulkDedup::new(),
        }
    }

    /// Has the application already been handed message `key`?
    fn already_delivered(&self, key: BulkId) -> bool {
        self.delivered
            .get(&key.0)
            .is_some_and(|w| w.contains(MsgId(key.1 .0)))
    }

    /// Where the hold-back entry for `key` is (there is at most one:
    /// [`Multicast::buffer_message`] is idempotent).
    fn pending_at(&self, key: BulkId) -> Option<usize> {
        self.holdback.iter().position(|p| p.key() == key)
    }

    /// The hold-back entry for `key`.
    fn pending_mut(&mut self, key: BulkId) -> Option<&mut PendingDelivery> {
        let at = self.pending_at(key)?;
        self.holdback.get_mut(at)
    }

    /// Freight the queued multicasts will add to a token.
    pub(crate) fn outgoing_bytes(&self) -> usize {
        self.outgoing_bytes
    }

    /// Queues `payload` for the next token pass and assigns its origin
    /// sequence number. `full`: the pacing rule's line, which the queued
    /// entry is weighed against.
    pub(crate) fn submit(
        &mut self,
        id: NodeId,
        cfg: &SessionConfig,
        obs: &mut NodeObs,
        full: usize,
        mode: DeliveryMode,
        payload: Bytes,
    ) -> Result<OriginSeq> {
        if payload.len() > MAX_PAYLOAD {
            return Err(Error::PayloadTooLarge {
                size: payload.len(),
                max: MAX_PAYLOAD,
            });
        }
        let seq = self.next_origin_seq;
        self.next_origin_seq = seq.next();
        obs.submitted(seq, mode);
        // Size-threshold dial (DESIGN.md §13): payloads at or above
        // `bulk_threshold` are disseminated out-of-band — the token
        // carries only the id manifest while the payload is unicast to
        // every member and cached for NACK retransmission until the
        // manifest entry retires. Small payloads ride the token
        // (piggyback fallback).
        let queued = if cfg.bulk_threshold > 0 && payload.len() >= cfg.bulk_threshold {
            Queued {
                entry: Attached::new_oob(id, seq, mode, payload.len() as u64),
                oob_payload: Some(payload),
            }
        } else {
            Queued {
                entry: Attached::new(id, seq, mode, payload),
                oob_payload: None,
            }
        };
        self.outgoing_bytes = self
            .outgoing_bytes
            .saturating_add(queued.entry.load_len(full));
        self.outgoing.push_back(queued);
        Ok(seq)
    }

    /// Open group communication (§2.6): a non-member handed us a message
    /// to forward to the whole group. Deduplicate per (sender, seq) —
    /// the external client may retry toward us — and multicast the
    /// payload in an envelope that preserves the external origin.
    pub(crate) fn on_open(&mut self, cx: &mut Ctx<'_>, o: OpenSubmit) {
        if !cx.ring.contains(cx.id) {
            return;
        }
        let fresh = self
            .open_dedup
            .entry(o.from)
            .or_default()
            .insert(MsgId(o.seq.0));
        if !fresh {
            return;
        }
        let envelope = crate::open::wrap_open(o.from, o.seq, &o.payload);
        let full = cx.full_line();
        if self
            .submit(cx.id, cx.cfg, cx.obs, full, DeliveryMode::Agreed, envelope)
            .is_ok()
        {
            cx.metrics.open_relayed += 1;
        }
    }

    /// Attaches queued multicasts to the token we are about to pass — at
    /// the latest possible moment. The attach position *is* the message's
    /// place in the agreed total order; the originator buffers its own
    /// message here and delivers it through the same hold-back discipline
    /// as everyone else (so an earlier not-yet-safe message still blocks
    /// it). The token has bounded capacity: what does not fit waits for a
    /// later pass (backpressure that keeps hop latency bounded under
    /// bursts).
    pub(crate) fn attach_outgoing(&mut self, cx: &mut Ctx<'_>, token: &mut Token) {
        // Nothing queued: the pass attaches nothing and reserves nothing.
        if self.outgoing.is_empty() {
            return;
        }
        let mut attached_any = false;
        let full = cx.full_line();
        let room = MAX_ATTACHED.saturating_sub(token.msgs.len());
        token.msgs.reserve(self.outgoing.len().min(room));
        while token.msgs.len() < MAX_ATTACHED {
            let Some(Queued {
                entry: a,
                oob_payload,
            }) = self.outgoing.pop_front()
            else {
                break;
            };
            self.outgoing_bytes = self.outgoing_bytes.saturating_sub(a.load_len(full));
            if let Some(payload) = oob_payload {
                self.bulk_store.insert(a.key(), payload.clone());
                self.send_bulk_frames(cx, &token.ring, a.seq, &payload);
            }
            self.buffer_message(cx, &a);
            token.msgs.push(a);
            cx.metrics.multicasts_sent += 1;
            attached_any = true;
        }
        if attached_any {
            self.drain_holdback(cx);
        }
    }

    /// Payload-gated acknowledgement (DESIGN.md §13): an out-of-band
    /// entry counts as received only once its payload is actually in
    /// hand, so `seen_by_all` certifies every member can deliver — the
    /// stability watermark that makes retirement (and the origin dropping
    /// its retransmit cache) safe without any new wire state. `held`: the
    /// entry's place in the hold-back queue, if it is there.
    fn payload_in_hand(&self, m: &Attached, held: Option<usize>) -> bool {
        !m.is_oob()
            || self.bulk_store.contains(m.key())
            || self.already_delivered(m.key())
            || held
                .and_then(|at| self.holdback.get(at))
                .is_some_and(|p| p.payload.is_some())
    }

    /// Marks, buffers, delivers and retires the messages piggybacked on
    /// an accepted token (§2.6), and returns the freight the token orders
    /// afterwards ([`Token::load_len`] against `full`, the pacing rule's
    /// line), measured by the retirement walk rather than by another.
    ///
    /// Delivery order is the *token order*: messages enter the hold-back
    /// queue the first time they are seen (the token's message list is
    /// append-only modulo retirement, so every member buffers them in the
    /// same global order), and the queue drains strictly from the front.
    /// A safe message that is not yet known to be received by everyone
    /// blocks everything queued behind it — this is what makes the total
    /// order hold *across* delivery modes, exactly as "the message
    /// ordering on the token decides the message ordering on each of the
    /// nodes".
    pub(crate) fn process_attachments(
        &mut self,
        cx: &mut Ctx<'_>,
        token: &mut Token,
        full: usize,
    ) -> usize {
        let ring = token.ring.clone();
        for m in token.msgs.iter_mut() {
            // At most one scan of the hold-back queue per entry: buffering
            // finds (or makes) the entry the marks below refresh.
            let held = self.buffer_message(cx, m);
            if self.payload_in_hand(m, held) {
                m.mark_seen(cx.id);
            }
            // Every member has it: deliverable (§2.6's extra round).
            let safe_now = m.mode == DeliveryMode::Safe && m.seen_by_all(&ring);
            if safe_now {
                m.mark_confirmed(cx.id);
            }
            if let Some(p) = held.and_then(|at| self.holdback.get_mut(at)) {
                // Refresh the holder snapshot for NACK-pull rotation.
                p.holders.clone_from(&m.seen);
                p.ready |= safe_now;
            }
        }
        self.drain_holdback(cx);
        // Retire completed messages. The *originator* retires its own
        // (and emits the atomicity confirmation); anyone may retire a
        // message whose originator has left the membership. What stays is
        // weighed on the way.
        let my_id = cx.id;
        let mut aboard = 0usize;
        token.msgs.retain(|m| {
            let done = match m.mode {
                DeliveryMode::Agreed => m.seen_by_all(&ring),
                DeliveryMode::Safe => m.confirmed_by_all(&ring),
            };
            let retire = done && (m.origin == my_id || !ring.contains(m.origin));
            if retire && m.origin == my_id {
                cx.obs.own_atomic(m.seq);
                cx.events
                    .push_back(SessionEvent::MulticastAtomic { seq: m.seq });
            }
            if !retire {
                aboard = aboard.saturating_add(m.load_len(full));
            }
            !retire
        });
        // Release bulk payloads whose manifest entries have retired: an
        // entry retires only once every member marked it seen, and an
        // out-of-band entry is marked seen only with the payload in hand,
        // so no member can still need to pull it. With none resident there
        // is nothing to release, and no third walk over the entries.
        if !self.bulk_store.is_empty() {
            let on_token: BTreeSet<BulkId> = token
                .msgs
                .iter()
                .filter(|m| m.is_oob())
                .map(|m| m.key())
                .collect();
            let resident: Vec<BulkId> = self.bulk_store.keys().collect();
            for k in resident {
                if self.already_delivered(k) && !on_token.contains(&k) {
                    self.bulk_store.remove(k);
                }
            }
        }
        token.load_len_with(aboard)
    }

    /// Adds a newly seen message to the hold-back queue (idempotent), and
    /// says where its entry is: `None` for a message delivered already.
    fn buffer_message(&mut self, cx: &mut Ctx<'_>, m: &Attached) -> Option<usize> {
        let key = m.key();
        // A message is delivered only as it leaves the queue, so one that
        // was is not held back: no scan for it.
        if self.already_delivered(key) {
            return None;
        }
        if let Some(at) = self.pending_at(key) {
            return Some(at);
        }
        if m.mode == DeliveryMode::Safe {
            cx.metrics.safe_held_back += 1;
            cx.obs.trace(TraceKind::SafeHeld {
                origin: m.origin.0,
                seq: m.seq.0,
            });
        }
        // Two-phase delivery: inline entries carry their payload on the
        // token; an out-of-band id is deliverable only once the bulk
        // frame (which races the token) is in hand, with the NACK pull
        // timer as the loss backstop.
        let payload = match m.inline_payload() {
            Some(p) => Some(p.clone()),
            None => self.bulk_store.get(key).cloned(),
        };
        let pull_at = match payload {
            Some(_) => None,
            None => Some(cx.now + BULK_PULL_TIMEOUT),
        };
        self.holdback.push_back(PendingDelivery {
            origin: m.origin,
            seq: m.seq,
            mode: m.mode,
            payload,
            ready: m.mode == DeliveryMode::Agreed,
            pull_at,
            pull_tries: 0,
            holders: m.seen.clone(),
        });
        Some(self.holdback.len() - 1)
    }

    /// Delivers the ready prefix of the hold-back queue, in token order.
    /// "Ready" means ordered (agreed, or safe-confirmed) *and* the
    /// payload is in hand — unless the `bulk_blind_delivery` fault dial
    /// is set, which deliberately re-opens the dropped-payload /
    /// delivered-id gap so the model checker can demonstrate it.
    fn drain_holdback(&mut self, cx: &mut Ctx<'_>) {
        let blind = cx.cfg.bulk_blind_delivery;
        while let Some(front) = self
            .holdback
            .front_mut()
            .filter(|front| front.ready && (front.payload.is_some() || blind))
        {
            // Read the entry where it lies and take only its payload out:
            // moving the whole entry out of the queue copies it for nothing.
            let (origin, seq, mode) = (front.origin, front.seq, front.mode);
            let payload = front.payload.take().unwrap_or_default();
            self.holdback.pop_front();
            let fresh = self
                .delivered
                .entry(origin)
                .or_default()
                .insert(MsgId(seq.0));
            if fresh {
                cx.metrics.deliveries += 1;
                cx.obs.trace(TraceKind::Delivered {
                    origin: origin.0,
                    seq: seq.0,
                    safe: mode == DeliveryMode::Safe,
                });
                if origin == cx.id {
                    cx.obs.own_delivered(seq);
                }
                cx.events.push_back(SessionEvent::Delivery(Delivery {
                    origin,
                    seq,
                    mode,
                    payload,
                }));
            }
        }
    }
}

/// Dissemination: bulk frames around the token, NACK pulls behind them.
impl Multicast {
    /// A bulk payload frame arrived (original send or a NACK answer).
    /// Buffer it and fill the hold-back entry waiting on this id.
    pub(crate) fn on_bulk(&mut self, cx: &mut Ctx<'_>, b: BulkData) {
        cx.metrics.bulk_frames_received += 1;
        let key = (b.origin, b.seq);
        let waiting = self.pending_mut(key).is_some_and(|p| p.payload.is_none());
        if !self.bulk_dedup.insert(b.origin, b.seq) {
            cx.metrics.bulk_duplicates += 1;
            // A duplicate can still plug a hole: the first copy may have
            // been evicted from the bounded store before the manifest
            // ordered it — the NACK pull re-requests exactly this id.
            if !waiting {
                return;
            }
        }
        if self.already_delivered(key) {
            return; // late retransmit of an already-delivered payload
        }
        self.bulk_store.insert(key, b.payload.clone());
        if waiting {
            if let Some(p) = self.pending_mut(key) {
                p.payload = Some(b.payload);
                p.pull_at = None;
            }
            self.drain_holdback(cx);
        }
    }

    /// A member is missing a bulk payload we may hold: answer from the
    /// store, best-effort. Any holder may serve the pull — the requester
    /// rotates targets, so the origin being dead does not strand it.
    pub(crate) fn on_bulk_nack(&mut self, cx: &mut Ctx<'_>, n: BulkNack) {
        let key = (n.origin, n.seq);
        if let Some(payload) = self.bulk_store.get(key).cloned() {
            let msg = SessionMsg::Bulk(BulkData {
                origin: n.origin,
                seq: n.seq,
                payload,
            })
            .encode_to_bytes();
            if cx.transport.send_unreliable(cx.now, n.from, msg).is_ok() {
                cx.metrics.bulk_nacks_served += 1;
            }
        }
    }

    /// Unicasts the payload frame for a newly attached out-of-band
    /// multicast to every other member. Fire-and-forget: a lost frame is
    /// recovered by the receiver's NACK pull, never by the transport's
    /// failure-on-delivery detector (bulk loss must not look like a
    /// member failure).
    fn send_bulk_frames(&mut self, cx: &mut Ctx<'_>, ring: &Ring, seq: OriginSeq, payload: &Bytes) {
        let msg = SessionMsg::Bulk(BulkData {
            origin: cx.id,
            seq,
            payload: payload.clone(),
        })
        .encode_to_bytes();
        for member in ring.iter().filter(|&m| m != cx.id) {
            if cx
                .transport
                .send_unreliable(cx.now, member, msg.clone())
                .is_ok()
            {
                cx.metrics.bulk_frames_sent += 1;
            }
        }
    }

    /// Fires NACK pulls for hold-back entries whose out-of-band payload
    /// is overdue, rotating the target: the origin first (it release-gates
    /// its copy on retirement), then the other members the manifest shows
    /// as holders.
    pub(crate) fn fire_bulk_pulls(&mut self, cx: &mut Ctx<'_>) {
        let mut pulls: Vec<(NodeId, BulkNack)> = Vec::new();
        let me = cx.id;
        for p in self.holdback.iter_mut() {
            if p.payload.is_some() {
                continue;
            }
            let Some(at) = p.pull_at else { continue };
            if cx.now < at {
                continue;
            }
            let mut candidates: Vec<NodeId> = vec![p.origin];
            candidates.extend(
                p.holders
                    .iter()
                    .copied()
                    .filter(|&h| h != me && h != p.origin),
            );
            let target = candidates[(p.pull_tries as usize) % candidates.len()];
            p.pull_tries = p.pull_tries.wrapping_add(1);
            p.pull_at = Some(cx.now + BULK_PULL_TIMEOUT);
            pulls.push((
                target,
                BulkNack {
                    from: me,
                    origin: p.origin,
                    seq: p.seq,
                },
            ));
        }
        for (to, n) in pulls {
            let bytes = SessionMsg::BulkNack(n).encode_to_bytes();
            if cx.transport.send_unreliable(cx.now, to, bytes).is_ok() {
                cx.metrics.bulk_nacks_sent += 1;
            }
        }
    }

    /// Earliest NACK-pull deadline among entries still missing a payload.
    pub(crate) fn next_pull(&self) -> Option<Time> {
        self.holdback
            .iter()
            .filter(|p| p.payload.is_none())
            .filter_map(|p| p.pull_at)
            .min()
    }

    /// This component's slice of the model-checker state digest.
    /// Application payloads are hashed raw — they are opaque to the
    /// protocol.
    pub(crate) fn digest_into(&self, now: Time, d: &mut StateDigest) {
        d.write_len(self.outgoing.len());
        for q in &self.outgoing {
            q.entry.seq.digest_into(d);
            d.tag(matches!(q.entry.mode, DeliveryMode::Safe) as u8);
            if let Some(payload) = q.oob_payload.as_ref().or(q.entry.inline_payload()) {
                d.write_bytes(payload);
            }
        }
        self.next_origin_seq.digest_into(d);
        for (label, map) in [(0u8, &self.delivered), (1u8, &self.open_dedup)] {
            d.tag(label);
            d.write_len(map.len());
            for (&id, window) in map {
                d.node(id);
                window.digest_into(d);
            }
        }
        d.write_len(self.holdback.len());
        for p in &self.holdback {
            d.node(p.origin);
            p.seq.digest_into(d);
            d.tag(matches!(p.mode, DeliveryMode::Safe) as u8);
            d.write_bool(p.ready);
            d.opt(p.payload.as_ref(), |d, bytes| d.write_bytes(bytes));
            d.opt(p.pull_at, |d, t| d.time_rel(t, now));
            d.write_u32(p.pull_tries);
            // Holder order is the rotation order — positional.
            p.holders.digest_into(d);
        }
        // Buffered-bulk state: two states differing only in which
        // payloads are resident (or which bulk ids were accepted) behave
        // differently under loss and must not merge.
        self.bulk_store.digest_into(d);
        self.bulk_dedup.digest_into(d);
    }
}

#[cfg(test)]
mod bulk_tests;
#[cfg(test)]
mod holdback_tests;

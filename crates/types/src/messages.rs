//! Session-layer message formats.
//!
//! Four datagrams cross the wire at the session layer (§2.2–2.4 of the
//! paper):
//!
//! * [`Token`] — the unique circulating TOKEN. It carries the
//!   authoritative membership [`Ring`], a sequence number incremented on
//!   every hop, the TBM ("to be merged") flag used by the merge protocol,
//!   and the piggybacked multicast messages ([`Attached`]).
//! * [`Call911`] — the 911 request: both a token-regeneration request
//!   (stamped with the caller's last local token sequence number) and,
//!   when the caller is not in the receiver's membership, a join request.
//! * [`Reply911`] — grant or denial of a 911 regeneration request.
//! * [`BodyOdor`] — the periodic discovery beacon sent to eligible
//!   non-members, carrying the sender's node id and current group id.

use crate::id::{GroupId, NodeId, OriginSeq};
use crate::membership::Ring;
use crate::wire::{varint_len, Reader, WireDecode, WireEncode, WireError, WireResult, Writer};
use bytes::Bytes;
use std::sync::Arc;

/// Consistency level requested for a multicast message (§2.6).
///
/// *Agreed* (total) ordering falls out of the token order at no extra cost;
/// *safe* delivery additionally waits until every member is known to have
/// received the message, which costs one extra token round.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DeliveryMode {
    /// Deliver at first sight, in token order. Atomic + totally ordered.
    Agreed,
    /// Deliver only once all members of the membership have received the
    /// message (one extra token round).
    Safe,
}

impl WireEncode for DeliveryMode {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(match self {
            DeliveryMode::Agreed => 0,
            DeliveryMode::Safe => 1,
        });
    }
}

impl WireDecode for DeliveryMode {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        match r.get_u8()? {
            0 => Ok(DeliveryMode::Agreed),
            1 => Ok(DeliveryMode::Safe),
            tag => Err(WireError::BadTag {
                ty: "DeliveryMode",
                tag,
            }),
        }
    }
}

/// The body an [`Attached`] entry carries on the token: either the full
/// application payload inline (the classic piggyback path) or an
/// out-of-band *manifest* — just the payload length, with the bytes
/// themselves disseminated directly to members as bulk frames (Ring
/// Paxos split: the ring fixes the order, the payload travels out of
/// band). For an `Oob` entry the `seen` set doubles as the stability
/// watermark: a node marks itself seen only once it holds the payload,
/// so `seen_by_all` certifies that every member can deliver.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AttachedBody {
    /// Full payload rides the token.
    Inline(Bytes),
    /// Payload travels out of band as bulk frames; the token carries only
    /// this id-manifest entry with the expected payload length.
    Oob {
        /// Length in bytes of the out-of-band payload.
        len: u64,
    },
}

impl AttachedBody {
    const TAG_INLINE: u8 = 0;
    const TAG_OOB: u8 = 1;
}

impl WireEncode for AttachedBody {
    fn encode(&self, w: &mut Writer) {
        match self {
            AttachedBody::Inline(payload) => {
                w.put_u8(Self::TAG_INLINE);
                w.put_bytes(payload);
            }
            AttachedBody::Oob { len } => {
                w.put_u8(Self::TAG_OOB);
                w.put_varint(*len);
            }
        }
    }
}

impl WireDecode for AttachedBody {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        match r.get_u8()? {
            Self::TAG_INLINE => Ok(AttachedBody::Inline(r.get_bytes()?)),
            Self::TAG_OOB => Ok(AttachedBody::Oob {
                len: r.get_varint()?,
            }),
            tag => Err(WireError::BadTag {
                ty: "AttachedBody",
                tag,
            }),
        }
    }
}

/// A multicast message riding the token ("the token is the locomotive for
/// the reliable multicast transport", §2.2).
///
/// The `(origin, seq)` pair identifies the message globally and is the
/// receivers' duplicate-suppression key across token-loss recovery. The
/// `seen` set records which members have received the payload; for
/// [`DeliveryMode::Safe`] messages the `confirmed` set records which
/// members have *observed* that everyone received it (the extra round).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Attached {
    /// Node that originated the multicast.
    pub origin: NodeId,
    /// Per-origin sequence number.
    pub seq: OriginSeq,
    /// Requested consistency level.
    pub mode: DeliveryMode,
    /// Members that have received the payload so far.
    pub seen: Vec<NodeId>,
    /// Members that have observed `seen` cover the membership (safe mode's
    /// second round); unused (empty) for agreed mode.
    pub confirmed: Vec<NodeId>,
    /// Application payload, inline or as an out-of-band manifest entry.
    pub body: AttachedBody,
}

impl Attached {
    /// Creates a fresh attachment originated by `origin`; the originator
    /// has trivially seen its own message.
    pub fn new(origin: NodeId, seq: OriginSeq, mode: DeliveryMode, payload: Bytes) -> Self {
        Attached {
            origin,
            seq,
            mode,
            seen: vec![origin],
            confirmed: Vec::new(),
            body: AttachedBody::Inline(payload),
        }
    }

    /// Creates a fresh out-of-band manifest entry: the token orders the
    /// `(origin, seq)` id while the `len`-byte payload travels as bulk
    /// frames. The originator holds the payload, so it is trivially seen.
    pub fn new_oob(origin: NodeId, seq: OriginSeq, mode: DeliveryMode, len: u64) -> Self {
        Attached {
            origin,
            seq,
            mode,
            seen: vec![origin],
            confirmed: Vec::new(),
            body: AttachedBody::Oob { len },
        }
    }

    /// The inline payload, if this entry carries one.
    pub fn inline_payload(&self) -> Option<&Bytes> {
        match &self.body {
            AttachedBody::Inline(p) => Some(p),
            AttachedBody::Oob { .. } => None,
        }
    }

    /// True if the payload travels out of band.
    pub fn is_oob(&self) -> bool {
        matches!(self.body, AttachedBody::Oob { .. })
    }

    /// Payload length in bytes, whether inline or out of band.
    pub fn payload_len(&self) -> usize {
        match &self.body {
            AttachedBody::Inline(p) => p.len(),
            AttachedBody::Oob { len } => *len as usize,
        }
    }

    /// Globally unique message key.
    pub fn key(&self) -> (NodeId, OriginSeq) {
        (self.origin, self.seq)
    }

    /// Records that `node` has received the payload. Idempotent.
    pub fn mark_seen(&mut self, node: NodeId) {
        if !self.seen.contains(&node) {
            self.seen.push(node);
        }
    }

    /// Records that `node` has observed all-received (safe phase 2). Idempotent.
    pub fn mark_confirmed(&mut self, node: NodeId) {
        if !self.confirmed.contains(&node) {
            self.confirmed.push(node);
        }
    }

    /// True if every member of `ring` has received the payload.
    pub fn seen_by_all(&self, ring: &Ring) -> bool {
        ring.iter().all(|m| self.seen.contains(&m))
    }

    /// True if every member of `ring` has observed all-received.
    pub fn confirmed_by_all(&self, ring: &Ring) -> bool {
        ring.iter().all(|m| self.confirmed.contains(&m))
    }
}

impl WireEncode for Attached {
    fn encode(&self, w: &mut Writer) {
        self.origin.encode(w);
        self.seq.encode(w);
        self.mode.encode(w);
        self.seen.encode(w);
        self.confirmed.encode(w);
        self.body.encode(w);
    }
}

impl Attached {
    /// Exact length of [`WireEncode::encode`]'s output, without encoding:
    /// what this entry adds to a token's wire image. The pacing rule
    /// (DESIGN.md §16) sizes tokens with it on every accept and submit.
    pub fn wire_len(&self) -> usize {
        let ids = |v: &[NodeId]| {
            varint_len(v.len() as u64) + v.iter().map(|n| varint_len(n.0.into())).sum::<usize>()
        };
        let body = match &self.body {
            AttachedBody::Inline(p) => varint_len(p.len() as u64) + p.len(),
            AttachedBody::Oob { len } => varint_len(*len),
        };
        // One byte each for the mode and the body tag.
        varint_len(self.origin.0.into())
            + varint_len(self.seq.0)
            + ids(&self.seen)
            + ids(&self.confirmed)
            + 2
            + body
    }

    /// The freight this entry orders, in bytes: [`Attached::wire_len`]
    /// plus, for an out-of-band entry whose payload is by itself `full`
    /// bytes or more — a full token's worth, the pacing rule's line — that
    /// payload, which travels beside the token. What the pacing rule
    /// (DESIGN.md §16) weighs: for an inline entry, and for an out-of-band
    /// one smaller than `full`, the very same integer as `wire_len`.
    /// Saturating: `len` is an unbounded varint a peer chose.
    pub fn load_len(&self, full: usize) -> usize {
        let beside = match self.body {
            AttachedBody::Inline(_) => 0,
            AttachedBody::Oob { len } => usize::try_from(len).unwrap_or(usize::MAX),
        };
        if beside >= full {
            self.wire_len().saturating_add(beside)
        } else {
            self.wire_len()
        }
    }
}

impl WireDecode for Attached {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        Ok(Attached {
            origin: NodeId::decode(r)?,
            seq: OriginSeq::decode(r)?,
            mode: DeliveryMode::decode(r)?,
            seen: Vec::decode(r)?,
            confirmed: Vec::decode(r)?,
            body: AttachedBody::decode(r)?,
        })
    }
}

/// The token's piggybacked message list, stored copy-on-write.
///
/// `MsgList::clone` is a reference-count bump; the first mutation of a
/// shared list copies it once. The hot path snapshots the whole token
/// into `last_copy` on every hop, so sharing here (together with the CoW
/// [`Ring`]) makes `Token::clone` allocation-free, while the per-hop
/// `mark_seen` mutation pays at most one copy per message-carrying hop.
/// Read access goes through `Deref<Target = [Attached]>`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MsgList {
    items: Arc<Vec<Attached>>,
}

impl MsgList {
    /// Creates an empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copy-on-write access to the items: copies them iff shared.
    fn items_mut(&mut self) -> &mut Vec<Attached> {
        Arc::make_mut(&mut self.items)
    }

    /// Appends a message.
    pub fn push(&mut self, m: Attached) {
        self.items_mut().push(m);
    }

    /// Mutable iteration (unshares the list first).
    pub fn iter_mut(&mut self) -> core::slice::IterMut<'_, Attached> {
        self.items_mut().iter_mut()
    }

    /// Keeps only the messages for which `f` returns true.
    pub fn retain<F: FnMut(&Attached) -> bool>(&mut self, f: F) {
        self.items_mut().retain(f);
    }

    /// Removes and returns every message, leaving the list empty.
    pub fn take_all(&mut self) -> Vec<Attached> {
        match Arc::try_unwrap(std::mem::take(&mut self.items)) {
            Ok(v) => v,
            Err(shared) => shared.as_ref().clone(),
        }
    }
}

impl core::ops::Deref for MsgList {
    type Target = [Attached];

    fn deref(&self) -> &[Attached] {
        &self.items
    }
}

impl From<Vec<Attached>> for MsgList {
    fn from(items: Vec<Attached>) -> Self {
        MsgList {
            items: Arc::new(items),
        }
    }
}

impl FromIterator<Attached> for MsgList {
    fn from_iter<I: IntoIterator<Item = Attached>>(iter: I) -> Self {
        Vec::from_iter(iter).into()
    }
}

impl WireEncode for MsgList {
    fn encode(&self, w: &mut Writer) {
        self.items.encode(w);
    }
}

impl WireDecode for MsgList {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        Ok(Vec::<Attached>::decode(r)?.into())
    }
}

/// Compact causal trace context carried in the token wire header, right
/// after the per-hop `seq` and before the body.
///
/// Three varints turn every token hop into a cross-node span that can be
/// merged without trusting wall clocks: `hop` orders hops within a
/// *circulation* (one uninterrupted token lineage segment), `circ` names
/// the circulation, and `parent` links a freshly minted circulation
/// (regeneration, merge, bootstrap) back to the hop it causally descends
/// from. The context is protocol-inert — nodes never branch on it — so it
/// rides the patched header at zero allocation cost and stays decoupled
/// from the protocol's own `seq` arithmetic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceCtx {
    /// Circulation id: `(minter_id << 40) | (seq at mint)`. Changes
    /// whenever a new token lineage segment is minted (founding,
    /// regeneration, merge); unique per minter because `seq` is monotonic
    /// along any lineage a single node ever extends.
    pub circ: u64,
    /// Hop sequence within the lineage; incremented alongside `seq` on
    /// every pass, so `hop_a < hop_b` is happens-before within one
    /// lineage regardless of clock skew between the observing nodes.
    pub hop: u64,
    /// Hop seq of the previous circulation's last observed hop at mint
    /// time (0 for a true founding with no ancestor).
    pub parent: u64,
}

impl TraceCtx {
    const MINT_SEQ_BITS: u32 = 40;

    /// Mints a new circulation: `minter` created a token lineage segment
    /// whose current seq is `seq`, causally after hop `parent`.
    pub fn mint(minter: NodeId, seq: u64, parent: u64) -> Self {
        TraceCtx {
            circ: (u64::from(minter.0) << Self::MINT_SEQ_BITS)
                | (seq & ((1 << Self::MINT_SEQ_BITS) - 1)),
            hop: seq,
            parent,
        }
    }

    /// The node that minted this circulation (upper bits of `circ`).
    pub fn minter(&self) -> NodeId {
        NodeId((self.circ >> Self::MINT_SEQ_BITS) as u32)
    }
}

impl WireEncode for TraceCtx {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.circ);
        w.put_varint(self.hop);
        w.put_varint(self.parent);
    }
}

impl WireDecode for TraceCtx {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        Ok(TraceCtx {
            circ: r.get_varint()?,
            hop: r.get_varint()?,
            parent: r.get_varint()?,
        })
    }
}

/// The circulating TOKEN (§2.2).
///
/// Exactly one token exists per group at any instant (the paper proves
/// uniqueness from the per-hop sequence number and the 911 grant rule).
/// The membership recorded on the token is the *authoritative* group
/// membership; nodes refresh their local view from each token they receive.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Token {
    /// Per-hop sequence number; incremented by one on every pass. Starts
    /// at 1 for a freshly formed group, so `0` can mean "never saw a token".
    pub seq: u64,
    /// Causal trace context (circulation id, hop seq, causal parent).
    /// Part of the mutable header, re-patched on every hop.
    pub trace: TraceCtx,
    /// Authoritative membership, in ring order.
    pub ring: Ring,
    /// "To Be Merged" flag (§2.4): set when this token is handed to a
    /// lower group to be merged with that group's own token.
    pub tbm: bool,
    /// Piggybacked multicast messages, in global delivery order.
    pub msgs: MsgList,
}

impl Token {
    /// Creates the founding token of a new group with the given ring.
    /// The circulation is minted by the group id (lowest member).
    pub fn founding(ring: Ring) -> Self {
        let minter = ring.group_id().map_or(NodeId(0), |g| g.0);
        Token {
            seq: 1,
            trace: TraceCtx::mint(minter, 1, 0),
            ring,
            tbm: false,
            msgs: MsgList::new(),
        }
    }

    /// Group id of the membership on this token (lowest member id).
    pub fn group_id(&self) -> Option<GroupId> {
        self.ring.group_id()
    }

    /// Total bytes of piggybacked payloads (for accounting/tests).
    /// Counts only bytes that actually ride the token: inline payloads,
    /// not out-of-band manifest entries.
    pub fn payload_bytes(&self) -> usize {
        self.msgs
            .iter()
            .map(|m| m.inline_payload().map_or(0, Bytes::len))
            .sum()
    }

    /// Encodes the slow-changing *body* of the wire image — ring, tbm and
    /// piggybacked messages: everything after the per-hop `seq`. The
    /// patch-per-hop encoder ([`crate::token_codec::TokenEncoder`]) caches
    /// exactly these bytes between hops.
    pub fn encode_body(&self, w: &mut Writer) {
        self.ring.encode(w);
        w.put_bool(self.tbm);
        self.msgs.encode(w);
    }
}

impl WireEncode for Token {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.seq);
        self.trace.encode(w);
        self.encode_body(w);
    }
}

impl Token {
    /// Wire length of everything but the piggybacked entries.
    fn envelope_len(&self) -> usize {
        let varints = [
            self.seq,
            self.trace.circ,
            self.trace.hop,
            self.trace.parent,
            self.ring.len() as u64,
            self.msgs.len() as u64,
        ];
        // One byte each for the `SessionMsg` tag and the tbm flag.
        2 + varints.into_iter().map(varint_len).sum::<usize>()
            + self
                .ring
                .iter()
                .map(|n| varint_len(n.0.into()))
                .sum::<usize>()
    }

    /// Exact length of the `SessionMsg::Token` wire image of this token
    /// (tag included), without encoding it.
    pub fn wire_len(&self) -> usize {
        self.envelope_len() + self.msgs.iter().map(Attached::wire_len).sum::<usize>()
    }

    /// The freight this token orders: its wire image plus the out-of-band
    /// payloads of `full` bytes or more that its manifest entries stand
    /// for ([`Attached::load_len`]). Equal to [`Token::wire_len`] when no
    /// entry orders such a payload; saturating.
    pub fn load_len(&self, full: usize) -> usize {
        self.msgs.iter().fold(self.envelope_len(), |n, m| {
            n.saturating_add(m.load_len(full))
        })
    }
}

impl WireDecode for Token {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        Ok(Token {
            seq: r.get_varint()?,
            trace: TraceCtx::decode(r)?,
            ring: Ring::decode(r)?,
            tbm: r.get_bool()?,
            msgs: MsgList::decode(r)?,
        })
    }
}

/// A 911 call (§2.3): request for the right to regenerate a lost token,
/// or — when the caller is not in the receiver's membership — a join
/// request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Call911 {
    /// The calling node.
    pub from: NodeId,
    /// Sequence number on the caller's last local copy of the token
    /// (0 if the caller has never seen a token, e.g. a brand-new node).
    pub last_token_seq: u64,
    /// Caller-local request id, echoed in replies so stale verdicts can be
    /// discarded.
    pub req_id: u64,
}

impl WireEncode for Call911 {
    fn encode(&self, w: &mut Writer) {
        self.from.encode(w);
        w.put_varint(self.last_token_seq);
        w.put_varint(self.req_id);
    }
}

impl WireDecode for Call911 {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        Ok(Call911 {
            from: NodeId::decode(r)?,
            last_token_seq: r.get_varint()?,
            req_id: r.get_varint()?,
        })
    }
}

/// Verdict on a 911 regeneration request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict911 {
    /// The voter's local token copy is not newer and it does not hold the
    /// token: the caller may regenerate as far as this voter is concerned.
    Grant,
    /// The voter holds the token or has a more recent local copy
    /// (`newer_seq`); the caller must not regenerate.
    Deny {
        /// Sequence number of the voter's (newer) local copy, so the
        /// caller can update its expectations.
        newer_seq: u64,
    },
}

impl WireEncode for Verdict911 {
    fn encode(&self, w: &mut Writer) {
        match self {
            Verdict911::Grant => w.put_u8(0),
            Verdict911::Deny { newer_seq } => {
                w.put_u8(1);
                w.put_varint(*newer_seq);
            }
        }
    }
}

impl WireDecode for Verdict911 {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        match r.get_u8()? {
            0 => Ok(Verdict911::Grant),
            1 => Ok(Verdict911::Deny {
                newer_seq: r.get_varint()?,
            }),
            tag => Err(WireError::BadTag {
                ty: "Verdict911",
                tag,
            }),
        }
    }
}

/// Reply to a [`Call911`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reply911 {
    /// The voting node.
    pub from: NodeId,
    /// Echo of the request id from the call.
    pub req_id: u64,
    /// The voter's verdict.
    pub verdict: Verdict911,
}

impl WireEncode for Reply911 {
    fn encode(&self, w: &mut Writer) {
        self.from.encode(w);
        w.put_varint(self.req_id);
        self.verdict.encode(w);
    }
}

impl WireDecode for Reply911 {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        Ok(Reply911 {
            from: NodeId::decode(r)?,
            req_id: r.get_varint()?,
            verdict: Verdict911::decode(r)?,
        })
    }
}

/// Discovery beacon (§2.4): sent periodically, at low frequency, to nodes
/// in the Eligible Membership that are absent from the current group
/// membership. Carries the sender's node id and its group id; a receiver
/// whose group id is *higher* treats it as a merge-join request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BodyOdor {
    /// The beaconing node.
    pub from: NodeId,
    /// The sender's current group id (lowest member of its group).
    pub group: GroupId,
}

impl WireEncode for BodyOdor {
    fn encode(&self, w: &mut Writer) {
        self.from.encode(w);
        self.group.encode(w);
    }
}

impl WireDecode for BodyOdor {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        Ok(BodyOdor {
            from: NodeId::decode(r)?,
            group: GroupId::decode(r)?,
        })
    }
}

/// An open-group submission (§2.6): a node *outside* the group sends a
/// message to any member; that member forwards it to the whole group as
/// an ordinary reliable multicast.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpenSubmit {
    /// The external sender's node id (not a group member).
    pub from: NodeId,
    /// Sender-local sequence number, for relay-side deduplication when
    /// the submission is retried toward a different member.
    pub seq: OriginSeq,
    /// The payload to multicast into the group.
    pub payload: Bytes,
}

impl WireEncode for OpenSubmit {
    fn encode(&self, w: &mut Writer) {
        self.from.encode(w);
        self.seq.encode(w);
        w.put_bytes(&self.payload);
    }
}

impl WireDecode for OpenSubmit {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        Ok(OpenSubmit {
            from: NodeId::decode(r)?,
            seq: OriginSeq::decode(r)?,
            payload: r.get_bytes()?,
        })
    }
}

/// An out-of-band bulk payload frame: the payload of a multicast whose
/// token entry is an [`AttachedBody::Oob`] manifest, sent directly to
/// each member (and re-sent by any holder answering a [`BulkNack`]).
/// Keyed by the same `(origin, seq)` bulk id the manifest orders.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BulkData {
    /// Node that originated the multicast.
    pub origin: NodeId,
    /// Per-origin sequence number (the bulk id, with `origin`).
    pub seq: OriginSeq,
    /// The application payload.
    pub payload: Bytes,
}

impl WireEncode for BulkData {
    fn encode(&self, w: &mut Writer) {
        self.origin.encode(w);
        self.seq.encode(w);
        w.put_bytes(&self.payload);
    }
}

impl WireDecode for BulkData {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        Ok(BulkData {
            origin: NodeId::decode(r)?,
            seq: OriginSeq::decode(r)?,
            payload: r.get_bytes()?,
        })
    }
}

/// A negative acknowledgement for a missing bulk payload: the sender saw
/// the `(origin, seq)` id ordered on the token but never received (or
/// lost) the [`BulkData`] frame, and asks the receiver to retransmit it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BulkNack {
    /// The node requesting retransmission (where to send the payload).
    pub from: NodeId,
    /// Origin of the missing multicast.
    pub origin: NodeId,
    /// Per-origin sequence number of the missing multicast.
    pub seq: OriginSeq,
}

impl WireEncode for BulkNack {
    fn encode(&self, w: &mut Writer) {
        self.from.encode(w);
        self.origin.encode(w);
        self.seq.encode(w);
    }
}

impl WireDecode for BulkNack {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        Ok(BulkNack {
            from: NodeId::decode(r)?,
            origin: NodeId::decode(r)?,
            seq: OriginSeq::decode(r)?,
        })
    }
}

/// Any session-layer datagram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SessionMsg {
    /// The circulating token.
    Token(Token),
    /// 911 regeneration/join request.
    Call911(Call911),
    /// 911 verdict.
    Reply911(Reply911),
    /// Discovery beacon.
    BodyOdor(BodyOdor),
    /// Open-group submission from a non-member (§2.6).
    Open(OpenSubmit),
    /// Out-of-band bulk payload frame.
    Bulk(BulkData),
    /// Request to retransmit a missing bulk payload.
    BulkNack(BulkNack),
    /// "Are you there?" from a HUNGRY member to the member it last passed
    /// the token to. Header only: the transport's acknowledgement is the
    /// whole answer, and the receiver does nothing.
    Probe,
}

impl SessionMsg {
    /// Wire tag of the [`SessionMsg::Token`] variant. Shared with the
    /// patch-per-hop [`crate::token_codec::TokenEncoder`], which writes
    /// the tag itself so its output stays byte-identical to
    /// [`WireEncode::encode`].
    pub const TAG_TOKEN: u8 = 0;
    /// Wire tag of [`SessionMsg::Call911`].
    pub const TAG_CALL911: u8 = 1;
    /// Wire tag of [`SessionMsg::Reply911`].
    pub const TAG_REPLY911: u8 = 2;
    /// Wire tag of [`SessionMsg::BodyOdor`].
    pub const TAG_BODYODOR: u8 = 3;
    /// Wire tag of [`SessionMsg::Open`].
    pub const TAG_OPEN: u8 = 4;
    /// Wire tag of [`SessionMsg::Bulk`].
    pub const TAG_BULK: u8 = 5;
    /// Wire tag of [`SessionMsg::BulkNack`].
    pub const TAG_BULK_NACK: u8 = 6;
    /// Wire tag of [`SessionMsg::Probe`].
    pub const TAG_PROBE: u8 = 7;

    /// Short human-readable kind name (for traces).
    pub fn kind(&self) -> &'static str {
        match self {
            SessionMsg::Token(_) => "TOKEN",
            SessionMsg::Call911(_) => "911",
            SessionMsg::Reply911(_) => "911-REPLY",
            SessionMsg::BodyOdor(_) => "BODYODOR",
            SessionMsg::Open(_) => "OPEN",
            SessionMsg::Bulk(_) => "BULK",
            SessionMsg::BulkNack(_) => "BULK-NACK",
            SessionMsg::Probe => "PROBE",
        }
    }
}

impl WireEncode for SessionMsg {
    fn encode(&self, w: &mut Writer) {
        match self {
            SessionMsg::Token(t) => {
                w.put_u8(Self::TAG_TOKEN);
                t.encode(w);
            }
            SessionMsg::Call911(c) => {
                w.put_u8(Self::TAG_CALL911);
                c.encode(w);
            }
            SessionMsg::Reply911(rep) => {
                w.put_u8(Self::TAG_REPLY911);
                rep.encode(w);
            }
            SessionMsg::BodyOdor(b) => {
                w.put_u8(Self::TAG_BODYODOR);
                b.encode(w);
            }
            SessionMsg::Open(o) => {
                w.put_u8(Self::TAG_OPEN);
                o.encode(w);
            }
            SessionMsg::Bulk(b) => {
                w.put_u8(Self::TAG_BULK);
                b.encode(w);
            }
            SessionMsg::BulkNack(n) => {
                w.put_u8(Self::TAG_BULK_NACK);
                n.encode(w);
            }
            SessionMsg::Probe => w.put_u8(Self::TAG_PROBE),
        }
    }
}

impl WireDecode for SessionMsg {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        match r.get_u8()? {
            Self::TAG_TOKEN => Ok(SessionMsg::Token(Token::decode(r)?)),
            Self::TAG_CALL911 => Ok(SessionMsg::Call911(Call911::decode(r)?)),
            Self::TAG_REPLY911 => Ok(SessionMsg::Reply911(Reply911::decode(r)?)),
            Self::TAG_BODYODOR => Ok(SessionMsg::BodyOdor(BodyOdor::decode(r)?)),
            Self::TAG_OPEN => Ok(SessionMsg::Open(OpenSubmit::decode(r)?)),
            Self::TAG_BULK => Ok(SessionMsg::Bulk(BulkData::decode(r)?)),
            Self::TAG_BULK_NACK => Ok(SessionMsg::BulkNack(BulkNack::decode(r)?)),
            Self::TAG_PROBE => Ok(SessionMsg::Probe),
            tag => Err(WireError::BadTag {
                ty: "SessionMsg",
                tag,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ring(ids: &[u32]) -> Ring {
        Ring::from_iter(ids.iter().map(|&i| NodeId(i)))
    }

    #[test]
    fn attached_seen_tracking() {
        let mut a = Attached::new(
            NodeId(1),
            OriginSeq(5),
            DeliveryMode::Agreed,
            Bytes::from_static(b"x"),
        );
        assert_eq!(a.seen, vec![NodeId(1)]);
        a.mark_seen(NodeId(2));
        a.mark_seen(NodeId(2));
        assert_eq!(a.seen, vec![NodeId(1), NodeId(2)]);
        assert!(!a.seen_by_all(&ring(&[1, 2, 3])));
        a.mark_seen(NodeId(3));
        assert!(a.seen_by_all(&ring(&[1, 2, 3])));
        assert_eq!(a.key(), (NodeId(1), OriginSeq(5)));
    }

    #[test]
    fn attached_confirmed_tracking() {
        let mut a = Attached::new(NodeId(1), OriginSeq(0), DeliveryMode::Safe, Bytes::new());
        assert!(!a.confirmed_by_all(&ring(&[1, 2])));
        a.mark_confirmed(NodeId(1));
        a.mark_confirmed(NodeId(2));
        a.mark_confirmed(NodeId(2));
        assert!(a.confirmed_by_all(&ring(&[1, 2])));
        assert_eq!(a.confirmed.len(), 2);
    }

    #[test]
    fn founding_token() {
        let t = Token::founding(ring(&[3, 1, 2]));
        assert_eq!(t.seq, 1);
        assert!(!t.tbm);
        assert!(t.msgs.is_empty());
        assert_eq!(t.group_id(), Some(GroupId(NodeId(1))));
        // The founding circulation is minted by the group id at seq 1
        // with no causal ancestor.
        assert_eq!(t.trace.minter(), NodeId(1));
        assert_eq!(t.trace.hop, 1);
        assert_eq!(t.trace.parent, 0);
    }

    #[test]
    fn trace_ctx_mint_is_unique_per_minter_and_seq() {
        let a = TraceCtx::mint(NodeId(3), 17, 5);
        let b = TraceCtx::mint(NodeId(3), 19, 17);
        let c = TraceCtx::mint(NodeId(4), 17, 5);
        assert_ne!(a.circ, b.circ, "same minter, later seq");
        assert_ne!(a.circ, c.circ, "different minter, same seq");
        assert_eq!(a.minter(), NodeId(3));
        assert_eq!(c.minter(), NodeId(4));
        assert_eq!(a.hop, 17);
        assert_eq!(a.parent, 5);
    }

    #[test]
    fn token_payload_bytes() {
        let mut t = Token::founding(ring(&[1]));
        t.msgs.push(Attached::new(
            NodeId(1),
            OriginSeq(0),
            DeliveryMode::Agreed,
            Bytes::from(vec![0u8; 10]),
        ));
        t.msgs.push(Attached::new(
            NodeId(1),
            OriginSeq(1),
            DeliveryMode::Agreed,
            Bytes::from(vec![0u8; 5]),
        ));
        assert_eq!(t.payload_bytes(), 15);
    }

    #[test]
    fn oob_manifest_entries_carry_only_ids() {
        let inline = Attached::new(
            NodeId(1),
            OriginSeq(0),
            DeliveryMode::Agreed,
            Bytes::from(vec![0u8; 10]),
        );
        let oob = Attached::new_oob(NodeId(1), OriginSeq(1), DeliveryMode::Agreed, 1024);
        assert!(!inline.is_oob());
        assert!(oob.is_oob());
        assert_eq!(inline.payload_len(), 10);
        assert_eq!(oob.payload_len(), 1024);
        assert!(inline.inline_payload().is_some());
        assert!(oob.inline_payload().is_none());
        assert_eq!(oob.seen, vec![NodeId(1)], "originator holds the payload");
        // Only inline bytes count as token freight.
        let mut t = Token::founding(ring(&[1]));
        t.msgs.push(inline);
        t.msgs.push(oob);
        assert_eq!(t.payload_bytes(), 10);
        // The manifest wire form is a handful of varints, not the payload.
        let wire = t.msgs[1].encode_to_bytes();
        assert!(wire.len() < 32, "manifest entry is compact: {}", wire.len());
    }

    #[test]
    fn msg_list_clone_shares_until_mutated() {
        let mut a = MsgList::new();
        a.push(Attached::new(
            NodeId(1),
            OriginSeq(0),
            DeliveryMode::Agreed,
            Bytes::from_static(b"x"),
        ));
        let mut b = a.clone();
        assert_eq!(a.as_ptr(), b.as_ptr());
        // Mutating through iter_mut unshares; the original is untouched.
        for m in b.iter_mut() {
            m.mark_seen(NodeId(2));
        }
        assert_ne!(a.as_ptr(), b.as_ptr());
        assert_eq!(a[0].seen, vec![NodeId(1)]);
        assert_eq!(b[0].seen, vec![NodeId(1), NodeId(2)]);
        // take_all drains a shared list without disturbing the other copy.
        let drained = b.take_all();
        assert_eq!(drained.len(), 1);
        assert!(b.is_empty());
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn session_msg_kinds() {
        assert_eq!(
            SessionMsg::Token(Token::founding(ring(&[1]))).kind(),
            "TOKEN"
        );
        assert_eq!(
            SessionMsg::Call911(Call911 {
                from: NodeId(1),
                last_token_seq: 0,
                req_id: 1
            })
            .kind(),
            "911"
        );
        assert_eq!(
            SessionMsg::Reply911(Reply911 {
                from: NodeId(1),
                req_id: 1,
                verdict: Verdict911::Grant
            })
            .kind(),
            "911-REPLY"
        );
        assert_eq!(
            SessionMsg::BodyOdor(BodyOdor {
                from: NodeId(1),
                group: GroupId(NodeId(1))
            })
            .kind(),
            "BODYODOR"
        );
        assert_eq!(
            SessionMsg::Bulk(BulkData {
                origin: NodeId(1),
                seq: OriginSeq(0),
                payload: Bytes::new()
            })
            .kind(),
            "BULK"
        );
        assert_eq!(
            SessionMsg::BulkNack(BulkNack {
                from: NodeId(2),
                origin: NodeId(1),
                seq: OriginSeq(0)
            })
            .kind(),
            "BULK-NACK"
        );
        assert_eq!(SessionMsg::Probe.kind(), "PROBE");
    }

    #[test]
    fn wire_round_trip_all_variants() {
        let mut token = Token::founding(ring(&[1, 2, 3]));
        token.tbm = true;
        token.seq = 42;
        token.msgs.push(Attached {
            origin: NodeId(2),
            seq: OriginSeq(7),
            mode: DeliveryMode::Safe,
            seen: vec![NodeId(2), NodeId(3)],
            confirmed: vec![NodeId(2)],
            body: AttachedBody::Inline(Bytes::from_static(b"payload")),
        });
        token.msgs.push(Attached::new_oob(
            NodeId(3),
            OriginSeq(9),
            DeliveryMode::Agreed,
            4096,
        ));
        let cases = vec![
            SessionMsg::Token(token),
            SessionMsg::Call911(Call911 {
                from: NodeId(9),
                last_token_seq: 1234,
                req_id: 8,
            }),
            SessionMsg::Reply911(Reply911 {
                from: NodeId(1),
                req_id: 8,
                verdict: Verdict911::Deny { newer_seq: 2000 },
            }),
            SessionMsg::Reply911(Reply911 {
                from: NodeId(1),
                req_id: 9,
                verdict: Verdict911::Grant,
            }),
            SessionMsg::BodyOdor(BodyOdor {
                from: NodeId(4),
                group: GroupId(NodeId(2)),
            }),
            SessionMsg::Open(OpenSubmit {
                from: NodeId(99),
                seq: OriginSeq(3),
                payload: Bytes::from_static(b"outside"),
            }),
            SessionMsg::Bulk(BulkData {
                origin: NodeId(2),
                seq: OriginSeq(7),
                payload: Bytes::from_static(b"bulk payload"),
            }),
            SessionMsg::BulkNack(BulkNack {
                from: NodeId(5),
                origin: NodeId(2),
                seq: OriginSeq(7),
            }),
            SessionMsg::Probe,
        ];
        for msg in cases {
            let buf = msg.encode_to_bytes();
            assert_eq!(SessionMsg::decode_from_bytes(&buf).unwrap(), msg);
        }
        assert_eq!(SessionMsg::Probe.encode_to_bytes().len(), 1, "header only");
    }

    #[test]
    fn decode_bad_tag_fails() {
        let buf = [200u8, 0, 0];
        assert!(matches!(
            SessionMsg::decode_from_bytes(&buf),
            Err(WireError::BadTag {
                ty: "SessionMsg",
                tag: 200
            })
        ));
    }

    prop_compose! {
        fn arb_attached()(
            origin in 0u32..100,
            seq in 0u64..10_000,
            mode in prop_oneof![Just(DeliveryMode::Agreed), Just(DeliveryMode::Safe)],
            seen in proptest::collection::vec(0u32..100, 0..8),
            confirmed in proptest::collection::vec(0u32..100, 0..8),
            payload in proptest::collection::vec(any::<u8>(), 0..64),
            is_oob in any::<bool>(),
            oob_len in 0u64..1_000_000,
        ) -> Attached {
            Attached {
                origin: NodeId(origin),
                seq: OriginSeq(seq),
                mode,
                seen: seen.into_iter().map(NodeId).collect(),
                confirmed: confirmed.into_iter().map(NodeId).collect(),
                body: if is_oob {
                    AttachedBody::Oob { len: oob_len }
                } else {
                    AttachedBody::Inline(Bytes::from(payload))
                },
            }
        }
    }

    prop_compose! {
        fn arb_token()(
            seq in 0u64..u64::MAX,
            circ_minter in 0u32..64,
            parent in 0u64..10_000,
            ids in proptest::collection::btree_set(0u32..64, 0..16),
            tbm in any::<bool>(),
            msgs in proptest::collection::vec(arb_attached(), 0..6),
        ) -> Token {
            let ring = Ring::from_iter(ids.into_iter().map(NodeId));
            let trace = TraceCtx::mint(NodeId(circ_minter), seq, parent);
            Token { seq, trace, ring, tbm, msgs: msgs.into() }
        }
    }

    proptest! {
        #[test]
        fn prop_token_wire_round_trip(t in arb_token()) {
            let msg = SessionMsg::Token(t);
            let buf = msg.encode_to_bytes();
            prop_assert_eq!(SessionMsg::decode_from_bytes(&buf).unwrap(), msg);
        }

        #[test]
        fn prop_garbage_never_panics(data in proptest::collection::vec(any::<u8>(), 0..512)) {
            let _ = SessionMsg::decode_from_bytes(&data);
        }
    }
}

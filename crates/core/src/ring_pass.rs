//! Ring pass (§2.2): accepting, merging, forwarding and re-sending the
//! token, and the hand-off on leave.
//!
//! ## Load-bearing rules beyond the paper's text
//!
//! The paper's proofs assume an accurate failure-on-delivery detector.
//! Over a real lossy network the detector can false-alarm *after the
//! target actually received the token* (all acknowledgements lost), which
//! would briefly create two tokens. Three rules restore convergence; the
//! first lives here, the other two in [`crate::recovery`]:
//!
//! * **Strictly-newer acceptance** — a node accepts a (non-TBM) token
//!   only if its sequence number exceeds `last_seen_seq`, the maximum of
//!   every sequence number this node has ever *received or sent*. The two
//!   tokens produced by a false alarm carry the same hop count, so
//!   whichever reaches a common node second is discarded and the ring
//!   converges back to one token.
//!
//! TBM (to-be-merged) tokens belong to a *different* group's numbering
//! and skip the staleness check entirely; the merge assigns the merged
//! token `max(seq_a, seq_b) + 1` so both sides accept it.

use crate::ctx::{Ctx, SendKind};
use crate::events::SessionEvent;
use bytes::Bytes;
use raincore_obs::TraceKind;
use raincore_types::{
    DigestInto, Duration, GroupId, MsgId, NodeId, Ring, StateDigest, Time, Token, TokenEncoder,
    TraceCtx,
};

/// A token this node must now accept. Every ring-pass and recovery path
/// that ends with the token in this node's hands returns one, and
/// [`crate::SessionNode`] enters EATING with it.
#[must_use = "a token handed back must be eaten, or it is lost"]
#[derive(Debug)]
pub(crate) struct Eat(pub(crate) Token);

#[derive(Debug)]
struct Forwarding {
    msg_id: MsgId,
    to: NodeId,
    token: Token,
}

/// Accept-to-accept intervals a member must have seen before its rotation
/// estimate times anything.
const ROTATIONS_SEEN: u32 = 4;

/// This member's accept-to-accept interval, smoothed with gain 1/8.
#[derive(Debug, Default)]
struct Rotation {
    last_accept: Option<Time>,
    ewma_ns: u64,
    seen: u32,
}

impl Rotation {
    fn on_accept(&mut self, now: Time) {
        if let Some(prev) = self.last_accept.replace(now) {
            let sample = now.since(prev).as_nanos();
            self.ewma_ns = match self.seen {
                0 => sample,
                _ => self.ewma_ns - self.ewma_ns / 8 + sample / 8,
            };
            self.seen = self.seen.saturating_add(1);
        }
    }

    /// The estimate, rounded up to the 1 ms grid the drivers' timers run
    /// on, once [`ROTATIONS_SEEN`] intervals went into it.
    fn estimate(&self) -> Option<Duration> {
        (self.seen >= ROTATIONS_SEEN)
            .then(|| Duration::from_millis(self.ewma_ns.div_ceil(1_000_000)))
    }
}

/// One more hop: the next sequence number under the same circulation.
fn bump_hop(token: &mut Token) {
    token.seq += 1;
    token.trace.hop += 1;
}

/// Merges our token with a TBM token (§2.4): union membership,
/// concatenate multicast messages, out-rank both sequence numbers.
fn merge_tokens(cx: &mut Ctx<'_>, mut ours: Token, mut other: Token) -> Token {
    // The absorbed group is the other token's membership *without* us
    // (a TBM token already contains the node it was handed to).
    let absorbed = other
        .ring
        .iter()
        .filter(|&n| n != cx.id)
        .min()
        .map(GroupId)
        .unwrap_or(GroupId(cx.id));
    for m in other.msgs.take_all() {
        if !ours.msgs.iter().any(|x| x.key() == m.key()) {
            ours.msgs.push(m);
        }
    }
    ours.ring.merge(&other.ring);
    // A merge ends both lineages and mints a fresh circulation whose
    // causal parent is whichever lineage had progressed furthest.
    let parent_ctx = if other.trace.hop > ours.trace.hop {
        other.trace
    } else {
        ours.trace
    };
    ours.seq = ours.seq.max(other.seq) + 1;
    ours.trace = TraceCtx::mint(cx.id, ours.seq, parent_ctx.hop);
    cx.obs.hop_minted(parent_ctx, ours.trace);
    ours.tbm = false;
    cx.metrics.merges += 1;
    cx.obs.trace(TraceKind::Merged {
        absorbed_group: absorbed.0 .0,
    });
    cx.events.push_back(SessionEvent::Merged { absorbed });
    ours
}

/// The ring-pass component: the local token copy, the acceptance mark,
/// the pass in flight, and what waits for the next pass.
#[derive(Debug, Default)]
pub(crate) struct RingPass {
    /// Local copy of the last received token (§2.3: "each node makes a
    /// local copy of the TOKEN after each time the node receives it").
    last_copy: Option<Token>,
    /// Max token seq ever received *or sent* — acceptance high-water mark.
    last_seen_seq: u64,
    /// Token currently in flight to a successor, until acknowledged.
    forwarding: Option<Forwarding>,
    /// The member our last *acknowledged* pass went to: the one a HUNGRY
    /// node asks before it starves ([`RingPass::probe_target`]).
    passed_to: Option<NodeId>,
    rotation: Rotation,
    /// Patch-per-hop token wire encoder: pooled scratch buffer + cached
    /// body, so quiescent hops re-encode only the seq header.
    codec: TokenEncoder,
    /// TBM token held while waiting for our own group's token (§2.4).
    held_tbm: Option<Token>,
    /// Join requests (from 911s of non-members) to add at the next pass.
    pending_joins: Vec<NodeId>,
}

impl RingPass {
    /// Sequence number of the last received token copy (0 = never).
    pub(crate) fn last_copy_seq(&self) -> u64 {
        self.last_copy.as_ref().map_or(0, |t| t.seq)
    }

    /// The local token copy, if this node ever held or saw a token.
    pub(crate) fn last_copy(&self) -> Option<&Token> {
        self.last_copy.as_ref()
    }

    pub(crate) fn last_seen_seq(&self) -> u64 {
        self.last_seen_seq
    }

    /// Is a pass still waiting for its acknowledgement?
    pub(crate) fn is_forwarding(&self) -> bool {
        self.forwarding.is_some()
    }

    /// A token is being eaten at `now`: one more accept-to-accept
    /// interval for the rotation estimate.
    pub(crate) fn note_accept(&mut self, now: Time) {
        self.rotation.on_accept(now);
    }

    /// Whom a HUNGRY node asks whether the token is merely late: the
    /// member that acknowledged our last pass — unless a pass is still in
    /// flight, whose own retransmissions are the question.
    pub(crate) fn probe_target(&self) -> Option<NodeId> {
        self.passed_to.filter(|_| !self.is_forwarding())
    }

    /// How long a hunger that begins with a pass to `to` may last before
    /// `to` is asked if it is there (DESIGN.md §17.3): four rotations and
    /// two of the transport's give-up budgets for that peer, both as
    /// measured now. `None` — the hungry timeout is all there is — until
    /// four rotation intervals have been seen, where that sum is no
    /// shorter than the hungry timeout, and where a failure evicts
    /// nobody.
    fn probe_after(&self, cx: &Ctx<'_>, to: NodeId) -> Option<Duration> {
        let rotations = self.rotation.estimate()?.saturating_mul(4);
        let give_ups = cx.transport.give_up_budget(to).saturating_mul(2);
        let limit = Duration(rotations.as_nanos().saturating_add(give_ups.as_nanos()));
        (limit < cx.cfg.hungry_timeout && cx.evicts_on_failure()).then_some(limit)
    }

    fn install_copy(&mut self, token: &Token) {
        self.last_seen_seq = token.seq;
        self.last_copy = Some(token.clone());
    }

    /// `token` is ours now: it becomes the local copy and the acceptance
    /// mark, and the caller must eat it.
    pub(crate) fn install_copy_and_eat(&mut self, token: Token) -> Eat {
        self.install_copy(&token);
        Eat(token)
    }

    /// Our own pass came straight back (nobody else to send to): refresh
    /// the copy; the acceptance mark already covers this seq.
    fn eat_own_pass(&mut self, token: Token) -> Eat {
        self.last_copy = Some(token.clone());
        Eat(token)
    }

    /// Founds a fresh token over `ring`.
    pub(crate) fn found(&mut self, ring: Ring) -> Eat {
        self.install_copy_and_eat(Token::founding(ring))
    }

    /// Queues a join request for the next pass (idempotent).
    pub(crate) fn request_join(&mut self, cx: &mut Ctx<'_>, from: NodeId) {
        if cx.cfg.eligible.contains(&from) && !self.pending_joins.contains(&from) {
            self.pending_joins.push(from);
            cx.obs.trace(TraceKind::JoinRequest { from: from.0 });
        }
    }

    /// Failure detection of `node`: out of the ring view and out of the
    /// local token copy.
    pub(crate) fn evict(&mut self, cx: &mut Ctx<'_>, node: NodeId) {
        cx.remove_member(node);
        if let Some(copy) = &mut self.last_copy {
            copy.ring.remove(node);
        }
    }

    // ------------------------------------------------------------------
    // Accepting
    // ------------------------------------------------------------------

    /// A token arrived: apply the acceptance rule (module docs).
    pub(crate) fn on_token(&mut self, cx: &mut Ctx<'_>, mut t: Token) -> Option<Eat> {
        cx.obs.hop_decoded(); // stage b2: the payload was a token
        if t.tbm {
            return self.on_tbm_token(cx, t);
        }
        // Stale (duplicate-token elimination), or a membership we are not
        // in (we were excluded and the 911 rejoin has not completed): do
        // not touch the token.
        if t.seq <= self.last_seen_seq || !t.ring.contains(cx.id) {
            cx.metrics.stale_tokens_dropped += 1;
            cx.obs.trace(TraceKind::TokenStale {
                seq: t.seq,
                newest: self.last_seen_seq,
            });
            return None;
        }
        self.install_copy(&t);
        // If two tokens converged on us (false-alarm fork), absorb: keep
        // the newer ring, preserve any messages only the old one had.
        cx.role.absorb_fork(&mut t);
        Some(Eat(t))
    }

    fn on_tbm_token(&mut self, cx: &mut Ctx<'_>, mut t: Token) -> Option<Eat> {
        if let Some(ours) = cx.role.take_token(cx.now) {
            // Our own token is in hand: merge right away.
            let merged = merge_tokens(cx, ours, t);
            Some(self.install_copy_and_eat(merged))
        } else if self.last_copy.is_none() {
            // We never had a token of our own (fresh joiner): the TBM
            // token simply becomes ours.
            t.tbm = false;
            bump_hop(&mut t);
            cx.metrics.merges += 1;
            Some(self.install_copy_and_eat(t))
        } else {
            // Hold it until our own group's token arrives (§2.4).
            self.held_tbm = Some(t);
            None
        }
    }

    /// On the way into EATING: merge a TBM token held for this moment.
    pub(crate) fn absorb_held_tbm(&mut self, cx: &mut Ctx<'_>, token: Token) -> Token {
        let Some(tbm) = self.held_tbm.take() else {
            return token;
        };
        let merged = merge_tokens(cx, token, tbm);
        self.install_copy(&merged);
        merged
    }

    // ------------------------------------------------------------------
    // Passing
    // ------------------------------------------------------------------

    /// Forwards the token to the next member: admit pending joiners, hand
    /// off a TBM token if a merge is due (`merge_target`, from discovery).
    pub(crate) fn forward(
        &mut self,
        cx: &mut Ctx<'_>,
        mut token: Token,
        merge_target: Option<NodeId>,
    ) -> Option<Eat> {
        // Admit joiners right after ourselves so the token reaches them
        // immediately (§2.3: "it then sends the TOKEN to the new node").
        for j in std::mem::take(&mut self.pending_joins) {
            if j != cx.id {
                token.ring.insert_after(cx.id, j);
            }
        }

        // Merge handoff (§2.4): add the BODYODOR sender, flag the token
        // TBM, and send it to that node instead of our normal successor.
        if let Some(target) = merge_target {
            if !token.ring.contains(target) {
                token.ring.insert_after(cx.id, target);
                token.tbm = true;
                self.bump_for_send(&mut token);
                cx.sync_membership(&token.ring);
                cx.obs.trace(TraceKind::MergeHandoff { to: target.0 });
                return self.send_token(cx, token, target);
            }
        }

        cx.sync_membership(&token.ring);
        self.bump_for_send(&mut token);
        let next = token.ring.next_after(cx.id).unwrap_or(cx.id);
        if next == cx.id {
            // Singleton ring: the pass is a self-pass.
            cx.metrics.self_passes += 1;
            Some(self.eat_own_pass(token))
        } else {
            self.send_token(cx, token, next)
        }
    }

    fn bump_for_send(&mut self, token: &mut Token) {
        bump_hop(token);
        self.last_seen_seq = self.last_seen_seq.max(token.seq);
    }

    /// Encodes the token wire image via the patch-per-hop codec,
    /// recording the encode size and body-cache counters.
    fn encode_token(&mut self, cx: &mut Ctx<'_>, token: &Token) -> Bytes {
        let bytes = self.codec.encode(token);
        cx.metrics.token_body_cache_hits = self.codec.cache_hits();
        cx.metrics.token_body_cache_misses = self.codec.cache_misses();
        cx.obs.token_encode_bytes.record(bytes.len() as u64);
        cx.obs.hop_encoded(); // stage b4: wire image ready
        bytes
    }

    fn send_token(&mut self, cx: &mut Ctx<'_>, token: Token, to: NodeId) -> Option<Eat> {
        // Refresh our local copy with the outgoing token: it carries the
        // multicasts we just attached, and if the receiver dies with the
        // only post-attach copy, regeneration must not lose them. One
        // snapshot feeds both the copy (a CoW share) and the wire image
        // (patch-per-hop encoder), so a quiescent hop allocates only the
        // output buffer.
        let bytes = self.encode_token(cx, &token);
        self.last_copy = Some(token.clone());
        match cx.send_tracked(to, bytes, SendKind::Token) {
            Ok(msg_id) => {
                cx.obs.trace(TraceKind::TokenTx {
                    seq: token.seq,
                    to: to.0,
                });
                // Stage b5: the hop is complete — emit its span under the
                // outgoing header (hop seq as sent).
                cx.obs.hop_sent(token.trace);
                self.forwarding = Some(Forwarding { msg_id, to, token });
                cx.metrics.tokens_sent += 1;
                cx.role.rearm_hungry(cx.now, self.probe_after(cx, to));
                None
            }
            Err(_) => {
                // No transport addresses for the successor: treat exactly
                // like an immediate failure-on-delivery.
                cx.metrics.failures_detected += 1;
                self.skip_failed(cx, token, to)
            }
        }
    }

    /// The pass to `failed` did not get through: skip the dead successor
    /// and hand the token onward (§2.2).
    fn skip_failed(&mut self, cx: &mut Ctx<'_>, mut token: Token, failed: NodeId) -> Option<Eat> {
        if cx.evicts_on_failure() {
            token.ring.remove(failed);
            self.evict(cx, failed);
        }
        self.resend_token(cx, token, failed)
    }

    /// Re-sends the token after a failed pass, walking successors.
    fn resend_token(&mut self, cx: &mut Ctx<'_>, mut token: Token, failed: NodeId) -> Option<Eat> {
        cx.metrics.retransmissions_acted += 1;
        // If the failed pass was a TBM handoff the merge is aborted: the
        // token must not reach a normal successor still flagged TBM.
        token.tbm = false;
        let evicts = cx.evicts_on_failure();
        let next = if evicts {
            token.ring.next_after(cx.id)
        } else {
            // Timeout-only mode keeps the dead member in the ring and
            // merely skips it for this pass.
            cx.ring
                .successors_of(cx.id)
                .into_iter()
                .find(|&n| n != failed && token.ring.contains(n))
        };
        match next {
            Some(n) if n != cx.id => self.send_token(cx, token, n),
            _ => {
                // Nobody else reachable. Under aggressive detection we
                // are now a singleton group; under timeout-only we keep
                // the membership and retry on the next pass.
                if evicts {
                    token.ring = Ring::from_iter([cx.id]);
                }
                cx.sync_membership(&token.ring);
                Some(self.eat_own_pass(token))
            }
        }
    }

    /// The transport acknowledged `msg_id`.
    pub(crate) fn on_delivered(&mut self, msg_id: MsgId) {
        if let Some(f) = self.forwarding.take_if(|f| f.msg_id == msg_id) {
            self.passed_to = Some(f.to);
        }
    }

    /// Failure-on-delivery of a token pass to `to`.
    pub(crate) fn on_pass_failed(
        &mut self,
        cx: &mut Ctx<'_>,
        msg_id: MsgId,
        to: NodeId,
    ) -> Option<Eat> {
        cx.metrics.failures_detected += 1;
        cx.obs.trace(TraceKind::PeerFailed { peer: to.0 });
        match self.forwarding.take() {
            // The pass we are blocked on failed.
            Some(f) if f.msg_id == msg_id => self.skip_failed(cx, f.token, to),
            other => {
                self.forwarding = other;
                if cx.evicts_on_failure() {
                    // A stale pass failed after we already moved on:
                    // still treat it as a failure detection of `to`.
                    self.evict(cx, to);
                    cx.role.remove_from_held(to, cx.full_line());
                }
                None
            }
        }
    }

    /// Leaving while EATING: hand the token off cleanly before going
    /// dark, to the first member after our old ring position that is
    /// still in the (self-removed) membership.
    pub(crate) fn hand_off_on_leave(&mut self, cx: &mut Ctx<'_>, mut token: Token) {
        token.ring.remove(cx.id);
        if token.ring.is_empty() {
            return;
        }
        bump_hop(&mut token);
        let next = cx
            .ring
            .successors_of(cx.id)
            .into_iter()
            .find(|n| token.ring.contains(*n));
        if let Some(next) = next {
            let msg = self.encode_token(cx, &token);
            if cx.send_tracked(next, msg, SendKind::Token).is_ok() {
                cx.metrics.tokens_sent += 1;
            }
        }
    }

    /// This component's slice of the model-checker state digest. `codec`
    /// is a cache of already-digested token state and stays out.
    pub(crate) fn digest_into(&self, d: &mut StateDigest) {
        d.opt(self.last_copy.as_ref(), |d, t| t.digest_into(d));
        d.write_u64(self.last_seen_seq);
        d.opt(self.forwarding.as_ref(), |d, f| {
            d.write_u64(f.msg_id.0);
            f.token.digest_into(d);
        });
        // The rotation estimate enters as the term it arms, on the 1 ms
        // grid and only once it arms one: two states whose estimates
        // differ below that arm the same probes until further rotations
        // tell them apart, and are merged (as the armed timeouts are,
        // DESIGN.md §17.5). `passed_to` acts with it or not at all.
        d.opt(self.rotation.estimate(), |d, rotation| {
            d.write_u64(rotation.as_millis());
            d.opt_node(self.passed_to);
        });
        d.opt(self.held_tbm.as_ref(), |d, t| t.digest_into(d));
        // Join order matters (it is the ring insertion order), so digest
        // the list positionally, not sorted.
        d.write_len(self.pending_joins.len());
        for &j in &self.pending_joins {
            d.node(j);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::node::testkit::{drain, first_msg, mk};
    use crate::{SessionEvent, StartMode};
    use raincore_types::*;

    #[test]
    fn stale_token_discarded() {
        let mut a = mk(0, 2, StartMode::Founding(Ring::from([0, 1])));
        let seen = a.metrics().tokens_received;
        // A token with seq 1 == our last_seen (we founded with seq 1).
        a.on_session_msg(
            Time::ZERO,
            SessionMsg::Token(Token::founding(Ring::from([0, 1]))),
        );
        assert_eq!(a.metrics().stale_tokens_dropped, 1);
        assert_eq!(a.metrics().tokens_received, seen);
    }

    #[test]
    fn token_without_self_not_touched() {
        let mut b = mk(1, 3, StartMode::Founding(Ring::from([0, 1, 2])));
        let mut t = Token::founding(Ring::from([0, 2]));
        t.seq = 50;
        b.on_session_msg(Time::ZERO, SessionMsg::Token(t));
        assert_eq!(b.state_name(), "HUNGRY");
        assert_eq!(b.metrics().stale_tokens_dropped, 1);
    }

    #[test]
    fn tbm_token_merges_with_held_token() {
        // Node 0 is isolated (eating its own token, group g0).
        let mut a = mk(0, 4, StartMode::Isolated);
        // TBM token arrives from group {2,3} with node 0 added.
        let mut tbm = Token::founding(Ring::from([2, 3, 0]));
        tbm.seq = 9;
        tbm.tbm = true;
        a.on_session_msg(Time::ZERO, SessionMsg::Token(tbm));
        assert!(a.is_eating());
        assert_eq!(a.metrics().merges, 1);
        let evs = drain(&mut a);
        assert!(evs.iter().any(|e| matches!(
            e,
            SessionEvent::Merged {
                absorbed: GroupId(NodeId(2))
            }
        )));
        assert!(a.ring().contains(NodeId(2)));
        assert!(a.ring().contains(NodeId(3)));
        assert_eq!(a.group_id(), GroupId(NodeId(0)));
        // Merged seq out-ranks both sides.
        assert!(a.last_copy_seq() >= 10);
    }

    #[test]
    fn joiner_accepts_tbm_directly() {
        let mut j = mk(3, 4, StartMode::Joining);
        assert_eq!(j.state_name(), "STARVING");
        let mut tbm = Token::founding(Ring::from([0, 1, 3]));
        tbm.seq = 4;
        tbm.tbm = true;
        j.on_session_msg(Time::ZERO, SessionMsg::Token(tbm));
        assert!(j.is_eating());
        assert!(j.ring().contains(NodeId(0)));
    }

    #[test]
    fn leaving_while_eating_forwards_token_without_self() {
        let ring = Ring::from([0, 1, 2]);
        let mut a = mk(0, 3, StartMode::Founding(ring));
        assert!(a.is_eating());
        a.leave(Time::ZERO);
        assert!(a.is_down());
        let (dst, SessionMsg::Token(t)) = first_msg(&mut a) else {
            panic!()
        };
        assert_eq!(dst, NodeId(1));
        assert!(!t.ring.contains(NodeId(0)));
        assert_eq!(t.ring.as_slice(), &[NodeId(1), NodeId(2)]);
    }
}

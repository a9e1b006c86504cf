//! 911: token recovery and join (§2.3).
//!
//! Two rules here are load-bearing beyond the paper's text (the third,
//! strictly-newer acceptance, is in [`crate::ring_pass`]):
//!
//! * **911 compares copy seqs** — a 911 call carries the seq of the
//!   caller's last *received copy* (not the acceptance mark):
//!   regeneration must happen from the newest surviving copy so
//!   piggybacked multicast messages are not lost. Ties (both zero at
//!   bootstrap) break toward the lower node id.
//! * **Regeneration jumps the seq by copy+2** — the regenerated token
//!   must out-rank the acceptance mark on every live node, and a node
//!   that *sent* the lost token has its mark at `copy_seq + 1`.
//!
//! When starvation begins is the hungry timeout's to say — or, sooner,
//! the successor probe's (DESIGN.md §17.3): a HUNGRY member first asks
//! the member its last pass went to whether it is there
//! ([`ask_successor`]), and starves at once if the transport cannot
//! deliver the question ([`Recovery::on_probe_failed`]). The probe moves
//! only *when*; everything that keeps a regeneration safe is below.

use crate::ctx::{Ctx, SendKind};
use crate::events::SessionEvent;
use crate::ring_pass::{Eat, RingPass};
use crate::typestate::{VerdictOutcome, VoteProgress};
use raincore_obs::TraceKind;
use raincore_types::wire::WireEncode;
use raincore_types::{
    Call911, NodeId, Reply911, Ring, SessionMsg, StateDigest, Token, TraceCtx, Verdict911,
};
use std::collections::BTreeSet;

/// Consecutive unanswered join probes (paced by `starving_retry`) a
/// token-less joiner tolerates before concluding that every token copy
/// in the cluster is gone and founding a fresh singleton group;
/// concurrently founded groups are glued back together by discovery and
/// merge (§2.4).
pub(crate) const BOOTSTRAP_PROBE_LIMIT: u32 = 16;

/// The recovery component: what the caller side of 911 remembers between
/// calls. The handlers that need none of it — verdicts in, verdicts out,
/// regeneration — are this module's free functions.
#[derive(Debug, Default)]
pub(crate) struct Recovery {
    req_counter: u64,
    /// Round-robin index over `eligible` for join probes.
    join_probe_idx: usize,
    /// Join probes sent since we last held a token (total-copy-loss
    /// bootstrap counter, compared against [`BOOTSTRAP_PROBE_LIMIT`]).
    unanswered_probes: u32,
}

impl Recovery {
    /// A token is in hand: whatever we were probing for has answered.
    pub(crate) fn token_in_hand(&mut self) {
        self.unanswered_probes = 0;
    }

    fn next_req_id(&mut self) -> u64 {
        self.req_counter += 1;
        self.req_counter
    }

    /// HUNGRY past the timeout, or refused an answer by the member that has
    /// the token: call 911 on the membership, or — with no membership to
    /// poll and no copy — probe the eligible list for a group to join.
    pub(crate) fn starve(&mut self, cx: &mut Ctx<'_>, pass: &mut RingPass) -> Option<Eat> {
        cx.events.push_back(SessionEvent::Starving);
        cx.obs.starving();
        if cx.ring.len() <= 1 && pass.last_copy().is_none() {
            // Nobody to poll and no copy to regenerate from: a joiner.
            // (Alone *with* a copy — the only other member just failed a
            // probe — is a vote with nobody to ask, below.) If a whole
            // round-robin sweep (and then some) of probes has gone
            // unanswered, every copy in the cluster may be gone — e.g.
            // all copy holders crashed while this node was down. No 911
            // vote can regenerate what nobody remembers, so found a fresh
            // singleton group instead, exactly like
            // `StartMode::Isolated`; survivors that bootstrapped
            // concurrently are glued back together by discovery and
            // merge (§2.4).
            if self.unanswered_probes >= BOOTSTRAP_PROBE_LIMIT {
                cx.metrics.bootstrap_foundings += 1;
                return Some(pass.found(Ring::from_iter([cx.id])));
            }
            self.probe(cx, pass);
            return None;
        }
        let req_id = self.next_req_id();
        // The ring is copy-on-write: the clone is a reference-count bump.
        let members = cx.ring.clone();
        // Members with no known address cannot vote and are not awaited.
        let mut awaiting = BTreeSet::new();
        send_call911(cx, pass, req_id, members.as_slice(), |polled| {
            awaiting.insert(polled);
        });
        let nobody_to_ask = awaiting.is_empty();
        cx.role
            .begin_starving_vote(req_id, awaiting, cx.now + cx.cfg.starving_retry);
        if nobody_to_ask {
            return regenerate(cx, pass);
        }
        None
    }

    /// The successor probe to `to` failed on delivery: a failure detection
    /// of `to` like any other, and — `to` being where the token went — of
    /// the token. A member still HUNGRY since that pass starves now, with
    /// the dead member already out of the ring the ballot is drawn from.
    pub(crate) fn on_probe_failed(
        &mut self,
        cx: &mut Ctx<'_>,
        pass: &mut RingPass,
        to: NodeId,
    ) -> Option<Eat> {
        cx.metrics.probes_failed += 1;
        cx.metrics.failures_detected += 1;
        let eat = on_call_failed(cx, pass, to);
        cx.role.remove_from_held(to, cx.full_line());
        let still_waiting = cx.role.hungry_since().is_some() && pass.probe_target() == Some(to);
        if eat.is_none() && still_waiting {
            return self.starve(cx, pass);
        }
        eat
    }

    /// The STARVING retry fired. Re-calling 911 while a vote is standing
    /// is a *retransmission* of that vote, not a new vote: the local
    /// copy cannot change while STARVING (accepting a token leaves the
    /// state), so the call content is identical and verdicts from the
    /// earlier transmission must still count. Minting a fresh req id on
    /// every retry livelocks when some voter's reply path is slower than
    /// the retry period — e.g. its first NIC is down and every exchange
    /// pays the redundant-address failover — because each retry discards
    /// the grants already in flight. Only the still-awaiting voters are
    /// re-polled.
    pub(crate) fn retry(&mut self, cx: &mut Ctx<'_>, pass: &mut RingPass) -> Option<Eat> {
        let Some((req_id, targets)) = cx.role.standing_vote() else {
            // Join probing (no standing vote) or a fully-answered
            // vote: start over.
            return self.starve(cx, pass);
        };
        send_call911(cx, pass, req_id, &targets, |_| {});
        cx.role.rearm_starving(cx.now + cx.cfg.starving_retry);
        None
    }

    /// Sends one join probe and (re-)enters STARVING without a vote. This
    /// is also how a `StartMode::Joining` node enters the world.
    pub(crate) fn probe(&mut self, cx: &mut Ctx<'_>, pass: &RingPass) {
        let candidates: Vec<NodeId> = cx
            .cfg
            .eligible
            .iter()
            .copied()
            .filter(|&n| n != cx.id)
            .collect();
        if !candidates.is_empty() {
            let target = candidates[self.join_probe_idx % candidates.len()];
            self.join_probe_idx += 1;
            self.unanswered_probes = self.unanswered_probes.saturating_add(1);
            let req_id = self.next_req_id();
            send_call911(cx, pass, req_id, &[target], |_| {});
        }
        cx.role.begin_starving_probe(cx.now + cx.cfg.starving_retry);
    }

    /// This component's slice of the model-checker state digest.
    pub(crate) fn digest_into(&self, d: &mut StateDigest) {
        d.write_u64(self.req_counter);
        d.write_len(self.join_probe_idx);
        d.write_u32(self.unanswered_probes);
    }
}

/// HUNGRY past the probe limit: before anyone starves, ask the member the
/// token was passed to whether it is there. The transport's
/// acknowledgement is the whole answer (a stalled holder that woke, or
/// one keeping the master lock, acknowledges; a dead one cannot), so the
/// message is a header and the receiver does nothing. The next is due a
/// probe interval from now either way, and that interval is one give-up
/// and two rotations: longer than a probe's own give-up, so this one is
/// answered or failed by then.
pub(crate) fn ask_successor(cx: &mut Ctx<'_>, pass: &RingPass) {
    cx.role.probe_asked(cx.now);
    let Some(to) = pass.probe_target() else {
        return; // the pass is still in flight: its retries are the probe
    };
    let probe = SessionMsg::Probe.encode_to_bytes();
    if cx.send_tracked(to, probe, SendKind::Probe).is_ok() {
        cx.metrics.probes_sent += 1;
        cx.obs.trace(TraceKind::ProbeTx { to: to.0 });
    }
}

/// Calls 911 on `targets` (never on ourselves) under `req_id`, carrying
/// the seq of our last received copy; `on_polled` hears of each member
/// actually reached.
fn send_call911(
    cx: &mut Ctx<'_>,
    pass: &RingPass,
    req_id: u64,
    targets: &[NodeId],
    mut on_polled: impl FnMut(NodeId),
) {
    let last_seq = pass.last_copy_seq();
    let bytes = SessionMsg::Call911(Call911 {
        from: cx.id,
        last_token_seq: last_seq,
        req_id,
    })
    .encode_to_bytes();
    let mut polled = 0;
    let me = cx.id;
    for &member in targets.iter().filter(|&&m| m != me) {
        let kind = SendKind::Call911 { req_id };
        if cx.send_tracked(member, bytes.clone(), kind).is_ok() {
            on_polled(member);
            polled += 1;
            cx.metrics.calls911_sent += 1;
        }
    }
    cx.obs.trace(TraceKind::Call911Tx {
        req_id,
        last_seq,
        polled,
    });
    cx.obs.called_911(req_id, last_seq);
}

/// Answers `to`'s 911 call `req_id`.
fn send_verdict(cx: &mut Ctx<'_>, to: NodeId, req_id: u64, verdict: Verdict911) {
    let (granted, newer_seq) = match verdict {
        Verdict911::Grant => (true, 0),
        Verdict911::Deny { newer_seq } => (false, newer_seq),
    };
    if !granted {
        cx.metrics.denials_911 += 1;
    }
    cx.obs.trace(TraceKind::Verdict911Tx {
        to: to.0,
        granted,
        newer_seq,
    });
    let reply = SessionMsg::Reply911(Reply911 {
        from: cx.id,
        req_id,
        verdict,
    });
    // Verdicts are best-effort: the caller's retry re-polls us.
    let _ = cx.send_tracked(to, reply.encode_to_bytes(), SendKind::Reply);
}

/// A 911 verdict arrived.
pub(crate) fn on_reply911(cx: &mut Ctx<'_>, pass: &mut RingPass, reply: Reply911) -> Option<Eat> {
    let outcome = cx
        .role
        .on_verdict(reply.from, reply.req_id, &reply.verdict, cx.now);
    if outcome == VerdictOutcome::Ignored {
        return None; // not voting, or a stale verdict from an earlier call
    }
    cx.obs.trace(TraceKind::Verdict911Rx {
        from: reply.from.0,
        granted: matches!(reply.verdict, Verdict911::Grant),
    });
    match outcome {
        // Ignored returned above; grouping it with Waiting keeps the
        // match total without a panicking arm.
        VerdictOutcome::Ignored | VerdictOutcome::Waiting => None,
        VerdictOutcome::Won => regenerate(cx, pass),
        VerdictOutcome::Denied => {
            // Someone has a newer copy or the token itself; it (or
            // its holder) will keep the ring alive. The role is back
            // to HUNGRY with a fresh timeout.
            cx.obs.starving_resolved();
            None
        }
    }
}

/// A 911 voter is unreachable. Failure-on-delivery is a failure
/// detection of the *target* (§2.2) no matter which request carried
/// it — the starving-retry period can be shorter than the transport's
/// detection time, so the notification may belong to an earlier call
/// and must still count against the current vote.
pub(crate) fn on_call_failed(cx: &mut Ctx<'_>, pass: &mut RingPass, to: NodeId) -> Option<Eat> {
    cx.obs.trace(TraceKind::PeerFailed { peer: to.0 });
    pass.evict(cx, to);
    match cx.role.vote_peer_failed(to) {
        VoteProgress::NotVoting => None,
        VoteProgress::Recorded {
            was_awaiting,
            vote_complete,
        } => {
            if was_awaiting {
                // The vote proceeds without the dead voter.
                cx.metrics.retransmissions_acted += 1;
            }
            if vote_complete {
                regenerate(cx, pass)
            } else {
                None
            }
        }
    }
}

/// The voter side: somebody called 911 on us.
pub(crate) fn on_call911(cx: &mut Ctx<'_>, pass: &mut RingPass, call: Call911) {
    cx.metrics.calls911_received += 1;
    if call.from == cx.id {
        return;
    }
    cx.obs.trace(TraceKind::Call911Rx {
        from: call.from.0,
        last_seq: call.last_token_seq,
    });
    let verdict = if cx.ring.contains(call.from) {
        vote(cx, pass, &call)
    } else {
        // §2.3: a 911 from a non-member is a join request. This also
        // heals link failures and failure-detector false alarms.
        pass.request_join(cx, call.from);
        // Still answer the vote. We hold no copy of the caller's
        // token lineage, so we cannot deny — and the caller may
        // legitimately have us in its ring while we do not have it
        // in ours: a member that crashed and restarted before the
        // group purged it stays reachable (so failure-on-delivery
        // never excludes it) but would otherwise never reply,
        // hanging every 911 vote in the old group forever.
        Verdict911::Grant
    };
    send_verdict(cx, call.from, call.req_id, verdict);
}

/// A member's regeneration vote. Deny if the token demonstrably exists
/// here (we hold or are forwarding it), if our local copy is more recent,
/// or — on a tie — if our id is lower (bootstrap tie-break; distinct real
/// copies always have distinct seqs).
fn vote(cx: &Ctx<'_>, pass: &RingPass, call: &Call911) -> Verdict911 {
    let my_copy = pass.last_copy_seq();
    if cx.role.is_eating() || pass.is_forwarding() {
        Verdict911::Deny {
            newer_seq: pass.last_seen_seq(),
        }
    } else if my_copy > call.last_token_seq || (my_copy == call.last_token_seq && cx.id < call.from)
    {
        Verdict911::Deny { newer_seq: my_copy }
    } else {
        Verdict911::Grant
    }
}

/// Won the vote: regenerate the token from our local copy (§2.3).
fn regenerate(cx: &mut Ctx<'_>, pass: &mut RingPass) -> Option<Eat> {
    let excluded = cx.role.win_vote(cx.now)?;
    let mut token = pass
        .last_copy()
        .cloned()
        .unwrap_or_else(|| Token::founding(Ring::from_iter([cx.id])));
    for x in excluded {
        token.ring.remove(x);
    }
    token.ring.push(cx.id); // ensure we are present
    token.tbm = false;
    // Out-rank every live node's acceptance mark (see module docs).
    let parent_ctx = token.trace;
    token.seq = token.seq.max(pass.last_seen_seq()) + 2;
    // Regeneration mints a fresh circulation, causally descending
    // from the dead lineage's last hop we hold a copy of.
    token.trace = TraceCtx::mint(cx.id, token.seq, parent_ctx.hop);
    cx.metrics.regenerations += 1;
    cx.obs.hop_minted(parent_ctx, token.trace);
    cx.obs.recovered(token.seq);
    cx.obs.trace(TraceKind::TokenRegenerated { seq: token.seq });
    cx.events
        .push_back(SessionEvent::TokenRegenerated { seq: token.seq });
    Some(pass.accept(token))
}

#[cfg(test)]
mod tests {
    use crate::node::testkit::{drain, first_msg, mk, mk_with};
    use crate::{SessionEvent, SessionNode, StartMode};
    use raincore_transport::{Frame, MIN_RTO};
    use raincore_types::wire::WireDecode;
    use raincore_types::*;

    /// Node 0's probes as they crossed the wire.
    #[derive(Default)]
    struct ProbeLog {
        /// Every probe node 0 sent, by message id.
        sent: Vec<MsgId>,
        /// The one sent and not yet acknowledged.
        unresolved: Option<MsgId>,
        acked: usize,
    }

    /// Runs a ring of two until `until` on a 100 µs tick, delivering every
    /// datagram at once — except the first copy of each probe, which is
    /// lost, so every question stays unresolved for one retransmission
    /// timeout (longer than the two rotations of a 1 ms ring).
    fn run_pair(nodes: &mut [SessionNode; 2], now: &mut Time, until: Time, log: &mut ProbeLog) {
        while *now < until {
            *now += Duration::from_micros(100);
            for n in nodes.iter_mut() {
                n.on_tick(*now);
            }
            let mut moved = true;
            while moved {
                moved = false;
                for from in 0..2 {
                    while let Some(d) = nodes[from].poll_outgoing() {
                        moved = true;
                        match Frame::decode_from_bytes(&d.payload) {
                            Ok(Frame::Data {
                                msg_id, payload, ..
                            }) if SessionMsg::decode_from_bytes(&payload)
                                == Ok(SessionMsg::Probe)
                                && !log.sent.contains(&msg_id) =>
                            {
                                assert_eq!(
                                    log.unresolved, None,
                                    "a probe sent at {now:?} while the last is unresolved"
                                );
                                log.sent.push(msg_id);
                                log.unresolved = Some(msg_id);
                                continue; // the first copy is lost
                            }
                            Ok(Frame::Ack { msg_id, .. }) if log.unresolved == Some(msg_id) => {
                                log.unresolved = None;
                                log.acked += 1;
                            }
                            _ => {}
                        }
                        let to = d.dst.node.0 as usize;
                        nodes[to].on_datagram(*now, d);
                    }
                }
            }
        }
    }

    #[test]
    fn one_probe_at_a_time_while_the_successor_keeps_the_master_lock() {
        let ring = Ring::from([0, 1]);
        let mk2 = |id| {
            mk_with(id, 2, StartMode::Founding(ring.clone()), |c| {
                c.token_hold = Duration::from_micros(500);
                c.hungry_timeout = Duration::from_secs(2);
            })
        };
        let mut nodes = [mk2(0), mk2(1)];
        let (mut now, mut log) = (Time::ZERO, ProbeLog::default());
        // A ring of two 500 µs holds turns in 1 ms: warm it up until every
        // limit is armed and node 0 has measured node 1.
        run_pair(
            &mut nodes,
            &mut now,
            Time::ZERO + Duration::from_millis(100),
            &mut log,
        );
        assert!(log.sent.is_empty(), "a turning ring asks nobody");
        nodes[1].request_master().unwrap();
        while !nodes[1].holds_master() {
            let next = now + Duration::from_micros(100);
            run_pair(&mut nodes, &mut now, next, &mut log);
        }
        // Ten probe intervals of two rotations and a give-up at the floor.
        let interval = Duration::from_millis(2) + MIN_RTO.saturating_mul(3);
        let release = now + interval.saturating_mul(10);
        run_pair(&mut nodes, &mut now, release, &mut log);
        assert!(nodes[1].holds_master());
        nodes[1].release_master(now).unwrap();
        let end = now + Duration::from_millis(100);
        run_pair(&mut nodes, &mut now, end, &mut log);

        let m = nodes[0].metrics();
        assert!(log.sent.len() >= 9, "asked {} times", log.sent.len());
        assert_eq!(m.probes_sent, log.sent.len() as u64);
        assert_eq!((log.acked, log.unresolved), (log.sent.len(), None));
        assert_eq!((m.probes_failed, m.calls911_sent), (0, 0), "{m:?}");
        assert_eq!(nodes[0].ring().len(), 2);
    }

    #[test]
    fn hungry_node_starves_and_regenerates_alone() {
        // Node 1 in a 2-ring; node 0 never speaks (it is not running).
        let mut b = mk(1, 2, StartMode::Founding(Ring::from([0, 1])));
        assert_eq!(b.state_name(), "HUNGRY");
        let t1 = Time::ZERO + b.config().hungry_timeout;
        b.on_tick(t1);
        assert_eq!(b.state_name(), "STARVING");
        assert!(drain(&mut b).contains(&SessionEvent::Starving));
        // The 911 to node 0 fails on delivery → node 0 excluded → b
        // regenerates as a singleton.
        let mut now = t1;
        for _ in 0..200 {
            if let Some(w) = b.next_wakeup() {
                now = w.max(now);
                b.on_tick(now);
                while b.poll_outgoing().is_some() {} // node 0 is a black hole
            }
            if b.is_eating() {
                break;
            }
        }
        assert!(
            b.is_eating(),
            "regenerated after failure-on-delivery of the 911"
        );
        assert_eq!(b.ring().as_slice(), &[NodeId(1)]);
        assert_eq!(b.metrics().regenerations, 1);
        let evs = drain(&mut b);
        assert!(evs
            .iter()
            .any(|e| matches!(e, SessionEvent::TokenRegenerated { .. })));
    }

    #[test]
    fn deny_when_copy_is_newer() {
        let mut a = mk(0, 3, StartMode::Founding(Ring::from([0, 1, 2])));
        // a founded and is EATING → must deny.
        a.on_session_msg(
            Time::ZERO,
            SessionMsg::Call911(Call911 {
                from: NodeId(1),
                last_token_seq: 0,
                req_id: 1,
            }),
        );
        let (_, SessionMsg::Reply911(r)) = first_msg(&mut a) else {
            panic!()
        };
        assert!(matches!(r.verdict, Verdict911::Deny { .. }));
    }

    #[test]
    fn equal_seq_tie_breaks_toward_lower_id() {
        // Node 1 (HUNGRY, copy seq 0) votes on calls with seq 0.
        let b = mk(1, 6, StartMode::Founding(Ring::from([1, 2, 5])));
        assert_eq!(b.state_name(), "EATING"); // 1 is lowest → founded
                                              // Make a non-eating voter: node 2.
        let mut c = mk(2, 6, StartMode::Founding(Ring::from([1, 2, 5])));
        assert_eq!(c.state_name(), "HUNGRY");
        // Caller id 5 > voter id 2 → voter denies (lower id has priority).
        c.on_session_msg(
            Time::ZERO,
            SessionMsg::Call911(Call911 {
                from: NodeId(5),
                last_token_seq: 0,
                req_id: 7,
            }),
        );
        let (_, SessionMsg::Reply911(r)) = first_msg(&mut c) else {
            panic!()
        };
        assert!(matches!(r.verdict, Verdict911::Deny { .. }));
        // Caller id 1 < voter id 2 → but 1 is a member… caller 1 with
        // equal seq gets a Grant from 2.
        let mut c2 = mk(2, 6, StartMode::Founding(Ring::from([1, 2, 5])));
        c2.on_session_msg(
            Time::ZERO,
            SessionMsg::Call911(Call911 {
                from: NodeId(1),
                last_token_seq: 0,
                req_id: 8,
            }),
        );
        let (_, SessionMsg::Reply911(r)) = first_msg(&mut c2) else {
            panic!()
        };
        assert_eq!(r.verdict, Verdict911::Grant);
        let _ = b;
    }

    #[test]
    fn call911_from_non_member_is_join_request() {
        let mut a = mk(0, 4, StartMode::Founding(Ring::from([0, 1])));
        a.on_session_msg(
            Time::ZERO,
            SessionMsg::Call911(Call911 {
                from: NodeId(3),
                last_token_seq: 0,
                req_id: 1,
            }),
        );
        // The vote is still answered — with a Grant, since we hold no
        // copy of the caller's lineage. A member that crashed and
        // restarted before the group purged it would otherwise hang
        // every 911 vote in its old group forever.
        let (_, SessionMsg::Reply911(r)) = first_msg(&mut a) else {
            panic!()
        };
        assert_eq!(r.verdict, Verdict911::Grant);
        // Next pass admits the joiner right after us: ring 0,3,1.
        a.on_tick(Time::ZERO + a.config().token_hold);
        assert_eq!(a.ring().as_slice(), &[NodeId(0), NodeId(3), NodeId(1)]);
    }

    #[test]
    fn ineligible_node_cannot_join() {
        let mut a = mk(0, 2, StartMode::Founding(Ring::from([0, 1])));
        a.on_session_msg(
            Time::ZERO,
            SessionMsg::Call911(Call911 {
                from: NodeId(77),
                last_token_seq: 0,
                req_id: 1,
            }),
        );
        a.on_tick(Time::ZERO + a.config().token_hold);
        assert!(!a.ring().contains(NodeId(77)));
    }
}

//! The role core: §2.2's HUNGRY / EATING / STARVING machine, and DOWN.
//!
//! [`Role`] holds one private `enum State` whose variants carry exactly
//! what their state needs: only EATING has a token, only STARVING a 911
//! ballot. Every method matches that enum directly, so the guarantees
//! live in the data layout and the compiler checks them:
//!
//! * a node that does not hold the token cannot send it — the token is
//!   reachable only through [`Role::take_token`] and [`Role::shut_down`],
//!   which find it in the EATING variant or answer `None`;
//! * every `match` over the state is exhaustive, and
//!   `clippy::wildcard_enum_match_arm` is denied at the crate root, so a
//!   new state that some method does not handle fails the build;
//! * verdict outcomes are `#[must_use]`: ignoring a 911 grant while
//!   STARVING is rejected under `deny(unused_must_use)`.
//!
//! The state is private to this module: no code outside it can construct
//! a role state or take one apart — the compiler rejects it, so no lint
//! has to.
//!
//! ```compile_fail
//! // ILLEGAL: reaching into the role's state from outside the module.
//! // Only `Role`'s methods may read or change it.
//! fn illegal(r: &raincore_session::typestate::Role) {
//!     let _ = &r.state;
//! }
//! ```
//!
//! ```compile_fail
//! #![deny(unused_must_use)]
//! // ILLEGAL: ignoring a 911 verdict while STARVING. `VerdictOutcome`
//! // is #[must_use]; dropping it on the floor fails the build.
//! fn illegal(r: &mut raincore_session::typestate::Role) {
//!     r.on_verdict(
//!         raincore_types::NodeId(1),
//!         1,
//!         &raincore_types::Verdict911::Grant,
//!         raincore_types::Time(0),
//!     );
//! }
//! ```

use raincore_types::digest::{DigestInto, StateDigest};
use raincore_types::{Duration, NodeId, Time, Token, Verdict911};
use std::collections::BTreeSet;

/// A standing 911 vote (only a STARVING node votes).
#[derive(Debug)]
struct Vote911 {
    req_id: u64,
    awaiting: BTreeSet<NodeId>,
    /// Members that failed-on-delivery during the vote; excluded from the
    /// regenerated membership.
    excluded: Vec<NodeId>,
}

/// The role states (§2.2), each with what it needs and nothing else.
#[derive(Debug)]
enum State {
    /// The node does not hold the token.
    Hungry {
        since: Time,
        /// When to ask the member the token was passed to whether it is
        /// there, and how long after one question the next is due. Worked
        /// out once, by the pass that made the node hungry; `None` where
        /// no pass did, or none that knew its limit.
        probe: Option<(Time, Duration)>,
    },
    /// The node holds the token.
    Eating {
        token: Token,
        /// The freight `token` orders ([`Token::load_len`]: wire image
        /// plus the out-of-band payloads that are a full token's worth by
        /// themselves), so the pacing rule can weigh the held token on
        /// every submit without walking it.
        load: usize,
        accepted: Time,
        /// The pacing budget: `token_hold`, or what the pacing rule made
        /// it.
        hold: Duration,
    },
    /// HUNGRY past the timeout — token suspected lost, 911 vote or join
    /// probing in progress (§2.3).
    Starving {
        /// `None` while the node has no membership to poll (a fresh
        /// joiner probing the group with join-911s).
        vote: Option<Vote911>,
        retry_at: Time,
    },
    /// Terminal: the node shut itself down (§2.4) and handles nothing.
    Down,
}

impl State {
    fn hungry(since: Time) -> State {
        State::Hungry { since, probe: None }
    }
}

/// What a 911 verdict did to the role state. `#[must_use]`: a STARVING
/// node that ignores a verdict livelocks (grants) or splits the ring
/// (denials), so the compiler insists the caller act on the outcome.
#[must_use = "a 911 verdict changes the vote; the caller must act on the outcome"]
#[derive(Debug, PartialEq, Eq)]
pub enum VerdictOutcome {
    /// Not voting, or the verdict belongs to an earlier call.
    Ignored,
    /// Grant recorded; the vote is still open.
    Waiting,
    /// Every polled member granted: the caller must regenerate the token
    /// ([`Role::win_vote`]).
    Won,
    /// A member denied — somebody holds a newer copy or the token itself.
    /// The role is back to HUNGRY with a fresh timeout.
    Denied,
}

/// What a failure-on-delivery notification did to a standing vote.
#[must_use = "a failed voter changes the ballot; the caller must act on the outcome"]
#[derive(Debug, PartialEq, Eq)]
pub enum VoteProgress {
    /// No standing vote; nothing to record.
    NotVoting,
    /// The dead peer was struck from the ballot and excluded from the
    /// regenerated membership.
    Recorded {
        /// The peer had not answered yet (its removal advanced the vote).
        was_awaiting: bool,
        /// The ballot is now fully answered: the caller must regenerate.
        vote_complete: bool,
    },
}

/// Which protocol timer fired at a tick.
#[derive(Debug, PartialEq, Eq)]
pub enum TimerFired {
    /// EATING past the token-hold deadline: pass the token.
    PassToken,
    /// HUNGRY past the probe limit: ask the successor if it is there.
    Probe,
    /// HUNGRY past the hungry timeout: enter STARVING.
    Starve,
    /// STARVING past the retry deadline: re-call 911.
    Retry911,
    /// No protocol timer due.
    Idle,
}

/// The node's role state, held by [`crate::node::SessionNode`]; every
/// transition is one of its methods.
#[derive(Debug)]
pub struct Role {
    state: State,
}

impl Role {
    /// A fresh HUNGRY role (the initial state of every node).
    pub fn hungry(now: Time) -> Role {
        Role {
            state: State::hungry(now),
        }
    }

    /// Current state name, for traces and tests.
    pub fn name(&self) -> &'static str {
        match self.state {
            State::Hungry { .. } => "HUNGRY",
            State::Eating { .. } => "EATING",
            State::Starving { .. } => "STARVING",
            State::Down => "DOWN",
        }
    }

    /// True while the node holds the token (EATING, §2.2).
    pub fn is_eating(&self) -> bool {
        matches!(self.state, State::Eating { .. })
    }

    /// True once the node has shut itself down.
    pub fn is_down(&self) -> bool {
        matches!(self.state, State::Down)
    }

    /// When the node went hungry, if it is HUNGRY (feeds the hungry-wait
    /// histogram on token acceptance).
    pub fn hungry_since(&self) -> Option<Time> {
        match self.state {
            State::Hungry { since, .. } => Some(since),
            State::Eating { .. } | State::Starving { .. } | State::Down => None,
        }
    }

    /// Which protocol timer fired at `now`, if any.
    pub fn timer(&self, now: Time, hungry_timeout: Duration, master_held: bool) -> TimerFired {
        match self.state {
            State::Eating { accepted, hold, .. } if now >= accepted + hold && !master_held => {
                TimerFired::PassToken
            }
            State::Hungry { since, .. } if now.since(since) >= hungry_timeout => TimerFired::Starve,
            State::Hungry {
                probe: Some((due, _)),
                ..
            } if now >= due => TimerFired::Probe,
            State::Starving { retry_at, .. } if now >= retry_at => TimerFired::Retry911,
            State::Eating { .. } | State::Hungry { .. } | State::Starving { .. } | State::Down => {
                TimerFired::Idle
            }
        }
    }

    /// The next protocol deadline of the current state, if any.
    pub fn next_deadline(&self, hungry_timeout: Duration, master_held: bool) -> Option<Time> {
        match self.state {
            State::Eating { accepted, hold, .. } => (!master_held).then(|| accepted + hold),
            State::Hungry { since, probe } => {
                let starve = since + hungry_timeout;
                Some(probe.map_or(starve, |(due, _)| due.min(starve)))
            }
            State::Starving { retry_at, .. } => Some(retry_at),
            State::Down => None,
        }
    }

    /// Accepts a token: any state → EATING (§2.2's HUNGRY → EATING edge,
    /// plus re-accept while EATING for false-alarm fork absorption). `load`
    /// is the freight it orders against the pacing rule's line
    /// ([`Token::load_len`]), which the accept's own walk over the entries
    /// measured.
    pub fn accept_token(&mut self, token: Token, now: Time, hold: Duration, load: usize) {
        self.state = State::Eating {
            load,
            token,
            accepted: now,
            hold,
        };
    }

    /// Freight ordered by the held token ([`Token::load_len`]), if EATING.
    pub fn held_load(&self) -> Option<usize> {
        match self.state {
            State::Eating { load, .. } => Some(load),
            State::Hungry { .. } | State::Starving { .. } | State::Down => None,
        }
    }

    /// If EATING, moves the pass deadline to `due` — or, if that is
    /// before the token was accepted, to then, where it is due at once.
    pub fn set_pass_due(&mut self, due: Time) {
        if let State::Eating { accepted, hold, .. } = &mut self.state {
            *hold = due.since(*accepted);
        }
    }

    /// The pacing budget of the held token, if EATING: `token_hold` as
    /// accepted, until [`Role::set_pass_due`] replaces it.
    pub fn hold(&self) -> Option<Duration> {
        match self.state {
            State::Eating { hold, .. } => Some(hold),
            State::Hungry { .. } | State::Starving { .. } | State::Down => None,
        }
    }

    /// EATING → HUNGRY: takes the held token out for forwarding (or for
    /// an immediate merge). This is the only way to obtain the token for
    /// a send. `None` — and no state change — otherwise.
    pub fn take_token(&mut self, now: Time) -> Option<Token> {
        match std::mem::replace(&mut self.state, State::hungry(now)) {
            State::Eating { token, .. } => Some(token),
            other @ (State::Hungry { .. } | State::Starving { .. } | State::Down) => {
                self.state = other;
                None
            }
        }
    }

    /// If EATING, absorbs a false-alarm fork (module docs of `node`): a
    /// second token converged on us; any messages only our held copy had
    /// move into `incoming` (dedup by key). Leaves the held message list
    /// empty — the caller re-accepts `incoming` right after.
    pub fn absorb_fork(&mut self, incoming: &mut Token) {
        if let State::Eating { token, .. } = &mut self.state {
            for m in token.msgs.take_all() {
                if !incoming.msgs.iter().any(|x| x.key() == m.key()) {
                    incoming.msgs.push(m);
                }
            }
        }
    }

    /// If EATING, removes a failed member from the held token's
    /// membership (aggressive failure detection on a stale pass).
    pub fn remove_from_held(&mut self, node: NodeId, full: usize) {
        if let State::Eating { token, load, .. } = &mut self.state {
            token.ring.remove(node);
            *load = token.load_len(full);
        }
    }

    /// Re-arms HUNGRY with a fresh `since`. Used after handing the token
    /// to the transport (the pass is in flight) and on the
    /// failure-on-delivery resend path, where a node that had already
    /// moved to STARVING reclaims forwarding responsibility. `probe_after`
    /// is how long this hunger may last before the successor is asked
    /// whether it is there ([`TimerFired::Probe`]), and again that long
    /// after each question; `None` leaves the hungry timeout alone.
    pub fn rearm_hungry(&mut self, now: Time, probe_after: Option<Duration>) {
        self.state = State::Hungry {
            since: now,
            probe: probe_after.map(|every| (now + every, every)),
        };
    }

    /// The probe timer fired and was acted on: the next question is due a
    /// probe interval from `now`.
    pub fn probe_asked(&mut self, now: Time) {
        if let State::Hungry {
            probe: Some((due, every)),
            ..
        } = &mut self.state
        {
            *due = now + *every;
        }
    }

    /// HUNGRY/STARVING → STARVING with no vote (join probing).
    pub fn begin_starving_probe(&mut self, retry_at: Time) {
        self.starve(None, retry_at);
    }

    /// HUNGRY/STARVING → STARVING with a standing vote over `awaiting`.
    pub fn begin_starving_vote(&mut self, req_id: u64, awaiting: BTreeSet<NodeId>, retry_at: Time) {
        let vote = Vote911 {
            req_id,
            awaiting,
            excluded: Vec::new(),
        };
        self.starve(Some(vote), retry_at);
    }

    fn starve(&mut self, vote: Option<Vote911>, retry_at: Time) {
        match self.state {
            State::Hungry { .. } | State::Starving { .. } => {
                self.state = State::Starving { vote, retry_at };
            }
            State::Eating { .. } | State::Down => {
                debug_assert!(false, "starving from {}", self.name());
            }
        }
    }

    /// The standing vote's request id and still-awaiting voters, if the
    /// node is STARVING with an unanswered ballot (drives the 911
    /// retransmission path).
    pub fn standing_vote(&self) -> Option<(u64, Vec<NodeId>)> {
        match &self.state {
            State::Starving { vote: Some(v), .. } if !v.awaiting.is_empty() => {
                Some((v.req_id, v.awaiting.iter().copied().collect()))
            }
            State::Hungry { .. } | State::Eating { .. } | State::Starving { .. } | State::Down => {
                None
            }
        }
    }

    /// Pushes the STARVING retry deadline (after a retransmission).
    pub fn rearm_starving(&mut self, retry_at: Time) {
        if let State::Starving { retry_at: due, .. } = &mut self.state {
            *due = retry_at;
        }
    }

    /// Records a 911 verdict. Only a STARVING node with a ballot for
    /// `req_id` acts on one; a join prober ignores replies (the join
    /// completes by token delivery).
    pub fn on_verdict(
        &mut self,
        from: NodeId,
        req_id: u64,
        verdict: &Verdict911,
        now: Time,
    ) -> VerdictOutcome {
        let State::Starving { vote: Some(v), .. } = &mut self.state else {
            return VerdictOutcome::Ignored;
        };
        if v.req_id != req_id {
            return VerdictOutcome::Ignored;
        }
        match verdict {
            Verdict911::Grant => {
                v.awaiting.remove(&from);
                if v.awaiting.is_empty() {
                    VerdictOutcome::Won
                } else {
                    VerdictOutcome::Waiting
                }
            }
            Verdict911::Deny { .. } => {
                // Someone has a newer copy or the token itself; it (or its
                // holder) will keep the ring alive. Back to HUNGRY with a
                // fresh timeout.
                self.state = State::hungry(now);
                VerdictOutcome::Denied
            }
        }
    }

    /// Records a failure-on-delivery of a 911 call to `to` — a failure
    /// detection of that member (§2.2), and so a membership change for
    /// the vote.
    pub fn vote_peer_failed(&mut self, to: NodeId) -> VoteProgress {
        let State::Starving { vote: Some(v), .. } = &mut self.state else {
            return VoteProgress::NotVoting;
        };
        let was_awaiting = v.awaiting.remove(&to);
        if !v.excluded.contains(&to) {
            v.excluded.push(to);
        }
        VoteProgress::Recorded {
            was_awaiting,
            vote_complete: v.awaiting.is_empty(),
        }
    }

    /// STARVING → HUNGRY: the vote was won (or is being force-completed
    /// by failure detections); returns the members excluded by failure
    /// detections during the vote, so the caller regenerates the token
    /// without them. `None` — and no state change — if the node is not
    /// STARVING.
    pub fn win_vote(&mut self, now: Time) -> Option<Vec<NodeId>> {
        match std::mem::replace(&mut self.state, State::hungry(now)) {
            State::Starving { vote, .. } => Some(vote.map(|v| v.excluded).unwrap_or_default()),
            other @ (State::Hungry { .. } | State::Eating { .. } | State::Down) => {
                self.state = other;
                None
            }
        }
    }

    /// Any state → DOWN. Returns the held token if the node was EATING so
    /// the caller can hand it off cleanly before going dark.
    pub fn shut_down(&mut self) -> Option<Token> {
        match std::mem::replace(&mut self.state, State::Down) {
            State::Eating { token, .. } => Some(token),
            State::Hungry { .. } | State::Starving { .. } | State::Down => None,
        }
    }

    /// Digests the role state for the model checker's canonical state
    /// fingerprint. Times are digested relative to `now`; the vote's
    /// member sets are digested in id order.
    pub fn digest_into(&self, d: &mut StateDigest, now: Time) {
        match &self.state {
            State::Hungry { since, probe } => {
                d.tag(0);
                d.time_rel(*since, now);
                d.opt(*probe, |d, (due, every)| {
                    d.deadline_rel(due, now);
                    d.write_u64(every.as_nanos());
                });
            }
            State::Eating {
                token,
                accepted,
                hold,
                ..
            } => {
                d.tag(1);
                token.digest_into(d);
                // The deadline acts only through `now >= deadline`: once
                // due (master lock held past it, or a full token due at
                // once) how long ago does not matter.
                d.deadline_rel(*accepted + *hold, now);
            }
            State::Starving { vote, retry_at } => {
                d.tag(2);
                d.time_rel(*retry_at, now);
                match vote {
                    None => d.tag(0),
                    Some(v) => {
                        d.tag(1);
                        d.write_u64(v.req_id);
                        d.write_len(v.awaiting.len());
                        for &n in &v.awaiting {
                            d.node(n);
                        }
                        // Exclusions act as a set (each is removed from
                        // the regenerated ring); digest order-insensitive.
                        let mut excluded = v.excluded.clone();
                        excluded.sort_unstable();
                        d.write_len(excluded.len());
                        for n in excluded {
                            d.node(n);
                        }
                    }
                }
            }
            State::Down => d.tag(3),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raincore_types::Ring;

    fn token() -> Token {
        Token::founding(Ring::from([0, 1, 2]))
    }

    /// The pacing rule's line at the default `mtu` of 1 400 bytes.
    const LINE: usize = 2625;

    /// Accepts `t` weighed by the full walk, [`Token::load_len`].
    fn accept(r: &mut Role, t: Token, now: Time, hold: Duration) {
        let load = t.load_len(LINE);
        r.accept_token(t, now, hold, load);
    }

    #[test]
    fn typed_pass_is_the_only_token_exit() {
        let mut r = Role::hungry(Time(0));
        assert_eq!(r.take_token(Time(1)), None, "HUNGRY holds no token");
        accept(&mut r, token(), Time(0), Duration(5));
        assert!(r.is_eating());
        let t = r.take_token(Time(5)).expect("EATING hands the token out");
        assert_eq!(t.ring.len(), 3);
        assert_eq!(r.name(), "HUNGRY");
        assert_eq!(r.hungry_since(), Some(Time(5)));
    }

    #[test]
    fn verdicts_ignored_outside_a_vote() {
        let mut r = Role::hungry(Time(0));
        assert_eq!(
            r.on_verdict(NodeId(1), 7, &Verdict911::Grant, Time(0)),
            VerdictOutcome::Ignored
        );
        r.begin_starving_probe(Time(10));
        assert_eq!(
            r.on_verdict(NodeId(1), 7, &Verdict911::Grant, Time(0)),
            VerdictOutcome::Ignored,
            "probing starvation has no ballot"
        );
        assert_eq!(r.name(), "STARVING");
    }

    #[test]
    fn vote_wins_when_every_grant_lands() {
        let mut r = Role::hungry(Time(0));
        r.begin_starving_vote(3, BTreeSet::from([NodeId(1), NodeId(2)]), Time(40));
        assert_eq!(
            r.on_verdict(NodeId(1), 99, &Verdict911::Grant, Time(1)),
            VerdictOutcome::Ignored,
            "stale req id"
        );
        assert_eq!(
            r.on_verdict(NodeId(1), 3, &Verdict911::Grant, Time(1)),
            VerdictOutcome::Waiting
        );
        assert_eq!(
            r.on_verdict(NodeId(2), 3, &Verdict911::Grant, Time(2)),
            VerdictOutcome::Won
        );
        assert_eq!(
            r.name(),
            "STARVING",
            "winning leaves regeneration to the caller"
        );
        assert_eq!(r.win_vote(Time(2)), Some(vec![]));
        assert_eq!(r.name(), "HUNGRY");
    }

    #[test]
    fn deny_rearms_hungry() {
        let mut r = Role::hungry(Time(0));
        r.begin_starving_vote(4, BTreeSet::from([NodeId(1)]), Time(40));
        assert_eq!(
            r.on_verdict(NodeId(1), 4, &Verdict911::Deny { newer_seq: 9 }, Time(7)),
            VerdictOutcome::Denied
        );
        assert_eq!(r.name(), "HUNGRY");
        assert_eq!(r.hungry_since(), Some(Time(7)));
    }

    #[test]
    fn failed_voters_complete_the_ballot() {
        let mut r = Role::hungry(Time(0));
        r.begin_starving_vote(5, BTreeSet::from([NodeId(1), NodeId(2)]), Time(40));
        assert_eq!(
            r.vote_peer_failed(NodeId(2)),
            VoteProgress::Recorded {
                was_awaiting: true,
                vote_complete: false
            }
        );
        assert_eq!(
            r.vote_peer_failed(NodeId(2)),
            VoteProgress::Recorded {
                was_awaiting: false,
                vote_complete: false
            },
            "an already-struck voter still counts as recorded"
        );
        assert_eq!(
            r.vote_peer_failed(NodeId(1)),
            VoteProgress::Recorded {
                was_awaiting: true,
                vote_complete: true
            }
        );
        assert_eq!(
            r.win_vote(Time(9)),
            Some(vec![NodeId(2), NodeId(1)]),
            "exclusions in detection order"
        );
    }

    #[test]
    fn shutdown_surrenders_the_token_only_when_eating() {
        let mut r = Role::hungry(Time(0));
        assert_eq!(r.shut_down(), None);
        assert!(r.is_down());
        let mut r = Role::hungry(Time(0));
        accept(&mut r, token(), Time(0), Duration(5));
        assert!(r.shut_down().is_some());
        assert!(r.is_down());
        assert_eq!(r.shut_down(), None, "already down");
    }

    #[test]
    fn timers_fire_per_state() {
        let ht = Duration(100);
        let mut r = Role::hungry(Time(0));
        assert_eq!(r.timer(Time(99), ht, false), TimerFired::Idle);
        assert_eq!(r.timer(Time(100), ht, false), TimerFired::Starve);
        accept(&mut r, token(), Time(0), Duration(10));
        assert_eq!(r.timer(Time(9), ht, false), TimerFired::Idle);
        assert_eq!(r.timer(Time(10), ht, false), TimerFired::PassToken);
        assert_eq!(
            r.timer(Time(10), ht, true),
            TimerFired::Idle,
            "master lock pins"
        );
        assert_eq!(r.next_deadline(ht, false), Some(Time(10)));
        assert_eq!(r.next_deadline(ht, true), None);
        let _ = r.take_token(Time(10));
        r.begin_starving_probe(Time(50));
        assert_eq!(r.timer(Time(49), ht, false), TimerFired::Idle);
        assert_eq!(r.timer(Time(50), ht, false), TimerFired::Retry911);
    }

    #[test]
    fn probe_timer_asks_before_the_hungry_timeout_and_re_arms() {
        let ht = Duration(100);
        let mut r = Role::hungry(Time(0));
        assert_eq!(r.next_deadline(ht, false), Some(Time(100)), "no pass yet");
        r.rearm_hungry(Time(10), Some(Duration(30)));
        assert_eq!(r.hungry_since(), Some(Time(10)));
        assert_eq!(r.next_deadline(ht, false), Some(Time(40)));
        assert_eq!(r.timer(Time(39), ht, false), TimerFired::Idle);
        assert_eq!(r.timer(Time(40), ht, false), TimerFired::Probe);
        r.probe_asked(Time(41));
        assert_eq!(r.timer(Time(41), ht, false), TimerFired::Idle);
        assert_eq!(r.next_deadline(ht, false), Some(Time(71)));
        r.probe_asked(Time(71));
        assert_eq!(
            r.next_deadline(ht, false),
            Some(Time(101)),
            "the probe re-arms; the hunger does not"
        );
        r.probe_asked(Time(101));
        assert_eq!(r.next_deadline(ht, false), Some(Time(110)), "the backstop");
        assert_eq!(r.timer(Time(131), ht, false), TimerFired::Starve);
        // A denied vote, a won one and a fresh start arm no probe.
        r.begin_starving_vote(1, BTreeSet::from([NodeId(1)]), Time(200));
        let _ = r.on_verdict(NodeId(1), 1, &Verdict911::Deny { newer_seq: 2 }, Time(140));
        assert_eq!(r.next_deadline(ht, false), Some(Time(240)));
        r.probe_asked(Time(150));
        assert_eq!(
            r.next_deadline(ht, false),
            Some(Time(240)),
            "nothing to re-arm"
        );
    }

    #[test]
    fn digest_distinguishes_states_and_merges_time_shifts() {
        use raincore_types::StateDigest;
        let fp = |r: &Role, now: Time| {
            let mut d = StateDigest::identity();
            r.digest_into(&mut d, now);
            d.finish()
        };
        let h0 = Role::hungry(Time(0));
        let h5 = Role::hungry(Time(5));
        assert_eq!(
            fp(&h0, Time(3)),
            fp(&h5, Time(8)),
            "same hungry age at different absolute times"
        );
        let mut e = Role::hungry(Time(0));
        accept(&mut e, token(), Time(0), Duration(5));
        assert_ne!(fp(&h0, Time(3)), fp(&e, Time(3)));
    }

    #[test]
    fn cached_load_follows_the_held_token() {
        use raincore_types::{Attached, DeliveryMode, OriginSeq};
        let oob = |seq, len| Attached::new_oob(NodeId(2), OriginSeq(seq), DeliveryMode::Safe, len);
        let mut t = token();
        t.msgs.push(Attached::new(
            NodeId(0),
            OriginSeq(0),
            DeliveryMode::Agreed,
            bytes::Bytes::from_static(b"inline"),
        ));
        // A full token's worth beside the token counts; less does not.
        t.msgs.push(oob(0, 8192));
        t.msgs.push(oob(1, LINE as u64 - 1));
        let mut r = Role::hungry(Time(0));
        assert_eq!(r.held_load(), None);
        accept(&mut r, t.clone(), Time(0), Duration(5));
        assert_eq!(r.held_load(), Some(t.wire_len() + 8192));
        assert!(t.wire_len() < 64, "three entries, a few bytes each");
        // A member evicted from the held ring takes its id's byte off the
        // envelope; the freight is recounted, not patched.
        r.remove_from_held(NodeId(2), LINE);
        t.ring.remove(NodeId(2));
        assert_eq!(r.held_load(), Some(t.load_len(LINE)));
        assert_eq!(t.load_len(LINE), t.wire_len() + 8192);
        assert_eq!(r.take_token(Time(1)), Some(t));
        assert_eq!(r.held_load(), None);
    }

    #[test]
    fn moved_pass_deadline_is_never_before_acceptance_and_digests_ageless() {
        use raincore_types::StateDigest;
        let fp = |r: &Role, now: Time| {
            let mut d = StateDigest::identity();
            r.digest_into(&mut d, now);
            d.finish()
        };
        let ht = Duration(100);
        let mut r = Role::hungry(Time(0));
        assert_eq!(r.hold(), None);
        r.set_pass_due(Time(0));
        assert_eq!(r.name(), "HUNGRY", "nothing to pace without a token");
        accept(&mut r, token(), Time(20), Duration(10));
        assert_eq!(r.held_load(), Some(token().wire_len()));
        assert_eq!(r.hold(), Some(Duration(10)));
        let held = fp(&r, Time(22));
        r.set_pass_due(Time(26));
        assert_eq!(r.next_deadline(ht, false), Some(Time(26)));
        assert_eq!(r.timer(Time(25), ht, false), TimerFired::Idle);
        r.set_pass_due(Time(34));
        assert_eq!(r.hold(), Some(Duration(14)), "a pace may outlast the hold");
        r.set_pass_due(Time(3));
        assert_eq!(r.hold(), Some(Duration::ZERO));
        assert_eq!(
            r.next_deadline(ht, false),
            Some(Time(20)),
            "not before it came"
        );
        assert_eq!(r.timer(Time(22), ht, false), TimerFired::PassToken);
        assert_eq!(r.timer(Time(22), ht, true), TimerFired::Idle, "lock pins");
        assert_ne!(held, fp(&r, Time(22)), "due at once is another state");
        // Due 2 ns or 2 s ago: the same state to the model checker
        // (wrapping subtraction gave every instant its own fingerprint).
        assert_eq!(fp(&r, Time(22)), fp(&r, Time(2_000_000_020)));
        let mut later = Role::hungry(Time(0));
        accept(&mut later, token(), Time(500), Duration(10));
        later.set_pass_due(Time(0));
        assert_eq!(fp(&r, Time(22)), fp(&later, Time(500)));
    }

    #[test]
    fn a_denial_of_an_earlier_call_leaves_the_ballot_standing() {
        let mut r = Role::hungry(Time(0));
        r.begin_starving_vote(6, BTreeSet::from([NodeId(1), NodeId(2)]), Time(40));
        let ballot = r.standing_vote();
        assert_eq!(ballot, Some((6, vec![NodeId(1), NodeId(2)])));
        assert_eq!(
            r.on_verdict(NodeId(1), 5, &Verdict911::Deny { newer_seq: 9 }, Time(3)),
            VerdictOutcome::Ignored,
            "the denial answers call 5; the ballot is call 6"
        );
        assert_eq!(r.name(), "STARVING");
        assert_eq!(r.standing_vote(), ballot);
        assert_eq!(r.next_deadline(Duration(100), false), Some(Time(40)));
    }

    #[test]
    fn a_denial_while_join_probing_is_ignored() {
        let mut r = Role::hungry(Time(0));
        r.begin_starving_probe(Time(10));
        assert_eq!(
            r.on_verdict(NodeId(1), 0, &Verdict911::Deny { newer_seq: 3 }, Time(2)),
            VerdictOutcome::Ignored,
            "no ballot to deny"
        );
        assert_eq!(r.name(), "STARVING");
        assert_eq!(r.standing_vote(), None);
        assert_eq!(
            r.timer(Time(10), Duration(100), false),
            TimerFired::Retry911
        );
    }
}

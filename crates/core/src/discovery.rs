//! Discovery and merge (§2.4): BODYODOR beacons to eligible nodes that
//! are not in the group, and the group-id tie-break that decides which
//! side hands its token over.

use crate::ctx::{Ctx, SendKind};
use raincore_obs::TraceKind;
use raincore_types::wire::WireEncode;
use raincore_types::{BodyOdor, NodeId, Ring, SessionConfig, SessionMsg, StateDigest, Time};

/// Eligible nodes that are not in `ring` — the audience of our beacons.
fn absent_eligible<'a>(
    cfg: &'a SessionConfig,
    id: NodeId,
    ring: &'a Ring,
) -> impl Iterator<Item = NodeId> + 'a {
    cfg.eligible
        .iter()
        .copied()
        .filter(move |&n| n != id && !ring.contains(n))
}

/// The discovery component.
#[derive(Debug)]
pub(crate) struct Discovery {
    next_beacon: Time,
    /// Node we should hand a TBM token to at the next pass (we saw its
    /// BODYODOR and its group id is lower than ours).
    merge_target: Option<NodeId>,
}

impl Discovery {
    pub(crate) fn new(now: Time, cfg: &SessionConfig) -> Self {
        Discovery {
            next_beacon: now + cfg.beacon_period,
            merge_target: None,
        }
    }

    /// When the beacon timer next matters: never, while every eligible
    /// node is already in the group.
    pub(crate) fn next_wakeup(&self, cfg: &SessionConfig, id: NodeId, ring: &Ring) -> Option<Time> {
        absent_eligible(cfg, id, ring)
            .next()
            .map(|_| self.next_beacon)
    }

    /// Beacons every absent eligible node once per period. The timer
    /// moves only when it fires with an audience: a deadline that fell
    /// due while nobody was absent fires at the first tick that finds
    /// someone absent, so the beacon phase is this node's own, not that
    /// of whatever event last woke it. Only a node that is actually part
    /// of a functioning group (`in_group`: it has or has seen a token)
    /// advertises itself.
    pub(crate) fn on_tick(&mut self, cx: &mut Ctx<'_>, in_group: bool) {
        if cx.now < self.next_beacon {
            return;
        }
        let absent: Vec<NodeId> = absent_eligible(cx.cfg, cx.id, cx.ring).collect();
        if absent.is_empty() {
            return;
        }
        self.next_beacon = cx.now + cx.cfg.beacon_period;
        if !in_group {
            return;
        }
        let beacon = BodyOdor {
            from: cx.id,
            group: cx.group_id(),
        };
        let bytes = SessionMsg::BodyOdor(beacon).encode_to_bytes();
        for n in absent {
            if cx.send_tracked(n, bytes.clone(), SendKind::Beacon).is_ok() {
                cx.metrics.beacons_sent += 1;
            }
        }
    }

    /// A beacon arrived. §2.4 tie-break: it is a join request iff the
    /// sender's group id is lower than ours — the higher group hands its
    /// token down, so multi-way merges cannot deadlock.
    pub(crate) fn on_beacon(&mut self, cx: &mut Ctx<'_>, b: BodyOdor) {
        cx.metrics.beacons_received += 1;
        cx.obs.trace(TraceKind::BeaconRx {
            from: b.from.0,
            group: b.group.0 .0,
        });
        let stranger = b.from != cx.id && !cx.ring.contains(b.from);
        if stranger && cx.cfg.eligible.contains(&b.from) && b.group < cx.group_id() {
            self.merge_target = Some(b.from);
        }
    }

    /// The merge hand-off due at this pass, if any.
    pub(crate) fn take_merge_target(&mut self) -> Option<NodeId> {
        self.merge_target.take()
    }

    /// This component's slice of the model-checker state digest. The
    /// timer is digested by what it can still do: one that fell due acts
    /// only by being due, however long ago that was.
    pub(crate) fn digest_into(&self, now: Time, d: &mut StateDigest) {
        d.opt_node(self.merge_target);
        d.deadline_rel(self.next_beacon, now);
    }
}

#[cfg(test)]
mod tests {
    use crate::node::testkit::{first_msg, mk, mk_with, outgoing_msgs};
    use crate::StartMode;
    use raincore_types::*;

    #[test]
    fn beacon_from_lower_group_triggers_merge_handoff() {
        // Node 2 is an isolated singleton group g2.
        let mut c = mk(2, 4, StartMode::Isolated);
        // Beacon from node 0, group g0 < g2 → on our next pass we hand a
        // TBM token to node 0.
        c.on_session_msg(
            Time::ZERO,
            SessionMsg::BodyOdor(BodyOdor {
                from: NodeId(0),
                group: GroupId(NodeId(0)),
            }),
        );
        c.on_tick(Time::ZERO + c.config().token_hold);
        let (dst, SessionMsg::Token(t)) = first_msg(&mut c) else {
            panic!()
        };
        assert!(t.tbm);
        assert!(t.ring.contains(NodeId(0)));
        assert!(t.ring.contains(NodeId(2)));
        assert_eq!(dst, NodeId(0));
    }

    #[test]
    fn beacon_from_outside_eligible_membership_is_not_a_merge() {
        // Node 2's Eligible Membership is {2, 3} (§2.4): node 0 belongs to
        // another group however low its id, so its beacon is no join
        // request and the next pass is an ordinary self-pass.
        let mut c = mk_with(2, 4, StartMode::Isolated, |cfg| {
            cfg.eligible = vec![NodeId(2), NodeId(3)];
        });
        c.on_session_msg(
            Time::ZERO,
            SessionMsg::BodyOdor(BodyOdor {
                from: NodeId(0),
                group: GroupId(NodeId(0)),
            }),
        );
        c.on_tick(Time::ZERO + c.config().token_hold);
        assert!(outgoing_msgs(&mut c)
            .iter()
            .all(|(_, m)| !matches!(m, SessionMsg::Token(_))));
        assert!(c.is_eating());
        assert_eq!(c.metrics().self_passes, 1);
        assert!(!c.ring().contains(NodeId(0)));
    }

    #[test]
    fn beacon_from_higher_group_ignored() {
        let mut a = mk(0, 4, StartMode::Isolated);
        a.on_session_msg(
            Time::ZERO,
            SessionMsg::BodyOdor(BodyOdor {
                from: NodeId(3),
                group: GroupId(NodeId(3)),
            }),
        );
        a.on_tick(Time::ZERO + a.config().token_hold);
        // Self-pass, no TBM handoff.
        assert!(a.is_eating());
        assert_eq!(a.metrics().self_passes, 1);
        assert!(!a.ring().contains(NodeId(3)));
    }

    #[test]
    fn beacons_go_to_absent_eligible_only() {
        let mut a = mk(0, 3, StartMode::Isolated); // eligible {0,1,2}, ring {0}
        a.on_tick(Time::ZERO + a.config().beacon_period);
        let mut dsts = vec![];
        for (dst, m) in outgoing_msgs(&mut a) {
            if let SessionMsg::BodyOdor(b) = m {
                assert_eq!(b.from, NodeId(0));
                assert_eq!(b.group, GroupId(NodeId(0)));
                dsts.push(dst);
            }
        }
        dsts.sort();
        assert_eq!(dsts, vec![NodeId(1), NodeId(2)]);
        assert_eq!(a.metrics().beacons_sent, 2);
    }

    const PERIOD: Duration = Duration::from_millis(50);

    /// Node 1 of a founding ring {0, 1, 2}, beaconing every [`PERIOD`].
    fn member() -> crate::SessionNode {
        mk_with(1, 3, StartMode::Founding(Ring::from([0, 1, 2])), |c| {
            c.beacon_period = PERIOD;
        })
    }

    fn at(ms: u64) -> Time {
        Time::ZERO + Duration::from_millis(ms)
    }

    fn fingerprint(n: &crate::SessionNode, now: Time) -> Fingerprint {
        let mut d = StateDigest::identity();
        n.digest_into(now, &mut d);
        d.finish()
    }

    /// Hands node 1 a token whose ring is `ring`: it eats, and its view
    /// becomes that ring.
    fn token(n: &mut crate::SessionNode, now: Time, ring: Ring, seq: u64) {
        let mut t = Token::founding(ring);
        t.seq = seq;
        n.on_session_msg(now, SessionMsg::Token(t));
        assert!(n.is_eating());
        outgoing_msgs(n);
    }

    #[test]
    fn a_tick_while_nobody_is_absent_beacons_nothing_and_moves_nothing() {
        let mut b = member();
        // Long past the beacon deadline, before any other timer.
        let now = at(3 * 50 + 7);
        assert!(b.next_wakeup() > Some(now), "nothing is due");
        let before = fingerprint(&b, now);
        b.on_tick(now);
        assert_eq!(fingerprint(&b, now), before, "the tick was a no-op");
        assert!(outgoing_msgs(&mut b).is_empty());
        assert_eq!(b.metrics().beacons_sent, 0);
    }

    #[test]
    fn the_first_beacon_goes_at_the_first_tick_after_a_member_leaves() {
        let mut b = member();
        token(&mut b, at(10), Ring::from([0, 1, 2]), 5);
        // Due since 50 ms, with nobody to beacon: the timer stays put. (It
        // used to re-arm here, for 145 ms.)
        b.on_tick(at(95));
        assert_eq!(b.metrics().beacons_sent, 0);
        // Node 2 left: the overdue deadline fires at the next tick, off
        // the grid any earlier tick would have set.
        token(&mut b, at(123), Ring::from([0, 1]), 9);
        assert_eq!(b.next_wakeup(), Some(at(50)), "overdue, so due now");
        b.on_tick(at(123));
        let beacons: Vec<NodeId> = outgoing_msgs(&mut b)
            .into_iter()
            .filter(|(_, m)| matches!(m, SessionMsg::BodyOdor(_)))
            .map(|(dst, _)| dst)
            .collect();
        assert_eq!(beacons, vec![NodeId(2)]);
        assert_eq!(b.metrics().beacons_sent, 1);
    }

    #[test]
    fn then_one_beacon_per_period() {
        let mut b = member();
        token(&mut b, at(10), Ring::from([0, 1, 2]), 5);
        b.on_tick(at(95));
        token(&mut b, at(123), Ring::from([0, 1]), 9);
        let mut fired = Vec::new();
        for ms in 123..=240 {
            let sent = b.metrics().beacons_sent;
            b.on_tick(at(ms));
            outgoing_msgs(&mut b);
            if b.metrics().beacons_sent > sent {
                fired.push(ms);
            }
        }
        assert_eq!(fired, vec![123, 173, 223]);
    }
}

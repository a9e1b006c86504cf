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

    /// Beacons every absent eligible node once per period. Only a node
    /// that is actually part of a functioning group (`in_group`: it has
    /// or has seen a token) advertises itself.
    pub(crate) fn on_tick(&mut self, cx: &mut Ctx<'_>, in_group: bool) {
        if cx.now < self.next_beacon {
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
        let absent: Vec<NodeId> = absent_eligible(cx.cfg, cx.id, cx.ring).collect();
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

    /// This component's slice of the model-checker state digest.
    pub(crate) fn digest_into(&self, now: Time, d: &mut StateDigest) {
        d.opt_node(self.merge_target);
        d.time_rel(self.next_beacon, now);
    }
}

#[cfg(test)]
mod tests {
    use crate::node::testkit::{first_msg, mk, outgoing_msgs};
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
}

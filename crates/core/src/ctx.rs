//! What a sub-protocol component borrows from [`crate::SessionNode`].
//!
//! The composer keeps identity, configuration, the transport endpoint,
//! the [`Role`], the ring view, the event queue and the counters; a
//! component sees them for the duration of one call through [`Ctx`] and
//! owns everything else it needs. Rules about that shared state — who is
//! a member, which sends are tracked for failure-on-delivery — are
//! written here once.

use crate::events::SessionEvent;
use crate::metrics::SessionMetrics;
use crate::obs::NodeObs;
use crate::typestate::Role;
use bytes::Bytes;
use raincore_transport::Endpoint;
use raincore_types::{GroupId, IdMap, MsgId, NodeId, Result, Ring, SessionConfig, Time};
use std::collections::VecDeque;

/// What an in-flight transport send was carrying, so completion and
/// failure notifications can be routed to the component that sent it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SendKind {
    Token,
    Call911 { req_id: u64 },
    Reply,
    Beacon,
    Probe,
}

/// The composer's own state, lent to a component for one call.
pub(crate) struct Ctx<'a> {
    pub(crate) id: NodeId,
    pub(crate) now: Time,
    pub(crate) cfg: &'a SessionConfig,
    pub(crate) transport: &'a mut Endpoint,
    pub(crate) inflight: &'a mut IdMap<MsgId, SendKind>,
    pub(crate) role: &'a mut Role,
    pub(crate) ring: &'a mut Ring,
    pub(crate) events: &'a mut VecDeque<SessionEvent>,
    pub(crate) metrics: &'a mut SessionMetrics,
    pub(crate) obs: &'a mut NodeObs,
}

/// The pacing rule's line (DESIGN.md §16.4): the freight of a full token,
/// an eighth of a datagram under two transport datagrams, so the message
/// that crosses it does not spill a third.
pub(crate) fn full_line(transport: &Endpoint) -> usize {
    let mtu = transport.mtu();
    2 * mtu - mtu / 8
}

impl Ctx<'_> {
    /// [`full_line`] of this node's transport.
    pub(crate) fn full_line(&self) -> usize {
        full_line(self.transport)
    }

    /// Sends `msg` reliably and remembers what it carried, so the
    /// transport's `Delivered` / `DeliveryFailed` finds its way back.
    pub(crate) fn send_tracked(&mut self, to: NodeId, msg: Bytes, kind: SendKind) -> Result<MsgId> {
        let msg_id = self.transport.send(self.now, to, msg)?;
        self.inflight.insert(msg_id, kind);
        Ok(msg_id)
    }

    /// This node's current group id (lowest member of its view).
    pub(crate) fn group_id(&self) -> GroupId {
        self.ring.group_id().unwrap_or(GroupId(self.id))
    }

    /// Drops `node` from the local ring view. (The ring-pass component
    /// also strikes it from the local token copy: `RingPass::evict`.)
    pub(crate) fn remove_member(&mut self, node: NodeId) {
        if self.ring.remove(node) {
            self.obs
                .member_changed(self.obs.last_trace(), node.0, false);
            self.events.push_back(SessionEvent::MembershipChanged {
                ring: self.ring.clone(),
                added: Vec::new(),
                removed: vec![node],
            });
        }
    }

    /// Adopts the membership a token carries as the local ring view.
    pub(crate) fn sync_membership(&mut self, new_ring: &Ring) {
        if *self.ring == *new_ring {
            return;
        }
        let added: Vec<NodeId> = new_ring
            .iter()
            .filter(|n| !self.ring.contains(*n))
            .collect();
        let removed: Vec<NodeId> = self
            .ring
            .iter()
            .filter(|n| !new_ring.contains(*n))
            .collect();
        *self.ring = new_ring.clone();
        if added.is_empty() && removed.is_empty() {
            return; // same members, new order — not an application-visible change
        }
        let ctx = self.obs.last_trace();
        for n in &added {
            self.obs.member_changed(ctx, n.0, true);
        }
        for n in &removed {
            self.obs.member_changed(ctx, n.0, false);
        }
        self.events.push_back(SessionEvent::MembershipChanged {
            ring: new_ring.clone(),
            added,
            removed,
        });
    }
}

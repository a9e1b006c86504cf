//! Per-node application hook.
//!
//! A [`NodeApp`] rides on one simulated host. It sees the host's
//! data-plane datagrams and (when the host runs a session stack) its
//! session events, and can send datagrams and drive the session API
//! through [`NodeCtl`]. The Rainwall packet engine and the benchmark
//! traffic generators are `NodeApp`s; an application that needs only the
//! session service is a [`SessionApp`], the same state machine the
//! runtime hosts over sockets, and every `SessionApp` is a `NodeApp`.

use raincore_net::Datagram;
use raincore_session::{SessionApp, SessionEvent, SessionNode};
use raincore_types::{NodeId, Time};
use std::any::Any;

/// Controlled access to a node's facilities during a callback.
pub struct NodeCtl<'a> {
    /// Current virtual time.
    pub now: Time,
    /// The host node's id.
    pub id: NodeId,
    /// The host's session stack, if it runs one (plain hosts do not).
    pub session: Option<&'a mut SessionNode>,
    pub(crate) sends: &'a mut Vec<Datagram>,
}

impl<'a> NodeCtl<'a> {
    /// Builds a detached control context over a caller-owned send buffer —
    /// for unit-testing [`NodeApp`] implementations outside a running
    /// cluster.
    pub fn detached(
        now: Time,
        id: NodeId,
        session: Option<&'a mut SessionNode>,
        sends: &'a mut Vec<Datagram>,
    ) -> NodeCtl<'a> {
        NodeCtl {
            now,
            id,
            session,
            sends,
        }
    }

    /// Queues a raw datagram onto the wire (typically data-plane traffic;
    /// the source address should be one of this host's addresses).
    pub fn send(&mut self, dgram: Datagram) {
        self.sends.push(dgram);
    }
}

/// Application logic attached to one simulated host.
///
/// All methods have empty default implementations so an app only
/// implements what it needs.
pub trait NodeApp: Any {
    /// A data-plane datagram addressed to this host arrived.
    fn on_data(&mut self, ctl: &mut NodeCtl<'_>, dgram: Datagram) {
        let _ = (ctl, dgram);
    }

    /// A control-plane datagram arrived on a host *without* a session
    /// stack (external protocol participants, e.g. an open-group client
    /// speaking the Raincore transport). Hosts with a session stack never
    /// see this — the harness feeds their control traffic to the stack.
    fn on_control(&mut self, ctl: &mut NodeCtl<'_>, dgram: Datagram) {
        let _ = (ctl, dgram);
    }

    /// The host's session stack emitted an event.
    fn on_session_event(&mut self, ctl: &mut NodeCtl<'_>, event: &SessionEvent) {
        let _ = (ctl, event);
    }

    /// Called whenever the host is ticked (after session timers ran).
    fn on_tick(&mut self, ctl: &mut NodeCtl<'_>) {
        let _ = ctl;
    }

    /// Earliest instant this app needs a tick, if any.
    fn next_wakeup(&self) -> Option<Time> {
        None
    }
}

/// The simulator's half of application hosting (DESIGN.md §18): a
/// [`SessionApp`] rides a member's slot as it is, fed there what the
/// runtime's pump thread feeds it over sockets, and
/// [`Cluster::app`](crate::Cluster::app) reads it back by type.
impl<A: SessionApp> NodeApp for A {
    fn on_session_event(&mut self, ctl: &mut NodeCtl<'_>, event: &SessionEvent) {
        if let Some(session) = ctl.session.as_deref_mut() {
            self.on_event(ctl.now, event, session);
        }
    }

    fn on_tick(&mut self, ctl: &mut NodeCtl<'_>) {
        if let Some(session) = ctl.session.as_deref_mut() {
            SessionApp::on_tick(self, ctl.now, session);
        }
    }

    fn next_wakeup(&self) -> Option<Time> {
        SessionApp::next_wakeup(self)
    }
}

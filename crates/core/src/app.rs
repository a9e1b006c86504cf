//! The seam between the session service and what is built on it.
//!
//! An application of the session service — the lock manager, the data
//! service, the VIP manager — is a state machine fed the member's
//! [`SessionEvent`]s in order, with the member's [`SessionNode`] lent to
//! it for the length of the call so that it can multicast and take the
//! master lock. Whoever owns the node *hosts* the application: the
//! simulator's node slot and the runtime's pump thread are the two hosts,
//! and neither knows which application it feeds (DESIGN.md §18).

use crate::events::SessionEvent;
use crate::node::SessionNode;
use raincore_types::Time;

/// A state machine hosted beside one member's [`SessionNode`].
pub trait SessionApp: 'static {
    /// One session event of the hosting member; every event is fed, in
    /// the order the node emitted them.
    fn on_event(&mut self, now: Time, event: &SessionEvent, session: &mut SessionNode);

    /// Called whenever the host runs the member's timers, and no later
    /// than [`SessionApp::next_wakeup`].
    fn on_tick(&mut self, now: Time, session: &mut SessionNode) {
        let _ = (now, session);
    }

    /// Earliest instant the application needs a tick, if any.
    fn next_wakeup(&self) -> Option<Time> {
        None
    }
}

/// No application: what a bare member hosts.
impl SessionApp for () {
    fn on_event(&mut self, _: Time, _: &SessionEvent, _: &mut SessionNode) {}
}

/// Two applications beside one node (nest the pair for more): each is fed
/// every event and every tick, the first first.
impl<A: SessionApp, B: SessionApp> SessionApp for (A, B) {
    fn on_event(&mut self, now: Time, event: &SessionEvent, session: &mut SessionNode) {
        self.0.on_event(now, event, session);
        self.1.on_event(now, event, session);
    }

    fn on_tick(&mut self, now: Time, session: &mut SessionNode) {
        self.0.on_tick(now, session);
        self.1.on_tick(now, session);
    }

    fn next_wakeup(&self) -> Option<Time> {
        let wakeups = [self.0.next_wakeup(), self.1.next_wakeup()];
        wakeups.into_iter().flatten().min()
    }
}

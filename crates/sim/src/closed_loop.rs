//! The closed-loop workload the pacing tests and benches share.

use bytes::Bytes;
use raincore_session::{SessionApp, SessionEvent, SessionNode};
use raincore_types::{DeliveryMode, Time};

/// A closed loop: `window` agreed multicasts of `len` bytes outstanding,
/// one more submitted whenever one becomes atomic.
#[derive(Clone, Debug)]
pub struct ClosedLoop {
    /// Multicasts still to submit at the next tick (the whole window at
    /// the start, none once the loop runs).
    pub window: usize,
    /// Payload length.
    pub len: usize,
}

impl ClosedLoop {
    fn submit(&self, session: &mut SessionNode) {
        session
            .multicast(DeliveryMode::Agreed, Bytes::from(vec![0x5A; self.len]))
            .expect("multicast");
    }
}

impl SessionApp for ClosedLoop {
    fn on_event(&mut self, _now: Time, event: &SessionEvent, session: &mut SessionNode) {
        if matches!(event, SessionEvent::MulticastAtomic { .. }) {
            self.submit(session);
        }
    }

    fn on_tick(&mut self, _now: Time, session: &mut SessionNode) {
        for _ in 0..std::mem::take(&mut self.window) {
            self.submit(session);
        }
    }
}

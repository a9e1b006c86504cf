//! The replicated lock table.

use crate::ops::{HeldLock, LockOp, MAGIC};
use raincore_session::{Replica, SessionApp, SessionEvent, SessionNode, Table};
use raincore_types::{NodeId, Result, Time};
use std::collections::{BTreeMap, VecDeque};

/// Events surfaced by the lock manager. Emitted identically (and in the
/// same order) on every member, since they are a pure function of the
/// agreed delivery order; filter on `owner == me` for local interest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LockEvent {
    /// `owner` now holds `lock`.
    Granted {
        /// Lock name.
        lock: String,
        /// New owner.
        owner: NodeId,
    },
    /// `owner` released (or lost, if it crashed) `lock`.
    Released {
        /// Lock name.
        lock: String,
        /// Previous owner.
        owner: NodeId,
        /// True when the release was forced by a membership removal.
        forced: bool,
    },
}

#[derive(Debug, Default, Clone)]
struct LockState {
    owner: Option<NodeId>,
    /// Reentrant acquisitions by the owner.
    depth: u32,
    waiters: VecDeque<NodeId>,
}

/// Summary counters for tests and monitoring.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LockTableStats {
    /// Grants performed (including re-grants to waiters).
    pub grants: u64,
    /// Voluntary releases.
    pub releases: u64,
    /// Locks force-released because their owner left the membership.
    pub forced_releases: u64,
}

/// The lock table: who holds what and who waits, plus what applying the
/// ops has emitted.
#[derive(Debug, Default)]
pub(crate) struct LockTable {
    locks: BTreeMap<String, LockState>,
    events: VecDeque<LockEvent>,
    stats: LockTableStats,
}

/// A replica of the distributed lock table. One per member, hosted as a
/// [`SessionApp`] or fed the member's session events via
/// [`LockManager::apply`]; lock/unlock requests go out as multicasts via
/// [`LockManager::lock`] / [`LockManager::unlock`].
#[derive(Debug)]
pub struct LockManager {
    replica: Replica<LockTable>,
}

impl LockManager {
    /// Creates the replica for node `me`, a member of the group from its
    /// founding: the table is empty because no lock was ever taken.
    pub fn new(me: NodeId) -> Self {
        LockManager {
            replica: Replica::new(me, LockTable::default()),
        }
    }

    /// Creates the replica for a node `me` that joins a running group
    /// (`StartMode::Joining`, a restart): its table is empty because it
    /// has not been told yet. It applies nothing until the group's table
    /// transfer reaches it (DESIGN.md §18.3).
    pub fn joining(me: NodeId) -> Self {
        LockManager {
            replica: Replica::joining(me, LockTable::default()),
        }
    }

    /// Requests `lock`: multicasts an acquire op. The grant arrives later
    /// as [`LockEvent::Granted`] with `owner == me` (same token round).
    /// Reentrant: acquiring a lock already held by `me` deepens it.
    pub fn lock(&mut self, session: &mut SessionNode, lock: &str) -> Result<()> {
        let op = LockOp::Acquire {
            lock: lock.to_string(),
            node: self.replica.me(),
        };
        self.replica.submit(session, op)
    }

    /// Releases `lock`: multicasts a release op. Releasing a lock not
    /// held by `me` is ignored by every replica (idempotent).
    pub fn unlock(&mut self, session: &mut SessionNode, lock: &str) -> Result<()> {
        let op = LockOp::Release {
            lock: lock.to_string(),
            node: self.replica.me(),
        };
        self.replica.submit(session, op)
    }

    /// Feeds one session event into the replica. Call this with *every*
    /// event from the session node, in order; non-lock events are either
    /// membership changes (owner crash handling) or ignored. Sends
    /// nothing: only a hosted manager hands the table to a joiner.
    pub fn apply(&mut self, event: &SessionEvent) {
        self.replica.apply(event);
    }

    /// Current owner of `lock`, if any.
    pub fn owner(&self, lock: &str) -> Option<NodeId> {
        self.replica.table.locks.get(lock).and_then(|s| s.owner)
    }

    /// True if this replica's node holds `lock`.
    pub fn held_by_me(&self, lock: &str) -> bool {
        self.owner(lock) == Some(self.replica.me())
    }

    /// Nodes queued behind the owner of `lock`.
    pub fn waiters(&self, lock: &str) -> Vec<NodeId> {
        self.replica
            .table
            .locks
            .get(lock)
            .map(|s| s.waiters.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Drains one lock event.
    pub fn poll_event(&mut self) -> Option<LockEvent> {
        self.replica.table.events.pop_front()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> LockTableStats {
        self.replica.table.stats
    }
}

impl SessionApp for LockManager {
    fn on_event(&mut self, _now: Time, event: &SessionEvent, session: &mut SessionNode) {
        self.replica.on_event(event, session);
    }
}

impl Table for LockTable {
    type Op = LockOp;
    type Image = Vec<HeldLock>;
    const MAGIC: &'static [u8; 4] = MAGIC;

    fn apply(&mut self, op: &LockOp) {
        match op {
            LockOp::Acquire { lock, node } => {
                let st = self.locks.entry(lock.clone()).or_default();
                match st.owner {
                    None => {
                        st.owner = Some(*node);
                        st.depth = 1;
                        self.stats.grants += 1;
                        self.events.push_back(LockEvent::Granted {
                            lock: lock.clone(),
                            owner: *node,
                        });
                    }
                    Some(owner) if owner == *node => {
                        st.depth += 1; // reentrant
                    }
                    Some(_) => {
                        if !st.waiters.contains(node) {
                            st.waiters.push_back(*node);
                        }
                    }
                }
            }
            LockOp::Release { lock, node } => {
                let Some(st) = self.locks.get_mut(lock) else {
                    return;
                };
                if st.owner != Some(*node) {
                    // Not the owner (or a stale release): drop any queued
                    // interest instead.
                    st.waiters.retain(|w| w != node);
                    return;
                }
                if st.depth > 1 {
                    st.depth -= 1;
                    return;
                }
                self.stats.releases += 1;
                self.events.push_back(LockEvent::Released {
                    lock: lock.clone(),
                    owner: *node,
                    forced: false,
                });
                self.grant_next(lock.clone());
            }
        }
    }

    /// Forced cleanup when `node` leaves the membership: its locks are
    /// released and it disappears from every waiter queue.
    fn purge(&mut self, node: NodeId) {
        let names: Vec<String> = self.locks.keys().cloned().collect();
        for lock in names {
            let Some(st) = self.locks.get_mut(&lock) else {
                continue;
            };
            st.waiters.retain(|w| *w != node);
            if st.owner == Some(node) {
                self.stats.forced_releases += 1;
                self.events.push_back(LockEvent::Released {
                    lock: lock.clone(),
                    owner: node,
                    forced: true,
                });
                self.grant_next(lock);
            }
        }
    }

    /// Every lock that has an owner.
    fn image(&self) -> Vec<HeldLock> {
        let held = self.locks.iter().filter_map(|(lock, st)| {
            Some(HeldLock {
                lock: lock.clone(),
                owner: st.owner?,
                depth: st.depth,
                waiters: st.waiters.iter().copied().collect(),
            })
        });
        held.collect()
    }

    /// Events are emitted from the replay on, so a joiner's grant
    /// history is a suffix of the group's.
    fn install(&mut self, image: Vec<HeldLock>) {
        let held = image.into_iter().map(|held| {
            let state = LockState {
                owner: Some(held.owner),
                depth: held.depth,
                waiters: held.waiters.into(),
            };
            (held.lock, state)
        });
        self.locks = held.collect();
    }
}

impl LockTable {
    fn grant_next(&mut self, lock: String) {
        let Some(st) = self.locks.get_mut(&lock) else {
            return;
        };
        match st.waiters.pop_front() {
            Some(next) => {
                st.owner = Some(next);
                st.depth = 1;
                self.stats.grants += 1;
                self.events
                    .push_back(LockEvent::Granted { lock, owner: next });
            }
            None => {
                st.owner = None;
                st.depth = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raincore_session::Frame;

    fn acquire(lm: &mut LockManager, lock: &str, node: u32) {
        lm.replica.table.apply(&LockOp::Acquire {
            lock: lock.into(),
            node: NodeId(node),
        });
    }

    fn release(lm: &mut LockManager, lock: &str, node: u32) {
        lm.replica.table.apply(&LockOp::Release {
            lock: lock.into(),
            node: NodeId(node),
        });
    }

    fn drain(lm: &mut LockManager) -> Vec<LockEvent> {
        let mut out = vec![];
        while let Some(e) = lm.poll_event() {
            out.push(e);
        }
        out
    }

    #[test]
    fn fifo_grant_order() {
        let mut lm = LockManager::new(NodeId(0));
        acquire(&mut lm, "l", 1);
        acquire(&mut lm, "l", 2);
        acquire(&mut lm, "l", 3);
        assert_eq!(lm.owner("l"), Some(NodeId(1)));
        assert_eq!(lm.waiters("l"), vec![NodeId(2), NodeId(3)]);
        release(&mut lm, "l", 1);
        assert_eq!(lm.owner("l"), Some(NodeId(2)));
        release(&mut lm, "l", 2);
        assert_eq!(lm.owner("l"), Some(NodeId(3)));
        release(&mut lm, "l", 3);
        assert_eq!(lm.owner("l"), None);
        let evs = drain(&mut lm);
        let grants: Vec<NodeId> = evs
            .iter()
            .filter_map(|e| match e {
                LockEvent::Granted { owner, .. } => Some(*owner),
                _ => None,
            })
            .collect();
        assert_eq!(grants, vec![NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn reentrant_depth() {
        let mut lm = LockManager::new(NodeId(1));
        acquire(&mut lm, "l", 1);
        acquire(&mut lm, "l", 1);
        release(&mut lm, "l", 1);
        assert!(lm.held_by_me("l"), "still held after matching one release");
        release(&mut lm, "l", 1);
        assert_eq!(lm.owner("l"), None);
    }

    #[test]
    fn non_owner_release_is_ignored_but_cancels_waiting() {
        let mut lm = LockManager::new(NodeId(0));
        acquire(&mut lm, "l", 1);
        acquire(&mut lm, "l", 2);
        release(&mut lm, "l", 2); // waiter gives up
        assert_eq!(lm.owner("l"), Some(NodeId(1)));
        assert!(lm.waiters("l").is_empty());
        release(&mut lm, "l", 9); // total stranger
        assert_eq!(lm.owner("l"), Some(NodeId(1)));
    }

    #[test]
    fn duplicate_acquire_while_waiting_not_queued_twice() {
        let mut lm = LockManager::new(NodeId(0));
        acquire(&mut lm, "l", 1);
        acquire(&mut lm, "l", 2);
        acquire(&mut lm, "l", 2);
        assert_eq!(lm.waiters("l"), vec![NodeId(2)]);
    }

    #[test]
    fn owner_crash_forces_release_and_regrants() {
        let mut lm = LockManager::new(NodeId(0));
        acquire(&mut lm, "a", 1);
        acquire(&mut lm, "a", 2);
        acquire(&mut lm, "b", 1);
        drain(&mut lm);
        lm.apply(&SessionEvent::MembershipChanged {
            ring: raincore_types::Ring::from([0, 2]),
            added: vec![],
            removed: vec![NodeId(1)],
        });
        assert_eq!(lm.owner("a"), Some(NodeId(2)), "waiter inherited");
        assert_eq!(lm.owner("b"), None, "no waiter → free");
        let evs = drain(&mut lm);
        assert!(evs.contains(&LockEvent::Released {
            lock: "a".into(),
            owner: NodeId(1),
            forced: true
        }));
        assert!(evs.contains(&LockEvent::Released {
            lock: "b".into(),
            owner: NodeId(1),
            forced: true
        }));
        assert_eq!(lm.stats().forced_releases, 2);
    }

    #[test]
    fn crashed_waiter_purged_from_queue() {
        let mut lm = LockManager::new(NodeId(0));
        acquire(&mut lm, "l", 1);
        acquire(&mut lm, "l", 2);
        acquire(&mut lm, "l", 3);
        lm.apply(&SessionEvent::MembershipChanged {
            ring: raincore_types::Ring::from([0, 1, 3]),
            added: vec![],
            removed: vec![NodeId(2)],
        });
        release(&mut lm, "l", 1);
        assert_eq!(lm.owner("l"), Some(NodeId(3)), "skipped the dead waiter");
    }

    /// The session event that delivers `payload` as `origin`'s `seq`-th.
    fn delivery(origin: u32, seq: u64, payload: bytes::Bytes) -> SessionEvent {
        SessionEvent::Delivery(raincore_session::Delivery {
            origin: NodeId(origin),
            seq: raincore_types::OriginSeq(seq),
            mode: raincore_types::DeliveryMode::Agreed,
            payload,
        })
    }

    #[test]
    fn joiner_replays_only_what_the_transfer_had_not_applied() {
        let op = |lock: &str, node: u32, release: bool| {
            let (lock, node) = (lock.to_string(), NodeId(node));
            Frame::<LockTable>::Op(match release {
                false => LockOp::Acquire { lock, node },
                true => LockOp::Release { lock, node },
            })
            .to_payload()
        };
        let mut lm = LockManager::joining(NodeId(3));
        // Delivered to the joiner, though the sender had applied it: on
        // the token when the joiner was added.
        lm.apply(&delivery(1, 4, op("l", 1, true)));
        // Ordered after the sender took its snapshot.
        lm.apply(&delivery(3, 0, op("l", 3, false)));
        lm.apply(&delivery(2, 9, op("l", 2, true)));
        assert_eq!(lm.owner("l"), None, "nothing applied before the table");
        // Not for this member: some other newcomer's transfer.
        let transfer = |to: u32| Frame::<LockTable>::Transfer {
            to: vec![NodeId(to)],
            last: Some((NodeId(1), raincore_types::OriginSeq(4))),
            image: vec![HeldLock {
                lock: "l".into(),
                owner: NodeId(2),
                depth: 1,
                waiters: vec![],
            }],
        };
        lm.apply(&delivery(0, 1, transfer(4).to_payload()));
        assert_eq!(lm.owner("l"), None);
        lm.apply(&delivery(0, 2, transfer(3).to_payload()));
        // n1's release was in the table already; the joiner queued behind
        // n2 and inherited when n2 released.
        assert_eq!(lm.owner("l"), Some(NodeId(3)));
        assert_eq!(
            drain(&mut lm),
            vec![
                LockEvent::Released {
                    lock: "l".into(),
                    owner: NodeId(2),
                    forced: false
                },
                LockEvent::Granted {
                    lock: "l".into(),
                    owner: NodeId(3)
                },
            ]
        );
        // Synced: a second transfer changes nothing, ops apply at once.
        lm.apply(&delivery(0, 3, transfer(3).to_payload()));
        assert_eq!(lm.owner("l"), Some(NodeId(3)));
        lm.apply(&delivery(3, 1, op("l", 3, true)));
        assert_eq!(lm.owner("l"), None);
    }

    #[test]
    fn joiner_purges_who_left_while_it_waited() {
        let mut lm = LockManager::joining(NodeId(3));
        lm.apply(&SessionEvent::MembershipChanged {
            ring: raincore_types::Ring::from([0, 3]),
            added: vec![],
            removed: vec![NodeId(2)],
        });
        let transfer = Frame::<LockTable>::Transfer {
            to: vec![NodeId(3)],
            last: None,
            image: vec![HeldLock {
                lock: "l".into(),
                owner: NodeId(2),
                depth: 1,
                waiters: vec![NodeId(0)],
            }],
        };
        lm.apply(&delivery(0, 0, transfer.to_payload()));
        assert_eq!(
            lm.owner("l"),
            Some(NodeId(0)),
            "the sender's table predates the crash"
        );
    }

    #[test]
    fn replicas_agree_given_same_event_sequence() {
        let ops = vec![
            LockOp::Acquire {
                lock: "x".into(),
                node: NodeId(1),
            },
            LockOp::Acquire {
                lock: "x".into(),
                node: NodeId(2),
            },
            LockOp::Acquire {
                lock: "y".into(),
                node: NodeId(2),
            },
            LockOp::Release {
                lock: "x".into(),
                node: NodeId(1),
            },
            LockOp::Acquire {
                lock: "x".into(),
                node: NodeId(3),
            },
            LockOp::Release {
                lock: "x".into(),
                node: NodeId(2),
            },
        ];
        let run = |me: u32| {
            let mut lm = LockManager::new(NodeId(me));
            for op in &ops {
                lm.replica.table.apply(op);
            }
            let mut evs = vec![];
            while let Some(e) = lm.poll_event() {
                evs.push(e);
            }
            (lm.owner("x"), lm.owner("y"), evs)
        };
        let a = run(0);
        let b = run(5);
        assert_eq!(a, b, "replicas are a pure function of the op sequence");
        assert_eq!(a.0, Some(NodeId(3)));
    }
}

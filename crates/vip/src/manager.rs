//! The replicated VIP assignment table and the gratuitous-ARP model.

use raincore_session::{Replica, SessionApp, SessionEvent, SessionNode, Table};
use raincore_types::{wire_struct, Duration, NodeId, Result, Time, VipId};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Magic prefix identifying a VIP-manager multicast payload.
pub const MAGIC: &[u8; 4] = b"RCIP";

/// How often a hosted manager checks for VIPs to (re)assign.
const CHECK_EVERY: Duration = Duration::from_millis(100);

/// Events surfaced by the VIP manager on one node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VipEvent {
    /// This node now owns `vip`: install the address and announce it.
    Acquired(VipId),
    /// This node no longer owns `vip`.
    Lost(VipId),
    /// This node announced `vip` to the subnet (sent when acquired).
    /// A manager built [`VipManager::announcing`] has applied it to the
    /// shared [`SubnetArp`] cache; on a real deployment this is where
    /// the gratuitous ARP frame goes out.
    GratuitousArp {
        /// The announced virtual IP.
        vip: VipId,
        /// The new owner (this node).
        owner: NodeId,
    },
}

/// The simulated subnet's ARP knowledge: which physical node currently
/// answers for each virtual IP. Shared by every host on the subnet —
/// a gratuitous ARP is a broadcast, so all caches update at once.
///
/// MAC/physical addresses never move between nodes (§3.1); clients simply
/// learn a new VIP→node binding.
#[derive(Debug, Default)]
pub struct SubnetArp {
    map: Mutex<BTreeMap<VipId, NodeId>>,
}

impl SubnetArp {
    /// Creates an empty cache behind a shared handle.
    pub fn shared() -> Arc<SubnetArp> {
        Arc::new(SubnetArp::default())
    }

    /// Applies a gratuitous ARP announcement.
    pub fn announce(&self, vip: VipId, owner: NodeId) {
        self.table().insert(vip, owner);
    }

    /// Resolves a virtual IP to its current owner.
    pub fn resolve(&self, vip: VipId) -> Option<NodeId> {
        self.table().get(&vip).copied()
    }

    /// Number of resolvable VIPs.
    pub fn len(&self) -> usize {
        self.table().len()
    }

    /// True if no VIP is resolvable yet.
    pub fn is_empty(&self) -> bool {
        self.table().is_empty()
    }

    /// The table, also after a holder panicked: the only write is a
    /// single `insert`, so a poisoned lock still guards a valid map.
    fn table(&self) -> MutexGuard<'_, BTreeMap<VipId, NodeId>> {
        self.map.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

wire_struct! {
    /// One batch of assignment changes, multicast by the leader under the
    /// master lock (automatic plans) or by an operator (`pinned` moves).
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct AssignBatch {
        /// Operator move: the VIPs become *pinned* — excluded from automatic
        /// rebalancing until a later automatic plan has to reassign them
        /// (owner left the membership), which unpins them.
        pub pinned: bool,
        /// `(vip, new owner)` pairs.
        pub assigns: Vec<(VipId, NodeId)>,
    }
}

/// The assignment table, plus what applying batches to it has emitted
/// at this member.
#[derive(Debug)]
pub(crate) struct VipTable {
    me: NodeId,
    pool: Vec<VipId>,
    assignment: BTreeMap<VipId, NodeId>,
    /// Operator-pinned VIPs: excluded from automatic rebalancing.
    pinned: BTreeSet<VipId>,
    /// The subnet this member's gratuitous ARPs reach, if it models one.
    arp: Option<Arc<SubnetArp>>,
    events: VecDeque<VipEvent>,
}

/// The per-member replica of the VIP assignment table. Host it as a
/// [`SessionApp`] — or feed it every session event via
/// [`VipManager::on_event`] and call [`VipManager::kick`] periodically —
/// and it does the rest.
#[derive(Debug)]
pub struct VipManager {
    replica: Replica<VipTable>,
    /// Leader state: a reassignment is wanted and the master lock has
    /// been requested.
    plan_pending: bool,
    /// When a hosted manager next runs [`VipManager::kick`].
    next_check: Time,
}

impl VipManager {
    /// Creates the replica for node `me`, a member of the group from its
    /// founding, managing the given VIP pool: nothing is assigned because
    /// no plan was ever made. The pool must be configured identically on
    /// every member.
    pub fn new(me: NodeId, pool: Vec<VipId>) -> Self {
        VipManager::over(Replica::new(me, VipTable::new(me, pool)))
    }

    /// Creates the replica for a node `me` that joins a running group
    /// (`StartMode::Joining`, a restart): it knows no assignment because
    /// it has not been told yet. It applies nothing, and neither asks for
    /// nor makes a plan, until the group's table transfer reaches it
    /// (DESIGN.md §18.3).
    pub fn joining(me: NodeId, pool: Vec<VipId>) -> Self {
        VipManager::over(Replica::joining(me, VipTable::new(me, pool)))
    }

    fn over(replica: Replica<VipTable>) -> Self {
        VipManager {
            replica,
            plan_pending: false,
            next_check: Time::ZERO,
        }
    }

    /// Reflects this member's gratuitous ARPs into `arp`, the stand-in
    /// for the caches of every host and router on the subnet.
    pub fn announcing(mut self, arp: Arc<SubnetArp>) -> Self {
        self.replica.table.arp = Some(arp);
        self
    }

    /// The configured pool.
    pub fn pool(&self) -> &[VipId] {
        &self.replica.table.pool
    }

    /// Current owner of a VIP (as this replica sees it).
    pub fn owner_of(&self, vip: VipId) -> Option<NodeId> {
        self.assignment().get(&vip).copied()
    }

    /// VIPs currently owned by this node.
    pub fn my_vips(&self) -> Vec<VipId> {
        self.assignment()
            .iter()
            .filter(|(_, &n)| n == self.replica.me())
            .map(|(&v, _)| v)
            .collect()
    }

    /// Full assignment snapshot.
    pub fn assignment(&self) -> &BTreeMap<VipId, NodeId> {
        &self.replica.table.assignment
    }

    /// Drains one VIP event.
    pub fn poll_event(&mut self) -> Option<VipEvent> {
        self.replica.table.events.pop_front()
    }

    /// Periodic check (call every ~100 ms): the leader requests the
    /// master lock when any VIP is unowned or owned by a departed member.
    pub fn kick(&mut self, session: &mut SessionNode) -> Result<()> {
        let leads = session.ring().leader() == Some(self.replica.me());
        let table = &self.replica.table;
        if !self.replica.synced() || self.plan_pending || !leads || !table.needs_plan(session) {
            return Ok(());
        }
        self.plan_pending = true;
        session.request_master()
    }

    /// Administratively moves a VIP (load balancing, §3.1: "the virtual
    /// IPs can also be moved for load balancing or other reasons").
    pub fn move_vip(&mut self, session: &mut SessionNode, vip: VipId, to: NodeId) -> Result<()> {
        let batch = AssignBatch {
            assigns: vec![(vip, to)],
            pinned: true,
        };
        self.replica.submit(session, batch)
    }

    /// Feeds one session event; call with every event, in order. Hands
    /// the assignment to members that join (DESIGN.md §18.3).
    pub fn on_event(&mut self, now: Time, ev: &SessionEvent, session: &mut SessionNode) {
        self.replica.on_event(ev, session);
        // A membership change orphans VIPs, and the next kick() will
        // notice: decisions only happen under the master lock. A master
        // nobody asked for is the application's, held for its own reasons.
        if matches!(ev, SessionEvent::MasterAcquired) && self.plan_pending {
            self.plan_pending = false;
            if session.ring().leader() == Some(self.replica.me()) {
                if let Some(batch) = self.replica.table.compute_plan(session) {
                    let _ = self.replica.submit(session, batch);
                }
            }
            let _ = session.release_master(now);
        }
    }
}

impl SessionApp for VipManager {
    fn on_event(&mut self, now: Time, ev: &SessionEvent, session: &mut SessionNode) {
        VipManager::on_event(self, now, ev, session);
    }

    fn on_tick(&mut self, now: Time, session: &mut SessionNode) {
        if now >= self.next_check {
            self.next_check = now + CHECK_EVERY;
            let _ = self.kick(session);
        }
    }

    fn next_wakeup(&self) -> Option<Time> {
        Some(self.next_check)
    }
}

impl VipTable {
    fn new(me: NodeId, pool: Vec<VipId>) -> Self {
        VipTable {
            me,
            pool,
            assignment: BTreeMap::new(),
            pinned: BTreeSet::new(),
            arp: None,
            events: VecDeque::new(),
        }
    }

    fn needs_plan(&self, session: &SessionNode) -> bool {
        let orphaned = self.pool.iter().any(|vip| {
            self.assignment
                .get(vip)
                .is_none_or(|owner| !session.ring().contains(*owner))
        });
        orphaned || self.imbalanced(session)
    }

    /// §3.1: "the virtual IPs can also be moved for load balancing" —
    /// after a member (re)joins, the spread is uneven until some VIPs
    /// move to it. Imbalance = some member owns ≥2 more *unpinned* VIPs
    /// than another (operator-pinned VIPs are left where they were put).
    fn imbalanced(&self, session: &SessionNode) -> bool {
        let loads = self.member_loads(session);
        match (loads.values().min(), loads.values().max()) {
            (Some(&lo), Some(&hi)) => hi >= lo + 2,
            _ => false,
        }
    }

    /// Unpinned VIPs per member.
    fn member_loads(&self, session: &SessionNode) -> BTreeMap<NodeId, usize> {
        let mut load: BTreeMap<NodeId, usize> = session.ring().iter().map(|m| (m, 0)).collect();
        for (vip, owner) in &self.assignment {
            if self.pool.contains(vip) && !self.pinned.contains(vip) {
                if let Some(l) = load.get_mut(owner) {
                    *l += 1;
                }
            }
        }
        load
    }

    /// Leader: distribute unowned/orphaned VIPs over current members,
    /// least-loaded first (ties toward lower node id) — deterministic.
    fn compute_plan(&self, session: &SessionNode) -> Option<AssignBatch> {
        let members: Vec<NodeId> = {
            let mut m: Vec<NodeId> = session.ring().iter().collect();
            m.sort();
            m
        };
        if members.is_empty() {
            return None;
        }
        let mut load: BTreeMap<NodeId, usize> = members.iter().map(|&m| (m, 0)).collect();
        for (&vip, &owner) in &self.assignment {
            if members.contains(&owner) && self.pool.contains(&vip) && !self.pinned.contains(&vip) {
                *load.get_mut(&owner).expect("member") += 1;
            }
        }
        let mut assigns = Vec::new();
        for &vip in &self.pool {
            let ok = self
                .assignment
                .get(&vip)
                .is_some_and(|o| members.contains(o));
            if ok {
                continue;
            }
            let (&target, _) = load
                .iter()
                .min_by_key(|(id, &l)| (l, **id))
                .expect("non-empty");
            assigns.push((vip, target));
            *load.get_mut(&target).expect("member") += 1;
        }
        // Rebalance: while someone owns ≥2 more than someone else, move
        // one VIP from the most- to the least-loaded member (§3.1's load
        // balancing — e.g. after a member rejoins with zero VIPs). The
        // choice is deterministic: lowest-numbered VIP of the overloaded
        // member moves first.
        let mut effective: BTreeMap<VipId, NodeId> = self
            .assignment
            .iter()
            .filter(|(v, o)| {
                self.pool.contains(v) && members.contains(o) && !self.pinned.contains(v)
            })
            .map(|(&v, &o)| (v, o))
            .collect();
        for &(v, o) in &assigns {
            effective.insert(v, o);
        }
        loop {
            let (&lo_id, &lo) = load
                .iter()
                .min_by_key(|(id, &l)| (l, **id))
                .expect("non-empty");
            let (&hi_id, &hi) = load
                .iter()
                .max_by_key(|(id, &l)| (l, u32::MAX - id.raw()))
                .expect("non-empty");
            if hi < lo + 2 {
                break;
            }
            let victim = effective
                .iter()
                .find(|(_, &o)| o == hi_id)
                .map(|(&v, _)| v)
                .expect("overloaded member owns a vip");
            assigns.push((victim, lo_id));
            effective.insert(victim, lo_id);
            *load.get_mut(&hi_id).expect("member") -= 1;
            *load.get_mut(&lo_id).expect("member") += 1;
        }
        if assigns.is_empty() {
            None
        } else {
            Some(AssignBatch {
                assigns,
                pinned: false,
            })
        }
    }

    /// `node` answers for `vip` from now on; false if the VIP is not in
    /// the pool.
    fn assign(&mut self, vip: VipId, node: NodeId) -> bool {
        if !self.pool.contains(&vip) {
            return false;
        }
        let old = self.assignment.insert(vip, node);
        if node == self.me && old != Some(self.me) {
            self.events.push_back(VipEvent::Acquired(vip));
            if let Some(arp) = &self.arp {
                arp.announce(vip, self.me);
            }
            self.events.push_back(VipEvent::GratuitousArp {
                vip,
                owner: self.me,
            });
        } else if old == Some(self.me) && node != self.me {
            self.events.push_back(VipEvent::Lost(vip));
        }
        true
    }
}

impl Table for VipTable {
    type Op = AssignBatch;
    /// The assignment, and the VIPs an operator pinned.
    type Image = (Vec<(VipId, NodeId)>, Vec<VipId>);
    const MAGIC: &'static [u8; 4] = MAGIC;

    fn apply(&mut self, batch: &AssignBatch) {
        for &(vip, node) in &batch.assigns {
            if !self.assign(vip, node) {
                continue;
            }
            if batch.pinned {
                self.pinned.insert(vip);
            } else {
                // An automatic plan touching a vip releases its pin.
                self.pinned.remove(&vip);
            }
        }
    }

    fn image(&self) -> Self::Image {
        let owners = self.assignment.iter().map(|(&vip, &node)| (vip, node));
        (owners.collect(), self.pinned.iter().copied().collect())
    }

    fn install(&mut self, (owners, pinned): Self::Image) {
        for (vip, node) in owners {
            self.assign(vip, node);
        }
        let known = pinned.into_iter().filter(|vip| self.pool.contains(vip));
        self.pinned = known.collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raincore_session::Frame;

    #[test]
    fn batch_payload_round_trip() {
        let b = AssignBatch {
            assigns: vec![(VipId(1), NodeId(2)), (VipId(3), NodeId(0))],
            pinned: true,
        };
        let decoded = |payload: &[u8]| match Frame::<VipTable>::from_payload(payload)? {
            Frame::Op(batch) => Some(batch),
            Frame::Transfer { .. } => None,
        };
        let payload = Frame::<VipTable>::Op(b.clone()).to_payload();
        assert_eq!(decoded(&payload), Some(b));
        assert_eq!(decoded(b"RCLKxxxx"), None);
        assert_eq!(decoded(b""), None);
    }

    #[test]
    fn apply_emits_acquire_lose_and_arp() {
        let mut m = VipManager::new(NodeId(1), vec![VipId(0), VipId(1)]);
        m.replica.table.apply(&AssignBatch {
            assigns: vec![(VipId(0), NodeId(1))],
            pinned: false,
        });
        assert_eq!(m.poll_event(), Some(VipEvent::Acquired(VipId(0))));
        assert_eq!(
            m.poll_event(),
            Some(VipEvent::GratuitousArp {
                vip: VipId(0),
                owner: NodeId(1)
            })
        );
        m.replica.table.apply(&AssignBatch {
            assigns: vec![(VipId(0), NodeId(2))],
            pinned: false,
        });
        assert_eq!(m.poll_event(), Some(VipEvent::Lost(VipId(0))));
        assert_eq!(m.owner_of(VipId(0)), Some(NodeId(2)));
        assert!(m.my_vips().is_empty());
    }

    #[test]
    fn unknown_vips_ignored() {
        let mut m = VipManager::new(NodeId(1), vec![VipId(0)]);
        m.replica.table.apply(&AssignBatch {
            assigns: vec![(VipId(9), NodeId(1))],
            pinned: false,
        });
        assert_eq!(m.owner_of(VipId(9)), None);
        assert!(m.poll_event().is_none());
    }

    #[test]
    fn subnet_arp_resolves_latest_announcement() {
        let arp = SubnetArp::shared();
        assert!(arp.is_empty());
        arp.announce(VipId(1), NodeId(0));
        arp.announce(VipId(1), NodeId(2));
        assert_eq!(arp.resolve(VipId(1)), Some(NodeId(2)));
        assert_eq!(arp.resolve(VipId(9)), None);
        assert_eq!(arp.len(), 1);
    }
}

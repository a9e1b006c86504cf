//! Reusable invariant auditors.
//!
//! An auditor is fed an [`AuditView`] after every simulation quantum (via
//! [`Cluster::run_until_with`]) or after every explored action (via the
//! model checker in [`crate::explore`]) and accumulates violations of one
//! of the paper's invariants, so tests assert whole-run properties instead
//! of sampling end states:
//!
//! * [`TokenAuditor`] — §2.2/§2.5: "there exists no more than one TOKEN
//!   in the system at any one time" — per group, at most one member is
//!   EATING at every observable instant.
//! * [`OrderAuditor`] — §2.6 agreed ordering: at every instant, any two
//!   members' delivery sequences are prefix-compatible (same order, same
//!   content; they may only differ in progress).
//! * [`NineElevenAuditor`] — §2.3: the 911 vote elects a *unique* winner
//!   per recovery, and a caller holding a stale token copy never wins
//!   while a member with a newer copy is still part of the regenerated
//!   membership (stale-copy denial).
//! * [`MembershipAuditor`] — token membership is monotonic with respect
//!   to observed failures: once a dead node has been purged from every
//!   live member's view it must not reappear in any view until it is
//!   actually restarted.
//!
//! The safety auditors above flag states that must *never* occur. The
//! chaos harness ([`crate::chaos`]) additionally needs *liveness* oracles
//! — properties of the form "after the disturbance stops, the protocol
//! recovers within a bound". Those are tick-driven (they take a `quiet`
//! flag computed by the engine from its fault bookkeeping) rather than
//! quantum-driven:
//!
//! * [`TokenLivenessOracle`] — §2.3: after token loss the 911 protocol
//!   regenerates it; every group must show token progress (an EATING
//!   member, an advancing copy sequence, or a regeneration) within a
//!   bounded number of quiet ticks.
//! * [`ConvergenceOracle`] — §2.4/§2.5: once every believed link block is
//!   healed and faults stop, membership must converge to agreement on the
//!   live member set within a bounded number of quiet ticks.
//! * [`GroupIdOracle`] — §2.4: when a merged cluster has converged, the
//!   surviving group id equals the lowest member id (vacuous while that
//!   lowest node has ever crashed, since a restart mints a new group id).
//!
//! [`Cluster::run_until_with`]: crate::Cluster::run_until_with

use raincore_types::{GroupId, NodeId, OriginSeq, Ring, Time};
use std::collections::{BTreeMap, BTreeSet};

/// One delivery as the auditors see it: `(origin, seq, payload length)`.
pub type Delivered = (NodeId, OriginSeq, Option<usize>);

/// Read-only view of a running cluster that the auditors understand.
///
/// Implemented by the wall-clock-free discrete-event
/// [`Cluster`](crate::Cluster) harness,
/// by the model checker's [`ModelWorld`](crate::explore::ModelWorld) and
/// by [`StatusView`], so the same invariant code runs over sampled
/// simulation runs, exhaustively explored schedules and real processes.
/// Every accessor lends: the model checker observes after every explored
/// action, and per-observe copies of the member list, the rings and the
/// delivery logs were the largest avoidable slice of its per-state
/// allocation budget.
pub trait AuditView {
    /// Current virtual time.
    fn now(&self) -> Time;
    /// Ids of all session members (alive or not), ascending.
    fn member_ids(&self) -> &[NodeId];
    /// True if the member is alive and not shut down.
    fn is_live(&self, id: NodeId) -> bool;
    /// True if the member currently holds the token (EATING).
    fn is_eating(&self, id: NodeId) -> bool;
    /// The member's current group id, if it runs a session.
    fn group_of(&self, id: NodeId) -> Option<GroupId>;
    /// The member's current membership view, if it runs a session.
    fn ring_of(&self, id: NodeId) -> Option<&Ring>;
    /// Sequence number of the member's last received token copy.
    fn last_copy_seq(&self, id: NodeId) -> u64;
    /// Number of 911 token regenerations this member has won.
    fn regenerations(&self, id: NodeId) -> u64;
    /// The member's multicast deliveries from the `from`-th on, in
    /// delivery order: whose message, which, and — where the harness
    /// records it — how many payload bytes were handed up (`None` leaves
    /// the entry out of completeness auditing). Resuming at `from` costs
    /// nothing: an auditor that keeps a cursor pays for new entries only.
    fn delivery_log(&self, id: NodeId, from: usize) -> impl Iterator<Item = Delivered> + '_;

    /// The payload length every member must observe for a submitted
    /// multicast id, when the harness recorded the submission. `None`
    /// means the id's expected size is unknown and the delivery goes
    /// unchecked.
    fn expected_payload_len(&self, _origin: NodeId, _seq: OriginSeq) -> Option<usize> {
        None
    }

    /// Ids of members that are alive and not shut down.
    fn live_member_ids(&self) -> Vec<NodeId> {
        self.member_ids()
            .iter()
            .copied()
            .filter(|&id| self.is_live(id))
            .collect()
    }

    /// Invariant check: within each group, at most one member is EATING.
    /// Returns the violating group if any.
    fn eating_violation_group(&self) -> Option<GroupId> {
        let mut count: BTreeMap<GroupId, u32> = BTreeMap::new();
        for id in self.live_member_ids() {
            if !self.is_eating(id) {
                continue;
            }
            let Some(g) = self.group_of(id) else { continue };
            let c = count.entry(g).or_default();
            *c += 1;
            if *c > 1 {
                return Some(g);
            }
        }
        None
    }

    /// True when every live member agrees on one group whose membership
    /// is exactly the live set — the paper's Quiescent-Period agreement
    /// (§2.5), the convergence target of §2.4.
    fn membership_agreed(&self) -> bool {
        let live = self.live_member_ids();
        let Some(&first) = live.first() else {
            return true;
        };
        let Some(reference) = self.ring_of(first) else {
            return false;
        };
        if reference.len() != live.len() {
            return false;
        }
        let group = self.group_of(first);
        live.iter().all(|&id| {
            reference.contains(id)
                && self.group_of(id) == group
                && self.ring_of(id).is_some_and(|r| r.same_members(reference))
        })
    }
}

/// Externally observed status of one node, assembled from telemetry
/// rather than in-process access — the building block that lets the
/// auditors run over a cluster of real OS processes.
///
/// The real-socket conformance harness (`raincore-procher`) parses each
/// child's JSON obs export into one of these; `copy_seq`, `regenerations`
/// and the ring come from the exported status gauges and counters, and
/// `deliveries` from the child's delivery log.
#[derive(Debug, Clone, Default)]
pub struct NodeStatus {
    /// True if the process is running and its export is current.
    pub live: bool,
    /// True if the node reported itself EATING in its latest export.
    pub eating: bool,
    /// The node's group id, when it reported one.
    pub group: Option<GroupId>,
    /// The node's membership view, when it reported one.
    pub ring: Option<Ring>,
    /// Sequence number of the last received token copy.
    pub copy_seq: u64,
    /// Number of 911 regenerations won (this incarnation).
    pub regenerations: u64,
    /// Delivery log in delivery order.
    pub deliveries: Vec<(NodeId, OriginSeq)>,
}

/// An [`AuditView`] over plain data: a point-in-time map of node
/// statuses gathered out-of-process. The same auditors and liveness
/// oracles that gate the simulator accept this view unchanged.
#[derive(Debug, Clone, Default)]
pub struct StatusView {
    /// Observation time (the harness's own clock).
    pub now: Time,
    /// The keys of `nodes`, kept beside it so the view can lend them.
    ids: Vec<NodeId>,
    nodes: BTreeMap<NodeId, NodeStatus>,
}

impl StatusView {
    /// Creates an empty view at `now`.
    pub fn new(now: Time) -> Self {
        StatusView {
            now,
            ..StatusView::default()
        }
    }

    /// Inserts (or replaces) one node's status.
    pub fn insert(&mut self, id: NodeId, status: NodeStatus) {
        if self.nodes.insert(id, status).is_none() {
            self.ids.insert(self.ids.partition_point(|&x| x < id), id);
        }
    }

    /// Per-node statuses, keyed by node id.
    pub fn nodes(&self) -> &BTreeMap<NodeId, NodeStatus> {
        &self.nodes
    }

    /// Takes the per-node statuses out of the view.
    pub fn into_nodes(self) -> BTreeMap<NodeId, NodeStatus> {
        self.nodes
    }
}

impl AuditView for StatusView {
    fn now(&self) -> Time {
        self.now
    }

    fn member_ids(&self) -> &[NodeId] {
        &self.ids
    }

    fn is_live(&self, id: NodeId) -> bool {
        self.nodes.get(&id).is_some_and(|n| n.live)
    }

    fn is_eating(&self, id: NodeId) -> bool {
        self.nodes.get(&id).is_some_and(|n| n.eating)
    }

    fn group_of(&self, id: NodeId) -> Option<GroupId> {
        self.nodes.get(&id).and_then(|n| n.group)
    }

    fn ring_of(&self, id: NodeId) -> Option<&Ring> {
        self.nodes.get(&id).and_then(|n| n.ring.as_ref())
    }

    fn last_copy_seq(&self, id: NodeId) -> u64 {
        self.nodes.get(&id).map_or(0, |n| n.copy_seq)
    }

    fn regenerations(&self, id: NodeId) -> u64 {
        self.nodes.get(&id).map_or(0, |n| n.regenerations)
    }

    fn delivery_log(&self, id: NodeId, from: usize) -> impl Iterator<Item = Delivered> + '_ {
        let log = self.nodes.get(&id).and_then(|n| n.deliveries.get(from..));
        let log = log.unwrap_or_default();
        log.iter().map(|&(origin, seq)| (origin, seq, None))
    }
}

/// Whole-run check of token uniqueness per group.
#[derive(Debug, Default)]
pub struct TokenAuditor {
    /// `(time, group)` of every observed violation.
    pub violations: Vec<(Time, GroupId)>,
    /// Number of observations taken.
    pub observations: u64,
    /// Max simultaneous EATING members seen anywhere (diagnostics).
    pub max_eating: usize,
}

impl TokenAuditor {
    /// Creates an auditor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observes the view (call after every quantum / explored action).
    pub fn observe(&mut self, v: &impl AuditView) {
        self.observations += 1;
        let eating = v
            .member_ids()
            .iter()
            .filter(|&&id| v.is_live(id) && v.is_eating(id))
            .count();
        self.max_eating = self.max_eating.max(eating);
        // Only run the (allocating) per-group count when a violation is
        // even possible; the common zero/one-eater observation stays
        // allocation-free.
        if eating > 1 {
            if let Some(g) = v.eating_violation_group() {
                self.violations.push((v.now(), g));
            }
        }
    }

    /// True if no violation was ever observed.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// The first violation, rendered for a dump header.
    pub fn verdict(&self) -> Option<String> {
        let (t, g) = self.violations.first()?;
        Some(format!("token uniqueness violated in group {g} at {t}"))
    }
}

/// Whole-run check of delivery-order agreement.
#[derive(Debug, Default)]
pub struct OrderAuditor {
    /// `(time, node a, node b)` of every observed divergence.
    pub violations: Vec<(Time, NodeId, NodeId)>,
    /// Number of observations taken.
    pub observations: u64,
}

impl OrderAuditor {
    /// Creates an auditor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observes the view (call after every quantum / explored action).
    pub fn observe(&mut self, v: &impl AuditView) {
        self.observations += 1;
        let members = v.member_ids();
        for (i, &a) in members.iter().enumerate() {
            for &b in &members[i + 1..] {
                let mut both = v.delivery_log(a, 0).zip(v.delivery_log(b, 0));
                if both.any(|(x, y)| (x.0, x.1) != (y.0, y.1)) {
                    self.violations.push((v.now(), a, b));
                }
            }
        }
    }

    /// True if no divergence was ever observed.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// The first violation, rendered for a dump header.
    pub fn verdict(&self) -> Option<String> {
        let (t, a, b) = self.violations.first()?;
        Some(format!(
            "delivery order diverged between {a} and {b} at {t}"
        ))
    }
}

/// Whole-run check of delivery *completeness* under out-of-band
/// dissemination (DESIGN.md §13): no node may deliver a multicast id
/// whose payload it lacks. The token's manifest orders ids while the
/// payloads travel separately, so the dangerous failure mode is a node
/// handing the application an ordered-but-empty (or truncated) message —
/// this auditor compares every delivery's payload length against the
/// length recorded at submission.
///
/// Views that do not record payload lengths ([`AuditView::delivery_log`]
/// yielding `None`) or submission sizes are audited vacuously.
#[derive(Debug, Default)]
pub struct CompletenessAuditor {
    /// `(time, deliverer, origin, seq)` of every incomplete delivery.
    pub violations: Vec<(Time, NodeId, NodeId, OriginSeq)>,
    /// Number of observations taken.
    pub observations: u64,
    /// Deliveries actually checked against an expected length.
    pub checked: u64,
    /// Per-node index of the first unexamined delivery-log entry; a
    /// delivery's payload never changes after the fact, so each entry is
    /// judged exactly once across repeated observations.
    cursors: BTreeMap<NodeId, usize>,
}

impl CompletenessAuditor {
    /// Creates an auditor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observes the view (call after every quantum / explored action).
    pub fn observe(&mut self, v: &impl AuditView) {
        self.observations += 1;
        for &id in v.member_ids() {
            let cursor = self.cursors.entry(id).or_insert(0);
            for (origin, seq, got) in v.delivery_log(id, *cursor) {
                *cursor += 1;
                let (Some(got), Some(want)) = (got, v.expected_payload_len(origin, seq)) else {
                    continue;
                };
                self.checked += 1;
                if got != want {
                    self.violations.push((v.now(), id, origin, seq));
                }
            }
        }
    }

    /// True if every checked delivery carried its full payload.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// The first violation, rendered for a dump header.
    pub fn verdict(&self) -> Option<String> {
        let (t, id, origin, seq) = self.violations.first()?;
        Some(format!(
            "delivery completeness violated at {t}: {id} delivered {origin}#{} without its payload",
            seq.0
        ))
    }
}

#[derive(Debug, Clone)]
struct NodeSnap {
    live: bool,
    regens: u64,
    copy_seq: u64,
    group: Option<GroupId>,
}

/// Whole-run check of the 911 protocol (§2.3): every recovery elects a
/// unique winner, and the winner held the newest surviving token copy
/// among the members it regenerated with (stale-copy denial).
#[derive(Debug, Default)]
pub struct NineElevenAuditor {
    /// `(time, winner, reason)` of every observed violation.
    pub violations: Vec<(Time, NodeId, String)>,
    /// Number of observations taken.
    pub observations: u64,
    /// Total regenerations observed (diagnostics).
    pub regenerations_seen: u64,
    prev: BTreeMap<NodeId, NodeSnap>,
}

impl NineElevenAuditor {
    /// Creates an auditor.
    pub fn new() -> Self {
        Self::default()
    }

    fn snapshot(v: &impl AuditView) -> BTreeMap<NodeId, NodeSnap> {
        v.member_ids()
            .iter()
            .map(|&id| {
                (
                    id,
                    NodeSnap {
                        live: v.is_live(id),
                        regens: v.regenerations(id),
                        copy_seq: v.last_copy_seq(id),
                        group: v.group_of(id),
                    },
                )
            })
            .collect()
    }

    /// Re-snapshots the view without auditing, discarding deltas that
    /// accumulated while observation was suspended. The chaos engine
    /// suspends 911 auditing inside link-fault windows — regenerations
    /// on the two sides of a partition are concurrent but *not* "the
    /// same instant", and folding a skipped window into one delta would
    /// misreport them as a double win.
    pub fn rebaseline(&mut self, v: &impl AuditView) {
        self.prev = Self::snapshot(v);
    }

    /// Observes the view (call after every quantum / explored action).
    pub fn observe(&mut self, v: &impl AuditView) {
        self.observations += 1;
        let snap: BTreeMap<NodeId, NodeSnap> = Self::snapshot(v);
        // Winners since the last observation. A node restart zeroes the
        // metric snapshot, so compare only non-decreasing counters.
        let winners: Vec<NodeId> = v
            .member_ids()
            .iter()
            .copied()
            .filter(|id| {
                let now_r = snap[id].regens;
                let before = self.prev.get(id).map_or(now_r, |s| s.regens);
                now_r > before
            })
            .collect();
        self.regenerations_seen += winners.len() as u64;
        // (a) Unique winner: two members of one group must never both win
        // a recovery in the same instant — the grant rule's tie-break
        // (newer copy, then lower id) makes mutual grants impossible.
        for (i, &w1) in winners.iter().enumerate() {
            for &w2 in winners.iter().skip(i + 1) {
                if v.group_of(w1) == v.group_of(w2) {
                    self.violations.push((
                        v.now(),
                        w1,
                        format!("nodes {w1} and {w2} both regenerated the token"),
                    ));
                }
            }
        }
        // (b) Stale-copy denial: at the moment of regeneration, no member
        // that is live and still part of the winner's regenerated
        // membership may have held a strictly newer token copy (its Deny
        // vote would have stopped the call). Copy sequences are only
        // comparable within one token lineage, so the check is scoped to
        // members that sat in the winner's *previous* group — after a
        // merge, absorbed members carry seqs from their old token.
        for &w in &winners {
            let Some(ring) = v.ring_of(w) else { continue };
            let Some(prev_w) = self.prev.get(&w) else {
                continue;
            };
            let w_copy = prev_w.copy_seq;
            let w_group = prev_w.group;
            for m in ring.iter().filter(|&m| m != w) {
                let Some(p) = self.prev.get(&m) else { continue };
                if p.live && p.group == w_group && p.copy_seq > w_copy {
                    self.violations.push((
                        v.now(),
                        w,
                        format!(
                            "node {w} regenerated from copy seq {w_copy} while live \
                             member {m} held newer copy seq {}",
                            p.copy_seq
                        ),
                    ));
                }
            }
        }
        self.prev = snap;
    }

    /// True if no violation was ever observed.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// The first violation, rendered for a dump header.
    pub fn verdict(&self) -> Option<String> {
        let (t, w, reason) = self.violations.first()?;
        Some(format!("911 violation at {t} (winner {w}): {reason}"))
    }
}

/// Whole-run check that token membership shrinks monotonically under
/// failures: once a dead node has disappeared from *every* live member's
/// view, it must not re-enter any view until it is restarted.
#[derive(Debug, Default)]
pub struct MembershipAuditor {
    /// `(time, viewer, resurrected)` of every observed violation.
    pub violations: Vec<(Time, NodeId, NodeId)>,
    /// Number of observations taken.
    pub observations: u64,
    /// Dead nodes currently purged from every live view.
    purged: BTreeSet<NodeId>,
    /// Consecutive dead-and-absent observations per node (dwell gate).
    streak: BTreeMap<NodeId, u32>,
    /// Consecutive dead-and-absent observations required before a node
    /// counts as purged. Zero behaves like one (purged on first sight).
    dwell: u32,
}

impl MembershipAuditor {
    /// Creates an auditor that treats a node as purged the first time it
    /// is seen dead and absent from every live view — right for the
    /// model checker's step-by-step exploration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an auditor that only treats a node as purged after
    /// `dwell` consecutive dead-and-absent observations. Wall-clock
    /// style harnesses need this slack: a node that restarts, sends a
    /// join probe (§2.3) and dies again leaves the probe in flight, and
    /// its later admission — followed by the usual failure-on-delivery
    /// purge — is delayed join processing, not a resurrection.
    pub fn with_dwell(dwell: u32) -> Self {
        MembershipAuditor {
            dwell,
            ..Self::default()
        }
    }

    /// The membership view of every live member that has one.
    fn live_rings<V: AuditView>(v: &V) -> Vec<(NodeId, &Ring)> {
        let live = v.member_ids().iter().filter(|&&m| v.is_live(m));
        live.filter_map(|&m| v.ring_of(m).map(|r| (m, r))).collect()
    }

    /// Observes the view (call after every quantum / explored action).
    pub fn observe(&mut self, v: &impl AuditView) {
        self.observations += 1;
        let rings = Self::live_rings(v);
        // A restarted node is no longer purged.
        self.purged.retain(|&x| !v.is_live(x));
        self.streak.retain(|&x, _| !v.is_live(x));
        // Resurrection check against the standing purged set.
        for &(viewer, ring) in &rings {
            for &x in &self.purged {
                if ring.contains(x) {
                    self.violations.push((v.now(), viewer, x));
                }
            }
        }
        // Refresh the purged set: dead nodes absent from every live view
        // for `dwell` consecutive observations.
        for &x in v.member_ids() {
            if v.is_live(x) {
                continue;
            }
            if rings.iter().all(|(_, r)| !r.contains(x)) {
                let s = self.streak.entry(x).or_insert(0);
                *s = s.saturating_add(1);
                if *s >= self.dwell.max(1) {
                    self.purged.insert(x);
                }
            } else if !self.purged.contains(&x) {
                self.streak.remove(&x);
            }
        }
    }

    /// Feeds the auditor's continuity state into a model-checker state
    /// digest. The purged set and dwell streaks are *path-dependent*:
    /// two identical worlds reached along different schedules can carry
    /// different purged sets, and a future resurrection only flags on
    /// the path where the node was purged — so a state cache that
    /// ignored this state could unsoundly merge them.
    pub fn digest_into(&self, d: &mut raincore_types::StateDigest) {
        let mut purged: Vec<NodeId> = self.purged.iter().copied().collect();
        purged.sort_unstable();
        d.write_len(purged.len());
        for x in purged {
            d.node(x);
        }
        let mut streaks: Vec<(NodeId, u32)> = self.streak.iter().map(|(k, v)| (*k, *v)).collect();
        streaks.sort_unstable_by_key(|(id, _)| *id);
        d.write_len(streaks.len());
        for (x, s) in streaks {
            d.node(x);
            d.write_u32(s);
        }
        d.write_u32(self.dwell);
    }

    /// Resets the purged set to the current state without checking for
    /// violations. Call when resuming after an observation gap: the
    /// no-resurrection claim is a *continuity* claim, and a node that was
    /// purged, restarted, rejoined and died again entirely inside the gap
    /// would otherwise survive in the stale purged set and flag its
    /// (legitimate) rejoin as a resurrection.
    pub fn rebaseline(&mut self, v: &impl AuditView) {
        self.purged.clear();
        self.streak.clear();
        let rings = Self::live_rings(v);
        for &x in v.member_ids() {
            if !v.is_live(x) && rings.iter().all(|(_, r)| !r.contains(x)) {
                self.streak.insert(x, 1);
                if self.dwell <= 1 {
                    self.purged.insert(x);
                }
            }
        }
    }

    /// True if no violation was ever observed.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// The first violation, rendered for a dump header.
    pub fn verdict(&self) -> Option<String> {
        let (t, viewer, x) = self.violations.first()?;
        Some(format!(
            "membership resurrection at {t}: {viewer} saw purged node {x}"
        ))
    }
}

/// Liveness oracle for bounded token regeneration (§2.3).
///
/// Observed once per engine tick with a `quiet` flag (no believed link
/// blocks, grace period since the last fault elapsed). A group makes
/// *progress* when some live member is EATING, some copy sequence
/// advances, or a regeneration completes. If a group shows no progress
/// for more than `bound_ticks` consecutive quiet ticks, the 911 protocol
/// failed to regenerate a lost token in time.
#[derive(Debug)]
pub struct TokenLivenessOracle {
    /// Maximum consecutive quiet ticks without token progress.
    pub bound_ticks: u64,
    /// `(time, group, stalled ticks)` of every observed violation.
    pub violations: Vec<(Time, GroupId, u64)>,
    /// Number of tick observations taken.
    pub observations: u64,
    /// Per-group progress markers: (max copy seq, total regens, stalled
    /// quiet ticks).
    stalls: BTreeMap<GroupId, (u64, u64, u64)>,
}

impl TokenLivenessOracle {
    /// Creates the oracle with the given stall bound in ticks.
    pub fn new(bound_ticks: u64) -> Self {
        TokenLivenessOracle {
            bound_ticks,
            violations: Vec::new(),
            observations: 0,
            stalls: BTreeMap::new(),
        }
    }

    /// Observes the view once per engine tick.
    pub fn observe_tick(&mut self, v: &impl AuditView, quiet: bool) {
        self.observations += 1;
        let mut groups: BTreeMap<GroupId, (u64, u64, bool)> = BTreeMap::new();
        for id in v.live_member_ids() {
            let Some(g) = v.group_of(id) else { continue };
            let e = groups.entry(g).or_insert((0, 0, false));
            e.0 = e.0.max(v.last_copy_seq(id));
            e.1 += v.regenerations(id);
            e.2 |= v.is_eating(id);
        }
        // Groups that vanished (merged away) carry no obligation.
        self.stalls.retain(|g, _| groups.contains_key(g));
        for (g, (copy, regens, eating)) in groups {
            let entry = self.stalls.entry(g).or_insert((copy, regens, 0));
            let progressed = eating || copy > entry.0 || regens > entry.1;
            entry.0 = entry.0.max(copy);
            entry.1 = entry.1.max(regens);
            if !quiet || progressed {
                entry.2 = 0;
                continue;
            }
            entry.2 += 1;
            if entry.2 > self.bound_ticks {
                self.violations.push((v.now(), g, entry.2));
                entry.2 = 0; // one report per stall episode
            }
        }
    }

    /// True if no violation was ever observed.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Liveness oracle for bounded post-heal membership convergence
/// (§2.4/§2.5): once the network is quiet, every live member must agree
/// on one group containing exactly the live set within `bound_ticks`.
#[derive(Debug)]
pub struct ConvergenceOracle {
    /// Maximum consecutive quiet ticks allowed before convergence.
    pub bound_ticks: u64,
    /// `(time, reason)` of every observed violation.
    pub violations: Vec<(Time, String)>,
    /// Number of tick observations taken.
    pub observations: u64,
    /// Ticks observed in the converged state (diagnostics).
    pub converged_ticks: u64,
    quiet_ticks: u64,
    reported: bool,
}

impl ConvergenceOracle {
    /// Creates the oracle with the given convergence bound in ticks.
    pub fn new(bound_ticks: u64) -> Self {
        ConvergenceOracle {
            bound_ticks,
            violations: Vec::new(),
            observations: 0,
            converged_ticks: 0,
            quiet_ticks: 0,
            reported: false,
        }
    }

    /// Observes the view once per engine tick.
    pub fn observe_tick(&mut self, v: &impl AuditView, quiet: bool) {
        self.observations += 1;
        if !quiet {
            self.quiet_ticks = 0;
            self.reported = false;
            return;
        }
        if v.membership_agreed() {
            self.converged_ticks += 1;
            self.quiet_ticks = 0;
            return;
        }
        self.quiet_ticks += 1;
        if self.quiet_ticks > self.bound_ticks && !self.reported {
            self.violations.push((
                v.now(),
                format!(
                    "membership did not converge to the live member set within \
                     {} quiet ticks",
                    self.bound_ticks
                ),
            ));
            self.reported = true;
        }
    }

    /// True if no violation was ever observed.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Liveness/identity oracle for merge results (§2.4): whenever the
/// cluster is quiet and converged, the agreed group id must equal the
/// lowest member id — vacuous when that lowest node has ever crashed
/// (its restart mints a fresh group identity) or is currently dead.
#[derive(Debug, Default)]
pub struct GroupIdOracle {
    /// `(time, observed group, expected lowest member)` violations.
    pub violations: Vec<(Time, GroupId, NodeId)>,
    /// Number of non-vacuous checks performed.
    pub checks: u64,
    crashed_ever: BTreeSet<NodeId>,
}

impl GroupIdOracle {
    /// Creates the oracle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `id` crashed at some point (engine bookkeeping).
    pub fn note_crash(&mut self, id: NodeId) {
        self.crashed_ever.insert(id);
    }

    /// Observes the view once per engine tick.
    pub fn observe_tick(&mut self, v: &impl AuditView, quiet: bool) {
        if !quiet || !v.membership_agreed() {
            return;
        }
        let live = v.live_member_ids();
        let Some(&min_live) = live.iter().min() else {
            return;
        };
        let min_all = v.member_ids().iter().copied().min();
        if min_all != Some(min_live) || self.crashed_ever.contains(&min_live) {
            return; // lowest id is dead or has a restarted identity
        }
        self.checks += 1;
        let expected = GroupId(min_live);
        if let Some(g) = v.group_of(min_live) {
            if g != expected {
                self.violations.push((v.now(), g, min_live));
            }
        }
    }

    /// True if no violation was ever observed.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The three liveness oracles bundled for the schedule engine
/// ([`crate::engine`]): one `observe_tick` fans out to all of them and
/// `verdict` gives a human-readable summary of the earliest failure.
#[derive(Debug)]
pub struct LivenessOracles {
    /// Bounded token regeneration.
    pub token: TokenLivenessOracle,
    /// Bounded post-heal membership convergence.
    pub convergence: ConvergenceOracle,
    /// Merged group id equals lowest member id.
    pub group_id: GroupIdOracle,
}

impl LivenessOracles {
    /// Creates the bundle with the given bounds (in engine ticks).
    pub fn new(token_bound_ticks: u64, convergence_bound_ticks: u64) -> Self {
        LivenessOracles {
            token: TokenLivenessOracle::new(token_bound_ticks),
            convergence: ConvergenceOracle::new(convergence_bound_ticks),
            group_id: GroupIdOracle::new(),
        }
    }

    /// Records a crash for the group-id oracle's vacuity rule.
    pub fn note_crash(&mut self, id: NodeId) {
        self.group_id.note_crash(id);
    }

    /// Observes the view once per engine tick.
    pub fn observe_tick(&mut self, v: &impl AuditView, quiet: bool) {
        self.token.observe_tick(v, quiet);
        self.convergence.observe_tick(v, quiet);
        self.group_id.observe_tick(v, quiet);
    }

    /// True if no oracle recorded a violation.
    pub fn ok(&self) -> bool {
        self.token.ok() && self.convergence.ok() && self.group_id.ok()
    }

    /// The earliest recorded violation, rendered for a dump header.
    pub fn verdict(&self) -> Option<String> {
        let mut best: Option<(Time, String)> = None;
        let mut consider = |t: Time, reason: String| {
            if best.as_ref().is_none_or(|(bt, _)| t < *bt) {
                best = Some((t, reason));
            }
        };
        if let Some((t, g, ticks)) = self.token.violations.first() {
            consider(
                *t,
                format!("token liveness: group {g} made no token progress for {ticks} quiet ticks"),
            );
        }
        if let Some((t, reason)) = self.convergence.violations.first() {
            consider(*t, format!("membership liveness: {reason}"));
        }
        if let Some((t, g, low)) = self.group_id.violations.first() {
            consider(
                *t,
                format!("group identity: converged group id {g} != lowest member id {low}"),
            );
        }
        best.map(|(_, reason)| reason)
    }
}

/// The five safety auditors as one bundle, and the one table of their
/// verdicts. The model checker feeds all five every explored state
/// ([`Auditors::observe`]); a tick-driven world feeds the ones whose
/// claims are sound there (DESIGN.md §10.3) and leaves the rest silent.
#[derive(Debug, Default)]
pub struct Auditors {
    /// §2.2/§2.5 token uniqueness.
    pub token: TokenAuditor,
    /// §2.6 agreed delivery order.
    pub order: OrderAuditor,
    /// §2.3 unique 911 winner + stale-copy denial.
    pub nine_eleven: NineElevenAuditor,
    /// Membership monotonic w.r.t. observed failures.
    pub membership: MembershipAuditor,
    /// DESIGN.md §13: no delivery of an id without its payload.
    pub completeness: CompletenessAuditor,
}

impl Auditors {
    /// Creates the bundle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observes a state with all five auditors.
    pub fn observe(&mut self, v: &impl AuditView) {
        self.token.observe(v);
        self.order.observe(v);
        self.nine_eleven.observe(v);
        self.membership.observe(v);
        self.completeness.observe(v);
    }

    /// First violation any auditor has recorded, rendered for humans.
    pub fn first_violation(&self) -> Option<String> {
        self.token
            .verdict()
            .or_else(|| self.order.verdict())
            .or_else(|| self.nine_eleven.verdict())
            .or_else(|| self.membership.verdict())
            .or_else(|| self.completeness.verdict())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterConfig};
    use bytes::Bytes;
    use raincore_session::StartMode;
    use raincore_types::{DeliveryMode, Duration};

    fn fast_cfg() -> ClusterConfig {
        let mut c = ClusterConfig::default();
        c.session.token_hold = Duration::from_millis(2);
        c.session.hungry_timeout = Duration::from_millis(100);
        c.session.starving_retry = Duration::from_millis(40);
        c.transport.retry_timeout = Duration::from_millis(10);
        c
    }

    #[test]
    fn quiet_run_passes_both_audits() {
        let mut c = Cluster::founding(4, fast_cfg()).unwrap();
        let mut tokens = TokenAuditor::new();
        let mut orders = OrderAuditor::new();
        for i in 0..8u8 {
            c.multicast(
                NodeId(u32::from(i) % 4),
                DeliveryMode::Agreed,
                Bytes::from(vec![i]),
            )
            .unwrap();
        }
        c.run_until_with(Time::ZERO + Duration::from_secs(2), |c| {
            tokens.observe(c);
            orders.observe(c);
        });
        assert!(tokens.ok(), "{:?}", tokens.violations);
        assert!(orders.ok(), "{:?}", orders.violations);
        assert!(tokens.observations > 100);
        assert_eq!(tokens.max_eating, 1);
    }

    #[test]
    fn audits_hold_through_crash_recovery_and_merge() {
        let mut c = Cluster::founding(4, fast_cfg()).unwrap();
        let mut tokens = TokenAuditor::new();
        let mut orders = OrderAuditor::new();
        let mut nines = NineElevenAuditor::new();
        let mut membership = MembershipAuditor::new();
        c.run_until_with(Time::ZERO + Duration::from_secs(1), |c| {
            tokens.observe(c);
            orders.observe(c);
            nines.observe(c);
            membership.observe(c);
        });
        // Crash the token holder (forces a 911 regeneration)…
        if let Some(h) = c.eating_nodes().pop() {
            c.crash(h);
        }
        let t = c.now();
        c.run_until_with(t + Duration::from_secs(2), |c| {
            tokens.observe(c);
            orders.observe(c);
            nines.observe(c);
            membership.observe(c);
        });
        assert_eq!(nines.regenerations_seen, 1, "exactly one 911 winner");
        // …then partition and heal (forces a merge).
        let live = c.live_members();
        let (a, b) = live.split_at(live.len() / 2);
        c.partition(&[a, b]);
        let t = c.now();
        c.run_until_with(t + Duration::from_secs(2), |c| {
            orders.observe(c);
        });
        c.heal();
        let t = c.now();
        c.run_until_with(t + Duration::from_secs(4), |c| {
            orders.observe(c);
        });
        assert!(c.membership_agreed());
        assert!(tokens.ok(), "{:?}", tokens.violations);
        assert!(orders.ok(), "{:?}", orders.violations);
        assert!(nines.ok(), "{:?}", nines.violations);
        assert!(membership.ok(), "{:?}", membership.violations);
    }

    #[test]
    fn nine_eleven_audit_clean_across_holder_crashes() {
        let mut c = Cluster::founding(5, fast_cfg()).unwrap();
        let mut nines = NineElevenAuditor::new();
        let mut membership = MembershipAuditor::new();
        c.run_until_with(Time::ZERO + Duration::from_secs(1), |c| {
            nines.observe(c);
            membership.observe(c);
        });
        for _ in 0..2 {
            if let Some(h) = c.eating_nodes().pop() {
                c.crash(h);
            }
            let t = c.now();
            c.run_until_with(t + Duration::from_secs(2), |c| {
                nines.observe(c);
                membership.observe(c);
            });
        }
        assert_eq!(nines.regenerations_seen, 2);
        assert!(nines.ok(), "{:?}", nines.violations);
        assert!(membership.ok(), "{:?}", membership.violations);
    }

    #[test]
    fn liveness_oracles_pass_on_quiet_converged_cluster() {
        let mut c = Cluster::founding(4, fast_cfg()).unwrap();
        let mut oracles = LivenessOracles::new(50, 200);
        let mut t = Time::ZERO;
        for _ in 0..100 {
            t += Duration::from_millis(10);
            c.run_until_with(t, |_| {});
            oracles.observe_tick(&c, true);
        }
        assert!(oracles.ok(), "{:?}", oracles.verdict());
        assert!(oracles.group_id.checks > 0, "group-id oracle must engage");
        assert!(oracles.convergence.converged_ticks > 0);
    }

    #[test]
    fn token_oracle_flags_stalled_group() {
        let mut c = Cluster::founding(3, fast_cfg()).unwrap();
        c.run_until_with(Time::ZERO + Duration::from_millis(500), |_| {});
        // Freeze virtual time after crashing the holder: no 911 can run,
        // so the group shows no token progress while we claim quiet.
        if let Some(h) = c.eating_nodes().pop() {
            c.crash(h);
        }
        let mut oracle = TokenLivenessOracle::new(10);
        for _ in 0..12 {
            oracle.observe_tick(&c, true);
        }
        assert!(!oracle.ok(), "stalled group must trip the oracle");
    }

    #[test]
    fn convergence_oracle_flags_unhealed_partition() {
        let mut c = Cluster::founding(4, fast_cfg()).unwrap();
        c.run_until_with(Time::ZERO + Duration::from_millis(500), |_| {});
        let live = c.live_members();
        let (a, b) = live.split_at(live.len() / 2);
        c.partition(&[a, b]);
        let mut t = c.now();
        c.run_until_with(t + Duration::from_secs(3), |_| {});
        // The engine would report quiet=false while links are blocked;
        // lying about quietness models a heal that never took effect.
        let mut oracle = ConvergenceOracle::new(20);
        for _ in 0..25 {
            t += Duration::from_millis(10);
            c.run_until_with(t, |_| {});
            oracle.observe_tick(&c, true);
        }
        assert!(!oracle.ok(), "split membership must trip the oracle");
    }

    fn status(live: bool, eating: bool, group: u32, ring: &[u32], copy_seq: u64) -> NodeStatus {
        NodeStatus {
            live,
            eating,
            group: Some(GroupId(NodeId(group))),
            ring: Some(Ring::from_iter(ring.iter().copied().map(NodeId))),
            copy_seq,
            regenerations: 0,
            deliveries: Vec::new(),
        }
    }

    #[test]
    fn status_view_drives_default_audit_methods() {
        let mut v = StatusView::new(Time::ZERO + Duration::from_secs(1));
        v.insert(NodeId(0), status(true, true, 0, &[0, 1, 2], 10));
        v.insert(NodeId(1), status(true, false, 0, &[0, 1, 2], 10));
        v.insert(NodeId(2), status(true, false, 0, &[0, 1, 2], 9));
        assert_eq!(v.live_member_ids(), vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(v.eating_violation_group(), None);
        assert!(v.membership_agreed());

        // Two eaters in one group is the §2.2 violation.
        v.insert(NodeId(1), status(true, true, 0, &[0, 1, 2], 10));
        assert_eq!(v.eating_violation_group(), Some(GroupId(NodeId(0))));

        // A dead node drops out of the live set and of agreement checks.
        v.insert(NodeId(1), status(false, false, 0, &[0, 1, 2], 10));
        assert_eq!(v.live_member_ids(), vec![NodeId(0), NodeId(2)]);
        assert!(
            !v.membership_agreed(),
            "views still list the dead node, so no agreement"
        );
        v.insert(NodeId(0), status(true, true, 0, &[0, 2], 10));
        v.insert(NodeId(2), status(true, false, 0, &[0, 2], 10));
        assert!(v.membership_agreed());
    }

    #[test]
    fn status_view_feeds_auditors_like_a_cluster() {
        // TokenAuditor over externally gathered statuses: a healthy tick,
        // then a double-EATING tick trips it.
        let mut tokens = TokenAuditor::new();
        let mut v = StatusView::new(Time::ZERO);
        v.insert(NodeId(0), status(true, true, 0, &[0, 1], 5));
        v.insert(NodeId(1), status(true, false, 0, &[0, 1], 5));
        tokens.observe(&v);
        assert!(tokens.ok());
        v.insert(NodeId(1), status(true, true, 0, &[0, 1], 5));
        tokens.observe(&v);
        assert!(!tokens.ok(), "double token must be flagged");

        // OrderAuditor: prefix-compatible logs pass, diverging logs fail.
        let mut orders = OrderAuditor::new();
        let mut v = StatusView::new(Time::ZERO);
        let mut a = status(true, false, 0, &[0, 1], 1);
        let mut b = status(true, false, 0, &[0, 1], 1);
        a.deliveries = vec![(NodeId(0), OriginSeq(1)), (NodeId(1), OriginSeq(1))];
        b.deliveries = vec![(NodeId(0), OriginSeq(1))];
        v.insert(NodeId(0), a.clone());
        v.insert(NodeId(1), b.clone());
        orders.observe(&v);
        assert!(orders.ok(), "prefix of the other log is fine");
        b.deliveries = vec![(NodeId(1), OriginSeq(1))];
        v.insert(NodeId(1), b);
        orders.observe(&v);
        assert!(!orders.ok(), "diverging order must be flagged");
    }

    #[test]
    fn status_view_drives_liveness_oracles() {
        let mut oracle = TokenLivenessOracle::new(3);
        let mut v = StatusView::new(Time::ZERO);
        v.insert(NodeId(0), status(true, false, 0, &[0, 1], 5));
        v.insert(NodeId(1), status(true, false, 0, &[0, 1], 5));
        // No eater and no copy-seq progress: stalls, trips after bound.
        for _ in 0..5 {
            oracle.observe_tick(&v, true);
        }
        assert!(!oracle.ok(), "stalled real-socket group must trip");

        let mut oracle = TokenLivenessOracle::new(3);
        for i in 0..5u64 {
            // Advancing copy seq is progress even when the sampled
            // instant never catches a node EATING.
            v.insert(NodeId(0), status(true, false, 0, &[0, 1], 5 + i));
            oracle.observe_tick(&v, true);
        }
        assert!(oracle.ok(), "{:?}", oracle.violations);
    }

    // The verdict table: tests, fixtures and CI greps match on these
    // prefixes, so each auditor's rendering is pinned where it is written.

    /// Two live members of group 0 over ring {0, 1}.
    fn pair_view(eating: [bool; 2], regens: [u64; 2]) -> StatusView {
        let mut v = StatusView::new(Time::ZERO);
        for i in 0..2 {
            let mut st = status(true, eating[i], 0, &[0, 1], 5);
            st.regenerations = regens[i];
            v.insert(NodeId(i as u32), st);
        }
        v
    }

    #[test]
    fn token_verdict_prefix() {
        let mut a = Auditors::new();
        assert_eq!(a.first_violation(), None);
        a.token.observe(&pair_view([true, true], [0, 0]));
        let verdict = a.first_violation().expect("two eaters");
        assert!(
            verdict.starts_with("token uniqueness violated in group g0 at "),
            "{verdict}"
        );
    }

    #[test]
    fn order_verdict_prefix() {
        let mut v = StatusView::new(Time::ZERO);
        let mut st = status(true, false, 0, &[0, 1], 5);
        st.deliveries = vec![(NodeId(0), OriginSeq(1))];
        v.insert(NodeId(0), st.clone());
        st.deliveries = vec![(NodeId(1), OriginSeq(1)), (NodeId(0), OriginSeq(1))];
        v.insert(NodeId(1), st);
        let mut a = OrderAuditor::new();
        a.observe(&v);
        let verdict = a.verdict().expect("diverging logs");
        assert!(
            verdict.starts_with("delivery order diverged between n0 and n1 at "),
            "{verdict}"
        );
    }

    #[test]
    fn nine_eleven_verdict_prefix() {
        let mut a = NineElevenAuditor::new();
        a.observe(&pair_view([false, false], [0, 0]));
        a.observe(&pair_view([false, false], [1, 1]));
        let verdict = a.verdict().expect("two winners in one group");
        assert!(verdict.starts_with("911 violation at "), "{verdict}");
        assert!(
            verdict.contains("(winner n0): nodes n0 and n1 both regenerated"),
            "{verdict}"
        );
    }

    #[test]
    fn membership_verdict_prefix() {
        let mut a = MembershipAuditor::new();
        let mut v = StatusView::new(Time::ZERO);
        v.insert(NodeId(0), status(true, true, 0, &[0], 5));
        v.insert(NodeId(1), status(false, false, 0, &[0, 1], 5));
        a.observe(&v); // n1 is dead and in no live view: purged
        v.insert(NodeId(0), status(true, true, 0, &[0, 1], 6));
        a.observe(&v);
        let verdict = a.verdict().expect("a purged node is back in a view");
        assert!(
            verdict.starts_with("membership resurrection at "),
            "{verdict}"
        );
        assert!(verdict.ends_with(": n0 saw purged node n1"), "{verdict}");
    }

    #[test]
    fn completeness_verdict_prefix() {
        let mut a = Auditors::new();
        let at = Time::ZERO + Duration::from_millis(5);
        a.completeness
            .violations
            .push((at, NodeId(2), NodeId(1), OriginSeq(0)));
        let verdict = a.first_violation().expect("recorded");
        assert!(
            verdict.starts_with("delivery completeness violated at "),
            "{verdict}"
        );
        assert!(
            verdict.ends_with(": n2 delivered n1#0 without its payload"),
            "{verdict}"
        );
        // The table's order: an earlier row speaks first.
        a.order.violations.push((at, NodeId(0), NodeId(1)));
        assert!(a
            .first_violation()
            .unwrap()
            .starts_with("delivery order diverged"));
    }

    #[test]
    fn membership_audit_allows_restart_rejoin() {
        let mut c = Cluster::founding(3, fast_cfg()).unwrap();
        let mut membership = MembershipAuditor::new();
        c.run_until_with(Time::ZERO + Duration::from_secs(1), |c| {
            membership.observe(c);
        });
        c.crash(NodeId(2));
        let t = c.now();
        c.run_until_with(t + Duration::from_secs(1), |c| membership.observe(c));
        c.restart(NodeId(2), StartMode::Joining).unwrap();
        let t = c.now();
        c.run_until_with(t + Duration::from_secs(2), |c| membership.observe(c));
        assert!(c.membership_agreed());
        assert_eq!(c.live_members().len(), 3);
        assert!(membership.ok(), "{:?}", membership.violations);
    }
}

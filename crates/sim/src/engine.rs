//! The fault-schedule engine: every rule the tick-driven verifiers share,
//! written once.
//!
//! [`run_chaos`](crate::chaos::run_chaos) replays a [`ChaosEvent`]
//! schedule over the simulator; `raincore-procher`'s `run_cluster`
//! replays the same vocabulary over real OS processes. The two differ in
//! how a fault reaches the world (a `SimNet` call, or the loss proxy and
//! a `SIGKILL`), in how a tick passes (virtual time per quantum, or a
//! sleep and a reap) and in which claims are sound there (DESIGN.md
//! §10.3). Everything else is the [`ScheduleEngine`]: which faults are due, what
//! damage they leave standing ([`NetBelief`]), when the run is `quiet`
//! and when it is `link_calm`, how the continuity auditors are driven
//! across a calm edge, and when the run has settled. DESIGN.md §7 has
//! the rule table.
//!
//! The quietness and link-calm rules are this repository's statement of
//! the paper's failure assumptions — fail-stop members and transitive
//! connectivity within a component (§2.2/§2.3) — and every claim an
//! auditor makes is made against them.

use crate::audit::{AuditView, Auditors, LivenessOracles, MembershipAuditor};
use crate::chaos::{ChaosEvent, ChaosFault, FaultKind};
use raincore_net::Addr;
use raincore_types::{Duration, NodeId};
use std::collections::{BTreeMap, BTreeSet};

/// The five tick bounds of a schedule run, in engine ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TickBounds {
    /// Ticks of active fault injection — the run soaks at least this long.
    pub ticks: u64,
    /// Quiet = no believed damage and this many ticks since the last
    /// fault.
    pub grace_ticks: u64,
    /// Token-liveness bound: max quiet ticks without token progress.
    pub token_bound_ticks: u64,
    /// Convergence bound: max quiet ticks without membership agreement.
    pub convergence_bound_ticks: u64,
    /// Converged quiet ticks required after the schedule to declare the
    /// run clean.
    pub post_ticks: u64,
}

impl TickBounds {
    /// The most ticks a run may take: the schedule, the grace after its
    /// last fault, the convergence the oracle allows, and the tail.
    pub fn horizon(&self) -> u64 {
        self.ticks + self.grace_ticks + self.convergence_bound_ticks + self.post_ticks + 2
    }
}

/// True while some pair of `live` members has no usable address pair:
/// redundant links pair a peer's k-th address with the local k-th NIC
/// (§2.1), so two members whose remaining NICs share no index cannot
/// exchange packets at all. Only live pairs can be stranded.
pub(crate) fn pair_stranded(live: &[NodeId], nics: u8, nic_down: impl Fn(Addr) -> bool) -> bool {
    let cut =
        |a, b| (0..nics.max(1)).all(|k| nic_down(Addr::new(a, k)) || nic_down(Addr::new(b, k)));
    live.iter()
        .enumerate()
        .any(|(i, &a)| live[i + 1..].iter().any(|&b| cut(a, b)))
}

/// The engine's belief about who is up and what connectivity damage is
/// outstanding. The seeded fault drives belief and reality apart: a
/// "broken heal" clears the belief while the network stays partitioned,
/// which is exactly what the convergence oracle exists to catch.
///
/// Besides link blocks and partitions, complementary standing NIC downs
/// count as damage (`pair_stranded`): connectivity is then
/// non-transitive and neither convergence nor the safety claims that
/// assume it can be demanded. Injection dials never count: the oracles
/// must hold *under* loss, not merely after it stops.
#[derive(Debug, Default)]
pub struct NetBelief {
    pairs: BTreeSet<(NodeId, NodeId)>,
    partitioned: bool,
    nics_down: BTreeSet<Addr>,
    crashed: BTreeSet<NodeId>,
    nodes: u32,
    nics: u8,
}

impl NetBelief {
    /// The belief about `nodes` members of `nics` NICs each, all up.
    pub fn new(nodes: u32, nics: u8) -> Self {
        NetBelief {
            nodes,
            nics,
            ..NetBelief::default()
        }
    }

    /// True while believed damage keeps some pair of live members apart.
    pub fn blocked(&self) -> bool {
        if self.partitioned || !self.pairs.is_empty() {
            return true;
        }
        if self.nics_down.is_empty() {
            return false;
        }
        let up = |n: &NodeId| !self.crashed.contains(n);
        let live: Vec<NodeId> = (0..self.nodes).map(NodeId).filter(up).collect();
        pair_stranded(&live, self.nics, |a| self.nics_down.contains(&a))
    }

    /// Records what `fault` does to the members and the links.
    pub fn note(&mut self, fault: &ChaosFault) {
        match fault {
            ChaosFault::LinkDown(a, b) => {
                self.pairs.insert((*a.min(b), *a.max(b)));
            }
            ChaosFault::LinkUp(a, b) => {
                self.pairs.remove(&(*a.min(b), *a.max(b)));
            }
            ChaosFault::NicDown(a) => {
                self.nics_down.insert(*a);
            }
            ChaosFault::NicUp(a) => {
                self.nics_down.remove(a);
            }
            ChaosFault::Crash(id) => {
                self.crashed.insert(*id);
            }
            ChaosFault::Restart(id) => {
                self.crashed.remove(id);
            }
            ChaosFault::Partition(_) => self.partitioned = true,
            ChaosFault::Heal => {
                // Heals link blocks only; NIC states are untouched.
                self.pairs.clear();
                self.partitioned = false;
            }
            // Injection dials never sever connectivity. Bulk loss is a
            // dial too: it delays bulk payload arrival (NACK recovery
            // keeps pulling), it never blocks the token path.
            ChaosFault::Duplicate(_)
            | ChaosFault::Reorder(_)
            | ChaosFault::Jitter(_)
            | ChaosFault::BulkLoss(_)
            | ChaosFault::DelaySpike(_) => {}
        }
    }
}

/// One run of a schedule: the due-fault cursor, the fault bookkeeping the
/// quietness rules read, the auditors and the oracles. See the module
/// docs.
#[derive(Debug)]
pub struct ScheduleEngine<'a> {
    bounds: TickBounds,
    due: Vec<&'a ChaosEvent>,
    next: usize,
    belief: NetBelief,
    give_up_floor: Option<Duration>,
    same_instant: bool,
    last_fault: Option<u64>,
    last_link_fault: Option<u64>,
    was_link_calm: bool,
    converged_streak: u64,
    spike_over_floor: bool,
    /// The safety auditors. [`ScheduleEngine::observe_tick`] feeds the
    /// calm-gated ones and `completeness`. `token` wants every quantum
    /// and `order` is sound only where a log is one incarnation's in one
    /// component: those two are the world's to feed, before the tick's
    /// `observe_tick`.
    pub auditors: Auditors,
    /// The liveness oracles, fed once per tick.
    pub oracles: LivenessOracles,
    /// Faults taken off the schedule so far, per [`ChaosFault::class`].
    pub fault_counts: BTreeMap<&'static str, u64>,
    /// Scheduled restarts skipped because the member was up. A pinned
    /// regression schedule asserts zero: a `restart` that lost its
    /// `crash` line no longer tests a rejoin.
    pub restarts_skipped: u64,
}

impl<'a> ScheduleEngine<'a> {
    /// An engine about to run `schedule` (in tick order, ties in the
    /// order given). `give_up_floor` is the line [`ChaosFault::kind`]
    /// draws through delay spikes; `None` for a world that cannot stall
    /// a link. `same_instant` is the one soundness switch: claims
    /// quantified over one instant (the unique 911 winner) hold in
    /// process and do not over exports written on independent clocks
    /// (DESIGN.md §10.3). Every auditor the engine can time it feeds by
    /// that switch; see [`ScheduleEngine::auditors`] for the two it
    /// cannot.
    pub fn new(
        schedule: &'a [ChaosEvent],
        bounds: TickBounds,
        belief: NetBelief,
        give_up_floor: Option<Duration>,
        same_instant: bool,
    ) -> Self {
        let mut due: Vec<&ChaosEvent> = schedule.iter().collect();
        due.sort_by_key(|e| e.tick);
        ScheduleEngine {
            bounds,
            due,
            next: 0,
            belief,
            give_up_floor,
            same_instant,
            last_fault: None,
            last_link_fault: None,
            was_link_calm: true,
            converged_streak: 0,
            spike_over_floor: false,
            // Dwell: a node that restarts, probes and dies again leaves
            // its join in flight; admission a few token rounds later is
            // delayed join processing, not a resurrection. 20 calm ticks
            // comfortably cover probe cadence + admission + NIC failover.
            auditors: Auditors {
                membership: MembershipAuditor::with_dwell(20),
                ..Auditors::default()
            },
            oracles: LivenessOracles::new(bounds.token_bound_ticks, bounds.convergence_bound_ticks),
            fault_counts: BTreeMap::new(),
            restarts_skipped: 0,
        }
    }

    /// The next fault due at or before `tick` that the world must apply,
    /// already entered in the books; `None` once the tick's faults are
    /// out. A `restart` of a member that is up is counted and skipped —
    /// in every world, so a dump that lost its `crash` line replays to
    /// the same thing everywhere.
    pub fn next_due(&mut self, tick: u64) -> Option<&'a ChaosFault> {
        loop {
            let fault = &self.due.get(self.next).filter(|e| e.tick <= tick)?.fault;
            self.next += 1;
            self.last_fault = Some(tick);
            *self.fault_counts.entry(fault.class()).or_default() += 1;
            if matches!(fault, ChaosFault::Restart(id) if !self.belief.crashed.contains(id)) {
                self.restarts_skipped += 1;
                continue;
            }
            match fault.kind(self.give_up_floor) {
                FaultKind::Churn(id) => self.oracles.note_crash(id),
                FaultKind::Link => {
                    self.last_link_fault = Some(tick);
                    self.spike_over_floor |= matches!(fault, ChaosFault::DelaySpike(_));
                }
                FaultKind::Dial => {}
            }
            self.belief.note(fault);
            return Some(fault);
        }
    }

    /// A member went down by itself (a child process exited): churn the
    /// schedule did not ask for.
    pub fn note_crash(&mut self, id: NodeId) {
        self.belief.crashed.insert(id);
        self.oracles.note_crash(id);
    }

    /// Faults taken off the schedule so far.
    pub fn faults_applied(&self) -> u64 {
        self.fault_counts.values().sum()
    }

    /// True while believed damage keeps some pair of live members apart.
    pub fn blocked(&self) -> bool {
        self.belief.blocked()
    }

    /// True once a delay spike that reaches the give-up floor has fired:
    /// from then on a member may rightly have given up on a peer.
    pub fn spike_over_floor(&self) -> bool {
        self.spike_over_floor
    }

    /// True once `tick` is `grace_ticks` past `last` (or nothing fired).
    fn graced(&self, last: Option<u64>, tick: u64) -> bool {
        last.is_none_or(|at| tick.saturating_sub(at) >= self.bounds.grace_ticks)
    }

    /// Quiet — the liveness oracles' clock runs: no believed damage and a
    /// grace period since the last fault of any kind. Belief, not
    /// reality, gates this: a heal that never took effect must leave the
    /// convergence oracle running.
    pub fn quiet(&self, tick: u64) -> bool {
        !self.blocked() && self.graced(self.last_fault, tick)
    }

    /// Link-calm — the safety auditors' window. The paper's fault model
    /// (§2.2/§2.3) assumes fail-stop nodes and transitive connectivity
    /// within a component, and both break while links are cut: a token
    /// handed off across a link that is cut mid-flight legitimately forks
    /// (the ack is lost, the forwarder re-takes the token, and both sides
    /// carry the same group id until the purge/merge machinery renames
    /// them), and under a standing pairwise cut two mutually unreachable
    /// members can each win a 911 vote from the voters common to both.
    /// Membership resurrection is likewise a calm-window claim: a merge
    /// right after a heal legitimately unions a held TBM token's stale
    /// ring back in (§2.4), and failure detection re-purges the dead
    /// entries within the grace window; a *persistent* resurrection is
    /// the convergence oracle's to catch. So the claims are made only
    /// while no pair is `severed` — by the world's best knowledge, which
    /// in process is reality, so that a seeded broken heal does not
    /// re-arm the auditors against a still-partitioned net — *and* no
    /// link-class fault fired within the grace window.
    pub fn link_calm(&self, tick: u64, severed: bool) -> bool {
        !severed && self.graced(self.last_link_fault, tick)
    }

    /// One tick's observation, after the world has advanced: drives the
    /// continuity auditors (911 deltas, membership) across the calm edge
    /// — they observe on a calm tick that follows a calm tick and
    /// rebaseline on the first calm tick after a gap, because the gap
    /// broke the continuity their claims are about — then completeness,
    /// then the oracles. Returns the first violation on the books.
    pub fn observe_tick(
        &mut self,
        v: &impl AuditView,
        tick: u64,
        link_calm: bool,
    ) -> Option<String> {
        let quiet = self.quiet(tick);
        let resumed = link_calm && !self.was_link_calm;
        self.was_link_calm = link_calm;
        let a = &mut self.auditors;
        if resumed {
            a.nine_eleven.rebaseline(v);
            a.membership.rebaseline(v);
        } else if link_calm {
            if self.same_instant {
                a.nine_eleven.observe(v);
            }
            a.membership.observe(v);
        }
        // Delivery completeness (DESIGN.md §13) is a pure safety claim —
        // a delivered id always carries its full payload, loss or no
        // loss — so unlike the calm-scoped auditors it observes every
        // tick.
        a.completeness.observe(v);
        self.oracles.observe_tick(v, quiet);
        a.first_violation().or_else(|| self.oracles.verdict())
    }

    /// True once the schedule is out and its `ticks` have passed: the
    /// run now only waits to settle.
    pub fn in_tail(&self, tick: u64) -> bool {
        self.next >= self.due.len() && tick >= self.bounds.ticks
    }

    /// The exit rule, asked once per tick: in the tail, `post_ticks`
    /// consecutive ticks that were quiet, agreed on the membership and
    /// `world_done` (whatever else the world waits for). One tick that
    /// is not resets the streak.
    pub fn settled(&mut self, tick: u64, v: &impl AuditView, world_done: bool) -> bool {
        if !self.in_tail(tick) {
            return false;
        }
        if self.quiet(tick) && v.membership_agreed() && world_done {
            self.converged_streak += 1;
        } else {
            self.converged_streak = 0;
        }
        self.has_settled()
    }

    /// Consecutive tail ticks so far that counted as converged.
    pub fn streak(&self) -> u64 {
        self.converged_streak
    }

    /// True if the run ended on a full settled streak.
    pub fn has_settled(&self) -> bool {
        self.converged_streak >= self.bounds.post_ticks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::{NodeStatus, StatusView};
    use raincore_types::{GroupId, Ring, Time};

    const BOUNDS: TickBounds = TickBounds {
        ticks: 30,
        grace_ticks: 5,
        token_bound_ticks: 50,
        convergence_bound_ticks: 50,
        post_ticks: 3,
    };
    fn schedule(lines: &[&str]) -> Vec<ChaosEvent> {
        lines.iter().map(|l| l.parse().expect(l)).collect()
    }

    fn engine(schedule: &[ChaosEvent]) -> ScheduleEngine<'_> {
        let floor = Some(Duration::from_millis(96));
        ScheduleEngine::new(schedule, BOUNDS, NetBelief::new(3, 2), floor, true)
    }

    /// Takes every fault due at `tick` off the schedule, rendered.
    fn drain(e: &mut ScheduleEngine<'_>, tick: u64) -> Vec<String> {
        std::iter::from_fn(|| e.next_due(tick).map(ToString::to_string)).collect()
    }

    /// Three members up; the ring holds the first `agreed` of them.
    fn view(agreed: u32) -> StatusView {
        let mut v = StatusView::new(Time::ZERO);
        for i in 0..3 {
            let status = NodeStatus {
                live: true,
                eating: i == 0,
                group: Some(GroupId(NodeId(0))),
                ring: Some(Ring::from_iter((0..agreed).map(NodeId))),
                ..NodeStatus::default()
            };
            v.insert(NodeId(i), status);
        }
        v
    }

    #[test]
    fn quiet_flips_exactly_at_last_fault_plus_grace() {
        let s = schedule(&["@3 dup 10", "@4 link-down n0 n1", "@6 link-up n0 n1"]);
        let mut e = engine(&s);
        assert!(e.quiet(2), "nothing fired yet");
        assert_eq!(drain(&mut e, 3), ["dup 10"]);
        assert!(!e.quiet(3) && !e.quiet(7));
        assert!(e.quiet(8), "3 + grace");
        assert_eq!(drain(&mut e, 4), ["link-down n0 n1"]);
        assert!(!e.quiet(20), "believed damage outlasts any grace");
        drain(&mut e, 6);
        assert!(!e.quiet(10) && e.quiet(11), "6 + grace");
    }

    #[test]
    fn a_link_class_fault_rearms_link_calm_and_a_dial_does_not() {
        let s = schedule(&[
            "@2 nic-down n0.1",
            "@10 dup 5",
            "@10 reorder 5",
            "@10 jitter 50",
            "@10 bulk-loss 100",
            "@10 delay-spike 90000",
            "@12 crash n2",
            "@20 delay-spike 95000",
        ]);
        let mut e = engine(&s);
        assert!(e.link_calm(1, false));
        drain(&mut e, 2);
        assert!(!e.link_calm(6, false) && e.link_calm(7, false));
        assert!(!e.link_calm(7, true), "a severed pair is never calm");
        // Dials, a stall a member outwaits (90 ms + margin < 96 ms) and
        // churn leave the window open...
        assert_eq!(drain(&mut e, 10).len(), 5);
        drain(&mut e, 12);
        assert!(e.link_calm(12, false) && !e.spike_over_floor());
        // ...while they do restart the oracles' grace.
        assert!(!e.quiet(16) && e.quiet(17));
        // A stall past the give-up floor is a link that was down.
        drain(&mut e, 20);
        assert!(!e.link_calm(24, false) && e.link_calm(25, false));
        assert!(e.spike_over_floor());
    }

    #[test]
    fn first_calm_tick_after_a_gap_rebaselines_and_the_second_observes() {
        let mut e = engine(&[]);
        let v = view(3);
        let observed = |e: &ScheduleEngine<'_>| {
            let a = &e.auditors;
            (a.nine_eleven.observations, a.membership.observations)
        };
        assert_eq!(e.observe_tick(&v, 0, true), None);
        assert_eq!(observed(&e), (1, 1), "calm from the start observes");
        e.observe_tick(&v, 1, false);
        e.observe_tick(&v, 2, false);
        assert_eq!(observed(&e), (1, 1), "no claim inside the gap");
        e.observe_tick(&v, 3, true);
        assert_eq!(observed(&e), (1, 1), "the first calm tick only rebaselines");
        e.observe_tick(&v, 4, true);
        assert_eq!(observed(&e), (2, 2), "the second observes");
        assert_eq!(e.auditors.completeness.observations, 5, "every tick");
        assert_eq!(e.auditors.order.observations, 0, "the world's to feed");
    }

    #[test]
    fn a_world_without_same_instant_claims_never_feeds_the_911_auditor() {
        let mut e = ScheduleEngine::new(&[], BOUNDS, NetBelief::new(3, 1), None, false);
        e.observe_tick(&view(3), 0, true);
        let a = &e.auditors;
        assert_eq!(
            (a.nine_eleven.observations, a.membership.observations),
            (0, 1)
        );
    }

    #[test]
    fn the_streak_resets_on_one_non_converged_tick() {
        let s = schedule(&["@1 dup 0"]);
        let mut e = engine(&s);
        let (agreed, split) = (view(3), view(2));
        assert!(!e.settled(40, &agreed, true), "the schedule is not out yet");
        drain(&mut e, 1);
        assert!(!e.in_tail(29) && e.in_tail(30));
        assert!(!e.settled(30, &agreed, true));
        assert!(!e.settled(31, &agreed, true));
        assert_eq!(e.streak(), 2);
        assert!(!e.settled(32, &split, true), "one tick without agreement");
        assert_eq!(e.streak(), 0);
        assert!(
            !e.settled(33, &agreed, false),
            "or one the world is not done in"
        );
        assert!(!e.settled(34, &agreed, true));
        assert!(!e.settled(35, &agreed, true));
        assert!(e.settled(36, &agreed, true) && e.has_settled());
    }

    #[test]
    fn restart_of_a_member_that_is_up_is_counted_and_skipped() {
        let s = schedule(&[
            "@1 restart n1",
            "@2 crash n1",
            "@3 restart n1",
            "@3 restart n1",
        ]);
        let mut e = engine(&s);
        assert!(drain(&mut e, 1).is_empty(), "n1 is up");
        assert!(!e.quiet(1), "a skipped fault still restarts the grace");
        assert_eq!(drain(&mut e, 2), ["crash n1"]);
        assert_eq!(
            drain(&mut e, 3),
            ["restart n1"],
            "once: then n1 is up again"
        );
        assert_eq!(e.faults_applied(), 4);
        assert_eq!((e.fault_counts["restart"], e.restarts_skipped), (3, 2));
        // A member that went down by itself can be restarted too.
        let s = schedule(&["@5 restart n2"]);
        let mut e = engine(&s);
        e.note_crash(NodeId(2));
        assert_eq!(drain(&mut e, 5), ["restart n2"]);
    }

    /// The rule procher's own belief tracker held before it was deleted:
    /// any cut, partition or unplugged node is damage, crashes are not.
    #[derive(Default)]
    struct OldProcherDamage {
        pairs: BTreeSet<(NodeId, NodeId)>,
        nodes_down: BTreeSet<NodeId>,
        partitioned: bool,
    }

    impl OldProcherDamage {
        fn note(&mut self, fault: &ChaosFault) {
            match fault {
                ChaosFault::LinkDown(a, b) => drop(self.pairs.insert((*a.min(b), *a.max(b)))),
                ChaosFault::LinkUp(a, b) => drop(self.pairs.remove(&(*a.min(b), *a.max(b)))),
                ChaosFault::NicDown(a) => drop(self.nodes_down.insert(a.node)),
                ChaosFault::NicUp(a) => drop(self.nodes_down.remove(&a.node)),
                ChaosFault::Partition(_) => self.partitioned = true,
                ChaosFault::Heal => {
                    self.pairs.clear();
                    self.partitioned = false;
                }
                _ => {}
            }
        }

        fn blocked(&self) -> bool {
            self.partitioned || !self.pairs.is_empty() || !self.nodes_down.is_empty()
        }
    }

    #[test]
    fn one_nic_belief_equals_the_deleted_procher_belief_on_the_gate_vocabulary() {
        // `procher --gate`, `--regression bootstrap`, and a NIC unplugged
        // and replugged on a member that stays up.
        let s = schedule(&[
            "@100 crash n2",
            "@200 restart n2",
            "@712 crash n3",
            "@976 crash n4",
            "@1039 crash n6",
            "@1059 crash n2",
            "@1531 link-down n5 n7",
            "@1582 partition n4,n0,n3,n6|n5,n1,n2,n7",
            "@1670 crash n0",
            "@1671 restart n0",
            "@1679 crash n1",
            "@1685 crash n5",
            "@1686 restart n5",
            "@1783 crash n7",
            "@1990 heal",
            "@2000 nic-down n0.0",
            "@2001 dup 50",
            "@2002 nic-up n0.0",
        ]);
        let (mut new, mut old) = (NetBelief::new(8, 1), OldProcherDamage::default());
        for event in &s {
            new.note(&event.fault);
            old.note(&event.fault);
            assert_eq!(new.blocked(), old.blocked(), "after {event}");
        }
        // Where the two part on purpose: only live pairs can be stranded.
        new.note(&"nic-down n3.0".parse().unwrap());
        assert!(!new.blocked(), "n3 is down: its NIC strands nobody");
        // And where they part by construction: the deleted tracker keyed
        // by node, this one by address, and a one-NIC member has no
        // second address to lose — `run_cluster` refuses such a line.
        new.note(&"nic-down n0.1".parse().unwrap());
        old.note(&"nic-down n0.1".parse().unwrap());
        assert!(old.blocked() && !new.blocked());
    }
}

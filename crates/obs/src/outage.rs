//! The fail-over budget: one outage, as the member that repaired it
//! lived it, cut into stages.
//!
//! A dead member costs the group a gap in deliveries. Two things can end
//! it: the member passing the token *to* the dead one gives up and skips
//! it (§2.2), or — when the token died with it — a member starves, calls
//! 911 and regenerates (§2.3). Either way one node does the repairing,
//! and its own journal holds every mark of the span:
//!
//! ```text
//! last delivery ─quiet─▶ suspect ─wait─▶ probe sent ─detect─▶ failed /
//!     starving ─vote─▶ votes in ─repair─▶ skipped / regenerated
//!     ─resume─▶ first delivery
//! ```
//!
//! *Suspect* is the pass that was never acknowledged (skip) or the moment
//! this member last let go of the token (regeneration). *Wait* is the
//! hunger before the successor probe that failed went out; it is zero
//! when the pass itself failed, and when the starvation was the
//! `hungry_timeout` backstop's (no probe in flight), which is all
//! `detect`. The journal has no retransmission event, so `detect` is not
//! split further here; its parts are the armed timeouts of
//! `raincore_transport_rto_ns`.
//!
//! [`OutageTracker`] is fed one node's events in journal order — live, by
//! the node's observability side-car, or after the fact, by `tracectl
//! outage` — and hands back an [`OutageRow`] when the first delivery
//! after a repair closes one. Only that node's clock is ever compared
//! with itself.

use crate::trace::{TraceEvent, TraceKind};

/// One stage of a fail-over, in the order it is lived through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutageStage {
    /// Last delivery → suspect: the ring still turning, or already idle.
    Quiet,
    /// Suspect → the successor probe that was to fail went out. Zero
    /// when no probe was in flight at the verdict.
    Wait,
    /// Probe sent (or suspect) → failure-on-delivery (skip, failed probe)
    /// or STARVING (the backstop): the detection timers.
    Detect,
    /// STARVING → the last 911 verdict or failed voter is in. Zero when
    /// the successor was skipped.
    Vote,
    /// Votes in → token regenerated, or failed → token on its way to the
    /// next successor.
    Repair,
    /// Repaired → first delivery.
    Resume,
}

impl OutageStage {
    /// Every stage, in order.
    pub const ALL: [OutageStage; 6] = [
        OutageStage::Quiet,
        OutageStage::Wait,
        OutageStage::Detect,
        OutageStage::Vote,
        OutageStage::Repair,
        OutageStage::Resume,
    ];

    /// Stable lowercase label (metric label, table column).
    pub fn label(&self) -> &'static str {
        match self {
            OutageStage::Quiet => "quiet",
            OutageStage::Wait => "wait",
            OutageStage::Detect => "detect",
            OutageStage::Vote => "vote",
            OutageStage::Repair => "repair",
            OutageStage::Resume => "resume",
        }
    }
}

/// How an outage was repaired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutageMode {
    /// Failure-on-delivery of a pass; the dead successor was skipped.
    Skip,
    /// The token was lost; this node starved and regenerated it.
    Regen,
}

/// One repaired outage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutageRow {
    /// The node that repaired it.
    pub node: u32,
    /// That node's clock at the last delivery before the outage.
    pub began_ns: u64,
    /// How it was repaired.
    pub mode: OutageMode,
    /// Nanoseconds per stage, indexed like [`OutageStage::ALL`]; they add
    /// up to the gap between the two deliveries.
    pub stages: [u64; 6],
}

impl OutageRow {
    /// The whole gap between deliveries.
    pub fn total_ns(&self) -> u64 {
        self.stages.iter().sum()
    }
}

#[derive(Clone, Copy, Debug)]
struct Open {
    mode: OutageMode,
    began: u64,
    suspect: u64,
    probed: u64,
    detected: u64,
    votes_in: u64,
    repaired: Option<u64>,
}

/// Derives [`OutageRow`]s from one node's journal events.
#[derive(Clone, Debug, Default)]
pub struct OutageTracker {
    last_delivery: Option<u64>,
    /// The pass in flight: when, and to whom.
    last_tx: Option<(u64, u32)>,
    /// The successor probe in flight: when it went out.
    probe: Option<u64>,
    open: Option<Open>,
}

impl OutageTracker {
    /// Feeds the next event of `node`'s journal, stamped `t` on that
    /// node's clock; returns the outage it closes, if it closes one.
    pub fn on_event(&mut self, t: u64, node: u32, kind: &TraceKind) -> Option<OutageRow> {
        match *kind {
            TraceKind::Delivered { .. } => {
                let row = self.open.take().and_then(|o| {
                    let repaired = o.repaired?;
                    let d = |a: u64, b: u64| b.saturating_sub(a);
                    Some(OutageRow {
                        node,
                        began_ns: o.began,
                        mode: o.mode,
                        stages: [
                            d(o.began, o.suspect),
                            d(o.suspect, o.probed),
                            d(o.probed, o.detected),
                            d(o.detected, o.votes_in),
                            d(o.votes_in, repaired),
                            d(repaired, t),
                        ],
                    })
                });
                self.last_delivery = Some(t);
                row
            }
            TraceKind::TokenTx { to, .. } => {
                if let Some(o) = &mut self.open {
                    if o.mode == OutageMode::Skip && o.repaired.is_none() {
                        o.repaired = Some(t);
                    }
                }
                self.last_tx = Some((t, to));
                self.probe = None;
                None
            }
            TraceKind::ProbeTx { .. } => {
                self.probe = Some(t);
                None
            }
            TraceKind::ProbeAcked { .. } => {
                self.probe = None;
                None
            }
            TraceKind::PeerFailed { peer } => {
                match (&mut self.open, self.last_tx) {
                    // The probe failing, not a pass (an acknowledged
                    // pass cannot): the starvation it sets off in the
                    // same instant opens the row.
                    (None, _) if self.probe.is_some() => {}
                    // A voter is unreachable: one fewer to wait for.
                    (Some(o), _) if o.mode == OutageMode::Regen && o.repaired.is_none() => {
                        o.votes_in = t;
                    }
                    (None, Some((sent, to))) if to == peer => {
                        self.open = Some(Open {
                            mode: OutageMode::Skip,
                            began: self.last_delivery.unwrap_or(sent).min(sent),
                            suspect: sent,
                            probed: sent,
                            detected: t,
                            votes_in: t,
                            repaired: None,
                        });
                    }
                    (Some(_), _) | (None, _) => {}
                }
                None
            }
            TraceKind::CauseStarving { .. } => {
                if self.open.is_none() {
                    let suspect = self.last_tx.map_or(t, |(sent, _)| sent);
                    self.open = Some(Open {
                        mode: OutageMode::Regen,
                        began: self.last_delivery.unwrap_or(suspect).min(suspect),
                        suspect,
                        probed: self.probe.take().map_or(suspect, |p| p.max(suspect)),
                        detected: t,
                        votes_in: t,
                        repaired: None,
                    });
                }
                None
            }
            TraceKind::Verdict911Rx { .. } => {
                if let Some(o) = &mut self.open {
                    if o.mode == OutageMode::Regen && o.repaired.is_none() {
                        o.votes_in = t;
                    }
                }
                None
            }
            TraceKind::TokenRegenerated { .. } => {
                if let Some(o) = &mut self.open {
                    if o.mode == OutageMode::Regen {
                        o.repaired = Some(t);
                    }
                }
                None
            }
            TraceKind::TokenRx { .. } => {
                // A token from elsewhere: somebody else did the repairing
                // (or nothing was lost), and the row is theirs.
                if self.open.is_some_and(|o| o.repaired.is_none()) {
                    self.open = None;
                }
                self.probe = None;
                None
            }
            TraceKind::TokenStale { .. }
            | TraceKind::Call911Tx { .. }
            | TraceKind::Call911Rx { .. }
            | TraceKind::Verdict911Tx { .. }
            | TraceKind::Recovered911 { .. }
            | TraceKind::JoinRequest { .. }
            | TraceKind::BeaconRx { .. }
            | TraceKind::MergeHandoff { .. }
            | TraceKind::Merged { .. }
            | TraceKind::SafeHeld { .. }
            | TraceKind::AtomicRetired { .. }
            | TraceKind::ShutDown
            | TraceKind::HopSpan { .. }
            | TraceKind::EarlyPass { .. }
            | TraceKind::Cause911 { .. }
            | TraceKind::CauseMember { .. }
            | TraceKind::CauseRegen { .. }
            | TraceKind::Gap { .. } => None,
        }
    }
}

/// Every outage in `events`, which may mix several nodes' journals: each
/// node's events are tracked apart, in the order given.
pub fn outages(events: &[TraceEvent]) -> Vec<OutageRow> {
    let mut trackers: std::collections::BTreeMap<u32, OutageTracker> = Default::default();
    events
        .iter()
        .filter_map(|ev| {
            let tracker = trackers.entry(ev.node).or_default();
            tracker.on_event(ev.t_ns, ev.node, &ev.kind)
        })
        .collect()
}

/// One line per outage, one column per stage, in milliseconds.
pub fn render_outages(rows: &[OutageRow]) -> String {
    let ms = |ns: u64| ns as f64 / 1e6;
    let mut out = format!("{:<5} {:>12} {:<5}", "node", "began_s", "mode");
    for s in OutageStage::ALL {
        out.push_str(&format!(" {:>9}", format!("{}_ms", s.label())));
    }
    out.push_str(&format!(" {:>9}\n", "total_ms"));
    for r in rows {
        let mode = match r.mode {
            OutageMode::Skip => "skip",
            OutageMode::Regen => "regen",
        };
        out.push_str(&format!(
            "n{:<4} {:>12.6} {:<5}",
            r.node,
            r.began_ns as f64 / 1e9,
            mode
        ));
        for ns in r.stages {
            out.push_str(&format!(" {:>9.3}", ms(ns)));
        }
        out.push_str(&format!(" {:>9.3}\n", ms(r.total_ns())));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t_ms: u64, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            t_ns: t_ms * 1_000_000,
            node: 2,
            kind,
        }
    }

    fn delivered() -> TraceKind {
        TraceKind::Delivered {
            origin: 0,
            seq: 0,
            safe: false,
        }
    }

    fn token_rx() -> TraceKind {
        TraceKind::TokenRx {
            seq: 1,
            hop: 0,
            members: 4,
            waited_ns: 0,
        }
    }

    #[test]
    fn skipped_successor_is_one_row_whose_stages_add_up() {
        let events = [
            ev(100, delivered()),
            ev(102, TraceKind::TokenTx { seq: 9, to: 3 }),
            ev(137, TraceKind::PeerFailed { peer: 3 }),
            ev(137, TraceKind::TokenTx { seq: 10, to: 0 }),
            ev(145, token_rx()),
            ev(145, delivered()),
            ev(146, delivered()),
        ];
        let rows = outages(&events);
        assert_eq!(rows.len(), 1);
        let r = rows[0];
        assert_eq!((r.node, r.mode), (2, OutageMode::Skip));
        assert_eq!(r.stages.map(|ns| ns / 1_000_000), [2, 0, 35, 0, 0, 8]);
        assert_eq!(r.total_ns(), 45_000_000, "the gap between deliveries");
    }

    #[test]
    fn regeneration_has_a_vote_stage() {
        let events = [
            ev(10, delivered()),
            ev(11, TraceKind::TokenTx { seq: 4, to: 3 }),
            ev(113, TraceKind::CauseStarving { circ: 0, hop: 0 }),
            ev(
                114,
                TraceKind::Verdict911Rx {
                    from: 0,
                    granted: true,
                },
            ),
            ev(148, TraceKind::PeerFailed { peer: 3 }),
            ev(148, TraceKind::TokenRegenerated { seq: 7 }),
            ev(149, TraceKind::TokenTx { seq: 8, to: 0 }),
            ev(156, delivered()),
        ];
        let rows = outages(&events);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].mode, OutageMode::Regen);
        assert_eq!(
            rows[0].stages.map(|ns| ns / 1_000_000),
            [1, 0, 102, 35, 0, 8],
            "quiet, no probe, hungry timeout, the dead voter's give-up, regen, resume"
        );
        let table = render_outages(&rows);
        assert!(table.lines().next().unwrap().contains("detect_ms"));
        assert!(table.lines().nth(1).unwrap().starts_with("n2"));
    }

    #[test]
    fn failed_probe_splits_the_hunger_into_wait_and_detect() {
        let events = [
            ev(10, delivered()),
            ev(11, TraceKind::TokenTx { seq: 4, to: 3 }),
            // A first probe is answered: the holder was busy, not dead.
            ev(60, TraceKind::ProbeTx { to: 3 }),
            ev(61, TraceKind::ProbeAcked { to: 3 }),
            ev(109, TraceKind::ProbeTx { to: 3 }),
            ev(157, TraceKind::PeerFailed { peer: 3 }),
            ev(157, TraceKind::CauseStarving { circ: 0, hop: 0 }),
            ev(
                158,
                TraceKind::Verdict911Rx {
                    from: 0,
                    granted: true,
                },
            ),
            ev(158, TraceKind::TokenRegenerated { seq: 7 }),
            ev(159, TraceKind::TokenTx { seq: 8, to: 0 }),
            ev(166, delivered()),
        ];
        let rows = outages(&events);
        assert_eq!(rows.len(), 1, "the failed probe opens no skip row");
        assert_eq!(rows[0].mode, OutageMode::Regen);
        assert_eq!(
            rows[0].stages.map(|ns| ns / 1_000_000),
            [1, 98, 48, 1, 0, 8],
            "quiet, wait, the probe's give-up, a vote nobody dead sits in, regen, resume"
        );
        assert_eq!(rows[0].total_ns(), 156_000_000);
        assert!(render_outages(&rows).contains("wait_ms"));
    }

    #[test]
    fn an_answered_probe_leaves_the_backstop_all_detect() {
        let events = [
            ev(10, delivered()),
            ev(11, TraceKind::TokenTx { seq: 4, to: 3 }),
            ev(60, TraceKind::ProbeTx { to: 3 }),
            ev(61, TraceKind::ProbeAcked { to: 3 }),
            ev(411, TraceKind::CauseStarving { circ: 0, hop: 0 }),
            ev(412, TraceKind::TokenRegenerated { seq: 7 }),
            ev(420, delivered()),
        ];
        let rows = outages(&events);
        assert_eq!(
            rows[0].stages.map(|ns| ns / 1_000_000),
            [1, 0, 400, 0, 1, 8]
        );
    }

    #[test]
    fn starving_that_another_member_repairs_is_no_row_here() {
        let events = [
            ev(10, delivered()),
            ev(11, TraceKind::TokenTx { seq: 4, to: 3 }),
            ev(113, TraceKind::CauseStarving { circ: 0, hop: 0 }),
            ev(120, token_rx()),
            ev(120, delivered()),
        ];
        assert_eq!(outages(&events), vec![]);
    }

    #[test]
    fn failure_of_a_peer_no_pass_was_waiting_on_opens_nothing() {
        // A beacon to an absent member failing is not an outage.
        let events = [
            ev(10, delivered()),
            ev(11, TraceKind::TokenTx { seq: 4, to: 0 }),
            ev(50, TraceKind::PeerFailed { peer: 3 }),
            ev(51, delivered()),
        ];
        assert_eq!(outages(&events), vec![]);
    }
}

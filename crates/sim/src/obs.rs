//! Cluster-wide observability.
//!
//! The harness owns one [`Registry`](raincore_obs::Registry) per cluster.
//! [`Cluster::collect_metrics`] refreshes it from every node through
//! [`SessionNode::export_into`](raincore_session::SessionNode::export_into),
//! the one export shared with the UDP runtime: counters mirrored by
//! delta (monotonic across node restarts), status gauges, and the latency
//! histograms the protocol layers record natively, attached by handle
//! (re-attaching after a restart replaces the stale handle).
//!
//! [`Cluster::run_checked`] runs the simulation under an invariant checker
//! sampled after **every** quantum; on the first violation it renders a
//! post-mortem report — cluster state dump plus the merged, time-ordered
//! trace journal of every node — so the token-seq causality leading up to
//! the incident is on screen, not lost in flat counters.

use crate::audit::AuditView;
use crate::cluster::Cluster;
use raincore_obs::{
    merge_journals, render_events_text, render_waterfall, TraceEvent, WaterfallOpts,
};
use raincore_types::Time;

/// An invariant violation caught by [`Cluster::run_checked`], carrying the
/// full post-mortem report.
#[derive(Debug)]
pub struct InvariantFailure {
    /// Virtual time at which the checker tripped.
    pub at: Time,
    /// Quanta processed when it tripped.
    pub steps: u64,
    /// The checker's explanation.
    pub reason: String,
    /// Rendered report: state dump + merged trace journal.
    pub report: String,
}

impl std::fmt::Display for InvariantFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invariant violated at t={} (step {}): {}",
            self.at, self.steps, self.reason
        )
    }
}

impl std::error::Error for InvariantFailure {}

/// The harness's standard cross-node invariant: within each group at most
/// one member is EATING (the paper's mutual-exclusion property, §2.7).
pub fn standard_invariants(c: &Cluster) -> Result<(), String> {
    if let Some(g) = c.eating_violation_group() {
        return Err(format!("more than one EATING node in group {g}"));
    }
    Ok(())
}

impl Cluster {
    /// Refreshes the metric registry: cluster gauges here, everything
    /// per-node through [`raincore_session::SessionNode::export_into`] — the
    /// same export the UDP runtime dumps.
    pub fn collect_metrics(&self) {
        let r = self.registry();
        r.set_gauge("raincore_sim_time_ns", &[], self.now().as_nanos() as i64);
        r.set_gauge("raincore_sim_steps", &[], self.steps() as i64);
        r.set_gauge(
            "raincore_sim_live_members",
            &[],
            self.live_members().len() as i64,
        );
        r.set_gauge("raincore_sim_groups", &[], self.groups().len() as i64);
        for id in self.member_ids() {
            if let Some(s) = self.session(id) {
                s.export_into(r);
            }
        }
    }

    /// Collects and renders the registry in the Prometheus text format.
    pub fn prometheus(&self) -> String {
        self.collect_metrics();
        self.registry().snapshot().to_prometheus()
    }

    /// Collects and renders the registry as a JSON document.
    pub fn json_snapshot(&self) -> String {
        self.collect_metrics();
        self.registry().snapshot().to_json()
    }

    /// Every node's trace journal merged into one time-ordered event list.
    pub fn merged_journal(&self) -> Vec<TraceEvent> {
        merge_journals(
            self.member_ids()
                .iter()
                .filter_map(|&id| self.session(id))
                .map(|s| s.obs().journal())
                .collect::<Vec<_>>(),
        )
    }

    /// Pretty-text dump of the merged trace journal.
    pub fn journal_text(&self) -> String {
        render_events_text(&self.merged_journal())
    }

    /// Renders a post-mortem report for an invariant violation: the
    /// violation, the per-node state dump and the merged trace journal.
    pub fn invariant_report(&self, reason: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "INVARIANT VIOLATED at t={} (step {}): {reason}\n",
            self.now(),
            self.steps(),
        ));
        out.push_str("--- cluster state ---\n");
        out.push_str(&self.dump_state());
        out.push_str("--- merged trace journal ---\n");
        out.push_str(&self.journal_text());
        out.push_str("--- flight recorder ---\n");
        out.push_str(&self.flight().render_text());
        out.push_str("--- token waterfall ---\n");
        out.push_str(&render_waterfall(
            &self.merged_journal(),
            &WaterfallOpts::default(),
        ));
        out
    }

    /// The merged journal rendered as a JSON array — the input format of
    /// the `tracectl` waterfall CLI.
    pub fn journal_json(&self) -> String {
        raincore_obs::render_events_json(&self.merged_journal())
    }

    /// Runs until `t_end` with `check` sampled after every quantum. On the
    /// first violation the post-mortem report is printed to stderr and
    /// returned in the [`InvariantFailure`]; the simulation still runs to
    /// `t_end` so the cluster stays usable for further inspection.
    pub fn run_checked(
        &mut self,
        t_end: Time,
        mut check: impl FnMut(&Cluster) -> Result<(), String>,
    ) -> Result<(), InvariantFailure> {
        let mut failure: Option<InvariantFailure> = None;
        self.run_until_with(t_end, |c| {
            if failure.is_some() {
                return;
            }
            if let Err(reason) = check(c) {
                let report = c.invariant_report(&reason);
                eprintln!("{report}");
                failure = Some(InvariantFailure {
                    at: c.now(),
                    steps: c.steps(),
                    reason,
                    report,
                });
            }
        });
        match failure {
            Some(f) => Err(f),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::tests_shared::fast;
    use raincore_types::{Duration, NodeId};

    fn secs(s: u64) -> Time {
        Time::ZERO + Duration::from_secs(s)
    }

    #[test]
    fn healthy_run_passes_standard_invariants() {
        let mut c = Cluster::founding(4, fast()).unwrap();
        c.run_checked(secs(1), standard_invariants).unwrap();
    }

    #[test]
    fn prometheus_export_covers_every_layer_and_node() {
        let mut c = Cluster::founding(3, fast()).unwrap();
        c.run_for(Duration::from_secs(1));
        let text = c.prometheus();
        assert!(
            text.contains("# TYPE raincore_token_rotation_ns histogram"),
            "{text}"
        );
        assert!(text.contains("raincore_token_rotation_ns_p99{node=\"0\"}"));
        assert!(text.contains("raincore_token_rotation_ns_p50{node=\"2\"}"));
        assert!(text.contains("raincore_session_tokens_received{node=\"1\"}"));
        assert!(text.contains("raincore_transport_rtt_ns_count{node=\"1\"}"));
        assert!(text.contains("raincore_submit_to_deliver_ns_count{mode=\"agreed\",node=\"0\"}"));
        assert!(text.contains("raincore_session_token_body_cache_hits{node=\"0\"}"));
        assert!(text.contains("raincore_session_token_body_cache_misses{node=\"0\"}"));
        assert!(text.contains("raincore_token_encode_bytes_count{node=\"1\"}"));
        assert!(text.contains("raincore_sim_live_members 3"));
        let json = c.json_snapshot();
        assert!(json.contains("\"name\":\"raincore_token_rotation_ns\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn rotation_histogram_matches_token_counters() {
        let mut c = Cluster::founding(3, fast()).unwrap();
        c.run_for(Duration::from_secs(1));
        for id in c.member_ids() {
            let tokens = c.metrics(id).tokens_received;
            let h = c.session(id).unwrap().obs().token_rotation.summary();
            // One rotation interval per accept, minus the very first.
            assert_eq!(h.count, tokens - 1, "node {id}");
            assert!(h.p50 > 0 && h.p99 >= h.p50 && h.max >= h.p99, "{h:?}");
        }
    }

    #[test]
    fn forced_invariant_failure_dumps_token_causality() {
        let mut c = Cluster::founding(3, fast()).unwrap();
        // A deliberately false invariant forces the post-mortem path once
        // the token has made a few rounds.
        let err = c
            .run_checked(secs(1), |c| {
                if c.metrics(NodeId(0)).tokens_received > 5 {
                    Err("forced: node 0 accepted more than 5 tokens".into())
                } else {
                    Ok(())
                }
            })
            .expect_err("checker must trip");
        assert!(err.reason.contains("forced"));
        assert!(err.report.contains("--- cluster state ---"));
        assert!(err.report.contains("--- merged trace journal ---"));
        assert!(err.report.contains("TOKEN_RX"), "{}", err.report);
        assert!(err.report.contains("TOKEN_TX"));
        // Token-seq causality is visible and consistent: TOKEN_RX lines in
        // the time-ordered merged journal quote non-decreasing seqs.
        let seqs: Vec<u64> = err
            .report
            .lines()
            .filter(|l| l.contains("TOKEN_RX"))
            .filter_map(|l| {
                l.split("seq=")
                    .nth(1)?
                    .split_whitespace()
                    .next()?
                    .parse()
                    .ok()
            })
            .collect();
        assert!(seqs.len() >= 3, "several accepts recorded: {seqs:?}");
        assert!(
            seqs.windows(2).all(|w| w[0] <= w[1]),
            "seqs out of order: {seqs:?}"
        );
    }
}

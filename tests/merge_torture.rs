//! Partition/heal torture: randomized sequences of partitions, link and
//! NIC failures, crashes, heals and delivery perturbations, with
//! whole-run invariant auditing.
//!
//! §2.4's promise under stress: sub-groups keep functioning on their own
//! and, once disturbances stop and connectivity returns, discovery and
//! merge coalesce everything back into one group — without ever putting
//! two tokens into one group.
//!
//! The test drives the chaos scenario engine (`raincore_sim::chaos`):
//! each case derives a deterministic weighted fault schedule from the
//! seed, runs it with the full auditor/oracle stack (token uniqueness,
//! 911 vote discipline, membership resurrection, token/convergence
//! liveness) and a Safe/Agreed multicast workload, then requires the
//! cluster to end converged with no violation. Failing seeds shrink to
//! 1-minimal replayable schedules via `raincore_sim::dump::shrink`.

use proptest::prelude::*;
use raincore_sim::chaos::{generate_schedule, run_chaos, ChaosConfig};

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn prop_torture_then_quiescence_reconverges(seed in 0u64..10_000) {
        let cfg = ChaosConfig::merge_torture(seed);
        let schedule = generate_schedule(&cfg);
        let report = run_chaos(&cfg, &schedule).expect("chaos setup");
        prop_assert!(
            report.violation.is_none(),
            "seed {} violated an invariant: {} (replay: chaos --seed {} \
             --nodes {} --ticks {})",
            seed,
            report.violation.as_ref().map(|v| v.reason.as_str()).unwrap_or(""),
            seed,
            cfg.nodes,
            cfg.ticks,
        );
        prop_assert!(
            report.converged,
            "seed {} did not reconverge after quiescence",
            seed
        );
        prop_assert!(report.faults_applied > 0, "schedule exercised no faults");
    }
}

//! E1 — §4.1 CPU task-switching comparison.
//!
//! Paper: with `N` devices each sending `M` messages/s and the token at
//! `L` roundtrips/s (`L < M`), Raincore needs only `L` task switches per
//! second per node; a broadcast-based protocol needs at least `M·N`; a
//! two-phase-commit ordered protocol up to `6·M·N`.
//!
//! Raincore's column is simulated; the baselines are their closed forms
//! (`raincore_bench::baselines`), e.g. acked fan-out is `2M(N−1)`.
//!
//! Usage: `exp_taskswitch [secs]` (default 5 simulated seconds/cell).

use raincore_bench::experiments::taskswitch;
use raincore_bench::report::{f, Table};

fn main() {
    let secs: u64 = raincore_bench::cli::arg("secs", 5, 1..=3_600);
    println!("E1: group-communication task switches per second per node");
    println!("    (paper §4.1: Raincore = L;  broadcast ≥ M·N;  2PC ordered ≤ 6·M·N)\n");
    let mut t = Table::new([
        "N",
        "M",
        "L",
        "raincore",
        "fanout+acks(model)",
        "2PC(mean, model)",
        "2PC(max=seq'er, model)",
        "M*N",
        "6*M*N",
    ]);
    for &(n, m, l) in &[
        (2u32, 10u32, 5.0f64),
        (4, 10, 5.0),
        (8, 10, 5.0),
        (4, 50, 5.0),
        (4, 100, 10.0),
        (8, 100, 10.0),
        (16, 50, 10.0),
    ] {
        let r = taskswitch(n, m, l, secs);
        t.row([
            n.to_string(),
            m.to_string(),
            f(l, 0),
            f(r.raincore, 1),
            f(r.reliable, 1),
            f(r.sequenced_mean, 1),
            f(r.sequenced_max, 1),
            (m * n).to_string(),
            (6 * m * n).to_string(),
        ]);
        eprintln!("  done N={n} M={m} L={l}");
    }
    t.print();
    println!("\nRaincore wakes up ~L times/s regardless of message rate M, because");
    println!("messages piggyback on the token; the baselines wake up per message.");
}

//! E6 — §2.5 quiescent-period membership agreement.
//!
//! Paper: "It is then possible to show that the agreement on group
//! membership can be achieved during the Quiescent Period which lasts
//! long enough" — given the token's uniqueness and everlastingness, one
//! quiet token round copies the authoritative membership to everyone.
//! This experiment measures how long that quiet period needs to be, for
//! increasingly violent disturbances (simultaneous crash bursts, then a
//! simultaneous rejoin of all victims).
//!
//! Usage: `exp_quiescent [n]` (default 8 members).

use raincore_bench::experiments::quiescent;
use raincore_bench::report::Table;

fn main() {
    let n: u32 = raincore_bench::cli::arg("n", 8, 2..=64);
    println!("E6: membership agreement time after disturbance bursts (N = {n})\n");
    let mut t = Table::new([
        "simultaneous crashes",
        "shrink convergence",
        "rejoin convergence (all victims)",
    ]);
    let fmt = |d: Option<raincore_types::Duration>| {
        d.map(|d| format!("{:.0} ms", d.as_secs_f64() * 1e3))
            .unwrap_or_else(|| "did not converge".into())
    };
    for k in 1..=(n / 2) {
        let r = quiescent(n, k);
        t.row([
            k.to_string(),
            fmt(r.shrink_convergence),
            fmt(r.rejoin_convergence),
        ]);
        eprintln!("  done k={k}");
    }
    t.print();
    println!("\nConvergence needs one failure detection per dead successor plus one");
    println!("quiet token round — §2.5's agreement argument, measured.");
}

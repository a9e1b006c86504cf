//! E3 — Figure 3: Rainwall throughput and scaling.
//!
//! Paper (Rainfinity lab, Sun Ultra-5 gateways, switched Fast Ethernet):
//! 95 Mbit/s at 1 node, 187 at 2 (×1.97), 357 at 4 (×3.76); Rainwall CPU
//! below 1 % throughout.
//!
//! Usage: `exp_fig3 [secs]` (default 8 simulated seconds of measurement).

use raincore_bench::experiments::fig3;
use raincore_bench::report::{f, hist_table, Table};

fn main() {
    let secs: u64 = raincore_bench::cli::arg("secs", 8, 1..=3_600);
    println!("E3 (Figure 3): Rainwall cluster throughput, switched Fast Ethernet\n");
    let pts = fig3(&[1, 2, 4], secs);
    let paper = [(95.0, 1.0), (187.0, 1.97), (357.0, 3.76)];
    let mut t = Table::new([
        "nodes",
        "measured Mbit/s",
        "measured scaling",
        "paper Mbit/s",
        "paper scaling",
        "groupcomm CPU %",
    ]);
    for (p, (pm, ps)) in pts.iter().zip(paper.iter()) {
        t.row([
            p.gateways.to_string(),
            f(p.mbps, 1),
            f(p.scaling, 2),
            f(*pm, 0),
            f(*ps, 2),
            f(p.cpu_pct, 3),
        ]);
    }
    t.print();
    println!("\nToken-rotation period across the gateways (raincore-obs histograms):\n");
    hist_table(
        pts.iter()
            .map(|p| (format!("{} gateway(s)", p.gateways), p.rotation)),
    )
    .print();
    println!("\n(The absolute numbers depend on the simulated NIC model; the paper's");
    println!("claim is the near-linear *scaling* and the <1 % group-comm CPU share.)");
}

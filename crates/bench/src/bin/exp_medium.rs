//! E5 — §4.1 medium comparison: shared hub vs switched unicast.
//!
//! Paper: configuring the cluster as a broadcast medium means "no more
//! than 100 Mbps can travel through the cluster of N nodes in any
//! direction. In contrast, in a switched unicast Fast Ethernet
//! environment, the aggregate throughput of the cluster can reach
//! N × 100 Mbps" — the reason Raincore is unicast-based.
//!
//! Usage: `exp_medium [secs]` (default 6).

use raincore_bench::experiments::medium;
use raincore_bench::report::{f, Table};

fn main() {
    let secs: u64 = raincore_bench::cli::arg("secs", 6, 1..=3_600);
    println!("E5: cluster goodput, switched vs shared (hub) Fast Ethernet\n");
    let rows = medium(&[1, 2, 4], secs);
    let mut t = Table::new([
        "nodes",
        "switch Mbit/s",
        "hub Mbit/s",
        "paper: switch",
        "paper: hub",
    ]);
    for r in &rows {
        t.row([
            r.gateways.to_string(),
            f(r.switch_mbps, 1),
            f(r.hub_mbps, 1),
            format!("≈ {} ×100", r.gateways),
            "≤ 100".to_string(),
        ]);
    }
    t.print();
    println!("\nThe hub caps the whole cluster at one NIC's rate; the switch scales");
    println!("with node count — the paper's case for unicast-based group communication.");
}

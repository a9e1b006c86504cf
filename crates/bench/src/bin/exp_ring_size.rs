//! A5 — how far one ring goes.
//!
//! A flat ring's multicast latency grows with N (one circulation), and
//! the only remedy — a shorter token hold — raises every node's wake-up
//! rate. This prints both at N = 8, 16, 32 and 64 with a 2 ms hold, so
//! the question the paper leaves to future work (§5, a hierarchy) starts
//! from a measured ceiling.
//!
//! Usage: `exp_ring_size [samples]` (default 6 latency samples per N).

use raincore_bench::experiments::flat_ring;
use raincore_bench::report::{f, Table};

fn main() {
    let samples: u32 = raincore_bench::cli::arg("samples", 6, 1..=1_000);
    println!("A5: one flat ring at N = 8…64 (token hold 2 ms)\n");
    let mut t = Table::new(["N", "latency to farthest (ms)", "switches/s/node"]);
    for n in [8u32, 16, 32, 64] {
        let r = flat_ring(n, samples);
        t.row([r.n.to_string(), f(r.latency * 1e3, 1), f(r.switches, 1)]);
        eprintln!("  done N={n}");
    }
    t.print();
    println!("\nLatency is about one circulation (N × 2 ms) at every N, and each");
    println!("node's wake-up rate falls as 1/N at a fixed hold: the one way to cut");
    println!("a large ring's latency, a shorter hold, raises every node's switches");
    println!("in proportion.");
}

//! E2 — §4.1 network overhead.
//!
//! Paper: in a cluster of N nodes where each node multicasts one message
//! of M bytes, the broadcast-emulated protocol puts `(N-1)²` packets of
//! `M` bytes on the network (doubled with acknowledgements); the token
//! protocol puts `N` packets of `N·M` bytes, reliably and in consistent
//! order.
//!
//! Raincore's row is simulated: what a loaded cluster sends beyond an idle
//! twin over the same window. The baselines are their closed forms
//! (`raincore_bench::baselines`); fan-out is `N(N-1)` packets, as all N
//! nodes send N-1 unicasts (the paper's `(N-1)²` counts one sender fewer).
//!
//! Usage: `exp_netoverhead [msg_bytes]` (default 1024).

use raincore_bench::experiments::netoverhead;
use raincore_bench::report::Table;

fn main() {
    let m: usize = raincore_bench::cli::arg("msg_bytes", 1024, 1..=raincore_session::MAX_PAYLOAD);
    println!("E2: network overhead — every node multicasts one {m}-byte message\n");
    for n in [2u32, 4, 8, 16] {
        println!("N = {n}:");
        let mut t = Table::new([
            "protocol (baselines: model)",
            "packets",
            "bytes",
            "paper: packets",
            "paper: bytes",
        ]);
        for row in netoverhead(n, m) {
            t.row([
                row.protocol.clone(),
                row.packets.to_string(),
                row.bytes.to_string(),
                row.formula_packets.clone(),
                row.formula_bytes.clone(),
            ]);
        }
        t.print();
        println!();
    }
    println!("Raincore's marginal packet count is ~0 (messages ride the token);");
    println!("its marginal bytes are ≈ N²·M (each message travels one full round).");
}

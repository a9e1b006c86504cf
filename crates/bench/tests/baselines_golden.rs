//! Golden values of every baseline cell that E1 and E2 print (§4.1).
//!
//! The broadcast-over-unicast baselines are exact functions of `N` and
//! `M`; these are the figures of the three protocols — acknowledged
//! fan-out, sequencer two-phase commit and plain fan-out — recorded once
//! and checked literally. Nothing here asserts a Raincore row.

use raincore_bench::experiments::{netoverhead, taskswitch};

#[test]
fn e1_baseline_wakeups() {
    // (N, M, L) → fan-out + acks, 2PC mean, 2PC sequencer: wake-ups/s/node.
    let rows = [
        ((2, 10, 5.0), 20.0, 45.0, 50.0),
        ((4, 10, 5.0), 60.0, 127.5, 270.0),
        ((8, 10, 5.0), 140.0, 288.75, 1190.0),
        ((4, 50, 5.0), 300.0, 637.5, 1350.0),
        ((4, 100, 10.0), 600.0, 1275.0, 2700.0),
        ((8, 100, 10.0), 1400.0, 2887.5, 11900.0),
        ((16, 50, 10.0), 1500.0, 3046.875, 24750.0),
    ];
    for ((n, m, l), reliable, mean, max) in rows {
        let r = taskswitch(n, m, l, 1);
        let got = (r.reliable, r.sequenced_mean, r.sequenced_max);
        assert_eq!(got, (reliable, mean, max), "N={n} M={m} L={l}");
    }
}

#[test]
fn e2_baseline_packets_and_bytes() {
    // (N, M) → (packets, bytes) of fan-out, fan-out + acks, sequencer 2PC.
    let cells = [
        (2, 100, [(2, 292), (4, 382), (9, 704)]),
        (4, 100, [(12, 1752), (24, 2292), (51, 3786)]),
        (8, 100, [(56, 8176), (112, 10696), (231, 16646)]),
        (16, 100, [(240, 35040), (480, 45840), (975, 69150)]),
        (2, 1024, [(2, 2142), (4, 2232), (9, 3479)]),
        (4, 1024, [(12, 12852), (24, 13392), (51, 17661)]),
        (8, 1024, [(56, 59976), (112, 62496), (231, 74921)]),
        (16, 1024, [(240, 257040), (480, 267840), (975, 305025)]),
    ];
    let labels = ["fan-out (unreliable)", "fan-out + acks", "sequencer 2PC"];
    for (n, m, want) in cells {
        let rows = netoverhead(n, m);
        assert_eq!(rows.len(), 4, "N={n} M={m}");
        for ((row, label), (packets, bytes)) in rows[1..].iter().zip(labels).zip(want) {
            assert_eq!(row.protocol, label, "N={n} M={m}");
            assert_eq!(
                (row.packets, row.bytes),
                (packets, bytes),
                "{label}, N={n} M={m}"
            );
        }
    }
}

//! A Rainwall firewall cluster under load, with a mid-run gateway
//! failure — the paper's §3.2 scenario end to end.
//!
//! Two gateways carry web traffic between eight clients and eight
//! servers; at t = 4 s one gateway dies; the virtual IPs move to the
//! survivor (gratuitous ARP) and the clients see only a short hiccup.
//!
//! ```bash
//! cargo run --release --example firewall_cluster
//! ```

use raincore::rainwall::{Scenario, ScenarioCfg};
use raincore::types::{Duration, NodeId, Time};

fn main() {
    let cfg = ScenarioCfg {
        gateways: 2,
        clients: 8,
        servers: 8,
        vips: 4,
        ..Default::default()
    };
    let mut s = Scenario::build(cfg).expect("scenario");

    println!("== warm-up and steady state ==");
    s.cluster.run_until(Time::ZERO + Duration::from_secs(4));
    let t = s.cluster.now();
    println!(
        "aggregate goodput: {:.1} Mbit/s over 2 gateways ({} downloads done)",
        s.goodput_mbps(t - Duration::from_secs(2), t),
        s.completed()
    );
    let mgr = s.gateway(NodeId(0)).expect("gateway 0").vip();
    println!("VIP assignment: {:?}", mgr.assignment());

    println!("\n== gateway 1 fails ==");
    s.cluster.crash(NodeId(1));
    let t_crash = s.cluster.now();
    s.cluster.run_until(t_crash + Duration::from_secs(4));

    let t = s.cluster.now();
    println!(
        "post-failover goodput: {:.1} Mbit/s on the single survivor",
        s.goodput_mbps(t - Duration::from_secs(2), t)
    );
    println!("flows retried during the hiccup: {}", s.retries());
    let mgr = s.gateway(NodeId(0)).expect("gateway 0").vip();
    println!("VIP assignment after failover: {:?}", mgr.assignment());
    assert!(mgr.assignment().values().all(|&n| n == NodeId(0)));
    println!("\nevery virtual IP now answers from gateway 0 — no client lost its service.");

    // Firewall + engine counters.
    for &g in &s.gateway_ids {
        let st = s.gateway(g).expect("gateway").stats();
        println!(
            "gateway {g}: {} requests, {} proxied, {} handed off, {:.1} MB to clients",
            st.requests,
            st.proxied,
            st.handed_off,
            st.bytes_to_clients as f64 / 1e6
        );
    }
}

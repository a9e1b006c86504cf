//! The benchmark's contract in one place: the workloads, the end-to-end
//! metrics with their regression bounds, and the per-layer metrics.
//! `--catalogue` prints it as the repository's `BENCHMARK.json`, so the
//! file and the program cannot drift apart.

/// `(name, why)`.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "udp_small",
        "3 nodes, 64 B Agreed, closed loop: per-message cost and token pacing dominate; bulk and fragmentation do nothing",
    ),
    (
        "udp_bulk",
        "3 nodes, 8 KiB payloads out of band: transport fragmentation and acks, bulk store and net batching do most of the work",
    ),
    (
        "udp_paced_mix",
        "5 nodes, open loop at three frozen rates, Agreed inline and oob beside Safe beside master-lock traffic: load that does not slow when the system does",
    ),
    (
        "udp_failover",
        "4 nodes through a proxy, one member unplugged and replugged in cycles: failure-on-delivery, 911 regeneration, discovery and merge",
    ),
    (
        "sim_core",
        "8 simulated nodes with lock, data and VIP managers, a crash and a restart: wall time is pure CPU and every count repeats exactly",
    ),
];

/// `(name, unit, better, bound)`.
pub const END_TO_END: [(&str, &str, &str, f64); 10] = [
    ("setup_s", "s", "lower", 0.25),
    ("delivered_per_s", "1/s", "higher", 0.1),
    ("lat_p50_ms", "ms", "lower", 0.1),
    ("lat_p99_ms", "ms", "lower", 0.2),
    ("safe_lat_p50_ms", "ms", "lower", 0.1),
    ("lock_acquire_p50_ms", "ms", "lower", 0.25),
    ("max_rate_ok_per_s", "1/s", "higher", 0.25),
    ("outage_p50_ms", "ms", "lower", 0.15),
    ("cpu_ms_per_kdelivery", "ms", "lower", 0.25),
    ("wire_packets_per_delivery", "count", "lower", 0.15),
];

/// `(name, unit, better)`. A metric a workload does not produce reads 0.
pub const PER_LAYER: [(&str, &str, &str); 65] = [
    ("runtime.submit_call_us_p50", "us", "lower"),
    ("runtime.cpu_ms_per_kdelivery", "ms", "lower"),
    ("runtime.idle_wait_share", "ratio", "lower"),
    ("runtime.recv_wait_share", "ratio", "lower"),
    ("runtime.loop_iters_per_delivery", "count", "lower"),
    ("runtime.event_handoff_us_p50", "us", "lower"),
    ("net.syscalls_per_packet", "ratio", "lower"),
    ("net.packets_per_delivery", "count", "lower"),
    ("net.send_batch_mean", "count", "higher"),
    ("net.recv_batch_mean", "count", "higher"),
    ("net.send_dropped", "count", "lower"),
    ("net.flush_us_p50", "us", "lower"),
    ("net.recv_call_us_p50", "us", "lower"),
    ("transport.frames_per_delivery", "count", "lower"),
    ("transport.acks_per_delivery", "count", "lower"),
    ("transport.retx_per_kdelivery", "count", "lower"),
    ("transport.dups_per_kdelivery", "count", "lower"),
    ("transport.msgs_failed", "count", "lower"),
    ("transport.rtt_p50_us", "us", "lower"),
    ("session.token_rotation_p50_us", "us", "lower"),
    ("session.tokens_per_s", "1/s", "higher"),
    ("session.deliveries_per_token", "count", "higher"),
    ("session.task_switches_per_delivery", "count", "lower"),
    ("session.hungry_wait_p50_us", "us", "lower"),
    ("session.token_bytes_p50", "B", "lower"),
    ("session.body_cache_hit_ratio", "ratio", "higher"),
    ("session.safe_held_back", "count", "lower"),
    ("session.on_datagram_us_p50.token", "us", "lower"),
    ("session.on_datagram_us_p50.bulk", "us", "lower"),
    ("session.on_datagram_us_p50.ack", "us", "lower"),
    ("session.on_tick_us_p50", "us", "lower"),
    ("session.regens_911", "count", "lower"),
    ("session.calls_911", "count", "lower"),
    ("session.merges", "count", "lower"),
    ("bulk.frames_per_delivery", "count", "lower"),
    ("bulk.nacks_per_kdelivery", "count", "lower"),
    ("bulk.dups_per_kdelivery", "count", "lower"),
    ("types.token_decode_ns_p50", "ns", "lower"),
    ("types.token_encode_ns_p50", "ns", "lower"),
    ("sim.sim_s_per_wall_s", "ratio", "higher"),
    ("sim.steps_per_wall_s", "1/s", "higher"),
    ("sim.packets_per_delivery", "count", "lower"),
    ("sim.wire_bytes_per_delivery", "B", "lower"),
    ("sim.token_hops_per_delivery", "count", "lower"),
    ("dlm.grant_sim_ms_p50", "ms", "lower"),
    ("data.ops_applied", "count", "higher"),
    ("vip.reassign_sim_ms", "ms", "lower"),
    ("load.gen_late_p99_ms", "ms", "lower"),
    ("load.lat_p99_ms.low", "ms", "lower"),
    ("load.lat_p99_ms.high", "ms", "lower"),
    ("load.max_rate_step", "count", "higher"),
    ("load.outage_max_ms", "ms", "lower"),
    ("load.rejoin_p50_ms", "ms", "lower"),
    ("load.rejoin_max_ms", "ms", "lower"),
    ("load.lock_skipped", "count", "lower"),
    ("load.samples", "count", "higher"),
    ("load.lat_tail_percentile", "%", "higher"),
    ("load.lat_tail_ms", "ms", "lower"),
    ("load.sim_passes", "count", "higher"),
    ("load.stand_ins", "count", "lower"),
    ("trace.drift_ratio", "ratio", "higher"),
    ("trace.coverage_ratio", "ratio", "higher"),
    ("check.attempted", "count", "higher"),
    ("check.failed", "count", "lower"),
    ("check.breaches", "count", "lower"),
];

/// `BENCHMARK.json`, exactly the keys the contract names.
pub fn benchmark_json(run_seconds: u64) -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|(name, unit, better, bound)| {
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!("    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}")
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {run_seconds},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

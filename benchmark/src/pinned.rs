//! The pinned configuration. Every value the workloads depend on is a
//! literal here, never a program default, so a perf PR that changes a
//! default cannot silently change what the benchmark measures. The only
//! defaults taken are `TransportConfig::default()` (50 ms x 3, MTU 1400)
//! and `BatchConfig::default()`, which the issue pins by name.

use raincore_types::{Duration, SessionConfig};

pub const TOKEN_HOLD_MS: u64 = 2;
pub const HUNGRY_TIMEOUT_MS: u64 = 400;
pub const STARVING_RETRY_MS: u64 = 150;
pub const BEACON_PERIOD_MS: u64 = 100;
pub const BULK_THRESHOLD: usize = 512;

/// Session configuration of every member of an `n`-node cluster, UDP and
/// simulated alike.
pub fn session_config(n: u32) -> SessionConfig {
    SessionConfig {
        token_hold: Duration::from_millis(TOKEN_HOLD_MS),
        hungry_timeout: Duration::from_millis(HUNGRY_TIMEOUT_MS),
        starving_retry: Duration::from_millis(STARVING_RETRY_MS),
        beacon_period: Duration::from_millis(BEACON_PERIOD_MS),
        bulk_threshold: BULK_THRESHOLD,
        ..SessionConfig::for_cluster(n)
    }
}

/// Share of `--seconds` spent warming up before the measured window.
pub const WARMUP_SHARE: f64 = 0.1;
/// How long after the window the checker waits for stragglers.
pub const DRAIN_DEADLINE_MS: u64 = 4000;
/// `cpu_ms_per_kdelivery` is the median over slices of the window, so
/// that one burst of host interference moves one slice: a closed loop's
/// window is cut into `METER_SLICES` equal ones, each rate step of
/// `udp_paced_mix` into `METER_SLICES_PER_STEP`, and `udp_failover`'s
/// slices are its unplug cycles.
pub const METER_SLICES: u64 = 15;
pub const METER_SLICES_PER_STEP: u64 = 5;
/// Clusters set up per run; `setup_s` is the median, the last one runs
/// the workload.
pub const SETUPS_PER_RUN: usize = 21;

// ---- closed-loop workloads -------------------------------------------
pub const SMALL_NODES: u32 = 3;
pub const SMALL_LEN: u32 = 64;
pub const SMALL_WINDOW: usize = 16;
pub const BULK_NODES: u32 = 3;
pub const BULK_LEN: u32 = 8192;
pub const BULK_WINDOW: usize = 8;

// ---- udp_paced_mix ----------------------------------------------------
pub const MIX_NODES: u32 = 5;
/// Offered load of the three steps, msgs/s, frozen on the seed commit at
/// about 10 / 40 / 80 % of the measured saturation rate (see README).
pub const MIX_RATES: [f64; 3] = [1000.0, 4000.0, 8000.0];
/// Latency limit on the sliced p99 of a step, ms: 4 x the seed commit's
/// `low` p50, rounded (see README).
pub const MIX_P99_LIMIT_MS: f64 = 50.0;
pub const MIX_SMALL_LEN: u32 = 64;
pub const MIX_OOB_LEN: u32 = 2048;
pub const MIX_SAFE_LEN: u32 = 256;
/// Per-mille shares of the mix: 64 B Agreed, 2 KiB Agreed, 256 B Safe.
pub const MIX_SHARES: [u32; 3] = [700, 200, 100];
pub const MIX_LOCK_PERIOD_MS: u64 = 20;
/// Backlog (accepted, not yet delivered at the timing member) may grow
/// over a step by at most what arrives in this many ms at the step's rate
/// (a few token rotations' worth, which it fluctuates by anyway) for the
/// step to count as keeping up.
pub const MIX_BACKLOG_SLACK_MS: f64 = 50.0;

// ---- udp_failover -----------------------------------------------------
pub const FAILOVER_NODES: u32 = 4;
pub const FAILOVER_LEN: u32 = 64;
/// Scheduled rate of each of the two submitting nodes, msgs/s.
pub const FAILOVER_RATE_PER_ORIGIN: u64 = 400;
/// A cycle: the unplug at an instant drawn from its first
/// `FAILOVER_JITTER_MS` (many token rotations, so the token's position at
/// the unplug is random), `FAILOVER_DOWN_MS` unplugged (longer than the
/// slowest outage, a lost token: hungry_timeout + 911, about 560 ms),
/// then `FAILOVER_CALM_MS` plugged (rejoin takes about 15 ms).
pub const FAILOVER_JITTER_MS: u64 = 100;
pub const FAILOVER_DOWN_MS: u64 = 700;
pub const FAILOVER_CALM_MS: u64 = 300;
/// Messages due this long after a replug, until the next unplug, are the
/// calm ones the workload's latency is read from.
pub const FAILOVER_SETTLE_MS: u64 = 100;

// ---- sim_core ---------------------------------------------------------
pub const SIM_NODES: u32 = 8;
pub const SIM_SECONDS: u64 = 60;
pub const SIM_MSG_LEN: u32 = 128;
pub const SIM_MSG_PER_S: f64 = 50.0;
pub const SIM_DATA_OPS_PER_S: f64 = 20.0;
pub const SIM_LOCK_OPS_PER_S: f64 = 5.0;
pub const SIM_CRASH_NODE: u32 = 5;
pub const SIM_CRASH_AT_S: u64 = 20;
/// The crash node's script ends this long before the crash, so that
/// nothing it was handed dies with it.
pub const SIM_CRASH_QUIET_MS: u64 = 200;
pub const SIM_RESTART_AT_S: u64 = 30;
pub const SIM_VIPS: u32 = 16;
/// Times the scenario is at least repeated within one run.
pub const SIM_MIN_REPEATS: usize = 3;

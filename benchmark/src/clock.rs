//! The benchmark's one clock and its CPU meter. Timestamps come from
//! `raincore_obs::StageClock::monotonic()` (ns since the first reading),
//! shared by every thread so that instants compare across threads.

use raincore_obs::StageClock;
use std::sync::OnceLock;

pub fn now_ns() -> u64 {
    static CLOCK: OnceLock<StageClock> = OnceLock::new();
    CLOCK.get_or_init(StageClock::monotonic).now_ns()
}

/// Sleeps until the clock reads `t_ns` (returns at once if it already
/// does).
pub fn sleep_until(t_ns: u64) {
    let now = now_ns();
    if t_ns > now {
        std::thread::sleep(std::time::Duration::from_nanos(t_ns - now));
    }
}

/// CPU time used so far, ns, by the live threads of this process whose
/// name starts with one of `prefixes` (all threads if empty): the
/// scheduler's exact on-CPU time from `/proc/self/task/*/schedstat`. A
/// difference of two readings is exact only if no such thread ended
/// between them; the drivers read at the window's two edges, when every
/// cluster thread is alive. On a kernel without schedstat it falls back
/// to the whole process's utime + stime (`/proc/self/stat`, 10 ms ticks).
pub fn cpu_ns(prefixes: &[&str]) -> u64 {
    let exact: u64 = std::fs::read_dir("/proc/self/task")
        .into_iter()
        .flatten()
        .flatten()
        .filter(|task| {
            let name = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
            prefixes.is_empty() || prefixes.iter().any(|p| name.starts_with(p))
        })
        .filter_map(|task| std::fs::read_to_string(task.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum();
    if exact > 0 {
        return exact;
    }
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields 14 and 15, counted after the parenthesised command name.
    let ticks: u64 = stat
        .rsplit(')')
        .next()
        .map(|rest| {
            rest.split_whitespace()
                .skip(11)
                .take(2)
                .filter_map(|f| f.parse::<u64>().ok())
                .sum()
        })
        .unwrap_or(0);
    ticks * 10_000_000
}

/// Thread-name prefixes of the program's driver threads: `RuntimeNode`'s
/// and the traced mirror's (`comm` holds the first 15 bytes).
pub const DRIVER_THREADS: [&str; 2] = ["raincore-node", "mirror-node"];

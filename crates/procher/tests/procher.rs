//! End-to-end tests of the `procher` binary: real processes, real UDP
//! sockets, the loss proxy in between.
//!
//! Every test first probes whether this environment allows spawning
//! subprocesses at all (some sandboxes forbid it); if not, the tests
//! pass vacuously with a note, mirroring the binary's exit-77 skip
//! convention. The heavy tests serialize on a mutex: the harness is
//! wall-clock timed and co-scheduling two clusters on a small machine
//! would manufacture spurious starvation.

use std::process::Command;
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

fn exe() -> &'static str {
    env!("CARGO_BIN_EXE_procher")
}

fn tracectl_exe() -> &'static str {
    env!("CARGO_BIN_EXE_tracectl")
}

fn spawn_allowed() -> bool {
    Command::new(exe())
        .arg("--probe")
        .status()
        .map(|s| s.success())
        .unwrap_or(false)
}

fn out_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("procher-test-{tag}-{}", std::process::id()))
}

/// Runs the binary, asserting success while honoring the skip code.
fn run_ok(args: &[&str]) {
    let out = Command::new(exe())
        .args(args)
        .output()
        .expect("run procher");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    if out.status.code() == Some(77) {
        eprintln!("procher skipped itself (subprocess spawn forbidden)");
        return;
    }
    assert!(
        out.status.success(),
        "procher {args:?} failed ({:?}):\n{stdout}\n{stderr}",
        out.status.code()
    );
}

#[test]
fn procher_smoke_converges_under_loss() {
    if !spawn_allowed() {
        eprintln!("skipping: subprocess spawn forbidden here");
        return;
    }
    let _guard = SERIAL.lock().unwrap();
    let dir = out_dir("smoke");
    run_ok(&[
        "--seed",
        "3",
        "--nodes",
        "3",
        "--ticks",
        "200",
        "--loss",
        "0.05",
        "--out-dir",
        dir.to_str().unwrap(),
    ]);
    // The run leaves a human-readable report plus per-node exports.
    let report = std::fs::read_to_string(dir.join("report.txt")).expect("report.txt");
    assert!(report.contains("converged=true"), "{report}");
    assert!(dir.join("node-0.export").exists());
}

/// A child has one NIC. A fault on a second one is refused before
/// anything is spawned — not turned into a whole-node unplug that the
/// engine's one-NIC belief would not see.
#[test]
fn procher_refuses_a_fault_on_a_second_nic() {
    if !spawn_allowed() {
        eprintln!("skipping: subprocess spawn forbidden here");
        return;
    }
    let out = Command::new(exe())
        .args(["--fault", "@10 nic-down n1.1"])
        .output()
        .expect("run procher");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("`@10 nic-down n1.1`: a procher child has one NIC"),
        "{stderr}"
    );
}

#[test]
fn procher_differential_sim_vs_real_has_zero_divergence() {
    if !spawn_allowed() {
        eprintln!("skipping: subprocess spawn forbidden here");
        return;
    }
    let _guard = SERIAL.lock().unwrap();
    let dir = out_dir("diff");
    run_ok(&[
        "--differential",
        "--nodes",
        "3",
        "--seed",
        "1",
        "--count",
        "3",
        "--out-dir",
        dir.to_str().unwrap(),
    ]);
    // tracectl merges the per-node export files the run left behind into
    // one cross-node waterfall: a full token lap is three consecutive
    // hops visiting all three real processes.
    let exports: Vec<String> = (0..3)
        .map(|i| dir.join(format!("node-{i}.export")).display().to_string())
        .collect();
    let out = Command::new(tracectl_exe())
        .args(&exports)
        .output()
        .expect("run tracectl");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("── circulation"), "{text}");
    let hops: Vec<(u64, u32)> = text
        .lines()
        .filter(|l| l.starts_with("hop "))
        .map(|l| {
            let mut it = l.split_whitespace();
            let hop = it.nth(1).unwrap().parse().unwrap();
            let node = it
                .next()
                .unwrap()
                .strip_prefix('n')
                .unwrap()
                .parse()
                .unwrap();
            (hop, node)
        })
        .collect();
    let full_lap = hops.windows(3).any(|w| {
        w[1].0 == w[0].0 + 1 && w[2].0 == w[1].0 + 1 && {
            let mut n: Vec<u32> = w.iter().map(|&(_, n)| n).collect();
            n.sort_unstable();
            n.dedup();
            n.len() == 3
        }
    });
    assert!(
        full_lap,
        "no full causal lap across the 3 processes:\n{text}"
    );
    // Each child also left its flight-recorder dump beside the export.
    for i in 0..3 {
        let flight =
            std::fs::read_to_string(dir.join(format!("node-{i}.flight"))).expect("flight file");
        assert!(flight.contains("last hop before dump: circ="), "{flight}");
    }
}

/// `tracectl` reads a sim chaos run's journal JSON too: the same CLI
/// renders the same waterfall format from either artifact source.
#[test]
fn tracectl_renders_sim_chaos_journal() {
    use raincore_sim::{Cluster, ClusterConfig};
    use raincore_types::{Duration as VDuration, Time};

    if !spawn_allowed() {
        eprintln!("skipping: subprocess spawn forbidden here");
        return;
    }
    let ccfg = ClusterConfig {
        session: raincore_procher::fast_profile(4),
        ..ClusterConfig::default()
    };
    let mut c = Cluster::founding(4, ccfg).unwrap();
    c.run_until(Time::ZERO + VDuration::from_secs(1));
    let holder = c.eating_nodes().pop().expect("someone is eating");
    // A delivery on either side of the crash, so the outage has edges.
    let origin = c.live_members().into_iter().find(|&n| n != holder).unwrap();
    let payload = || bytes::Bytes::from_static(b"edge");
    c.multicast(origin, raincore_types::DeliveryMode::Agreed, payload())
        .unwrap();
    c.run_for(VDuration::from_millis(100));
    while !c.eating_nodes().contains(&holder) {
        c.run_for(VDuration::from_micros(100));
    }
    c.crash(holder);
    let t = c.now();
    c.run_until(t + VDuration::from_secs(2));
    c.multicast(origin, raincore_types::DeliveryMode::Agreed, payload())
        .unwrap();
    c.run_for(VDuration::from_millis(100));

    let dir = out_dir("tracectl-sim");
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("journal.json");
    std::fs::write(&journal, c.journal_json()).unwrap();

    let out = Command::new(tracectl_exe())
        .arg(journal.display().to_string())
        .output()
        .expect("run tracectl");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("── circulation"), "{text}");
    assert!(text.contains("CAUSE_911"), "{text}");
    assert!(text.contains("CAUSE_REGEN"), "{text}");

    // "Follow the token for 2 laps": 4 nodes in the selection, so the
    // lap filter renders exactly 8 hop lines.
    let out = Command::new(tracectl_exe())
        .arg(journal.display().to_string())
        .args(["--laps", "2"])
        .output()
        .expect("run tracectl");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    let hop_lines = text.lines().filter(|l| l.starts_with("hop ")).count();
    assert_eq!(hop_lines, 8, "{text}");

    // The fail-over budget of the same run, from the directory: one lost
    // token, one member that regenerated it, one row whose stage columns
    // add up to its total.
    let out = Command::new(tracectl_exe())
        .args(["outage", dir.to_str().unwrap()])
        .output()
        .expect("run tracectl outage");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines = text.lines();
    let header: Vec<&str> = lines.next().unwrap().split_whitespace().collect();
    assert_eq!(
        header[3..],
        [
            "quiet_ms",
            "wait_ms",
            "detect_ms",
            "vote_ms",
            "repair_ms",
            "resume_ms",
            "total_ms"
        ],
        "{text}"
    );
    let rows: Vec<Vec<&str>> = lines.map(|l| l.split_whitespace().collect()).collect();
    assert_eq!(rows.len(), 1, "{text}");
    assert_eq!(rows[0][2], "regen", "{text}");
    let ms: Vec<f64> = rows[0][3..].iter().map(|v| v.parse().unwrap()).collect();
    assert!((ms[..6].iter().sum::<f64>() - ms[6]).abs() < 0.01, "{text}");
    assert!(
        ms[1] > 0.0 && ms[2] > 0.0 && ms[3] > 0.0,
        "wait, detect and vote took time: {text}"
    );
}

/// The pinned chaos regression — bootstrap after total token-copy loss,
/// shrunk by the sim harness (`chaos_regression_total_copy_loss_bootstrap`)
/// — replayed over real sockets. Every node holding a token copy dies;
/// restarted survivors must bootstrap fresh groups and re-merge.
#[test]
fn procher_regression_total_copy_loss_bootstrap() {
    if !spawn_allowed() {
        eprintln!("skipping: subprocess spawn forbidden here");
        return;
    }
    let _guard = SERIAL.lock().unwrap();
    run_ok(&["--regression", "bootstrap"]);
}

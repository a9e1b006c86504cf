//! The loss proxy is one thread, however many nodes it stands in for.
//!
//! A single test on purpose: each integration-test file is its own
//! process, so no other test's proxy runs beside this one while it counts
//! the process's threads.

#[cfg(target_os = "linux")]
#[test]
fn a_four_node_proxy_runs_one_thread_and_drop_removes_it() {
    use raincore_procher::proxy::LossProxy;
    use raincore_types::NodeId;

    /// Threads of this process whose name starts with `procher-proxy`.
    fn proxy_threads() -> usize {
        std::fs::read_dir("/proc/self/task")
            .expect("read /proc/self/task")
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .filter(|comm| comm.starts_with("procher-proxy"))
            .count()
    }
    /// The count once it reads `want`, or after two seconds: a new thread
    /// names itself after it starts.
    fn settled(want: usize) -> usize {
        for _ in 0..200 {
            if proxy_threads() == want {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        proxy_threads()
    }

    assert_eq!(proxy_threads(), 0);
    let ids: Vec<NodeId> = (0..4).map(NodeId).collect();
    let proxy = LossProxy::bind(&ids, 7).expect("bind proxy");
    assert_eq!(settled(1), 1, "one pump thread for four nodes");
    drop(proxy);
    assert_eq!(settled(0), 0, "drop joins the pump");
}

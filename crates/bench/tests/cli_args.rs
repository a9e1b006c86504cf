//! An experiment binary refuses an argument it cannot use: it exits with
//! status 2 and a usage line instead of running on a default or on a
//! value that makes its table meaningless (`exp_taskswitch 0` divided by a
//! zero-second window; `exp_netoverhead abc` ran at 1024 bytes).

use std::process::Command;

fn refuses(bin: &str, arg: &[&str]) {
    let out = Command::new(bin).args(arg).output().expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {arg:?}: {stderr}");
    assert!(stderr.starts_with("usage: exp_"), "{bin} {arg:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{bin} {arg:?} ran anyway");
}

#[test]
fn exp_taskswitch_refuses_a_zero_window_and_garbage() {
    let bin = env!("CARGO_BIN_EXE_exp_taskswitch");
    for bad in [&["0"][..], &["abc"], &["-1"], &["1.5"], &["5", "6"]] {
        refuses(bin, bad);
    }
}

#[test]
fn exp_netoverhead_refuses_garbage_and_sizes_it_cannot_send() {
    let bin = env!("CARGO_BIN_EXE_exp_netoverhead");
    for bad in [&["abc"][..], &["0"], &["60001"], &["1k"]] {
        refuses(bin, bad);
    }
}

//! `pif_chaos search` refuses networks beyond `PifProtocol::MAX_PROCS`
//! with a typed error: a failing exit status and a message naming the
//! bound, never a panic.

use std::process::Command;

#[test]
fn search_refuses_an_oversize_topology() {
    let out = Command::new(env!("CARGO_BIN_EXE_pif_chaos"))
        .args(["search", "--topology", "chain:65537"])
        .output()
        .expect("pif_chaos runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("network of 65537 processors exceeds the 65536"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

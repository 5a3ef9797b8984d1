//! The bench crate's command-line tools refuse a malformed command line
//! before they record, measure or verify anything.

#[path = "../../../tests/support/refusal.rs"]
mod refusal;

use refusal::assert_refused;

#[test]
fn pif_trace_refuses_malformed_command_lines() {
    let exe = env!("CARGO_BIN_EXE_pif-trace");
    assert_refused(exe, &["record", "--seed", "7"], &[], "--seed");
    assert_refused(exe, &["record", "chain:3", "out.jsonl", "central-rand", "x"], &[], "seed");
    assert_refused(exe, &["record", "chain:3"], &[], "output path");
    assert_refused(exe, &["diff", "a.jsonl", "b.jsonl", "c.jsonl"], &[], "c.jsonl");
}

#[test]
fn exp_step_throughput_refuses_malformed_command_lines() {
    let exe = env!("CARGO_BIN_EXE_exp_step_throughput");
    assert_refused(exe, &["--extend"], &[], "--extend");
    assert_refused(exe, &["--duration", "abc"], &[], "--duration");
    assert_refused(exe, &["--check", "--engine", "gpu"], &[], "gpu");
}

#[test]
fn exp_net_throughput_refuses_malformed_command_lines() {
    let exe = env!("CARGO_BIN_EXE_exp_net_throughput");
    assert_refused(exe, &["--differentail"], &[], "--differentail");
    assert_refused(exe, &["--duration", "abc"], &[], "--duration");
    assert_refused(exe, &["--check", "--bench"], &[], "--bench");
}

#[test]
fn exp_verify_throughput_refuses_malformed_command_lines() {
    let exe = env!("CARGO_BIN_EXE_exp_verify_throughput");
    assert_refused(exe, &["--bogus"], &[], "--bogus");
    assert_refused(exe, &["--workers", "x"], &[], "--workers");
    assert_refused(exe, &[] as &[&str], &[("PIF_WORKERS", "zero")], "PIF_WORKERS");
}

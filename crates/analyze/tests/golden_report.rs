//! Byte pin: the clean-suite report `pif-analyze` prints equals the
//! committed `GOLDEN_analyze_report.json`, so any drift in the checks,
//! the probing or the JSON writer is a reviewed diff.

use std::process::Command;

#[test]
fn clean_suite_report_matches_the_golden_file() {
    let out = Command::new(env!("CARGO_BIN_EXE_pif-analyze")).output().expect("pif-analyze runs");
    assert!(out.status.success(), "pif-analyze failed: {}", String::from_utf8_lossy(&out.stderr));
    let golden = include_bytes!("../../../GOLDEN_analyze_report.json");
    assert!(
        out.stdout == golden,
        "pif-analyze output differs from GOLDEN_analyze_report.json"
    );
}

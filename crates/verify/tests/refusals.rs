//! `verify_exhaustive` refuses a malformed command line before any
//! search starts.

#[path = "../../../tests/support/refusal.rs"]
mod refusal;

#[test]
fn verify_exhaustive_refuses_malformed_command_lines() {
    let exe = env!("CARGO_BIN_EXE_verify_exhaustive");
    let cases: [(&[&str], &str); 4] = [
        (&["--tier-2"], "--tier-2"),
        (&["--workers", "x"], "--workers"),
        (&["--reduction", "some"], "some"),
        (&["--spill-demo", "--rss-ceiling-mb"], "--rss-ceiling-mb"),
    ];
    for (args, named) in cases {
        refusal::assert_refused(exe, args, &[], named);
    }
}

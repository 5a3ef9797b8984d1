//! `pif-analyze` refuses a malformed command line before it analyzes
//! anything.

#[path = "../../../tests/support/refusal.rs"]
mod refusal;

#[test]
fn pif_analyze_refuses_malformed_command_lines() {
    let exe = env!("CARGO_BIN_EXE_pif-analyze");
    let cases: [(&[&str], &str); 4] = [
        (&["--mutant"], "--mutant"),
        (&["--protocol"], "--protocol"),
        (&["--protocol", "--mutants"], "--protocol"),
        (&["pif"], "pif"),
    ];
    for (args, named) in cases {
        refusal::assert_refused(exe, args, &[], named);
    }
}

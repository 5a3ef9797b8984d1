//! `pif_chaos` refuses a malformed command line before it runs a
//! campaign or a search.

#[path = "../../../tests/support/refusal.rs"]
mod refusal;

#[test]
fn pif_chaos_refuses_malformed_command_lines() {
    let exe = env!("CARGO_BIN_EXE_pif_chaos");
    let cases: [(&[&str], &str); 6] = [
        (&["soak", "--topolgy", "ring:4"], "--topolgy"),
        (&["soak", "--json"], "--json"),
        (&["soak", "--churn-per-epoch", "x"], "--churn-per-epoch"),
        (&["search", "--root", "x"], "--root"),
        (&["bench", "--requests", "9"], "--requests"),
        (&["check"], "FILE"),
    ];
    for (args, named) in cases {
        refusal::assert_refused(exe, args, &[], named);
    }
}

//! `pif-serve` refuses a malformed command line before it serves
//! anything.

#[path = "../../../tests/support/refusal.rs"]
mod refusal;

#[test]
fn pif_serve_refuses_malformed_command_lines() {
    let exe = env!("CARGO_BIN_EXE_pif-serve");
    let cases: [(&[&str], &str); 8] = [
        (&["soak", "--shard", "3"], "--shard"),
        (&["soak", "--json"], "--json"),
        (&["soak", "--json", "--seed", "5"], "--json"),
        (&["soak", "--seed=5"], "--seed=5"),
        (&["soak", "--requests", "many"], "many"),
        (&["soak", "--transport", "pigeon"], "pigeon"),
        (&["bench", "--shards", "2"], "--shards"),
        (&["check", "a.json", "b.json"], "b.json"),
    ];
    for (args, named) in cases {
        refusal::assert_refused(exe, args, &[], named);
    }
    #[cfg(unix)]
    {
        use std::ffi::OsString;
        use std::os::unix::ffi::OsStringExt;
        let word = OsString::from_vec(vec![b'-', b'-', 0xFF]);
        refusal::assert_refused(exe, &[OsString::from("soak"), word], &[], "not valid Unicode");
    }
}

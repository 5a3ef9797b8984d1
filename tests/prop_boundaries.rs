//! Byte-boundary properties: every reader that takes a file, a spec or a
//! command line answers any input with a value or a typed error, never a
//! panic. Each file and spec reader gets arbitrary bytes and single-byte
//! mutations of a valid document, and each parsed row goes on to
//! `scenario()`, as `pif-serve check` and `pif_chaos check` do before they
//! replay it; the command-line parser gets word sequences drawn from a
//! pool of flags, values and junk.

use pif_suite::chaos;
use pif_suite::daemon::cli::{ArgError, Args};
use pif_suite::graph::Topology;
use pif_suite::serve::report as serve;
use proptest::prelude::*;

/// A valid one-row service envelope: the committed benchmark's first row.
fn service_doc() -> String {
    let (seed, rows) =
        serve::parse_envelope(include_str!("../BENCH_service_throughput.json")).unwrap();
    serve::envelope(seed, &rows[..1])
}

/// A valid one-row chaos envelope: the committed matrix's churned and
/// corrupted ring cell.
fn chaos_doc() -> String {
    let (seed, cells) = chaos::parse_envelope(include_str!("../BENCH_chaos_slo.json")).unwrap();
    chaos::envelope(seed, &cells[2..3])
}

/// Topology specs of every family, each parsing as written.
const SPECS: &[&str] = &[
    "chain:16",
    "ring:8",
    "star:5",
    "complete:4",
    "tree:15:2",
    "randtree:16:7",
    "grid:3x3",
    "torus:4x4",
    "hypercube:4",
    "lollipop:6:8",
    "caterpillar:5:2",
    "wheel:12",
    "bipartite:4x6",
    "petersen",
    "barbell:4:3",
    "random:16:0.1:2026",
];

/// `doc` with the byte at `pos` (modulo its length) replaced by `byte`.
fn mutate(doc: &str, pos: usize, byte: u8) -> String {
    let mut bytes = doc.as_bytes().to_vec();
    let at = pos % bytes.len();
    bytes[at] = byte;
    String::from_utf8_lossy(&bytes).into_owned()
}

fn check_service(text: &str) {
    if let Ok((_, rows)) = serve::parse_envelope(text) {
        for row in &rows {
            let _ = row.scenario();
        }
    }
}

fn check_chaos(text: &str) {
    if let Ok((_, cells)) = chaos::parse_envelope(text) {
        for cell in &cells {
            let _ = cell.scenario();
        }
    }
}

fn check_topology(spec: &str) {
    if let Ok(t) = Topology::parse(spec) {
        let _ = t.processors();
    }
}

#[test]
fn valid_documents_parse() {
    let (_, rows) = serve::parse_envelope(&service_doc()).unwrap();
    assert_eq!(rows.len(), 1);
    rows[0].scenario().unwrap();
    let (_, cells) = chaos::parse_envelope(&chaos_doc()).unwrap();
    assert_eq!(cells.len(), 1);
    cells[0].scenario().unwrap();
    for spec in SPECS {
        Topology::parse(spec).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn service_envelopes_answer_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        check_service(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn service_envelopes_answer_single_byte_mutations(pos in any::<usize>(), byte in any::<u8>()) {
        check_service(&mutate(&service_doc(), pos, byte));
    }

    #[test]
    fn chaos_envelopes_answer_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        check_chaos(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn chaos_envelopes_answer_single_byte_mutations(pos in any::<usize>(), byte in any::<u8>()) {
        check_chaos(&mutate(&chaos_doc(), pos, byte));
    }

    #[test]
    fn topology_specs_answer_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        check_topology(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn topology_specs_answer_single_byte_mutations(
        pick in any::<usize>(),
        pos in any::<usize>(),
        byte in any::<u8>(),
    ) {
        check_topology(&mutate(SPECS[pick % SPECS.len()], pos, byte));
    }
}

/// The words the command-line property draws argument vectors from:
/// declared flags, numbers, junk, `--`, `-h`, `--seed=1` and the empty
/// string.
const ARGV_POOL: &[&str] = &[
    "--seed", "--duration", "--out", "--check", "7", "-3", "0.25", "1e999", "abc", "FILE", "",
    "--", "-h", "--seed=1", "--bogus", "\u{0}",
];
const VALUED: &[&str] = &["--seed", "--duration", "--out"];
const SWITCHES: &[&str] = &["--check", "-h"];

/// Parses `words` as a command taking [`VALUED`], [`SWITCHES`] and two
/// positional words, then reads every flag and word back as a typed
/// value.
fn check_argv(words: &[&str]) -> Result<(), ArgError> {
    let args = Args::parse(words.iter().copied(), VALUED, SWITCHES, &["FILE", "OUT"])?;
    // An accepted command line holds no undeclared flag.
    let declared = |w: &&str| VALUED.contains(w) || SWITCHES.contains(w);
    assert!(words.iter().all(|w| !w.starts_with("--") || declared(w)), "{words:?}");
    args.get::<u64>("--seed")?;
    args.get_or::<f64>("--duration", 1.0)?;
    args.get::<String>("--out")?;
    args.switch("--check");
    args.positional_or::<String>(1, String::new())?;
    args.positional::<u32>(0)?;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn command_lines_answer_any_word_sequence(
        picks in prop::collection::vec(any::<usize>(), 0..10),
    ) {
        let words: Vec<&str> = picks.iter().map(|&i| ARGV_POOL[i % ARGV_POOL.len()]).collect();
        let _ = check_argv(&words);
    }
}

//! Property-based tests of the trace layer: a run recorded on a random
//! graph, from a random configuration, under a random daemon replays to a
//! bit-identical trace — same final configuration, same totals, same
//! per-phase metrics — and corrupted trace files fail with typed errors.
//! The reader answers arbitrary bytes, and every single-byte mutation of
//! a valid trace, with a trace or a typed error; the writer's bytes are
//! pinned against a committed recording.

use pif_bench::workloads::DaemonKind;
use pif_core::{initial, PifProtocol};
use pif_daemon::trace_io::{self, TraceError};
use pif_daemon::{
    Fanout, MetricsObserver, RecordedTrace, RunLimits, Simulator, StopPolicy, TraceRecorder,
};
use pif_graph::{generators, Graph, ProcId, Topology};
use proptest::prelude::*;

/// `pif-trace record chain:3 OUT central-rand 7 24`, as written by the
/// trace writer before it moved onto the shared JSON codec.
const PINNED_TRACE: &str = include_str!("fixtures/trace_chain3_central_rand_7.jsonl");

/// Records a run of at most `limit` steps of the PIF protocol on `g`, as
/// `pif-trace record` does.
fn record_on(g: Graph, cseed: u64, kind: DaemonKind, dseed: u64, limit: u64) -> RecordedTrace {
    let protocol = PifProtocol::new(ProcId(0), &g);
    let init = initial::random_config(&g, &protocol, cseed);
    let limits = RunLimits::new(limit, limit);
    let n = g.len();
    let mut sim = Simulator::builder(g, protocol.clone()).states(init).limits(limits).build();
    let mut metrics = MetricsObserver::for_protocol(&protocol, n);
    let mut recorder = TraceRecorder::start(&sim, kind.name(), dseed);
    let mut daemon = kind.build(n, dseed);
    let mut observers = Fanout::new(&mut metrics, &mut recorder);
    sim.run(daemon.as_mut(), &mut observers, StopPolicy::Limits(limits)).unwrap();
    recorder.finish(&sim, metrics.report())
}

/// Records one bounded run of the PIF protocol and returns the trace.
fn record(n: usize, p: f64, gseed: u64, cseed: u64, kind: DaemonKind, dseed: u64) -> RecordedTrace {
    record_on(generators::random_connected(n, p, gseed).unwrap(), cseed, kind, dseed, 400)
}

/// What `pif-trace replay` does with `text`: parse it and, if that
/// succeeds, replay it. Any answer but a panic is acceptable; a trace that
/// parses must also survive a write/read round trip unchanged.
fn answer(text: &str) -> Result<(), TestCaseError> {
    let Ok(trace) = RecordedTrace::from_jsonl(text) else { return Ok(()) };
    prop_assert_eq!(RecordedTrace::from_jsonl(&trace.to_jsonl()).ok(), Some(trace.clone()));
    if let Ok(g) = trace.graph() {
        if PifProtocol::check_size(g.len()).is_ok() {
            let _ = trace_io::replay(&trace, PifProtocol::new(ProcId(0), &g));
        }
    }
    Ok(())
}

fn daemon_kind(i: u8) -> DaemonKind {
    DaemonKind::ALL[i as usize % DaemonKind::ALL.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Record → serialize → parse → replay is the identity: the replayed
    /// trace (final configuration, totals, per-phase counters, every
    /// executed pair) equals the recording, and the JSONL bytes match.
    #[test]
    fn record_replay_roundtrips(
        n in 2usize..12,
        p in 0.0f64..0.4,
        gseed in any::<u64>(),
        cseed in any::<u64>(),
        dpick in any::<u8>(),
        dseed in any::<u64>(),
    ) {
        let trace = record(n, p, gseed, cseed, daemon_kind(dpick), dseed);

        // The JSONL encoding parses back to the same value.
        let text = trace.to_jsonl();
        let parsed = RecordedTrace::from_jsonl(&text).unwrap();
        prop_assert_eq!(&parsed, &trace);
        prop_assert_eq!(parsed.to_jsonl(), text.clone());

        // Replaying the recorded selections reproduces the run exactly —
        // including the per-phase metrics embedded in the footer.
        let g = trace.graph().unwrap();
        let protocol = PifProtocol::new(ProcId(0), &g);
        let replayed = trace_io::replay(&trace, protocol).unwrap();
        let diffs = trace_io::diff(&trace, &replayed);
        prop_assert!(diffs.is_empty(), "replay diverged: {diffs:?}");
        prop_assert_eq!(replayed.phases, trace.phases);
        prop_assert_eq!(replayed.to_jsonl(), text);
    }

    /// Any single corrupted line in a trace file surfaces as a typed
    /// [`TraceError`], never a panic or a silently wrong trace.
    #[test]
    fn corrupted_lines_are_typed_errors(
        gseed in any::<u64>(),
        cseed in any::<u64>(),
        line_pick in any::<usize>(),
    ) {
        let trace = record(6, 0.3, gseed, cseed, DaemonKind::CentralRandom, 7);
        let text = trace.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        let victim = line_pick % lines.len();
        let mut mangled: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
        mangled[victim] = "{\"not\": \"a trace line\"".to_string(); // unbalanced
        let err = RecordedTrace::from_jsonl(&mangled.join("\n")).unwrap_err();
        prop_assert!(
            matches!(err, TraceError::Parse { .. }),
            "expected Parse error, got {err:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes get a trace or a typed error, never a panic.
    #[test]
    fn arbitrary_bytes_are_answered(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        answer(&String::from_utf8_lossy(&bytes))?;
    }

    /// So does every single-byte mutation of a valid trace: a damaged
    /// number, bracket, quote or key.
    #[test]
    fn single_byte_mutations_are_answered(pos in any::<usize>(), byte in any::<u8>()) {
        let mut bytes = PINNED_TRACE.as_bytes().to_vec();
        let at = pos % bytes.len();
        bytes[at] = byte;
        answer(&String::from_utf8_lossy(&bytes))?;
    }
}

/// The writer's bytes are pinned: the same run recorded now must equal
/// the committed recording byte for byte, and read back to the same trace.
#[test]
fn recorded_trace_bytes_are_pinned() {
    let g = Topology::parse("chain:3").unwrap().build().unwrap();
    let trace = record_on(g, 7, DaemonKind::parse("central-rand").unwrap(), 7, 24);
    assert_eq!(trace.to_jsonl(), PINNED_TRACE);
    assert_eq!(RecordedTrace::from_jsonl(PINNED_TRACE).unwrap(), trace);
}

/// An edge endpoint past `u32::MAX` is a parse error, not an alias of an
/// in-range processor.
#[test]
fn out_of_range_edge_endpoint_is_a_parse_error() {
    let wide = PINNED_TRACE.replacen("\"edges\":[[0,1]", "\"edges\":[[4294967296,1]", 1);
    assert_ne!(wide, PINNED_TRACE);
    let err = RecordedTrace::from_jsonl(&wide).unwrap_err();
    assert!(matches!(err, TraceError::Parse { line: 1, .. }), "{err:?}");
    assert!(err.to_string().contains("edges"), "{err}");
}

/// A header field whose number breaks the JSON grammar is a parse error,
/// though no reader asks for the field.
#[test]
fn malformed_number_in_an_unread_field_is_a_parse_error() {
    let junk = PINNED_TRACE.replacen("\"daemon\"", "\"junk\":--1.2.3e,\"daemon\"", 1);
    assert_ne!(junk, PINNED_TRACE);
    let err = RecordedTrace::from_jsonl(&junk).unwrap_err();
    assert!(matches!(err, TraceError::Parse { line: 1, .. }), "{err:?}");
    assert!(err.to_string().contains("number"), "{err}");
}

#[test]
fn version_mismatch_is_a_typed_error() {
    let trace = record(4, 0.3, 1, 2, DaemonKind::Synchronous, 3);
    let mut text = trace.to_jsonl();
    text = text.replacen("\"version\":1", "\"version\":999", 1);
    // Parsing still works (forward-compatible header)…
    let parsed = RecordedTrace::from_jsonl(&text);
    match parsed {
        // …and either the parser or the replayer must flag the version.
        Err(TraceError::UnsupportedVersion { found }) => assert_eq!(found, 999),
        Ok(t) => {
            let g = t.graph().unwrap();
            let protocol = PifProtocol::new(ProcId(0), &g);
            let err = trace_io::replay(&t, protocol).unwrap_err();
            assert!(matches!(err, TraceError::UnsupportedVersion { found: 999 }), "{err:?}");
        }
        Err(other) => panic!("unexpected error: {other:?}"),
    }
}

#[test]
fn bad_state_token_is_a_typed_error() {
    let trace = record(4, 0.3, 5, 6, DaemonKind::Synchronous, 3);
    let mut bad = trace.clone();
    bad.init[0] = "Z:0:0:0:9".to_string();
    let g = bad.graph().unwrap();
    let protocol = PifProtocol::new(ProcId(0), &g);
    let err = trace_io::replay(&bad, protocol).unwrap_err();
    assert!(matches!(err, TraceError::BadState { proc: 0, .. }), "{err:?}");
}

#[test]
fn tampered_selection_is_a_divergence() {
    let trace = record(5, 0.3, 8, 9, DaemonKind::CentralRandom, 11);
    let mut bad = trace.clone();
    // Point the first recorded step at a processor that does not exist.
    assert!(!bad.steps.is_empty());
    bad.steps[0] = vec![(ProcId(u32::MAX), pif_daemon::ActionId(0))];
    let g = bad.graph().unwrap();
    let protocol = PifProtocol::new(ProcId(0), &g);
    let err = trace_io::replay(&bad, protocol).unwrap_err();
    assert!(matches!(err, TraceError::Divergence { step: 0, .. }), "{err:?}");
}

//! `pif-trace` refuses networks beyond `PifProtocol::MAX_PROCS` with a
//! typed error: exit status 2 and a message naming the bound, never a
//! panic.

use std::path::PathBuf;
use std::process::{Command, Output};

use pif_daemon::{ActionId, ActionSet, PhaseReport, Protocol, Simulator, TraceRecorder, View};
use pif_graph::generators;

fn pif_trace(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pif-trace")).args(args).output().expect("pif-trace runs")
}

fn scratch_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pif-trace-{name}-{}.jsonl", std::process::id()))
}

fn assert_refused(out: &Output) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("network of 65537 processors exceeds the 65536"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn record_refuses_an_oversize_topology() {
    let path = scratch_path("record-oversize");
    let out = pif_trace(&["record", "chain:65537", path.to_str().unwrap()]);
    assert_refused(&out);
    assert!(!path.exists(), "no trace is written");
}

/// A protocol without actions: its zero-step traces cover any network.
struct Idle;

impl Protocol for Idle {
    type State = u8;
    fn action_names(&self) -> &'static [&'static str] {
        &[]
    }
    fn enabled_actions(&self, _: View<'_, u8>) -> ActionSet {
        ActionSet::EMPTY
    }
    fn execute(&self, view: View<'_, u8>, _: ActionId) -> u8 {
        *view.me()
    }
}

#[test]
fn replay_refuses_a_trace_of_an_oversize_network() {
    let g = generators::chain(65_537).unwrap();
    let n = g.len();
    let sim = Simulator::new(g, Idle, vec![0; n]);
    let trace = TraceRecorder::start(&sim, "none", 0).finish(&sim, PhaseReport::default());
    let path = scratch_path("replay-oversize");
    trace.write_file(&path).unwrap();
    let out = pif_trace(&["replay", path.to_str().unwrap()]);
    std::fs::remove_file(&path).unwrap();
    assert_refused(&out);
}

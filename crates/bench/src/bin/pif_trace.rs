//! `pif-trace` — record, replay and diff PIF execution traces.
//!
//! ```text
//! pif-trace record <topology> <out.jsonl> [daemon] [seed] [max-steps]
//! pif-trace replay <in.jsonl> [out.jsonl]
//! pif-trace diff <a.jsonl> <b.jsonl>
//! ```
//!
//! * `record` runs the snap-PIF protocol from a seeded random initial
//!   configuration on `<topology>` (a [`Topology`] spec such as `chain:16`,
//!   `torus:4x4` or `random:64:0.1:7`) under the named daemon and writes
//!   the versioned JSONL trace.
//! * `replay` re-executes a trace step by step with validation on and
//!   reports whether the re-recorded trace (final configuration, totals
//!   and per-phase metrics included) is identical to the input.
//! * `diff` compares two trace files field by field.
//!
//! Exit status: `0` on success (and identical traces), `1` when `replay`
//! diverges-free but re-records a different trace or `diff` finds
//! differences, `2` on any [`BenchError`], a malformed command line
//! included.

use std::ffi::OsString;
use std::process::ExitCode;

use pif_bench::error::BenchError;
use pif_bench::workloads::DaemonKind;
use pif_core::{initial, PifProtocol};
use pif_daemon::cli::{ArgError, Args};
use pif_daemon::trace_io::{diff, replay};
use pif_daemon::{
    Fanout, MetricsObserver, PhaseTag, RecordedTrace, RunLimits, Simulator, StopPolicy,
    TraceRecorder,
};
use pif_graph::{ProcId, Topology};

const USAGE: &str = "usage:
  pif-trace record <topology> <out.jsonl> [daemon] [seed] [max-steps]
  pif-trace replay <in.jsonl> [out.jsonl]
  pif-trace diff <a.jsonl> <b.jsonl>

topologies: chain:N ring:N torus:WxH random:N:P:SEED ... (see pif-graph)
daemons:    sync central-seq central-rand dist-0.5 adversarial";

fn main() -> ExitCode {
    match run(std::env::args_os().skip(1)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("pif-trace: {e}");
            if matches!(e, BenchError::Usage(_)) {
                eprintln!("{USAGE}");
            }
            ExitCode::from(2)
        }
    }
}

/// Dispatches one invocation; `Ok(true)` means "success and identical".
fn run(mut argv: impl Iterator<Item = OsString>) -> Result<bool, BenchError> {
    match argv.next().map(|c| c.to_string_lossy().into_owned()).as_deref() {
        Some("record") => record(argv).map(|()| true),
        Some("replay") => replay_cmd(argv),
        Some("diff") => diff_cmd(argv),
        Some(other) => Err(BenchError::Usage(format!("unknown subcommand {other:?}"))),
        None => Err(BenchError::Usage("missing subcommand".into())),
    }
}

fn record(argv: impl Iterator<Item = OsString>) -> Result<(), BenchError> {
    let words = ["topology spec", "output path", "daemon", "seed", "max-steps"];
    let args = Args::parse(argv, &[], &[], &words)?;
    let topology: Topology = args.positional(0)?;
    let out: String = args.positional(1)?;
    let daemon_name: String = args.positional_or(2, "central-rand".into())?;
    let kind = DaemonKind::parse(&daemon_name)
        .ok_or(ArgError::BadValue { flag: "daemon".into(), value: daemon_name })?;
    let seed: u64 = args.positional_or(3, 42)?;
    let max_steps: u64 = args.positional_or(4, 20_000)?;

    if let Some(procs) = topology.processors() {
        PifProtocol::check_size(procs).map_err(BenchError::NetworkTooLarge)?;
    }
    let g = topology.build()?;
    let n = g.len();
    let protocol = PifProtocol::new(ProcId(0), &g);
    let init = initial::random_config(&g, &protocol, seed);
    let limits = RunLimits::new(max_steps, max_steps);
    let mut sim = Simulator::builder(g, protocol.clone()).states(init).limits(limits).build();
    let mut metrics = MetricsObserver::for_protocol(&protocol, n);
    let mut recorder = TraceRecorder::start(&sim, kind.name(), seed);
    let mut daemon = kind.build(n, seed);
    // Budget exhaustion is the normal way a PIF run ends (the root starts
    // a new wave forever), so the stop policy is Limits, not Fixpoint.
    let mut observers = Fanout::new(&mut metrics, &mut recorder);
    sim.run(daemon.as_mut(), &mut observers, StopPolicy::Limits(limits))?;
    let trace = recorder.finish(&sim, metrics.report());
    trace.write_file(&out)?;
    print_summary("recorded", &trace);
    Ok(())
}

fn replay_cmd(argv: impl Iterator<Item = OsString>) -> Result<bool, BenchError> {
    let args = Args::parse(argv, &[], &[], &["input path", "output path"])?;
    let trace = RecordedTrace::read_file(args.positional::<String>(0)?)?;
    let g = trace.graph()?;
    PifProtocol::check_size(g.len()).map_err(BenchError::NetworkTooLarge)?;
    let protocol = PifProtocol::new(ProcId(0), &g);
    let replayed = replay(&trace, protocol)?;
    // A `String` word always parses, so only its absence is an error.
    if let Ok(out) = args.positional::<String>(1) {
        replayed.write_file(out)?;
    }
    print_summary("replayed", &replayed);
    let lines = diff(&trace, &replayed);
    Ok(report_diff(&lines, "replay matches the recording"))
}

fn diff_cmd(argv: impl Iterator<Item = OsString>) -> Result<bool, BenchError> {
    let args = Args::parse(argv, &[], &[], &["first path", "second path"])?;
    let a = RecordedTrace::read_file(args.positional::<String>(0)?)?;
    let b = RecordedTrace::read_file(args.positional::<String>(1)?)?;
    let lines = diff(&a, &b);
    Ok(report_diff(&lines, "traces are identical"))
}

fn report_diff(lines: &[String], ok_msg: &str) -> bool {
    if lines.is_empty() {
        println!("{ok_msg}");
        return true;
    }
    for l in lines {
        println!("{l}");
    }
    false
}

fn print_summary(verb: &str, t: &RecordedTrace) {
    let (steps, rounds, moves) = t.totals;
    println!(
        "{verb} {} (n={}, daemon={}, seed={}): {steps} steps, {rounds} rounds, {moves} moves",
        t.graph_name, t.n, t.daemon, t.seed
    );
    let per_phase: Vec<String> = PhaseTag::ALL
        .iter()
        .map(|&tag| format!("{tag}={}", t.phases.rounds_of(tag)))
        .collect();
    println!("phase rounds: {}", per_phase.join(" "));
}

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
//! differences, `2` on any [`BenchError`].

use std::process::ExitCode;

use pif_bench::error::BenchError;
use pif_bench::workloads::DaemonKind;
use pif_core::{initial, PifProtocol};
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
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
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
fn run(args: &[String]) -> Result<bool, BenchError> {
    match args.first().map(String::as_str) {
        Some("record") => record(&args[1..]).map(|()| true),
        Some("replay") => replay_cmd(&args[1..]),
        Some("diff") => diff_cmd(&args[1..]),
        Some(other) => Err(BenchError::Usage(format!("unknown subcommand {other:?}"))),
        None => Err(BenchError::Usage("missing subcommand".into())),
    }
}

fn arg<'a>(args: &'a [String], i: usize, what: &str) -> Result<&'a str, BenchError> {
    args.get(i).map(String::as_str).ok_or_else(|| BenchError::Usage(format!("missing {what}")))
}

fn num(args: &[String], i: usize, default: u64, what: &str) -> Result<u64, BenchError> {
    match args.get(i) {
        None => Ok(default),
        Some(s) => {
            s.parse().map_err(|_| BenchError::Usage(format!("{what} {s:?} is not a number")))
        }
    }
}

fn record(args: &[String]) -> Result<(), BenchError> {
    let topology: Topology = arg(args, 0, "topology spec")?.parse()?;
    let out = arg(args, 1, "output path")?;
    let daemon_name = args.get(2).map_or("central-rand", String::as_str);
    let kind = DaemonKind::parse(daemon_name)
        .ok_or_else(|| BenchError::Usage(format!("unknown daemon {daemon_name:?}")))?;
    let seed = num(args, 3, 42, "seed")?;
    let max_steps = num(args, 4, 20_000, "max-steps")?;

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
    trace.write_file(out)?;
    print_summary("recorded", &trace);
    Ok(())
}

fn replay_cmd(args: &[String]) -> Result<bool, BenchError> {
    let input = arg(args, 0, "input path")?;
    let trace = RecordedTrace::read_file(input)?;
    let g = trace.graph()?;
    PifProtocol::check_size(g.len()).map_err(BenchError::NetworkTooLarge)?;
    let protocol = PifProtocol::new(ProcId(0), &g);
    let replayed = replay(&trace, protocol)?;
    if let Some(out) = args.get(1) {
        replayed.write_file(out)?;
    }
    print_summary("replayed", &replayed);
    let lines = diff(&trace, &replayed);
    Ok(report_diff(&lines, "replay matches the recording"))
}

fn diff_cmd(args: &[String]) -> Result<bool, BenchError> {
    let a = RecordedTrace::read_file(arg(args, 0, "first path")?)?;
    let b = RecordedTrace::read_file(arg(args, 1, "second path")?)?;
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

//! The repository benchmark: four workloads over the wave service and the
//! verifier, each driven only through the public API of the layer it
//! measures.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans-out PATH]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a separate traced run (and writes its spans to
//! `--spans-out`). Every metric is printed by name with its unit; the last
//! line of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. The exit code is 0 only when every
//! correctness gate passed.

mod serve;
mod stats;
mod trace;
mod verify;

use std::collections::BTreeMap;
use std::path::PathBuf;

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// End-to-end metrics and their units, printed by every `--trace 0` run.
const END_TO_END: [(&str, &str); 5] = [
    ("req_per_s", "1/s"),
    ("turnaround_p50_ms", "ms"),
    ("configs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics and their units, printed by every `--trace 1` run. A
/// layer a workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 44] = [
    ("core.moves_per_req.broadcast", "count"),
    ("core.moves_per_req.fok", "count"),
    ("core.moves_per_req.feedback", "count"),
    ("core.moves_per_req.cleaning", "count"),
    ("core.moves_per_req.correction", "count"),
    ("core.steps_per_req", "count"),
    ("core.rounds_per_req", "count"),
    ("daemon.select_ns_per_step", "ns"),
    ("engine.self_ns_per_step", "ns"),
    ("engine.ns_per_move", "ns"),
    ("core.overlay_ns_per_step", "ns"),
    ("daemon.metrics_ns_per_step", "ns"),
    ("soa.mask_ns", "ns"),
    ("soa.execute_ns", "ns"),
    ("net.tick_ns.executed", "ns"),
    ("net.tick_ns.delivered", "ns"),
    ("net.tick_ns.rejected", "ns"),
    ("net.tick_ns.heartbeat", "ns"),
    ("net.tick_ns.idle", "ns"),
    ("net.events_per_exec", "ratio"),
    ("net.delivered_frac", "ratio"),
    ("net.crc_rejected_per_req", "count"),
    ("net.stale_rejected_per_req", "count"),
    ("net.overflow_rejected_per_req", "count"),
    ("net.encode_ns", "ns"),
    ("net.decode_ns", "ns"),
    ("verify.states", "count"),
    ("verify.transitions", "count"),
    ("verify.visited_insert_new_ns", "ns"),
    ("verify.visited_insert_dup_ns", "ns"),
    ("verify.encode_ns", "ns"),
    ("verify.decode_ns", "ns"),
    ("verify.memo_build_s", "s"),
    ("serve.submit_ns", "ns"),
    ("serve.run_fixed_us", "us"),
    ("par.spawn_join_us", "us"),
    ("graph.build_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("trace.shadow_exact", "bool"),
    ("serve.unattributed_frac", "ratio"),
    ("ledger.cycle_rounds_p99", "rounds"),
    ("ledger.failed_frac", "ratio"),
    ("ledger.snap_violations", "count"),
    ("verify.pass_s", "s"),
];

/// What one run measured and how its correctness gates fared.
pub struct Outcome {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    gates: Vec<(&'static str, f64)>,
    notes: Vec<String>,
    metrics: Metrics,
}

impl Outcome {
    fn new(attempted: u64, failed: u64, problems: Vec<String>) -> Self {
        Outcome {
            attempted,
            failed,
            problems,
            gates: Vec::new(),
            notes: Vec::new(),
            metrics: Metrics::new(),
        }
    }

    /// Records a failed correctness gate.
    fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    /// Records a gate value for the report (its check is the caller's).
    fn gate(&mut self, name: &'static str, value: f64) {
        self.gates.push((name, value));
    }

    fn note(&mut self, note: String) {
        self.notes.push(note);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
        spans_out: get("--spans-out").ok().map(PathBuf::from),
    })
}

/// Peak resident set size of this process, MiB (`VmHWM`).
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn run(args: &Args) -> Result<(Outcome, Option<trace::Tracer>), String> {
    if let Some(spec) = serve::spec(&args.workload) {
        serve::run(&spec, args.seed, args.seconds, args.trace)
    } else if args.workload == verify::NAME {
        verify::run(args.seconds, args.trace)
    } else {
        Err(format!("unknown workload {:?}", args.workload))
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let (mut out, tracer) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    if !args.trace {
        match peak_rss_mib() {
            Some(v) => {
                out.metrics.insert("peak_rss_mib", v);
            }
            None => out.fail("cannot read VmHWM from /proc/self/status".into()),
        }
    }
    if let (Some(t), Some(path)) = (&tracer, &args.spans_out) {
        if let Err(e) = t.write_csv(path) {
            out.fail(format!("writing spans to {}: {e}", path.display()));
        }
    }

    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for name in out.metrics.keys() {
        if !declared.iter().any(|(d, _)| d == name) {
            out.problems.push(format!("undeclared metric {name}"));
            out.failed += 1;
        }
    }
    let mut json = Vec::new();
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for &(name, unit) in declared {
        let value = match out.metrics.get(name) {
            Some(v) => *v,
            None if args.trace => 0.0,
            None => {
                out.problems
                    .push(format!("end-to-end metric {name} was not measured"));
                out.failed += 1;
                continue;
            }
        };
        if !value.is_finite() {
            out.problems.push(format!("metric {name} is not finite"));
            out.failed += 1;
            continue;
        }
        println!("metric {name} = {value} {unit}");
        json.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    for (name, value) in &out.gates {
        println!("gate {name} = {value}");
    }
    for note in &out.notes {
        println!("note {note}");
    }
    for p in &out.problems {
        println!("FAILED {p}");
    }
    let correct = out.problems.is_empty() && out.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        json.join(", ")
    );
    std::process::exit(if correct { 0 } else { 1 });
}

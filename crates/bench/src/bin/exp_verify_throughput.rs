//! Emits exhaustive-checker throughput measurements as JSON on stdout,
//! and differentially asserts that the one-worker, N-worker and reduced
//! checkers return identical verdicts on every measured instance (the
//! tier-2 gate runs this as its verify smoke).
//!
//! Used to produce `BENCH_verify_throughput.json`:
//!
//! ```text
//! cargo run --release --bin exp_verify_throughput [-- --workers N] > BENCH_verify_throughput.json
//! ```
//!
//! Three families of rows:
//!
//! * `correction_bound` / `snap_safety` — the full product searches on
//!   the tier-1 instances, seeded from *every* configuration (the
//!   paper's arbitrary-initial-configuration quantifier);
//! * the same two checks on `chain3-mid` (root at the middle), where
//!   the reflection symmetry makes the quotient reduction bite on a
//!   product search;
//! * `snap_wave` — the reachable-wave check seeded from the single
//!   clean starting configuration, which is what scales to the n = 5
//!   instances (`chain5`, `ring5`) and `grid3x2`; `full_space_configs`
//!   on those rows is the configuration count the product search would
//!   have to seed, for the states-explored-vs-full-space ratio.
//!
//! Each row also measures `Reduction::Full` (connected-selection
//! partial-order reduction + symmetry quotient) on one worker:
//! `reduced_states_explored`, `reduced_states_per_sec`, and
//! `states_ratio` (full / reduced; 1.0 where the instance is rigid and
//! the quotient is trivial).
//!
//! The embedded `baseline_states_per_sec` figures are the pre-rewrite
//! single-threaded checker (commit 2ca1ba9: monolithic `HashSet`, no
//! guard memo, per-transition `enabled_into`), so `par1_vs_baseline`
//! tracks what the allocation-lean search alone bought on one core;
//! rows added later carry `null`.

use std::error::Error;
use std::process::ExitCode;

use pif_core::PifProtocol;
use pif_daemon::cli::Args;
use pif_daemon::json::{self, Json};
use pif_graph::{generators, Graph, ProcId};
use pif_verify::{Checker, Reduction, StateSpace};

/// Minimum wall-clock spent per measurement after the cold run.
const MIN_SECS: f64 = 0.3;

/// Pre-rewrite single-threaded throughput (states/sec), measured at
/// commit 2ca1ba9: (instance, check, `states_per_sec`).
const BASELINE: &[(&str, &str, f64)] = &[
    ("chain2", "correction_bound", 1_446_631.0),
    ("chain2", "snap_safety", 2_944_196.0),
    ("chain3", "correction_bound", 1_066_289.0),
    ("chain3", "snap_safety", 1_595_139.0),
    ("triangle", "correction_bound", 957_846.0),
    ("triangle", "snap_safety", 1_512_399.0),
];

#[derive(Clone, Debug, PartialEq)]
struct Summary {
    states_explored: u64,
    violation_count: u64,
    verified: bool,
    violations: String,
}

fn run_check(space: &StateSpace, checker: Checker, check: &str) -> Summary {
    match check {
        "correction_bound" => {
            let bound = 3 * u32::from(space.protocol().l_max()) + 3;
            let r = checker.check_correction_bound(space, bound);
            Summary {
                states_explored: r.states_explored,
                violation_count: r.violation_count,
                verified: r.verified(),
                violations: format!("{:?}", r.violations),
            }
        }
        "snap_safety" | "snap_wave" => {
            let r = if check == "snap_wave" {
                checker.check_snap_wave(space, true)
            } else {
                checker.check_snap_safety(space, true)
            };
            Summary {
                states_explored: r.states_explored,
                violation_count: r.violation_count,
                verified: r.verified(),
                violations: format!("{:?}", r.violations),
            }
        }
        other => panic!("unknown check {other}"),
    }
}

/// Measures steady-state throughput of `check` under `checker` on a
/// fresh space (the cold run, which includes the one-time guard-memo
/// build, is reported separately and excluded from the rate).
fn measure(graph: &Graph, root: ProcId, checker: Checker, check: &str) -> (Summary, f64) {
    let protocol = PifProtocol::new(root, graph);
    let space = StateSpace::new(graph.clone(), protocol);
    let summary = run_check(&space, checker, check); // cold: builds the memo
    let mut runs = 0u32;
    let t0 = std::time::Instant::now();
    loop {
        let warm = run_check(&space, checker, check);
        assert_eq!(warm, summary, "nondeterministic report on {check}");
        runs += 1;
        if t0.elapsed().as_secs_f64() >= MIN_SECS {
            break;
        }
    }
    let per_run = t0.elapsed().as_secs_f64() / f64::from(runs);
    let rate = summary.states_explored as f64 / per_run;
    (summary, rate)
}

/// The N-worker count: `--workers N`, else the `PIF_WORKERS` pin, else
/// the host parallelism. A benchmark run under a misread pin would report
/// the wrong engine configuration, so an invalid pin is refused rather
/// than ignored.
fn workers() -> Result<usize, Box<dyn Error>> {
    let args = Args::parse(std::env::args_os().skip(1), &["--workers"], &[], &[])?;
    let pinned = pif_par::workers_override()?;
    Ok(args.get("--workers")?.or(pinned).unwrap_or_else(pif_par::host_parallelism))
}

fn main() -> ExitCode {
    let workers = match workers() {
        Ok(workers) => workers,
        Err(e) => {
            eprintln!("exp_verify_throughput: {e}");
            return ExitCode::from(2);
        }
    };

    // (row name, graph, root, check)
    let rows: Vec<(&str, Graph, ProcId, &str)> = {
        let mut v = Vec::new();
        for check in ["correction_bound", "snap_safety"] {
            v.push(("chain2", generators::chain(2).unwrap(), ProcId(0), check));
            v.push(("chain3", generators::chain(3).unwrap(), ProcId(0), check));
            v.push(("triangle", generators::complete(3).unwrap(), ProcId(0), check));
            v.push(("chain3-mid", generators::chain(3).unwrap(), ProcId(1), check));
        }
        for (name, g, root) in [
            ("chain4", generators::chain(4).unwrap(), ProcId(0)),
            ("chain5", generators::chain(5).unwrap(), ProcId(0)),
            ("ring5", generators::ring(5).unwrap(), ProcId(0)),
            ("grid3x2", generators::grid(3, 2).unwrap(), ProcId(1)),
        ] {
            v.push((name, g, root, "snap_wave"));
        }
        v
    };

    let mut results = Vec::new();
    for (name, graph, root, check) in &rows {
        let (par1_sum, par1_rate) = measure(graph, *root, Checker::with_workers(1), check);
        let (parn_sum, parn_rate) = measure(graph, *root, Checker::with_workers(workers), check);
        let reduced = Checker::with_workers(1).with_reduction(Reduction::Full);
        let (red_sum, red_rate) = measure(graph, *root, reduced, check);
        assert_eq!(par1_sum, parn_sum, "{workers} workers diverged from one on {name}/{check}");
        assert_eq!(
            (par1_sum.violation_count, par1_sum.verified, &par1_sum.violations),
            (red_sum.violation_count, red_sum.verified, &red_sum.violations),
            "reduced engine verdict diverged on {name}/{check}"
        );
        assert!(par1_sum.verified, "{name}/{check} must verify");
        let config_count = {
            let protocol = PifProtocol::new(*root, graph);
            StateSpace::new(graph.clone(), protocol).config_count()
        };
        let baseline = BASELINE
            .iter()
            .find(|&&(i, c, _)| i == *name && c == *check)
            .map(|&(_, _, r)| r);
        let states_ratio = par1_sum.states_explored as f64 / red_sum.states_explored as f64;
        results.push(Json::obj([
            ("instance", (*name).into()),
            ("check", (*check).into()),
            ("states_explored", par1_sum.states_explored.into()),
            ("verified", par1_sum.verified.into()),
            ("full_space_configs", config_count.into()),
            ("par1_states_per_sec", Json::fixed(par1_rate, 0)),
            ("parN_states_per_sec", Json::fixed(parn_rate, 0)),
            ("reduced_states_explored", red_sum.states_explored.into()),
            ("reduced_states_per_sec", Json::fixed(red_rate, 0)),
            ("states_ratio", Json::fixed(states_ratio, 3)),
            ("baseline_states_per_sec", baseline.map(|b| Json::fixed(b, 0)).into()),
            ("par1_vs_baseline", baseline.map(|b| Json::fixed(par1_rate / b, 2)).into()),
            ("parN_vs_par1", Json::fixed(parn_rate / par1_rate, 2)),
        ]));
        eprintln!(
            "{name:>10} {check:<17} states {:>9}  par1 {:>9.0}/s  par{workers} {:>9.0}/s  reduced {:>9} (x{states_ratio:.2})",
            par1_sum.states_explored,
            par1_rate,
            parn_rate,
            red_sum.states_explored,
        );
    }
    let method = format!(
        "cargo run --release --bin exp_verify_throughput; per engine: fresh StateSpace, one cold run (builds the shared guard memo), then repeated runs for >= {MIN_SECS}s; rate = states_explored / steady-state run time. par1/parN = the owner-partitioned frontier search with 1 and N workers: keys are partitioned among owners (one for one worker, four per worker otherwise), each with its own lock-free table, and the workers of a threaded round claim owners until none is left (one worker runs inline, no spawns; product searches store non-seed states only, and the snap search counts the seeds whose root cannot open a wave instead of expanding them), reduced = one worker under Reduction::Full (connected-selection POR + symmetry quotient). snap_wave rows search the slice reachable from the clean starting configuration instead of seeding every configuration; full_space_configs is what the product search would seed. baseline = pre-rewrite single-threaded checker at commit 2ca1ba9 (null where that commit could not run the instance). Verdicts are asserted identical across worker counts and reductions before rates are published."
    );
    let header = [
        ("benchmark", "verify_throughput".into()),
        ("unit", "states_per_sec".into()),
        ("protocol", "PifProtocol (arbitrary-network snap PIF)".into()),
        ("method", method.into()),
        ("workers", workers.into()),
        ("host_parallelism", pif_par::host_parallelism().into()),
    ];
    print!("{}", json::write_envelope(&header, results));
    ExitCode::SUCCESS
}

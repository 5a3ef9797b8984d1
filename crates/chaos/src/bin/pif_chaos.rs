//! `pif-chaos` — churn/corruption soak driver and schedule searcher.
//!
//! ```text
//! pif-chaos soak   [--topology SPEC] [--seed X] [--epochs E]
//!                  [--requests N] [--initiators K] [--shards S]
//!                  [--daemon NAME] [--engine soa|aos] [--slo-k K]
//!                  [--churn-epochs E --churn-per-epoch M [--churn-seed X]]
//!                  [--corrupt-registers K] [--json PATH]
//! pif-chaos bench  [--seed X] [--out PATH]
//! pif-chaos check  FILE
//! pif-chaos search [--topology SPEC] [--root R] [--seed X]
//!                  [--generations G] [--population P] [--beam B]
//! ```
//!
//! * `soak` runs one SLO-graded campaign (see `pif_chaos::slo`), prints
//!   the availability grade, and fails on a snap violation or a
//!   steady-state SLO miss. `--engine` picks the step backend (default
//!   `soa`).
//! * `bench` sweeps {ring, grid, torus} × {clean, churn, churn+corrupt}
//!   and writes the versioned `BENCH_chaos_slo.json` envelope.
//! * `check` replays every cell in a recorded envelope from its seeds
//!   and verifies the deterministic fields are bit-identical.
//! * `search` runs the adversarial beam search for every Theorem 2 goal
//!   and tabulates the worst schedules found against the fixed-daemon
//!   panel and the theorem windows.

use std::error::Error;
use std::ffi::{OsStr, OsString};
use std::process::ExitCode;

use pif_chaos::{
    envelope, parse_envelope, run_campaign, search, CampaignConfig, ChaosError, ChurnSpec, Goal,
    SearchConfig,
};
use pif_core::PifProtocol;
use pif_daemon::cli::{ArgError, Args};
use pif_graph::{ProcId, Topology};
use pif_serve::{Engine, ServeDaemon};

fn main() -> ExitCode {
    let mut argv = std::env::args_os().skip(1);
    let command = argv.next();
    let result = match command.as_deref().and_then(OsStr::to_str) {
        Some("soak") => soak(argv),
        Some("bench") => bench(argv),
        Some("check") => check(argv),
        Some("search") => search_cmd(argv),
        _ => {
            eprintln!("usage: pif-chaos <soak|bench|check|search> [options]");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pif-chaos: {e}");
            ExitCode::FAILURE
        }
    }
}

fn campaign_from_args(args: &Args) -> Result<CampaignConfig, Box<dyn Error>> {
    let spec: String = args.get_or("--topology", "ring:8".into())?;
    let topology =
        Topology::parse(&spec).map_err(|e| ChaosError::Report(format!("bad topology: {e}")))?;
    let seed: u64 = args.get_or("--seed", 1)?;
    let mut cfg = CampaignConfig::new(topology, seed);
    cfg.epochs = args.get_or("--epochs", cfg.epochs)?;
    cfg.requests_per_epoch = args.get_or("--requests", cfg.requests_per_epoch)?;
    cfg.initiators = args.get_or("--initiators", cfg.initiators)?;
    cfg.shards = args.get_or("--shards", cfg.shards)?;
    cfg.slo_k = args.get_or("--slo-k", cfg.slo_k)?;
    cfg.corrupt_registers = args.get_or("--corrupt-registers", 0)?;
    cfg.daemon = ServeDaemon::parse(&args.get_or::<String>("--daemon", "synchronous".into())?)?;
    let engine_spec: String = args.get_or("--engine", Engine::default().name().into())?;
    cfg.engine = Engine::parse(&engine_spec)
        .ok_or(ArgError::BadValue { flag: "--engine".into(), value: engine_spec })?;
    let churn_epochs: u32 = args.get_or("--churn-epochs", 0)?;
    let per_epoch = args.get_or("--churn-per-epoch", 2)?;
    let churn_seed = args.get_or("--churn-seed", seed ^ 0xC0D9)?;
    if churn_epochs > 0 {
        cfg.churn = Some(ChurnSpec { epochs: churn_epochs, per_epoch, seed: churn_seed });
    }
    Ok(cfg)
}

fn print_cell(cell: &pif_chaos::ChaosCell) {
    println!(
        "{} [{}]: {} requests over {} epochs, {} ok / {} bad / {} shed ({} retired) / {} timed \
         out; churn {} applied {} refused; availability {:.3} post, {:.3} steady \
         (SLO {}·diameter); p50/p99 turnaround {}/{} steps; snap {} ({:.3}s)",
        cell.topology,
        cell.engine,
        cell.requests_total,
        cell.epochs,
        cell.completed_ok,
        cell.completed_bad,
        cell.shed_displaced + cell.shed_retired,
        cell.shed_retired,
        cell.timed_out,
        cell.churn_applied,
        cell.churn_skipped,
        cell.availability(),
        cell.steady_availability(),
        cell.slo_k,
        cell.p50_turnaround_steps,
        cell.p99_turnaround_steps,
        if cell.snap_ok { "ok" } else { "VIOLATED" },
        cell.elapsed_seconds,
    );
}

fn grade(cell: &pif_chaos::ChaosCell) -> Result<(), ChaosError> {
    if !cell.snap_ok {
        return Err(ChaosError::Report(format!(
            "{}: snap-stabilization violated",
            cell.topology
        )));
    }
    if cell.steady_within_slo != cell.steady_total {
        return Err(ChaosError::Report(format!(
            "{}: steady availability {}/{} misses the n/n bar",
            cell.topology, cell.steady_within_slo, cell.steady_total
        )));
    }
    Ok(())
}

fn soak(argv: impl Iterator<Item = OsString>) -> Result<(), Box<dyn Error>> {
    let valued = [
        "--topology", "--seed", "--epochs", "--requests", "--initiators", "--shards", "--slo-k",
        "--corrupt-registers", "--daemon", "--engine", "--churn-epochs", "--churn-per-epoch",
        "--churn-seed", "--json",
    ];
    let args = Args::parse(argv, &valued, &[], &[])?;
    let cfg = campaign_from_args(&args)?;
    let json: Option<String> = args.get("--json")?;
    let cell = run_campaign(&cfg)?;
    print_cell(&cell);
    if let Some(path) = json {
        std::fs::write(&path, envelope(cfg.seed, std::slice::from_ref(&cell)))
            .map_err(|e| ChaosError::Report(format!("cannot write {path}: {e}")))?;
        println!("[json written to {path}]");
    }
    Ok(grade(&cell)?)
}

/// The benchmark matrix: three families × {clean, churn, churn+corrupt};
/// the churn+corrupt cells run on the non-default `AoS` engine, so the
/// matrix exercises both backends.
fn bench_suite(seed: u64) -> Vec<CampaignConfig> {
    let families =
        [Topology::Ring { n: 8 }, Topology::Grid { w: 3, h: 3 }, Topology::Torus { w: 3, h: 3 }];
    let mut cells = Vec::new();
    for (i, topology) in families.into_iter().enumerate() {
        let base = CampaignConfig::new(topology, seed.wrapping_add(i as u64));
        cells.push(base.clone());
        let mut churned = base.clone();
        churned.churn = Some(ChurnSpec { epochs: 2, per_epoch: 2, seed: seed ^ 0xC0D9 });
        cells.push(churned.clone());
        let mut stormy = churned;
        stormy.corrupt_registers = 3;
        stormy.engine = Engine::Aos;
        cells.push(stormy);
    }
    cells
}

fn bench(argv: impl Iterator<Item = OsString>) -> Result<(), Box<dyn Error>> {
    let args = Args::parse(argv, &["--seed", "--out"], &[], &[])?;
    let seed: u64 = args.get_or("--seed", 2026)?;
    let out: String = args.get_or("--out", "BENCH_chaos_slo.json".into())?;
    let mut cells = Vec::new();
    for cfg in bench_suite(seed) {
        let cell = run_campaign(&cfg)?;
        print_cell(&cell);
        grade(&cell)?;
        cells.push(cell);
    }
    std::fs::write(&out, envelope(seed, &cells))
        .map_err(|e| ChaosError::Report(format!("cannot write {out}: {e}")))?;
    println!("[json written to {out}]");
    Ok(())
}

fn check(argv: impl Iterator<Item = OsString>) -> Result<(), Box<dyn Error>> {
    let path: String = Args::parse(argv, &[], &[], &["FILE"])?.positional(0)?;
    let text = std::fs::read_to_string(&path)
        .map_err(|e| ChaosError::Report(format!("cannot read {path}: {e}")))?;
    let (_, recorded) = parse_envelope(&text)?;
    let mut failures = 0usize;
    for cell in &recorded {
        let replayed = run_campaign(&cell.scenario()?)?;
        if replayed.deterministic_eq(cell) {
            println!("check {} (seed {}): ok", cell.topology, cell.seed);
        } else {
            failures += 1;
            eprintln!(
                "check {} (seed {}): MISMATCH (recorded {} ok / {} steps, replayed {} ok / {} \
                 steps)",
                cell.topology,
                cell.seed,
                cell.completed_ok,
                cell.total_steps,
                replayed.completed_ok,
                replayed.total_steps,
            );
        }
    }
    if failures > 0 {
        return Err(ChaosError::Report(format!(
            "{failures} of {} cells failed replay",
            recorded.len()
        ))
        .into());
    }
    println!("all {} cells replayed deterministically", recorded.len());
    Ok(())
}

fn search_cmd(argv: impl Iterator<Item = OsString>) -> Result<(), Box<dyn Error>> {
    let valued = ["--topology", "--root", "--seed", "--generations", "--population", "--beam"];
    let args = Args::parse(argv, &valued, &[], &[])?;
    let spec: String = args.get_or("--topology", "chain:6".into())?;
    let root_ix: usize = args.get_or("--root", 0)?;
    let seed: u64 = args.get_or("--seed", 7)?;
    let mut config = SearchConfig::default();
    config.generations = args.get_or("--generations", config.generations)?;
    config.population = args.get_or("--population", config.population)?;
    config.beam = args.get_or("--beam", config.beam)?;
    let topology =
        Topology::parse(&spec).map_err(|e| ChaosError::Report(format!("bad topology: {e}")))?;
    if let Some(procs) = topology.processors() {
        PifProtocol::check_size(procs).map_err(ChaosError::NetworkTooLarge)?;
    }
    let g = topology.build()?;
    if root_ix >= g.len() {
        return Err(ChaosError::Report(format!("--root {root_ix} outside {spec}")).into());
    }
    let root = ProcId::from_index(root_ix);
    let mut broke_a_bound = false;
    for goal in Goal::ALL {
        let r = search(goal, &g, root, seed, &config);
        println!(
            "search {spec} root {root_ix} {}: best {} rounds (bound {}, panel {} via {}), \
             correction {} rounds (window {}), {} schedules, {}",
            goal.name(),
            r.best_rounds,
            r.bound,
            r.baseline_rounds,
            r.baseline_daemon,
            r.best_corr_rounds,
            r.corr_bound,
            r.evaluations,
            if r.beats_panel() { "matches/beats panel" } else { "below panel" },
        );
        if !r.all_within_bounds {
            broke_a_bound = true;
            eprintln!("search {spec} {}: A SCHEDULE EXCEEDED A THEOREM WINDOW", goal.name());
        }
    }
    if broke_a_bound {
        return Err(ChaosError::Report("a searched schedule broke a theorem bound".into()).into());
    }
    Ok(())
}

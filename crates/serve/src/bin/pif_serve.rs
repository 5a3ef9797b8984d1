//! `pif-serve` — seeded load driver for the wave service.
//!
//! ```text
//! pif-serve soak  [--requests N] [--initiators K] [--shards S]
//!                 [--topology SPEC] [--seed X] [--daemon NAME]
//!                 [--engine soa|aos] [--transport mem|net]
//!                 [--net-drop R] [--net-dup R] [--net-reorder R]
//!                 [--net-corrupt R]
//!                 [--corrupt-after N --corrupt-registers K] [--json PATH]
//! pif-serve bench [--seed X] [--requests N] [--out PATH]
//! pif-serve check FILE
//! ```
//!
//! * `soak` runs one scenario (closed loop: the whole workload is
//!   enqueued, then drained), prints the ledger summary, and fails on a
//!   snap violation. `--engine` picks the shared-memory step backend
//!   (default `soa`). `--transport net` serves every lane over the lossy
//!   message-passing transport (`pif-net`), with per-link fault rates
//!   from the `--net-*` flags; `--json` replay recording stays
//!   mem-transport only (the envelope schema has no net section).
//! * `bench` sweeps {chain, torus, random} × n ∈ {16, 64, 256} and
//!   writes the versioned `BENCH_service_throughput.json` envelope.
//! * `check` replays every result in a recorded envelope from its seed
//!   and verifies the deterministic fields are bit-identical.

use std::error::Error;
use std::ffi::{OsStr, OsString};
use std::process::ExitCode;

use pif_daemon::cli::{ArgError, Args};
use pif_graph::Topology;
use pif_net::FaultPlan;
use pif_serve::report::{envelope, parse_envelope};
use pif_serve::{
    run_scenario, run_scenario_net, run_scenario_on, spread_initiators, Engine, NetLaneConfig,
    Scenario, ServeDaemon, ServeError, ServiceReport,
};

fn main() -> ExitCode {
    let mut argv = std::env::args_os().skip(1);
    let command = argv.next();
    let result = match command.as_deref().and_then(OsStr::to_str) {
        Some("soak") => soak(argv),
        Some("bench") => bench(argv),
        Some("check") => check(argv),
        _ => {
            eprintln!("usage: pif-serve <soak|bench|check> [options]");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pif-serve: {e}");
            ExitCode::FAILURE
        }
    }
}

fn soak(argv: impl Iterator<Item = OsString>) -> Result<(), Box<dyn Error>> {
    let valued = [
        "--requests", "--initiators", "--shards", "--topology", "--seed", "--daemon", "--engine",
        "--transport", "--net-drop", "--net-dup", "--net-reorder", "--net-corrupt",
        "--corrupt-after", "--corrupt-registers", "--json",
    ];
    let args = Args::parse(argv, &valued, &[], &[])?;
    let requests: u64 = args.get_or("--requests", 1000)?;
    let initiators: usize = args.get_or("--initiators", 4)?;
    let shards: usize = args.get_or("--shards", 2)?;
    let seed: u64 = args.get_or("--seed", 1)?;
    let spec: String = args.get_or("--topology", "torus:4x4".into())?;
    let topology =
        Topology::parse(&spec).map_err(|e| ServeError::Report(format!("bad topology: {e}")))?;
    let daemon = ServeDaemon::parse(&args.get_or::<String>("--daemon", "synchronous".into())?)?;
    let engine_spec: String = args.get_or("--engine", Engine::default().name().into())?;
    let engine = Engine::parse(&engine_spec)
        .ok_or(ArgError::BadValue { flag: "--engine".into(), value: engine_spec })?;
    let corrupt_after: Option<u64> = args.get("--corrupt-after")?;
    let corrupt_registers: usize = args.get_or("--corrupt-registers", 8)?;
    let json: Option<String> = args.get("--json")?;
    let plan = FaultPlan::fault_free()
        .drop_rate(args.get_or("--net-drop", 0.0)?)
        .duplicate_rate(args.get_or("--net-dup", 0.0)?)
        .reorder_rate(args.get_or("--net-reorder", 0.0)?)
        .corrupt_rate(args.get_or("--net-corrupt", 0.0)?);
    let net = match args.get_or::<String>("--transport", "mem".into())?.as_str() {
        "mem" => None,
        "net" => Some(NetLaneConfig { plan, ..NetLaneConfig::default() }),
        other => {
            let value = other.to_string();
            return Err(ArgError::BadValue { flag: "--transport".into(), value }.into());
        }
    };
    if net.is_some() && json.is_some() {
        return Err(ServeError::Report(
            "--json replay recording is mem-transport only; drop --transport net".into(),
        )
        .into());
    }

    // Counted from the spec rather than built, so `WaveService::new` can
    // refuse an oversize one before any graph exists (a count that
    // overflows is left to the build's own error).
    let n = match topology.processors() {
        Some(n) => n,
        None => topology.build()?.len(),
    };
    let scenario = Scenario {
        topology,
        initiators: spread_initiators(n, initiators),
        shards,
        seed,
        daemon,
        requests,
        fault: corrupt_after.map(|after| (after, corrupt_registers, seed ^ 0xFA17)),
    };
    let service = match net {
        Some(cfg) => run_scenario_net(&scenario, cfg)?,
        None => run_scenario_on(&scenario, engine)?,
    };
    let report = ServiceReport::capture(&service, scenario.fault);
    let s = &report.summary;
    let label = if net.is_some() { "net".to_string() } else { engine.to_string() };
    println!(
        "soak {spec} [{label}]: {} requests, {} ok, {} bad, {} timed out, {} casualties \
         ({} post-fault, {} post-fault ok) in {:.3}s ({:.0} req/s)",
        s.total,
        s.completed_ok,
        s.completed_bad,
        s.timed_out,
        s.casualties,
        s.post_fault_total,
        s.post_fault_ok,
        report.elapsed_seconds,
        report.requests_per_sec,
    );
    if let Some(path) = json {
        std::fs::write(&path, envelope(seed, std::slice::from_ref(&report)))
            .map_err(|e| ServeError::Report(format!("cannot write {path}: {e}")))?;
        println!("[json written to {path}]");
    }
    service.ledger().assert_snap()?;
    if scenario.fault.is_none() && !s.is_clean() {
        return Err(ServeError::Report(format!(
            "fault-free soak is not clean: {} bad, {} timed out",
            s.completed_bad, s.timed_out
        ))
        .into());
    }
    Ok(())
}

/// The benchmark sweep: three families at n ∈ {16, 64, 256}.
fn bench_suite(seed: u64) -> Vec<Topology> {
    vec![
        Topology::Chain { n: 16 },
        Topology::Chain { n: 64 },
        Topology::Chain { n: 256 },
        Topology::Torus { w: 4, h: 4 },
        Topology::Torus { w: 8, h: 8 },
        Topology::Torus { w: 16, h: 16 },
        Topology::Random { n: 16, p: 0.1, seed },
        Topology::Random { n: 64, p: 0.1, seed },
        Topology::Random { n: 256, p: 0.1, seed },
    ]
}

fn bench(argv: impl Iterator<Item = OsString>) -> Result<(), Box<dyn Error>> {
    let args = Args::parse(argv, &["--seed", "--requests", "--out"], &[], &[])?;
    let seed: u64 = args.get_or("--seed", 2026)?;
    let requests: u64 = args.get_or("--requests", 64)?;
    let out: String = args.get_or("--out", "BENCH_service_throughput.json".into())?;
    let mut results = Vec::new();
    for topology in bench_suite(seed) {
        let n = topology.build()?.len();
        let scenario = Scenario {
            topology,
            initiators: spread_initiators(n, 4),
            shards: 2,
            seed,
            daemon: ServeDaemon::Synchronous,
            requests,
            fault: None,
        };
        let service = run_scenario(&scenario)?;
        let report = ServiceReport::capture(&service, None);
        println!(
            "bench {}: {} ok / {} requests, {} steps, {:.0} req/s",
            report.topology,
            report.summary.completed_ok,
            report.requests,
            report.total_steps,
            report.requests_per_sec,
        );
        service.ledger().assert_snap()?;
        if !report.summary.is_clean() {
            return Err(ServeError::Report(format!(
                "bench scenario {} not clean",
                report.topology
            ))
            .into());
        }
        results.push(report);
    }
    std::fs::write(&out, envelope(seed, &results))
        .map_err(|e| ServeError::Report(format!("cannot write {out}: {e}")))?;
    println!("[json written to {out}]");
    Ok(())
}

fn check(argv: impl Iterator<Item = OsString>) -> Result<(), Box<dyn Error>> {
    let path: String = Args::parse(argv, &[], &[], &["FILE"])?.positional(0)?;
    let text = std::fs::read_to_string(&path)
        .map_err(|e| ServeError::Report(format!("cannot read {path}: {e}")))?;
    let (_, recorded) = parse_envelope(&text)?;
    let mut failures = 0usize;
    for r in &recorded {
        let replayed = ServiceReport::capture(&run_scenario(&r.scenario()?)?, r.fault);
        if replayed.deterministic_eq(r) {
            println!("check {}: ok", r.topology);
        } else {
            failures += 1;
            eprintln!(
                "check {}: MISMATCH (recorded {} ok / {} steps, replayed {} ok / {} steps)",
                r.topology,
                r.summary.completed_ok,
                r.total_steps,
                replayed.summary.completed_ok,
                replayed.total_steps,
            );
        }
    }
    if failures > 0 {
        return Err(ServeError::Report(format!(
            "{failures} of {} results failed replay",
            recorded.len()
        ))
        .into());
    }
    println!("all {} results replayed deterministically", recorded.len());
    Ok(())
}

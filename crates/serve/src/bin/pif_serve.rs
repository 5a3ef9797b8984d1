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

use std::process::ExitCode;

use pif_graph::Topology;
use pif_net::FaultPlan;
use pif_serve::report::{envelope, parse_envelope};
use pif_serve::{
    run_scenario, run_scenario_net, run_scenario_on, spread_initiators, Engine, NetLaneConfig,
    Scenario, ServeDaemon, ServeError, ServiceReport,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("soak") => soak(&args[1..]),
        Some("bench") => bench(&args[1..]),
        Some("check") => check(&args[1..]),
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

/// Pulls `--flag value` out of an option list (last occurrence wins).
fn opt<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.windows(2)
        .rev()
        .find(|w| w[0] == flag)
        .map(|w| w[1].as_str())
}

fn parse_num<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, ServeError> {
    match opt(args, flag) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| ServeError::Report(format!("bad value for {flag}: {v:?}"))),
    }
}

fn soak(args: &[String]) -> Result<(), ServeError> {
    let requests: u64 = parse_num(args, "--requests", 1000)?;
    let initiators: usize = parse_num(args, "--initiators", 4)?;
    let shards: usize = parse_num(args, "--shards", 2)?;
    let seed: u64 = parse_num(args, "--seed", 1)?;
    let spec = opt(args, "--topology").unwrap_or("torus:4x4");
    let topology =
        Topology::parse(spec).map_err(|e| ServeError::Report(format!("bad topology: {e}")))?;
    let daemon = ServeDaemon::parse(opt(args, "--daemon").unwrap_or("synchronous"))?;
    let engine_spec = opt(args, "--engine").unwrap_or(Engine::default().name());
    let engine = Engine::parse(engine_spec)
        .ok_or_else(|| ServeError::Report(format!("bad value for --engine: {engine_spec:?}")))?;
    let corrupt_after: Option<u64> = match opt(args, "--corrupt-after") {
        Some(v) => Some(
            v.parse()
                .map_err(|_| ServeError::Report(format!("bad value for --corrupt-after: {v:?}")))?,
        ),
        None => None,
    };
    let corrupt_registers: usize = parse_num(args, "--corrupt-registers", 8)?;
    let transport = opt(args, "--transport").unwrap_or("mem");
    let net = match transport {
        "mem" => None,
        "net" => Some(NetLaneConfig {
            plan: FaultPlan::fault_free()
                .drop_rate(parse_num(args, "--net-drop", 0.0)?)
                .duplicate_rate(parse_num(args, "--net-dup", 0.0)?)
                .reorder_rate(parse_num(args, "--net-reorder", 0.0)?)
                .corrupt_rate(parse_num(args, "--net-corrupt", 0.0)?),
            ..NetLaneConfig::default()
        }),
        other => {
            return Err(ServeError::Report(format!("bad value for --transport: {other:?}")))
        }
    };
    if net.is_some() && opt(args, "--json").is_some() {
        return Err(ServeError::Report(
            "--json replay recording is mem-transport only; drop --transport net".into(),
        ));
    }

    let n = topology.build()?.len();
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
    if let Some(path) = opt(args, "--json") {
        std::fs::write(path, envelope(seed, std::slice::from_ref(&report)))
            .map_err(|e| ServeError::Report(format!("cannot write {path}: {e}")))?;
        println!("[json written to {path}]");
    }
    service.ledger().assert_snap()?;
    if scenario.fault.is_none() && !s.is_clean() {
        return Err(ServeError::Report(format!(
            "fault-free soak is not clean: {} bad, {} timed out",
            s.completed_bad, s.timed_out
        )));
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

fn bench(args: &[String]) -> Result<(), ServeError> {
    let seed: u64 = parse_num(args, "--seed", 2026)?;
    let requests: u64 = parse_num(args, "--requests", 64)?;
    let out = opt(args, "--out").unwrap_or("BENCH_service_throughput.json");
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
            )));
        }
        results.push(report);
    }
    std::fs::write(out, envelope(seed, &results))
        .map_err(|e| ServeError::Report(format!("cannot write {out}: {e}")))?;
    println!("[json written to {out}]");
    Ok(())
}

fn check(args: &[String]) -> Result<(), ServeError> {
    let path = args
        .first()
        .ok_or_else(|| ServeError::Report("usage: pif-serve check FILE".into()))?;
    let text = std::fs::read_to_string(path)
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
        )));
    }
    println!("all {} results replayed deterministically", recorded.len());
    Ok(())
}

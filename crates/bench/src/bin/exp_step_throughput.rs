//! Emits the step-throughput benchmark (`BENCH_step_throughput.json`) on
//! stdout, comparing the `AoS` and `SoA` step engines.
//!
//! ```text
//! cargo run --release --bin exp_step_throughput -- \
//!     [--engine aos|soa|both] [--duration SECS] [--extended] [--check]
//! ```
//!
//! * `--engine` selects which engines to measure (default `both`).
//! * `--duration` is the minimum measured window per point (default 1.0).
//! * `--extended` adds the large sizes (n ∈ {4096, 16384}).
//! * `--check` skips measurement and instead runs the AoS/SoA lockstep
//!   differential (identical states, enabled sets, rounds, reports on
//!   every step across daemons and topologies, and each engine's enabled
//!   sets equal to a rebuild from its configuration after every step),
//!   exiting non-zero on any divergence — the tier-2 gate's smoke mode.
//!
//! Units: `*_steps_per_sec` counts computation steps under the central
//! daemon (one processor move per step, so steps = moves there);
//! `soa_sync_moves_per_sec` counts individual processor moves under the
//! synchronous daemon on the `SoA` fast path, where one step executes
//! `|enabled|` moves — the unit the ≥10M/s batch-stepping target is
//! stated in.

use std::process::ExitCode;

use pif_bench::step_measure::{measure, measure_sync, Topology, EXT_SIZES, SIZES};
use pif_core::{initial, PifProtocol};
use pif_daemon::daemons::{CentralRandom, DistributedRandom, Synchronous};
use pif_daemon::json::{self, Json};
use pif_daemon::Daemon;
use pif_graph::ProcId;
use pif_soa::{Engine, EngineSim};

fn opt<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.windows(2).rev().find(|w| w[0] == flag).map(|w| w[1].as_str())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--check") {
        return check();
    }
    let duration: f64 = opt(&args, "--duration").and_then(|d| d.parse().ok()).unwrap_or(1.0);
    let spec = opt(&args, "--engine").unwrap_or("both");
    let engines: Vec<Engine> = match spec {
        "both" => Engine::ALL.to_vec(),
        other => {
            let Some(e) = Engine::parse(other) else {
                eprintln!("exp_step_throughput: bad value for --engine: {other:?}");
                return ExitCode::from(2);
            };
            vec![e]
        }
    };
    let extended = args.iter().any(|a| a == "--extended");
    let soa = engines.contains(&Engine::Soa);

    let mut sizes: Vec<usize> = SIZES.to_vec();
    if extended {
        sizes.extend(EXT_SIZES);
    }

    let mut rows = Vec::new();
    for t in Topology::ALL {
        for &n in &sizes {
            let mut row =
                vec![("topology".to_string(), t.label().into()), ("n".to_string(), n.into())];
            let mut aos_rate = None;
            for &engine in &engines {
                let m = measure(t, n, duration, engine);
                if engine == Engine::Aos {
                    aos_rate = Some(m.steps_per_sec);
                }
                row.push((format!("{engine}_steps_per_sec"), Json::fixed(m.steps_per_sec, 0)));
                eprintln!(
                    "{:>7} n={:<6} [{engine}]   {:>12.0} steps/s",
                    t.label(),
                    n,
                    m.steps_per_sec
                );
            }
            if soa {
                let s = measure_sync(t, n, duration);
                row.push(("soa_sync_moves_per_sec".to_string(), Json::fixed(s.moves_per_sec, 0)));
                eprintln!(
                    "{:>7} n={:<6} [soa/sync] {:>12.0} moves/s ({:.0} steps/s)",
                    t.label(),
                    n,
                    s.moves_per_sec,
                    s.steps_per_sec
                );
                if let Some(aos) = aos_rate {
                    row.push(("speedup".to_string(), Json::fixed(s.moves_per_sec / aos, 2)));
                }
            }
            rows.push(Json::Obj(row));
        }
    }
    let header = [
        ("benchmark", "step_throughput".into()),
        ("unit", "moves_per_sec".into()),
        ("protocol", "PifProtocol (arbitrary-network snap PIF)".into()),
        (
            "method",
            "cargo run --release --bin exp_step_throughput -- --engine both --duration 1.0 \
             --extended; single-threaded, one point per topology/size. aos_/soa_steps_per_sec: \
             computation steps under CentralRandom (one processor move per step) on the \
             array-of-structs vs packed structure-of-arrays engine. soa_sync_moves_per_sec: \
             individual processor moves (one guarded-action execution each) under the \
             synchronous daemon on the SoA word-parallel fast path, where one step executes \
             |enabled| moves. speedup = soa_sync_moves_per_sec / aos_steps_per_sec at the same \
             point."
                .into(),
        ),
        (
            "acceptance",
            "torus n=1024 soa_sync_moves_per_sec >= 10000000 (10M moves/sec synchronous batch \
             stepping); soa_sync_moves_per_sec > aos_steps_per_sec on every point"
                .into(),
        ),
    ];
    print!("{}", json::write_envelope(&header, rows));
    ExitCode::SUCCESS
}

/// Constructor for one of the daemon families exercised by `check`.
type DaemonCtor = fn() -> Box<dyn Daemon<pif_core::PifState>>;

/// AoS/SoA lockstep differential: identical executions step for step,
/// and after every step each engine's enabled sets equal a rebuild's.
fn check() -> ExitCode {
    let points: [(Topology, usize); 3] =
        [(Topology::Torus, 16), (Topology::Chain, 24), (Topology::Random, 20)];
    let daemons: [DaemonCtor; 3] = [
        || Box::new(Synchronous::first_action()),
        || Box::new(CentralRandom::new(41)),
        || Box::new(DistributedRandom::new(0.5, 41)),
    ];
    let mut checked_steps = 0u64;
    for (t, n) in points {
        for make in daemons {
            let g = t.build(n);
            let proto = PifProtocol::new(ProcId(0), &g);
            let init = initial::random_config(&g, &proto, 0xD1FF);
            let mut sims: Vec<EngineSim> = Engine::ALL
                .iter()
                .map(|&e| EngineSim::new(e, g.clone(), proto.clone(), init.clone()))
                .collect();
            let mut ds: Vec<Box<dyn Daemon<pif_core::PifState>>> =
                (0..2).map(|_| make()).collect();
            for (s, _) in sims.iter_mut().zip(&ds) {
                s.set_validation(true);
            }
            for step in 0..500u64 {
                if sims[0].is_terminal() {
                    break;
                }
                let ra = sims[0].step(&mut *ds[0]).expect("aos step");
                let rs = sims[1].step(&mut *ds[1]).expect("soa step");
                let same = ra == rs
                    && sims[0].states() == sims[1].states()
                    && sims[0].enabled_procs().eq(sims[1].enabled_procs())
                    && sims[0].rounds() == sims[1].rounds()
                    && sims[0].last_executed() == sims[1].last_executed();
                if !same {
                    eprintln!(
                        "DIVERGENCE at {} n={n} step {step}: aos {ra:?} vs soa {rs:?}",
                        t.label()
                    );
                    return ExitCode::FAILURE;
                }
                // Each engine's incremental enabled sets must equal a
                // rebuild from its current configuration.
                for (&engine, sim) in Engine::ALL.iter().zip(&sims) {
                    let init = sim.states().to_vec();
                    let fresh = EngineSim::new(engine, g.clone(), proto.clone(), init);
                    if !sim.enabled_procs().eq(fresh.enabled_procs())
                        || g.procs().any(|p| sim.enabled_actions(p) != fresh.enabled_actions(p))
                    {
                        eprintln!(
                            "STALE ENABLED SET at {} n={n} step {step} on {engine}: differs \
                             from a rebuild",
                            t.label()
                        );
                        return ExitCode::FAILURE;
                    }
                }
                checked_steps += 1;
            }
        }
    }
    println!("engine differential check passed ({checked_steps} lockstep steps, 2 engines)");
    ExitCode::SUCCESS
}

//! Emits the message-passing transport benchmark
//! (`BENCH_net_throughput.json`) on stdout: PIF wave throughput over
//! `pif-net` per fault-rate cell, with the E13 certification counters.
//!
//! ```text
//! cargo run --release --bin exp_net_throughput -- \
//!     [--duration SECS] [--check [--bench PATH]] [--differential]
//! ```
//!
//! * default: measures events/executions/waves per second per
//!   `(topology, cell)` point and emits the JSON envelope, including the
//!   deterministic certification fields (completed / \[PIF1\] / \[PIF2\]
//!   / corrupt-applied) that `--check` replays.
//! * `--check` skips measurement and replays the deterministic fields
//!   from their seeds twice, exiting non-zero if any `NetStats` ledger
//!   or certification count differs between runs, or if the recomputed
//!   certification fields differ from the ones recorded in the committed
//!   benchmark file (`--bench`, default `BENCH_net_throughput.json`) — the
//!   tier-2 gate's replay bit-identity smoke, within one process and
//!   across commits.
//! * `--differential` runs the fault-free net-vs-shared-memory terminal
//!   configuration comparison (max propagation, which has a
//!   schedule-independent fixpoint) across chain/torus/random graphs,
//!   exiting non-zero on any divergence.

use std::process::ExitCode;
use std::time::Instant;

use pif_bench::experiments::e13_message_passing::{cells, trial, CellOutcome, FaultCell};
use pif_core::{initial, PifProtocol};
use pif_daemon::daemons::Synchronous;
use pif_daemon::json::{self, Json};
use pif_daemon::{ActionId, ActionSet, Protocol, RunLimits, Simulator, View};
use pif_graph::{generators, Graph, ProcId, Topology};
use pif_net::{NetBuilder, NetSim, Transport};

fn opt<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.windows(2).rev().find(|w| w[0] == flag).map(|w| w[1].as_str())
}

/// The measured grid: three topology families × the lossless and
/// adversarial ends of the fault-cell spectrum.
fn points() -> Vec<(Topology, FaultCell)> {
    let all = cells();
    let pick = |name: &str| *all.iter().find(|c| c.name == name).expect("known cell");
    let topologies = [
        Topology::Chain { n: 64 },
        Topology::Torus { w: 8, h: 8 },
        Topology::Random { n: 64, p: 0.1, seed: 2026 },
    ];
    topologies
        .iter()
        .flat_map(|t| {
            [pick("lossless"), pick("adversarial")]
                .into_iter()
                .map(move |c| (t.clone(), c))
        })
        .collect()
}

/// Certification run: 4 seeds × 4 requests through one point.
fn certify(t: &Topology, c: &FaultCell) -> CellOutcome {
    let mut total = CellOutcome::default();
    for seed in 0..4 {
        let o = trial(t, c, seed, 4);
        total.completed += o.completed;
        total.pif1_ok += o.pif1_ok;
        total.pif2_ok += o.pif2_ok;
        total.stats.corrupt_applied += o.stats.corrupt_applied;
        total.stats.corrupt_rejected += o.stats.corrupt_rejected;
        total.stats.stale_rejected += o.stats.stale_rejected;
        total.stats.dropped += o.stats.dropped;
        total.stats.deliveries += o.stats.deliveries;
        total.stats.executions += o.stats.executions;
    }
    total
}

fn measure_point(t: &Topology, c: &FaultCell, duration: f64) -> (f64, f64, f64) {
    let g = t.build().expect("bench topologies are valid");
    let protocol = PifProtocol::new(ProcId(0), &g);
    let init = initial::normal_starting(&g);
    let mut net = NetSim::builder(g, protocol)
        .states(init)
        .fault_plan(c.plan)
        .heartbeat_every(c.heartbeat_every)
        .seed(7)
        .build()
        .expect("cell plans are valid");
    let start = Instant::now();
    let mut waves = 0u64;
    let mut in_f = false;
    while start.elapsed().as_secs_f64() < duration {
        for _ in 0..4096 {
            net.tick();
            let root_f = net.states()[0].phase == pif_core::Phase::F;
            if root_f && !in_f {
                waves += 1;
            }
            in_f = root_f;
        }
    }
    let secs = start.elapsed().as_secs_f64();
    let s = net.stats();
    (s.events as f64 / secs, s.executions as f64 / secs, waves as f64 / secs)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--check") {
        return check(opt(&args, "--bench").unwrap_or("BENCH_net_throughput.json"));
    }
    if args.iter().any(|a| a == "--differential") {
        return differential();
    }
    let duration: f64 = opt(&args, "--duration").and_then(|d| d.parse().ok()).unwrap_or(1.0);

    println!("{{");
    println!("  \"benchmark\": \"net_throughput\",");
    println!("  \"unit\": \"events_per_sec\",");
    println!("  \"protocol\": \"PifProtocol over pif-net (framed snapshots, lossy links)\",");
    println!(
        "  \"method\": \"cargo run --release --bin exp_net_throughput -- --duration 1.0; \
         single-threaded, one seeded NetSim per point ticked for the measured window; a wave \
         is one root B->F cycle. certification fields come from 4 seeds x 4 requests per \
         point from post-fault random starts (deterministic; replayed by --check). \
         adversarial cell = drop 0.2, duplicate 0.1, reorder 0.3, corrupt 0.05 per link.\","
    );
    println!(
        "  \"acceptance\": \"every point certifies completed == 16 with pif1 == pif2 == 16 \
         and corrupt_applied == 0; adversarial points keep waves flowing \
         (waves_per_sec > 0)\","
    );
    println!("  \"results\": [");
    let mut first = true;
    for (t, c) in points() {
        if !first {
            println!(",");
        }
        first = false;
        let (events_s, execs_s, waves_s) = measure_point(&t, &c, duration);
        let cert = certify(&t, &c);
        print!(
            "    {{\"topology\": \"{t}\", \"cell\": \"{}\", \"events_per_sec\": {events_s:.0}, \
             \"executions_per_sec\": {execs_s:.0}, \"waves_per_sec\": {waves_s:.1}, \
             \"requests\": 16",
            c.name,
        );
        for (field, value) in recorded_fields(&cert) {
            print!(", \"{field}\": {value}");
        }
        print!("}}");
        eprintln!(
            "{t:>14} [{:<11}] {events_s:>11.0} events/s {waves_s:>7.1} waves/s \
             cert {}/16 pif2 {}/16",
            c.name, cert.completed, cert.pif2_ok
        );
    }
    println!();
    println!("  ]");
    println!("}}");
    ExitCode::SUCCESS
}

/// The deterministic fields of one point, as `(name, value)` pairs in
/// envelope order: what the default mode records and `--check` compares.
fn recorded_fields(cert: &CellOutcome) -> [(&'static str, u64); 6] {
    [
        ("completed", cert.completed),
        ("pif1_ok", cert.pif1_ok),
        ("pif2_ok", cert.pif2_ok),
        ("corrupt_applied", cert.stats.corrupt_applied),
        ("crc_rejected", cert.stats.corrupt_rejected),
        ("stale_rejected", cert.stats.stale_rejected),
    ]
}

/// The committed envelope's result rows.
fn committed_rows(path: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let rows = doc
        .get("results")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{path}: no results array"))?;
    if rows.len() != points().len() {
        return Err(format!("{path}: {} results, want {}", rows.len(), points().len()));
    }
    Ok(rows.to_vec())
}

/// Replay bit-identity + certification: every deterministic field of the
/// envelope is a pure function of its seeds, and equals the value the
/// committed envelope at `bench` recorded, so a transport change that
/// shifts the seeded schedule fails here.
fn check(bench: &str) -> ExitCode {
    let rows = match committed_rows(bench) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    for (t, c) in points() {
        let topology = t.to_string();
        let Some(row) = rows.iter().find(|r| {
            r.get("topology").and_then(Json::as_str) == Some(topology.as_str())
                && r.get("cell").and_then(Json::as_str) == Some(c.name)
        }) else {
            eprintln!("{bench} has no row for {t} [{}]", c.name);
            return ExitCode::FAILURE;
        };
        let a = certify(&t, &c);
        let b = certify(&t, &c);
        if a != b {
            eprintln!("REPLAY MISMATCH at {t} [{}]:\n  {a:?}\n  {b:?}", c.name);
            return ExitCode::FAILURE;
        }
        if a.completed != 16 || a.pif1_ok != 16 || a.pif2_ok != 16 {
            eprintln!("CERTIFICATION FAILED at {t} [{}]: {a:?}", c.name);
            return ExitCode::FAILURE;
        }
        if a.stats.corrupt_applied != 0 {
            eprintln!("CRC GATE FAILED at {t} [{}]: {a:?}", c.name);
            return ExitCode::FAILURE;
        }
        for (field, value) in recorded_fields(&a) {
            let recorded = row.get(field).and_then(Json::as_u64);
            if recorded != Some(value) {
                eprintln!(
                    "SCHEDULE DRIFT at {t} [{}]: {field} recomputed {value}, {bench} records \
                     {recorded:?}",
                    c.name
                );
                return ExitCode::FAILURE;
            }
        }
        println!(
            "check {t} [{}]: 16/16 certified, replay bit-identical, matches {bench}",
            c.name
        );
    }
    ExitCode::SUCCESS
}

/// Max propagation: adopt the largest visible value. Schedule-independent
/// fixpoint, so net and shared-memory terminal configurations must agree.
#[derive(Clone, Debug)]
struct MaxProto;

impl Protocol for MaxProto {
    type State = u64;
    fn action_names(&self) -> &'static [&'static str] {
        &["adopt"]
    }
    fn enabled_actions(&self, view: View<'_, u64>) -> ActionSet {
        let adopt = view.neighbor_states().any(|(_, &s)| s > *view.me());
        if adopt { ActionSet::of(ActionId(0)) } else { ActionSet::EMPTY }
    }
    fn execute(&self, view: View<'_, u64>, _: ActionId) -> u64 {
        view.neighbor_states().map(|(_, &s)| s).max().unwrap_or(0).max(*view.me())
    }
}

fn differential() -> ExitCode {
    let graphs: Vec<(&str, Graph)> = vec![
        ("chain(8)", generators::chain(8).unwrap()),
        ("chain(64)", generators::chain(64).unwrap()),
        ("torus(4x4)", generators::torus(4, 4).unwrap()),
        ("torus(8x8)", generators::torus(8, 8).unwrap()),
        ("random(16)", generators::random_connected(16, 0.2, 5).unwrap()),
        ("random(64)", generators::random_connected(64, 0.1, 5).unwrap()),
    ];
    for (label, g) in graphs {
        for seed in 0..3u64 {
            let init: Vec<u64> =
                (0..g.len() as u64).map(|i| i.wrapping_mul(0x9E37_79B9).rotate_left(17) ^ seed).collect();
            let mut shm = Simulator::new(g.clone(), MaxProto, init.clone());
            shm.run_to_fixpoint(&mut Synchronous::first_action(), RunLimits::default())
                .expect("shared-memory fixpoint");
            let mut net = NetBuilder::new(g.clone(), MaxProto)
                .states(init)
                .seed(seed)
                .build()
                .expect("fault-free build");
            net.run(8_000_000);
            if !net.is_settled() || net.states() != shm.states() {
                eprintln!("DIVERGENCE at {label} seed {seed}");
                return ExitCode::FAILURE;
            }
        }
        println!("differential {label}: net == shared memory (3 seeds)");
    }
    // The PIF wave itself, fault-free: every request certifies.
    let cell = cells().into_iter().find(|c| c.name == "lossless").expect("lossless cell");
    for t in [Topology::Chain { n: 16 }, Topology::Torus { w: 4, h: 4 }] {
        let o = trial(&t, &cell, 0, 4);
        if o.completed != 4 || o.pif2_ok != 4 {
            eprintln!("PIF WAVE FAILED fault-free at {t}: {o:?}");
            return ExitCode::FAILURE;
        }
        println!("differential pif {t}: 4/4 waves certified");
    }
    ExitCode::SUCCESS
}

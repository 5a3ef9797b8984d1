//! The three wave-service workloads.
//!
//! Each drives one long-lived `WaveService` through its public API with
//! 4 initiators on 2 shards and `ServeConfig` defaults for everything else
//! (engine included). Request `i` goes to initiator `i mod 4` with
//! aggregate kind `AggregateKind::ALL[i mod 4]`; its payload is the
//! request id tagged with the seed. The untraced run times two phases:
//!
//! * latency: a closed loop with one client, each request timed from
//!   `submit` until `run()` returns;
//! * throughput: pre-enqueued batches, each drained by one `run()`.
//!
//! Register-corruption campaigns are scheduled with a completion
//! threshold of 0, so they fire at the start of the next `run()`, before
//! any request of it is armed. Every request is then initiated after the
//! campaign, is covered by the snap claim, and must complete correctly:
//! the workload has no casualties by construction.
//!
//! The traced run replays the served request stream on *shadow lanes*
//! built from public APIs only: the default engine's `step_observed`
//! under a timing `Daemon` wrapper and timing `Observer` wrappers around
//! `WaveOverlay` and `MetricsObserver`, or `NetSim::tick_observed` for the
//! lossy transport. Lane seeds are derived exactly as the service derives
//! them, so a shadow lane replays its service lane's execution.

use std::time::Instant;

use pif_core::wave::WaveOverlay;
use pif_core::{initial, PifProtocol, PifState};
use pif_daemon::daemons::{CentralRandom, DistributedRandom, Synchronous};
use pif_daemon::{
    ActionId, Daemon, EnabledSet, Fanout, MetricsObserver, Observer, PhaseReport, PhaseTag,
    StepDelta,
};
use pif_graph::{Graph, ProcId, Topology};
use pif_net::{FaultPlan, NetSim, NetStats, TickOutcome, Transport};
use pif_serve::{
    spread_initiators, AggregateKind, FaultSpec, KindAggregate, NetLaneConfig, Request,
    RequestOutcome, ServeConfig, ServeDaemon, WaveService,
};
use pif_soa::{EngineSim, GuardKernel, SoaConfig};

use crate::stats::{median, mix, quantile, repeat_timed};
use crate::trace::{Tracer, ROOT};
use crate::{Metrics, Outcome};

const INITIATORS: usize = 4;
const SHARDS: usize = 2;
/// Spans the traced run keeps in memory.
const SPAN_CAP: usize = 250_000;
/// Closed-loop time of one measurement round; each round also drains one
/// throughput batch and builds throwaway services for the set-up sample.
const ROUND_LATENCY_S: f64 = 0.6;
/// Largest relative disagreement allowed between a shadow replay and the
/// service it replays, where the schedule is not deterministic.
const SHADOW_TOLERANCE: f64 = 0.10;
/// Snapshots of shadow-lane configurations fed to the guard kernel.
const KERNEL_SNAPSHOTS: usize = 16;

/// One serve workload.
pub struct Spec {
    topology: Topology,
    daemon: ServeDaemon,
    net: Option<NetLaneConfig>,
    /// Register-corruption campaign: before every `k`-th latency request
    /// and before every throughput batch, `registers` registers of every
    /// lane are redrawn.
    fault: Option<(u64, usize)>,
    /// Requests per throughput batch.
    batch: u64,
    /// Per-request step budget, where the default is too small.
    step_limit: Option<u64>,
    /// The traced run times every `k`-th engine step (or net tick).
    sample_every: u64,
    /// Whether the schedule is deterministic, so shadow counts must equal
    /// the service's `phase_report()` exactly.
    deterministic: bool,
}

/// The serve workload named `name`, if any.
pub fn spec(name: &str) -> Option<Spec> {
    let adversarial = FaultPlan::fault_free()
        .drop_rate(0.2)
        .duplicate_rate(0.1)
        .reorder_rate(0.3)
        .corrupt_rate(0.05);
    match name {
        "serve-chain-sync" => Some(Spec {
            topology: Topology::Chain { n: 256 },
            daemon: ServeDaemon::Synchronous,
            net: None,
            fault: None,
            batch: 64,
            step_limit: None,
            sample_every: 16,
            deterministic: true,
        }),
        "serve-torus-central-faults" => Some(Spec {
            topology: Topology::Torus { w: 32, h: 32 },
            daemon: ServeDaemon::CentralRandom,
            net: None,
            fault: Some((16, 8)),
            batch: 64,
            step_limit: Some(2_000_000),
            sample_every: 128,
            deterministic: false,
        }),
        "serve-net-lossy" => Some(Spec {
            topology: Topology::Torus { w: 8, h: 8 },
            daemon: ServeDaemon::Synchronous,
            net: Some(NetLaneConfig {
                plan: adversarial,
                ..NetLaneConfig::default()
            }),
            fault: None,
            batch: 256,
            step_limit: None,
            sample_every: 256,
            deterministic: false,
        }),
        _ => None,
    }
}

/// The seeded request stream and the campaigns fired so far.
struct Stream {
    seed: u64,
    initiators: Vec<ProcId>,
    fault: Option<(u64, usize)>,
    next: u64,
    /// `(index of the first request served after it, campaign)`.
    campaigns: Vec<(u64, FaultSpec)>,
}

impl Stream {
    fn request(&self, i: u64) -> Request<u64> {
        let k = (i % INITIATORS as u64) as usize;
        Request::new(
            self.initiators[k],
            (self.seed << 32) | i,
            AggregateKind::ALL[k],
        )
    }

    /// Schedules a campaign on `svc` (it fires at the next `run()`).
    fn fault(&mut self, svc: &mut WaveService<u64>) {
        if let Some((_, registers)) = self.fault {
            let no = self.campaigns.len() as u64;
            let spec = FaultSpec {
                after_completions: 0,
                registers_per_lane: registers,
                seed: mix(self.seed ^ 0xFA17_0000_0000 ^ no),
            };
            svc.schedule_fault(spec);
            self.campaigns.push((self.next, spec));
        }
    }

    fn latency_fault_due(&self) -> bool {
        matches!(self.fault, Some((every, _)) if self.next.is_multiple_of(every))
    }

    /// Serves one request in a closed loop; returns its wall seconds.
    fn one(&mut self, svc: &mut WaveService<u64>) -> Result<f64, String> {
        if self.latency_fault_due() {
            self.fault(svc);
        }
        let req = self.request(self.next);
        let t = Instant::now();
        svc.submit(req).map_err(|e| e.to_string())?;
        svc.run().map_err(|e| e.to_string())?;
        let dt = t.elapsed().as_secs_f64();
        self.next += 1;
        Ok(dt)
    }

    /// [`Stream::one`] with `serve.request` ⊃ {`serve.submit`, `serve.run`}
    /// spans; returns the request's wall ns.
    fn one_traced(&mut self, svc: &mut WaveService<u64>, tr: &mut Tracer) -> Result<f64, String> {
        if self.latency_fault_due() {
            self.fault(svc);
        }
        let id = self.next;
        let req = self.request(id);
        let top = tr.open("serve.request", ROOT, id);
        let t0 = tr.now();
        svc.submit(req).map_err(|e| e.to_string())?;
        let t1 = tr.now();
        svc.run().map_err(|e| e.to_string())?;
        let t2 = tr.now();
        tr.close(top);
        tr.record("serve.submit", t0, t1, top, id);
        tr.record("serve.run", t1, t2, top, id);
        self.next += 1;
        Ok((t2 - t0) as f64)
    }

    /// Enqueues `q` requests and drains them with one `run()`; returns
    /// the drain's wall seconds.
    fn batch(&mut self, svc: &mut WaveService<u64>, q: u64) -> Result<f64, String> {
        self.fault(svc);
        for _ in 0..q {
            svc.submit(self.request(self.next))
                .map_err(|e| e.to_string())?;
            self.next += 1;
        }
        let t = Instant::now();
        svc.run().map_err(|e| e.to_string())?;
        Ok(t.elapsed().as_secs_f64())
    }
}

fn config(spec: &Spec, seed: u64) -> Result<ServeConfig, String> {
    let n = spec.topology.build().map_err(|e| e.to_string())?.len();
    let mut config = ServeConfig::new(spec.topology.clone())
        .initiators(spread_initiators(n, INITIATORS))
        .shards(SHARDS)
        .seed(seed)
        .daemon(spec.daemon);
    if let Some(net) = spec.net {
        config = config.net_transport(net);
    }
    if let Some(limit) = spec.step_limit {
        config = config.step_limit(limit);
    }
    Ok(config)
}

fn new_service(config: &ServeConfig) -> Result<WaveService<u64>, String> {
    WaveService::new(config.clone()).map_err(|e| e.to_string())
}

/// Ledger verdicts of one service, checked against the workload's gates.
struct LedgerCheck {
    attempted: u64,
    failed: u64,
    snap_violations: u64,
    stale_feedback: u64,
    cycle_rounds: Vec<f64>,
    problems: Vec<String>,
}

/// `fault_free` adds the `is_clean()` gate. Feedback values are checked on
/// the shared-memory engines only. Over lossy links the overlay folds each
/// child's feedback from the true configuration while processors act on
/// cached copies, and a few cycles with correct \[PIF1\]/\[PIF2\] verdicts
/// fold a value that differs from the whole-network fold; those are
/// counted in `stale_feedback`, not failed.
fn check_ledger(svc: &WaveService<u64>, fault_free: bool) -> LedgerCheck {
    let ledger = svc.ledger();
    let s = ledger.summary();
    let n = svc.graph().len();
    let contributions: Vec<i64> = (0..n).map(|i| (i + 1) as i64).collect();
    let mut problems = Vec::new();
    let mut wrong_feedback = 0u64;
    let mut cycle_rounds = Vec::new();
    let mut stale_feedback = 0u64;
    for r in ledger.records() {
        if let RequestOutcome::Completed {
            pif1: true,
            pif2: true,
            feedback,
        } = &r.outcome
        {
            cycle_rounds.push(r.cycle_rounds as f64);
            if *feedback != Some(r.aggregate.expected(&contributions)) {
                if svc.config().net.is_some() {
                    stale_feedback += 1;
                } else {
                    wrong_feedback += 1;
                }
            }
        }
    }
    // Bad, timed-out, shed and casualty requests are all "not correct".
    let mut failed = s.total - s.completed_ok + wrong_feedback;
    if s.total != svc.submitted() {
        problems.push(format!(
            "ledger holds {} records for {} requests",
            s.total,
            svc.submitted()
        ));
        failed += svc.submitted().saturating_sub(s.total).max(1);
    }
    if wrong_feedback > 0 {
        problems.push(format!(
            "{wrong_feedback} correct cycles folded the wrong feedback"
        ));
    }
    if let Err(e) = ledger.assert_snap() {
        problems.push(format!("assert_snap: {e}"));
    }
    if fault_free && !s.is_clean() {
        problems.push(format!("fault-free ledger is not clean: {s:?}"));
    }
    if s.total != s.completed_ok {
        problems.push(format!(
            "{} of {} requests did not complete correctly: {s:?}",
            s.total - s.completed_ok,
            s.total
        ));
    }
    LedgerCheck {
        attempted: svc.submitted(),
        failed,
        snap_violations: s.post_fault_total - s.post_fault_ok,
        stale_feedback,
        cycle_rounds,
        problems,
    }
}

/// Runs a serve workload for `seconds` (untraced or traced).
pub fn run(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<(Outcome, Option<Tracer>), String> {
    if traced {
        run_traced(spec, seed, seconds).map(|(o, t)| (o, Some(t)))
    } else {
        run_untraced(spec, seed, seconds).map(|o| (o, None))
    }
}

fn run_untraced(spec: &Spec, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let config = config(spec, seed)?;
    let mut svc = new_service(&config)?;
    let mut stream = Stream {
        seed,
        initiators: config.initiators.clone(),
        fault: spec.fault,
        next: 0,
        campaigns: Vec::new(),
    };

    // Warm-up: caches, allocator, and the pipelined lanes' first cycles.
    for _ in 0..2 * INITIATORS {
        stream.one(&mut svc)?;
    }
    stream.batch(&mut svc, spec.batch)?;

    // The host's speed drifts over seconds, so set-up, latency and
    // throughput samples are taken in short interleaved rounds: every
    // metric then sees the same mix of fast and slow periods.
    let start = Instant::now();
    let mut setup = Vec::new();
    let mut turnaround_ms = Vec::new();
    let mut req_per_s = Vec::new();
    let mut configs_per_s = Vec::new();
    while start.elapsed().as_secs_f64() < seconds || req_per_s.len() < 3 {
        let round = Instant::now();
        while setup.len() < 5 || round.elapsed().as_secs_f64() < 0.02 {
            let t = Instant::now();
            let fresh = new_service(&config)?;
            setup.push(t.elapsed().as_secs_f64());
            drop(fresh);
        }
        let round = Instant::now();
        while round.elapsed().as_secs_f64() < ROUND_LATENCY_S {
            turnaround_ms.push(stream.one(&mut svc)? * 1e3);
        }
        let before = svc.phase_report().total_steps;
        let dt = stream.batch(&mut svc, spec.batch)?;
        req_per_s.push(spec.batch as f64 / dt);
        configs_per_s.push((svc.phase_report().total_steps - before) as f64 / dt);
    }

    let check = check_ledger(&svc, spec.fault.is_none());
    let mut out = Outcome::new(check.attempted, check.failed, check.problems);
    if spec.net.is_some() {
        // The service keeps its lanes' link counters private; a shadow
        // replay of the first requests (same lane seeds) reads them.
        let replay = 8 * INITIATORS as u64;
        let mut shadow = Shadow::new(&svc, spec.sample_every)?;
        for i in 0..replay {
            shadow.serve(&stream, i, None)?;
        }
        let applied = shadow.net_stats().corrupt_applied;
        out.gate("net.corrupt_applied", applied as f64);
        if applied != 0 {
            out.fail(format!("{applied} corrupt frames were applied"));
        }
    }
    out.gate("failed_frac", out.failed as f64 / out.attempted as f64);
    out.gate("snap_violations", check.snap_violations as f64);
    out.note(format!(
        "latency: {} requests, closed loop, 1 client; throughput: {} batches of {}; set-up: {} builds",
        turnaround_ms.len(),
        req_per_s.len(),
        spec.batch,
        setup.len()
    ));
    out.note(format!("campaigns fired: {}", stream.campaigns.len()));
    out.note(format!(
        "turnaround_p95_ms = {} ms, turnaround_p99_ms = {} ms (over {} requests; \
         tail quantiles are not declared metrics: host stalls make them unsteady)",
        quantile(&turnaround_ms, 0.95),
        quantile(&turnaround_ms, 0.99),
        turnaround_ms.len()
    ));
    out.note(format!(
        "cycle_rounds_p99 = {} rounds (ledger, all correct cycles)",
        quantile(&check.cycle_rounds, 0.99)
    ));
    if spec.net.is_some() {
        out.note(format!(
            "correct cycles with a stale feedback fold: {}",
            check.stale_feedback
        ));
    }
    let m = &mut out.metrics;
    m.insert("req_per_s", median(&req_per_s));
    m.insert("turnaround_p50_ms", quantile(&turnaround_ms, 0.5));
    m.insert("configs_per_s", median(&configs_per_s));
    m.insert("setup_s", median(&setup));
    Ok(out)
}

fn run_traced(spec: &Spec, seed: u64, seconds: f64) -> Result<(Outcome, Tracer), String> {
    let start = Instant::now();
    let config = config(spec, seed)?;
    let mut m = Metrics::new();
    let graph_s = repeat_timed(5, 200, 0.1, || {
        std::hint::black_box(spec.topology.build().map(|g| g.len()).ok());
    });
    m.insert("graph.build_ms", median(&graph_s) * 1e3);

    // Warm the process on a throwaway service; the traced service must be
    // fresh so the shadow lanes can replay it from its first request.
    {
        let mut warm = new_service(&config)?;
        let mut s = Stream {
            seed,
            initiators: config.initiators.clone(),
            fault: spec.fault,
            next: 0,
            campaigns: Vec::new(),
        };
        for _ in 0..2 * INITIATORS {
            s.one(&mut warm)?;
        }
    }
    let mut svc = new_service(&config)?;
    let mut stream = Stream {
        seed,
        initiators: config.initiators.clone(),
        fault: spec.fault,
        next: 0,
        campaigns: Vec::new(),
    };
    let mut tr = Tracer::new(SPAN_CAP);
    // The service and two shadow replays of its lanes, one untraced and one
    // traced, serve the stream in lockstep, request by request, so all
    // three see the same drift of the host's speed.
    let mut plain = Shadow::new(&svc, 0)?;
    let mut shadow = Shadow::new(&svc, spec.sample_every)?;
    let (mut wall_ns, mut plain_ns, mut traced_ns) = (0.0, 0.0, 0.0);
    while start.elapsed().as_secs_f64() < 0.75 * seconds || stream.next < 4 * INITIATORS as u64 {
        let i = stream.next;
        wall_ns += stream.one_traced(&mut svc, &mut tr)?;
        let t = Instant::now();
        plain.serve(&stream, i, None)?;
        plain_ns += t.elapsed().as_nanos() as f64;
        let t = Instant::now();
        shadow.serve(&stream, i, Some(&mut tr))?;
        traced_ns += t.elapsed().as_nanos() as f64;
    }
    let reqs = stream.next;
    let served = svc.phase_report();

    let check = check_ledger(&svc, spec.fault.is_none());
    let mut out = Outcome::new(check.attempted, check.failed, check.problems);
    let shadow_report = shadow.report();
    if !same_counts(&shadow_report, &plain.report()) {
        out.fail("traced and untraced shadow lanes diverged".into());
    }
    let exact = same_counts(&shadow_report, &served);
    if !exact {
        let drift = |a: u64, b: u64| (a as f64 - b as f64).abs() / (b.max(1) as f64);
        let worst = drift(shadow_report.total_moves, served.total_moves)
            .max(drift(shadow_report.total_steps, served.total_steps));
        if spec.deterministic || worst > SHADOW_TOLERANCE {
            out.fail(format!(
                "shadow lanes disagree with phase_report(): moves {} vs {}, steps {} vs {}",
                shadow_report.total_moves,
                served.total_moves,
                shadow_report.total_steps,
                served.total_steps
            ));
        }
    }
    m.insert("trace.shadow_exact", if exact { 1.0 } else { 0.0 });

    let per_req = |v: u64| v as f64 / reqs as f64;
    for (name, tag) in [
        ("core.moves_per_req.broadcast", PhaseTag::Broadcast),
        ("core.moves_per_req.fok", PhaseTag::Fok),
        ("core.moves_per_req.feedback", PhaseTag::Feedback),
        ("core.moves_per_req.cleaning", PhaseTag::Cleaning),
        ("core.moves_per_req.correction", PhaseTag::Correction),
    ] {
        m.insert(name, per_req(served.moves_of(tag)));
    }
    m.insert("core.steps_per_req", per_req(served.total_steps));
    m.insert("core.rounds_per_req", per_req(served.total_rounds));

    let layers = tr.layers();
    let layer = |name: &str| layers.get(name).copied().unwrap_or_default();
    let step = layer("engine.step");
    let per_step = |name: &str| {
        let l = layer(name);
        if step.count == 0 {
            0.0
        } else {
            l.total_ns / step.count as f64
        }
    };
    m.insert("daemon.select_ns_per_step", per_step("daemon.select"));
    m.insert("core.overlay_ns_per_step", per_step("core.overlay"));
    m.insert("daemon.metrics_ns_per_step", per_step("daemon.metrics"));
    if step.count > 0 {
        m.insert("engine.self_ns_per_step", step.self_ns / step.count as f64);
        m.insert(
            "engine.ns_per_move",
            step.self_ns / shadow.sampled_moves.max(1) as f64,
        );
    }

    if spec.net.is_some() {
        let stats = shadow.net_stats();
        for (k, name) in TICK_SPANS.iter().enumerate() {
            m.insert(TICK_METRICS[k], layer(name).mean_ns());
        }
        m.insert(
            "net.events_per_exec",
            stats.events as f64 / stats.executions.max(1) as f64,
        );
        m.insert(
            "net.delivered_frac",
            stats.deliveries as f64 / stats.frames_sent.max(1) as f64,
        );
        m.insert("net.crc_rejected_per_req", per_req(stats.corrupt_rejected));
        m.insert("net.stale_rejected_per_req", per_req(stats.stale_rejected));
        m.insert(
            "net.overflow_rejected_per_req",
            per_req(stats.overflow_dropped),
        );
        let (enc, dec) = frame_codec_ns();
        m.insert("net.encode_ns", enc);
        m.insert("net.decode_ns", dec);
        out.gate("net.corrupt_applied", stats.corrupt_applied as f64);
        if stats.corrupt_applied != 0 {
            out.fail(format!(
                "{} corrupt frames were applied",
                stats.corrupt_applied
            ));
        }
    }

    let submit_ns = median(&tr.durations("serve.submit"));
    let run_fixed = repeat_timed(20, 2000, 0.1, || {
        svc.run().expect("run() with empty queues");
    });
    let spawn_join = repeat_timed(20, 2000, 0.1, || {
        std::hint::black_box(pif_par::par_map_workers(vec![0u64, 1], SHARDS, |x| x + 1));
    });
    let run_fixed_ns = median(&run_fixed) * 1e9;
    m.insert("serve.submit_ns", submit_ns);
    m.insert("serve.run_fixed_us", run_fixed_ns / 1e3);
    m.insert("par.spawn_join_us", median(&spawn_join) * 1e6);
    // The untraced replay is the lane's stepping work alone; what the
    // service spends beyond it, submit and the fixed cost of run() is
    // covered by no layer span.
    m.insert(
        "serve.unattributed_frac",
        1.0 - (plain_ns / reqs as f64 + submit_ns + run_fixed_ns) / (wall_ns / reqs as f64),
    );
    m.insert("trace.overhead_frac", traced_ns / plain_ns - 1.0);

    let (mask_ns, exec_ns) = kernel_ns(&shadow.snapshots);
    m.insert("soa.mask_ns", mask_ns);
    m.insert("soa.execute_ns", exec_ns);
    m.insert(
        "ledger.cycle_rounds_p99",
        quantile(&check.cycle_rounds, 0.99),
    );
    m.insert(
        "ledger.failed_frac",
        out.failed as f64 / out.attempted as f64,
    );
    m.insert("ledger.snap_violations", check.snap_violations as f64);
    out.note(format!(
        "traced: {reqs} requests on the service and on each shadow replay; {} sampled steps, {} spans",
        step.count,
        layers.values().map(|l| l.count).sum::<u64>()
    ));
    out.metrics = m;
    Ok((out, tr))
}

/// Whether step `no` is in the 1-in-`every` sample. Hashing the index
/// keeps the sample from aliasing with periodic schedules.
fn sampled(no: u64, every: u64) -> bool {
    every > 0 && mix(no).is_multiple_of(every)
}

fn same_counts(a: &PhaseReport, b: &PhaseReport) -> bool {
    a.moves == b.moves
        && a.steps == b.steps
        && a.total_steps == b.total_steps
        && a.total_rounds == b.total_rounds
        && a.total_moves == b.total_moves
}

const TICK_SPANS: [&str; 5] = [
    "net.tick.executed",
    "net.tick.delivered",
    "net.tick.rejected",
    "net.tick.heartbeat",
    "net.tick.idle",
];
const TICK_METRICS: [&str; 5] = [
    "net.tick_ns.executed",
    "net.tick_ns.delivered",
    "net.tick_ns.rejected",
    "net.tick_ns.heartbeat",
    "net.tick_ns.idle",
];

fn tick_kind(t: TickOutcome) -> usize {
    match t {
        TickOutcome::Executed { .. } => 0,
        TickOutcome::Delivered { .. } => 1,
        TickOutcome::Rejected { .. } => 2,
        TickOutcome::Heartbeat { .. } => 3,
        TickOutcome::Idle => 4,
    }
}

/// Times a [`Daemon`]'s `select` calls.
struct TimedDaemon<'a> {
    inner: &'a mut dyn Daemon<PifState>,
    clock: &'a Tracer,
    span: (u64, u64),
}

impl Daemon<PifState> for TimedDaemon<'_> {
    fn select(&mut self, enabled: &EnabledSet<'_, PifState>, out: &mut Vec<(ProcId, ActionId)>) {
        let t0 = self.clock.now();
        self.inner.select(enabled, out);
        self.span = (t0, self.clock.now());
    }
}

/// Times an [`Observer`]'s `step` calls.
struct TimedObserver<'a, O> {
    inner: &'a mut O,
    clock: &'a Tracer,
    span: (u64, u64),
}

impl<O: Observer<PifProtocol>> Observer<PifProtocol> for TimedObserver<'_, O> {
    fn needs_full_before(&self) -> bool {
        self.inner.needs_full_before()
    }

    fn step(&mut self, graph: &Graph, delta: &StepDelta<'_, PifProtocol>, after: &[PifState]) {
        let t0 = self.clock.now();
        self.inner.step(graph, delta, after);
        self.span = (t0, self.clock.now());
    }
}

#[allow(clippy::large_enum_variant)]
enum LaneEngine {
    Mem(EngineSim, Box<dyn Daemon<PifState> + Send>),
    Net(Box<NetSim<PifProtocol>>),
}

struct ShadowLane {
    initiator: ProcId,
    shard: u64,
    index_in_shard: u64,
    engine: LaneEngine,
    overlay: WaveOverlay<u64, KindAggregate>,
    metrics: MetricsObserver,
}

impl ShadowLane {
    fn states(&self) -> &[PifState] {
        match &self.engine {
            LaneEngine::Mem(s, _) => s.states(),
            LaneEngine::Net(s) => s.states(),
        }
    }

    fn protocol(&self) -> &PifProtocol {
        match &self.engine {
            LaneEngine::Mem(s, _) => s.protocol(),
            LaneEngine::Net(s) => s.protocol(),
        }
    }

    fn graph(&self) -> &Graph {
        match &self.engine {
            LaneEngine::Mem(s, _) => s.graph(),
            LaneEngine::Net(s) => s.graph(),
        }
    }

    /// Redraws `k` registers exactly as the service's campaign does.
    fn corrupt(&mut self, k: usize, seed: u64) {
        let mut copy = self.states().to_vec();
        initial::corrupt_registers(&mut copy, self.graph(), self.protocol(), k, seed);
        let changes: Vec<(ProcId, PifState)> = copy
            .iter()
            .enumerate()
            .filter(|(i, s)| **s != self.states()[*i])
            .map(|(i, s)| (ProcId::from_index(i), *s))
            .collect();
        match &mut self.engine {
            LaneEngine::Mem(s, _) => s.corrupt_many(&changes),
            LaneEngine::Net(s) => s.corrupt_many(&changes),
        }
    }
}

/// Replays a service's lanes from its configuration.
struct Shadow {
    lanes: Vec<ShadowLane>,
    step_limit: u64,
    sample_every: u64,
    step_no: u64,
    sampled_moves: u64,
    snapshots: Vec<(Graph, PifProtocol, Vec<PifState>)>,
}

impl Shadow {
    fn new(svc: &WaveService<u64>, sample_every: u64) -> Result<Self, String> {
        let config = svc.config();
        let graph = svc.graph().clone();
        let n = graph.len();
        let assignment = svc.assignment();
        let mut per_shard = vec![0u64; config.shards];
        let mut lanes = Vec::new();
        for &p in &config.initiators {
            let shard = assignment
                .iter()
                .find(|(q, _)| *q == p)
                .map(|(_, s)| *s)
                .ok_or("unassigned initiator")?;
            let protocol = PifProtocol::new(p, &graph);
            let metrics = MetricsObserver::for_protocol(&protocol, n);
            let init = initial::normal_starting(&graph);
            let engine = match &config.net {
                None => {
                    let seed = mix(config.seed ^ (u64::from(p.0) << 17));
                    let daemon: Box<dyn Daemon<PifState> + Send> = match config.daemon {
                        ServeDaemon::Synchronous => Box::new(Synchronous::first_action()),
                        ServeDaemon::CentralRandom => Box::new(CentralRandom::new(seed)),
                        ServeDaemon::DistributedRandom => {
                            Box::new(DistributedRandom::new(0.5, seed))
                        }
                    };
                    let sim = EngineSim::builder(config.engine, graph.clone(), protocol)
                        .states(init)
                        .try_build()
                        .map_err(|e| e.to_string())?;
                    LaneEngine::Mem(sim, daemon)
                }
                Some(net) => {
                    let seed = mix(config.seed ^ (u64::from(p.0) << 29) ^ 0x6E65_7421);
                    let sim = NetSim::builder(graph.clone(), protocol)
                        .states(init)
                        .fault_plan(net.plan)
                        .capacity(net.capacity)
                        .heartbeat_every(net.heartbeat_every)
                        .delivery_bias(net.delivery_bias)
                        .seed(seed)
                        .build()
                        .map_err(|e| e.to_string())?;
                    LaneEngine::Net(Box::new(sim))
                }
            };
            let contributions = (0..n).map(|i| (i + 1) as i64).collect();
            lanes.push(ShadowLane {
                initiator: p,
                shard: shard as u64,
                index_in_shard: per_shard[shard],
                engine,
                overlay: WaveOverlay::new(n, p, KindAggregate::new(contributions)),
                metrics,
            });
            per_shard[shard] += 1;
        }
        Ok(Shadow {
            lanes,
            step_limit: config.step_limit,
            sample_every,
            step_no: 0,
            sampled_moves: 0,
            snapshots: Vec::new(),
        })
    }

    /// Replays request `i` of `stream`, after the campaigns that fired
    /// before it.
    fn serve(
        &mut self,
        stream: &Stream,
        i: u64,
        mut tr: Option<&mut Tracer>,
    ) -> Result<(), String> {
        for (_, spec) in stream.campaigns.iter().filter(|(at, _)| *at == i) {
            for lane in &mut self.lanes {
                let seed = mix(spec.seed ^ (lane.shard << 32 | lane.index_in_shard));
                lane.corrupt(spec.registers_per_lane, seed);
            }
        }
        let req = stream.request(i);
        let li = self
            .lanes
            .iter()
            .position(|l| l.initiator == req.initiator)
            .ok_or("unknown initiator")?;
        let every = self.sample_every;
        let lane = &mut self.lanes[li];
        lane.overlay.aggregate_mut().set_kind(req.aggregate);
        lane.overlay.arm(req.payload);
        let armed_at = lane.overlay.observed_steps();
        let top = tr
            .as_deref_mut()
            .map_or(ROOT, |t| t.open("shadow.request", ROOT, i));
        loop {
            match &mut lane.engine {
                LaneEngine::Mem(sim, daemon) => {
                    let sample = sampled(self.step_no, every);
                    self.step_no += 1;
                    match tr.as_deref_mut().filter(|t| sample && t.has_room(4)) {
                        None => {
                            sim.step_observed(
                                &mut **daemon,
                                &mut Fanout::new(&mut lane.overlay, &mut lane.metrics),
                            )
                            .map_err(|e| e.to_string())?;
                        }
                        Some(t) => {
                            let (s0, s1, d, o, mm) = {
                                let clock: &Tracer = t;
                                let mut d = TimedDaemon {
                                    inner: &mut **daemon,
                                    clock,
                                    span: (0, 0),
                                };
                                let mut o = TimedObserver {
                                    inner: &mut lane.overlay,
                                    clock,
                                    span: (0, 0),
                                };
                                let mut mm = TimedObserver {
                                    inner: &mut lane.metrics,
                                    clock,
                                    span: (0, 0),
                                };
                                let s0 = clock.now();
                                sim.step_observed(&mut d, &mut Fanout::new(&mut o, &mut mm))
                                    .map_err(|e| e.to_string())?;
                                (s0, clock.now(), d.span, o.span, mm.span)
                            };
                            self.sampled_moves += sim.last_executed().len() as u64;
                            let idx = t.record("engine.step", s0, s1, top, i);
                            t.record("daemon.select", d.0, d.1, idx, i);
                            t.record("core.overlay", o.0, o.1, idx, i);
                            t.record("daemon.metrics", mm.0, mm.1, idx, i);
                        }
                    }
                }
                LaneEngine::Net(sim) => {
                    let mut dry = 0u64;
                    loop {
                        let sample = sampled(self.step_no, every);
                        self.step_no += 1;
                        let t0 = if sample {
                            tr.as_deref().map_or(0, Tracer::now)
                        } else {
                            0
                        };
                        let kind =
                            tick_kind(sim.tick_observed(&mut Fanout::new(
                                &mut lane.overlay,
                                &mut lane.metrics,
                            )));
                        if let Some(t) = tr.as_deref_mut().filter(|t| sample && t.has_room(1)) {
                            let t1 = t.now();
                            t.record(TICK_SPANS[kind], t0, t1, top, i);
                        }
                        if kind == 0 {
                            break;
                        }
                        dry += 1;
                        // The service times a request out after 64 bursts of
                        // 4096 ticks without an execution.
                        if dry >= 64 * 4096 {
                            return Err(format!(
                                "net shadow lane {} stopped executing",
                                lane.initiator
                            ));
                        }
                    }
                }
            }
            if lane.overlay.broadcast_step().is_some() && lane.overlay.feedback_step().is_some() {
                break;
            }
            if lane.overlay.observed_steps() - armed_at >= self.step_limit {
                return Err(format!("shadow request {i} exceeded the step limit"));
            }
        }
        if let Some(t) = tr {
            t.close(top);
            if self.snapshots.len() < KERNEL_SNAPSHOTS && i.is_multiple_of(7) {
                self.snapshots.push((
                    lane.graph().clone(),
                    lane.protocol().clone(),
                    lane.states().to_vec(),
                ));
            }
        }
        Ok(())
    }

    fn report(&self) -> PhaseReport {
        let mut total = PhaseReport::default();
        for lane in &self.lanes {
            let r = lane.metrics.report();
            for i in 0..PhaseTag::COUNT {
                total.moves[i] += r.moves[i];
                total.steps[i] += r.steps[i];
                total.rounds[i] += r.rounds[i];
            }
            total.total_steps += r.total_steps;
            total.total_rounds += r.total_rounds;
            total.total_moves += r.total_moves;
        }
        total
    }

    fn net_stats(&self) -> NetStats {
        let mut total = NetStats::default();
        for lane in &self.lanes {
            if let LaneEngine::Net(s) = &lane.engine {
                let st = s.stats();
                total.events += st.events;
                total.executions += st.executions;
                total.deliveries += st.deliveries;
                total.frames_sent += st.frames_sent;
                total.corrupt_rejected += st.corrupt_rejected;
                total.corrupt_applied += st.corrupt_applied;
                total.stale_rejected += st.stale_rejected;
                total.overflow_dropped += st.overflow_dropped;
            }
        }
        total
    }
}

/// Mean ns of one `GuardKernel::mask` call and one `GuardKernel::execute`
/// call (lowest enabled action) over the processors of `snapshots`.
pub fn kernel_ns(snapshots: &[(Graph, PifProtocol, Vec<PifState>)]) -> (f64, f64) {
    let (mut mask_ns, mut masks, mut exec_ns, mut execs) = (0f64, 0u64, 0f64, 0u64);
    for (graph, protocol, states) in snapshots {
        let kernel = GuardKernel::new(protocol, graph);
        let mut cfg = SoaConfig::new(graph.len());
        cfg.load(states);
        let reps = (200_000 / graph.len()).max(1);
        let t = Instant::now();
        let mut sink = 0u8;
        for _ in 0..reps {
            for p in 0..graph.len() {
                sink ^= kernel.mask(std::hint::black_box(&cfg), p);
            }
        }
        mask_ns += t.elapsed().as_nanos() as f64;
        masks += (reps * graph.len()) as u64;
        std::hint::black_box(sink);
        let enabled: Vec<(usize, ActionId)> = (0..graph.len())
            .filter_map(|p| {
                let mask = kernel.mask(&cfg, p);
                (mask != 0).then(|| (p, ActionId(mask.trailing_zeros() as usize)))
            })
            .collect();
        if enabled.is_empty() {
            continue;
        }
        let reps = (200_000 / enabled.len()).max(1);
        let t = Instant::now();
        for _ in 0..reps {
            for &(p, a) in &enabled {
                std::hint::black_box(kernel.execute(std::hint::black_box(&cfg), p, a));
            }
        }
        exec_ns += t.elapsed().as_nanos() as f64;
        execs += (reps * enabled.len()) as u64;
    }
    (mask_ns / masks.max(1) as f64, exec_ns / execs.max(1) as f64)
}

/// Mean ns to encode and to decode one register-snapshot frame.
fn frame_codec_ns() -> (f64, f64) {
    use pif_net::{decode_frame, encode_frame, FrameHeader, FrameKind, WireState};
    let reps = 200_000u32;
    let state = PifState {
        phase: pif_core::Phase::B,
        par: ProcId(3),
        level: 2,
        count: 5,
        fok: true,
    };
    let mut payload = Vec::new();
    let mut frame = Vec::new();
    let t = Instant::now();
    for seq in 0..reps {
        payload.clear();
        std::hint::black_box(&state).encode_wire(&mut payload);
        let header = FrameHeader {
            kind: FrameKind::StateUpdate,
            sender: ProcId(7),
            seq,
        };
        encode_frame(header, &payload, &mut frame).expect("a 12-byte payload fits a frame");
    }
    let enc = t.elapsed().as_nanos() as f64 / f64::from(reps);
    let t = Instant::now();
    for _ in 0..reps {
        let (_, body) = decode_frame(std::hint::black_box(&frame)).expect("a well-formed frame");
        std::hint::black_box(PifState::decode_wire(body));
    }
    let dec = t.elapsed().as_nanos() as f64 / f64::from(reps);
    (enc, dec)
}

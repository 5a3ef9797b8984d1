//! SLO-graded soak campaigns: long request streams against
//! [`pif_serve::WaveService`] under combined churn and register
//! corruption, scored against an explicit availability objective.
//!
//! A campaign is a sequence of **epochs**. Each epoch snapshots the
//! current [`DynGraph`] into a static instance, rebuilds
//! the wave service on it (carrying the surviving replicas' register
//! state verbatim — the Theorem 4 composition described in the
//! [crate docs](crate)), submits a canonical request batch, applies the
//! epoch's churn events (graph changes take effect at the next rebuild;
//! a departing initiator's lane is retired *now*, shedding its queued
//! requests as [`pif_serve::ShedCause::Retired`]), optionally arms a
//! register-corruption campaign, and drains the batch.
//!
//! The grade is **availability**: the fraction of post-disturbance
//! requests that completed a *correct* cycle (\[PIF1\] ∧ \[PIF2\]) within
//! `slo_k · diameter` rounds, where the diameter is the one of the
//! instance the request actually ran on. `steady` availability restricts
//! the denominator to epochs at least two past the last disturbance —
//! the acceptance bar is `n/n` there on every connected topology.
//!
//! Every figure in a [`ChaosCell`] except the wall-clock ones derives
//! from the recorded `(topology, seeds, counts)` alone, so a cell
//! replays bit-identically: [`ChaosCell::scenario`] reconstructs the
//! [`CampaignConfig`] and [`run_campaign`] reproduces the cell
//! ([`ChaosCell::deterministic_eq`]).

use std::time::Instant;

use pif_core::{initial, PifProtocol, PifState};
use pif_daemon::json::{self, Json};
use pif_daemon::splitmix64;
use pif_graph::{metrics, ProcId, Topology};
use pif_serve::{
    AggregateKind, Engine, FaultSpec, Request, RequestOutcome, ServeConfig, ServeDaemon,
    ShedCause, WaveService,
};

use crate::churn::{ChurnAction, ChurnOutcome, ChurnPlan, DynGraph};
use crate::ChaosError;

/// Version stamp of the `chaos_slo` report format.
pub const CHAOS_REPORT_VERSION: u64 = 1;

/// The `benchmark` name of the chaos envelope.
const BENCHMARK: &str = "chaos_slo";

/// Seeded churn parameters of a campaign (regenerates the identical
/// [`ChurnPlan`] on replay).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChurnSpec {
    /// Epochs `1..=epochs` receive churn events (clamped so at least two
    /// trailing epochs stay churn-free; see [`CampaignConfig`]).
    pub epochs: u32,
    /// Events drawn per churn epoch.
    pub per_epoch: u32,
    /// Seed of the churn draw.
    pub seed: u64,
}

/// One soak-campaign scenario, fully replayable.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Base network family.
    pub topology: Topology,
    /// Initiator count (spread evenly over the surviving instance each
    /// epoch; clamped to the instance size).
    pub initiators: usize,
    /// Worker shards of the service.
    pub shards: usize,
    /// Master seed (service seeds and fault draws derive from it).
    pub seed: u64,
    /// Campaign length in epochs (epoch 0 runs on the pristine base).
    pub epochs: u32,
    /// Requests submitted per epoch.
    pub requests_per_epoch: u64,
    /// Seeded churn, or `None` for a churn-free cell.
    pub churn: Option<ChurnSpec>,
    /// Registers corrupted per lane in each disturbance epoch (0 = no
    /// corruption).
    pub corrupt_registers: usize,
    /// Daemon strategy of every lane.
    pub daemon: ServeDaemon,
    /// Step backend of every lane.
    pub engine: Engine,
    /// SLO window in units of the instance diameter: a request meets the
    /// SLO if its correct cycle closed within `slo_k · diameter` rounds.
    pub slo_k: u64,
    /// Per-request step budget.
    pub step_limit: u64,
}

impl CampaignConfig {
    /// A small default scenario on the given topology: 2 initiators,
    /// 2 shards, 5 epochs of 16 requests, no churn or corruption, the
    /// synchronous daemon on the default engine, and a `16 · diameter`
    /// SLO.
    pub fn new(topology: Topology, seed: u64) -> Self {
        CampaignConfig {
            topology,
            initiators: 2,
            shards: 2,
            seed,
            epochs: 5,
            requests_per_epoch: 16,
            churn: None,
            corrupt_registers: 0,
            daemon: ServeDaemon::Synchronous,
            engine: Engine::default(),
            slo_k: 16,
            step_limit: 100_000,
        }
    }

    /// The last epoch allowed to carry a disturbance: clamped so at least
    /// one post-disturbance epoch *and* one steady epoch remain.
    fn disturbance_end(&self) -> u32 {
        self.epochs.saturating_sub(3)
    }
}

/// One graded campaign cell — the scenario that produced it plus every
/// measured figure, JSON-serializable into the `chaos_slo` envelope.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosCell {
    /// Base topology, in [`Topology::parse`] spec format.
    pub topology: String,
    /// Base network size.
    pub n_base: usize,
    /// Configured initiator count.
    pub initiators: usize,
    /// Worker shards.
    pub shards: usize,
    /// Master seed.
    pub seed: u64,
    /// Campaign length in epochs.
    pub epochs: u32,
    /// Requests per epoch.
    pub requests_per_epoch: u64,
    /// Seeded churn parameters (`None` = churn-free).
    pub churn: Option<ChurnSpec>,
    /// Registers corrupted per lane per disturbance epoch.
    pub corrupt_registers: usize,
    /// Lane daemon name.
    pub daemon: String,
    /// Step backend name.
    pub engine: String,
    /// SLO window factor.
    pub slo_k: u64,
    /// Per-request step budget.
    pub step_limit: u64,
    /// Churn events applied.
    pub churn_applied: u64,
    /// Churn events refused (disconnecting or no-op).
    pub churn_skipped: u64,
    /// Last epoch that carried an applied churn event or a corruption
    /// campaign (0 = undisturbed).
    pub last_disturbance_epoch: u32,
    /// Survivors in the final instance.
    pub final_n: usize,
    /// Diameter of the final instance.
    pub final_diameter: u64,
    /// Requests submitted over the whole campaign.
    pub requests_total: u64,
    /// Completed with \[PIF1\] ∧ \[PIF2\].
    pub completed_ok: u64,
    /// Completed with a verdict violation (fault casualties).
    pub completed_bad: u64,
    /// Shed by admission control.
    pub shed_displaced: u64,
    /// Shed because their initiator's processor left the topology.
    pub shed_retired: u64,
    /// Step budget expired.
    pub timed_out: u64,
    /// In-flight or pre-fault casualties of corruption campaigns.
    pub casualties: u64,
    /// Whether every epoch's ledger upheld the snap-stabilization claim.
    pub snap_ok: bool,
    /// Requests issued in epochs after the last disturbance.
    pub post_total: u64,
    /// ... of which completed correctly within the SLO window.
    pub post_within_slo: u64,
    /// Requests issued ≥ 2 epochs after the last disturbance.
    pub steady_total: u64,
    /// ... of which completed correctly within the SLO window.
    pub steady_within_slo: u64,
    /// Median turnaround of completed requests, in steps.
    pub p50_turnaround_steps: u64,
    /// 99th-percentile turnaround of completed requests, in steps.
    pub p99_turnaround_steps: u64,
    /// Steps executed across all epochs and lanes.
    pub total_steps: u64,
    /// Rounds completed across all epochs and lanes.
    pub total_rounds: u64,
    /// Wall-clock seconds (not deterministic, excluded from replay
    /// comparison).
    pub elapsed_seconds: f64,
}

impl ChaosCell {
    /// Post-disturbance availability (1.0 when nothing was disturbed or
    /// no post-disturbance request exists).
    pub fn availability(&self) -> f64 {
        ratio(self.post_within_slo, self.post_total)
    }

    /// Steady-state availability — the `n/n` acceptance figure.
    pub fn steady_availability(&self) -> f64 {
        ratio(self.steady_within_slo, self.steady_total)
    }

    /// Reconstructs the scenario this cell records.
    ///
    /// # Errors
    ///
    /// [`ChaosError::Report`] if the recorded topology, daemon, or
    /// engine name does not parse.
    pub fn scenario(&self) -> Result<CampaignConfig, ChaosError> {
        Ok(CampaignConfig {
            topology: Topology::parse(&self.topology)
                .map_err(|e| ChaosError::Report(format!("bad topology spec: {e}")))?,
            initiators: self.initiators,
            shards: self.shards,
            seed: self.seed,
            epochs: self.epochs,
            requests_per_epoch: self.requests_per_epoch,
            churn: self.churn,
            corrupt_registers: self.corrupt_registers,
            daemon: ServeDaemon::parse(&self.daemon)?,
            engine: Engine::parse(&self.engine)
                .ok_or_else(|| ChaosError::Report(format!("unknown engine {:?}", self.engine)))?,
            slo_k: self.slo_k,
            step_limit: self.step_limit,
        })
    }

    /// Whether the replay-stable fields of two cells coincide (ignores
    /// the wall-clock figure).
    pub fn deterministic_eq(&self, other: &ChaosCell) -> bool {
        let a = (self, 0.0f64);
        let b = (other, 0.0f64);
        let strip = |(c, z): (&ChaosCell, f64)| ChaosCell { elapsed_seconds: z, ..c.clone() };
        strip(a) == strip(b)
    }

    /// The cell as one JSON row of the chaos envelope.
    pub fn to_json(&self) -> Json {
        let churn = self.churn.map(|c| {
            Json::obj([
                ("epochs", c.epochs.into()),
                ("per_epoch", c.per_epoch.into()),
                ("seed", c.seed.into()),
            ])
        });
        Json::obj([
            ("topology", (&self.topology).into()),
            ("n_base", self.n_base.into()),
            ("initiators", self.initiators.into()),
            ("shards", self.shards.into()),
            ("seed", self.seed.into()),
            ("epochs", self.epochs.into()),
            ("requests_per_epoch", self.requests_per_epoch.into()),
            ("churn", churn.into()),
            ("corrupt_registers", self.corrupt_registers.into()),
            ("daemon", (&self.daemon).into()),
            ("engine", (&self.engine).into()),
            ("slo_k", self.slo_k.into()),
            ("step_limit", self.step_limit.into()),
            ("churn_applied", self.churn_applied.into()),
            ("churn_skipped", self.churn_skipped.into()),
            ("last_disturbance_epoch", self.last_disturbance_epoch.into()),
            ("final_n", self.final_n.into()),
            ("final_diameter", self.final_diameter.into()),
            ("requests_total", self.requests_total.into()),
            ("completed_ok", self.completed_ok.into()),
            ("completed_bad", self.completed_bad.into()),
            ("shed_displaced", self.shed_displaced.into()),
            ("shed_retired", self.shed_retired.into()),
            ("timed_out", self.timed_out.into()),
            ("casualties", self.casualties.into()),
            ("snap_ok", self.snap_ok.into()),
            ("post_total", self.post_total.into()),
            ("post_within_slo", self.post_within_slo.into()),
            ("steady_total", self.steady_total.into()),
            ("steady_within_slo", self.steady_within_slo.into()),
            ("availability", Json::fixed(self.availability(), 6)),
            ("steady_availability", Json::fixed(self.steady_availability(), 6)),
            ("p50_turnaround_steps", self.p50_turnaround_steps.into()),
            ("p99_turnaround_steps", self.p99_turnaround_steps.into()),
            ("total_steps", self.total_steps.into()),
            ("total_rounds", self.total_rounds.into()),
            ("elapsed_seconds", Json::fixed(self.elapsed_seconds, 6)),
        ])
    }

    /// Parses one result row produced by [`ChaosCell::to_json`] (derived
    /// availability figures are recomputed, not trusted).
    ///
    /// # Errors
    ///
    /// [`ChaosError::Report`] naming the first missing, mistyped or
    /// out-of-range field.
    pub fn from_json(v: &Json) -> Result<Self, ChaosError> {
        let churn = match v.field::<Option<&Json>>("churn")? {
            None => None,
            Some(c) => Some(ChurnSpec {
                epochs: c.field("epochs")?,
                per_epoch: c.field("per_epoch")?,
                seed: c.field("seed")?,
            }),
        };
        Ok(ChaosCell {
            topology: v.field("topology")?,
            n_base: v.field("n_base")?,
            initiators: v.field("initiators")?,
            shards: v.field("shards")?,
            seed: v.field("seed")?,
            epochs: v.field("epochs")?,
            requests_per_epoch: v.field("requests_per_epoch")?,
            churn,
            corrupt_registers: v.field("corrupt_registers")?,
            daemon: v.field("daemon")?,
            engine: v.field("engine")?,
            slo_k: v.field("slo_k")?,
            step_limit: v.field("step_limit")?,
            churn_applied: v.field("churn_applied")?,
            churn_skipped: v.field("churn_skipped")?,
            last_disturbance_epoch: v.field("last_disturbance_epoch")?,
            final_n: v.field("final_n")?,
            final_diameter: v.field("final_diameter")?,
            requests_total: v.field("requests_total")?,
            completed_ok: v.field("completed_ok")?,
            completed_bad: v.field("completed_bad")?,
            shed_displaced: v.field("shed_displaced")?,
            shed_retired: v.field("shed_retired")?,
            timed_out: v.field("timed_out")?,
            casualties: v.field("casualties")?,
            snap_ok: v.field("snap_ok")?,
            post_total: v.field("post_total")?,
            post_within_slo: v.field("post_within_slo")?,
            steady_total: v.field("steady_total")?,
            steady_within_slo: v.field("steady_within_slo")?,
            p50_turnaround_steps: v.field("p50_turnaround_steps")?,
            p99_turnaround_steps: v.field("p99_turnaround_steps")?,
            total_steps: v.field("total_steps")?,
            total_rounds: v.field("total_rounds")?,
            elapsed_seconds: v.field("elapsed_seconds")?,
        })
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        1.0
    } else {
        num as f64 / den as f64
    }
}

/// Nearest-rank percentile of a sorted sample (0 for an empty one).
fn percentile(sorted: &[u64], p: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as u64).div_ceil(100).max(1) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Runs one soak campaign and grades it. Deterministic in the scenario:
/// two runs of the same [`CampaignConfig`] produce
/// [`ChaosCell::deterministic_eq`] cells.
///
/// # Errors
///
/// [`ChaosError::Graph`] for an invalid base topology,
/// [`ChaosError::NetworkTooLarge`] for one with more processors than the
/// protocol admits (judged before it is built), or [`ChaosError::Serve`]
/// if the serving layer rejects a campaign step.
pub fn run_campaign(cfg: &CampaignConfig) -> Result<ChaosCell, ChaosError> {
    let start = Instant::now();
    if let Some(procs) = cfg.topology.processors() {
        PifProtocol::check_size(procs).map_err(ChaosError::NetworkTooLarge)?;
    }
    let base = cfg.topology.build()?;
    let disturb_end = cfg.disturbance_end();
    let plan = match cfg.churn {
        Some(c) => ChurnPlan::seeded(&base, c.epochs.min(disturb_end), c.per_epoch, c.seed),
        None => ChurnPlan::none(),
    };
    let mut dyn_g = DynGraph::new(base.clone());

    let mut last_disturbance = 0u32;
    let mut snap_ok = true;
    let mut total_steps = 0u64;
    let mut total_rounds = 0u64;
    // (epoch, SLO window in rounds, that epoch's ledger records)
    let mut epoch_records = Vec::new();
    // Carried replica registers, keyed by initiator *base* id; register
    // `par` fields are stored in base ids too, remapped on reuse.
    let mut carried: Vec<(ProcId, Vec<Option<PifState>>)> = Vec::new();
    let mut next_payload = 0u64;
    let mut final_n = base.len();
    let mut final_diameter = u64::from(metrics::diameter(&base));

    for epoch in 0..cfg.epochs {
        let (g, map) = dyn_g.snapshot();
        let n = g.len();
        let diameter = u64::from(metrics::diameter(&g));
        final_n = n;
        final_diameter = diameter;
        let slo_rounds = cfg.slo_k * diameter.max(1);
        let initiators = pif_serve::spread_initiators(n, cfg.initiators.clamp(1, n));
        let mut inverse: Vec<Option<usize>> = vec![None; base.len()];
        for (i, &b) in map.iter().enumerate() {
            inverse[b.index()] = Some(i);
        }

        // Re-anchor every initiator lane on the compacted instance,
        // carrying its surviving replicas' registers across the rebuild.
        let defaults = initial::normal_starting(&g);
        let mut lane_states = Vec::new();
        for &p in &initiators {
            let b = map[p.index()];
            if let Some((_, base_states)) = carried.iter().find(|(q, _)| *q == b) {
                let states: Vec<PifState> = (0..n)
                    .map(|j| match base_states[map[j].index()] {
                        Some(s) => {
                            // A departed parent degrades to self — the
                            // correction phase re-anchors it (Theorem 4).
                            let par = inverse[s.par.index()]
                                .map_or(ProcId::from_index(j), ProcId::from_index);
                            PifState { par, ..s }
                        }
                        None => defaults[j],
                    })
                    .collect();
                lane_states.push((p, states));
            }
        }

        let mut config = ServeConfig::new(cfg.topology.clone())
            .initiators(initiators.clone())
            .shards(cfg.shards)
            .seed(splitmix64(cfg.seed ^ (u64::from(epoch) << 8)))
            .daemon(cfg.daemon)
            .engine(cfg.engine)
            .step_limit(cfg.step_limit)
            .queue_capacity(usize::try_from(cfg.requests_per_epoch).unwrap_or(usize::MAX).max(1))
            .graph_override(g.clone());
        if !lane_states.is_empty() {
            config = config.lane_states(lane_states);
        }
        let mut service: WaveService<u64> = WaveService::new(config)?;

        if cfg.corrupt_registers > 0 && (1..=disturb_end).contains(&epoch) {
            service.schedule_fault(FaultSpec {
                after_completions: (cfg.requests_per_epoch / 4).max(1),
                registers_per_lane: cfg.corrupt_registers,
                seed: splitmix64(cfg.seed ^ (u64::from(epoch) << 24) ^ 0xFA17),
            });
            last_disturbance = last_disturbance.max(epoch);
        }

        for i in 0..cfg.requests_per_epoch {
            let initiator = initiators[usize::try_from(i).unwrap_or(0) % initiators.len()];
            let kind = AggregateKind::ALL[(next_payload % 4) as usize];
            service.submit(Request::new(initiator, next_payload, kind))?;
            next_payload += 1;
        }

        // The epoch's churn boundary: graph changes take effect at the
        // next rebuild, but a departing initiator's lane retires NOW,
        // shedding its queued requests as `ShedCause::Retired`.
        let events: Vec<ChurnAction> = plan.events_at(epoch).map(|e| e.action).collect();
        for action in events {
            if dyn_g.apply(action) == ChurnOutcome::Applied {
                last_disturbance = last_disturbance.max(epoch);
                if let ChurnAction::Leave(b) = action {
                    if let Some(c) = inverse[b.index()] {
                        let p = ProcId::from_index(c);
                        if initiators.contains(&p) {
                            service.retire_initiator(p)?;
                        }
                    }
                }
            }
        }

        service.run()?;
        let ledger = service.ledger();
        if ledger.assert_snap().is_err() {
            snap_ok = false;
        }
        let phases = service.phase_report();
        total_steps += phases.total_steps;
        total_rounds += phases.total_rounds;
        epoch_records.push((epoch, slo_rounds, ledger.records().collect::<Vec<_>>()));

        // Carry the surviving lanes' replicas forward in base ids.
        carried = service
            .lane_states()
            .into_iter()
            .map(|(p, states)| {
                let mut base_states = vec![None; base.len()];
                for (j, s) in states.iter().enumerate() {
                    base_states[map[j].index()] =
                        Some(PifState { par: map[s.par.index()], ..*s });
                }
                (map[p.index()], base_states)
            })
            .collect();
    }

    let mut completed_ok = 0u64;
    let mut completed_bad = 0u64;
    let mut shed_displaced = 0u64;
    let mut shed_retired = 0u64;
    let mut timed_out = 0u64;
    let mut casualties = 0u64;
    let mut requests_total = 0u64;
    let (mut post_total, mut post_within) = (0u64, 0u64);
    let (mut steady_total, mut steady_within) = (0u64, 0u64);
    let mut turnarounds = Vec::new();
    for (epoch, slo_rounds, records) in &epoch_records {
        for r in records {
            requests_total += 1;
            match &r.outcome {
                RequestOutcome::Completed { .. } => {
                    if r.is_correct() {
                        completed_ok += 1;
                    } else {
                        completed_bad += 1;
                    }
                    if r.is_casualty() {
                        casualties += 1;
                    }
                    turnarounds.push(r.turnaround_steps);
                }
                RequestOutcome::Shed { cause: ShedCause::Displaced } => shed_displaced += 1,
                RequestOutcome::Shed { cause: ShedCause::Retired } => shed_retired += 1,
                RequestOutcome::TimedOut => timed_out += 1,
            }
            let within = r.is_correct() && r.cycle_rounds <= *slo_rounds;
            if *epoch > last_disturbance {
                post_total += 1;
                if within {
                    post_within += 1;
                }
                if *epoch >= last_disturbance + 2 {
                    steady_total += 1;
                    if within {
                        steady_within += 1;
                    }
                }
            }
        }
    }
    turnarounds.sort_unstable();

    Ok(ChaosCell {
        topology: cfg.topology.spec(),
        n_base: base.len(),
        initiators: cfg.initiators,
        shards: cfg.shards,
        seed: cfg.seed,
        epochs: cfg.epochs,
        requests_per_epoch: cfg.requests_per_epoch,
        churn: cfg.churn,
        corrupt_registers: cfg.corrupt_registers,
        daemon: cfg.daemon.name().to_string(),
        engine: cfg.engine.name().to_string(),
        slo_k: cfg.slo_k,
        step_limit: cfg.step_limit,
        churn_applied: dyn_g.applied(),
        churn_skipped: dyn_g.skipped(),
        last_disturbance_epoch: last_disturbance,
        final_n,
        final_diameter,
        requests_total,
        completed_ok,
        completed_bad,
        shed_displaced,
        shed_retired,
        timed_out,
        casualties,
        snap_ok,
        post_total,
        post_within_slo: post_within,
        steady_total,
        steady_within_slo: steady_within,
        p50_turnaround_steps: percentile(&turnarounds, 50),
        p99_turnaround_steps: percentile(&turnarounds, 99),
        total_steps,
        total_rounds,
        elapsed_seconds: start.elapsed().as_secs_f64(),
    })
}

/// Wraps campaign cells in the versioned `chaos_slo` benchmark envelope
/// (`BENCH_chaos_slo.json` format).
pub fn envelope(seed: u64, cells: &[ChaosCell]) -> String {
    let header = [
        ("benchmark", BENCHMARK.into()),
        ("version", CHAOS_REPORT_VERSION.into()),
        ("seed", seed.into()),
    ];
    json::write_envelope(&header, cells.iter().map(ChaosCell::to_json))
}

/// Parses a `chaos_slo` benchmark envelope back into its cells.
///
/// # Errors
///
/// [`ChaosError::Report`] on syntax errors, a wrong benchmark name, an
/// unsupported version, or a malformed cell.
pub fn parse_envelope(text: &str) -> Result<(u64, Vec<ChaosCell>), ChaosError> {
    json::read_envelope(text, BENCHMARK, CHAOS_REPORT_VERSION, ChaosCell::from_json)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(topology: Topology, seed: u64) -> CampaignConfig {
        CampaignConfig {
            epochs: 5,
            requests_per_epoch: 8,
            slo_k: 32,
            ..CampaignConfig::new(topology, seed)
        }
    }

    #[test]
    fn clean_soak_meets_the_slo_everywhere() {
        let cell = run_campaign(&small(Topology::Ring { n: 8 }, 11)).unwrap();
        assert_eq!(cell.requests_total, 40);
        assert_eq!(cell.completed_ok, 40);
        assert_eq!(cell.completed_bad + cell.timed_out + cell.casualties, 0);
        assert!(cell.snap_ok);
        assert_eq!(cell.last_disturbance_epoch, 0);
        assert_eq!(cell.post_total, 32, "epochs 1..=4 are all post-'disturbance'");
        assert!((cell.availability() - 1.0).abs() < 1e-12);
        assert!((cell.steady_availability() - 1.0).abs() < 1e-12);
        assert!(cell.p50_turnaround_steps > 0);
        assert!(cell.p99_turnaround_steps >= cell.p50_turnaround_steps);
    }

    #[test]
    fn churned_soak_stays_available_in_the_steady_state() {
        let mut cfg = small(Topology::Ring { n: 8 }, 23);
        cfg.churn = Some(ChurnSpec { epochs: 2, per_epoch: 3, seed: 5 });
        let cell = run_campaign(&cfg).unwrap();
        assert!(cell.churn_applied > 0, "the seeded plan must land something");
        assert!(cell.last_disturbance_epoch <= 2);
        assert!(cell.steady_total > 0);
        assert_eq!(
            cell.steady_within_slo, cell.steady_total,
            "steady availability must be n/n on a connected topology"
        );
        assert!(cell.snap_ok);
    }

    #[test]
    fn corruption_soak_recovers_to_full_availability() {
        let mut cfg = small(Topology::Grid { w: 3, h: 3 }, 31);
        cfg.corrupt_registers = 3;
        let cell = run_campaign(&cfg).unwrap();
        assert_eq!(cell.last_disturbance_epoch, 2, "corruption arms epochs 1..=2");
        assert!(cell.snap_ok, "casualties are allowed, snap violations are not");
        assert_eq!(cell.steady_within_slo, cell.steady_total);
        assert!(cell.steady_total > 0);
    }

    #[test]
    fn campaigns_replay_bit_identically() {
        let mut cfg = small(Topology::Ring { n: 8 }, 42);
        cfg.churn = Some(ChurnSpec { epochs: 2, per_epoch: 2, seed: 9 });
        cfg.corrupt_registers = 2;
        let a = run_campaign(&cfg).unwrap();
        let b = run_campaign(&cfg).unwrap();
        assert!(a.deterministic_eq(&b));
        // ... and through the recorded scenario (the `check` path).
        let c = run_campaign(&a.scenario().unwrap()).unwrap();
        assert!(a.deterministic_eq(&c));
    }

    #[test]
    fn cells_round_trip_through_the_envelope() {
        let mut cfg = small(Topology::Chain { n: 6 }, 3);
        cfg.churn = Some(ChurnSpec { epochs: 1, per_epoch: 2, seed: 1 });
        let cell = run_campaign(&cfg).unwrap();
        let text = envelope(3, std::slice::from_ref(&cell));
        let (seed, cells) = parse_envelope(&text).unwrap();
        assert_eq!(seed, 3);
        assert_eq!(cells.len(), 1);
        assert!(cells[0].deterministic_eq(&cell), "round trip is exact");
        assert!((cells[0].elapsed_seconds - cell.elapsed_seconds).abs() < 1e-6);
        assert!(parse_envelope(&text.replace("chaos_slo", "bogus")).is_err());
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 99), 99);
        assert_eq!(percentile(&[7], 99), 7);
        assert_eq!(percentile(&[], 50), 0);
    }
}

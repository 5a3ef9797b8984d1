//! Versioned service throughput/latency reports.
//!
//! A [`ServiceReport`] captures one service run: configuration (enough to
//! replay it), ledger verdicts, per-phase move counts, and sparse
//! power-of-two latency histograms in **deterministic units** (steps and
//! rounds) — so the whole report except the wall-clock throughput figures
//! is a pure function of the recorded seed and can be re-derived bit-for-
//! bit by `pif-serve check`. JSON is emitted/parsed with the workspace's
//! hermetic [`pif_daemon::json`] layer.

use pif_daemon::json::{self, Json};
use pif_daemon::{PhaseReport, PhaseTag};
use pif_graph::Topology;

use crate::ledger::LedgerSummary;
use crate::service::{Scenario, ServeDaemon};
use crate::{ServeError, WaveService};

/// Report format version (bump on breaking field changes).
pub const REPORT_VERSION: u64 = 1;

/// The `benchmark` name of the service envelope.
const BENCHMARK: &str = "service_throughput";

/// A sparse power-of-two histogram: `(bucket, count)` pairs where bucket
/// `b` counts values `v` with `2^(b-1) < v <= 2^b` (bucket 0 counts
/// `v <= 1`), ascending by bucket, zero buckets omitted.
pub type SparseHist = Vec<(u32, u64)>;

/// Buckets `values` into a [`SparseHist`].
pub fn sparse_pow2_hist(values: impl Iterator<Item = u64>) -> SparseHist {
    let mut buckets = [0u64; 65];
    for v in values {
        let b = if v <= 1 { 0 } else { 64 - (v - 1).leading_zeros() as usize };
        buckets[b] += 1;
    }
    buckets
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c > 0)
        .map(|(b, &c)| (b as u32, c))
        .collect()
}

/// One service run's results.
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceReport {
    /// Topology spec in [`Topology::parse`] format.
    pub topology: String,
    /// Network size.
    pub n: usize,
    /// Configured initiators (processor ids).
    pub initiators: Vec<u32>,
    /// Shard count.
    pub shards: usize,
    /// Master seed (replay key).
    pub seed: u64,
    /// Lane daemon name ([`ServeDaemon::name`]).
    pub daemon: String,
    /// Requests submitted (accepted or shed).
    pub requests: u64,
    /// Ledger verdicts.
    pub summary: LedgerSummary,
    /// Fault campaign replay parameters, if one was scheduled:
    /// `(after_completions, registers_per_lane, seed)`.
    pub fault: Option<(u64, usize, u64)>,
    /// Steps executed across all lanes.
    pub total_steps: u64,
    /// Completed rounds across all lanes.
    pub total_rounds: u64,
    /// Executed actions per PIF phase, [`PhaseTag::ALL`] order.
    pub phase_moves: [u64; PhaseTag::COUNT],
    /// Broadcast-phase latency per request (steps, root `B` → last copy).
    pub broadcast_steps: SparseHist,
    /// Feedback-phase latency per request (steps, last copy → root `F`).
    pub feedback_steps: SparseHist,
    /// Full-cycle latency per request (rounds, root `B` → root `F`).
    pub cycle_rounds: SparseHist,
    /// Turnaround per request (steps, arming → completion; includes the
    /// pipelining wait for the root's own cleaning).
    pub turnaround_steps: SparseHist,
    /// Wall-clock seconds spent serving (not deterministic).
    pub elapsed_seconds: f64,
    /// Completed requests per wall-clock second (not deterministic).
    pub requests_per_sec: f64,
}

impl ServiceReport {
    /// Captures the current state of a service (call after
    /// [`WaveService::run`]).
    pub fn capture<M: Clone + PartialEq + std::fmt::Debug + Send>(
        service: &WaveService<M>,
        fault: Option<(u64, usize, u64)>,
    ) -> Self {
        let ledger = service.ledger();
        let summary = ledger.summary();
        let phases: PhaseReport = service.phase_report();
        let completed_records = || {
            ledger.records().filter(|r| {
                matches!(r.outcome, crate::RequestOutcome::Completed { .. })
            })
        };
        let elapsed = service.run_seconds();
        let served = summary.completed_ok + summary.completed_bad;
        ServiceReport {
            topology: service.config().topology.spec(),
            n: service.graph().len(),
            initiators: service.config().initiators.iter().map(|p| p.0).collect(),
            shards: service.config().shards,
            seed: service.config().seed,
            daemon: service.config().daemon.name().to_string(),
            requests: service.submitted(),
            summary,
            fault,
            total_steps: phases.total_steps,
            total_rounds: phases.total_rounds,
            phase_moves: phases.moves,
            broadcast_steps: sparse_pow2_hist(completed_records().map(|r| r.broadcast_steps)),
            feedback_steps: sparse_pow2_hist(completed_records().map(|r| r.feedback_steps)),
            cycle_rounds: sparse_pow2_hist(completed_records().map(|r| r.cycle_rounds)),
            turnaround_steps: sparse_pow2_hist(completed_records().map(|r| r.turnaround_steps)),
            elapsed_seconds: elapsed,
            requests_per_sec: if elapsed > 0.0 { served as f64 / elapsed } else { 0.0 },
        }
    }

    /// Whether the replay-stable fields of two reports coincide (ignores
    /// the wall-clock figures).
    pub fn deterministic_eq(&self, other: &ServiceReport) -> bool {
        self.topology == other.topology
            && self.n == other.n
            && self.initiators == other.initiators
            && self.shards == other.shards
            && self.seed == other.seed
            && self.daemon == other.daemon
            && self.requests == other.requests
            && self.summary == other.summary
            && self.fault == other.fault
            && self.total_steps == other.total_steps
            && self.total_rounds == other.total_rounds
            && self.phase_moves == other.phase_moves
            && self.broadcast_steps == other.broadcast_steps
            && self.feedback_steps == other.feedback_steps
            && self.cycle_rounds == other.cycle_rounds
            && self.turnaround_steps == other.turnaround_steps
    }

    /// The report as one JSON row of the service envelope.
    pub fn to_json(&self) -> Json {
        let s = &self.summary;
        let summary = Json::obj([
            ("total", s.total.into()),
            ("completed_ok", s.completed_ok.into()),
            ("completed_bad", s.completed_bad.into()),
            ("shed", s.shed.into()),
            ("timed_out", s.timed_out.into()),
            ("casualties", s.casualties.into()),
            ("post_fault_total", s.post_fault_total.into()),
            ("post_fault_ok", s.post_fault_ok.into()),
        ]);
        let fault = self.fault.map(|(after, k, seed)| {
            Json::obj([
                ("after_completions", after.into()),
                ("registers_per_lane", k.into()),
                ("seed", seed.into()),
            ])
        });
        let phase_moves =
            PhaseTag::ALL.iter().zip(self.phase_moves).map(|(t, m)| (format!("{t:?}"), m.into()));
        let hist = |h: &SparseHist| h.iter().map(|&(b, c)| Json::from([u64::from(b), c])).collect();
        Json::obj([
            ("topology", (&self.topology).into()),
            ("n", self.n.into()),
            ("initiators", self.initiators.iter().copied().collect()),
            ("shards", self.shards.into()),
            ("seed", self.seed.into()),
            ("daemon", (&self.daemon).into()),
            ("requests", self.requests.into()),
            ("summary", summary),
            ("fault", fault.into()),
            ("total_steps", self.total_steps.into()),
            ("total_rounds", self.total_rounds.into()),
            ("phase_moves", Json::Obj(phase_moves.collect())),
            ("broadcast_steps_hist", hist(&self.broadcast_steps)),
            ("feedback_steps_hist", hist(&self.feedback_steps)),
            ("cycle_rounds_hist", hist(&self.cycle_rounds)),
            ("turnaround_steps_hist", hist(&self.turnaround_steps)),
            ("elapsed_seconds", Json::fixed(self.elapsed_seconds, 6)),
            ("requests_per_sec", Json::fixed(self.requests_per_sec, 3)),
        ])
    }

    /// Parses one result row produced by [`ServiceReport::to_json`].
    ///
    /// # Errors
    ///
    /// [`ServeError::Report`] naming the first missing, mistyped or
    /// out-of-range field.
    pub fn from_json(v: &Json) -> Result<Self, ServeError> {
        let summary_v: &Json = v.field("summary")?;
        let summary = LedgerSummary {
            total: summary_v.field("total")?,
            completed_ok: summary_v.field("completed_ok")?,
            completed_bad: summary_v.field("completed_bad")?,
            shed: summary_v.field("shed")?,
            timed_out: summary_v.field("timed_out")?,
            casualties: summary_v.field("casualties")?,
            post_fault_total: summary_v.field("post_fault_total")?,
            post_fault_ok: summary_v.field("post_fault_ok")?,
        };
        let fault = match v.field::<Option<&Json>>("fault")? {
            None => None,
            Some(f) => Some((
                f.field("after_completions")?,
                f.field("registers_per_lane")?,
                f.field("seed")?,
            )),
        };
        let moves_v: &Json = v.field("phase_moves")?;
        let mut phase_moves = [0u64; PhaseTag::COUNT];
        for (m, tag) in phase_moves.iter_mut().zip(PhaseTag::ALL) {
            *m = moves_v.field(&format!("{tag:?}"))?;
        }
        Ok(ServiceReport {
            topology: v.field("topology")?,
            n: v.field("n")?,
            initiators: v.field("initiators")?,
            shards: v.field("shards")?,
            seed: v.field("seed")?,
            daemon: v.field("daemon")?,
            requests: v.field("requests")?,
            summary,
            fault,
            total_steps: v.field("total_steps")?,
            total_rounds: v.field("total_rounds")?,
            phase_moves,
            broadcast_steps: v.field("broadcast_steps_hist")?,
            feedback_steps: v.field("feedback_steps_hist")?,
            cycle_rounds: v.field("cycle_rounds_hist")?,
            turnaround_steps: v.field("turnaround_steps_hist")?,
            elapsed_seconds: v.field("elapsed_seconds")?,
            requests_per_sec: v.field("requests_per_sec")?,
        })
    }

    /// The daemon this report was produced under.
    ///
    /// # Errors
    ///
    /// [`ServeError::Report`] on an unknown daemon name.
    pub fn daemon_kind(&self) -> Result<ServeDaemon, ServeError> {
        ServeDaemon::parse(&self.daemon)
    }

    /// Reconstructs the [`Scenario`] that produced this report, for
    /// deterministic replay (`pif-serve check`).
    ///
    /// # Errors
    ///
    /// [`ServeError::Report`] on an unparseable topology or daemon name.
    pub fn scenario(&self) -> Result<Scenario, ServeError> {
        let topology = Topology::parse(&self.topology)
            .map_err(|e| ServeError::Report(format!("bad topology spec: {e}")))?;
        Ok(Scenario {
            topology,
            initiators: self.initiators.iter().map(|&i| pif_graph::ProcId(i)).collect(),
            shards: self.shards,
            seed: self.seed,
            daemon: self.daemon_kind()?,
            requests: self.requests,
            fault: self.fault,
        })
    }
}

/// Wraps per-configuration reports in the versioned benchmark envelope
/// (`BENCH_service_throughput.json` format).
pub fn envelope(seed: u64, results: &[ServiceReport]) -> String {
    let header = [
        ("benchmark", BENCHMARK.into()),
        ("version", REPORT_VERSION.into()),
        ("seed", seed.into()),
    ];
    json::write_envelope(&header, results.iter().map(ServiceReport::to_json))
}

/// Parses a benchmark envelope back into its reports.
///
/// # Errors
///
/// [`ServeError::Report`] on syntax errors, a wrong benchmark name, an
/// unsupported version, or a malformed report.
pub fn parse_envelope(text: &str) -> Result<(u64, Vec<ServiceReport>), ServeError> {
    json::read_envelope(text, BENCHMARK, REPORT_VERSION, ServiceReport::from_json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_hist_buckets_pow2() {
        let h = sparse_pow2_hist([0u64, 1, 2, 3, 4, 1024].into_iter());
        // 0 and 1 → bucket 0; 2 → bucket 1; 3, 4 → bucket 2; 1024 → bucket 10.
        assert_eq!(h, vec![(0, 2), (1, 1), (2, 2), (10, 1)]);
        assert!(sparse_pow2_hist(std::iter::empty()).is_empty());
    }

    fn sample_report() -> ServiceReport {
        ServiceReport {
            topology: "torus:4x4".into(),
            n: 16,
            initiators: vec![0, 5],
            shards: 2,
            seed: 7,
            daemon: "synchronous".into(),
            requests: 100,
            summary: LedgerSummary {
                total: 100,
                completed_ok: 98,
                completed_bad: 1,
                shed: 1,
                timed_out: 0,
                casualties: 1,
                post_fault_total: 50,
                post_fault_ok: 50,
            },
            fault: Some((25, 8, 11)),
            total_steps: 12345,
            total_rounds: 678,
            phase_moves: [10, 2, 9, 8, 1, 0],
            broadcast_steps: vec![(3, 40), (4, 58)],
            feedback_steps: vec![(3, 98)],
            cycle_rounds: vec![(5, 98)],
            turnaround_steps: vec![(6, 90), (7, 8)],
            elapsed_seconds: 0.25,
            requests_per_sec: 396.0,
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = sample_report();
        let text = r.to_json().to_string();
        let parsed = ServiceReport::from_json(&json::parse(&text).unwrap()).unwrap();
        assert!(r.deterministic_eq(&parsed));
        assert!((parsed.elapsed_seconds - r.elapsed_seconds).abs() < 1e-9);
    }

    #[test]
    fn envelope_round_trips() {
        let r = sample_report();
        let text = envelope(7, &[r.clone(), r.clone()]);
        let (seed, results) = parse_envelope(&text).unwrap();
        assert_eq!(seed, 7);
        assert_eq!(results.len(), 2);
        assert!(results[0].deterministic_eq(&r));
    }

    #[test]
    fn out_of_range_initiator_is_a_report_error() {
        let text = envelope(7, &[sample_report()]);
        let wide = text.replace("\"initiators\":[0,5]", "\"initiators\":[4294967296]");
        assert_ne!(wide, text);
        match parse_envelope(&wide) {
            Err(ServeError::Report(msg)) => assert!(msg.contains("initiators"), "{msg}"),
            other => panic!("expected a report error, got {other:?}"),
        }
    }

    #[test]
    fn envelope_rejects_wrong_benchmark() {
        assert!(parse_envelope("{\"benchmark\": \"other\", \"version\": 1}").is_err());
        assert!(parse_envelope("not json").is_err());
    }

    #[test]
    fn deterministic_eq_ignores_wall_clock() {
        let a = sample_report();
        let mut b = a.clone();
        b.elapsed_seconds = 99.0;
        b.requests_per_sec = 1.0;
        assert!(a.deterministic_eq(&b));
        b.total_steps += 1;
        assert!(!a.deterministic_eq(&b));
    }
}

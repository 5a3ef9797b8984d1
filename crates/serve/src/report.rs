//! Versioned service throughput/latency reports.
//!
//! A [`ServiceReport`] captures one service run: configuration (enough to
//! replay it), ledger verdicts, per-phase move counts, and sparse
//! power-of-two latency histograms in **deterministic units** (steps and
//! rounds) — so the whole report except the wall-clock throughput figures
//! is a pure function of the recorded seed and can be re-derived bit-for-
//! bit by `pif-serve check`. JSON is emitted/parsed with the workspace's
//! hermetic [`pif_daemon::json`] layer.

use std::fmt::Write as _;

use pif_daemon::json::{self, Json};
use pif_daemon::{PhaseReport, PhaseTag};
use pif_graph::Topology;

use crate::ledger::LedgerSummary;
use crate::service::{Scenario, ServeDaemon};
use crate::{ServeError, WaveService};

/// Report format version (bump on breaking field changes).
pub const REPORT_VERSION: u64 = 1;

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
    pub initiators: Vec<u64>,
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

/// Renders `t` in the [`Topology::parse`] spec format.
pub fn topology_spec(t: &Topology) -> String {
    match *t {
        Topology::Chain { n } => format!("chain:{n}"),
        Topology::Ring { n } => format!("ring:{n}"),
        Topology::Star { n } => format!("star:{n}"),
        Topology::Complete { n } => format!("complete:{n}"),
        Topology::KaryTree { n, k } => format!("tree:{n}:{k}"),
        Topology::RandomTree { n, seed } => format!("randtree:{n}:{seed}"),
        Topology::Grid { w, h } => format!("grid:{w}x{h}"),
        Topology::Torus { w, h } => format!("torus:{w}x{h}"),
        Topology::Hypercube { d } => format!("hypercube:{d}"),
        Topology::Lollipop { clique, tail } => format!("lollipop:{clique}:{tail}"),
        Topology::Caterpillar { spine, legs } => format!("caterpillar:{spine}:{legs}"),
        Topology::Wheel { n } => format!("wheel:{n}"),
        Topology::Bipartite { a, b } => format!("bipartite:{a}x{b}"),
        Topology::Petersen => "petersen".to_string(),
        Topology::Barbell { clique, bridge } => format!("barbell:{clique}:{bridge}"),
        Topology::Random { n, p, seed } => format!("random:{n}:{p}:{seed}"),
        _ => t.to_string(),
    }
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
            topology: topology_spec(&service.config().topology),
            n: service.graph().len(),
            initiators: service.config().initiators.iter().map(|p| u64::from(p.0)).collect(),
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

    /// Serializes to a JSON object string.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push('{');
        let _ = write!(out, "\"topology\": ");
        json::write_string(&self.topology, &mut out);
        let _ = write!(out, ", \"n\": {}", self.n);
        let ids: Vec<String> = self.initiators.iter().map(ToString::to_string).collect();
        let _ = write!(out, ", \"initiators\": [{}]", ids.join(", "));
        let _ = write!(out, ", \"shards\": {}", self.shards);
        let _ = write!(out, ", \"seed\": {}", self.seed);
        let _ = write!(out, ", \"daemon\": ");
        json::write_string(&self.daemon, &mut out);
        let _ = write!(out, ", \"requests\": {}", self.requests);
        let s = &self.summary;
        let _ = write!(
            out,
            ", \"summary\": {{\"total\": {}, \"completed_ok\": {}, \"completed_bad\": {}, \
             \"shed\": {}, \"timed_out\": {}, \"casualties\": {}, \"post_fault_total\": {}, \
             \"post_fault_ok\": {}}}",
            s.total,
            s.completed_ok,
            s.completed_bad,
            s.shed,
            s.timed_out,
            s.casualties,
            s.post_fault_total,
            s.post_fault_ok
        );
        match self.fault {
            Some((after, k, seed)) => {
                let _ = write!(
                    out,
                    ", \"fault\": {{\"after_completions\": {after}, \"registers_per_lane\": {k}, \
                     \"seed\": {seed}}}"
                );
            }
            None => out.push_str(", \"fault\": null"),
        }
        let _ = write!(out, ", \"total_steps\": {}", self.total_steps);
        let _ = write!(out, ", \"total_rounds\": {}", self.total_rounds);
        out.push_str(", \"phase_moves\": {");
        for (i, tag) in PhaseTag::ALL.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{:?}\": {}", tag, self.phase_moves[i]);
        }
        out.push('}');
        let hist = |name: &str, h: &SparseHist, out: &mut String| {
            let _ = write!(out, ", \"{name}\": [");
            for (i, (b, c)) in h.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "[{b}, {c}]");
            }
            out.push(']');
        };
        hist("broadcast_steps_hist", &self.broadcast_steps, &mut out);
        hist("feedback_steps_hist", &self.feedback_steps, &mut out);
        hist("cycle_rounds_hist", &self.cycle_rounds, &mut out);
        hist("turnaround_steps_hist", &self.turnaround_steps, &mut out);
        let _ = write!(out, ", \"elapsed_seconds\": {:.6}", self.elapsed_seconds);
        let _ = write!(out, ", \"requests_per_sec\": {:.3}", self.requests_per_sec);
        out.push('}');
        out
    }

    /// Parses one result object produced by [`ServiceReport::to_json`].
    ///
    /// # Errors
    ///
    /// [`ServeError::Report`] describing the first missing/ill-typed
    /// field.
    pub fn from_json(v: &Json) -> Result<Self, ServeError> {
        fn need<'a>(v: &'a Json, key: &str) -> Result<&'a Json, ServeError> {
            v.get(key).ok_or_else(|| ServeError::Report(format!("missing field {key:?}")))
        }
        fn num(v: &Json, key: &str) -> Result<u64, ServeError> {
            need(v, key)?
                .as_u64()
                .ok_or_else(|| ServeError::Report(format!("field {key:?} is not an integer")))
        }
        fn text(v: &Json, key: &str) -> Result<String, ServeError> {
            Ok(need(v, key)?
                .as_str()
                .ok_or_else(|| ServeError::Report(format!("field {key:?} is not a string")))?
                .to_string())
        }
        fn float(v: &Json, key: &str) -> Result<f64, ServeError> {
            match need(v, key)? {
                Json::Num(s) => s
                    .parse()
                    .map_err(|_| ServeError::Report(format!("field {key:?} is not a number"))),
                _ => Err(ServeError::Report(format!("field {key:?} is not a number"))),
            }
        }
        fn hist(v: &Json, key: &str) -> Result<SparseHist, ServeError> {
            let arr = need(v, key)?
                .as_array()
                .ok_or_else(|| ServeError::Report(format!("field {key:?} is not an array")))?;
            arr.iter()
                .map(|pair| {
                    let items = pair.as_array().filter(|a| a.len() == 2).ok_or_else(|| {
                        ServeError::Report(format!("field {key:?} has a malformed bucket"))
                    })?;
                    let b = items[0].as_u64().and_then(|b| u32::try_from(b).ok());
                    let c = items[1].as_u64();
                    match (b, c) {
                        (Some(b), Some(c)) => Ok((b, c)),
                        _ => Err(ServeError::Report(format!(
                            "field {key:?} has a non-integer bucket"
                        ))),
                    }
                })
                .collect()
        }

        let summary_v = need(v, "summary")?;
        let summary = LedgerSummary {
            total: num(summary_v, "total")?,
            completed_ok: num(summary_v, "completed_ok")?,
            completed_bad: num(summary_v, "completed_bad")?,
            shed: num(summary_v, "shed")?,
            timed_out: num(summary_v, "timed_out")?,
            casualties: num(summary_v, "casualties")?,
            post_fault_total: num(summary_v, "post_fault_total")?,
            post_fault_ok: num(summary_v, "post_fault_ok")?,
        };
        let fault = match need(v, "fault")? {
            Json::Null => None,
            f => Some((
                num(f, "after_completions")?,
                num(f, "registers_per_lane")? as usize,
                num(f, "seed")?,
            )),
        };
        let moves_v = need(v, "phase_moves")?;
        let mut phase_moves = [0u64; PhaseTag::COUNT];
        for (i, tag) in PhaseTag::ALL.iter().enumerate() {
            phase_moves[i] = num(moves_v, &format!("{tag:?}"))?;
        }
        let initiators = need(v, "initiators")?
            .as_array()
            .ok_or_else(|| ServeError::Report("field \"initiators\" is not an array".into()))?
            .iter()
            .map(|j| {
                j.as_u64()
                    .ok_or_else(|| ServeError::Report("non-integer initiator id".into()))
            })
            .collect::<Result<Vec<u64>, _>>()?;
        Ok(ServiceReport {
            topology: text(v, "topology")?,
            n: num(v, "n")? as usize,
            initiators,
            shards: num(v, "shards")? as usize,
            seed: num(v, "seed")?,
            daemon: text(v, "daemon")?,
            requests: num(v, "requests")?,
            summary,
            fault,
            total_steps: num(v, "total_steps")?,
            total_rounds: num(v, "total_rounds")?,
            phase_moves,
            broadcast_steps: hist(v, "broadcast_steps_hist")?,
            feedback_steps: hist(v, "feedback_steps_hist")?,
            cycle_rounds: hist(v, "cycle_rounds_hist")?,
            turnaround_steps: hist(v, "turnaround_steps_hist")?,
            elapsed_seconds: float(v, "elapsed_seconds")?,
            requests_per_sec: float(v, "requests_per_sec")?,
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
            initiators: self
                .initiators
                .iter()
                .map(|&i| pif_graph::ProcId::from_index(i as usize))
                .collect(),
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
    let mut out = String::new();
    out.push_str("{\n  \"benchmark\": \"service_throughput\",\n");
    let _ = write!(out, "  \"version\": {REPORT_VERSION},\n  \"seed\": {seed},\n");
    out.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str("    ");
        out.push_str(&r.to_json());
        out.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Parses a benchmark envelope back into its reports.
///
/// # Errors
///
/// [`ServeError::Report`] on syntax errors, a wrong benchmark name, or an
/// unsupported version.
pub fn parse_envelope(text: &str) -> Result<(u64, Vec<ServiceReport>), ServeError> {
    let v = json::parse(text).map_err(|e| ServeError::Report(e.to_string()))?;
    match v.get("benchmark").and_then(Json::as_str) {
        Some("service_throughput") => {}
        other => {
            return Err(ServeError::Report(format!("unexpected benchmark name {other:?}")));
        }
    }
    match v.get("version").and_then(Json::as_u64) {
        Some(REPORT_VERSION) => {}
        other => return Err(ServeError::Report(format!("unsupported version {other:?}"))),
    }
    let seed = v
        .get("seed")
        .and_then(Json::as_u64)
        .ok_or_else(|| ServeError::Report("missing envelope seed".into()))?;
    let results = v
        .get("results")
        .and_then(Json::as_array)
        .ok_or_else(|| ServeError::Report("missing results array".into()))?
        .iter()
        .map(ServiceReport::from_json)
        .collect::<Result<Vec<_>, _>>()?;
    Ok((seed, results))
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

    #[test]
    fn topology_specs_round_trip_through_parse() {
        for t in [
            Topology::Chain { n: 16 },
            Topology::Torus { w: 4, h: 4 },
            Topology::Random { n: 16, p: 0.1, seed: 3 },
            Topology::Grid { w: 2, h: 5 },
        ] {
            let spec = topology_spec(&t);
            assert_eq!(Topology::parse(&spec).unwrap(), t, "{spec}");
        }
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
        let text = r.to_json();
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

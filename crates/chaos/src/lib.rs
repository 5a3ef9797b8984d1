//! # pif-chaos — churn, adversarial schedules, and SLO-graded soaks
//!
//! The paper proves snap-stabilization on one *static* arbitrary network:
//! after any transient fault, every PIF cycle initiated afterwards is
//! correct, immediately. This crate stress-tests that claim from three
//! directions the core experiments do not reach:
//!
//! 1. **Dynamic topologies** ([`churn`]): a seeded [`ChurnPlan`] fails and
//!    recovers links and removes/re-adds processors through a [`DynGraph`]
//!    wrapper. Each applied event is a *reconfiguration*: the surviving
//!    network is compacted into a fresh static instance and the serving
//!    layer rebuilds on it, carrying the survivors' register state across
//!    verbatim. Snap-stabilization is precisely what makes this sound —
//!    the carried registers are an arbitrary initial configuration of the
//!    new instance, and Theorem 4 promises the first post-rebuild cycle is
//!    already correct. Events that would disconnect the network are
//!    refused (the paper's model requires connectivity), never silently
//!    dropped.
//! 2. **Adversarial schedule search** ([`mod@search`]): instead of measuring
//!    Theorem 2's round bounds under a fixed daemon panel (experiment E4),
//!    a seeded beam search hunts the schedule space itself for worst
//!    cases, with every candidate kept weakly fair by construction so its
//!    round count is a legal witness against the theorem's window.
//! 3. **SLO-graded soak campaigns** ([`slo`]): long request streams
//!    against `pif_serve::WaveService` under combined churn and register
//!    corruption, scored against an explicit availability SLO — the
//!    fraction of post-disturbance requests completing a correct cycle
//!    within `k · diameter` rounds — with p50/p99 turnaround, all
//!    bit-replayable from the recorded seeds (`pif_chaos check`).
//!
//! The `pif_chaos` binary drives soaks, the benchmark matrix
//! (`BENCH_chaos_slo.json`), replay verification, and the schedule
//! search from the command line.

#![warn(missing_docs)]

pub mod churn;
pub mod search;
pub mod slo;

pub use churn::{apply_to_net, ChurnAction, ChurnEvent, ChurnOutcome, ChurnPlan, DynGraph};
pub use search::{
    correction_bound, evaluate, run_goal, search, Goal, ScriptedAdversary, SearchConfig,
    SearchReport,
};
pub use slo::{
    envelope, parse_envelope, run_campaign, CampaignConfig, ChaosCell, ChurnSpec,
    CHAOS_REPORT_VERSION,
};

/// Errors surfaced by the chaos layer.
#[derive(Debug)]
pub enum ChaosError {
    /// The underlying topology was invalid.
    Graph(pif_graph::GraphError),
    /// The serving layer rejected a campaign step.
    Serve(pif_serve::ServeError),
    /// The network has more processors than the protocol admits.
    NetworkTooLarge(pif_core::NetworkTooLarge),
    /// A report/ledger file was malformed or failed verification.
    Report(String),
}

impl std::fmt::Display for ChaosError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChaosError::Graph(e) => write!(f, "graph error: {e}"),
            ChaosError::Serve(e) => write!(f, "serve error: {e}"),
            ChaosError::NetworkTooLarge(e) => write!(f, "{e}"),
            ChaosError::Report(msg) => write!(f, "report error: {msg}"),
        }
    }
}

impl std::error::Error for ChaosError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ChaosError::Graph(e) => Some(e),
            ChaosError::Serve(e) => Some(e),
            ChaosError::NetworkTooLarge(e) => Some(e),
            ChaosError::Report(_) => None,
        }
    }
}

impl From<pif_graph::GraphError> for ChaosError {
    fn from(e: pif_graph::GraphError) -> Self {
        ChaosError::Graph(e)
    }
}

impl From<pif_serve::ServeError> for ChaosError {
    fn from(e: pif_serve::ServeError) -> Self {
        ChaosError::Serve(e)
    }
}

impl From<pif_daemon::json::EnvelopeError> for ChaosError {
    fn from(e: pif_daemon::json::EnvelopeError) -> Self {
        ChaosError::Report(e.to_string())
    }
}

impl From<pif_daemon::json::FieldError> for ChaosError {
    fn from(e: pif_daemon::json::FieldError) -> Self {
        ChaosError::Report(e.to_string())
    }
}

//! Execution model substrate for the snap-stabilizing PIF reproduction.
//!
//! The paper (Section 2) works in the *locally shared memory* model:
//!
//! * every processor owns a set of registers; it may read its own registers
//!   and those of its neighbors, and write only its own;
//! * a protocol is a finite set of guarded actions
//!   `⟨label⟩ :: ⟨guard⟩ → ⟨statement⟩`; evaluating a guard and executing the
//!   corresponding statement is one atomic step;
//! * at each computation step a **distributed daemon** chooses a non-empty
//!   subset of the enabled processors; all chosen processors execute one
//!   enabled action simultaneously, with every guard evaluated against the
//!   *old* configuration;
//! * the daemon is **weakly fair**: a continuously enabled processor is
//!   eventually chosen;
//! * time is measured in **rounds** (Dolev, Israeli, Moran): the first round
//!   of a computation is its minimal prefix in which every processor that was
//!   continuously enabled from the first configuration executes an action —
//!   a protocol action or the *disable action* (becoming disabled because a
//!   neighbor moved).
//!
//! This crate implements exactly that model:
//!
//! * [`Protocol`] — a guarded-action program, evaluated over a [`View`] of a
//!   processor's own and neighboring states;
//! * [`Simulator`] — drives a protocol over a [`pif_graph::Graph`] under a
//!   chosen [`Daemon`], with [`rounds::RoundCounter`] accounting. It is
//!   the one step loop in the workspace: generic over a [`RegisterStore`]
//!   (`Vec<P::State>` by default; `pif-soa` packs PIF's registers into bit
//!   planes), so every store shares the snapshot, validation,
//!   composite-atomic application, dirty-set walk and round settlement;
//! * [`daemons`] — synchronous, central, randomized-distributed and
//!   adversarial (but weakly fair) daemon strategies;
//! * [`trace_io`] — versioned JSONL recording and replay of executions;
//! * [`cli`] and [`json`] — the command-line and JSON parsers every tool
//!   reads its input through.
//!
//! # Examples
//!
//! A one-register "maximum propagation" protocol, simulated to fixpoint:
//!
//! ```
//! use pif_daemon::{ActionId, ActionSet, NoOpObserver, Protocol, RunLimits, Simulator,
//!     StopPolicy, View};
//! use pif_daemon::daemons::Synchronous;
//! use pif_graph::generators;
//!
//! struct MaxProto;
//!
//! impl Protocol for MaxProto {
//!     type State = u32;
//!     fn action_names(&self) -> &'static [&'static str] {
//!         &["adopt-max"]
//!     }
//!     fn enabled_actions(&self, view: View<'_, u32>) -> ActionSet {
//!         let best = view.neighbor_states().map(|(_, &s)| s).max().unwrap_or(0);
//!         if best > *view.me() { ActionSet::of(ActionId(0)) } else { ActionSet::EMPTY }
//!     }
//!     fn execute(&self, view: View<'_, u32>, _a: ActionId) -> u32 {
//!         view.neighbor_states().map(|(_, &s)| s).max().unwrap()
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = generators::chain(5)?;
//! let init = vec![3, 0, 9, 0, 1];
//! let mut sim = Simulator::new(g, MaxProto, init);
//! let stats = sim.run(
//!     &mut Synchronous::first_action(),
//!     &mut NoOpObserver,
//!     StopPolicy::Fixpoint(RunLimits::default()),
//! )?;
//! assert!(sim.states().iter().all(|&s| s == 9));
//! assert!(stats.rounds <= 4);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
pub mod cli;
pub mod daemons;
mod enabled;
mod error;
pub mod fairness;
pub mod interference;
pub mod json;
pub mod metrics;
mod protocol;
pub mod rounds;
mod sim;
pub mod trace_io;

pub use enabled::{EnabledIndex, EnabledProcs};
pub use error::SimError;
pub use interference::{InterferenceEdge, InterferenceGraph};
pub use metrics::{MetricsObserver, PhaseReport};
pub use protocol::{
    ActionId, ActionSet, ActionSetIter, ActionSpec, Applicability, EnabledSet, PhaseTag, Protocol,
    ReadProbe, Readers, RegAccess, Scope, View,
};
pub use sim::{
    Fanout, NoOpObserver, Observer, RegisterStore, RunLimits, RunStats, SimBuilder, Simulator,
    StepDelta, StepReport, StopPolicy,
};
pub use trace_io::{RecordedTrace, TraceError, TraceRecorder, TraceState};

/// The `SplitMix64` finalizer: a bijective mix of 64 bits. Every lane,
/// link and campaign seed in the workspace is derived through it, so a
/// change here changes every recorded run.
#[inline]
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A daemon: the adversary/scheduler choosing, at every computation step, a
/// non-empty subset of the enabled processors (and for each chosen processor,
/// which of its enabled actions to execute).
///
/// Implementations must uphold the model's contract:
///
/// * the selection is a subset of the processors reported enabled;
/// * every selected processor is paired with one of *its* enabled actions;
/// * the selection is non-empty whenever any processor is enabled;
/// * **weak fairness** — a processor that remains enabled forever must
///   eventually be selected. All daemons in [`daemons`] satisfy this (the
///   adversarial ones via an explicit fairness bound).
///
/// The simulator validates the first three properties defensively and
/// reports violations as [`SimError::InvalidSelection`].
pub trait Daemon<S> {
    /// Chooses the processors (and actions) to execute this step, appending
    /// `(processor, action)` pairs to `out`. `out` is empty on entry.
    fn select(&mut self, enabled: &EnabledSet<'_, S>, out: &mut Vec<(pif_graph::ProcId, ActionId)>);

    /// Short human-readable strategy name (used in experiment reports).
    fn name(&self) -> &'static str {
        "daemon"
    }
}

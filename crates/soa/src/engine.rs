//! Engine selection: one enum-dispatched simulator wrapping either step
//! backend behind a single API, so callers (the wave service, benches,
//! experiments) pick an engine at construction and are otherwise
//! engine-agnostic.

use pif_core::{PifProtocol, PifState};
use pif_daemon::{ActionId, Daemon, Observer, SimError, Simulator, StepReport};
use pif_graph::{Graph, ProcId};

use crate::sim::SoaSimulator;

/// Which step backend to run.
///
/// The default is [`Engine::Soa`]: the two backends produce identical
/// executions (pinned by the differential tests and by replaying the
/// `AoS`-recorded service benchmark on it), and `SoA` steps faster.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// The generic array-of-structs simulator (`pif_daemon::Simulator`).
    Aos,
    /// The packed structure-of-arrays backend ([`SoaSimulator`]).
    #[default]
    Soa,
}

impl Engine {
    /// Every engine, in declaration order.
    pub const ALL: [Engine; 2] = [Engine::Aos, Engine::Soa];

    /// Stable lowercase name (CLI flag value and report key).
    pub fn name(self) -> &'static str {
        match self {
            Engine::Aos => "aos",
            Engine::Soa => "soa",
        }
    }

    /// Parses a CLI flag value (`"aos"` / `"soa"`, case-insensitive).
    pub fn parse(s: &str) -> Option<Engine> {
        match s.to_ascii_lowercase().as_str() {
            "aos" => Some(Engine::Aos),
            "soa" => Some(Engine::Soa),
            _ => None,
        }
    }
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A PIF simulator with the backend chosen at construction.
///
/// Both variants honor the same observable contract (daemon snapshots,
/// observer deltas, round accounting, validation errors), so a run is
/// determined by `(engine-independent inputs, daemon)` alone — the
/// differential tests pin that the two variants produce identical
/// executions.
// Not boxed: an `EngineSim` is a long-lived handle constructed once per
// lane/workload and then only borrowed, so the variant size gap never
// crosses a hot move path and boxing would tax every delegated call.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum EngineSim {
    /// Array-of-structs backend.
    Aos(Simulator<PifProtocol>),
    /// Structure-of-arrays backend.
    Soa(SoaSimulator),
}

/// Fluent, fallible constructor for [`EngineSim`] — the same pattern as
/// `pif_daemon::SimBuilder::try_build` and `pif_net::NetBuilder::build`,
/// so every engine in the workspace builds through one shape with typed
/// errors instead of panicking constructors.
pub struct EngineBuilder {
    engine: Engine,
    graph: Graph,
    protocol: PifProtocol,
    states: Option<Vec<PifState>>,
    validation: Option<bool>,
}

impl EngineBuilder {
    /// Sets the initial configuration (required; one state per processor).
    #[must_use]
    pub fn states(mut self, states: Vec<PifState>) -> Self {
        self.states = Some(states);
        self
    }

    /// Builds the initial configuration from a per-processor closure.
    #[must_use]
    pub fn states_with(mut self, mut f: impl FnMut(ProcId) -> PifState) -> Self {
        self.states = Some(self.graph.procs().map(&mut f).collect());
        self
    }

    /// Enables or disables daemon-selection validation.
    #[must_use]
    pub fn validation(mut self, on: bool) -> Self {
        self.validation = Some(on);
        self
    }

    /// Finalizes the simulator on the selected backend.
    ///
    /// # Errors
    ///
    /// [`SimError::MissingStates`] when no configuration was provided,
    /// [`SimError::StateCountMismatch`] when it does not cover every
    /// processor.
    pub fn try_build(self) -> Result<EngineSim, SimError> {
        let states = self.states.ok_or(SimError::MissingStates)?;
        if states.len() != self.graph.len() {
            return Err(SimError::StateCountMismatch {
                expected: self.graph.len(),
                got: states.len(),
            });
        }
        let mut sim = EngineSim::new(self.engine, self.graph, self.protocol, states);
        if let Some(on) = self.validation {
            sim.set_validation(on);
        }
        Ok(sim)
    }
}

impl EngineSim {
    /// Builds a simulator on the selected backend.
    pub fn new(engine: Engine, graph: Graph, protocol: PifProtocol, init: Vec<PifState>) -> Self {
        match engine {
            Engine::Aos => EngineSim::Aos(Simulator::new(graph, protocol, init)),
            Engine::Soa => EngineSim::Soa(SoaSimulator::new(graph, protocol, init)),
        }
    }

    /// Starts a fluent builder on the selected backend.
    pub fn builder(engine: Engine, graph: Graph, protocol: PifProtocol) -> EngineBuilder {
        EngineBuilder { engine, graph, protocol, states: None, validation: None }
    }

    /// Which backend this simulator runs on.
    pub fn engine(&self) -> Engine {
        match self {
            EngineSim::Aos(_) => Engine::Aos,
            EngineSim::Soa(_) => Engine::Soa,
        }
    }

    /// The network topology.
    pub fn graph(&self) -> &Graph {
        match self {
            EngineSim::Aos(s) => s.graph(),
            EngineSim::Soa(s) => s.graph(),
        }
    }

    /// The protocol under simulation.
    pub fn protocol(&self) -> &PifProtocol {
        match self {
            EngineSim::Aos(s) => s.protocol(),
            EngineSim::Soa(s) => s.protocol(),
        }
    }

    /// The current configuration.
    pub fn states(&self) -> &[PifState] {
        match self {
            EngineSim::Aos(s) => s.states(),
            EngineSim::Soa(s) => s.states(),
        }
    }

    /// Computation steps executed so far.
    pub fn steps(&self) -> u64 {
        match self {
            EngineSim::Aos(s) => s.steps(),
            EngineSim::Soa(s) => s.steps(),
        }
    }

    /// Rounds completed so far.
    pub fn rounds(&self) -> u64 {
        match self {
            EngineSim::Aos(s) => s.rounds(),
            EngineSim::Soa(s) => s.rounds(),
        }
    }

    /// Whether the current configuration is terminal.
    pub fn is_terminal(&self) -> bool {
        match self {
            EngineSim::Aos(s) => s.is_terminal(),
            EngineSim::Soa(s) => s.is_terminal(),
        }
    }

    /// Processors currently enabled, ascending.
    pub fn enabled_procs(&self) -> &[ProcId] {
        match self {
            EngineSim::Aos(s) => s.enabled_procs(),
            EngineSim::Soa(s) => s.enabled_procs(),
        }
    }

    /// Enabled actions of processor `p`.
    pub fn enabled_actions(&self, p: ProcId) -> &[ActionId] {
        match self {
            EngineSim::Aos(s) => s.enabled_actions(p),
            EngineSim::Soa(s) => s.enabled_actions(p),
        }
    }

    /// The `(processor, action)` pairs executed by the most recent step.
    pub fn last_executed(&self) -> &[(ProcId, ActionId)] {
        match self {
            EngineSim::Aos(s) => s.last_executed(),
            EngineSim::Soa(s) => s.last_executed(),
        }
    }

    /// Overwrites the configuration; bookkeeping and rounds restart.
    pub fn set_states(&mut self, states: Vec<PifState>) {
        match self {
            EngineSim::Aos(s) => s.set_states(states),
            EngineSim::Soa(s) => s.set_states(states),
        }
    }

    /// Applies a batch of corruptions atomically (empty batch is a no-op).
    pub fn corrupt_many(&mut self, corruptions: &[(ProcId, PifState)]) {
        match self {
            EngineSim::Aos(s) => s.corrupt_many(corruptions),
            EngineSim::Soa(s) => s.corrupt_many(corruptions),
        }
    }

    /// Enables or disables daemon-selection validation.
    pub fn set_validation(&mut self, on: bool) {
        match self {
            EngineSim::Aos(s) => s.set_validation(on),
            EngineSim::Soa(s) => s.set_validation(on),
        }
    }

    /// Executes one computation step under `daemon`.
    ///
    /// # Errors
    ///
    /// Propagates the backend's [`SimError`].
    pub fn step(&mut self, daemon: &mut dyn Daemon<PifState>) -> Result<StepReport, SimError> {
        match self {
            EngineSim::Aos(s) => s.step(daemon),
            EngineSim::Soa(s) => s.step(daemon),
        }
    }

    /// Executes one observed computation step under `daemon`.
    ///
    /// # Errors
    ///
    /// Propagates the backend's [`SimError`].
    pub fn step_observed(
        &mut self,
        daemon: &mut dyn Daemon<PifState>,
        observer: &mut dyn Observer<PifProtocol>,
    ) -> Result<StepReport, SimError> {
        match self {
            EngineSim::Aos(s) => s.step_observed(daemon, observer),
            EngineSim::Soa(s) => s.step_observed(daemon, observer),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pif_core::initial;
    use pif_daemon::daemons::DistributedRandom;
    use pif_graph::generators;

    #[test]
    fn engine_parse_and_name_roundtrip() {
        for e in Engine::ALL {
            assert_eq!(Engine::parse(e.name()), Some(e));
            assert_eq!(Engine::parse(&e.name().to_uppercase()), Some(e));
        }
        assert_eq!(Engine::parse("simd"), None);
        assert_eq!(Engine::default(), Engine::Soa);
        assert_eq!(Engine::Soa.to_string(), "soa");
    }

    #[test]
    fn builder_reports_typed_errors_on_both_backends() {
        let g = generators::chain(3).unwrap();
        let proto = PifProtocol::new(ProcId(0), &g);
        for e in Engine::ALL {
            assert_eq!(
                EngineSim::builder(e, g.clone(), proto.clone()).try_build().err(),
                Some(SimError::MissingStates)
            );
            assert_eq!(
                EngineSim::builder(e, g.clone(), proto.clone()).states(vec![]).try_build().err(),
                Some(SimError::StateCountMismatch { expected: 3, got: 0 })
            );
            let sim = EngineSim::builder(e, g.clone(), proto.clone())
                .states(initial::normal_starting(&g))
                .validation(true)
                .try_build()
                .unwrap();
            assert_eq!(sim.engine(), e);
            assert_eq!(sim.states(), initial::normal_starting(&g));
        }
    }

    #[test]
    fn engines_run_identically_behind_the_wrapper() {
        let g = generators::torus(4, 4).unwrap();
        let proto = PifProtocol::new(ProcId(0), &g);
        let init = initial::random_config(&g, &proto, 31);
        let mut sims: Vec<EngineSim> = Engine::ALL
            .iter()
            .map(|&e| EngineSim::new(e, g.clone(), proto.clone(), init.clone()))
            .collect();
        let mut daemons: Vec<DistributedRandom> =
            Engine::ALL.iter().map(|_| DistributedRandom::new(0.5, 77)).collect();
        for _ in 0..300 {
            if sims[0].is_terminal() {
                break;
            }
            let reports: Vec<StepReport> = sims
                .iter_mut()
                .zip(daemons.iter_mut())
                .map(|(s, d)| s.step(d).unwrap())
                .collect();
            assert_eq!(reports[0], reports[1]);
            assert_eq!(sims[0].states(), sims[1].states());
            assert_eq!(sims[0].enabled_procs(), sims[1].enabled_procs());
        }
    }
}

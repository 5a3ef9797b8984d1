use pif_graph::{Graph, ProcId};

use crate::rounds::RoundCounter;
use crate::{ActionId, Daemon, EnabledIndex, EnabledSet, Protocol, SimError, View};

/// Budget limits for a simulation run.
///
/// Budgets protect against non-terminating executions (possible from
/// arbitrary configurations of a buggy protocol); exceeding one is reported
/// as a [`SimError`], never a panic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunLimits {
    /// Maximum computation steps.
    pub max_steps: u64,
    /// Maximum completed rounds.
    pub max_rounds: u64,
}

impl RunLimits {
    /// Limits suitable for most experiments: one million steps, one hundred
    /// thousand rounds.
    pub const fn generous() -> Self {
        RunLimits { max_steps: 1_000_000, max_rounds: 100_000 }
    }

    /// Builds explicit limits.
    pub const fn new(max_steps: u64, max_rounds: u64) -> Self {
        RunLimits { max_steps, max_rounds }
    }
}

impl Default for RunLimits {
    fn default() -> Self {
        Self::generous()
    }
}

/// Statistics of a finished (or truncated) run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Computation steps executed.
    pub steps: u64,
    /// Rounds completed (Dolev-Israeli-Moran definition).
    pub rounds: u64,
    /// Whether the final configuration is terminal (no enabled processor).
    pub terminal: bool,
}

/// Outcome of a single computation step.
///
/// The report is plain data (no per-step heap allocation); the executed
/// `(processor, action)` pairs themselves are available from
/// [`Simulator::last_executed`] until the next step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepReport {
    /// How many processors executed an action in this step.
    pub executed: usize,
    /// Whether this step completed a round.
    pub round_completed: bool,
    /// Whether the *new* configuration is terminal.
    pub terminal: bool,
}

/// Sparse description of one computation step, handed to [`Observer`]s.
///
/// The delta lists the executed `(processor, action)` pairs along with each
/// executed processor's *pre-step* state — everything that changed. The
/// full pre-step configuration is available through [`StepDelta::before`]
/// only for observers that request it via [`Observer::needs_full_before`]
/// (it costs a configuration copy per step).
pub struct StepDelta<'a, P: Protocol> {
    executed: &'a [(ProcId, ActionId)],
    old_states: &'a [P::State],
    before: Option<&'a [P::State]>,
    step: u64,
    round_completed: bool,
}

impl<'a, P: Protocol> StepDelta<'a, P> {
    /// Builds a delta from externally maintained step bookkeeping.
    ///
    /// [`Simulator`] constructs these internally; alternative step engines
    /// that honor the same observer contract use this constructor.
    /// `old_states` must be parallel to `executed` (each entry the
    /// pre-step state of the corresponding executed processor), and
    /// `before`, when present, must be the full pre-step configuration.
    pub fn new(
        executed: &'a [(ProcId, ActionId)],
        old_states: &'a [P::State],
        before: Option<&'a [P::State]>,
        step: u64,
        round_completed: bool,
    ) -> Self {
        StepDelta { executed, old_states, before, step, round_completed }
    }

    /// The `(processor, action)` pairs that executed, in selection order.
    #[inline]
    pub fn executed(&self) -> &'a [(ProcId, ActionId)] {
        self.executed
    }

    /// Zero-based index of the step this delta describes (equal to
    /// [`Simulator::steps`] minus one at notification time).
    #[inline]
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Whether this step completed a round (Dolev-Israeli-Moran
    /// definition). Round accounting is settled *before* observers run, so
    /// metrics observers can attribute per-round phase activity.
    #[inline]
    pub fn round_completed(&self) -> bool {
        self.round_completed
    }

    /// The executed moves with each processor's pre-step state:
    /// `(processor, action, old_state)` in selection order.
    pub fn iter(&self) -> impl Iterator<Item = (ProcId, ActionId, &'a P::State)> + '_ {
        self.executed.iter().zip(self.old_states).map(|(&(p, a), s)| (p, a, s))
    }

    /// The full pre-step configuration, present only when the observer
    /// opted in via [`Observer::needs_full_before`].
    #[inline]
    pub fn before(&self) -> Option<&'a [P::State]> {
        self.before
    }
}

/// Observer of executed actions, used to maintain protocol-external overlays
/// (message registers, delivery logs, invariant monitors) in lockstep with
/// the simulation.
///
/// Observers receive a sparse [`StepDelta`] plus the post-step
/// configuration. Most overlays only need what changed; an observer that
/// genuinely needs the complete pre-step configuration overrides
/// [`Observer::needs_full_before`] and pays one configuration copy per
/// step.
pub trait Observer<P: Protocol> {
    /// Whether [`StepDelta::before`] must be populated for this observer.
    /// Defaults to `false`, keeping the simulator's step path free of the
    /// full-configuration copy.
    fn needs_full_before(&self) -> bool {
        false
    }

    /// Called once per computation step, after the new configuration is in
    /// place.
    fn step(&mut self, graph: &Graph, delta: &StepDelta<'_, P>, after: &[P::State]);
}

/// The no-op observer.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoOpObserver;

impl<P: Protocol> Observer<P> for NoOpObserver {
    fn step(&mut self, _: &Graph, _: &StepDelta<'_, P>, _: &[P::State]) {}
}

/// Observer combinator notifying two observers in sequence.
///
/// Lets a single run feed, say, a `MetricsObserver` and a `TraceRecorder`
/// at once; nest `Fanout`s for more. The full-before requirement is the
/// union of both sides'.
pub struct Fanout<'a, P: Protocol> {
    first: &'a mut dyn Observer<P>,
    second: &'a mut dyn Observer<P>,
}

impl<'a, P: Protocol> Fanout<'a, P> {
    /// Combines two observers; `first` is notified before `second`.
    pub fn new(first: &'a mut dyn Observer<P>, second: &'a mut dyn Observer<P>) -> Self {
        Fanout { first, second }
    }
}

impl<P: Protocol> Observer<P> for Fanout<'_, P> {
    fn needs_full_before(&self) -> bool {
        self.first.needs_full_before() || self.second.needs_full_before()
    }

    fn step(&mut self, graph: &Graph, delta: &StepDelta<'_, P>, after: &[P::State]) {
        self.first.step(graph, delta, after);
        self.second.step(graph, delta, after);
    }
}

/// When a [`Simulator::run`] should stop, beyond reaching a terminal
/// configuration (which always stops the run).
///
/// The legacy entry points map onto this enum: `run_to_fixpoint` is
/// [`StopPolicy::Fixpoint`], `run_until` is [`StopPolicy::Predicate`], and
/// a plain budget-bounded run is [`StopPolicy::Limits`].
pub enum StopPolicy<'a, P: Protocol> {
    /// Run to a terminal configuration; exhausting the budget is an error
    /// ([`SimError::MaxStepsExceeded`] / [`SimError::MaxRoundsExceeded`]).
    Fixpoint(RunLimits),
    /// Run until the predicate holds (checked before every step) or the
    /// configuration is terminal; exhausting the budget is an error.
    Predicate(RunLimits, &'a mut dyn FnMut(&Simulator<P>) -> bool),
    /// Run until the budget is consumed; reaching it is *success* (the
    /// stats are returned), not an error. Use for "run exactly N
    /// steps/rounds" workloads.
    Limits(RunLimits),
}

/// Simulator for a [`Protocol`] over a network, under a pluggable
/// [`Daemon`], with round accounting per the paper's definition.
///
/// The simulator owns the configuration (one state per processor) and
/// advances it one *computation step* at a time: it computes the enabled set,
/// asks the daemon for a non-empty selection, evaluates every selected
/// action against the old configuration, and applies all updates at once.
///
/// The step path is engineered to cost O(selected × max degree), not O(n):
/// enabled actions are recomputed only for executed processors and their
/// neighbors (guards read only the local neighborhood), the enabled-processor
/// set is maintained incrementally, round accounting is fed the sparse
/// change-set, and all step scratch buffers are owned by the simulator and
/// reused — in steady state a step performs no heap allocation.
///
/// See the [crate documentation](crate) for a complete example.
#[derive(Clone, Debug)]
pub struct Simulator<P: Protocol> {
    graph: Graph,
    protocol: P,
    states: Vec<P::State>,
    /// Enabled actions per processor, kept current.
    enabled: Vec<Vec<ActionId>>,
    /// Processors with at least one enabled action.
    index: EnabledIndex,
    steps: u64,
    rounds: RoundCounter,
    /// Whether daemon selections are validated against the model contract.
    validate: bool,
    /// Default run budget, configurable via [`SimBuilder::limits`]; handy
    /// as the argument to a [`StopPolicy`].
    limits: RunLimits,
    // --- Reused per-step scratch (never reallocated in steady state) ---
    /// Last step's daemon selection; exposed via `last_executed`.
    selection: Vec<(ProcId, ActionId)>,
    /// Pre-step states of the selected processors, parallel to `selection`.
    old_states: Vec<P::State>,
    /// Staging for the new states computed against the old configuration.
    new_states: Vec<P::State>,
    /// Full pre-step configuration, filled only for observers that ask.
    before_scratch: Vec<P::State>,
    /// Epoch stamps marking processors as seen/dirty without clearing.
    stamp: Vec<u64>,
    epoch: u64,
    /// Processors whose guards must be re-evaluated after a step.
    dirty: Vec<ProcId>,
    /// Enabled-status flips of the last step, fed to the round counter.
    changes: Vec<(ProcId, bool)>,
}

impl<P: Protocol> Simulator<P> {
    /// Creates a simulator in the given initial configuration.
    ///
    /// # Panics
    ///
    /// Panics if `init.len() != graph.len()`.
    pub fn new(graph: Graph, protocol: P, init: Vec<P::State>) -> Self {
        assert_eq!(graph.len(), init.len(), "initial configuration must cover every processor");
        let n = graph.len();
        let mut enabled = vec![Vec::new(); n];
        for p in graph.procs() {
            protocol.enabled_actions(View::new(&graph, &init, p), &mut enabled[p.index()]);
        }
        let index = EnabledIndex::new(n, enabled.iter().map(|a| !a.is_empty()));
        let rounds = RoundCounter::new(enabled.iter().map(|a| !a.is_empty()));
        Simulator {
            graph,
            protocol,
            states: init,
            enabled,
            index,
            steps: 0,
            rounds,
            validate: cfg!(debug_assertions),
            limits: RunLimits::default(),
            selection: Vec::new(),
            old_states: Vec::new(),
            new_states: Vec::new(),
            before_scratch: Vec::new(),
            stamp: vec![0; n],
            epoch: 0,
            dirty: Vec::with_capacity(n),
            changes: Vec::with_capacity(n),
        }
    }

    /// Starts fluent construction of a simulator: initial configuration,
    /// validation and default run budget in one expression.
    ///
    /// ```
    /// # use pif_daemon::{Simulator, RunLimits, Protocol, View, ActionId};
    /// # use pif_graph::generators;
    /// # struct Noop;
    /// # impl Protocol for Noop {
    /// #     type State = u8;
    /// #     fn action_names(&self) -> &'static [&'static str] { &[] }
    /// #     fn enabled_actions(&self, _: View<'_, u8>, _: &mut Vec<ActionId>) {}
    /// #     fn execute(&self, _: View<'_, u8>, _: ActionId) -> u8 { 0 }
    /// # }
    /// let sim = Simulator::builder(generators::chain(4).unwrap(), Noop)
    ///     .states(vec![0; 4])
    ///     .validation(true)
    ///     .limits(RunLimits::new(10_000, 1_000))
    ///     .build();
    /// assert!(sim.validation());
    /// ```
    pub fn builder(graph: Graph, protocol: P) -> SimBuilder<P> {
        SimBuilder { graph, protocol, states: None, validation: None, limits: RunLimits::default() }
    }

    /// The network topology.
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The protocol under simulation.
    #[inline]
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// The current configuration.
    #[inline]
    pub fn states(&self) -> &[P::State] {
        &self.states
    }

    /// The current state of one processor.
    #[inline]
    pub fn state(&self, p: ProcId) -> &P::State {
        &self.states[p.index()]
    }

    /// Enables or disables daemon-selection validation
    /// ([`SimError::InvalidSelection`] checks beyond the mandatory
    /// empty-selection test). Defaults to on in debug builds and off in
    /// release builds; conformance tests switch it on explicitly.
    ///
    /// With validation off, a daemon that selects an out-of-range
    /// processor still panics (index out of bounds), but duplicate or
    /// not-enabled selections go undetected — only disable it for trusted
    /// daemons on hot paths.
    pub fn set_validation(&mut self, on: bool) {
        self.validate = on;
    }

    /// Whether daemon-selection validation is currently enabled.
    #[inline]
    pub fn validation(&self) -> bool {
        self.validate
    }

    /// The default run budget configured at construction (via
    /// [`SimBuilder::limits`]; [`RunLimits::generous`] otherwise).
    #[inline]
    pub fn limits(&self) -> RunLimits {
        self.limits
    }

    /// Overwrites the configuration (e.g. to inject faults mid-run) and
    /// recomputes the enabled set. Round accounting restarts from the new
    /// configuration.
    pub fn set_states(&mut self, states: Vec<P::State>) {
        assert_eq!(self.graph.len(), states.len());
        self.states = states;
        self.reset_bookkeeping();
    }

    /// Overwrites a single processor's state (fault injection) and
    /// recomputes bookkeeping, restarting round accounting.
    pub fn corrupt(&mut self, p: ProcId, state: P::State) {
        self.states[p.index()] = state;
        self.reset_bookkeeping();
    }

    /// Applies a batch of corruptions atomically: every state is written
    /// first, then bookkeeping is recomputed and round accounting restarted
    /// **once**. A campaign of [`Simulator::corrupt`] calls would restart
    /// the round counter per processor; a transient fault hitting several
    /// processors at the same instant is one event, and this models it as
    /// one.
    pub fn corrupt_many(&mut self, corruptions: &[(ProcId, P::State)]) {
        if corruptions.is_empty() {
            return;
        }
        for (p, state) in corruptions {
            self.states[p.index()] = state.clone();
        }
        self.reset_bookkeeping();
    }

    /// Computation steps executed so far.
    #[inline]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Rounds completed so far.
    #[inline]
    pub fn rounds(&self) -> u64 {
        self.rounds.completed()
    }

    /// Whether the current configuration is terminal (no enabled action on
    /// any processor).
    #[inline]
    pub fn is_terminal(&self) -> bool {
        self.index.is_empty()
    }

    /// Processors currently enabled, ascending.
    #[inline]
    pub fn enabled_procs(&self) -> &[ProcId] {
        self.index.procs()
    }

    /// Enabled actions of processor `p` in the current configuration.
    #[inline]
    pub fn enabled_actions(&self, p: ProcId) -> &[ActionId] {
        &self.enabled[p.index()]
    }

    /// The `(processor, action)` pairs executed by the most recent step
    /// (empty before the first step and after a terminal no-op step).
    #[inline]
    pub fn last_executed(&self) -> &[(ProcId, ActionId)] {
        &self.selection
    }

    /// A read view of processor `p` in the current configuration.
    pub fn view(&self, p: ProcId) -> View<'_, P::State> {
        View::new(&self.graph, &self.states, p)
    }

    /// Executes one computation step under `daemon`, reporting what ran.
    /// In a terminal configuration this is a no-op returning an empty
    /// report.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidSelection`] if the daemon violated the model's
    /// contract (selected a disabled processor, a non-enabled action, a
    /// duplicate, or nothing at all while processors were enabled).
    pub fn step(&mut self, daemon: &mut dyn Daemon<P::State>) -> Result<StepReport, SimError> {
        self.step_observed(daemon, &mut NoOpObserver)
    }

    /// Like [`Simulator::step`], additionally notifying `observer`.
    pub fn step_observed(
        &mut self,
        daemon: &mut dyn Daemon<P::State>,
        observer: &mut dyn Observer<P>,
    ) -> Result<StepReport, SimError> {
        if self.is_terminal() {
            self.selection.clear();
            return Ok(StepReport { executed: 0, round_completed: false, terminal: true });
        }
        let mut selection = std::mem::take(&mut self.selection);
        selection.clear();
        {
            let snapshot = EnabledSet::new(
                &self.graph,
                &self.states,
                &self.enabled,
                self.index.procs(),
                self.steps,
            );
            daemon.select(&snapshot, &mut selection);
        }
        if selection.is_empty() {
            self.selection = selection;
            return Err(SimError::InvalidSelection {
                reason: "empty selection while processors are enabled".into(),
                proc: None,
                action: None,
            });
        }
        if self.validate {
            if let Err(e) = self.validate_selection(&selection) {
                self.selection = selection;
                return Err(e);
            }
        }

        // Observers needing the full pre-step configuration get it from a
        // reused buffer; nobody else pays for the copy.
        let needs_before = observer.needs_full_before();
        if needs_before {
            self.before_scratch.clone_from(&self.states);
        }

        // Evaluate all selected actions against the OLD configuration, then
        // apply simultaneously (composite atomicity, distributed daemon).
        let mut new_states = std::mem::take(&mut self.new_states);
        new_states.clear();
        for &(p, a) in &selection {
            let view = View::new(&self.graph, &self.states, p);
            new_states.push(self.protocol.execute(view, a));
        }
        let mut old_states = std::mem::take(&mut self.old_states);
        old_states.clear();
        for (&(p, _), new) in selection.iter().zip(new_states.drain(..)) {
            old_states.push(std::mem::replace(&mut self.states[p.index()], new));
        }
        let step_index = self.steps;
        self.steps += 1;
        self.recompute_enabled_after(&selection);

        // Round accounting settles before observers run, so the delta can
        // carry the authoritative round-completion flag.
        let round_completed = self
            .rounds
            .observe_step(selection.iter().map(|&(p, _)| p), self.changes.iter().copied());

        let delta = StepDelta {
            executed: &selection,
            old_states: &old_states,
            before: needs_before.then_some(self.before_scratch.as_slice()),
            step: step_index,
            round_completed,
        };
        observer.step(&self.graph, &delta, &self.states);

        let executed = selection.len();
        self.selection = selection;
        self.old_states = old_states;
        self.new_states = new_states;
        Ok(StepReport { executed, round_completed, terminal: self.is_terminal() })
    }

    /// Runs the simulation until `policy` says to stop (or the
    /// configuration is terminal, which always stops a run), notifying
    /// `observer` on every step.
    ///
    /// This is the single run entry point; [`Simulator::run_until`],
    /// [`Simulator::run_until_observed`] and [`Simulator::run_to_fixpoint`]
    /// are thin delegates kept for familiarity.
    ///
    /// Returns statistics *relative to the start of this call* (steps and
    /// rounds consumed by the run, not lifetime totals).
    ///
    /// # Errors
    ///
    /// Budget errors ([`SimError::MaxStepsExceeded`],
    /// [`SimError::MaxRoundsExceeded`]) for the [`StopPolicy::Fixpoint`]
    /// and [`StopPolicy::Predicate`] policies, or daemon contract
    /// violations from any policy. Under [`StopPolicy::Limits`] the budget
    /// is a stop condition, not an error.
    pub fn run(
        &mut self,
        daemon: &mut dyn Daemon<P::State>,
        observer: &mut dyn Observer<P>,
        mut policy: StopPolicy<'_, P>,
    ) -> Result<RunStats, SimError> {
        let start_steps = self.steps;
        let start_rounds = self.rounds.completed();
        let limits = match &policy {
            StopPolicy::Fixpoint(l) | StopPolicy::Predicate(l, _) | StopPolicy::Limits(l) => *l,
        };
        let budget_is_error = !matches!(policy, StopPolicy::Limits(_));
        loop {
            if let StopPolicy::Predicate(_, target) = &mut policy {
                if target(self) {
                    return Ok(self.stats_since(start_steps, start_rounds));
                }
            }
            if self.is_terminal() {
                return Ok(self.stats_since(start_steps, start_rounds));
            }
            if self.steps - start_steps >= limits.max_steps {
                return if budget_is_error {
                    Err(SimError::MaxStepsExceeded {
                        steps: self.steps - start_steps,
                        rounds: self.rounds.completed() - start_rounds,
                    })
                } else {
                    Ok(self.stats_since(start_steps, start_rounds))
                };
            }
            if self.rounds.completed() - start_rounds >= limits.max_rounds {
                return if budget_is_error {
                    Err(SimError::MaxRoundsExceeded {
                        steps: self.steps - start_steps,
                        rounds: self.rounds.completed() - start_rounds,
                    })
                } else {
                    Ok(self.stats_since(start_steps, start_rounds))
                };
            }
            self.step_observed(daemon, observer)?;
        }
    }

    /// Runs until `target` holds (checked before every step), the
    /// configuration is terminal, or a budget is exhausted.
    ///
    /// Returns statistics at the moment the predicate first held (or the
    /// terminal configuration was reached — check `terminal` and re-test the
    /// predicate to distinguish).
    ///
    /// # Errors
    ///
    /// Budget errors ([`SimError::MaxStepsExceeded`],
    /// [`SimError::MaxRoundsExceeded`]) or daemon contract violations.
    pub fn run_until<F>(
        &mut self,
        daemon: &mut dyn Daemon<P::State>,
        limits: RunLimits,
        mut target: F,
    ) -> Result<RunStats, SimError>
    where
        F: FnMut(&Self) -> bool,
    {
        self.run(daemon, &mut NoOpObserver, StopPolicy::Predicate(limits, &mut target))
    }

    /// Like [`Simulator::run_until`] with an [`Observer`].
    pub fn run_until_observed(
        &mut self,
        daemon: &mut dyn Daemon<P::State>,
        observer: &mut dyn Observer<P>,
        limits: RunLimits,
        target: &mut dyn FnMut(&Self) -> bool,
    ) -> Result<RunStats, SimError> {
        self.run(daemon, observer, StopPolicy::Predicate(limits, target))
    }

    /// Runs until the configuration is terminal (no enabled processor).
    ///
    /// # Errors
    ///
    /// Same as [`Simulator::run_until`].
    pub fn run_to_fixpoint(
        &mut self,
        daemon: &mut dyn Daemon<P::State>,
        limits: RunLimits,
    ) -> Result<RunStats, SimError> {
        self.run(daemon, &mut NoOpObserver, StopPolicy::Fixpoint(limits))
    }

    fn stats_since(&self, start_steps: u64, start_rounds: u64) -> RunStats {
        RunStats {
            steps: self.steps - start_steps,
            rounds: self.rounds.completed() - start_rounds,
            terminal: self.is_terminal(),
        }
    }

    /// Validates the model contract on a daemon selection, using the epoch
    /// stamps for the duplicate check (no per-step allocation).
    fn validate_selection(&mut self, selection: &[(ProcId, ActionId)]) -> Result<(), SimError> {
        self.epoch += 1;
        let epoch = self.epoch;
        for &(p, a) in selection {
            if p.index() >= self.graph.len() {
                return Err(SimError::InvalidSelection {
                    reason: "processor out of range".into(),
                    proc: Some(p),
                    action: Some(a),
                });
            }
            if self.stamp[p.index()] == epoch {
                return Err(SimError::InvalidSelection {
                    reason: "processor selected twice".into(),
                    proc: Some(p),
                    action: Some(a),
                });
            }
            self.stamp[p.index()] = epoch;
            if !self.enabled[p.index()].contains(&a) {
                return Err(SimError::InvalidSelection {
                    reason: "action not enabled for processor".into(),
                    proc: Some(p),
                    action: Some(a),
                });
            }
        }
        Ok(())
    }

    /// Recomputes the enabled sets from scratch and restarts round
    /// accounting (used on configuration overwrites, never per step).
    fn reset_bookkeeping(&mut self) {
        for p in self.graph.procs() {
            let acts = &mut self.enabled[p.index()];
            acts.clear();
            self.protocol.enabled_actions(View::new(&self.graph, &self.states, p), acts);
        }
        self.index.reset(self.enabled.iter().map(|a| !a.is_empty()));
        self.selection.clear();
        self.rounds = RoundCounter::new(self.enabled.iter().map(|a| !a.is_empty()));
    }

    /// Recomputes enabled actions only where they can have changed: the
    /// executed processors and their neighbors (guards read only the local
    /// neighborhood). Membership flips feed both the round counter and the
    /// enabled index.
    fn recompute_enabled_after(&mut self, executed: &[(ProcId, ActionId)]) {
        self.epoch += 1;
        let epoch = self.epoch;
        self.dirty.clear();
        for &(p, _) in executed {
            if self.stamp[p.index()] != epoch {
                self.stamp[p.index()] = epoch;
                self.dirty.push(p);
            }
            for q in self.graph.neighbors(p) {
                if self.stamp[q.index()] != epoch {
                    self.stamp[q.index()] = epoch;
                    self.dirty.push(q);
                }
            }
        }
        self.changes.clear();
        for i in 0..self.dirty.len() {
            let p = self.dirty[i];
            let was = self.index.contains(p);
            let acts = &mut self.enabled[p.index()];
            acts.clear();
            self.protocol.enabled_actions(View::new(&self.graph, &self.states, p), acts);
            let now = !self.enabled[p.index()].is_empty();
            if was != now {
                self.changes.push((p, now));
            }
        }
        self.index.apply(&self.changes);
    }
}

/// Fluent constructor for [`Simulator`], created by
/// [`Simulator::builder`]. Consolidates `new` + `set_states` +
/// `set_validation` + [`RunLimits`] into one construction path.
pub struct SimBuilder<P: Protocol> {
    graph: Graph,
    protocol: P,
    states: Option<Vec<P::State>>,
    validation: Option<bool>,
    limits: RunLimits,
}

impl<P: Protocol> SimBuilder<P> {
    /// Sets the initial configuration (required; one state per processor).
    pub fn states(mut self, states: Vec<P::State>) -> Self {
        self.states = Some(states);
        self
    }

    /// Builds the initial configuration from a per-processor closure.
    pub fn states_with(mut self, mut f: impl FnMut(ProcId) -> P::State) -> Self {
        self.states = Some(self.graph.procs().map(&mut f).collect());
        self
    }

    /// Enables or disables daemon-selection validation (defaults to on in
    /// debug builds, off in release — see [`Simulator::set_validation`]).
    pub fn validation(mut self, on: bool) -> Self {
        self.validation = Some(on);
        self
    }

    /// Sets the default run budget, retrievable via [`Simulator::limits`].
    pub fn limits(mut self, limits: RunLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Finalizes the simulator.
    ///
    /// # Panics
    ///
    /// Panics if no initial configuration was provided, or if it does not
    /// cover every processor (same contract as [`Simulator::new`]).
    pub fn build(self) -> Simulator<P> {
        self.try_build().unwrap_or_else(|e| panic!("SimBuilder: {e}"))
    }

    /// Finalizes the simulator, reporting configuration mistakes as typed
    /// errors instead of panicking — the same construction contract the
    /// net engine's `NetBuilder::build` follows.
    pub fn try_build(self) -> Result<Simulator<P>, SimError> {
        let states = self.states.ok_or(SimError::MissingStates)?;
        if states.len() != self.graph.len() {
            return Err(SimError::StateCountMismatch {
                expected: self.graph.len(),
                got: states.len(),
            });
        }
        let mut sim = Simulator::new(self.graph, self.protocol, states);
        if let Some(on) = self.validation {
            sim.set_validation(on);
        }
        sim.limits = self.limits;
        Ok(sim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemons::{CentralSequential, Synchronous};
    use pif_graph::generators;

    /// Token-passing toy protocol on a chain: a processor holding a value
    /// greater than its right neighbor's pushes the excess right.
    struct PushRight;

    impl Protocol for PushRight {
        type State = i32;
        fn action_names(&self) -> &'static [&'static str] {
            &["push"]
        }
        fn enabled_actions(&self, view: View<'_, i32>, out: &mut Vec<ActionId>) {
            // Enabled iff some neighbor with larger id has a smaller value.
            if view.neighbor_states().any(|(q, &s)| q > view.pid() && s < *view.me()) {
                out.push(ActionId(0));
            }
        }
        fn execute(&self, view: View<'_, i32>, _: ActionId) -> i32 {
            *view.me() - 1
        }
    }

    #[test]
    fn fixpoint_on_monotone_protocol() {
        let g = generators::chain(4).unwrap();
        let mut sim = Simulator::new(g, PushRight, vec![3, 0, 0, 0]);
        let stats = sim
            .run_to_fixpoint(&mut Synchronous::first_action(), RunLimits::default())
            .unwrap();
        assert!(stats.terminal);
        assert!(sim.is_terminal());
        assert_eq!(sim.state(ProcId(0)), &0);
    }

    #[test]
    fn step_on_terminal_configuration_is_noop() {
        let g = generators::chain(2).unwrap();
        let mut sim = Simulator::new(g, PushRight, vec![0, 0]);
        assert!(sim.is_terminal());
        let rep = sim.step(&mut Synchronous::first_action()).unwrap();
        assert!(rep.terminal);
        assert_eq!(rep.executed, 0);
        assert!(sim.last_executed().is_empty());
        assert_eq!(sim.steps(), 0);
    }

    #[test]
    fn central_daemon_executes_one_processor_per_step() {
        let g = generators::chain(4).unwrap();
        let mut sim = Simulator::new(g, PushRight, vec![5, 5, 5, 0]);
        let mut d = CentralSequential::new();
        let rep = sim.step(&mut d).unwrap();
        assert_eq!(rep.executed, 1);
        assert_eq!(sim.last_executed().len(), 1);
    }

    #[test]
    fn rounds_advance_under_synchronous_daemon() {
        let g = generators::chain(3).unwrap();
        let mut sim = Simulator::new(g, PushRight, vec![2, 2, 0]);
        let stats = sim
            .run_to_fixpoint(&mut Synchronous::first_action(), RunLimits::default())
            .unwrap();
        // Under the synchronous daemon every step closes a round.
        assert_eq!(stats.steps, stats.rounds);
    }

    #[test]
    fn run_until_stops_at_predicate() {
        let g = generators::chain(4).unwrap();
        let mut sim = Simulator::new(g, PushRight, vec![9, 0, 0, 0]);
        let stats = sim
            .run_until(&mut Synchronous::first_action(), RunLimits::default(), |s| {
                s.state(ProcId(0)) <= &5
            })
            .unwrap();
        assert!(stats.steps > 0);
        assert_eq!(sim.state(ProcId(0)), &5);
    }

    #[test]
    fn budget_exhaustion_is_an_error() {
        let g = generators::chain(4).unwrap();
        let mut sim = Simulator::new(g, PushRight, vec![1000, 0, 0, 0]);
        let err = sim
            .run_to_fixpoint(&mut Synchronous::first_action(), RunLimits::new(5, 1000))
            .unwrap_err();
        assert!(matches!(err, SimError::MaxStepsExceeded { steps: 5, .. }));
    }

    #[test]
    fn invalid_daemon_is_reported() {
        struct BadDaemon;
        impl Daemon<i32> for BadDaemon {
            fn select(
                &mut self,
                _: &EnabledSet<'_, i32>,
                _: &mut Vec<(ProcId, ActionId)>,
            ) {
            }
        }
        let g = generators::chain(2).unwrap();
        let mut sim = Simulator::new(g, PushRight, vec![5, 0]);
        let err = sim.step(&mut BadDaemon).unwrap_err();
        assert!(matches!(err, SimError::InvalidSelection { .. }));
    }

    #[test]
    fn validation_catches_duplicate_selection() {
        struct DupDaemon;
        impl Daemon<i32> for DupDaemon {
            fn select(
                &mut self,
                snap: &EnabledSet<'_, i32>,
                out: &mut Vec<(ProcId, ActionId)>,
            ) {
                let p = snap.enabled_procs()[0];
                let a = snap.actions_of(p)[0];
                out.push((p, a));
                out.push((p, a));
            }
        }
        let g = generators::chain(2).unwrap();
        let mut sim = Simulator::new(g, PushRight, vec![5, 0]);
        sim.set_validation(true);
        let err = sim.step(&mut DupDaemon).unwrap_err();
        assert!(matches!(err, SimError::InvalidSelection { .. }));
        // With validation off the duplicate goes through unchecked.
        let mut sim = Simulator::new(generators::chain(2).unwrap(), PushRight, vec![5, 0]);
        sim.set_validation(false);
        assert!(sim.step(&mut DupDaemon).is_ok());
    }

    #[test]
    fn corrupt_restarts_round_accounting() {
        let g = generators::chain(3).unwrap();
        let mut sim = Simulator::new(g, PushRight, vec![0, 0, 0]);
        assert!(sim.is_terminal());
        sim.corrupt(ProcId(0), 7);
        assert!(!sim.is_terminal());
        assert_eq!(sim.enabled_procs(), &[ProcId(0)]);
    }

    #[test]
    fn corrupt_many_applies_batch_and_restarts_accounting_once() {
        let g = generators::chain(4).unwrap();
        let mut sim = Simulator::new(g.clone(), PushRight, vec![0, 0, 0, 0]);
        assert!(sim.is_terminal());
        sim.corrupt_many(&[(ProcId(0), 7), (ProcId(2), 3)]);
        assert!(!sim.is_terminal());
        assert_eq!(sim.state(ProcId(0)), &7);
        assert_eq!(sim.state(ProcId(2)), &3);
        assert_eq!(sim.enabled_procs(), &[ProcId(0), ProcId(2)]);
        // The batch is one fault event: bookkeeping must equal a fresh
        // simulator started from the corrupted configuration (which is what
        // a single round-accounting restart means).
        let fresh = Simulator::new(g, PushRight, sim.states().to_vec());
        assert_eq!(sim.enabled_procs(), fresh.enabled_procs());
        assert_eq!(sim.rounds(), fresh.rounds());
        // An empty batch is a no-op (no spurious accounting restart).
        let before: Vec<_> = sim.enabled_procs().to_vec();
        sim.corrupt_many(&[]);
        assert_eq!(sim.enabled_procs(), &before[..]);
    }

    #[test]
    fn observer_sees_every_step() {
        struct Counter(u64);
        impl Observer<PushRight> for Counter {
            fn step(&mut self, _: &Graph, delta: &StepDelta<'_, PushRight>, _: &[i32]) {
                self.0 += delta.executed().len() as u64;
            }
        }
        let g = generators::chain(3).unwrap();
        let mut sim = Simulator::new(g, PushRight, vec![2, 1, 0]);
        let mut obs = Counter(0);
        let mut target = |_: &Simulator<PushRight>| false;
        sim.run_until_observed(
            &mut Synchronous::first_action(),
            &mut obs,
            RunLimits::default(),
            &mut target,
        )
        .unwrap();
        assert!(obs.0 > 0);
    }

    #[test]
    fn delta_reports_old_states_and_full_before_on_request() {
        struct Checker {
            saw: u64,
        }
        impl Observer<PushRight> for Checker {
            fn needs_full_before(&self) -> bool {
                true
            }
            fn step(&mut self, _: &Graph, delta: &StepDelta<'_, PushRight>, after: &[i32]) {
                let before = delta.before().expect("requested full before");
                for (p, _a, old) in delta.iter() {
                    assert_eq!(before[p.index()], *old);
                    assert_eq!(after[p.index()], *old - 1);
                }
                self.saw += delta.executed().len() as u64;
            }
        }
        let g = generators::chain(3).unwrap();
        let mut sim = Simulator::new(g, PushRight, vec![3, 2, 0]);
        let mut obs = Checker { saw: 0 };
        let mut target = |_: &Simulator<PushRight>| false;
        sim.run_until_observed(
            &mut Synchronous::first_action(),
            &mut obs,
            RunLimits::default(),
            &mut target,
        )
        .unwrap();
        assert!(obs.saw > 0);
    }

    #[test]
    fn builder_matches_manual_construction() {
        let g = generators::chain(4).unwrap();
        let mut manual = Simulator::new(g.clone(), PushRight, vec![3, 0, 0, 0]);
        manual.set_validation(true);
        let built = Simulator::builder(g, PushRight)
            .states(vec![3, 0, 0, 0])
            .validation(true)
            .limits(RunLimits::new(42, 7))
            .build();
        assert_eq!(manual.states(), built.states());
        assert_eq!(manual.enabled_procs(), built.enabled_procs());
        assert!(built.validation());
        assert_eq!(built.limits(), RunLimits::new(42, 7));
    }

    #[test]
    fn builder_states_with_closure() {
        let sim = Simulator::builder(generators::chain(3).unwrap(), PushRight)
            .states_with(|p| p.index() as i32)
            .build();
        assert_eq!(sim.states(), &[0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "initial configuration is required")]
    fn builder_requires_states() {
        let _ = Simulator::builder(generators::chain(3).unwrap(), PushRight).build();
    }

    #[test]
    fn try_build_reports_typed_errors() {
        let g = generators::chain(3).unwrap();
        assert_eq!(
            Simulator::builder(g.clone(), PushRight).try_build().err(),
            Some(SimError::MissingStates)
        );
        assert_eq!(
            Simulator::builder(g.clone(), PushRight).states(vec![1, 2]).try_build().err(),
            Some(SimError::StateCountMismatch { expected: 3, got: 2 })
        );
        let sim = Simulator::builder(g, PushRight).states(vec![1, 2, 3]).try_build().unwrap();
        assert_eq!(sim.states(), &[1, 2, 3]);
    }

    #[test]
    fn stop_policy_limits_is_success_not_error() {
        let g = generators::chain(4).unwrap();
        let mut sim = Simulator::new(g, PushRight, vec![1000, 0, 0, 0]);
        let stats = sim
            .run(
                &mut Synchronous::first_action(),
                &mut NoOpObserver,
                StopPolicy::Limits(RunLimits::new(5, 1000)),
            )
            .unwrap();
        assert_eq!(stats.steps, 5);
        assert!(!stats.terminal);
    }

    #[test]
    fn fanout_feeds_both_observers() {
        struct Counter(u64);
        impl Observer<PushRight> for Counter {
            fn step(&mut self, _: &Graph, delta: &StepDelta<'_, PushRight>, _: &[i32]) {
                self.0 += delta.executed().len() as u64;
            }
        }
        let g = generators::chain(3).unwrap();
        let mut sim = Simulator::new(g, PushRight, vec![2, 1, 0]);
        let (mut a, mut b) = (Counter(0), Counter(0));
        let mut both = Fanout::new(&mut a, &mut b);
        sim.run(
            &mut Synchronous::first_action(),
            &mut both,
            StopPolicy::Fixpoint(RunLimits::default()),
        )
        .unwrap();
        assert!(a.0 > 0);
        assert_eq!(a.0, b.0);
    }

    #[test]
    fn delta_carries_step_index_and_round_flag() {
        struct Check {
            expected_next_step: u64,
            rounds_seen: u64,
        }
        impl Observer<PushRight> for Check {
            fn step(&mut self, _: &Graph, delta: &StepDelta<'_, PushRight>, _: &[i32]) {
                assert_eq!(delta.step(), self.expected_next_step);
                self.expected_next_step += 1;
                if delta.round_completed() {
                    self.rounds_seen += 1;
                }
            }
        }
        let g = generators::chain(3).unwrap();
        let mut sim = Simulator::new(g, PushRight, vec![4, 2, 0]);
        let mut obs = Check { expected_next_step: 0, rounds_seen: 0 };
        sim.run(
            &mut Synchronous::first_action(),
            &mut obs,
            StopPolicy::Fixpoint(RunLimits::default()),
        )
        .unwrap();
        assert_eq!(obs.expected_next_step, sim.steps());
        assert_eq!(obs.rounds_seen, sim.rounds());
    }

    #[test]
    fn dirty_set_recompute_matches_full_recompute() {
        let g = generators::torus(3, 3).unwrap();
        let init: Vec<i32> = (0..9).map(|i| i * 7 % 5).collect();
        let mut sim = Simulator::new(g.clone(), PushRight, init.clone());
        let mut d = CentralSequential::new();
        for _ in 0..20 {
            if sim.is_terminal() {
                break;
            }
            sim.step(&mut d).unwrap();
            // Reference: recompute everything from scratch.
            let fresh = Simulator::new(g.clone(), PushRight, sim.states().to_vec());
            assert_eq!(sim.enabled_procs(), fresh.enabled_procs());
            for p in g.procs() {
                assert_eq!(sim.enabled_actions(p), fresh.enabled_actions(p));
            }
        }
    }
}

//! The payload engine: attaching a concrete message and a feedback
//! aggregation to the abstract PIF phase machine.
//!
//! The protocol of Algorithms 1 & 2 is a *wave scheme*: it moves phases,
//! not data. In the locally-shared-memory model, "broadcasting a message
//! `m`" means the root exposes `m` in a register and every processor copies
//! its parent's copy when it executes its `B-action`; "acknowledging"
//! means contributing a feedback value when executing the `F-action`, which
//! parents fold over their children. This module implements that overlay as
//! an [`Observer`] so the registers evolve in lockstep with the protocol,
//! and packages the whole thing as [`WaveRunner`] — the crate's high-level
//! API for running PIF cycles that carry data.
//!
//! The overlay is also the instrument for the \[PIF1\]/\[PIF2\] verdicts: it
//! records *which* value each processor copied and whether each processor
//! fed back, so the [`checker`](crate::checker) can decide whether the
//! first wave out of a corrupted configuration delivered the right message
//! everywhere.

use std::fmt;

use pif_daemon::{Observer, RunLimits, SimError, Simulator, StepDelta};
use pif_graph::{Graph, ProcId};

use crate::protocol::{PifProtocol, B_ACTION, F_ACTION};
use crate::state::{Phase, PifState};

/// A feedback aggregation: what each processor contributes when it
/// acknowledges, and how a parent folds its children's results.
///
/// The fold must be associative and commutative up to the application's
/// tolerance — children are folded in neighbor order, but the tree shape
/// (and therefore the fold grouping) depends on the run.
pub trait Aggregate {
    /// The aggregated value type.
    type Value: Clone + fmt::Debug;

    /// The contribution of processor `p`, read at the moment `p` executes
    /// its `F-action`.
    fn contribution(&self, p: ProcId) -> Self::Value;

    /// Folds two partial results.
    fn fold(&self, a: Self::Value, b: Self::Value) -> Self::Value;
}

/// Maximum of per-processor `u32` contributions.
#[derive(Clone, Debug)]
pub struct MaxAggregate {
    values: Vec<u32>,
}

impl MaxAggregate {
    /// One contribution per processor, indexed by id.
    pub fn new(values: Vec<u32>) -> Self {
        MaxAggregate { values }
    }
}

impl Aggregate for MaxAggregate {
    type Value = u32;
    fn contribution(&self, p: ProcId) -> u32 {
        self.values[p.index()]
    }
    fn fold(&self, a: u32, b: u32) -> u32 {
        a.max(b)
    }
}

/// Minimum of per-processor `i64` contributions (a distributed infimum).
#[derive(Clone, Debug)]
pub struct MinAggregate {
    values: Vec<i64>,
}

impl MinAggregate {
    /// One contribution per processor, indexed by id.
    pub fn new(values: Vec<i64>) -> Self {
        MinAggregate { values }
    }
}

impl Aggregate for MinAggregate {
    type Value = i64;
    fn contribution(&self, p: ProcId) -> i64 {
        self.values[p.index()]
    }
    fn fold(&self, a: i64, b: i64) -> i64 {
        a.min(b)
    }
}

/// Sum of per-processor `i64` contributions.
#[derive(Clone, Debug)]
pub struct SumAggregate {
    values: Vec<i64>,
}

impl SumAggregate {
    /// One contribution per processor, indexed by id.
    pub fn new(values: Vec<i64>) -> Self {
        SumAggregate { values }
    }
}

impl Aggregate for SumAggregate {
    type Value = i64;
    fn contribution(&self, p: ProcId) -> i64 {
        self.values[p.index()]
    }
    fn fold(&self, a: i64, b: i64) -> i64 {
        a + b
    }
}

/// Collects every processor's contribution into one sorted vector — the
/// building block of global snapshots.
#[derive(Clone, Debug)]
pub struct CollectAggregate<V: Clone + fmt::Debug> {
    values: Vec<V>,
}

impl<V: Clone + fmt::Debug> CollectAggregate<V> {
    /// One contribution per processor, indexed by id.
    pub fn new(values: Vec<V>) -> Self {
        CollectAggregate { values }
    }

    /// Replaces the contribution of `p` (e.g. between cycles).
    pub fn set(&mut self, p: ProcId, value: V) {
        self.values[p.index()] = value;
    }
}

impl<V: Clone + fmt::Debug> Aggregate for CollectAggregate<V> {
    type Value = Vec<(ProcId, V)>;
    fn contribution(&self, p: ProcId) -> Self::Value {
        vec![(p, self.values[p.index()].clone())]
    }
    fn fold(&self, mut a: Self::Value, mut b: Self::Value) -> Self::Value {
        a.append(&mut b);
        a.sort_by_key(|&(p, _)| p);
        a
    }
}

/// The acknowledgment-only aggregation: feedback carries no data.
#[derive(Clone, Copy, Debug, Default)]
pub struct UnitAggregate;

impl Aggregate for UnitAggregate {
    type Value = ();
    fn contribution(&self, _: ProcId) {}
    fn fold(&self, (): (), (): ()) {}
}

/// The message/feedback overlay registers, maintained as an [`Observer`].
///
/// Use [`WaveRunner`] unless you need to drive the simulator manually.
#[derive(Clone, Debug)]
pub struct WaveOverlay<M, A: Aggregate> {
    root: ProcId,
    /// Message register of each processor (copied parent→child on
    /// `B-action`).
    msg: Vec<Option<M>>,
    /// Feedback register of each processor (written on `F-action`).
    fb: Vec<Option<A::Value>>,
    /// Step at which each processor copied the message in the current wave.
    delivered_step: Vec<Option<u64>>,
    /// Value armed for the root's next `B-action`.
    armed: Option<M>,
    aggregate: A,
    steps: u64,
    broadcast_step: Option<u64>,
    feedback_step: Option<u64>,
    root_feedback: Option<A::Value>,
}

impl<M: Clone + PartialEq + fmt::Debug, A: Aggregate> WaveOverlay<M, A> {
    /// Creates the overlay for a network of `n` processors rooted at
    /// `root`.
    pub fn new(n: usize, root: ProcId, aggregate: A) -> Self {
        WaveOverlay {
            root,
            msg: vec![None; n],
            fb: (0..n).map(|_| None).collect(),
            delivered_step: vec![None; n],
            armed: None,
            aggregate,
            steps: 0,
            broadcast_step: None,
            feedback_step: None,
            root_feedback: None,
        }
    }

    /// Arms the message the root will broadcast at its next `B-action`,
    /// clearing the previous wave's registers and markers.
    pub fn arm(&mut self, m: M) {
        self.reset_wave();
        self.armed = Some(m);
    }

    /// The message register of `p`.
    pub fn message_of(&self, p: ProcId) -> Option<&M> {
        self.msg[p.index()].as_ref()
    }

    /// Step index of the root's `B-action` for the current wave.
    pub fn broadcast_step(&self) -> Option<u64> {
        self.broadcast_step
    }

    /// Step index of the root's `F-action` for the current wave.
    pub fn feedback_step(&self) -> Option<u64> {
        self.feedback_step
    }

    /// The aggregated feedback collected by the root (set at its
    /// `F-action`).
    pub fn root_feedback(&self) -> Option<&A::Value> {
        self.root_feedback.as_ref()
    }

    /// Read access to the aggregate (e.g. to update contributions).
    pub fn aggregate_mut(&mut self) -> &mut A {
        &mut self.aggregate
    }

    /// Whether processor `p` copied the message during the current wave.
    pub fn delivered(&self, p: ProcId) -> bool {
        self.delivered_step[p.index()].is_some()
    }

    /// Step (in observed steps) at which `p` copied the message during the
    /// current wave, if it has. The basis for per-phase service latency:
    /// the broadcast phase of a wave spans from [`WaveOverlay::broadcast_step`]
    /// to the maximum delivery step.
    pub fn delivered_step(&self, p: ProcId) -> Option<u64> {
        self.delivered_step[p.index()]
    }

    /// Steps observed by this overlay so far (equals the simulator's step
    /// count when the overlay has observed every step since construction).
    pub fn observed_steps(&self) -> u64 {
        self.steps
    }

    /// Whether every processor's message register holds `m`.
    pub fn all_received(&self, m: &M) -> bool {
        self.msg.iter().all(|v| v.as_ref() == Some(m))
    }

    /// Whether every non-root processor has fed a value back (executed its
    /// `F-action` during the current wave).
    pub fn all_acknowledged(&self) -> bool {
        self.fb
            .iter()
            .enumerate()
            .all(|(i, v)| i == self.root.index() || v.is_some())
    }

    /// Height of the constructed broadcast tree: the maximum level written
    /// by a `B-action` of the current wave.
    pub fn observed_height(&self, states: &[PifState]) -> u32 {
        states
            .iter()
            .enumerate()
            .filter(|(i, _)| self.delivered_step[*i].is_some() && *i != self.root.index())
            .map(|(_, s)| u32::from(s.level))
            .max()
            .unwrap_or(0)
    }

    fn reset_wave(&mut self) {
        for v in &mut self.msg {
            *v = None;
        }
        for v in &mut self.fb {
            *v = None;
        }
        for v in &mut self.delivered_step {
            *v = None;
        }
        self.broadcast_step = None;
        self.feedback_step = None;
        self.root_feedback = None;
    }
}

impl<M: Clone + PartialEq + fmt::Debug, A: Aggregate> Observer<PifProtocol>
    for WaveOverlay<M, A>
{
    fn step(&mut self, graph: &Graph, delta: &StepDelta<'_, PifProtocol>, after: &[PifState]) {
        let executed = delta.executed();
        self.steps += 1;
        // Root B-action first: it opens a new wave that same step.
        if executed.iter().any(|&(p, a)| p == self.root && a == B_ACTION) {
            self.reset_wave();
            self.msg[self.root.index()] = self.armed.clone();
            self.delivered_step[self.root.index()] = Some(self.steps);
            self.broadcast_step = Some(self.steps);
        }
        for &(p, a) in executed {
            if p == self.root {
                if a == F_ACTION {
                    // Fold the root's contribution with its children's
                    // feedback registers.
                    let mut acc = self.aggregate.contribution(p);
                    for q in graph.neighbors(p) {
                        if after[q.index()].par == p && after[q.index()].phase == Phase::F {
                            if let Some(v) = &self.fb[q.index()] {
                                acc = self.aggregate.fold(acc, v.clone());
                            }
                        }
                    }
                    self.root_feedback = Some(acc.clone());
                    self.fb[p.index()] = Some(acc);
                    self.feedback_step = Some(self.steps);
                }
                continue;
            }
            match a {
                B_ACTION => {
                    // Copy the parent's message register (evaluated against
                    // the pre-step overlay: parents joined earlier).
                    let par = after[p.index()].par;
                    self.msg[p.index()] = self.msg[par.index()].clone();
                    self.delivered_step[p.index()] = Some(self.steps);
                }
                F_ACTION => {
                    let mut acc = self.aggregate.contribution(p);
                    for q in graph.neighbors(p) {
                        if q != self.root
                            && after[q.index()].par == p
                            && after[q.index()].phase == Phase::F
                        {
                            if let Some(v) = &self.fb[q.index()] {
                                acc = self.aggregate.fold(acc, v.clone());
                            }
                        }
                    }
                    self.fb[p.index()] = Some(acc);
                }
                _ => {}
            }
        }
    }
}

/// The outcome of one attempted PIF cycle.
#[derive(Clone, Debug)]
pub struct CycleOutcome<V> {
    /// Whether the root initiated the wave (executed its `B-action`)
    /// within the budget.
    pub initiated: bool,
    /// \[PIF1\] — every processor's message register held the broadcast
    /// value when the feedback reached the root.
    pub pif1: bool,
    /// \[PIF2\] — the root received an acknowledgment (every non-root
    /// processor executed its `F-action` with the right message) and
    /// completed its own `F-action`.
    pub pif2: bool,
    /// Which processors held the broadcast value at cycle end.
    pub received: Vec<bool>,
    /// The aggregated feedback collected by the root.
    pub feedback: Option<V>,
    /// Rounds from run start to the root's `B-action`.
    pub rounds_to_broadcast: u64,
    /// Rounds from the root's `B-action` to its `F-action` — the paper's
    /// PIF-cycle duration (Theorem 4 bounds it by `5h + 5` from an SBN
    /// start).
    pub cycle_rounds: u64,
    /// Steps from the root's `B-action` to its `F-action`.
    pub cycle_steps: u64,
    /// Height `h` of the broadcast tree constructed during the cycle.
    pub height: u32,
}

impl<V> CycleOutcome<V> {
    /// Whether the cycle satisfied the full PIF-cycle specification.
    pub fn satisfies_spec(&self) -> bool {
        self.initiated && self.pif1 && self.pif2
    }
}

/// High-level driver: a simulator plus a [`WaveOverlay`], running complete
/// message-carrying PIF cycles.
///
/// See the [crate examples](crate) for usage.
#[derive(Clone, Debug)]
pub struct WaveRunner<M, A: Aggregate> {
    sim: Simulator<PifProtocol>,
    overlay: WaveOverlay<M, A>,
}

impl<M: Clone + PartialEq + fmt::Debug, A: Aggregate> WaveRunner<M, A> {
    /// Creates a runner starting from the normal starting configuration.
    pub fn new(graph: Graph, protocol: PifProtocol, aggregate: A) -> Self {
        let init = crate::initial::normal_starting(&graph);
        Self::with_states(graph, protocol, aggregate, init)
    }

    /// Creates a runner starting from an arbitrary configuration (the
    /// snap-stabilization setting).
    pub fn with_states(
        graph: Graph,
        protocol: PifProtocol,
        aggregate: A,
        states: Vec<PifState>,
    ) -> Self {
        let root = protocol.root();
        let n = graph.len();
        let sim = Simulator::new(graph, protocol, states);
        WaveRunner { sim, overlay: WaveOverlay::new(n, root, aggregate) }
    }

    /// The underlying simulator.
    pub fn simulator(&self) -> &Simulator<PifProtocol> {
        &self.sim
    }

    /// The overlay registers.
    pub fn overlay(&self) -> &WaveOverlay<M, A> {
        &self.overlay
    }

    /// Mutable access to the overlay (e.g. to update contributions between
    /// cycles).
    pub fn overlay_mut(&mut self) -> &mut WaveOverlay<M, A> {
        &mut self.overlay
    }

    /// Runs one full PIF cycle broadcasting `m` with default limits.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors; budget exhaustion before the wave even
    /// starts is reported as a non-initiated [`CycleOutcome`] rather than
    /// an error.
    pub fn run_cycle(
        &mut self,
        m: M,
        daemon: &mut dyn pif_daemon::Daemon<PifState>,
    ) -> Result<CycleOutcome<A::Value>, SimError> {
        self.run_cycle_limited(m, daemon, RunLimits::default())
    }

    /// Runs one full PIF cycle broadcasting `m`: waits for the root's
    /// `B-action`, then for the root's `F-action`, then finishes the
    /// cleaning phase until the system returns to the normal starting
    /// configuration (so cycles can be chained).
    ///
    /// # Errors
    ///
    /// Propagates daemon-contract violations; budget exhaustion yields a
    /// non-initiated or non-completed outcome instead of an error wherever
    /// the phase reached makes that meaningful.
    pub fn run_cycle_limited(
        &mut self,
        m: M,
        daemon: &mut dyn pif_daemon::Daemon<PifState>,
        limits: RunLimits,
    ) -> Result<CycleOutcome<A::Value>, SimError> {
        self.overlay.arm(m);

        // Phase 1: wait for the root's B-action.
        let rounds_before = self.sim.rounds();
        let wait = self.drive(daemon, limits, |ov, _| ov.broadcast_step.is_some())?;
        if !wait {
            return Ok(self.no_cycle_outcome(false, self.sim.rounds() - rounds_before));
        }
        let rounds_to_broadcast = self.sim.rounds() - rounds_before;

        // Phase 2: wait for the root's F-action (end of the PIF cycle
        // proper).
        let rounds_b = self.sim.rounds();
        let steps_b = self.sim.steps();
        let done = self.drive(daemon, limits, |ov, _| ov.feedback_step.is_some())?;
        if !done {
            let mut out = self.no_cycle_outcome(true, rounds_to_broadcast);
            out.received = self.received_flags();
            return Ok(out);
        }
        let cycle_rounds = self.sim.rounds() - rounds_b;
        let cycle_steps = self.sim.steps() - steps_b;

        let received = self.received_flags();
        let pif1 = self.overlay.armed.as_ref().is_some_and(|m| self.overlay.all_received(m));
        let pif2 = pif1 && self.overlay.all_acknowledged();
        let height = self.overlay.observed_height(self.sim.states());
        let feedback = self.overlay.root_feedback.clone();

        // Phase 3: finish cleaning so the next cycle can start immediately.
        let _ = self.drive(daemon, limits, |_, sim| {
            crate::initial::is_normal_starting(sim.states())
        })?;

        Ok(CycleOutcome {
            initiated: true,
            pif1,
            pif2,
            received,
            feedback,
            rounds_to_broadcast,
            cycle_rounds,
            cycle_steps,
            height,
        })
    }

    /// Whether each processor holds the message armed for this cycle.
    fn received_flags(&self) -> Vec<bool> {
        let armed = self.overlay.armed.as_ref();
        self.sim.graph().procs().map(|p| self.overlay.message_of(p) == armed).collect()
    }

    fn no_cycle_outcome(&self, initiated: bool, rounds: u64) -> CycleOutcome<A::Value> {
        CycleOutcome {
            initiated,
            pif1: false,
            pif2: false,
            received: vec![false; self.sim.graph().len()],
            feedback: None,
            rounds_to_broadcast: rounds,
            cycle_rounds: 0,
            cycle_steps: 0,
            height: 0,
        }
    }

    /// Steps until `stop` holds; returns whether it held (false on budget
    /// exhaustion or a terminal configuration without the condition).
    fn drive(
        &mut self,
        daemon: &mut dyn pif_daemon::Daemon<PifState>,
        limits: RunLimits,
        stop: impl Fn(&WaveOverlay<M, A>, &Simulator<PifProtocol>) -> bool,
    ) -> Result<bool, SimError> {
        let start_steps = self.sim.steps();
        let start_rounds = self.sim.rounds();
        loop {
            if stop(&self.overlay, &self.sim) {
                return Ok(true);
            }
            if self.sim.is_terminal() {
                return Ok(false);
            }
            if self.sim.steps() - start_steps >= limits.max_steps
                || self.sim.rounds() - start_rounds >= limits.max_rounds
            {
                return Ok(false);
            }
            self.sim.step_observed(daemon, &mut self.overlay)?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pif_daemon::daemons::{CentralRandom, Synchronous};
    use pif_graph::generators;

    fn runner_on(
        g: Graph,
    ) -> WaveRunner<u64, SumAggregate> {
        let n = g.len();
        let proto = PifProtocol::new(ProcId(0), &g);
        WaveRunner::new(g, proto, SumAggregate::new(vec![1; n]))
    }

    #[test]
    fn clean_cycle_delivers_and_counts() {
        let g = generators::grid(3, 3).unwrap();
        let mut r = runner_on(g);
        let out = r.run_cycle(42, &mut Synchronous::first_action()).unwrap();
        assert!(out.satisfies_spec());
        assert_eq!(out.feedback, Some(9), "sum of unit contributions = N");
        assert!(out.received.iter().all(|&x| x));
        assert!(out.cycle_rounds > 0);
        assert!(out.height >= 1);
    }

    #[test]
    fn consecutive_cycles_carry_fresh_messages() {
        let g = generators::ring(6).unwrap();
        let mut r = runner_on(g);
        let mut d = Synchronous::first_action();
        for m in [7u64, 8, 9] {
            let out = r.run_cycle(m, &mut d).unwrap();
            assert!(out.satisfies_spec(), "message {m}");
            assert!(r.overlay().all_received(&m));
        }
    }

    #[test]
    fn cycle_bound_theorem4_on_chain() {
        // Chain rooted at one end: h = N - 1; Theorem 4 bounds the cycle
        // by 5h + 5 rounds from an SBN configuration.
        let n = 8;
        let g = generators::chain(n).unwrap();
        let mut r = runner_on(g);
        let out = r.run_cycle(1, &mut Synchronous::first_action()).unwrap();
        assert!(out.satisfies_spec());
        let h = u64::from(out.height);
        assert_eq!(h, (n - 1) as u64);
        assert!(
            out.cycle_rounds <= 5 * h + 5,
            "cycle took {} rounds, bound {}",
            out.cycle_rounds,
            5 * h + 5
        );
    }

    #[test]
    fn aggregates_fold_correctly() {
        let g = generators::star(5).unwrap();
        let proto = PifProtocol::new(ProcId(0), &g);
        let mut r = WaveRunner::new(
            g.clone(),
            proto.clone(),
            MaxAggregate::new(vec![3, 1, 4, 1, 5]),
        );
        let out = r.run_cycle("x", &mut Synchronous::first_action()).unwrap();
        assert_eq!(out.feedback, Some(5));

        let mut r = WaveRunner::new(g.clone(), proto.clone(), MinAggregate::new(vec![3, 1, 4, 1, 5]));
        let out = r.run_cycle("x", &mut Synchronous::first_action()).unwrap();
        assert_eq!(out.feedback, Some(1));

        let mut r = WaveRunner::new(
            g,
            proto,
            CollectAggregate::new(vec!["a", "b", "c", "d", "e"]),
        );
        let out = r.run_cycle("x", &mut Synchronous::first_action()).unwrap();
        let collected = out.feedback.unwrap();
        assert_eq!(collected.len(), 5);
        assert_eq!(collected[0], (ProcId(0), "a"));
        assert_eq!(collected[4], (ProcId(4), "e"));
    }

    #[test]
    fn works_under_random_central_daemon() {
        let g = generators::random_connected(10, 0.3, 17).unwrap();
        let mut r = runner_on(g);
        let out = r.run_cycle(5, &mut CentralRandom::new(23)).unwrap();
        assert!(out.satisfies_spec());
        assert_eq!(out.feedback, Some(10));
    }

    #[test]
    fn unit_aggregate_is_ack_only() {
        let g = generators::chain(3).unwrap();
        let proto = PifProtocol::new(ProcId(0), &g);
        let mut r = WaveRunner::new(g, proto, UnitAggregate);
        let out = r.run_cycle(0u8, &mut Synchronous::first_action()).unwrap();
        assert!(out.satisfies_spec());
        assert_eq!(out.feedback, Some(()));
    }

    #[test]
    fn singleton_cycle() {
        let g = generators::singleton();
        let proto = PifProtocol::new(ProcId(0), &g);
        let mut r = WaveRunner::new(g, proto, SumAggregate::new(vec![7]));
        let out = r.run_cycle("solo", &mut Synchronous::first_action()).unwrap();
        assert!(out.satisfies_spec());
        assert_eq!(out.feedback, Some(7));
        assert_eq!(out.height, 0);
    }

    #[test]
    fn stalled_wave_reports_non_completion() {
        // Root told N = 5 on a 3-chain: the wave starts but feedback never
        // happens; the runner reports initiated-but-unsatisfied.
        let g = generators::chain(3).unwrap();
        let proto = PifProtocol::new(ProcId(0), &g).with_n_prime(5).with_root_n(5);
        let mut r = WaveRunner::new(g, proto, UnitAggregate);
        let out = r
            .run_cycle_limited(1u8, &mut Synchronous::first_action(), RunLimits::new(5_000, 5_000))
            .unwrap();
        assert!(out.initiated);
        assert!(!out.pif2);
        assert!(!out.satisfies_spec());
    }
}

//! Phase-resolved run metrics.
//!
//! [`MetricsObserver`] classifies every executed action into the paper's
//! PIF phases via [`Protocol::classify`] and accumulates per-phase move,
//! step and round counters and per-processor correction
//! (abnormal-behavior) counts. The phase lookup table is precomputed at
//! construction, and all counters are fixed arrays or preallocated
//! vectors, so observing a step performs **no heap allocation** — the
//! observer is safe to attach to the simulator's allocation-free hot loop
//! (pinned by `tests/alloc_steps.rs`).
//!
//! The metrics are exported as a [`PhaseReport`], which is `PartialEq` so
//! a replayed run can be checked for *identical* phase behavior.

use pif_graph::{Graph, ProcId};

use crate::{Observer, PhaseTag, Protocol, StepDelta};

/// The deterministic phase metrics of a run: per-phase move/step/round
/// counts, totals, and the abnormal-processor count. Comparable with `==`
/// across a record/replay pair.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct PhaseReport {
    /// Executed actions per phase (a step may contribute several).
    pub moves: [u64; PhaseTag::COUNT],
    /// Steps in which at least one action of the phase executed.
    pub steps: [u64; PhaseTag::COUNT],
    /// Completed rounds in which at least one action of the phase executed.
    pub rounds: [u64; PhaseTag::COUNT],
    /// Total steps observed.
    pub total_steps: u64,
    /// Total completed rounds observed.
    pub total_rounds: u64,
    /// Total executed actions observed.
    pub total_moves: u64,
    /// Processors that executed at least one [`PhaseTag::Correction`]
    /// action — the paper's abnormal processors.
    pub abnormal_procs: u64,
}

impl PhaseReport {
    /// Moves attributed to `tag`.
    #[inline]
    pub fn moves_of(&self, tag: PhaseTag) -> u64 {
        self.moves[tag.index()]
    }

    /// Steps containing at least one `tag` action.
    #[inline]
    pub fn steps_of(&self, tag: PhaseTag) -> u64 {
        self.steps[tag.index()]
    }

    /// Completed rounds containing at least one `tag` action.
    #[inline]
    pub fn rounds_of(&self, tag: PhaseTag) -> u64 {
        self.rounds[tag.index()]
    }
}

/// Observer accumulating phase-resolved metrics for a run.
///
/// Construct with [`MetricsObserver::for_protocol`], attach to any run
/// entry point (alone or via [`crate::Fanout`]), then read the results
/// with [`MetricsObserver::report`].
///
/// ```
/// use pif_daemon::daemons::Synchronous;
/// use pif_daemon::{MetricsObserver, PhaseTag, RunLimits, Simulator, StopPolicy};
/// # use pif_daemon::{ActionId, ActionSet, Protocol, View};
/// # use pif_graph::generators;
/// # struct MaxProto;
/// # impl Protocol for MaxProto {
/// #     type State = u32;
/// #     fn action_names(&self) -> &'static [&'static str] { &["adopt-max"] }
/// #     fn enabled_actions(&self, v: View<'_, u32>) -> ActionSet {
/// #         let best = v.neighbor_states().map(|(_, &s)| s).max().unwrap_or(0);
/// #         if best > *v.me() { ActionSet::of(ActionId(0)) } else { ActionSet::EMPTY }
/// #     }
/// #     fn execute(&self, v: View<'_, u32>, _: ActionId) -> u32 {
/// #         v.neighbor_states().map(|(_, &s)| s).max().unwrap()
/// #     }
/// # }
/// let g = generators::chain(5).unwrap();
/// let mut sim = Simulator::new(g, MaxProto, vec![3, 0, 9, 0, 1]);
/// let mut metrics = MetricsObserver::for_protocol(sim.protocol(), sim.graph().len());
/// sim.run(
///     &mut Synchronous::first_action(),
///     &mut metrics,
///     StopPolicy::Fixpoint(RunLimits::default()),
/// )
/// .unwrap();
/// let report = metrics.report();
/// // MaxProto doesn't override `classify`, so everything lands in Other.
/// assert_eq!(report.total_moves, report.moves_of(PhaseTag::Other));
/// ```
#[derive(Clone, Debug)]
pub struct MetricsObserver {
    /// `ActionId` index → phase, precomputed from [`Protocol::classify`].
    table: Vec<PhaseTag>,
    report: PhaseReport,
    /// Correction moves per processor (preallocated, length `n`).
    correction_moves: Vec<u64>,
    /// Phases seen in the current step (scratch, cleared per step).
    step_seen: [bool; PhaseTag::COUNT],
    /// Phases seen in the currently open round (cleared on completion).
    round_seen: [bool; PhaseTag::COUNT],
}

impl MetricsObserver {
    /// Builds an observer for `protocol` on a network of `n` processors,
    /// precomputing the action-to-phase table so the step path never calls
    /// [`Protocol::classify`].
    pub fn for_protocol<P: Protocol>(protocol: &P, n: usize) -> Self {
        let table = (0..protocol.action_names().len())
            .map(|i| protocol.classify(crate::ActionId(i)))
            .collect();
        MetricsObserver {
            table,
            report: PhaseReport::default(),
            correction_moves: vec![0; n],
            step_seen: [false; PhaseTag::COUNT],
            round_seen: [false; PhaseTag::COUNT],
        }
    }

    /// The deterministic phase metrics accumulated so far. Note that
    /// per-phase *round* counters only cover completed rounds; activity in
    /// a trailing unfinished round is visible in the move/step counters.
    pub fn report(&self) -> PhaseReport {
        self.report.clone()
    }

    /// Correction moves executed by processor `p`.
    #[inline]
    pub fn correction_moves(&self, p: ProcId) -> u64 {
        self.correction_moves[p.index()]
    }

    /// Clears all accumulated metrics, keeping the phase table.
    pub fn reset(&mut self) {
        self.report = PhaseReport::default();
        self.correction_moves.iter_mut().for_each(|c| *c = 0);
        self.step_seen = [false; PhaseTag::COUNT];
        self.round_seen = [false; PhaseTag::COUNT];
    }

    #[inline]
    fn tag_of(&self, action: crate::ActionId) -> PhaseTag {
        self.table.get(action.index()).copied().unwrap_or(PhaseTag::Other)
    }
}

impl<P: Protocol> Observer<P> for MetricsObserver {
    fn step(&mut self, _graph: &Graph, delta: &StepDelta<'_, P>, _after: &[P::State]) {
        self.step_seen = [false; PhaseTag::COUNT];
        for &(p, a) in delta.executed() {
            let tag = self.tag_of(a);
            let i = tag.index();
            self.report.moves[i] += 1;
            self.step_seen[i] = true;
            self.round_seen[i] = true;
            if tag == PhaseTag::Correction {
                let moves = &mut self.correction_moves[p.index()];
                if *moves == 0 {
                    self.report.abnormal_procs += 1;
                }
                *moves += 1;
            }
        }
        self.report.total_moves += delta.executed().len() as u64;
        self.report.total_steps += 1;
        for i in 0..PhaseTag::COUNT {
            if self.step_seen[i] {
                self.report.steps[i] += 1;
            }
        }
        if delta.round_completed() {
            self.report.total_rounds += 1;
            for i in 0..PhaseTag::COUNT {
                if self.round_seen[i] {
                    self.report.rounds[i] += 1;
                    self.round_seen[i] = false;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemons::Synchronous;
    use crate::{ActionId, ActionSet, RunLimits, Simulator, StopPolicy, View};
    use pif_graph::generators;

    /// Two-action toy protocol: "grow" while below a cap, then "settle"
    /// once, so both phases appear in a run. `grow` is classified as
    /// Broadcast and `settle` as Correction.
    struct TwoPhase {
        cap: i32,
    }

    impl Protocol for TwoPhase {
        type State = i32;
        fn action_names(&self) -> &'static [&'static str] {
            &["grow", "settle"]
        }
        fn enabled_actions(&self, v: View<'_, i32>) -> ActionSet {
            match *v.me() {
                x if x < 0 => ActionSet::of(ActionId(1)),
                x if x < self.cap => ActionSet::of(ActionId(0)),
                _ => ActionSet::EMPTY,
            }
        }
        fn execute(&self, v: View<'_, i32>, a: ActionId) -> i32 {
            match a {
                ActionId(0) => *v.me() + 1,
                _ => self.cap,
            }
        }
        fn classify(&self, action: ActionId) -> PhaseTag {
            match action {
                ActionId(0) => PhaseTag::Broadcast,
                _ => PhaseTag::Correction,
            }
        }
    }

    #[test]
    fn phases_are_attributed_and_totals_add_up() {
        let g = generators::chain(4).unwrap();
        let protocol = TwoPhase { cap: 3 };
        let mut metrics = MetricsObserver::for_protocol(&protocol, 4);
        let mut sim = Simulator::new(g, protocol, vec![0, -5, 0, -2]);
        sim.run(
            &mut Synchronous::first_action(),
            &mut metrics,
            StopPolicy::Fixpoint(RunLimits::default()),
        )
        .unwrap();
        let r = metrics.report();
        // Processors 1 and 3 each settle exactly once, then grow.
        assert_eq!(r.moves_of(PhaseTag::Correction), 2);
        assert_eq!(r.abnormal_procs, 2);
        assert_eq!(metrics.correction_moves(pif_graph::ProcId(1)), 1);
        assert_eq!(metrics.correction_moves(pif_graph::ProcId(0)), 0);
        // Settled processors land directly on the cap, so only the two
        // processors starting at 0 grow (cap times each).
        assert_eq!(r.moves_of(PhaseTag::Broadcast), 2 * 3);
        assert_eq!(r.total_moves, r.moves.iter().sum::<u64>());
        assert_eq!(r.moves_of(PhaseTag::Other), 0);
        assert!(r.total_steps > 0);
        assert_eq!(r.total_rounds, sim.rounds());
        // Under the synchronous daemon every step closes a round, so
        // per-phase step and round counts coincide.
        assert_eq!(r.steps_of(PhaseTag::Broadcast), r.rounds_of(PhaseTag::Broadcast));
    }

    #[test]
    fn reports_compare_equal_across_identical_runs() {
        let run = || {
            let g = generators::ring(6).unwrap();
            let protocol = TwoPhase { cap: 4 };
            let mut metrics = MetricsObserver::for_protocol(&protocol, 6);
            let mut sim = Simulator::new(g, protocol, vec![-1, 0, 2, -3, 1, 0]);
            sim.run(
                &mut Synchronous::first_action(),
                &mut metrics,
                StopPolicy::Fixpoint(RunLimits::default()),
            )
            .unwrap();
            metrics.report()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn reset_clears_all_counters() {
        let protocol = TwoPhase { cap: 2 };
        let mut metrics = MetricsObserver::for_protocol(&protocol, 3);
        let g = generators::chain(3).unwrap();
        let mut sim = Simulator::new(g, protocol, vec![-1, 0, 0]);
        sim.run(
            &mut Synchronous::first_action(),
            &mut metrics,
            StopPolicy::Fixpoint(RunLimits::default()),
        )
        .unwrap();
        assert_ne!(metrics.report(), PhaseReport::default());
        metrics.reset();
        assert_eq!(metrics.report(), PhaseReport::default());
        assert_eq!(metrics.correction_moves(pif_graph::ProcId(0)), 0);
    }
}

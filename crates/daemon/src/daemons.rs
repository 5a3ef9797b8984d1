//! Daemon (scheduler/adversary) strategies.
//!
//! The paper's correctness claims quantify over *every* weakly fair
//! distributed daemon. This module provides the strategies the experiment
//! harness uses to approximate that quantification:
//!
//! * [`Synchronous`] — every enabled processor moves each step; rounds and
//!   steps coincide. The classical worst case for round *lower* bounds.
//! * [`CentralSequential`] / [`CentralRandom`] — exactly one processor per
//!   step (central daemon), round-robin or uniformly random.
//! * [`DistributedRandom`] — every enabled processor moves independently
//!   with probability `p` (at least one always moves); weakly fair with
//!   probability 1.
//! * [`AdversarialLifo`] — a *state-agnostic greedy adversary*: prefers the
//!   most recently enabled processors, starving long-enabled ones for as
//!   long as its explicit fairness bound allows. Weak fairness is enforced
//!   by force-selecting any processor continuously enabled for
//!   `fairness_bound` steps.
//! * [`FixedSchedule`] — replays a scripted selection sequence; for
//!   constructing exact adversarial interleavings in tests.

use pif_graph::ProcId;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::{ActionId, Daemon, EnabledSet};

/// How a daemon chooses among several simultaneously enabled actions of the
/// same processor.
///
/// For the paper's protocol at most two actions can be enabled at once
/// (`Fok-action` and `Count-action`); the daemon resolves the choice.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum ActionPick {
    /// The first enabled action in protocol order (the paper's listing
    /// order).
    #[default]
    First,
    /// The last enabled action in protocol order.
    Last,
    /// A uniformly random enabled action (uses the daemon's RNG).
    Random,
}

fn pick(actions: &[ActionId], pick: ActionPick, rng: &mut Option<StdRng>) -> ActionId {
    debug_assert!(!actions.is_empty());
    match pick {
        ActionPick::First => actions[0],
        ActionPick::Last => *actions.last().expect("non-empty"),
        ActionPick::Random => {
            let rng = rng.as_mut().expect("ActionPick::Random requires a seeded daemon");
            actions[rng.random_range(0..actions.len())]
        }
    }
}

/// The synchronous daemon: selects *every* enabled processor each step.
///
/// Under this daemon each computation step closes exactly one round, so
/// measured step counts equal round counts — the most convenient instrument
/// for checking the paper's round bounds.
#[derive(Debug)]
pub struct Synchronous {
    action_pick: ActionPick,
    rng: Option<StdRng>,
}

impl Synchronous {
    /// Synchronous daemon resolving action choices by protocol order.
    pub fn first_action() -> Self {
        Synchronous { action_pick: ActionPick::First, rng: None }
    }

    /// Synchronous daemon resolving action choices uniformly at random.
    pub fn random_actions(seed: u64) -> Self {
        Synchronous { action_pick: ActionPick::Random, rng: Some(StdRng::seed_from_u64(seed)) }
    }
}

impl<S> Daemon<S> for Synchronous {
    fn select(&mut self, enabled: &EnabledSet<'_, S>, out: &mut Vec<(ProcId, ActionId)>) {
        for &p in enabled.enabled_procs() {
            out.push((p, pick(enabled.actions_of(p), self.action_pick, &mut self.rng)));
        }
    }

    fn name(&self) -> &'static str {
        "synchronous"
    }
}

/// A central daemon that services enabled processors in round-robin order
/// of their identifiers. Deterministic and weakly fair.
#[derive(Clone, Debug, Default)]
pub struct CentralSequential {
    cursor: u32,
}

impl CentralSequential {
    /// Creates the daemon with its cursor at processor 0.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<S> Daemon<S> for CentralSequential {
    fn select(&mut self, enabled: &EnabledSet<'_, S>, out: &mut Vec<(ProcId, ActionId)>) {
        let procs = enabled.enabled_procs();
        if procs.is_empty() {
            return;
        }
        // First enabled processor with id >= cursor, else wrap.
        let chosen = procs
            .iter()
            .copied()
            .find(|p| p.0 >= self.cursor)
            .unwrap_or(procs[0]);
        self.cursor = chosen.0 + 1;
        out.push((chosen, enabled.actions_of(chosen)[0]));
    }

    fn name(&self) -> &'static str {
        "central-seq"
    }
}

/// A central daemon that picks one uniformly random enabled processor (and
/// a uniformly random enabled action of it) each step. Weakly fair with
/// probability 1.
#[derive(Debug)]
pub struct CentralRandom {
    rng: Option<StdRng>,
}

impl CentralRandom {
    /// Creates the daemon with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        CentralRandom { rng: Some(StdRng::seed_from_u64(seed)) }
    }
}

impl<S> Daemon<S> for CentralRandom {
    fn select(&mut self, enabled: &EnabledSet<'_, S>, out: &mut Vec<(ProcId, ActionId)>) {
        let procs = enabled.enabled_procs();
        if procs.is_empty() {
            return;
        }
        let rng = self.rng.as_mut().expect("constructed with rng");
        let p = procs[rng.random_range(0..procs.len())];
        let actions = enabled.actions_of(p);
        out.push((p, actions[rng.random_range(0..actions.len())]));
    }

    fn name(&self) -> &'static str {
        "central-random"
    }
}

/// A distributed daemon that includes each enabled processor independently
/// with probability `prob` (selecting one at random if the coin flips all
/// fail, to keep the step non-empty). Actions are chosen uniformly.
#[derive(Debug)]
pub struct DistributedRandom {
    prob: f64,
    rng: Option<StdRng>,
}

impl DistributedRandom {
    /// Creates the daemon.
    ///
    /// # Panics
    ///
    /// Panics if `prob` is not within `(0, 1]`.
    pub fn new(prob: f64, seed: u64) -> Self {
        assert!(prob > 0.0 && prob <= 1.0, "inclusion probability must be in (0, 1]");
        DistributedRandom { prob, rng: Some(StdRng::seed_from_u64(seed)) }
    }
}

impl<S> Daemon<S> for DistributedRandom {
    fn select(&mut self, enabled: &EnabledSet<'_, S>, out: &mut Vec<(ProcId, ActionId)>) {
        let procs = enabled.enabled_procs();
        if procs.is_empty() {
            return;
        }
        let rng = self.rng.as_mut().expect("constructed with rng");
        for &p in procs {
            if rng.random_bool(self.prob) {
                let actions = enabled.actions_of(p);
                out.push((p, actions[rng.random_range(0..actions.len())]));
            }
        }
        if out.is_empty() {
            let p = procs[rng.random_range(0..procs.len())];
            let actions = enabled.actions_of(p);
            out.push((p, actions[rng.random_range(0..actions.len())]));
        }
    }

    fn name(&self) -> &'static str {
        "distributed-random"
    }
}

/// Continuous-enablement ages, the bookkeeping of weakly fair
/// adversaries: for each processor, how many consecutive selections it
/// has been enabled at without being selected.
///
/// [`EnablementAges::advance`] costs O(|enabled|), not O(n), and never
/// allocates once sized: instead of resetting every processor that left
/// the enabled set, each processor remembers the selection it was last
/// seen enabled at, and an age older than the previous selection reads
/// as 0.
#[derive(Clone, Debug, Default)]
pub struct EnablementAges {
    /// Age of each processor as of selection `seen[p]`.
    ages: Vec<u64>,
    /// The last selection at which each processor was enabled.
    seen: Vec<u64>,
    /// Selections advanced so far.
    now: u64,
}

impl EnablementAges {
    /// Ages for an `n`-processor network, all zero.
    pub fn new(n: usize) -> Self {
        EnablementAges { ages: vec![0; n], seen: vec![0; n], now: 0 }
    }

    /// Starts a selection on an `n`-processor network whose enabled
    /// processors are `enabled`: each of them ages by one, every other
    /// processor's age drops to 0. A change of `n` restarts every age.
    pub fn advance(&mut self, n: usize, enabled: &[ProcId]) {
        if self.ages.len() != n {
            *self = EnablementAges::new(n);
        }
        self.now += 1;
        for &p in enabled {
            let i = p.index();
            self.ages[i] = if self.seen[i] + 1 == self.now { self.ages[i] + 1 } else { 1 };
            self.seen[i] = self.now;
        }
    }

    /// The age of `p` at the current selection.
    #[inline]
    pub fn age(&self, p: ProcId) -> u64 {
        if self.seen[p.index()] == self.now {
            self.ages[p.index()]
        } else {
            0
        }
    }

    /// Restarts the age of a selected processor: having moved, it is no
    /// longer continuously enabled.
    #[inline]
    pub fn selected(&mut self, p: ProcId) {
        self.ages[p.index()] = 0;
    }
}

/// A greedy adversarial (but weakly fair) central daemon.
///
/// Each step it selects the *most recently enabled* processor — i.e. it
/// starves processors that have been waiting longest, which tends to
/// stretch executions toward the paper's worst-case round bounds. Weak
/// fairness is enforced explicitly: a processor continuously enabled for
/// `fairness_bound` consecutive steps is selected unconditionally (oldest
/// first).
#[derive(Debug)]
pub struct AdversarialLifo {
    ages: EnablementAges,
    fairness_bound: u64,
    action_pick: ActionPick,
    rng: Option<StdRng>,
}

impl AdversarialLifo {
    /// Creates the adversary.
    ///
    /// `fairness_bound` is the starvation ceiling (in steps); smaller means
    /// fairer. A bound around `4 × N` lets the adversary reorder freely
    /// within phases without ever producing an unfair execution.
    ///
    /// # Panics
    ///
    /// Panics if `fairness_bound == 0`.
    pub fn new(fairness_bound: u64, seed: u64) -> Self {
        assert!(fairness_bound > 0, "fairness bound must be positive");
        AdversarialLifo {
            ages: EnablementAges::default(),
            fairness_bound,
            action_pick: ActionPick::Random,
            rng: Some(StdRng::seed_from_u64(seed)),
        }
    }

    /// Sets how the adversary resolves multi-action choices.
    pub fn with_action_pick(mut self, action_pick: ActionPick) -> Self {
        self.action_pick = action_pick;
        self
    }
}

impl<S> Daemon<S> for AdversarialLifo {
    fn select(&mut self, enabled: &EnabledSet<'_, S>, out: &mut Vec<(ProcId, ActionId)>) {
        let procs = enabled.enabled_procs();
        self.ages.advance(enabled.states().len(), procs);
        if procs.is_empty() {
            return;
        }
        // Forced selections keep the execution weakly fair.
        for &p in procs {
            if self.ages.age(p) >= self.fairness_bound {
                out.push((p, pick(enabled.actions_of(p), self.action_pick, &mut self.rng)));
            }
        }
        if out.is_empty() {
            // Youngest (most recently enabled) processor; ties broken by
            // the largest id to deviate from the natural order.
            let p = *procs
                .iter()
                .min_by_key(|p| (self.ages.age(**p), u32::MAX - p.0))
                .expect("non-empty");
            out.push((p, pick(enabled.actions_of(p), self.action_pick, &mut self.rng)));
        }
        for &(p, _) in out.iter() {
            self.ages.selected(p);
        }
    }

    fn name(&self) -> &'static str {
        "adversarial-lifo"
    }
}

/// Replays a scripted sequence of selections, then (if the script runs out)
/// falls back to the first enabled processor. For building exact
/// interleavings in tests.
///
/// Scripted entries that name a disabled processor are skipped rather than
/// reported as daemon errors, so scripts can be written loosely.
#[derive(Clone, Debug)]
pub struct FixedSchedule {
    script: std::collections::VecDeque<Vec<ProcId>>,
}

impl FixedSchedule {
    /// Creates a schedule from per-step processor groups.
    pub fn new<I, G>(script: I) -> Self
    where
        I: IntoIterator<Item = G>,
        G: IntoIterator<Item = ProcId>,
    {
        FixedSchedule {
            script: script.into_iter().map(|g| g.into_iter().collect()).collect(),
        }
    }
}

impl<S> Daemon<S> for FixedSchedule {
    fn select(&mut self, enabled: &EnabledSet<'_, S>, out: &mut Vec<(ProcId, ActionId)>) {
        let procs = enabled.enabled_procs();
        if procs.is_empty() {
            return;
        }
        if let Some(group) = self.script.pop_front() {
            for p in group {
                if !enabled.actions_of(p).is_empty() {
                    out.push((p, enabled.actions_of(p)[0]));
                }
            }
        }
        if out.is_empty() {
            out.push((procs[0], enabled.actions_of(procs[0])[0]));
        }
    }

    fn name(&self) -> &'static str {
        "fixed-schedule"
    }
}

/// The standard panel of daemons used by experiments: synchronous, central
/// round-robin, three random distributed daemons, and an adversary —
/// covering the spectrum the paper's "any weakly fair daemon" quantifies
/// over.
pub fn standard_panel<S>(n: usize, seed: u64) -> Vec<Box<dyn Daemon<S>>> {
    vec![
        Box::new(Synchronous::first_action()),
        Box::new(CentralSequential::new()),
        Box::new(CentralRandom::new(seed)),
        Box::new(DistributedRandom::new(0.5, seed.wrapping_add(1))),
        Box::new(DistributedRandom::new(0.2, seed.wrapping_add(2))),
        Box::new(AdversarialLifo::new(4 * n.max(1) as u64, seed.wrapping_add(3))),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Protocol, RunLimits, Simulator, View};
    use pif_graph::generators;

    /// Every processor decrements until zero; trivially terminating.
    struct Countdown;
    impl Protocol for Countdown {
        type State = u8;
        fn action_names(&self) -> &'static [&'static str] {
            &["dec"]
        }
        fn enabled_actions(&self, view: View<'_, u8>, out: &mut Vec<ActionId>) {
            if *view.me() > 0 {
                out.push(ActionId(0));
            }
        }
        fn execute(&self, view: View<'_, u8>, _: ActionId) -> u8 {
            *view.me() - 1
        }
    }

    fn run_with(daemon: &mut dyn Daemon<u8>) -> u64 {
        let g = generators::ring(5).unwrap();
        let mut sim = Simulator::new(g, Countdown, vec![3; 5]);
        let stats = sim
            .run(
                daemon,
                &mut crate::NoOpObserver,
                crate::StopPolicy::Fixpoint(RunLimits::default()),
            )
            .unwrap();
        assert!(sim.states().iter().all(|&s| s == 0), "{}", daemon.name());
        stats.steps
    }

    #[test]
    fn all_standard_daemons_drive_to_fixpoint() {
        for mut d in standard_panel::<u8>(5, 42) {
            run_with(d.as_mut());
        }
    }

    #[test]
    fn synchronous_takes_exactly_max_steps() {
        let mut d = Synchronous::first_action();
        assert_eq!(run_with(&mut d), 3);
    }

    #[test]
    fn central_daemons_take_sum_steps() {
        assert_eq!(run_with(&mut CentralSequential::new()), 15);
        assert_eq!(run_with(&mut CentralRandom::new(7)), 15);
    }

    #[test]
    fn distributed_random_is_deterministic_per_seed() {
        let a = run_with(&mut DistributedRandom::new(0.4, 99));
        let b = run_with(&mut DistributedRandom::new(0.4, 99));
        assert_eq!(a, b);
    }

    #[test]
    fn adversary_is_weakly_fair() {
        // The countdown protocol keeps every processor enabled until its own
        // counter hits zero; an unfair daemon would never finish.
        let steps = run_with(&mut AdversarialLifo::new(20, 3));
        assert_eq!(steps, 15);
    }

    #[test]
    #[should_panic(expected = "fairness bound")]
    fn adversary_rejects_zero_bound() {
        let _ = AdversarialLifo::new(0, 0);
    }

    #[test]
    fn fixed_schedule_follows_script_then_falls_back() {
        let g = generators::chain(3).unwrap();
        let mut sim = Simulator::new(g, Countdown, vec![1, 1, 1]);
        let mut d = FixedSchedule::new([vec![ProcId(2)], vec![ProcId(1)]]);
        sim.step(&mut d).unwrap();
        assert_eq!(sim.last_executed(), &[(ProcId(2), ActionId(0))]);
        sim.step(&mut d).unwrap();
        assert_eq!(sim.last_executed(), &[(ProcId(1), ActionId(0))]);
        // Script exhausted: falls back to first enabled.
        sim.step(&mut d).unwrap();
        assert_eq!(sim.last_executed(), &[(ProcId(0), ActionId(0))]);
    }

    #[test]
    fn central_sequential_round_robins() {
        let g = generators::ring(4).unwrap();
        let mut sim = Simulator::new(g, Countdown, vec![2; 4]);
        let mut d = CentralSequential::new();
        let order: Vec<ProcId> = (0..4)
            .map(|_| {
                sim.step(&mut d).unwrap();
                sim.last_executed()[0].0
            })
            .collect();
        assert_eq!(order, vec![ProcId(0), ProcId(1), ProcId(2), ProcId(3)]);
    }
}

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

use crate::{ActionId, ActionSet, Daemon, EnabledSet};

/// The first (lowest) action of an enabled processor's set.
fn first(actions: ActionSet) -> ActionId {
    actions.first().expect("an enabled processor has an enabled action")
}

/// A uniformly random action of an enabled processor's set.
fn random(actions: ActionSet, rng: &mut StdRng) -> ActionId {
    actions
        .nth(rng.random_range(0..actions.len()))
        .expect("an enabled processor has an enabled action")
}

/// The synchronous daemon: selects *every* enabled processor each step,
/// each running its first (lowest) enabled action.
///
/// Under this daemon each computation step closes exactly one round, so
/// measured step counts equal round counts — the most convenient instrument
/// for checking the paper's round bounds.
#[derive(Clone, Copy, Debug, Default)]
pub struct Synchronous;

impl Synchronous {
    /// The synchronous daemon.
    pub fn first_action() -> Self {
        Synchronous
    }
}

impl<S> Daemon<S> for Synchronous {
    fn select(&mut self, enabled: &EnabledSet<'_, S>, out: &mut Vec<(ProcId, ActionId)>) {
        for p in enabled.enabled_procs() {
            out.push((p, first(enabled.actions_of(p))));
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
        if enabled.is_terminal() {
            return;
        }
        // First enabled processor with id >= cursor, else wrap.
        let chosen = enabled
            .enabled_procs()
            .find(|p| p.0 >= self.cursor)
            .unwrap_or_else(|| enabled.nth_enabled(0));
        self.cursor = chosen.0 + 1;
        out.push((chosen, first(enabled.actions_of(chosen))));
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
    rng: StdRng,
}

impl CentralRandom {
    /// Creates the daemon with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        CentralRandom { rng: StdRng::seed_from_u64(seed) }
    }
}

impl<S> Daemon<S> for CentralRandom {
    fn select(&mut self, enabled: &EnabledSet<'_, S>, out: &mut Vec<(ProcId, ActionId)>) {
        if enabled.is_terminal() {
            return;
        }
        let p = enabled.nth_enabled(self.rng.random_range(0..enabled.enabled_count()));
        out.push((p, random(enabled.actions_of(p), &mut self.rng)));
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
    rng: StdRng,
}

impl DistributedRandom {
    /// Creates the daemon.
    ///
    /// # Panics
    ///
    /// Panics if `prob` is not within `(0, 1]`.
    pub fn new(prob: f64, seed: u64) -> Self {
        assert!(prob > 0.0 && prob <= 1.0, "inclusion probability must be in (0, 1]");
        DistributedRandom { prob, rng: StdRng::seed_from_u64(seed) }
    }
}

impl<S> Daemon<S> for DistributedRandom {
    fn select(&mut self, enabled: &EnabledSet<'_, S>, out: &mut Vec<(ProcId, ActionId)>) {
        if enabled.is_terminal() {
            return;
        }
        let rng = &mut self.rng;
        for p in enabled.enabled_procs() {
            if rng.random_bool(self.prob) {
                out.push((p, random(enabled.actions_of(p), rng)));
            }
        }
        if out.is_empty() {
            let p = enabled.nth_enabled(rng.random_range(0..enabled.enabled_count()));
            out.push((p, random(enabled.actions_of(p), rng)));
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
    pub fn advance(&mut self, n: usize, enabled: impl IntoIterator<Item = ProcId>) {
        if self.ages.len() != n {
            *self = EnablementAges::new(n);
        }
        self.now += 1;
        for p in enabled {
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
/// first). Each selected processor runs a uniformly random enabled action.
#[derive(Debug)]
pub struct AdversarialLifo {
    ages: EnablementAges,
    fairness_bound: u64,
    rng: StdRng,
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
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl<S> Daemon<S> for AdversarialLifo {
    fn select(&mut self, enabled: &EnabledSet<'_, S>, out: &mut Vec<(ProcId, ActionId)>) {
        self.ages.advance(enabled.states().len(), enabled.enabled_procs());
        if enabled.is_terminal() {
            return;
        }
        // Forced selections keep the execution weakly fair.
        for p in enabled.enabled_procs() {
            if self.ages.age(p) >= self.fairness_bound {
                out.push((p, random(enabled.actions_of(p), &mut self.rng)));
            }
        }
        if out.is_empty() {
            // Youngest (most recently enabled) processor; ties broken by
            // the largest id to deviate from the natural order.
            let p = enabled
                .enabled_procs()
                .min_by_key(|p| (self.ages.age(*p), u32::MAX - p.0))
                .expect("non-empty");
            out.push((p, random(enabled.actions_of(p), &mut self.rng)));
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
        if enabled.is_terminal() {
            return;
        }
        if let Some(group) = self.script.pop_front() {
            for p in group {
                if let Some(a) = enabled.actions_of(p).first() {
                    out.push((p, a));
                }
            }
        }
        if out.is_empty() {
            let p = enabled.nth_enabled(0);
            out.push((p, first(enabled.actions_of(p))));
        }
    }

    fn name(&self) -> &'static str {
        "fixed-schedule"
    }
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
        fn enabled_actions(&self, view: View<'_, u8>) -> ActionSet {
            if *view.me() > 0 { ActionSet::of(ActionId(0)) } else { ActionSet::EMPTY }
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
        // Synchronous, central round-robin and random, two random
        // distributed daemons and an adversary: the spectrum the paper's
        // "any weakly fair daemon" quantifies over.
        let panel: [Box<dyn Daemon<u8>>; 6] = [
            Box::new(Synchronous::first_action()),
            Box::new(CentralSequential::new()),
            Box::new(CentralRandom::new(42)),
            Box::new(DistributedRandom::new(0.5, 43)),
            Box::new(DistributedRandom::new(0.2, 44)),
            Box::new(AdversarialLifo::new(20, 45)),
        ];
        for mut d in panel {
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

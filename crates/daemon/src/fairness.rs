//! Post-hoc weak-fairness auditing.
//!
//! The paper's daemon is *weakly fair*: a continuously enabled processor
//! is eventually chosen. Every daemon shipped in [`crate::daemons`]
//! guarantees this by construction, but custom daemons (and the
//! adversarial ones, whose fairness relies on an explicit bound) deserve
//! independent checking. [`FairnessAuditor`] observes an execution and
//! records, for every processor, the longest streak of consecutive steps
//! in which it was continuously enabled without being selected — an
//! execution is weakly fair in practice iff those streaks stay bounded.

use pif_graph::{Graph, ProcId};

use crate::{Observer, Protocol, StepDelta, View};

/// Observer measuring continuous-enabled starvation streaks.
///
/// # Examples
///
/// ```
/// use pif_daemon::fairness::FairnessAuditor;
/// use pif_daemon::daemons::CentralSequential;
/// use pif_daemon::{ActionId, ActionSet, Protocol, RunLimits, Simulator, StopPolicy, View};
/// use pif_graph::generators;
///
/// struct Dec;
/// impl Protocol for Dec {
///     type State = u8;
///     fn action_names(&self) -> &'static [&'static str] { &["dec"] }
///     fn enabled_actions(&self, v: View<'_, u8>) -> ActionSet {
///         if *v.me() > 0 { ActionSet::of(ActionId(0)) } else { ActionSet::EMPTY }
///     }
///     fn execute(&self, v: View<'_, u8>, _: ActionId) -> u8 { *v.me() - 1 }
/// }
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = generators::ring(4)?;
/// let mut sim = Simulator::new(g, Dec, vec![3; 4]);
/// let mut audit = FairnessAuditor::new(Dec);
/// sim.run(
///     &mut CentralSequential::new(), &mut audit,
///     StopPolicy::Fixpoint(RunLimits::default()))?;
/// // Round-robin over 4 processors: nobody waits more than 4 steps.
/// assert!(audit.max_streak() <= 4);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct FairnessAuditor<P: Protocol> {
    protocol: P,
    /// Current continuous-enabled-without-execution streak per processor.
    streak: Vec<u64>,
    /// Longest streak ever observed per processor.
    max_streak: Vec<u64>,
    steps: u64,
}

impl<P: Protocol> FairnessAuditor<P> {
    /// Creates an auditor evaluating enabledness with `protocol`.
    pub fn new(protocol: P) -> Self {
        FairnessAuditor { protocol, streak: Vec::new(), max_streak: Vec::new(), steps: 0 }
    }

    /// The longest starvation streak observed for any processor.
    pub fn max_streak(&self) -> u64 {
        self.max_streak.iter().copied().max().unwrap_or(0)
    }

    /// The longest starvation streak observed for processor `p`.
    pub fn streak_of(&self, p: ProcId) -> u64 {
        self.max_streak.get(p.index()).copied().unwrap_or(0)
    }

    /// Steps audited.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Whether every streak stayed within `bound` — the execution was
    /// `bound`-fair.
    pub fn is_fair_within(&self, bound: u64) -> bool {
        self.max_streak() <= bound
    }
}

impl<P: Protocol> Observer<P> for FairnessAuditor<P> {
    // Starvation is judged against the configuration the daemon chose
    // from, so the auditor needs the complete pre-step configuration and
    // accepts the per-step copy that entails.
    fn needs_full_before(&self) -> bool {
        true
    }

    fn step(&mut self, graph: &Graph, delta: &StepDelta<'_, P>, _after: &[P::State]) {
        let before = delta.before().expect("auditor requested the full before-configuration");
        let executed = delta.executed();
        let n = graph.len();
        if self.streak.len() != n {
            self.streak = vec![0; n];
            self.max_streak = vec![0; n];
        }
        self.steps += 1;
        // A processor accrues starvation if it was enabled in the
        // configuration the daemon chose from (`before`) and was not
        // selected.
        for p in graph.procs() {
            let was_enabled = !self.protocol.enabled_actions(View::new(graph, before, p)).is_empty();
            let was_selected = executed.iter().any(|&(q, _)| q == p);
            if was_selected || !was_enabled {
                self.streak[p.index()] = 0;
            } else {
                self.streak[p.index()] += 1;
                self.max_streak[p.index()] =
                    self.max_streak[p.index()].max(self.streak[p.index()]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemons::{AdversarialLifo, CentralSequential, Synchronous};
    use crate::{ActionId, ActionSet, RunLimits, Simulator};
    use pif_graph::generators;

    struct Dec;
    impl Protocol for Dec {
        type State = u8;
        fn action_names(&self) -> &'static [&'static str] {
            &["dec"]
        }
        fn enabled_actions(&self, v: View<'_, u8>) -> ActionSet {
            if *v.me() > 0 { ActionSet::of(ActionId(0)) } else { ActionSet::EMPTY }
        }
        fn execute(&self, v: View<'_, u8>, _: ActionId) -> u8 {
            *v.me() - 1
        }
    }

    fn audit(daemon: &mut dyn crate::Daemon<u8>) -> FairnessAuditor<Dec> {
        let g = generators::ring(5).unwrap();
        let mut sim = Simulator::new(g, Dec, vec![4; 5]);
        let mut auditor = FairnessAuditor::new(Dec);
        sim.run(daemon, &mut auditor, crate::StopPolicy::Fixpoint(RunLimits::default()))
            .unwrap();
        auditor
    }

    #[test]
    fn synchronous_daemon_never_starves() {
        let a = audit(&mut Synchronous::first_action());
        assert_eq!(a.max_streak(), 0);
    }

    #[test]
    fn round_robin_starves_at_most_n_minus_1() {
        let a = audit(&mut CentralSequential::new());
        assert!(a.max_streak() <= 4, "streak {}", a.max_streak());
        assert!(a.max_streak() > 0, "a central daemon necessarily delays someone");
    }

    #[test]
    fn adversary_respects_its_fairness_bound() {
        let bound = 12;
        let a = audit(&mut AdversarialLifo::new(bound, 3));
        assert!(
            a.is_fair_within(bound),
            "adversary exceeded its own bound: {}",
            a.max_streak()
        );
    }
}

//! Execution traces: step-by-step recording of a simulation for debugging,
//! invariant monitoring, and the proof-apparatus checks in `pif-core`.

use pif_graph::{Graph, ProcId};

use crate::{ActionId, Observer, Protocol, StepDelta};

/// One recorded computation step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceStep {
    /// Zero-based step index.
    pub step: u64,
    /// The `(processor, action)` pairs that executed.
    pub executed: Vec<(ProcId, ActionId)>,
}

/// A recorder of executed steps and (optionally) full configurations.
///
/// Use it as an [`Observer`] with
/// [`Simulator::step_observed`](crate::Simulator::step_observed) or
/// [`Simulator::run`](crate::Simulator::run).
/// Recording full configurations is memory-hungry (`O(steps × N)`); enable
/// it only for focused debugging via [`Trace::with_configurations`].
///
/// # Examples
///
/// ```
/// use pif_daemon::trace::Trace;
/// use pif_daemon::{ActionId, ActionSet, Protocol, RunLimits, Simulator, StopPolicy, View};
/// use pif_daemon::daemons::Synchronous;
/// use pif_graph::generators;
///
/// struct Zeroing;
/// impl Protocol for Zeroing {
///     type State = u8;
///     fn action_names(&self) -> &'static [&'static str] { &["zero"] }
///     fn enabled_actions(&self, v: View<'_, u8>) -> ActionSet {
///         if *v.me() != 0 { ActionSet::of(ActionId(0)) } else { ActionSet::EMPTY }
///     }
///     fn execute(&self, _: View<'_, u8>, _: ActionId) -> u8 { 0 }
/// }
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = generators::chain(3)?;
/// let mut sim = Simulator::new(g, Zeroing, vec![1, 0, 2]);
/// let mut trace = Trace::<Zeroing>::new();
/// sim.run(
///     &mut Synchronous::first_action(), &mut trace,
///     StopPolicy::Fixpoint(RunLimits::default()))?;
/// assert_eq!(trace.len(), 1); // both processors moved in one step
/// assert_eq!(trace.steps()[0].executed.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Trace<P: Protocol> {
    steps: Vec<TraceStep>,
    configurations: Option<Vec<Vec<P::State>>>,
    next_index: u64,
}

impl<P: Protocol> Trace<P> {
    /// A trace recording executed actions only.
    pub fn new() -> Self {
        Trace { steps: Vec::new(), configurations: None, next_index: 0 }
    }

    /// A trace additionally recording the full configuration after every
    /// step.
    pub fn with_configurations() -> Self {
        Trace { steps: Vec::new(), configurations: Some(Vec::new()), next_index: 0 }
    }

    /// Recorded steps, oldest first.
    pub fn steps(&self) -> &[TraceStep] {
        &self.steps
    }

    /// Recorded configurations (present only for
    /// [`Trace::with_configurations`]); `configurations()[i]` is the
    /// configuration *after* `steps()[i]`.
    pub fn configurations(&self) -> Option<&[Vec<P::State>]> {
        self.configurations.as_deref()
    }

    /// Number of recorded steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Total number of individual action executions across all steps.
    pub fn action_count(&self) -> usize {
        self.steps.iter().map(|s| s.executed.len()).sum()
    }

    /// How many times processor `p` executed action `a`.
    pub fn count_of(&self, p: ProcId, a: ActionId) -> usize {
        self.steps
            .iter()
            .flat_map(|s| s.executed.iter())
            .filter(|&&(q, b)| q == p && b == a)
            .count()
    }

    /// Renders the trace as a human-readable action log using the
    /// protocol's action names.
    pub fn render(&self, protocol: &P) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for s in &self.steps {
            let _ = write!(out, "step {:>5}:", s.step);
            for &(p, a) in &s.executed {
                let _ = write!(out, " {}:{}", p, protocol.action_name(a));
            }
            out.push('\n');
        }
        out
    }
}

impl<P: Protocol> Default for Trace<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: Protocol> Observer<P> for Trace<P> {
    fn step(&mut self, _graph: &Graph, delta: &StepDelta<'_, P>, after: &[P::State]) {
        self.steps.push(TraceStep { step: self.next_index, executed: delta.executed().to_vec() });
        self.next_index += 1;
        if let Some(cfgs) = &mut self.configurations {
            cfgs.push(after.to_vec());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemons::CentralSequential;
    use crate::{ActionSet, RunLimits, Simulator, View};
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

    fn traced_run(with_configs: bool) -> (Trace<Dec>, Simulator<Dec>) {
        let g = generators::chain(3).unwrap();
        let mut sim = Simulator::new(g, Dec, vec![2, 0, 1]);
        let mut trace = if with_configs { Trace::with_configurations() } else { Trace::new() };
        sim.run(
            &mut CentralSequential::new(),
            &mut trace,
            crate::StopPolicy::Fixpoint(RunLimits::default()),
        )
        .unwrap();
        (trace, sim)
    }

    #[test]
    fn trace_records_every_action() {
        let (trace, _) = traced_run(false);
        assert_eq!(trace.action_count(), 3);
        assert_eq!(trace.count_of(ProcId(0), ActionId(0)), 2);
        assert_eq!(trace.count_of(ProcId(2), ActionId(0)), 1);
        assert!(trace.configurations().is_none());
    }

    #[test]
    fn configurations_align_with_steps() {
        let (trace, sim) = traced_run(true);
        let cfgs = trace.configurations().unwrap();
        assert_eq!(cfgs.len(), trace.len());
        assert_eq!(cfgs.last().unwrap().as_slice(), sim.states());
    }

    #[test]
    fn render_uses_action_names() {
        let (trace, _) = traced_run(false);
        let rendered = trace.render(&Dec);
        assert!(rendered.contains("dec"));
        assert!(rendered.contains("p0"));
    }

    #[test]
    fn empty_trace() {
        let t = Trace::<Dec>::default();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }
}

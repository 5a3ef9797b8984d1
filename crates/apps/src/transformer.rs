//! The *universal transformer* sketched in the paper's conclusion: use the
//! snap-stabilizing PIF to give a snap-stabilizing guarantee to a whole
//! class of request/response protocols.
//!
//! A *global computation* asks: evaluate a function of distributed inputs
//! and make the result known. The transformer executes one request as two
//! chained PIF waves:
//!
//! 1. **query wave** — broadcast the request; the feedback phase folds the
//!    per-processor inputs into the global result at the root;
//! 2. **result wave** — broadcast the computed result; the feedback phase
//!    collects the acknowledgment that every processor installed it.
//!
//! Because each wave is snap-stabilizing, the *first* request issued after
//! an arbitrary transient fault is already answered correctly and
//! consistently installed — the transformed protocol is snap-stabilizing
//! by construction. (The paper cites its companion technical report \[13\]
//! for the general construction; this module implements the two-wave
//! instance sufficient for global function evaluation.)

use std::fmt;

use pif_core::wave::{Aggregate, CycleOutcome, UnitAggregate, WaveRunner};
use pif_core::{PifProtocol, PifState};
use pif_daemon::{Daemon, RunLimits, SimError};
use pif_graph::{Graph, ProcId};

/// A distributed function the transformer can evaluate: per-processor
/// inputs plus an associative, commutative fold.
pub trait GlobalFunction {
    /// The input each processor holds.
    type Input: Clone + fmt::Debug;
    /// The result type.
    type Output: Clone + PartialEq + fmt::Debug;

    /// Reads processor `p`'s current input.
    fn input(&self, p: ProcId) -> Self::Input;

    /// Lifts one input into a partial result.
    fn lift(&self, input: Self::Input) -> Self::Output;

    /// Folds two partial results.
    fn combine(&self, a: Self::Output, b: Self::Output) -> Self::Output;
}

/// Adapter exposing a [`GlobalFunction`] as a wave [`Aggregate`].
struct FnAggregate<F: GlobalFunction> {
    f: F,
}

impl<F: GlobalFunction> Aggregate for FnAggregate<F> {
    type Value = F::Output;
    fn contribution(&self, p: ProcId) -> F::Output {
        self.f.lift(self.f.input(p))
    }
    fn fold(&self, a: F::Output, b: F::Output) -> F::Output {
        self.f.combine(a, b)
    }
}

/// The outcome of one transformed request.
#[derive(Clone, Debug)]
pub struct RequestOutcome<O> {
    /// The computed global result.
    pub result: O,
    /// Per-processor flags: the result wave reached everyone.
    pub installed: Vec<bool>,
    /// Rounds of the query wave.
    pub query_rounds: u64,
    /// Rounds of the result wave.
    pub result_rounds: u64,
}

/// Error from a transformed request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransformError {
    /// The query wave did not complete.
    QueryIncomplete,
    /// The result wave did not complete.
    ResultIncomplete,
    /// The underlying simulator reported an error.
    Sim(SimError),
}

impl fmt::Display for TransformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransformError::QueryIncomplete => write!(f, "query wave did not complete"),
            TransformError::ResultIncomplete => write!(f, "result wave did not complete"),
            TransformError::Sim(e) => write!(f, "transformer simulation failed: {e}"),
        }
    }
}

impl std::error::Error for TransformError {}

impl From<SimError> for TransformError {
    fn from(e: SimError) -> Self {
        TransformError::Sim(e)
    }
}

/// The universal transformer service: a snap-stabilizing request/response
/// engine over one network.
///
/// # Examples
///
/// ```
/// use pif_apps::transformer::{GlobalFunction, Transformer};
/// use pif_daemon::daemons::Synchronous;
/// use pif_graph::{generators, ProcId};
///
/// struct Average(Vec<i64>);
/// impl GlobalFunction for Average {
///     type Input = i64;
///     type Output = (i64, u64); // (sum, count)
///     fn input(&self, p: ProcId) -> i64 { self.0[p.index()] }
///     fn lift(&self, x: i64) -> (i64, u64) { (x, 1) }
///     fn combine(&self, a: (i64, u64), b: (i64, u64)) -> (i64, u64) {
///         (a.0 + b.0, a.1 + b.1)
///     }
/// }
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = generators::ring(5)?;
/// let mut t = Transformer::new(g, ProcId(0), Average(vec![10, 20, 30, 40, 50]));
/// let out = t.request(&mut Synchronous::first_action())?;
/// assert_eq!(out.result, (150, 5));
/// assert!(out.installed.iter().all(|&i| i));
/// # Ok(())
/// # }
/// ```
pub struct Transformer<F: GlobalFunction> {
    query_runner: WaveRunner<u64, FnAggregate<F>>,
    result_runner: WaveRunner<ResultMsg<F::Output>, UnitAggregate>,
    request_id: u64,
    limits: RunLimits,
}

impl<F: GlobalFunction + fmt::Debug> fmt::Debug for Transformer<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Transformer").field("request_id", &self.request_id).finish_non_exhaustive()
    }
}

/// The result-wave payload: the request id plus the computed value.
#[derive(Clone, PartialEq, Debug)]
struct ResultMsg<O> {
    request: u64,
    value: O,
}

impl<F: GlobalFunction> Transformer<F> {
    /// Creates the service with a clean protocol substrate.
    pub fn new(graph: Graph, root: ProcId, function: F) -> Self {
        let protocol = PifProtocol::new(root, &graph);
        let query_runner =
            WaveRunner::new(graph.clone(), protocol.clone(), FnAggregate { f: function });
        let result_runner = WaveRunner::new(graph, protocol, UnitAggregate);
        Transformer { query_runner, result_runner, request_id: 0, limits: RunLimits::default() }
    }

    /// Creates the service with an arbitrary (corrupted) protocol
    /// configuration — the transient-fault scenario. Both waves run over
    /// the same corrupted register state.
    pub fn with_states(graph: Graph, root: ProcId, function: F, states: Vec<PifState>) -> Self {
        let protocol = PifProtocol::new(root, &graph);
        let query_runner = WaveRunner::with_states(
            graph.clone(),
            protocol.clone(),
            FnAggregate { f: function },
            states.clone(),
        );
        let result_runner = WaveRunner::with_states(graph, protocol, UnitAggregate, states);
        Transformer { query_runner, result_runner, request_id: 0, limits: RunLimits::default() }
    }

    /// Executes one request: query wave, fold, result wave.
    ///
    /// # Errors
    ///
    /// [`TransformError`] if either wave fails to complete within budget.
    pub fn request(
        &mut self,
        daemon: &mut dyn Daemon<PifState>,
    ) -> Result<RequestOutcome<F::Output>, TransformError> {
        self.request_id += 1;
        let query: CycleOutcome<F::Output> =
            self.query_runner.run_cycle_limited(self.request_id, daemon, self.limits)?;
        let result = match query.feedback {
            Some(v) if query.satisfies_spec() => v,
            _ => return Err(TransformError::QueryIncomplete),
        };
        let msg = ResultMsg { request: self.request_id, value: result.clone() };
        let install = self.result_runner.run_cycle_limited(msg, daemon, self.limits)?;
        if !install.satisfies_spec() {
            return Err(TransformError::ResultIncomplete);
        }
        Ok(RequestOutcome {
            result,
            installed: install.received,
            query_rounds: query.cycle_rounds,
            result_rounds: install.cycle_rounds,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pif_core::initial;
    use pif_daemon::daemons::{CentralRandom, Synchronous};
    use pif_graph::generators;

    #[derive(Debug)]
    struct MaxFn(Vec<u32>);
    impl GlobalFunction for MaxFn {
        type Input = u32;
        type Output = u32;
        fn input(&self, p: ProcId) -> u32 {
            self.0[p.index()]
        }
        fn lift(&self, x: u32) -> u32 {
            x
        }
        fn combine(&self, a: u32, b: u32) -> u32 {
            a.max(b)
        }
    }

    #[test]
    fn request_computes_and_installs() {
        let g = generators::grid(3, 3).unwrap();
        let inputs: Vec<u32> = (0..9).map(|i| (i * 31) % 17).collect();
        let expected = *inputs.iter().max().unwrap();
        let mut t = Transformer::new(g, ProcId(0), MaxFn(inputs));
        let out = t.request(&mut Synchronous::first_action()).unwrap();
        assert_eq!(out.result, expected);
        assert!(out.installed.iter().all(|&i| i));
        assert!(out.query_rounds > 0 && out.result_rounds > 0);
    }

    #[test]
    fn consecutive_requests_have_fresh_ids() {
        let g = generators::ring(5).unwrap();
        let mut t = Transformer::new(g, ProcId(0), MaxFn(vec![1, 2, 3, 4, 5]));
        let mut d = Synchronous::first_action();
        for _ in 0..3 {
            let out = t.request(&mut d).unwrap();
            assert_eq!(out.result, 5);
        }
    }

    #[test]
    fn first_request_after_corruption_is_correct() {
        // The snap-by-construction claim: both waves survive an arbitrary
        // initial protocol configuration, so the FIRST answer is right.
        let g = generators::lollipop(4, 5).unwrap();
        let proto = PifProtocol::new(ProcId(0), &g);
        for seed in 0..10 {
            let corrupted = initial::adversarial_config(&g, &proto, ProcId(5), seed);
            let inputs: Vec<u32> = (0..9).map(|i| i + seed as u32).collect();
            let expected = *inputs.iter().max().unwrap();
            let mut t =
                Transformer::with_states(g.clone(), ProcId(0), MaxFn(inputs), corrupted);
            let out = t.request(&mut CentralRandom::new(seed)).unwrap();
            assert_eq!(out.result, expected, "seed {seed}");
            assert!(out.installed.iter().all(|&i| i), "seed {seed}");
        }
    }
}

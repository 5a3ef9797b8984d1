//! Distributed infimum computation: fold an associative, commutative
//! operation over one value per processor, in a single PIF wave.
//!
//! This is the paper's "distributed infimum function computations" use
//! case. The feedback phase of the wave performs the fold along the
//! dynamically built spanning tree; the root obtains the global result
//! when its `F-action` fires.

use pif_core::wave::{Aggregate, MinAggregate, SumAggregate, WaveRunner};
use pif_core::PifProtocol;
use pif_daemon::{Daemon, RunLimits, SimError};
use pif_graph::{Graph, ProcId};

use pif_core::PifState;

/// A commutative monoid fold over per-processor values, for
/// [`compute_with`].
#[derive(Clone)]
pub struct MonoidAggregate<V: Clone + std::fmt::Debug> {
    values: Vec<V>,
    fold: fn(V, V) -> V,
}

impl<V: Clone + std::fmt::Debug> std::fmt::Debug for MonoidAggregate<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MonoidAggregate").field("values", &self.values).finish_non_exhaustive()
    }
}

impl<V: Clone + std::fmt::Debug> MonoidAggregate<V> {
    /// One value per processor plus the fold operation.
    pub fn new(values: Vec<V>, fold: fn(V, V) -> V) -> Self {
        MonoidAggregate { values, fold }
    }
}

impl<V: Clone + std::fmt::Debug> Aggregate for MonoidAggregate<V> {
    type Value = V;
    fn contribution(&self, p: ProcId) -> V {
        self.values[p.index()].clone()
    }
    fn fold(&self, a: V, b: V) -> V {
        (self.fold)(a, b)
    }
}

/// Error from an infimum computation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InfimumError {
    /// The wave did not complete within the budget.
    Incomplete,
    /// The underlying simulator reported an error.
    Sim(SimError),
}

impl std::fmt::Display for InfimumError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InfimumError::Incomplete => write!(f, "infimum wave did not complete"),
            InfimumError::Sim(e) => write!(f, "infimum simulation failed: {e}"),
        }
    }
}

impl std::error::Error for InfimumError {}

impl From<SimError> for InfimumError {
    fn from(e: SimError) -> Self {
        InfimumError::Sim(e)
    }
}

fn run_aggregate<A: Aggregate>(
    graph: Graph,
    root: ProcId,
    aggregate: A,
    daemon: &mut dyn Daemon<PifState>,
) -> Result<A::Value, InfimumError> {
    let protocol = PifProtocol::new(root, &graph);
    let mut runner = WaveRunner::new(graph, protocol, aggregate);
    let outcome = runner.run_cycle_limited(1u8, daemon, RunLimits::default())?;
    match outcome.feedback {
        Some(v) if outcome.satisfies_spec() => Ok(v),
        _ => Err(InfimumError::Incomplete),
    }
}

/// Computes the global minimum of one `i64` per processor.
///
/// # Errors
///
/// [`InfimumError`] if the wave fails to complete.
///
/// # Panics
///
/// Panics if `values.len() != graph.len()`.
pub fn global_min(
    graph: Graph,
    root: ProcId,
    values: Vec<i64>,
    daemon: &mut dyn Daemon<PifState>,
) -> Result<i64, InfimumError> {
    assert_eq!(graph.len(), values.len(), "one value per processor");
    run_aggregate(graph, root, MinAggregate::new(values), daemon)
}

/// Computes the global sum of one `i64` per processor.
///
/// # Errors
///
/// [`InfimumError`] if the wave fails to complete.
///
/// # Panics
///
/// Panics if `values.len() != graph.len()`.
pub fn global_sum(
    graph: Graph,
    root: ProcId,
    values: Vec<i64>,
    daemon: &mut dyn Daemon<PifState>,
) -> Result<i64, InfimumError> {
    assert_eq!(graph.len(), values.len(), "one value per processor");
    run_aggregate(graph, root, SumAggregate::new(values), daemon)
}

/// Folds an arbitrary commutative monoid over one value per processor.
///
/// # Errors
///
/// [`InfimumError`] if the wave fails to complete.
///
/// # Panics
///
/// Panics if `values.len() != graph.len()`.
pub fn compute_with<V: Clone + std::fmt::Debug>(
    graph: Graph,
    root: ProcId,
    values: Vec<V>,
    fold: fn(V, V) -> V,
    daemon: &mut dyn Daemon<PifState>,
) -> Result<V, InfimumError> {
    assert_eq!(graph.len(), values.len(), "one value per processor");
    run_aggregate(graph, root, MonoidAggregate::new(values, fold), daemon)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pif_daemon::daemons::{CentralRandom, Synchronous};
    use pif_graph::generators;

    #[test]
    fn min_and_sum_match_reference() {
        let g = generators::hypercube(4).unwrap();
        let values: Vec<i64> = (0..16).map(|i| (i * 37 % 23) - 11).collect();
        let min = global_min(g.clone(), ProcId(0), values.clone(), &mut Synchronous::first_action())
            .unwrap();
        assert_eq!(min, *values.iter().min().unwrap());
        let sum =
            global_sum(g, ProcId(0), values.clone(), &mut Synchronous::first_action()).unwrap();
        assert_eq!(sum, values.iter().sum::<i64>());
    }

    #[test]
    fn custom_monoid_gcd() {
        fn gcd(a: u64, b: u64) -> u64 {
            if b == 0 {
                a
            } else {
                gcd(b, a % b)
            }
        }
        let g = generators::ring(6).unwrap();
        let values = vec![12u64, 18, 24, 30, 42, 6];
        let result =
            compute_with(g, ProcId(0), values, gcd, &mut CentralRandom::new(3)).unwrap();
        assert_eq!(result, 6);
    }

    #[test]
    fn result_is_root_independent() {
        let g = generators::random_connected(9, 0.3, 21).unwrap();
        let values: Vec<i64> = (0..9).map(|i| 100 - i * 13).collect();
        let expected = *values.iter().min().unwrap();
        for root in 0..9 {
            let r = global_min(
                g.clone(),
                ProcId(root),
                values.clone(),
                &mut Synchronous::first_action(),
            )
            .unwrap();
            assert_eq!(r, expected, "root {root}");
        }
    }
}

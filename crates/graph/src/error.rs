use std::error::Error;
use std::fmt;

use crate::ProcId;

/// Error produced while constructing or validating a network topology.
///
/// All topology constructors in this crate validate their input eagerly: the
/// simulation model assumes a connected graph of at least one processor with
/// bidirectional, loop-free links, so violations are reported here rather
/// than surfacing as undefined behaviour deep inside a simulation.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum GraphError {
    /// The requested graph would have no processors at all.
    Empty,
    /// An edge endpoint refers to a processor outside `0..n`.
    NodeOutOfRange {
        /// The offending endpoint.
        node: ProcId,
        /// Number of processors in the graph under construction.
        n: usize,
    },
    /// A self-loop `(p, p)` was supplied; the communication model has no
    /// loops (a processor always reads its own registers directly).
    SelfLoop {
        /// The processor with the self-loop.
        node: ProcId,
    },
    /// The resulting graph is not connected; the PIF specification requires
    /// every processor to be reachable from the root.
    Disconnected {
        /// A processor unreachable from processor `0`.
        witness: ProcId,
    },
    /// A generator received parameters that do not describe a valid instance
    /// of its family (for example a grid with a zero dimension).
    InvalidParameter {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// A topology spec describes more processors or links than the
    /// generators build (`generators::MAX_NODES`, `generators::MAX_EDGES`);
    /// reported before anything is allocated.
    TooLarge {
        /// The processors it describes (`None` if the count overflows).
        nodes: Option<usize>,
        /// The links it describes, or for `random` its pair draws (`None`
        /// if the count overflows).
        edges: Option<usize>,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Empty => write!(f, "graph must contain at least one processor"),
            GraphError::NodeOutOfRange { node, n } => {
                write!(f, "edge endpoint {node} out of range for {n} processors")
            }
            GraphError::SelfLoop { node } => write!(f, "self-loop at {node} is not allowed"),
            GraphError::Disconnected { witness } => {
                write!(f, "graph is disconnected: {witness} unreachable from p0")
            }
            GraphError::InvalidParameter { reason } => {
                write!(f, "invalid generator parameter: {reason}")
            }
            GraphError::TooLarge { nodes, edges } => {
                let count = |c: &Option<usize>| c.map_or("overflowing".into(), |c| c.to_string());
                write!(
                    f,
                    "topology too large: {} processors and {} links, limits {} and {}",
                    count(nodes),
                    count(edges),
                    crate::generators::MAX_NODES,
                    crate::generators::MAX_EDGES
                )
            }
        }
    }
}

impl Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let errs: Vec<GraphError> = vec![
            GraphError::Empty,
            GraphError::NodeOutOfRange { node: ProcId(9), n: 4 },
            GraphError::SelfLoop { node: ProcId(2) },
            GraphError::Disconnected { witness: ProcId(3) },
            GraphError::InvalidParameter { reason: "grid side must be positive".into() },
            GraphError::TooLarge { nodes: Some(1_000_000), edges: None },
        ];
        for e in errs {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase() || msg.starts_with("edge"));
            assert!(!msg.ends_with('.'));
        }
    }

    #[test]
    fn error_trait_is_implemented() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<GraphError>();
    }
}

//! Typed errors for the bench command-line tools.
//!
//! The experiment binaries historically aborted with `expect`; the
//! `pif-trace` tool instead reports every failure as a [`BenchError`], so
//! callers (and the tier-2 gate script) get a stable exit status and a
//! message that names the failing layer.

use std::fmt;

use pif_core::NetworkTooLarge;
use pif_daemon::{SimError, TraceError};
use pif_graph::GraphError;

/// Any error a bench CLI run can surface.
#[derive(Debug)]
#[non_exhaustive]
pub enum BenchError {
    /// The command line itself is malformed (unknown subcommand, missing
    /// operand, unparsable number, unknown daemon name).
    Usage(String),
    /// A topology spec failed to parse or build.
    Graph(GraphError),
    /// The network has more processors than the protocol admits.
    NetworkTooLarge(NetworkTooLarge),
    /// The simulator rejected the run (budget exhausted, invalid
    /// selection).
    Sim(SimError),
    /// Recording, parsing or replaying a trace failed.
    Trace(TraceError),
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Usage(msg) => write!(f, "usage error: {msg}"),
            BenchError::Graph(e) => write!(f, "graph error: {e}"),
            BenchError::NetworkTooLarge(e) => write!(f, "{e}"),
            BenchError::Sim(e) => write!(f, "simulation error: {e}"),
            BenchError::Trace(e) => write!(f, "trace error: {e}"),
        }
    }
}

impl std::error::Error for BenchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BenchError::Usage(_) => None,
            BenchError::Graph(e) => Some(e),
            BenchError::NetworkTooLarge(e) => Some(e),
            BenchError::Sim(e) => Some(e),
            BenchError::Trace(e) => Some(e),
        }
    }
}

impl From<GraphError> for BenchError {
    fn from(e: GraphError) -> Self {
        BenchError::Graph(e)
    }
}

impl From<SimError> for BenchError {
    fn from(e: SimError) -> Self {
        BenchError::Sim(e)
    }
}

impl From<TraceError> for BenchError {
    fn from(e: TraceError) -> Self {
        BenchError::Trace(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_name_the_failing_layer() {
        let e = BenchError::Usage("missing trace path".into());
        assert!(e.to_string().contains("usage error"));
        let e: BenchError = TraceError::UnsupportedVersion { found: 99 }.into();
        assert!(e.to_string().contains("trace error"));
        assert!(std::error::Error::source(&e).is_some());
    }
}

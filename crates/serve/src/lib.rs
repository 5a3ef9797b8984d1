//! # pif-serve — a long-lived PIF wave service
//!
//! Definition 2 of the paper is a request/response contract: the root
//! broadcasts a message `m`, every processor receives it (\[PIF1\]), and
//! the root collects an acknowledgment from every processor (\[PIF2\]).
//! Snap-stabilization (Definition 1) extends that contract to *streams* of
//! requests under corruption: every cycle **initiated after** a transient
//! fault is correct, with zero stabilization time. This crate turns the
//! one-shot wave machinery of `pif-core` into exactly that serving layer:
//!
//! * [`WaveService`] accepts a stream of broadcast requests (payload +
//!   initiator + aggregate kind) and multiplexes them over per-initiator
//!   PIF instances — one register set per initiator, as the paper
//!   prescribes for concurrent initiators, each instance carrying a
//!   [`pif_core::wave::WaveOverlay`]; a shard interleaves its lanes one
//!   seeded step at a time;
//! * back-to-back cycles are **pipelined through the cleaning phase**: the
//!   next request is armed the moment the root's `F-action` closes the
//!   previous cycle, so the root re-broadcasts as soon as its *own*
//!   cleaning is done, while distant processors may still be cleaning —
//!   the protocol is built for exactly this overlap, and no per-request
//!   state reconstruction ever happens;
//! * initiators are deterministically assigned to **shards** (ordered by
//!   a seeded splitmix key, dealt round-robin so the load stays
//!   balanced), each shard owning a full topology replica; a run puts
//!   the idle shards and the first busy one on the calling thread and
//!   each further busy shard on its own scoped thread
//!   ([`pif_par::fan_out`]); shards share nothing, so the served
//!   outcomes are bit-identical whichever thread runs a shard;
//! * per-initiator request queues are **bounded**, with an explicit
//!   [`ShedPolicy`] and typed [`ServeError`]s for overload;
//! * every request is scored in a [`ledger::DeliveryLedger`] that records
//!   the \[PIF1\]/\[PIF2\] verdicts per request, and **fault hooks** run
//!   register-corruption campaigns mid-flight
//!   ([`pif_daemon::Simulator::corrupt_many`]) so the ledger can assert
//!   the operational snap-stabilization claim: every request initiated
//!   after the fault completes correctly, while requests in flight *at*
//!   the fault are counted separately as casualties.
//!
//! ## Quick example
//!
//! ```
//! use pif_serve::{AggregateKind, Request, ServeConfig, WaveService};
//! use pif_graph::{ProcId, Topology};
//!
//! # fn main() -> Result<(), pif_serve::ServeError> {
//! let config = ServeConfig::new(Topology::Torus { w: 3, h: 3 })
//!     .initiators(vec![ProcId(0), ProcId(4)])
//!     .shards(2)
//!     .seed(7);
//! let mut service = WaveService::new(config)?;
//! for i in 0..10u64 {
//!     let to = ProcId(if i % 2 == 0 { 0 } else { 4 });
//!     service.submit(Request::new(to, i, AggregateKind::Ack))?;
//! }
//! service.run()?;
//! let summary = service.ledger().summary();
//! assert_eq!(summary.completed_ok, 10);
//! assert!(summary.is_clean());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use pif_daemon::json::EnvelopeError;
use pif_daemon::SimError;
use pif_graph::{GraphError, ProcId};
use pif_net::NetError;

pub mod ledger;
mod lane;
mod record_log;
pub mod report;
pub mod request;
pub mod service;
mod shard;

pub use ledger::{DeliveryLedger, LedgerSummary, RequestOutcome, RequestRecord, ShedCause};
pub use report::ServiceReport;
pub use request::{AggregateKind, KindAggregate, Request, RequestId};
pub use pif_soa::Engine;
pub use service::{
    run_scenario, run_scenario_net, run_scenario_on, spread_initiators, FaultSpec, NetLaneConfig,
    Scenario,
    ServeConfig, ServeDaemon, ShedPolicy, WaveService,
};

/// Errors of the serving layer.
#[derive(Debug)]
pub enum ServeError {
    /// The configuration listed no initiators.
    NoInitiators,
    /// An initiator appeared twice in the configuration.
    DuplicateInitiator {
        /// The repeated initiator.
        initiator: ProcId,
    },
    /// A request named a processor that is not a configured initiator.
    UnknownInitiator {
        /// The unconfigured processor.
        initiator: ProcId,
    },
    /// A submission hit a full per-initiator queue under
    /// [`ShedPolicy::Reject`] — the caller's backpressure signal.
    QueueFull {
        /// The overloaded initiator.
        initiator: ProcId,
        /// The configured queue bound.
        capacity: usize,
    },
    /// The configured topology failed to build.
    Graph(GraphError),
    /// The topology has more processors than the protocol's level
    /// register can span (`L_max ≥ N − 1` must fit 16 bits).
    NetworkTooLarge {
        /// Processors in the configured topology.
        procs: usize,
        /// The largest admitted network,
        /// [`pif_core::PifProtocol::MAX_PROCS`].
        max: usize,
    },
    /// A simulator error surfaced from a shard worker.
    Sim(SimError),
    /// A net-transport configuration or run error (lossy lane engine).
    Net(NetError),
    /// The operational snap-stabilization claim failed: a request whose
    /// wave was initiated after the last fault did not complete correctly.
    SnapViolation {
        /// The offending request.
        request: RequestId,
        /// Its initiator.
        initiator: ProcId,
    },
    /// A service benchmark report failed to parse or replay (CLI `check`).
    Report(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::NoInitiators => write!(f, "at least one initiator is required"),
            ServeError::DuplicateInitiator { initiator } => {
                write!(f, "duplicate initiator {initiator}")
            }
            ServeError::UnknownInitiator { initiator } => {
                write!(f, "processor {initiator} is not a configured initiator")
            }
            ServeError::QueueFull { initiator, capacity } => {
                write!(f, "queue for initiator {initiator} is full (capacity {capacity})")
            }
            ServeError::Graph(e) => write!(f, "topology error: {e}"),
            ServeError::NetworkTooLarge { procs, max } => write!(
                f,
                "topology has {procs} processors; L_max >= N - 1 must fit the 16-bit level \
                 register, so at most {max} are admitted"
            ),
            ServeError::Sim(e) => write!(f, "simulator error: {e}"),
            ServeError::Net(e) => write!(f, "net transport error: {e}"),
            ServeError::SnapViolation { request, initiator } => write!(
                f,
                "snap violation: request {} at initiator {initiator} was initiated after the \
                 fault but did not complete correctly",
                request.0
            ),
            ServeError::Report(msg) => write!(f, "report error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<GraphError> for ServeError {
    fn from(e: GraphError) -> Self {
        ServeError::Graph(e)
    }
}

impl From<SimError> for ServeError {
    fn from(e: SimError) -> Self {
        ServeError::Sim(e)
    }
}

impl From<NetError> for ServeError {
    fn from(e: NetError) -> Self {
        ServeError::Net(e)
    }
}

impl From<EnvelopeError> for ServeError {
    fn from(e: EnvelopeError) -> Self {
        ServeError::Report(e.to_string())
    }
}

//! Structure-of-arrays configuration backend for the snap-stabilizing PIF
//! protocol.
//!
//! The generic simulator (`pif_daemon::Simulator`) stores a configuration
//! as an array of [`pif_core::PifState`] structs and evaluates guards with
//! one neighbor scan over those structs per processor. This crate
//! transposes the configuration into packed register planes
//! ([`SoaConfig`]: `B`/`F` membership and `Fok` as 64-processor bitset
//! words; `Par`/`L`/`Count` flat), evaluates all seven guards of a
//! processor in a *single* neighbor scan that reads one tag byte per
//! neighbor ([`GuardKernel::mask`] returns a 7-bit action mask), and settles
//! whole-network recomputation with word algebra over the planes wherever
//! the protocol structure allows (a clean non-root processor can only
//! enable the B-action, and its guard is plane arithmetic).
//!
//! Two entry points, by generality:
//!
//! * [`SoaSimulator`] — `pif_daemon::Simulator<PifProtocol, Packed>`:
//!   the generic simulator's one step loop over the [`Packed`] register
//!   store, so daemons, observers, round accounting, validation and the
//!   synchronous fast path `step_sync` are the generic engine's own code.
//!   The differential property tests pin that [`Packed`]'s guards and
//!   actions equal [`pif_core::PifProtocol`]'s.
//! * [`EngineSim`] — enum dispatch over both stores behind one API,
//!   selected by [`Engine`]`::{Aos, Soa}`.
//!
//! # Topology changes (the churn contract)
//!
//! The packed planes are sized and word-laid-out for one fixed graph: a
//! simulator never survives a topology change. When the chaos layer
//! (`pif-chaos`, DESIGN §18) reconfigures the network it snapshots the
//! surviving subgraph, remaps the carried register state onto compact
//! ids, and constructs a *fresh* [`SoaSimulator`]/[`EngineSim`] over the
//! new graph — plane coherence is guaranteed by reconstruction, not by
//! in-place surgery. Carried state is just an arbitrary initial
//! configuration, which is exactly the regime snap-stabilization covers.
//!
//! # Example
//!
//! ```
//! use pif_core::{initial, PifProtocol};
//! use pif_graph::{generators, ProcId};
//! use pif_soa::{Packed, SoaSimulator};
//!
//! let graph = generators::torus(4, 4).unwrap();
//! let protocol = PifProtocol::new(ProcId(0), &graph);
//! let init = initial::normal_starting(&graph);
//! let mut sim = SoaSimulator::with_store(graph, protocol, Packed::new(init));
//! let report = sim.step_sync(); // synchronous daemon, no dispatch overhead
//! assert!(report.executed >= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod kernel;
pub mod sim;

pub use config::SoaConfig;
pub use engine::{Engine, EngineBuilder, EngineSim};
pub use kernel::GuardKernel;
pub use sim::{Packed, SoaSimulator};

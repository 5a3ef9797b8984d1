//! # Snap-stabilizing PIF for arbitrary networks
//!
//! A from-scratch reproduction of *"Snap-Stabilizing PIF Algorithm in
//! Arbitrary Networks"* (A. Cournier, A. K. Datta, F. Petit, V. Villain —
//! ICDCS 2002): the first snap-stabilizing Propagation of Information with
//! Feedback protocol that works on arbitrary topologies without a
//! pre-constructed spanning tree.
//!
//! A **PIF cycle** starts when the root broadcasts a message; *every*
//! processor must receive it (\[PIF1\]) and the root must collect an
//! acknowledgment of receipt from every processor (\[PIF2\]).
//! **Snap-stabilization** means this holds for the *very first* wave
//! initiated after an arbitrary — even adversarially corrupted — initial
//! configuration: the protocol stabilizes in zero steps.
//!
//! ## Crate layout
//!
//! * [`PifProtocol`] ([`protocol`]) — Algorithms 1 & 2, guard for guard.
//! * [`state`] — the register state (`Pif`, `Par`, `L`, `Count`, `Fok`).
//! * [`initial`] — normal-starting, fuzzed, and adversarial initial
//!   configurations.
//! * [`analysis`] — the paper's proof apparatus executable at runtime:
//!   parent paths, trees, the legal tree, abnormal processors,
//!   configuration classification (Definitions 3–16) and the invariants of
//!   Properties 1–2.
//! * [`wave`] — the payload engine: attach a concrete message to the
//!   abstract phase machine, collect per-processor deliveries and fold an
//!   aggregate feedback value up the tree.
//! * [`checker`] — the snap-stabilization checker: verify \[PIF1\]/\[PIF2\]
//!   for the first wave out of any configuration.
//!
//! ## Quick example
//!
//! ```
//! use pif_core::wave::{WaveRunner, MaxAggregate};
//! use pif_core::PifProtocol;
//! use pif_daemon::daemons::Synchronous;
//! use pif_graph::{generators, ProcId};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = generators::torus(3, 3)?;
//! let root = ProcId(0);
//! let proto = PifProtocol::new(root, &g);
//! // Broadcast the string "hello" and gather the maximum of per-processor
//! // contributions (here: each processor's id) as feedback.
//! let contributions: Vec<u32> = (0..9).collect();
//! let mut runner = WaveRunner::new(g, proto, MaxAggregate::new(contributions));
//! let outcome = runner.run_cycle("hello".to_string(), &mut Synchronous::first_action())?;
//! assert!(outcome.pif1, "every processor received the message");
//! assert!(outcome.pif2, "the root collected every acknowledgment");
//! assert_eq!(outcome.feedback, Some(8));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod checker;
pub mod initial;
pub mod protocol;
#[cfg(test)]
mod protocol_tests;
pub mod state;
pub mod wave;

pub use protocol::{Features, NetworkTooLarge, PifProtocol};
pub use state::{Phase, PifState};

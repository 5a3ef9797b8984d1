//! `pif-net` — a lossy message-passing transport for locally-shared-
//! memory protocols, layered and typed.
//!
//! The paper's model lets a processor read its neighbors' registers
//! atomically. This crate executes the same protocols over *messages*
//! instead, making every link fault explicit, seeded, and counted:
//!
//! ```text
//!  ┌──────────────────────────────────────────────────────────────┐
//!  │ transport   NetBuilder → NetSim: seeded event loop costing   │
//!  │             O(degree) per event, observer contract           │
//!  │             (StepDelta), settlement, campaigns               │
//!  ├──────────────────────────────────────────────────────────────┤
//!  │ sync        RegisterSync: neighbor-state caches, staleness   │
//!  ├──────────────────────────────────────────────────────────────┤
//!  │ link        Link + FaultPlan: bounded channels, seeded drop/ │
//!  │             duplicate/reorder/corrupt, per-link LinkStats,   │
//!  │             pooled frame buffers                             │
//!  ├──────────────────────────────────────────────────────────────┤
//!  │ frame       length-prefixed frames, versioned payloads,      │
//!  │             CRC32 trailer, WireState codec                   │
//!  └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! Everything above the frame layer is deterministic given the master
//! seed: the scheduler, every per-link fault stream, and the scramble
//! campaign each derive an independent `SplitMix64` stream, so a run's
//! [`NetStats`] replay bit-identically. Corrupted frames are *rejected*
//! by checksum at the receiver — never silently applied — which is the
//! property the E13 ledger certifies.
//!
//! The legacy `NetSimulator` API (ad-hoc events, bool-ish effects,
//! panicking construction) has been removed after its one-release
//! deprecation window; see `DESIGN.md` §15 for the migration table from
//! the old names to the typed [`Transport`] API.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod frame;
mod link;
mod stats;
pub mod sync;
mod transport;

pub use error::{FrameError, NetError};
pub use frame::{
    crc32, decode_frame, encode_frame, FrameHeader, FrameKind, WireState, HEADER_LEN,
    MAX_PAYLOAD_LEN, TRAILER_LEN, WIRE_MAGIC, WIRE_VERSION,
};
pub use link::FaultPlan;
pub use stats::{LinkStats, NetStats};
pub use sync::RegisterSync;
pub use transport::{NetBuilder, NetSim, TickOutcome, Transport};

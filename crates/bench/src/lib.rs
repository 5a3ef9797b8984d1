//! Shared infrastructure for the experiment binaries: text/CSV report
//! tables, the standard workload suite, and the snap-PIF contestant for
//! the delivery-contrast experiment. Seed sweeps fan out with
//! `pif_par::par_map`.
//!
//! Each experiment binary (`exp_*`) regenerates one row-set of
//! EXPERIMENTS.md; `exp_all` runs the complete battery.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod contestants;
pub mod error;
pub mod experiments;
pub mod report;
pub mod step_measure;
pub mod workloads;

//! # simbench — end-to-end and per-layer benchmark of the simulator
//!
//! Runs one named workload per process through the simulator crates'
//! public APIs, checks every output, and prints the end-to-end metrics
//! (untraced run) or the per-layer metrics (traced run). See `README.md`
//! in this directory for the workloads, the metric map and how to run it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod layers;
pub mod metrics;
pub mod points;
pub mod run;
pub mod spans;
pub mod stats;

pub use points::{Scale, Workload};
pub use run::{run, Outcome, RunConfig};

/// The seed to develop and tune against.
pub const DEV_SEED: u64 = 1;

/// The seed held out for checking a claim made on [`DEV_SEED`].
pub const HELD_OUT_SEED: u64 = 20_100_109;

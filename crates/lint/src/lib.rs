//! # iss-lint — static analysis of scenario specs
//!
//! [`spec`] checks a scenario spec before any simulation: duplicate
//! design points by canonical digest, dead sweep axes, machine-config
//! sanity, and an expansion cost estimate from `ci/BENCH_baseline.json`.
//! `iss lint <spec|dir>` runs it interactively and in CI.
//!
//! The workspace's source-level determinism rules (no default-hasher
//! maps, no wall-clock reads outside `HostTimer`, no library panics) are
//! not checked here: they come from the toolchain, through the root
//! `clippy.toml` and `[workspace.lints]` (see the README).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod spec;

pub use spec::{analyze, ModelMips, Severity, SpecReport};

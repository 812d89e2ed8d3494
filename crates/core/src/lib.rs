//! # iss-interval — the interval simulation core model
//!
//! This crate implements the paper's contribution: a mechanistic analytical
//! model that replaces cycle-accurate core simulation in a multi-core
//! simulator. Execution is partitioned into *intervals* separated by miss
//! events; the branch predictor ([`iss_branch`]) and the memory hierarchy
//! ([`iss_mem`]) are simulated in detail to find the miss events, and the
//! analytical model computes the timing impact of each event:
//!
//! * I-cache / I-TLB miss → the miss latency,
//! * branch misprediction → branch resolution time + front-end pipeline depth,
//! * long-latency (L2 / coherence / D-TLB) load → the memory access latency,
//!   with independent miss events underneath it overlapped (MLP),
//! * serializing instruction → the window drain time,
//! * otherwise → dispatch at the effective dispatch rate derived from the
//!   old-window critical path via Little's law.
//!
//! The two central data structures are the [`window::Window`] (a ROB-sized
//! look-ahead buffer used to find overlapped miss events) and the
//! [`old_window::OldWindow`] (a data-flow model over recently dispatched
//! instructions that estimates the critical path length, the branch
//! resolution time, the window drain time and the effective dispatch rate —
//! the "old window approach" contributed by the paper).
//!
//! ```
//! use iss_branch::BranchPredictorConfig;
//! use iss_interval::{IntervalCoreConfig, IntervalSimulator};
//! use iss_mem::MemoryConfig;
//! use iss_trace::{catalog, ThreadedWorkload};
//!
//! let profile = catalog::spec_profile("gcc").unwrap();
//! let workload = ThreadedWorkload::single(&profile, 42, 20_000);
//! let mut sim = IntervalSimulator::from_workload(
//!     &IntervalCoreConfig::hpca2010_baseline(),
//!     &BranchPredictorConfig::hpca2010_baseline(),
//!     &MemoryConfig::hpca2010_baseline(1),
//!     workload,
//! );
//! let result = sim.run();
//! assert!(result.per_core[0].ipc() > 0.0);
//! ```

pub mod config;
pub mod core_model;
pub mod multicore;
pub mod old_window;
pub mod stats;
pub mod window;

pub use config::IntervalCoreConfig;
pub use core_model::{CoreWarmParts, IntervalCore};
pub use multicore::{IntervalSimResult, IntervalSimulator, IntervalWarmParts};
pub use old_window::OldWindow;
pub use stats::{CoreResult, IntervalCoreStats, MissEventKind};
pub use window::{OverlapFlags, Window};

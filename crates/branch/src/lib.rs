//! # iss-branch — branch predictor simulators
//!
//! Interval simulation determines branch-misprediction miss events by
//! simulating the branch predictor in detail (only the *timing* of the core is
//! abstracted away). This crate provides the predictor structures of the
//! paper's baseline configuration (Table 1): a 12 Kbit local two-level
//! direction predictor, an 8-way set-associative 2K-entry branch target
//! buffer and a 32-entry return address stack — plus the alternative
//! direction predictors (bimodal, gshare, tournament) and the *perfect*
//! predictor used for the component-wise accuracy experiments of Figure 4.
//!
//! ```
//! use iss_branch::{BranchPredictorConfig, BranchUnit};
//! use iss_trace::{BranchClass, BranchInfo};
//!
//! let mut unit = BranchUnit::new(&BranchPredictorConfig::hpca2010_baseline());
//! let info = BranchInfo {
//!     class: BranchClass::Conditional,
//!     taken: true,
//!     target: 0x4000,
//!     fallthrough: 0x1004,
//! };
//! let outcome = unit.predict_and_update(0x1000, &info);
//! assert!(outcome.resolved_taken);
//! ```

pub mod btb;
pub mod config;
pub mod direction;
pub mod ras;
pub mod unit;

pub use btb::BranchTargetBuffer;
pub use config::{BranchPredictorConfig, DirectionPredictorKind};
pub use direction::{
    BimodalPredictor, DirectionPredictor, GsharePredictor, LocalPredictor, PerfectPredictor,
    TournamentPredictor,
};
pub use ras::ReturnAddressStack;
pub use unit::{BranchOutcome, BranchStats, BranchUnit};

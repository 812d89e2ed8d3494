//! # iss-mem — memory hierarchy simulator
//!
//! Interval simulation keeps the memory hierarchy at full detail: private L1
//! instruction/data caches and TLBs per core, a shared last-level L2 cache, a
//! MOESI cache-coherence protocol over a snooping bus, and a DRAM model with
//! off-chip bandwidth contention (Table 1 of the paper). The miss events this
//! crate reports are what drive the analytical core model in `iss-interval`
//! and the detailed pipeline in `iss-detailed`.
//!
//! ```
//! use iss_mem::{MemoryConfig, MemoryHierarchy};
//!
//! let config = MemoryConfig::hpca2010_baseline(2);
//! let mut mem = MemoryHierarchy::new(&config);
//! let access = mem.access_data(0, 0x1000, false, 0);
//! assert!(access.latency >= 1);
//! ```

pub mod cache;
pub mod config;
pub mod dram;
pub mod hierarchy;
pub mod stats;
pub mod tlb;

pub use cache::{Cache, CacheConfig, LineState};
pub use config::MemoryConfig;
pub use dram::DramModel;
pub use hierarchy::{AccessLevel, AccessResponse, MemoryHierarchy, WarmthSummary};
pub use stats::{CoreMemoryStats, MemoryStats};
pub use tlb::Tlb;

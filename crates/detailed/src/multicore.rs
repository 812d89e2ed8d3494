//! Multi-core wrappers around the detailed and one-IPC core models.
//!
//! Both simulators share the global-cycle structure of the interval
//! simulator: all cores advance in lock-step over a shared memory hierarchy
//! and a shared synchronization controller, which is what produces the
//! resource-contention and thread-interleaving behaviour the paper's
//! multi-core experiments measure.

use iss_trace::host_time::HostTimer;

use iss_branch::{BranchPredictorConfig, BranchStats, BranchUnit};
use iss_mem::{MemoryConfig, MemoryHierarchy, MemoryStats};
use iss_trace::{InstructionStream, SyncController, SyntheticStream, ThreadedWorkload};

use crate::config::DetailedCoreConfig;
use crate::oneipc::OneIpcCore;
use crate::oo_core::OutOfOrderCore;
use crate::stats::DetailedCoreResult;

/// Result of a detailed (or one-IPC) multi-core simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct DetailedSimResult {
    /// Cycles until the last core finished.
    pub cycles: u64,
    /// Per-core results.
    pub per_core: Vec<DetailedCoreResult>,
    /// Per-core branch prediction statistics (empty for the one-IPC model,
    /// which does not predict branches).
    pub branch: Vec<BranchStats>,
    /// Shared memory hierarchy statistics.
    pub memory: MemoryStats,
    /// Host wall-clock seconds the simulation took.
    pub host_seconds: f64,
    /// Total instructions simulated.
    pub total_instructions: u64,
}

impl DetailedSimResult {
    /// Aggregate instructions per cycle over the whole chip.
    #[must_use]
    pub fn aggregate_ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.total_instructions as f64 / self.cycles as f64
        }
    }

    /// Simulated instructions per host second.
    #[must_use]
    pub fn instructions_per_host_second(&self) -> f64 {
        if self.host_seconds <= 0.0 {
            0.0
        } else {
            self.total_instructions as f64 / self.host_seconds
        }
    }
}

/// Transferable warm state of one core, extracted by *consuming* the core:
/// nothing in here is cloned, which is what makes frequent timed→functional
/// transitions in sampled simulation cheap.
#[derive(Debug)]
pub struct CoreWarmParts<S> {
    /// The core's resume point (clock, retired instructions, done flag).
    pub resume: iss_trace::CoreResume,
    /// Instructions fetched but not yet committed, oldest first.
    pub pending: Vec<iss_trace::DynInst>,
    /// The core's instruction stream, positioned after the pending
    /// instructions.
    pub stream: S,
    /// The warm branch-prediction front-end (`None` for the one-IPC model,
    /// which predicts no branches).
    pub branch: Option<BranchUnit>,
}

/// Transferable warm state of a whole machine, extracted by *consuming* the
/// simulator — the clone-free counterpart of a lean checkpoint, for callers
/// that own the machine.
#[derive(Debug)]
pub struct WarmParts<S> {
    /// The machine clock (absolute simulated cycles).
    pub machine_time: u64,
    /// Per-core warm state, in core order.
    pub cores: Vec<CoreWarmParts<S>>,
    /// The shared memory hierarchy, moved out intact.
    pub memory: MemoryHierarchy,
    /// The shared synchronization state, moved out intact.
    pub sync: SyncController,
}

/// Cycle-accurate multi-core simulator (the paper's baseline).
#[derive(Debug, Clone)]
pub struct DetailedSimulator<S> {
    cores: Vec<OutOfOrderCore<S>>,
    mem: MemoryHierarchy,
    sync: SyncController,
    cycle: u64,
    /// Host wall-clock seconds accumulated across all advancement calls.
    host_seconds: f64,
}

impl<S: InstructionStream> DetailedSimulator<S> {
    /// Builds a simulator from per-core streams.
    ///
    /// # Panics
    ///
    /// Panics if the stream count does not match the configuration, or if any
    /// configuration is invalid.
    #[must_use]
    pub fn new(
        core_config: &DetailedCoreConfig,
        branch_config: &BranchPredictorConfig,
        mem_config: &MemoryConfig,
        streams: Vec<S>,
        sync: SyncController,
    ) -> Self {
        assert_eq!(
            streams.len(),
            mem_config.num_cores,
            "one stream per core is required"
        );
        assert_eq!(
            streams.len(),
            sync.num_threads(),
            "sync controller must cover every core"
        );
        Self::with_memory(
            core_config,
            branch_config,
            streams,
            sync,
            MemoryHierarchy::new(mem_config),
        )
    }

    /// Like [`DetailedSimulator::new`], but adopts an existing (typically
    /// warm) memory hierarchy instead of building a cold one — the restore
    /// path takes this so a checkpointed hierarchy is *moved* in rather
    /// than a fresh multi-megabyte hierarchy being allocated and
    /// immediately replaced.
    ///
    /// # Panics
    ///
    /// Panics if the stream, synchronization and hierarchy core counts
    /// disagree or any configuration is invalid.
    #[must_use]
    pub fn with_memory(
        core_config: &DetailedCoreConfig,
        branch_config: &BranchPredictorConfig,
        streams: Vec<S>,
        sync: SyncController,
        memory: MemoryHierarchy,
    ) -> Self {
        assert_eq!(
            streams.len(),
            memory.num_cores(),
            "one stream per core is required"
        );
        assert_eq!(
            streams.len(),
            sync.num_threads(),
            "sync controller must cover every core"
        );
        let cores = streams
            .into_iter()
            .enumerate()
            .map(|(i, s)| OutOfOrderCore::new(i, core_config, branch_config, s))
            .collect();
        DetailedSimulator {
            cores,
            mem: memory,
            sync,
            cycle: 0,
            host_seconds: 0.0,
        }
    }

    /// Number of simulated cores.
    #[must_use]
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Whether every core has committed its entire stream.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.cores.iter().all(OutOfOrderCore::is_done)
    }

    /// Total instructions committed so far across all cores.
    #[must_use]
    pub fn total_retired(&self) -> u64 {
        self.cores.iter().map(|c| c.stats().instructions).sum()
    }

    /// The current machine cycle.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The simulated cores (read-only, for checkpointing).
    #[must_use]
    pub fn cores(&self) -> &[OutOfOrderCore<S>] {
        &self.cores
    }

    /// The shared memory hierarchy (read-only, for checkpointing).
    #[must_use]
    pub fn memory(&self) -> &MemoryHierarchy {
        &self.mem
    }

    /// The shared synchronization controller (read-only, for checkpointing).
    #[must_use]
    pub fn sync_controller(&self) -> &SyncController {
        &self.sync
    }

    /// Runs to completion.
    pub fn run(&mut self) -> DetailedSimResult {
        self.run_with_limit(u64::MAX)
    }

    /// Runs until every core finished or `max_cycles` elapsed.
    pub fn run_with_limit(&mut self, max_cycles: u64) -> DetailedSimResult {
        let start = HostTimer::start();
        self.advance(max_cycles, u64::MAX);
        self.host_seconds += start.elapsed_seconds();
        self.result()
    }

    /// Advances until at least `insts` more instructions commit chip-wide
    /// (or every core finishes) — the hybrid swap controller's quantum.
    pub fn step_interval(&mut self, insts: u64) {
        let start = HostTimer::start();
        let target = self.total_retired().saturating_add(insts);
        self.advance(u64::MAX, target);
        self.host_seconds += start.elapsed_seconds();
    }

    fn advance(&mut self, max_cycles: u64, inst_target: u64) {
        while self.cycle < max_cycles && !self.cores.iter().all(OutOfOrderCore::is_done) {
            if inst_target != u64::MAX && self.total_retired() >= inst_target {
                break;
            }
            for core in &mut self.cores {
                core.step_cycle(self.cycle, &mut self.mem, &mut self.sync);
            }
            self.cycle += 1;
        }
    }

    /// Installs checkpointed warm state into a freshly built simulator (see
    /// the interval simulator's `restore_warm` for the contract).
    ///
    /// # Panics
    ///
    /// Panics if the transferred state does not cover every core.
    pub fn restore_warm(
        &mut self,
        mem: MemoryHierarchy,
        machine_time: u64,
        per_core: &[iss_trace::CoreResume],
        branch: Option<&[iss_branch::BranchUnit]>,
    ) {
        assert_eq!(
            mem.num_cores(),
            self.cores.len(),
            "transferred hierarchy must cover every core"
        );
        self.mem = mem;
        self.resume_cores(machine_time, per_core, branch);
    }

    /// The core-resume half of [`DetailedSimulator::restore_warm`], for
    /// simulators built over an already-transferred hierarchy
    /// ([`DetailedSimulator::with_memory`]).
    ///
    /// # Panics
    ///
    /// Panics if the transferred state does not cover every core.
    pub fn resume_cores(
        &mut self,
        machine_time: u64,
        per_core: &[iss_trace::CoreResume],
        branch: Option<&[BranchUnit]>,
    ) {
        assert_eq!(
            per_core.len(),
            self.cores.len(),
            "one resume point per core is required"
        );
        self.cycle = machine_time;
        for (i, core) in self.cores.iter_mut().enumerate() {
            core.resume_at(&per_core[i]);
            if let Some(units) = branch {
                core.install_branch_unit(units[i].clone());
            }
        }
    }

    /// Consumes the simulator into its transferable warm state without
    /// cloning the memory hierarchy, the streams or the branch tables.
    #[must_use]
    pub fn into_warm_parts(self) -> WarmParts<S> {
        let now = self.cycle;
        WarmParts {
            machine_time: now,
            cores: self
                .cores
                .into_iter()
                .map(|c| c.into_warm_parts(now))
                .collect(),
            memory: self.mem,
            sync: self.sync,
        }
    }

    /// Builds the result for the current state (accumulated host time).
    #[must_use]
    pub fn result(&self) -> DetailedSimResult {
        let per_core: Vec<DetailedCoreResult> = self
            .cores
            .iter()
            .map(|c| {
                let stats = c.stats();
                DetailedCoreResult {
                    core: c.core_id(),
                    instructions: stats.instructions,
                    cycles: if c.is_done() {
                        stats.cycles
                    } else {
                        self.cycle
                    },
                    stats,
                }
            })
            .collect();
        let total_instructions = per_core.iter().map(|c| c.instructions).sum();
        DetailedSimResult {
            cycles: per_core.iter().map(|c| c.cycles).max().unwrap_or(0),
            per_core,
            branch: self
                .cores
                .iter()
                .map(OutOfOrderCore::branch_stats)
                .collect(),
            memory: self.mem.stats(),
            host_seconds: self.host_seconds,
            total_instructions,
        }
    }
}

impl DetailedSimulator<SyntheticStream> {
    /// Convenience constructor from a [`ThreadedWorkload`].
    #[must_use]
    pub fn from_workload(
        core_config: &DetailedCoreConfig,
        branch_config: &BranchPredictorConfig,
        mem_config: &MemoryConfig,
        workload: ThreadedWorkload,
    ) -> Self {
        let (streams, sync) = workload.into_parts();
        Self::new(core_config, branch_config, mem_config, streams, sync)
    }
}

/// Multi-core wrapper around the one-IPC model.
#[derive(Debug, Clone)]
pub struct OneIpcSimulator<S> {
    cores: Vec<OneIpcCore<S>>,
    mem: MemoryHierarchy,
    sync: SyncController,
    cycle: u64,
    /// Host wall-clock seconds accumulated across all advancement calls.
    host_seconds: f64,
}

impl<S: InstructionStream> OneIpcSimulator<S> {
    /// Builds a one-IPC simulator from per-core streams.
    ///
    /// # Panics
    ///
    /// Panics if the stream count does not match the configuration.
    #[must_use]
    pub fn new(mem_config: &MemoryConfig, streams: Vec<S>, sync: SyncController) -> Self {
        Self::with_memory(streams, sync, MemoryHierarchy::new(mem_config))
    }

    /// Like [`OneIpcSimulator::new`], but adopts an existing (typically
    /// warm) memory hierarchy instead of building a cold one.
    ///
    /// # Panics
    ///
    /// Panics if the stream, synchronization and hierarchy core counts
    /// disagree.
    #[must_use]
    pub fn with_memory(streams: Vec<S>, sync: SyncController, memory: MemoryHierarchy) -> Self {
        assert_eq!(
            streams.len(),
            memory.num_cores(),
            "one stream per core is required"
        );
        assert_eq!(
            streams.len(),
            sync.num_threads(),
            "sync controller must cover every core"
        );
        let cores = streams
            .into_iter()
            .enumerate()
            .map(|(i, s)| OneIpcCore::new(i, s))
            .collect();
        OneIpcSimulator {
            cores,
            mem: memory,
            sync,
            cycle: 0,
            host_seconds: 0.0,
        }
    }

    /// Whether every core has executed its entire stream.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.cores.iter().all(OneIpcCore::is_done)
    }

    /// Total instructions executed so far across all cores.
    #[must_use]
    pub fn total_retired(&self) -> u64 {
        self.cores.iter().map(|c| c.stats().instructions).sum()
    }

    /// The current machine cycle.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The simulated cores (read-only, for checkpointing).
    #[must_use]
    pub fn cores(&self) -> &[OneIpcCore<S>] {
        &self.cores
    }

    /// The shared memory hierarchy (read-only, for checkpointing).
    #[must_use]
    pub fn memory(&self) -> &MemoryHierarchy {
        &self.mem
    }

    /// The shared synchronization controller (read-only, for checkpointing).
    #[must_use]
    pub fn sync_controller(&self) -> &SyncController {
        &self.sync
    }

    /// Runs to completion (bounded by `max_cycles`).
    pub fn run_with_limit(&mut self, max_cycles: u64) -> DetailedSimResult {
        let start = HostTimer::start();
        self.advance(max_cycles, u64::MAX);
        self.host_seconds += start.elapsed_seconds();
        self.result()
    }

    /// Advances until at least `insts` more instructions execute chip-wide
    /// (or every core finishes) — the hybrid swap controller's quantum.
    pub fn step_interval(&mut self, insts: u64) {
        let start = HostTimer::start();
        let target = self.total_retired().saturating_add(insts);
        self.advance(u64::MAX, target);
        self.host_seconds += start.elapsed_seconds();
    }

    fn advance(&mut self, max_cycles: u64, inst_target: u64) {
        while self.cycle < max_cycles && !self.cores.iter().all(OneIpcCore::is_done) {
            if inst_target != u64::MAX && self.total_retired() >= inst_target {
                break;
            }
            for core in &mut self.cores {
                core.step_cycle(self.cycle, &mut self.mem, &mut self.sync);
            }
            self.cycle += 1;
        }
    }

    /// Installs checkpointed warm state into a freshly built simulator. The
    /// one-IPC model has no branch predictor, so warm branch state (if any)
    /// is dropped here and re-learned if a later swap leaves this model.
    ///
    /// # Panics
    ///
    /// Panics if the transferred state does not cover every core.
    pub fn restore_warm(
        &mut self,
        mem: MemoryHierarchy,
        machine_time: u64,
        per_core: &[iss_trace::CoreResume],
    ) {
        assert_eq!(
            mem.num_cores(),
            self.cores.len(),
            "transferred hierarchy must cover every core"
        );
        self.mem = mem;
        self.resume_cores(machine_time, per_core);
    }

    /// The core-resume half of [`OneIpcSimulator::restore_warm`], for
    /// simulators built over an already-transferred hierarchy
    /// ([`OneIpcSimulator::with_memory`]).
    ///
    /// # Panics
    ///
    /// Panics if the transferred state does not cover every core.
    pub fn resume_cores(&mut self, machine_time: u64, per_core: &[iss_trace::CoreResume]) {
        assert_eq!(
            per_core.len(),
            self.cores.len(),
            "one resume point per core is required"
        );
        self.cycle = machine_time;
        for (i, core) in self.cores.iter_mut().enumerate() {
            core.resume_at(&per_core[i]);
        }
    }

    /// Consumes the simulator into its transferable warm state without
    /// cloning the memory hierarchy or the streams.
    #[must_use]
    pub fn into_warm_parts(self) -> WarmParts<S> {
        WarmParts {
            machine_time: self.cycle,
            cores: self
                .cores
                .into_iter()
                .map(OneIpcCore::into_warm_parts)
                .collect(),
            memory: self.mem,
            sync: self.sync,
        }
    }

    /// Builds the result for the current state (accumulated host time).
    #[must_use]
    pub fn result(&self) -> DetailedSimResult {
        let per_core: Vec<DetailedCoreResult> = self
            .cores
            .iter()
            .map(|c| {
                let stats = c.stats();
                DetailedCoreResult {
                    core: c.core_id(),
                    instructions: stats.instructions,
                    cycles: if c.is_done() {
                        stats.cycles
                    } else {
                        self.cycle
                    },
                    stats,
                }
            })
            .collect();
        let total_instructions = per_core.iter().map(|c| c.instructions).sum();
        DetailedSimResult {
            cycles: per_core.iter().map(|c| c.cycles).max().unwrap_or(0),
            per_core,
            branch: Vec::new(),
            memory: self.mem.stats(),
            host_seconds: self.host_seconds,
            total_instructions,
        }
    }

    /// Runs to completion.
    pub fn run(&mut self) -> DetailedSimResult {
        self.run_with_limit(u64::MAX)
    }
}

impl OneIpcSimulator<SyntheticStream> {
    /// Convenience constructor from a [`ThreadedWorkload`].
    #[must_use]
    pub fn from_workload(mem_config: &MemoryConfig, workload: ThreadedWorkload) -> Self {
        let (streams, sync) = workload.into_parts();
        Self::new(mem_config, streams, sync)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iss_trace::catalog;

    #[test]
    fn detailed_single_core_completes() {
        let p = catalog::spec_profile("gzip").unwrap();
        let w = ThreadedWorkload::single(&p, 1, 5_000);
        let mut sim = DetailedSimulator::from_workload(
            &DetailedCoreConfig::hpca2010_baseline(),
            &BranchPredictorConfig::hpca2010_baseline(),
            &MemoryConfig::hpca2010_baseline(1),
            w,
        );
        let r = sim.run();
        assert_eq!(r.total_instructions, 5_000);
        assert!(r.per_core[0].ipc() > 0.1 && r.per_core[0].ipc() <= 4.0);
    }

    #[test]
    fn detailed_multithreaded_finishes_with_synchronization() {
        let p = catalog::parsec_profile("streamcluster").unwrap();
        let w = ThreadedWorkload::multithreaded(&p, 2, 3, 30_000);
        let mut sim = DetailedSimulator::from_workload(
            &DetailedCoreConfig::hpca2010_baseline(),
            &BranchPredictorConfig::hpca2010_baseline(),
            &MemoryConfig::hpca2010_baseline(2),
            w,
        );
        let r = sim.run_with_limit(50_000_000);
        assert_eq!(r.total_instructions, 30_000);
        assert_eq!(r.per_core.len(), 2);
    }

    #[test]
    fn one_ipc_is_never_faster_than_one() {
        let p = catalog::spec_profile("gcc").unwrap();
        let w = ThreadedWorkload::single(&p, 1, 5_000);
        let mut sim = OneIpcSimulator::from_workload(&MemoryConfig::hpca2010_baseline(1), w);
        let r = sim.run();
        assert!(r.per_core[0].ipc() <= 1.0 + 1e-9);
        assert_eq!(r.total_instructions, 5_000);
    }

    #[test]
    fn detailed_beats_one_ipc_on_high_ilp_code() {
        let p = catalog::spec_profile("mesa").unwrap();
        let detailed = {
            let w = ThreadedWorkload::single(&p, 1, 5_000);
            DetailedSimulator::from_workload(
                &DetailedCoreConfig::hpca2010_baseline(),
                &BranchPredictorConfig::hpca2010_baseline(),
                &MemoryConfig::hpca2010_baseline(1),
                w,
            )
            .run()
        };
        let one_ipc = {
            let w = ThreadedWorkload::single(&p, 1, 5_000);
            OneIpcSimulator::from_workload(&MemoryConfig::hpca2010_baseline(1), w).run()
        };
        assert!(
            detailed.per_core[0].ipc() > one_ipc.per_core[0].ipc(),
            "a 4-wide out-of-order core must outperform the one-IPC model on ILP-rich code"
        );
    }

    #[test]
    #[should_panic(expected = "one stream per core")]
    fn mismatched_streams_panic() {
        let p = catalog::spec_profile("gcc").unwrap();
        let w = ThreadedWorkload::single(&p, 1, 100);
        let _ = DetailedSimulator::from_workload(
            &DetailedCoreConfig::hpca2010_baseline(),
            &BranchPredictorConfig::hpca2010_baseline(),
            &MemoryConfig::hpca2010_baseline(2),
            w,
        );
    }
}

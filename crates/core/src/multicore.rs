//! The multi-core interval simulator.
//!
//! [`IntervalSimulator`] owns one [`IntervalCore`] per simulated core, the
//! shared [`MemoryHierarchy`] (caches, MOESI coherence, DRAM bandwidth) and
//! the shared [`SyncController`]. It advances a global multi-core simulated
//! time cycle by cycle (line 74 of the paper's pseudocode); each core only
//! performs work in cycles where its per-core simulated time has caught up
//! with the multi-core time, which makes the core-level simulation
//! event-driven while keeping the shared-resource simulation cycle-ordered.

use iss_branch::{BranchPredictorConfig, BranchStats};
use iss_mem::{MemoryConfig, MemoryHierarchy, MemoryStats};
use iss_trace::host_time::HostTimer;
use iss_trace::{InstructionStream, SyncController, SyntheticStream, ThreadedWorkload};

use crate::config::IntervalCoreConfig;
use crate::core_model::IntervalCore;
use crate::stats::CoreResult;

/// Result of a complete interval-simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalSimResult {
    /// Multi-core simulated cycles until the last core finished.
    pub cycles: u64,
    /// Per-core results (instructions, per-core cycles, miss-event breakdown).
    pub per_core: Vec<CoreResult>,
    /// Per-core branch prediction statistics.
    pub branch: Vec<BranchStats>,
    /// Shared memory-hierarchy statistics.
    pub memory: MemoryStats,
    /// Host wall-clock seconds the simulation took (used for the speedup
    /// figures 9 and 10).
    pub host_seconds: f64,
    /// Total instructions simulated across all cores.
    pub total_instructions: u64,
}

impl IntervalSimResult {
    /// Aggregate instructions per cycle over the whole chip.
    #[must_use]
    pub fn aggregate_ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.total_instructions as f64 / self.cycles as f64
        }
    }

    /// Host simulation speed in simulated instructions per host second.
    #[must_use]
    pub fn instructions_per_host_second(&self) -> f64 {
        if self.host_seconds <= 0.0 {
            0.0
        } else {
            self.total_instructions as f64 / self.host_seconds
        }
    }
}

/// Transferable warm state of a whole interval machine, extracted by
/// *consuming* the simulator — the clone-free counterpart of a lean
/// checkpoint, for callers that own the machine (the sampled-simulation
/// controller deconstructs a timing model this way at every
/// timed→functional transition).
#[derive(Debug)]
pub struct IntervalWarmParts<S> {
    /// The machine clock (absolute simulated cycles).
    pub machine_time: u64,
    /// Per-core warm state, in core order.
    pub cores: Vec<crate::core_model::CoreWarmParts<S>>,
    /// The shared memory hierarchy, moved out intact.
    pub memory: MemoryHierarchy,
    /// The shared synchronization state, moved out intact.
    pub sync: SyncController,
}

/// Multi-core interval simulator.
#[derive(Debug, Clone)]
pub struct IntervalSimulator<S> {
    cores: Vec<IntervalCore<S>>,
    mem: MemoryHierarchy,
    sync: SyncController,
    multi_core_time: u64,
    /// Host wall-clock seconds accumulated across all advancement calls
    /// (`run_with_limit` and `step_interval` both add to it).
    host_seconds: f64,
}

impl<S: InstructionStream> IntervalSimulator<S> {
    /// Builds a simulator from per-core instruction streams and a shared
    /// synchronization controller.
    ///
    /// # Panics
    ///
    /// Panics if the number of streams does not match the memory
    /// configuration's core count or the synchronization controller's thread
    /// count, or if any configuration is invalid.
    #[must_use]
    pub fn new(
        core_config: &IntervalCoreConfig,
        branch_config: &BranchPredictorConfig,
        mem_config: &MemoryConfig,
        streams: Vec<S>,
        sync: SyncController,
    ) -> Self {
        assert_eq!(
            streams.len(),
            mem_config.num_cores,
            "one instruction stream per core is required"
        );
        assert_eq!(
            streams.len(),
            sync.num_threads(),
            "the synchronization controller must cover every core"
        );
        Self::with_memory(
            core_config,
            branch_config,
            streams,
            sync,
            MemoryHierarchy::new(mem_config),
        )
    }

    /// Like [`IntervalSimulator::new`], but adopts an existing (typically
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
        core_config: &IntervalCoreConfig,
        branch_config: &BranchPredictorConfig,
        streams: Vec<S>,
        sync: SyncController,
        memory: MemoryHierarchy,
    ) -> Self {
        assert_eq!(
            streams.len(),
            memory.num_cores(),
            "one instruction stream per core is required"
        );
        assert_eq!(
            streams.len(),
            sync.num_threads(),
            "the synchronization controller must cover every core"
        );
        let cores = streams
            .into_iter()
            .enumerate()
            .map(|(i, s)| IntervalCore::new(i, core_config, branch_config, s))
            .collect();
        IntervalSimulator {
            cores,
            mem: memory,
            sync,
            multi_core_time: 0,
            host_seconds: 0.0,
        }
    }

    /// Number of simulated cores.
    #[must_use]
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// The multi-core simulated time reached so far.
    #[must_use]
    pub fn multi_core_time(&self) -> u64 {
        self.multi_core_time
    }

    /// Whether every core has retired its entire stream.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.cores.iter().all(IntervalCore::is_done)
    }

    /// Total instructions retired so far across all cores.
    #[must_use]
    pub fn total_retired(&self) -> u64 {
        self.cores.iter().map(|c| c.stats().instructions).sum()
    }

    /// The simulated cores (read-only, for checkpointing).
    #[must_use]
    pub fn cores(&self) -> &[IntervalCore<S>] {
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

    /// Runs the simulation to completion and returns the result.
    pub fn run(&mut self) -> IntervalSimResult {
        self.run_with_limit(u64::MAX)
    }

    /// Runs the simulation until every core finished or `max_cycles` elapsed.
    pub fn run_with_limit(&mut self, max_cycles: u64) -> IntervalSimResult {
        let start = HostTimer::start();
        self.advance(max_cycles, u64::MAX);
        self.host_seconds += start.elapsed_seconds();
        self.result()
    }

    /// Advances the simulation until at least `insts` more instructions have
    /// retired chip-wide (or every core finished). This is the quantum the
    /// hybrid swap controller steps a model by; between calls the simulator
    /// is in exactly the state a continued `run` would have passed through,
    /// so stepping in intervals is bit-identical to one uninterrupted run.
    pub fn step_interval(&mut self, insts: u64) {
        let start = HostTimer::start();
        let target = self.total_retired().saturating_add(insts);
        self.advance(u64::MAX, target);
        self.host_seconds += start.elapsed_seconds();
    }

    fn advance(&mut self, max_cycles: u64, inst_target: u64) {
        let track = inst_target != u64::MAX;
        if self.multi_core_time >= max_cycles || self.cores.iter().all(IntervalCore::is_done) {
            return;
        }
        if track && self.total_retired() >= inst_target {
            return;
        }
        loop {
            for core in &mut self.cores {
                core.step_cycle(self.multi_core_time, &mut self.mem, &mut self.sync);
            }
            // Event-driven skip: after stepping, every live core's per-core
            // time is ahead of the multi-core time (it is paying for a miss
            // event, or just advanced one cycle). No shared state evolves on
            // its own between now and the earliest catch-up, so jumping
            // straight there is behaviour-identical to stepping empty cycles
            // — and it is what makes memory-bound interval runs fast. Blocked
            // cores trail at `multi_time + 1`, so synchronization stalls are
            // still stepped (and counted) cycle by cycle.
            //
            // One pass over the cores serves the skip, the all-done check and
            // the retirement target — this loop header runs once per
            // simulated event and was three separate core walks.
            let mut next_event = u64::MAX;
            let mut all_done = true;
            let mut retired = 0u64;
            for core in &self.cores {
                if !core.is_done() {
                    all_done = false;
                    next_event = next_event.min(core.core_sim_time());
                }
                if track {
                    retired += core.stats().instructions;
                }
            }
            self.multi_core_time = if next_event != u64::MAX && next_event > self.multi_core_time {
                next_event
            } else {
                self.multi_core_time + 1
            };
            if self.multi_core_time >= max_cycles || all_done {
                return;
            }
            if track && retired >= inst_target {
                return;
            }
        }
    }

    /// Installs checkpointed warm state into a freshly built simulator: the
    /// transferred memory hierarchy (cache/TLB/DRAM warmth), the machine
    /// clock, each core's resume point, and (when the outgoing model had
    /// them) the warm branch-predictor tables.
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

    /// The core-resume half of [`IntervalSimulator::restore_warm`], for
    /// simulators built over an already-transferred hierarchy
    /// ([`IntervalSimulator::with_memory`]).
    ///
    /// # Panics
    ///
    /// Panics if the transferred state does not cover every core.
    pub fn resume_cores(
        &mut self,
        machine_time: u64,
        per_core: &[iss_trace::CoreResume],
        branch: Option<&[iss_branch::BranchUnit]>,
    ) {
        assert_eq!(
            per_core.len(),
            self.cores.len(),
            "one resume point per core is required"
        );
        self.multi_core_time = machine_time;
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
    pub fn into_warm_parts(self) -> IntervalWarmParts<S> {
        IntervalWarmParts {
            machine_time: self.multi_core_time,
            cores: self
                .cores
                .into_iter()
                .map(IntervalCore::into_warm_parts)
                .collect(),
            memory: self.mem,
            sync: self.sync,
        }
    }

    /// Builds the result for the current state (accumulated host time).
    #[must_use]
    pub fn result(&self) -> IntervalSimResult {
        let host_seconds = self.host_seconds;
        let per_core: Vec<CoreResult> = self
            .cores
            .iter()
            .map(|c| {
                let stats = c.stats();
                CoreResult {
                    core: c.core_id(),
                    instructions: stats.instructions,
                    cycles: if c.is_done() {
                        stats.cycles
                    } else {
                        c.core_sim_time()
                    },
                    stats,
                }
            })
            .collect();
        let total_instructions = per_core.iter().map(|c| c.instructions).sum();
        let cycles = per_core.iter().map(|c| c.cycles).max().unwrap_or(0);
        IntervalSimResult {
            cycles,
            per_core,
            branch: self.cores.iter().map(IntervalCore::branch_stats).collect(),
            memory: self.mem.stats(),
            host_seconds,
            total_instructions,
        }
    }
}

impl IntervalSimulator<SyntheticStream> {
    /// Convenience constructor from a [`ThreadedWorkload`].
    ///
    /// # Panics
    ///
    /// Panics if the workload's core count does not match `mem_config`.
    #[must_use]
    pub fn from_workload(
        core_config: &IntervalCoreConfig,
        branch_config: &BranchPredictorConfig,
        mem_config: &MemoryConfig,
        workload: ThreadedWorkload,
    ) -> Self {
        let (streams, sync) = workload.into_parts();
        Self::new(core_config, branch_config, mem_config, streams, sync)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iss_trace::catalog;

    fn baseline(cores: usize) -> (IntervalCoreConfig, BranchPredictorConfig, MemoryConfig) {
        (
            IntervalCoreConfig::hpca2010_baseline(),
            BranchPredictorConfig::hpca2010_baseline(),
            MemoryConfig::hpca2010_baseline(cores),
        )
    }

    #[test]
    fn single_core_run_completes_and_reports() {
        let (c, b, m) = baseline(1);
        let p = catalog::spec_profile("gcc").unwrap();
        let w = ThreadedWorkload::single(&p, 3, 20_000);
        let mut sim = IntervalSimulator::from_workload(&c, &b, &m, w);
        let r = sim.run();
        assert_eq!(r.per_core.len(), 1);
        assert_eq!(r.total_instructions, 20_000);
        assert!(r.cycles > 0);
        assert!(r.per_core[0].ipc() > 0.1 && r.per_core[0].ipc() <= 4.0);
        assert!(r.host_seconds > 0.0);
    }

    #[test]
    fn multiprogram_runs_all_copies() {
        let (c, b, m) = baseline(4);
        let p = catalog::spec_profile("gcc").unwrap();
        let w = ThreadedWorkload::multiprogram_homogeneous(&p, 4, 9, 8_000);
        let mut sim = IntervalSimulator::from_workload(&c, &b, &m, w);
        let r = sim.run();
        assert_eq!(r.per_core.len(), 4);
        for core in &r.per_core {
            assert_eq!(core.instructions, 8_000);
            assert!(core.cycles > 0);
        }
    }

    #[test]
    fn l2_sharing_hurts_memory_bound_copies() {
        // The Figure 6 trend: co-running more copies of mcf degrades per-copy
        // IPC because they fight over the shared L2 and memory bandwidth.
        let p = catalog::spec_profile("mcf").unwrap();
        let (c, b, _) = baseline(1);
        let single = {
            let w = ThreadedWorkload::multiprogram_homogeneous(&p, 1, 5, 8_000);
            let mut sim =
                IntervalSimulator::from_workload(&c, &b, &MemoryConfig::hpca2010_baseline(1), w);
            sim.run().per_core[0].ipc()
        };
        let four_copies = {
            let w = ThreadedWorkload::multiprogram_homogeneous(&p, 4, 5, 8_000);
            let mut sim =
                IntervalSimulator::from_workload(&c, &b, &MemoryConfig::hpca2010_baseline(4), w);
            let r = sim.run();
            r.per_core.iter().map(CoreResult::ipc).sum::<f64>() / 4.0
        };
        assert!(
            four_copies < single,
            "per-copy IPC with 4 copies ({four_copies:.3}) must be below the solo IPC ({single:.3})"
        );
    }

    #[test]
    fn multithreaded_run_synchronizes_and_finishes() {
        let (c, b, m) = baseline(4);
        let p = catalog::parsec_profile("fluidanimate").unwrap();
        let w = ThreadedWorkload::multithreaded(&p, 4, 11, 200_000);
        let mut sim = IntervalSimulator::from_workload(&c, &b, &m, w);
        let r = sim.run_with_limit(200_000_000);
        assert_eq!(r.total_instructions, 200_000);
        let blocked: u64 = r.per_core.iter().map(|c| c.stats.sync_blocked_cycles).sum();
        assert!(
            blocked > 0,
            "a lock/barrier-heavy workload must block at least once"
        );
    }

    #[test]
    fn scalable_workload_speeds_up_with_more_cores() {
        let p = catalog::parsec_profile("blackscholes").unwrap();
        let (c, b, _) = baseline(1);
        let run = |cores: usize| {
            let w = ThreadedWorkload::multithreaded(&p, cores, 13, 60_000);
            let mut sim = IntervalSimulator::from_workload(
                &c,
                &b,
                &MemoryConfig::hpca2010_baseline(cores),
                w,
            );
            sim.run().cycles
        };
        let one = run(1);
        let four = run(4);
        assert!(
            (four as f64) < 0.6 * one as f64,
            "blackscholes on 4 cores ({four}) must be much faster than on 1 core ({one})"
        );
    }

    #[test]
    fn run_with_limit_stops_early() {
        let (c, b, m) = baseline(1);
        let p = catalog::spec_profile("mcf").unwrap();
        let w = ThreadedWorkload::single(&p, 3, 50_000);
        let mut sim = IntervalSimulator::from_workload(&c, &b, &m, w);
        let r = sim.run_with_limit(100);
        // Per-core time may run slightly past the global limit because the
        // last dispatched instruction can carry a miss-event penalty.
        assert!(r.cycles < 100 + 1000);
        assert!(r.total_instructions < 50_000);
    }

    #[test]
    #[should_panic(expected = "one instruction stream per core")]
    fn mismatched_core_count_panics() {
        let (c, b, m) = baseline(2);
        let p = catalog::spec_profile("gcc").unwrap();
        let w = ThreadedWorkload::single(&p, 3, 1_000);
        let _ = IntervalSimulator::from_workload(&c, &b, &m, w);
    }
}

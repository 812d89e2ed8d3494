//! The whole simulated machine as one value, under any of the three timing
//! models, and the checkpoint that carries its state from one model to
//! another.
//!
//! [`AnyMachine`] makes the abstraction level a first-class dial: any model
//! can be stepped one interval at a time, consumed into a
//! [`ModelCheckpoint`], and any model — the same one or a different one —
//! restored from it. The [`hybrid`](crate::hybrid) swap controller exploits
//! that to trade accuracy for simulated MIPS *during* a run, and the
//! [`sampling`](crate::sampling) controller to hand a machine to functional
//! warming and back.
//!
//! A [`ModelCheckpoint`] carries the **transferable architectural state**
//! every model understands: the functional stream position (unretired
//! instructions + generator, as a [`CheckpointStream`] per core), per-core
//! clocks and retired-instruction counters, the warm branch-predictor
//! tables, the full memory hierarchy (cache/TLB/DRAM warmth) and the
//! synchronization state. The producing model's own microarchitectural
//! state (window occupancy and overlap flags, old-window register producers,
//! ROB contents) is not carried: a restore always builds a fresh machine,
//! warms it from the transferred state and lets it rebuild its own
//! microarchitectural state within one interval — the graceful-degradation
//! path a hybrid swap takes. A checkpoint is taken by consuming the machine
//! ([`AnyMachine::into_lean_checkpoint`]), so nothing is cloned; a caller
//! that must keep the machine running checkpoints a clone of it.

use iss_branch::BranchUnit;
use iss_detailed::{DetailedSimulator, OneIpcSimulator, WarmParts};
use iss_interval::IntervalSimulator;
use iss_mem::{MemoryHierarchy, MemoryStats};
use iss_trace::{CheckpointStream, CoreResume, DynInst, SyncController, ThreadedWorkload};

use crate::config::SystemConfig;
use crate::runner::{BaseModel, CoreModel, CoreSummary, SimSummary};

/// Transferable machine state, produced by
/// [`AnyMachine::into_lean_checkpoint`] (or assembled by the sampled-run
/// controller from functionally warmed state) and consumed by
/// [`AnyMachine::restore`].
#[derive(Debug, Clone)]
pub struct ModelCheckpoint {
    /// The machine clock at the checkpoint (absolute simulated cycles).
    pub machine_time: u64,
    /// Per-core clocks, retired-instruction counters and completion flags.
    pub per_core: Vec<CoreResume>,
    /// Per-core functional stream position: the instructions the outgoing
    /// model had fetched but not retired, followed by the generator.
    pub streams: Vec<CheckpointStream>,
    /// Warm branch-predictor tables per core (`None` when the producing
    /// model does not predict branches — the one-IPC model).
    pub branch: Option<Vec<BranchUnit>>,
    /// The full shared memory hierarchy — every resident line, translation
    /// and in-flight DRAM reservation carries over.
    pub memory: MemoryHierarchy,
    /// Lock/barrier/finished state of the workload's threads.
    pub sync: SyncController,
}

/// A whole simulated machine under any of the three base models — the value
/// the runner, the hybrid swap controller and the sampled-run controller
/// hold. All three variants run on [`CheckpointStream`]s so that plain runs
/// and resumed runs share one code path.
#[derive(Debug, Clone)]
pub enum AnyMachine {
    /// The mechanistic analytical interval model.
    Interval(IntervalSimulator<CheckpointStream>),
    /// The cycle-accurate out-of-order baseline.
    Detailed(DetailedSimulator<CheckpointStream>),
    /// The one-instruction-per-cycle simplification.
    OneIpc(OneIpcSimulator<CheckpointStream>),
}

impl AnyMachine {
    /// Builds a fresh machine of `kind` for `workload` on `config`.
    #[must_use]
    pub fn build(kind: BaseModel, config: &SystemConfig, workload: ThreadedWorkload) -> Self {
        let (streams, sync) = workload.into_parts();
        let streams = streams.into_iter().map(CheckpointStream::fresh).collect();
        match kind {
            BaseModel::Interval => AnyMachine::Interval(IntervalSimulator::new(
                &config.interval_core,
                &config.branch,
                &config.memory,
                streams,
                sync,
            )),
            BaseModel::Detailed => AnyMachine::Detailed(DetailedSimulator::new(
                &config.detailed_core,
                &config.branch,
                &config.memory,
                streams,
                sync,
            )),
            BaseModel::OneIpc => {
                AnyMachine::OneIpc(OneIpcSimulator::new(&config.memory, streams, sync))
            }
        }
    }

    /// Which base model this machine runs.
    #[must_use]
    pub fn kind(&self) -> BaseModel {
        match self {
            AnyMachine::Interval(_) => BaseModel::Interval,
            AnyMachine::Detailed(_) => BaseModel::Detailed,
            AnyMachine::OneIpc(_) => BaseModel::OneIpc,
        }
    }

    /// Whether every core has retired its entire stream.
    #[must_use]
    pub fn is_done(&self) -> bool {
        match self {
            AnyMachine::Interval(s) => s.is_done(),
            AnyMachine::Detailed(s) => s.is_done(),
            AnyMachine::OneIpc(s) => s.is_done(),
        }
    }

    /// Total instructions retired chip-wide so far.
    #[must_use]
    pub fn retired_instructions(&self) -> u64 {
        match self {
            AnyMachine::Interval(s) => s.total_retired(),
            AnyMachine::Detailed(s) => s.total_retired(),
            AnyMachine::OneIpc(s) => s.total_retired(),
        }
    }

    /// The machine clock (absolute simulated cycles).
    #[must_use]
    pub fn machine_time(&self) -> u64 {
        match self {
            AnyMachine::Interval(s) => s.multi_core_time(),
            AnyMachine::Detailed(s) => s.cycle(),
            AnyMachine::OneIpc(s) => s.cycle(),
        }
    }

    /// Advances until at least `insts` more instructions retire chip-wide or
    /// the run completes. Stepping in intervals composes: the machine passes
    /// through exactly the states an uninterrupted run would.
    pub fn step_interval(&mut self, insts: u64) {
        match self {
            AnyMachine::Interval(s) => s.step_interval(insts),
            AnyMachine::Detailed(s) => s.step_interval(insts),
            AnyMachine::OneIpc(s) => s.step_interval(insts),
        }
    }

    /// Runs the machine to completion.
    pub fn run_to_completion(&mut self) {
        match self {
            AnyMachine::Interval(s) => {
                let _ = s.run();
            }
            AnyMachine::Detailed(s) => {
                let _ = s.run();
            }
            AnyMachine::OneIpc(s) => {
                let _ = s.run();
            }
        }
    }

    /// Snapshot of the shared memory-hierarchy statistics (the swap
    /// controller reads miss-rate phase signals from consecutive snapshots).
    #[must_use]
    pub fn memory_stats(&self) -> MemoryStats {
        match self {
            AnyMachine::Interval(s) => s.memory().stats(),
            AnyMachine::Detailed(s) => s.memory().stats(),
            AnyMachine::OneIpc(s) => s.memory().stats(),
        }
    }

    /// Consumes the machine into a checkpoint of its transferable state
    /// **without cloning** the memory hierarchy, the streams or the branch
    /// tables — the transition the sampled-run controller takes at every
    /// timed→functional boundary and the hybrid swap loop at every swap.
    #[must_use]
    pub fn into_lean_checkpoint(self) -> ModelCheckpoint {
        /// One core's resume point, pending instructions, stream and
        /// branch unit.
        type CoreParts = (
            CoreResume,
            Vec<DynInst>,
            CheckpointStream,
            Option<BranchUnit>,
        );
        fn assemble(
            machine_time: u64,
            cores: impl Iterator<Item = CoreParts>,
            memory: MemoryHierarchy,
            sync: SyncController,
        ) -> ModelCheckpoint {
            let (mut per_core, mut streams, mut units) = (Vec::new(), Vec::new(), Vec::new());
            for (resume, pending, stream, unit) in cores {
                per_core.push(resume);
                streams.push(CheckpointStream::resuming_owned(pending, stream));
                units.push(unit);
            }
            // A core without a predictor (one-IPC) makes the whole
            // checkpoint branch-less; the restoring model starts cold tables.
            let branch = units.into_iter().collect();
            ModelCheckpoint {
                machine_time,
                per_core,
                streams,
                branch,
                memory,
                sync,
            }
        }
        // The detailed and one-IPC simulators share one warm-parts shape.
        fn from_detailed(p: WarmParts<CheckpointStream>) -> ModelCheckpoint {
            let cores = p.cores.into_iter();
            let cores = cores.map(|c| (c.resume, c.pending, c.stream, c.branch));
            assemble(p.machine_time, cores, p.memory, p.sync)
        }
        match self {
            AnyMachine::Interval(sim) => {
                let p = sim.into_warm_parts();
                let cores = p.cores.into_iter();
                let cores = cores.map(|c| (c.resume, c.pending, c.stream, Some(c.branch)));
                assemble(p.machine_time, cores, p.memory, p.sync)
            }
            AnyMachine::Detailed(sim) => from_detailed(sim.into_warm_parts()),
            AnyMachine::OneIpc(sim) => from_detailed(sim.into_warm_parts()),
        }
    }

    /// Restores a machine of `kind` — the producing model or any other —
    /// from a checkpoint: builds a fresh machine of `kind` over the
    /// checkpoint's memory hierarchy and warms it from the transferred
    /// stream positions, clocks and branch tables.
    #[must_use]
    pub fn restore(kind: BaseModel, config: &SystemConfig, ckpt: ModelCheckpoint) -> Self {
        let ModelCheckpoint {
            machine_time,
            per_core,
            streams,
            branch,
            memory,
            sync,
        } = ckpt;
        // The checkpoint's warm hierarchy is *moved* into the incoming
        // machine (`with_memory`); building the machine cold and swapping
        // the hierarchy afterwards would allocate and immediately discard a
        // multi-megabyte cache array per restore — real money when sampled
        // simulation restores at every measured unit.
        match kind {
            BaseModel::Interval => {
                let mut sim = IntervalSimulator::with_memory(
                    &config.interval_core,
                    &config.branch,
                    streams,
                    sync,
                    memory,
                );
                sim.resume_cores(machine_time, &per_core, branch);
                AnyMachine::Interval(sim)
            }
            BaseModel::Detailed => {
                let mut sim = DetailedSimulator::with_memory(
                    &config.detailed_core,
                    &config.branch,
                    streams,
                    sync,
                    memory,
                );
                sim.resume_cores(machine_time, &per_core, branch);
                AnyMachine::Detailed(sim)
            }
            BaseModel::OneIpc => {
                let mut sim = OneIpcSimulator::with_memory(streams, sync, memory);
                sim.resume_cores(machine_time, &per_core);
                AnyMachine::OneIpc(sim)
            }
        }
    }

    /// Builds the model-independent summary of the machine's current state.
    /// `model` is the tag the summary reports (a hybrid run tags its summary
    /// with the hybrid spec, whatever model happens to be active at the end).
    #[must_use]
    pub fn summary(&self, model: CoreModel, workload_label: String) -> SimSummary {
        let (cycles, per_core, total_instructions, host_seconds, memory) = match self {
            AnyMachine::Interval(sim) => {
                let r = sim.result();
                (
                    r.cycles,
                    r.per_core
                        .iter()
                        .map(|c| CoreSummary {
                            core: c.core,
                            instructions: c.instructions,
                            cycles: c.cycles,
                        })
                        .collect(),
                    r.total_instructions,
                    r.host_seconds,
                    r.memory,
                )
            }
            AnyMachine::Detailed(sim) => {
                let r = sim.result();
                (
                    r.cycles,
                    r.per_core
                        .iter()
                        .map(|c| CoreSummary {
                            core: c.core,
                            instructions: c.instructions,
                            cycles: c.cycles,
                        })
                        .collect(),
                    r.total_instructions,
                    r.host_seconds,
                    r.memory,
                )
            }
            AnyMachine::OneIpc(sim) => {
                let r = sim.result();
                (
                    r.cycles,
                    r.per_core
                        .iter()
                        .map(|c| CoreSummary {
                            core: c.core,
                            instructions: c.instructions,
                            cycles: c.cycles,
                        })
                        .collect(),
                    r.total_instructions,
                    r.host_seconds,
                    r.memory,
                )
            }
        };
        SimSummary {
            model,
            workload: workload_label,
            cycles,
            per_core,
            total_instructions,
            host_seconds,
            memory,
            swaps: 0,
            sampling: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadSpec;

    fn machine(kind: BaseModel, benchmark: &str, len: u64) -> AnyMachine {
        let config = SystemConfig::hpca2010_baseline(1);
        let built = WorkloadSpec::single(benchmark, len).build(7).unwrap();
        AnyMachine::build(kind, &config, built)
    }

    #[test]
    fn stepping_in_intervals_reaches_completion() {
        let mut m = machine(BaseModel::Interval, "gcc", 6_000);
        assert!(!m.is_done());
        let mut steps = 0;
        while !m.is_done() {
            m.step_interval(1_000);
            steps += 1;
            assert!(steps < 100, "stepping must terminate");
        }
        assert_eq!(m.retired_instructions(), 6_000);
        assert!(m.machine_time() > 0);
    }

    #[test]
    fn stepped_run_matches_uninterrupted_run() {
        let config = SystemConfig::hpca2010_baseline(1);
        let spec = WorkloadSpec::single("mcf", 5_000);
        let mut whole = AnyMachine::build(BaseModel::Interval, &config, spec.build(3).unwrap());
        whole.run_to_completion();
        let mut stepped = AnyMachine::build(BaseModel::Interval, &config, spec.build(3).unwrap());
        while !stepped.is_done() {
            stepped.step_interval(700);
        }
        let a = whole.summary(crate::runner::CoreModel::Interval, "mcf".into());
        let b = stepped.summary(crate::runner::CoreModel::Interval, "mcf".into());
        assert_eq!(a.canonical_record(), b.canonical_record());
    }

    #[test]
    fn checkpoint_reports_warmth_and_stream_position() {
        let mut m = machine(BaseModel::Detailed, "gzip", 4_000);
        m.step_interval(2_000);
        let ckpt = m.into_lean_checkpoint();
        assert_eq!(ckpt.per_core.len(), 1);
        assert!(ckpt.per_core[0].instructions >= 2_000);
        let warmth = ckpt.memory.warmth_summary();
        assert!(warmth.l1d > 0.0, "the L1D must be warm after 2k insts");
        assert!(ckpt.branch.is_some());
        // Replayed + remaining instructions account for the full stream.
        let replay = ckpt.streams[0].replay_len() as u64;
        assert!(replay > 0, "the ROB/fetch queue must hold in-flight work");
    }
}

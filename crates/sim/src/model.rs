//! The unified [`CpuModel`] abstraction over the three timing models.
//!
//! Before this module existed the interval, detailed and one-IPC simulators
//! were three unrelated entry points; nothing could treat "the timing model"
//! as a value. [`CpuModel`] makes the abstraction level a first-class dial:
//! any model can be stepped one interval at a time, checkpointed, and a
//! *different* model can be restored from the checkpoint — which is what the
//! [`hybrid`](crate::hybrid) swap controller exploits to trade accuracy for
//! simulated MIPS *during* a run.
//!
//! A [`ModelCheckpoint`] carries two kinds of state:
//!
//! * the **transferable architectural state** every model understands — the
//!   functional stream position (unretired instructions + generator, as a
//!   [`CheckpointStream`] per core), per-core clocks and retired-instruction
//!   counters, the warm branch-predictor tables, the full memory hierarchy
//!   (cache/TLB/DRAM warmth) and the synchronization state;
//! * the **exact microarchitectural state** of the producing model (window
//!   occupancy and overlap flags, old-window register producer state, ROB
//!   contents), captured as a deep copy of the machine. Restoring into the
//!   *same* model uses it, which makes `restore(checkpoint())` a true
//!   identity; restoring into a *different* model warms the incoming cores
//!   from the transferable state and lets them rebuild their own
//!   microarchitectural state within one interval — the graceful-degradation
//!   path a hybrid swap takes.

use iss_branch::BranchUnit;
use iss_detailed::{DetailedSimulator, OneIpcSimulator};
use iss_interval::IntervalSimulator;
use iss_mem::{MemoryHierarchy, MemoryStats};
use iss_trace::{CheckpointStream, CoreResume, SyncController, ThreadedWorkload};

use crate::config::SystemConfig;
use crate::runner::{BaseModel, CoreModel, CoreSummary, SimSummary};

/// Checkpointed machine state, produced by [`CpuModel::checkpoint`] and
/// consumed by [`AnyMachine::restore`].
#[derive(Debug, Clone)]
pub struct ModelCheckpoint {
    /// The model that produced the checkpoint.
    pub from: BaseModel,
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
    /// Deep copy of the producing machine, for exact same-model resume.
    /// Absent in lean checkpoints ([`CpuModel::checkpoint_lean`]), which the
    /// hybrid swap path takes — a swap restores into a *different* model, so
    /// it never consults the exact copy and need not pay for it.
    exact: Option<Box<AnyMachine>>,
}

impl ModelCheckpoint {
    /// Builds a transferable-state-only checkpoint from functional
    /// components — the bridge the sampled-simulation controller takes from
    /// a functionally fast-forwarded prefix into a timing model. `from` tags
    /// the checkpoint for reporting only: with no exact machine copy, any
    /// [`AnyMachine::restore`] of this checkpoint takes the warm-restore
    /// path regardless of the tag.
    #[must_use]
    pub fn from_functional(
        from: BaseModel,
        machine_time: u64,
        per_core: Vec<CoreResume>,
        streams: Vec<CheckpointStream>,
        branch: Option<Vec<BranchUnit>>,
        memory: MemoryHierarchy,
        sync: SyncController,
    ) -> Self {
        ModelCheckpoint {
            from,
            machine_time,
            per_core,
            streams,
            branch,
            memory,
            sync,
            exact: None,
        }
    }
}

/// The unified interface every timing model implements: step an interval,
/// observe progress, and checkpoint the machine state.
pub trait CpuModel {
    /// Which base model this machine runs.
    fn kind(&self) -> BaseModel;

    /// Whether every core has retired its entire stream.
    fn is_done(&self) -> bool;

    /// Total instructions retired chip-wide so far.
    fn retired_instructions(&self) -> u64;

    /// The machine clock (absolute simulated cycles).
    fn machine_time(&self) -> u64;

    /// Advances until at least `insts` more instructions retire chip-wide or
    /// the run completes. Stepping in intervals composes: the machine passes
    /// through exactly the states an uninterrupted run would.
    fn step_interval(&mut self, insts: u64);

    /// Runs the machine to completion.
    fn run_to_completion(&mut self);

    /// Snapshot of the shared memory-hierarchy statistics (the swap
    /// controller reads miss-rate phase signals from consecutive snapshots).
    fn memory_stats(&self) -> MemoryStats;

    /// Captures the transferable architectural state only (no exact
    /// same-model resume copy) — the cheap checkpoint a cross-model swap
    /// takes.
    fn checkpoint_lean(&self) -> ModelCheckpoint;

    /// Captures the full machine state (see [`ModelCheckpoint`]): the
    /// transferable state plus an exact copy of the producing machine, so a
    /// same-model [`AnyMachine::restore`] is a true identity.
    fn checkpoint(&self) -> ModelCheckpoint;
}

impl CpuModel for IntervalSimulator<CheckpointStream> {
    fn kind(&self) -> BaseModel {
        BaseModel::Interval
    }

    fn is_done(&self) -> bool {
        IntervalSimulator::is_done(self)
    }

    fn retired_instructions(&self) -> u64 {
        self.total_retired()
    }

    fn machine_time(&self) -> u64 {
        self.multi_core_time()
    }

    fn step_interval(&mut self, insts: u64) {
        IntervalSimulator::step_interval(self, insts);
    }

    fn run_to_completion(&mut self) {
        let _ = self.run();
    }

    fn memory_stats(&self) -> MemoryStats {
        self.memory().stats()
    }

    fn checkpoint_lean(&self) -> ModelCheckpoint {
        let per_core: Vec<CoreResume> = self
            .cores()
            .iter()
            .map(|c| CoreResume {
                time: if c.is_done() {
                    c.stats().cycles
                } else {
                    c.core_sim_time()
                },
                instructions: c.stats().instructions,
                done: c.is_done(),
            })
            .collect();
        ModelCheckpoint {
            from: BaseModel::Interval,
            machine_time: self.multi_core_time(),
            per_core,
            streams: self
                .cores()
                .iter()
                .map(|c| CheckpointStream::resuming(c.pending_insts(), c.stream()))
                .collect(),
            branch: Some(
                self.cores()
                    .iter()
                    .map(|c| c.branch_unit().snapshot())
                    .collect(),
            ),
            memory: self.memory().clone(),
            sync: self.sync_controller().clone(),
            exact: None,
        }
    }

    fn checkpoint(&self) -> ModelCheckpoint {
        let mut ckpt = self.checkpoint_lean();
        ckpt.exact = Some(Box::new(AnyMachine::Interval(self.clone())));
        ckpt
    }
}

impl CpuModel for DetailedSimulator<CheckpointStream> {
    fn kind(&self) -> BaseModel {
        BaseModel::Detailed
    }

    fn is_done(&self) -> bool {
        DetailedSimulator::is_done(self)
    }

    fn retired_instructions(&self) -> u64 {
        self.total_retired()
    }

    fn machine_time(&self) -> u64 {
        self.cycle()
    }

    fn step_interval(&mut self, insts: u64) {
        DetailedSimulator::step_interval(self, insts);
    }

    fn run_to_completion(&mut self) {
        let _ = self.run();
    }

    fn memory_stats(&self) -> MemoryStats {
        self.memory().stats()
    }

    fn checkpoint_lean(&self) -> ModelCheckpoint {
        let cycle = self.cycle();
        let per_core: Vec<CoreResume> = self
            .cores()
            .iter()
            .map(|c| CoreResume {
                time: if c.is_done() { c.stats().cycles } else { cycle },
                instructions: c.stats().instructions,
                done: c.is_done(),
            })
            .collect();
        ModelCheckpoint {
            from: BaseModel::Detailed,
            machine_time: cycle,
            per_core,
            streams: self
                .cores()
                .iter()
                .map(|c| CheckpointStream::resuming(c.pending_insts(), c.stream()))
                .collect(),
            branch: Some(
                self.cores()
                    .iter()
                    .map(|c| c.branch_unit().snapshot())
                    .collect(),
            ),
            memory: self.memory().clone(),
            sync: self.sync_controller().clone(),
            exact: None,
        }
    }

    fn checkpoint(&self) -> ModelCheckpoint {
        let mut ckpt = self.checkpoint_lean();
        ckpt.exact = Some(Box::new(AnyMachine::Detailed(self.clone())));
        ckpt
    }
}

impl CpuModel for OneIpcSimulator<CheckpointStream> {
    fn kind(&self) -> BaseModel {
        BaseModel::OneIpc
    }

    fn is_done(&self) -> bool {
        OneIpcSimulator::is_done(self)
    }

    fn retired_instructions(&self) -> u64 {
        self.total_retired()
    }

    fn machine_time(&self) -> u64 {
        self.cycle()
    }

    fn step_interval(&mut self, insts: u64) {
        OneIpcSimulator::step_interval(self, insts);
    }

    fn run_to_completion(&mut self) {
        let _ = self.run();
    }

    fn memory_stats(&self) -> MemoryStats {
        self.memory().stats()
    }

    fn checkpoint_lean(&self) -> ModelCheckpoint {
        let per_core: Vec<CoreResume> = self
            .cores()
            .iter()
            .map(|c| CoreResume {
                time: if c.is_done() {
                    c.stats().cycles
                } else {
                    c.core_time()
                },
                instructions: c.stats().instructions,
                done: c.is_done(),
            })
            .collect();
        ModelCheckpoint {
            from: BaseModel::OneIpc,
            machine_time: self.cycle(),
            per_core,
            streams: self
                .cores()
                .iter()
                .map(|c| CheckpointStream::resuming(c.pending_insts(), c.stream()))
                .collect(),
            branch: None,
            memory: self.memory().clone(),
            sync: self.sync_controller().clone(),
            exact: None,
        }
    }

    fn checkpoint(&self) -> ModelCheckpoint {
        let mut ckpt = self.checkpoint_lean();
        ckpt.exact = Some(Box::new(AnyMachine::OneIpc(self.clone())));
        ckpt
    }
}

/// A whole simulated machine under any of the three base models — the value
/// the runner and the hybrid swap controller hold. All three variants run on
/// [`CheckpointStream`]s so that plain runs and resumed runs share one code
/// path.
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
        Self::from_parts(kind, config, streams, sync)
    }

    /// Builds a machine of `kind` from explicit per-core streams and
    /// synchronization state (the restore path).
    #[must_use]
    pub fn from_parts(
        kind: BaseModel,
        config: &SystemConfig,
        streams: Vec<CheckpointStream>,
        sync: SyncController,
    ) -> Self {
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

    /// Consumes the machine into a lean checkpoint **without cloning** the
    /// memory hierarchy, the streams or the branch tables — the cheap
    /// transition a caller that owns the machine takes (the sampled-run
    /// controller at every timed→functional boundary, the hybrid swap loop
    /// at every swap). Produces exactly the state [`CpuModel::checkpoint_lean`]
    /// captures, minus the copies.
    #[must_use]
    pub fn into_lean_checkpoint(self) -> ModelCheckpoint {
        fn assemble(
            cores: impl IntoIterator<
                Item = (
                    CoreResume,
                    Vec<iss_trace::DynInst>,
                    CheckpointStream,
                    Option<BranchUnit>,
                ),
            >,
        ) -> (
            Vec<CoreResume>,
            Vec<CheckpointStream>,
            Vec<Option<BranchUnit>>,
        ) {
            let mut per_core = Vec::new();
            let mut streams = Vec::new();
            let mut branch = Vec::new();
            for (resume, pending, stream, unit) in cores {
                per_core.push(resume);
                streams.push(CheckpointStream::resuming_owned(pending, stream));
                branch.push(unit);
            }
            (per_core, streams, branch)
        }
        let (from, machine_time, per_core, streams, branch, memory, sync) = match self {
            AnyMachine::Interval(sim) => {
                let parts = sim.into_warm_parts();
                let (per_core, streams, branch) = assemble(
                    parts
                        .cores
                        .into_iter()
                        .map(|c| (c.resume, c.pending, c.stream, Some(c.branch))),
                );
                #[expect(
                    clippy::expect_used,
                    reason = "interval/detailed cores always model a branch predictor; None is a core-model bug"
                )]
                let branch: Vec<BranchUnit> = branch
                    .into_iter()
                    .map(|b| b.expect("interval cores predict branches"))
                    .collect();
                (
                    BaseModel::Interval,
                    parts.machine_time,
                    per_core,
                    streams,
                    Some(branch),
                    parts.memory,
                    parts.sync,
                )
            }
            AnyMachine::Detailed(sim) => {
                let parts = sim.into_warm_parts();
                let (per_core, streams, branch) = assemble(
                    parts
                        .cores
                        .into_iter()
                        .map(|c| (c.resume, c.pending, c.stream, c.branch)),
                );
                #[expect(
                    clippy::expect_used,
                    reason = "interval/detailed cores always model a branch predictor; None is a core-model bug"
                )]
                let branch: Vec<BranchUnit> = branch
                    .into_iter()
                    .map(|b| b.expect("detailed cores predict branches"))
                    .collect();
                (
                    BaseModel::Detailed,
                    parts.machine_time,
                    per_core,
                    streams,
                    Some(branch),
                    parts.memory,
                    parts.sync,
                )
            }
            AnyMachine::OneIpc(sim) => {
                let parts = sim.into_warm_parts();
                let (per_core, streams, _) = assemble(
                    parts
                        .cores
                        .into_iter()
                        .map(|c| (c.resume, c.pending, c.stream, c.branch)),
                );
                (
                    BaseModel::OneIpc,
                    parts.machine_time,
                    per_core,
                    streams,
                    None,
                    parts.memory,
                    parts.sync,
                )
            }
        };
        ModelCheckpoint {
            from,
            machine_time,
            per_core,
            streams,
            branch,
            memory,
            sync,
            exact: None,
        }
    }

    /// Restores a machine of `kind` from a checkpoint. Same-model restores
    /// resume the exact captured state when the checkpoint carries it (a
    /// true identity); cross-model restores — and same-model restores from
    /// lean checkpoints — build a fresh machine of `kind` and warm it from
    /// the checkpoint's transferable state.
    #[must_use]
    pub fn restore(kind: BaseModel, config: &SystemConfig, ckpt: ModelCheckpoint) -> Self {
        if kind == ckpt.from {
            if let Some(exact) = ckpt.exact {
                return *exact;
            }
        }
        // The checkpoint's warm hierarchy is *moved* into the incoming
        // machine (`with_memory`); building the machine cold and swapping
        // the hierarchy afterwards would allocate and immediately discard a
        // multi-megabyte cache array per restore — real money when sampled
        // simulation restores at every measured unit.
        let mut machine = match kind {
            BaseModel::Interval => AnyMachine::Interval(IntervalSimulator::with_memory(
                &config.interval_core,
                &config.branch,
                ckpt.streams,
                ckpt.sync,
                ckpt.memory,
            )),
            BaseModel::Detailed => AnyMachine::Detailed(DetailedSimulator::with_memory(
                &config.detailed_core,
                &config.branch,
                ckpt.streams,
                ckpt.sync,
                ckpt.memory,
            )),
            BaseModel::OneIpc => AnyMachine::OneIpc(OneIpcSimulator::with_memory(
                ckpt.streams,
                ckpt.sync,
                ckpt.memory,
            )),
        };
        match &mut machine {
            AnyMachine::Interval(sim) => {
                sim.resume_cores(ckpt.machine_time, &ckpt.per_core, ckpt.branch.as_deref());
            }
            AnyMachine::Detailed(sim) => {
                sim.resume_cores(ckpt.machine_time, &ckpt.per_core, ckpt.branch.as_deref());
            }
            AnyMachine::OneIpc(sim) => {
                sim.resume_cores(ckpt.machine_time, &ckpt.per_core);
            }
        }
        machine
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

impl CpuModel for AnyMachine {
    fn kind(&self) -> BaseModel {
        match self {
            AnyMachine::Interval(s) => s.kind(),
            AnyMachine::Detailed(s) => s.kind(),
            AnyMachine::OneIpc(s) => s.kind(),
        }
    }

    fn is_done(&self) -> bool {
        match self {
            AnyMachine::Interval(s) => CpuModel::is_done(s),
            AnyMachine::Detailed(s) => CpuModel::is_done(s),
            AnyMachine::OneIpc(s) => CpuModel::is_done(s),
        }
    }

    fn retired_instructions(&self) -> u64 {
        match self {
            AnyMachine::Interval(s) => s.retired_instructions(),
            AnyMachine::Detailed(s) => s.retired_instructions(),
            AnyMachine::OneIpc(s) => s.retired_instructions(),
        }
    }

    fn machine_time(&self) -> u64 {
        match self {
            AnyMachine::Interval(s) => CpuModel::machine_time(s),
            AnyMachine::Detailed(s) => CpuModel::machine_time(s),
            AnyMachine::OneIpc(s) => CpuModel::machine_time(s),
        }
    }

    fn step_interval(&mut self, insts: u64) {
        match self {
            AnyMachine::Interval(s) => CpuModel::step_interval(s, insts),
            AnyMachine::Detailed(s) => CpuModel::step_interval(s, insts),
            AnyMachine::OneIpc(s) => CpuModel::step_interval(s, insts),
        }
    }

    fn run_to_completion(&mut self) {
        match self {
            AnyMachine::Interval(s) => s.run_to_completion(),
            AnyMachine::Detailed(s) => s.run_to_completion(),
            AnyMachine::OneIpc(s) => s.run_to_completion(),
        }
    }

    fn memory_stats(&self) -> MemoryStats {
        match self {
            AnyMachine::Interval(s) => s.memory_stats(),
            AnyMachine::Detailed(s) => s.memory_stats(),
            AnyMachine::OneIpc(s) => s.memory_stats(),
        }
    }

    fn checkpoint_lean(&self) -> ModelCheckpoint {
        match self {
            AnyMachine::Interval(s) => s.checkpoint_lean(),
            AnyMachine::Detailed(s) => s.checkpoint_lean(),
            AnyMachine::OneIpc(s) => s.checkpoint_lean(),
        }
    }

    fn checkpoint(&self) -> ModelCheckpoint {
        match self {
            AnyMachine::Interval(s) => s.checkpoint(),
            AnyMachine::Detailed(s) => s.checkpoint(),
            AnyMachine::OneIpc(s) => s.checkpoint(),
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
        let ckpt = m.checkpoint();
        assert_eq!(ckpt.from, BaseModel::Detailed);
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

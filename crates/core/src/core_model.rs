//! The per-core interval analysis engine.
//!
//! [`IntervalCore`] implements the high-level algorithm of Figure 3 of the
//! paper: it considers the instruction at the window head, charges the
//! appropriate miss-event penalty to the per-core simulated time (emptying
//! the old window on every miss event), scans the window for miss events
//! overlapped by long-latency loads, and otherwise dispatches instructions at
//! the effective dispatch rate derived from the old-window critical path.

use iss_branch::{BranchPredictorConfig, BranchStats, BranchUnit};
use iss_mem::MemoryHierarchy;
use iss_trace::{DynInst, InstructionStream, SyncController, SyncOp, ThreadId};

use crate::config::IntervalCoreConfig;
use crate::old_window::OldWindow;
use crate::stats::IntervalCoreStats;
use crate::window::{DependenceTracker, Window};

/// Transferable warm state of one core, extracted by *consuming* the core:
/// nothing in here is cloned, which is what makes frequent timed→functional
/// transitions in sampled simulation cheap.
#[derive(Debug)]
pub struct CoreWarmParts<S> {
    /// The core's resume point (clock, retired instructions, done flag).
    pub resume: iss_trace::CoreResume,
    /// Instructions fetched into the window but not retired, oldest first.
    pub pending: Vec<DynInst>,
    /// The core's instruction stream, positioned after the pending
    /// instructions.
    pub stream: S,
    /// The warm branch-prediction front-end.
    pub branch: BranchUnit,
}

/// What happened when the core tried to dispatch the window-head instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DispatchOutcome {
    /// The instruction was dispatched (and possibly charged a penalty).
    Dispatched,
    /// The instruction cannot proceed yet (lock held elsewhere, join pending).
    Blocked,
    /// The window is empty and the stream is exhausted.
    Empty,
}

/// One core simulated with the interval model.
#[derive(Debug, Clone)]
pub struct IntervalCore<S> {
    core_id: ThreadId,
    config: IntervalCoreConfig,
    window: Window,
    old_window: OldWindow,
    branch_unit: BranchUnit,
    stream: S,
    stream_exhausted: bool,
    core_sim_time: u64,
    dispatch_credit: f64,
    stats: IntervalCoreStats,
    /// Reusable dependence-scan scratch state, allocated once; the overlap
    /// scan runs on every long-latency miss and must not allocate.
    overlap_tracker: DependenceTracker,
    done: bool,
}

impl<S: InstructionStream> IntervalCore<S> {
    /// Creates a core fed by `stream`.
    ///
    /// # Panics
    ///
    /// Panics if either configuration is invalid.
    #[must_use]
    pub fn new(
        core_id: ThreadId,
        config: &IntervalCoreConfig,
        branch_config: &BranchPredictorConfig,
        stream: S,
    ) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid interval core configuration: {e}"));
        IntervalCore {
            core_id,
            config: *config,
            window: Window::new(config.window_size),
            old_window: OldWindow::new(config.old_window_size, config.dispatch_width),
            branch_unit: BranchUnit::new(branch_config),
            stream,
            stream_exhausted: false,
            core_sim_time: 0,
            dispatch_credit: 0.0,
            stats: IntervalCoreStats::default(),
            overlap_tracker: DependenceTracker::with_capacity(config.window_size),
            done: false,
        }
    }

    /// The core index in the multi-core system.
    #[must_use]
    pub fn core_id(&self) -> ThreadId {
        self.core_id
    }

    /// The per-core simulated time.
    #[must_use]
    pub fn core_sim_time(&self) -> u64 {
        self.core_sim_time
    }

    /// Whether this core has retired its entire stream.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Accumulated interval statistics.
    #[must_use]
    pub fn stats(&self) -> IntervalCoreStats {
        self.stats
    }

    /// Branch prediction statistics of this core's front-end.
    #[must_use]
    pub fn branch_stats(&self) -> BranchStats {
        self.branch_unit.stats()
    }

    /// Replaces the branch front-end with `unit` (typically the warm tables
    /// carried over from an outgoing model at a hybrid swap).
    pub fn install_branch_unit(&mut self, unit: BranchUnit) {
        self.branch_unit = unit;
    }

    /// Consumes the core into its transferable warm state (see
    /// [`CoreWarmParts`]): the window's fetched-but-unretired instructions,
    /// oldest first, must be replayed to the incoming model, since they have
    /// already been consumed from the stream.
    #[must_use]
    pub fn into_warm_parts(self) -> CoreWarmParts<S> {
        let resume = iss_trace::CoreResume {
            time: if self.done {
                self.stats.cycles
            } else {
                self.core_sim_time
            },
            instructions: self.stats.instructions,
            done: self.done,
        };
        CoreWarmParts {
            resume,
            pending: self.window.iter().copied().collect(),
            stream: self.stream,
            branch: self.branch_unit,
        }
    }

    /// Positions a freshly built core at a checkpoint's resume point: its
    /// clock, its retired-instruction base, and (for cores that had already
    /// finished) the final state. Microarchitectural warm-up state (old
    /// window, overlap flags, dispatch credit) restarts cold — the interval
    /// model rebuilds it within one interval.
    pub fn resume_at(&mut self, resume: &iss_trace::CoreResume) {
        self.core_sim_time = resume.time;
        self.stats.instructions = resume.instructions;
        if resume.done {
            self.done = true;
            self.stats.cycles = resume.time;
        }
    }

    fn refill_window(&mut self) {
        while self.window.has_room() && !self.stream_exhausted {
            match self.stream.next_inst() {
                Some(inst) => self.window.push_tail(inst),
                None => self.stream_exhausted = true,
            }
        }
    }

    /// Simulates one cycle of this core at multi-core time `multi_time`.
    ///
    /// Only does work when the per-core simulated time has caught up with the
    /// multi-core time (event-driven at core granularity); otherwise the core
    /// is still "paying" for an earlier miss-event penalty.
    pub fn step_cycle(
        &mut self,
        multi_time: u64,
        mem: &mut MemoryHierarchy,
        sync: &mut SyncController,
    ) {
        if self.done {
            return;
        }
        self.refill_window();
        if self.window.is_empty() && self.stream_exhausted {
            self.finish(multi_time, sync);
            return;
        }
        if self.core_sim_time > multi_time {
            return;
        }
        self.core_sim_time = multi_time;

        if sync.is_blocked(self.core_id) {
            self.stats.sync_blocked_cycles += 1;
            self.core_sim_time = multi_time + 1;
            return;
        }

        // Little's law: the old-window critical path bounds the sustainable
        // dispatch rate. Fractional rates are accumulated as credit.
        self.dispatch_credit += self
            .old_window
            .effective_dispatch_rate(self.config.window_size);
        let cap = 2.0 * f64::from(self.config.dispatch_width);
        if self.dispatch_credit > cap {
            self.dispatch_credit = cap;
        }

        while self.core_sim_time == multi_time && self.dispatch_credit >= 1.0 {
            match self.try_dispatch_head(multi_time, mem, sync) {
                DispatchOutcome::Dispatched => {
                    self.dispatch_credit -= 1.0;
                }
                DispatchOutcome::Blocked => break,
                DispatchOutcome::Empty => {
                    self.finish(multi_time, sync);
                    return;
                }
            }
        }

        if self.core_sim_time == multi_time {
            self.core_sim_time = multi_time + 1;
        }
    }

    /// Empties the old window after a miss event, unless the ablation knob
    /// keeping it across miss events is active.
    fn reset_old_window(&mut self) {
        if self.config.empty_old_window_on_miss {
            self.old_window.clear();
        }
    }

    fn finish(&mut self, multi_time: u64, sync: &mut SyncController) {
        self.done = true;
        if self.core_sim_time < multi_time {
            self.core_sim_time = multi_time;
        }
        self.stats.cycles = self.core_sim_time;
        sync.mark_finished(self.core_id);
    }

    /// Implements lines 9-65 of the paper's pseudocode for the instruction at
    /// the window head.
    fn try_dispatch_head(
        &mut self,
        multi_time: u64,
        mem: &mut MemoryHierarchy,
        sync: &mut SyncController,
    ) -> DispatchOutcome {
        // The window is already full here: `step_cycle` refills before the
        // dispatch loop and the dispatch path refills after every pop.
        let Some((&inst, flags)) = self.window.head_entry() else {
            return DispatchOutcome::Empty;
        };
        let entry_i_overlapped = flags.i_overlapped;
        let entry_br_overlapped = flags.br_overlapped;
        let entry_d_overlapped = flags.d_overlapped;
        let core = self.core_id;

        // --- synchronization (functional-first: the timing model decides how
        //     long the thread is blocked at each synchronization point) ---
        if let Some(op) = inst.sync {
            match op {
                SyncOp::BarrierArrive { id } => {
                    sync.arrive_barrier(core, id);
                    // The barrier instruction itself serializes the pipeline;
                    // the drain penalty is charged below. If the barrier did
                    // not release, the next cycles idle via `is_blocked`.
                }
                SyncOp::LockAcquire { id } => {
                    if !sync.try_acquire(core, id) {
                        return DispatchOutcome::Blocked;
                    }
                }
                SyncOp::LockRelease { id } => sync.release(core, id),
                SyncOp::ThreadSpawn => {}
                SyncOp::ThreadJoin { child } => {
                    if !sync.join(core, child) {
                        return DispatchOutcome::Blocked;
                    }
                }
            }
        }

        let mut extra_exec_latency = 0;

        // --- I-cache and I-TLB (lines 11-18) ---
        if !entry_i_overlapped {
            let resp = mem.access_instruction(core, inst.pc, multi_time);
            if resp.latency > 0 {
                self.core_sim_time += resp.latency;
                self.stats.instruction_miss_events += 1;
                self.stats.instruction_miss_penalty += resp.latency;
                self.stats.intervals += 1;
                self.reset_old_window();
            }
        }

        // --- branch prediction (lines 20-28) ---
        if inst.is_branch() && !entry_br_overlapped {
            if let Some(info) = inst.branch {
                let outcome = self.branch_unit.predict_and_update(inst.pc, &info);
                if outcome.mispredicted {
                    let resolution = self.old_window.branch_resolution_time(&inst);
                    let penalty = resolution + self.config.frontend_pipeline_depth;
                    self.core_sim_time += penalty;
                    self.stats.branch_miss_events += 1;
                    self.stats.branch_miss_penalty += penalty;
                    self.stats.intervals += 1;
                    self.reset_old_window();
                }
            }
        }

        // --- loads and stores (lines 30-53) ---
        if let Some(acc) = inst.mem {
            if acc.is_store || !entry_d_overlapped {
                let resp = mem.access_data(core, acc.vaddr, acc.is_store, multi_time);
                if !acc.is_store && resp.is_long_latency() {
                    // Scan the window for independent miss events hidden
                    // underneath this long-latency load (second-order
                    // effects). Overlapping loads expose memory-level
                    // parallelism, so the group of overlapped misses costs
                    // the *maximum* of their latencies, not the sum; with a
                    // saturated off-chip channel the later misses of the
                    // group queue behind the earlier ones, and that queueing
                    // is what makes the maximum exceed the head's own
                    // latency.
                    let slowest_overlapped = if self.config.model_overlap_effects {
                        self.scan_overlap(&inst, multi_time, mem)
                    } else {
                        0
                    };
                    let penalty = resp.latency.max(slowest_overlapped);
                    self.core_sim_time += penalty;
                    self.stats.long_latency_events += 1;
                    self.stats.long_latency_penalty += penalty;
                    self.stats.bandwidth_residual_penalty += penalty.saturating_sub(resp.latency);
                    self.stats.intervals += 1;
                    self.reset_old_window();
                } else if !acc.is_store {
                    // Short (L1-miss / L2-hit) load latencies are not miss
                    // events; they lengthen the data-flow critical path.
                    extra_exec_latency = resp.latency;
                }
            }
        }

        // --- serializing instructions (lines 55-59) ---
        if inst.is_serializing() {
            let drain = self.old_window.window_drain_time();
            self.core_sim_time += drain;
            self.stats.serializing_events += 1;
            self.stats.serializing_penalty += drain;
            self.stats.intervals += 1;
            self.reset_old_window();
        }

        // --- dispatch (lines 61-65) ---
        self.stats.instructions += 1;
        self.old_window.insert(&inst, extra_exec_latency);
        self.window.pop_head();
        self.refill_window();
        DispatchOutcome::Dispatched
    }

    /// Lines 35-49: on a long-latency load at the head, every instruction in
    /// the window has its I-cache access performed underneath the load, and
    /// independent branches and loads have their miss events resolved
    /// underneath it as well. The scan stops at a serializing instruction or
    /// at an overlapped branch that turns out to be mispredicted.
    ///
    /// Overlapped loads that depend on *each other* (pointer chasing) do not
    /// expose memory-level parallelism: a chained load can only issue once
    /// the load producing its address has returned. The scan therefore
    /// accumulates per-register chain latencies and reports the critical
    /// path through the overlapped misses, not merely the slowest single
    /// miss — without this, chains of DRAM misses are billed as one miss and
    /// memory-bound pointer-chasing benchmarks (mcf) come out far too fast.
    fn scan_overlap(
        &mut self,
        blocking_load: &DynInst,
        multi_time: u64,
        mem: &mut MemoryHierarchy,
    ) -> u64 {
        let mut slowest_overlapped = 0;
        // Completion time (relative to the blocking load's issue) of the
        // value in each architectural register, considering only latencies
        // accumulated by overlapped loads during this scan.
        let mut chain = [0u64; iss_trace::NUM_ARCH_REGS as usize];
        let core = self.core_id;
        let stats = &mut self.stats;
        let branch_unit = &mut self.branch_unit;
        let tracker = &mut self.overlap_tracker;
        tracker.reset_rooted_at(blocking_load);
        // Walk the window columns structure-of-arrays: the cursor yields each
        // instruction in place (no entry copies) and `slot` addresses the
        // matching overlap flags.
        let (cursor, flags) = self.window.behind_head_mut();
        for (slot, inst) in cursor {
            // Synchronizing and serializing instructions drain the window and
            // terminate the overlap scan.
            if inst.is_serializing() || inst.sync.is_some() {
                break;
            }
            if !flags[slot].i_overlapped {
                flags[slot].i_overlapped = true;
                mem.access_instruction(core, inst.pc, multi_time);
                stats.overlapped_instruction_accesses += 1;
            }
            let dependent = tracker.depends_and_propagate(inst);
            if inst.is_branch() && !flags[slot].br_overlapped {
                if let Some(info) = inst.branch {
                    if dependent {
                        // A branch that depends on the blocking load resolves
                        // only after the load returns, so its (potential)
                        // misprediction is not hidden: leave it to be charged
                        // at the head, and stop overlapping younger
                        // instructions when it will turn out mispredicted —
                        // they are wrong-path work. (Refinement over the
                        // paper's pseudocode, which keeps scanning; see
                        // DESIGN.md.)
                        let will_mispredict = branch_unit.would_mispredict(inst.pc, &info);
                        if will_mispredict {
                            break;
                        }
                    } else {
                        flags[slot].br_overlapped = true;
                        let outcome = branch_unit.predict_and_update(inst.pc, &info);
                        stats.overlapped_branches += 1;
                        if outcome.mispredicted {
                            break;
                        }
                    }
                }
            }
            // The earliest this instruction can issue, given the overlapped
            // loads feeding its source registers.
            let ready_at = inst
                .src_regs()
                .map(|r| chain.get(r as usize).copied().unwrap_or(0))
                .max()
                .unwrap_or(0);
            if let Some(acc) = inst.mem {
                if !acc.is_store && !dependent && !flags[slot].d_overlapped {
                    flags[slot].d_overlapped = true;
                    // The access is issued at its chain-ready time, not at
                    // the scan time: a load waiting on an earlier overlapped
                    // miss reaches the DRAM queue only after that miss
                    // returns, so it must not be charged the same-cycle
                    // queueing the truly-parallel misses pay.
                    let resp = mem.access_data(core, acc.vaddr, false, multi_time + ready_at);
                    stats.overlapped_loads += 1;
                    if resp.is_long_latency() {
                        let completes_at = ready_at + resp.latency;
                        slowest_overlapped = slowest_overlapped.max(completes_at);
                        if let Some(dst) = inst.dst {
                            // Out-of-range ids (hand-built test instructions
                            // only) are simply not chain-tracked, matching
                            // the `unwrap_or(0)` on the read side.
                            if let Some(reg) = chain.get_mut(dst as usize) {
                                *reg = completes_at;
                            }
                            continue;
                        }
                    }
                    // Short (L2-hit) latencies are already accounted for by
                    // the effective-dispatch-rate model through the old
                    // window's critical path; adding them to the chain would
                    // double-charge them.
                }
            }
            if let Some(dst) = inst.dst {
                if let Some(reg) = chain.get_mut(dst as usize) {
                    *reg = if dependent {
                        // A root-dependent instruction executes only after
                        // the blocking load returns; it contributes no
                        // overlapped-chain latency, and its redefinition
                        // severs any earlier chain through this register.
                        0
                    } else {
                        // Non-load results are ready when their inputs are
                        // (the cycle-scale execution latency is negligible
                        // next to the memory latencies the chain tracks).
                        ready_at
                    };
                }
            }
        }
        slowest_overlapped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iss_mem::MemoryConfig;
    use iss_trace::{catalog, SyntheticStream};

    fn run_single(
        name: &str,
        len: u64,
        core_cfg: &IntervalCoreConfig,
        branch_cfg: &BranchPredictorConfig,
        mem_cfg: &MemoryConfig,
    ) -> IntervalCoreStats {
        let profile = catalog::profile(name).unwrap();
        let stream = SyntheticStream::new(&profile, 0, 7, len);
        let mut core = IntervalCore::new(0, core_cfg, branch_cfg, stream);
        let mut mem = MemoryHierarchy::new(mem_cfg);
        let mut sync = SyncController::new(1);
        let mut t = 0;
        while !core.is_done() && t < 50_000_000 {
            core.step_cycle(t, &mut mem, &mut sync);
            t += 1;
        }
        assert!(core.is_done(), "core must finish within the cycle bound");
        core.stats()
    }

    #[test]
    fn retires_every_instruction_exactly_once() {
        let stats = run_single(
            "gzip",
            10_000,
            &IntervalCoreConfig::hpca2010_baseline(),
            &BranchPredictorConfig::hpca2010_baseline(),
            &MemoryConfig::hpca2010_baseline(1),
        );
        assert_eq!(stats.instructions, 10_000);
        assert!(stats.cycles > 0);
    }

    #[test]
    fn perfect_everything_reaches_near_dispatch_width() {
        let stats = run_single(
            "swim",
            20_000,
            &IntervalCoreConfig::hpca2010_baseline(),
            &BranchPredictorConfig::perfect(),
            &MemoryConfig::hpca2010_baseline(1)
                .with_perfect_instruction_side()
                .with_perfect_data_side(),
        );
        let ipc = stats.ipc();
        assert!(
            ipc > 1.0,
            "IPC {ipc} should be well above 1 with no miss events"
        );
        assert!(
            ipc <= 4.0 + 1e-9,
            "IPC {ipc} cannot exceed the dispatch width"
        );
        assert_eq!(stats.long_latency_events, 0);
        assert_eq!(stats.branch_miss_events, 0);
        assert_eq!(stats.instruction_miss_events, 0);
    }

    #[test]
    fn memory_bound_profile_is_dominated_by_long_latency_loads() {
        let stats = run_single(
            "mcf",
            20_000,
            &IntervalCoreConfig::hpca2010_baseline(),
            &BranchPredictorConfig::perfect(),
            &MemoryConfig::hpca2010_baseline(1).with_perfect_instruction_side(),
        );
        assert!(stats.long_latency_events > 0);
        assert!(
            stats.long_latency_penalty > stats.branch_miss_penalty,
            "mcf must be memory-bound"
        );
        assert!(stats.ipc() < 1.5, "mcf IPC {} should be low", stats.ipc());
    }

    #[test]
    fn branchy_profile_pays_branch_penalties_when_caches_are_perfect() {
        let stats = run_single(
            "vpr",
            20_000,
            &IntervalCoreConfig::hpca2010_baseline(),
            &BranchPredictorConfig::hpca2010_baseline(),
            &MemoryConfig::hpca2010_baseline(1)
                .with_perfect_instruction_side()
                .with_perfect_data_side(),
        );
        assert!(stats.branch_miss_events > 0);
        assert_eq!(stats.long_latency_events, 0);
        assert!(stats.branch_miss_penalty > 0);
        // Every branch penalty includes at least the front-end refill.
        assert!(stats.branch_miss_penalty >= stats.branch_miss_events * 7);
    }

    #[test]
    fn overlap_scan_records_second_order_events() {
        let stats = run_single(
            "mcf",
            30_000,
            &IntervalCoreConfig::hpca2010_baseline(),
            &BranchPredictorConfig::hpca2010_baseline(),
            &MemoryConfig::hpca2010_baseline(1),
        );
        assert!(
            stats.overlapped_loads > 0,
            "a pointer-chasing, memory-bound profile must expose some MLP"
        );
        assert!(stats.overlapped_instruction_accesses > 0);
    }

    #[test]
    fn cycles_are_monotone_in_penalties() {
        let cheap = run_single(
            "gcc",
            15_000,
            &IntervalCoreConfig::hpca2010_baseline(),
            &BranchPredictorConfig::perfect(),
            &MemoryConfig::hpca2010_baseline(1)
                .with_perfect_instruction_side()
                .with_perfect_data_side(),
        );
        let real = run_single(
            "gcc",
            15_000,
            &IntervalCoreConfig::hpca2010_baseline(),
            &BranchPredictorConfig::hpca2010_baseline(),
            &MemoryConfig::hpca2010_baseline(1),
        );
        assert!(real.cycles > cheap.cycles, "miss events must cost cycles");
        assert!(real.total_penalty() > 0);
        // With perfect predictors and caches the only penalties left are the
        // (rare) serializing instructions.
        assert_eq!(cheap.branch_miss_penalty, 0);
        assert_eq!(cheap.long_latency_penalty, 0);
        assert_eq!(cheap.instruction_miss_penalty, 0);
    }

    #[test]
    fn serializing_instructions_charge_drain_time() {
        let stats = run_single(
            "x264",
            20_000,
            &IntervalCoreConfig::hpca2010_baseline(),
            &BranchPredictorConfig::perfect(),
            &MemoryConfig::hpca2010_baseline(1)
                .with_perfect_instruction_side()
                .with_perfect_data_side(),
        );
        assert!(
            stats.serializing_events > 0,
            "full-system profiles serialize occasionally"
        );
    }
}

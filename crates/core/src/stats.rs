//! Per-core statistics of the interval model.

/// Classification of the miss events that terminate intervals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MissEventKind {
    /// L1 instruction cache or I-TLB miss.
    InstructionMiss,
    /// Branch misprediction.
    BranchMisprediction,
    /// Long-latency load (last-level cache miss, coherence miss or D-TLB
    /// miss).
    LongLatencyLoad,
    /// Serializing instruction (window drain).
    Serializing,
}

/// Statistics accumulated by one interval-simulated core.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IntervalCoreStats {
    /// Instructions dispatched (= retired; the model is functional-first and
    /// never walks wrong paths).
    pub instructions: u64,
    /// Core cycles (per-core simulated time at completion).
    pub cycles: u64,
    /// Cycles the core was blocked on synchronization (barriers, locks,
    /// joins).
    pub sync_blocked_cycles: u64,
    /// Cycles the core had drained its stream and was idle.
    pub finished_idle_cycles: u64,

    /// I-cache/I-TLB miss events charged at the window head.
    pub instruction_miss_events: u64,
    /// Penalty cycles charged to instruction misses.
    pub instruction_miss_penalty: u64,
    /// Branch misprediction events charged at the window head.
    pub branch_miss_events: u64,
    /// Penalty cycles charged to branch mispredictions (resolution +
    /// front-end refill).
    pub branch_miss_penalty: u64,
    /// Long-latency load events charged at the window head.
    pub long_latency_events: u64,
    /// Penalty cycles charged to long-latency loads.
    pub long_latency_penalty: u64,
    /// Serializing-instruction events.
    pub serializing_events: u64,
    /// Penalty cycles charged to serializing instructions (window drain).
    pub serializing_penalty: u64,
    /// Portion of the long-latency penalty contributed by overlapped misses
    /// whose completion exceeded the blocking load's own latency — off-chip
    /// bandwidth queueing and the serialization of dependent (pointer-chase)
    /// miss chains both make the group critical path longer than the head
    /// miss. Included in `long_latency_penalty`.
    pub bandwidth_residual_penalty: u64,

    /// Miss events resolved underneath a long-latency load (second-order
    /// overlap effects): instruction-side accesses.
    pub overlapped_instruction_accesses: u64,
    /// Branches predicted underneath a long-latency load.
    pub overlapped_branches: u64,
    /// Data accesses performed underneath a long-latency load (memory-level
    /// parallelism).
    pub overlapped_loads: u64,

    /// Number of intervals (miss events of any kind).
    pub intervals: u64,
}

impl IntervalCoreStats {
    /// Instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Average interval length in instructions (instructions between
    /// consecutive miss events).
    #[must_use]
    pub fn average_interval_length(&self) -> f64 {
        if self.intervals == 0 {
            self.instructions as f64
        } else {
            self.instructions as f64 / self.intervals as f64
        }
    }

    /// Total penalty cycles across all miss-event classes.
    #[must_use]
    pub fn total_penalty(&self) -> u64 {
        self.instruction_miss_penalty
            + self.branch_miss_penalty
            + self.long_latency_penalty
            + self.serializing_penalty
    }

    /// Penalty cycles charged to one miss-event class.
    #[must_use]
    pub fn penalty(&self, kind: MissEventKind) -> u64 {
        match kind {
            MissEventKind::InstructionMiss => self.instruction_miss_penalty,
            MissEventKind::BranchMisprediction => self.branch_miss_penalty,
            MissEventKind::LongLatencyLoad => self.long_latency_penalty,
            MissEventKind::Serializing => self.serializing_penalty,
        }
    }
}

/// Final result for one core of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreResult {
    /// Core index.
    pub core: usize,
    /// Instructions retired by this core.
    pub instructions: u64,
    /// Per-core cycle count at which this core finished its stream.
    pub cycles: u64,
    /// Detailed interval statistics.
    pub stats: IntervalCoreStats,
}

impl CoreResult {
    /// Instructions per cycle of this core.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_and_interval_length() {
        let s = IntervalCoreStats {
            instructions: 1000,
            cycles: 500,
            intervals: 10,
            ..Default::default()
        };
        assert!((s.ipc() - 2.0).abs() < 1e-12);
        assert!((s.average_interval_length() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn zero_cycles_gives_zero_ipc() {
        let s = IntervalCoreStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.average_interval_length(), 0.0);
    }

    #[test]
    fn penalty_accessors_sum() {
        let s = IntervalCoreStats {
            instruction_miss_penalty: 10,
            branch_miss_penalty: 20,
            long_latency_penalty: 30,
            serializing_penalty: 40,
            ..Default::default()
        };
        assert_eq!(s.total_penalty(), 100);
        assert_eq!(s.penalty(MissEventKind::InstructionMiss), 10);
        assert_eq!(s.penalty(MissEventKind::BranchMisprediction), 20);
        assert_eq!(s.penalty(MissEventKind::LongLatencyLoad), 30);
        assert_eq!(s.penalty(MissEventKind::Serializing), 40);
    }

    #[test]
    fn core_result_ipc() {
        let r = CoreResult {
            core: 0,
            instructions: 400,
            cycles: 200,
            stats: IntervalCoreStats::default(),
        };
        assert!((r.ipc() - 2.0).abs() < 1e-12);
    }
}

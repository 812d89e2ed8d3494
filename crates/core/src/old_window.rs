//! The "old window": an online data-flow model over recently dispatched
//! instructions.
//!
//! The paper's "old window approach" estimates three quantities that prior
//! interval-analysis work obtained from an offline profiling pass:
//!
//! * the **critical path length** through the most recently dispatched
//!   `W` instructions, approximated as `tail_time - head_time` of the
//!   data-flow issue times;
//! * the **effective dispatch rate**, via Little's law:
//!   `min(dispatch_width, W / critical_path_length)`;
//! * the **branch resolution time** (longest dependence chain from the old
//!   window head to a mispredicted branch) and the **window drain time**
//!   (`max(occupancy / dispatch_width, critical_path_length)`).
//!
//! Each instruction inserted at the old-window tail gets an *issue time*
//! equal to the maximum issue time of its producers plus its own execution
//! latency (including any L1 D-cache miss latency). The old window is emptied
//! on every miss event so that the interval-length dependence of the branch
//! resolution time and drain time is modeled (Section 3.2 of the paper).

use std::collections::VecDeque;

use iss_trace::{DynInst, FxHashMap, RegId, NUM_ARCH_REGS};

/// Issue time of the most recent producer of each architectural register,
/// backed by a flat epoch-stamped array sized once at construction.
///
/// Both operations the interval hot loop performs are allocation-free and
/// cheap: a lookup is one bounds-checked index (no hashing), and `clear` —
/// called on *every* miss event — is O(1), just an epoch bump that lazily
/// invalidates every slot.
#[derive(Debug, Clone)]
struct RegIssueMap {
    epoch: u32,
    /// `(epoch_written, issue_time)` per register id.
    slots: Vec<(u32, u64)>,
}

impl RegIssueMap {
    fn new() -> Self {
        RegIssueMap {
            epoch: 1,
            slots: vec![(0, 0); NUM_ARCH_REGS as usize],
        }
    }

    #[inline]
    fn get(&self, r: RegId) -> Option<u64> {
        match self.slots.get(r as usize) {
            Some(&(written, t)) if written == self.epoch => Some(t),
            _ => None,
        }
    }

    #[inline]
    fn insert(&mut self, r: RegId, t: u64) {
        let i = r as usize;
        if i >= self.slots.len() {
            // Register ids beyond the architectural set only appear in
            // hand-built test instructions; grow once and keep going.
            self.slots.resize(i + 1, (0, 0));
        }
        self.slots[i] = (self.epoch, t);
    }

    fn clear(&mut self) {
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                // Epoch wrap (after 2^32 - 1 miss events): hard-reset the
                // stamps so stale entries cannot alias the restarted epoch.
                for s in &mut self.slots {
                    *s = (0, 0);
                }
                1
            }
        };
    }
}

/// Data-flow model over the last `capacity` dispatched instructions.
#[derive(Debug, Clone)]
pub struct OldWindow {
    capacity: usize,
    dispatch_width: u32,
    /// Issue times of the resident instructions, oldest first.
    issue_times: VecDeque<u64>,
    /// Issue time of the most recent producer of each register.
    reg_issue: RegIssueMap,
    /// Issue time of the most recent store to each cache line (64-byte
    /// granularity) — memory dependences.
    store_issue: FxHashMap<u64, u64>,
    head_time: u64,
    tail_time: u64,
}

const LINE_SHIFT: u32 = 6;

impl OldWindow {
    /// Creates an empty old window.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `dispatch_width` is zero.
    #[must_use]
    pub fn new(capacity: usize, dispatch_width: u32) -> Self {
        assert!(capacity > 0, "old window capacity must be non-zero");
        assert!(dispatch_width > 0, "dispatch width must be non-zero");
        OldWindow {
            capacity,
            dispatch_width,
            issue_times: VecDeque::with_capacity(capacity),
            reg_issue: RegIssueMap::new(),
            store_issue: FxHashMap::default(),
            head_time: 0,
            tail_time: 0,
        }
    }

    /// Number of instructions currently tracked.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.issue_times.len()
    }

    /// Earliest-possible issue time of `inst` given the producers currently
    /// in the old window (its dependence height), *excluding* the
    /// instruction's own execution latency.
    fn dependence_time(&self, inst: &DynInst) -> u64 {
        let mut t = self.head_time;
        for r in inst.src_regs() {
            if let Some(ti) = self.reg_issue.get(r) {
                t = t.max(ti);
            }
        }
        if let Some(mem) = &inst.mem {
            if !mem.is_store {
                if let Some(&ts) = self.store_issue.get(&(mem.vaddr >> LINE_SHIFT)) {
                    t = t.max(ts);
                }
            }
        }
        t
    }

    /// Inserts a dispatched instruction at the tail. `extra_latency` is any
    /// additional execution latency observed by the miss-event simulators
    /// (for example the L1-miss/L2-hit latency of a load that is not a
    /// long-latency miss event).
    pub fn insert(&mut self, inst: &DynInst, extra_latency: u64) {
        let issue = self.dependence_time(inst) + inst.exec_latency() + extra_latency;
        if let Some(dst) = inst.dst {
            self.reg_issue.insert(dst, issue);
        }
        if let Some(mem) = &inst.mem {
            if mem.is_store {
                self.store_issue.insert(mem.vaddr >> LINE_SHIFT, issue);
            }
        }
        self.issue_times.push_back(issue);
        self.tail_time = self.tail_time.max(issue);
        if self.issue_times.len() > self.capacity {
            #[expect(
                clippy::expect_used,
                reason = "pop from a queue guarded by the caller's occupancy check"
            )]
            let removed = self.issue_times.pop_front().expect("non-empty");
            self.head_time = self.head_time.max(removed);
        }
    }

    /// Approximate critical path length through the old window
    /// (`tail_time - head_time`).
    #[must_use]
    pub fn critical_path_length(&self) -> u64 {
        self.tail_time.saturating_sub(self.head_time)
    }

    /// Effective dispatch rate via Little's law: the out-of-order engine
    /// cannot sustain more than `window_size / critical_path_length`
    /// instructions per cycle, capped by the designed dispatch width.
    #[must_use]
    pub fn effective_dispatch_rate(&self, window_size: usize) -> f64 {
        let cp = self.critical_path_length();
        let width = f64::from(self.dispatch_width);
        if cp == 0 {
            return width;
        }
        let rate = window_size as f64 / cp as f64;
        rate.min(width).max(1e-3)
    }

    /// Branch resolution time: the longest chain of dependent instructions
    /// (including execution latencies) leading to the mispredicted branch,
    /// measured from the old-window head.
    #[must_use]
    pub fn branch_resolution_time(&self, branch: &DynInst) -> u64 {
        let issue = self.dependence_time(branch) + branch.exec_latency();
        issue.saturating_sub(self.head_time)
    }

    /// Window drain time on a serializing instruction: the larger of the
    /// occupancy divided by the dispatch width and the critical path length.
    #[must_use]
    pub fn window_drain_time(&self) -> u64 {
        let by_width = (self.occupancy() as u64).div_ceil(u64::from(self.dispatch_width));
        by_width.max(self.critical_path_length())
    }

    /// Empties the old window (called on every miss event so that branch
    /// resolution and drain times reflect the current interval length only).
    pub fn clear(&mut self) {
        self.issue_times.clear();
        self.reg_issue.clear();
        self.store_issue.clear();
        self.head_time = self.tail_time;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iss_trace::{MemAccess, OpClass};

    fn alu(seq: u64, dst: Option<RegId>, srcs: [Option<RegId>; 2]) -> DynInst {
        DynInst {
            seq,
            pc: 0x1000 + seq * 4,
            op: OpClass::IntAlu,
            srcs,
            dst,
            mem: None,
            branch: None,
            sync: None,
        }
    }

    fn load(seq: u64, dst: RegId, addr: u64, src: Option<RegId>) -> DynInst {
        DynInst {
            seq,
            pc: 0x1000 + seq * 4,
            op: OpClass::Load,
            srcs: [src, None],
            dst: Some(dst),
            mem: Some(MemAccess {
                vaddr: addr,
                size: 8,
                is_store: false,
                shared: false,
            }),
            branch: None,
            sync: None,
        }
    }

    fn store(seq: u64, addr: u64, src: Option<RegId>) -> DynInst {
        DynInst {
            seq,
            pc: 0x1000 + seq * 4,
            op: OpClass::Store,
            srcs: [src, None],
            dst: None,
            mem: Some(MemAccess {
                vaddr: addr,
                size: 8,
                is_store: true,
                shared: false,
            }),
            branch: None,
            sync: None,
        }
    }

    #[test]
    fn independent_instructions_have_unit_critical_path() {
        let mut ow = OldWindow::new(256, 4);
        for i in 0..100 {
            ow.insert(&alu(i, Some((i % 30) as RegId), [None, None]), 0);
        }
        // Every instruction issues at head_time + 1: the critical path is the
        // single-instruction latency.
        assert_eq!(ow.critical_path_length(), 1);
        assert!((ow.effective_dispatch_rate(256) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn dependent_chain_grows_critical_path() {
        let mut ow = OldWindow::new(256, 4);
        // r1 <- r1 + .. chain of 50 single-cycle ops.
        for i in 0..50 {
            ow.insert(&alu(i, Some(1), [Some(1), None]), 0);
        }
        assert_eq!(ow.critical_path_length(), 50);
        let rate = ow.effective_dispatch_rate(256);
        assert!(rate < 4.0 + 1e-12);
        assert!((rate - (256.0_f64 / 50.0).min(4.0)).abs() < 1e-9);
    }

    #[test]
    fn long_chain_limits_dispatch_rate_below_width() {
        let mut ow = OldWindow::new(64, 4);
        for i in 0..200 {
            ow.insert(&alu(i, Some(1), [Some(1), None]), 0);
        }
        // Window of 64 over a fully serial chain: rate ~= 64 / 64 = 1.
        let rate = ow.effective_dispatch_rate(64);
        assert!(
            rate <= 1.5,
            "rate {rate} should be near 1 for a fully serial chain"
        );
    }

    #[test]
    fn execution_latency_counts_in_the_chain() {
        let mut ow = OldWindow::new(256, 4);
        let mut div = alu(0, Some(2), [None, None]);
        div.op = OpClass::IntDiv; // 20 cycles
        ow.insert(&div, 0);
        ow.insert(&alu(1, Some(3), [Some(2), None]), 0);
        assert_eq!(ow.critical_path_length(), 21);
    }

    #[test]
    fn extra_latency_is_included() {
        let mut ow = OldWindow::new(256, 4);
        ow.insert(&load(0, 5, 0x1000, None), 12); // L1 miss / L2 hit
        ow.insert(&alu(1, Some(6), [Some(5), None]), 0);
        // load issues at 2 + 12 = 14, dependent ALU at 15.
        assert_eq!(ow.critical_path_length(), 15);
    }

    #[test]
    fn memory_dependence_through_same_line() {
        let mut ow = OldWindow::new(256, 4);
        let mut chain_head = alu(0, Some(1), [Some(1), None]);
        chain_head.op = OpClass::IntDiv;
        ow.insert(&chain_head, 0); // issue 20
        ow.insert(&store(1, 0x2000, Some(1)), 0); // store depends on r1 -> issue 21
        ow.insert(&load(2, 7, 0x2010, None), 0); // same 64B line -> depends on the store
        assert_eq!(ow.critical_path_length(), 23);
        // A load from a different line is independent.
        let mut ow2 = OldWindow::new(256, 4);
        ow2.insert(&chain_head, 0);
        ow2.insert(&store(1, 0x2000, Some(1)), 0);
        ow2.insert(&load(2, 7, 0x4000, None), 0);
        assert_eq!(ow2.critical_path_length(), 21);
    }

    #[test]
    fn branch_resolution_time_tracks_dependence_height() {
        let mut ow = OldWindow::new(256, 4);
        for i in 0..10 {
            ow.insert(&alu(i, Some(1), [Some(1), None]), 0);
        }
        let mut branch = alu(10, None, [Some(1), None]);
        branch.op = OpClass::Branch;
        // The branch depends on the end of a 10-deep chain.
        assert_eq!(ow.branch_resolution_time(&branch), 11);
        // An independent branch resolves in its own latency only.
        let mut indep = alu(11, None, [Some(40), None]);
        indep.op = OpClass::Branch;
        assert_eq!(ow.branch_resolution_time(&indep), 1);
    }

    #[test]
    fn drain_time_is_max_of_occupancy_and_critical_path() {
        let mut ow = OldWindow::new(256, 4);
        for i in 0..40 {
            ow.insert(&alu(i, Some((i % 20) as RegId + 2), [None, None]), 0);
        }
        // Occupancy 40 / width 4 = 10 dominates the unit critical path.
        assert_eq!(ow.window_drain_time(), 10);
        let mut chain = OldWindow::new(256, 4);
        for i in 0..8 {
            chain.insert(&alu(i, Some(1), [Some(1), None]), 0);
        }
        // Critical path 8 dominates ceil(8/4) = 2.
        assert_eq!(chain.window_drain_time(), 8);
    }

    #[test]
    fn clear_resets_interval_state() {
        let mut ow = OldWindow::new(256, 4);
        for i in 0..30 {
            ow.insert(&alu(i, Some(1), [Some(1), None]), 0);
        }
        assert!(ow.critical_path_length() > 0);
        ow.clear();
        assert_eq!(ow.occupancy(), 0);
        assert_eq!(ow.critical_path_length(), 0);
        assert_eq!(ow.window_drain_time(), 0);
        // After the clear, new chains start from the new head time.
        ow.insert(&alu(100, Some(1), [Some(1), None]), 0);
        assert_eq!(ow.critical_path_length(), 1);
    }

    #[test]
    fn capacity_evicts_oldest_and_advances_head_time() {
        let mut ow = OldWindow::new(4, 4);
        for i in 0..5 {
            ow.insert(&alu(i, Some(1), [Some(1), None]), 0);
        }
        assert_eq!(ow.occupancy(), 4);
        // Head time advanced past the first instruction's issue time (1), so
        // the critical path is 5 - 1 = 4.
        assert_eq!(ow.critical_path_length(), 4);
    }

    #[test]
    fn empty_window_has_full_dispatch_rate() {
        let ow = OldWindow::new(256, 4);
        assert_eq!(ow.critical_path_length(), 0);
        assert!((ow.effective_dispatch_rate(256) - 4.0).abs() < 1e-12);
        assert_eq!(ow.window_drain_time(), 0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _ = OldWindow::new(0, 4);
    }
}

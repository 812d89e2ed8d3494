//! The complete multi-core memory hierarchy with MOESI coherence.
//!
//! Structure (Table 1 of the paper): each core owns a private L1 instruction
//! cache, L1 data cache, I-TLB and D-TLB; all cores share one inclusive L2
//! cache and one DRAM channel. Coherence between the private L1 data caches
//! follows the MOESI protocol over a snooping bus: dirty lines are supplied
//! directly cache-to-cache (the supplier keeps the line in Owned state), and
//! stores invalidate remote copies.
//!
//! The hierarchy is the *miss-event oracle* of interval simulation: the
//! interval core model calls [`MemoryHierarchy::access_instruction`] and
//! [`MemoryHierarchy::access_data`] and only uses the returned latency and
//! classification; the detailed model uses exactly the same calls, which is
//! what makes the two timing models comparable.

use serde::{Deserialize, Serialize};

use crate::cache::{Cache, LineState};
use crate::config::MemoryConfig;
use crate::dram::DramModel;
use crate::stats::{CoreMemoryStats, MemoryStats};
use crate::tlb::Tlb;

/// Where an access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessLevel {
    /// Hit in the core's private L1 (or the access was configured perfect).
    L1,
    /// Satisfied by the shared L2.
    L2,
    /// Satisfied by another core's private cache (coherence transfer).
    RemoteCache,
    /// Satisfied by main memory.
    Memory,
}

/// Result of one memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResponse {
    /// Additional latency in cycles beyond the L1-hit pipeline latency.
    pub latency: u64,
    /// Level that satisfied the access.
    pub level: AccessLevel,
    /// Whether the TLB missed (page-walk latency is included in `latency`).
    pub tlb_miss: bool,
}

impl AccessResponse {
    /// An L1 hit with a resident translation.
    #[must_use]
    pub fn l1_hit() -> Self {
        AccessResponse {
            latency: 0,
            level: AccessLevel::L1,
            tlb_miss: false,
        }
    }

    /// Whether interval analysis classifies this access as a *long-latency
    /// load* miss event (last-level cache miss, coherence miss, or D-TLB
    /// miss), i.e. an event that stalls dispatch when it reaches the head of
    /// the window.
    #[must_use]
    pub fn is_long_latency(&self) -> bool {
        matches!(self.level, AccessLevel::Memory | AccessLevel::RemoteCache) || self.tlb_miss
    }

    /// Whether the access missed somewhere (has any extra latency).
    #[must_use]
    pub fn is_miss(&self) -> bool {
        self.latency > 0
    }
}

/// How warm each structure of the hierarchy is: the fraction of its capacity
/// holding valid entries, averaged over the per-core structures. A hybrid
/// model swap transfers the *full* hierarchy state (the incoming model keeps
/// every resident line and translation); this summary is the cheap
/// observable that reports and swap-policy diagnostics read.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WarmthSummary {
    /// Mean valid-line fraction of the per-core L1 instruction caches.
    pub l1i: f64,
    /// Mean valid-line fraction of the per-core L1 data caches.
    pub l1d: f64,
    /// Valid-line fraction of the shared L2 (0 when the design has no L2).
    pub l2: f64,
    /// Mean valid-entry fraction of the instruction TLBs.
    pub itlb: f64,
    /// Mean valid-entry fraction of the data TLBs.
    pub dtlb: f64,
}

/// Reusable column buffers of the batched warming entry point
/// ([`MemoryHierarchy::warm_access_batch`]), retained on the hierarchy so a
/// steady stream of warm batches allocates nothing.
#[derive(Debug, Clone, Default)]
struct WarmScratch {
    /// Line-deduplicated instruction-fetch PCs of the current batch.
    fetch_pc: Vec<u64>,
    /// Batch positions of the deduplicated fetches, ascending.
    fetch_pos: Vec<u32>,
    /// Per-fetch I-TLB walk latency (unused when the I-TLB is perfect).
    itlb_lat: Vec<u64>,
    /// Per-data-access D-TLB walk latency (unused when the D-TLB is
    /// perfect).
    dtlb_lat: Vec<u64>,
}

/// The complete memory hierarchy shared by the cores of one simulated chip.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    config: MemoryConfig,
    l1i: Vec<Cache>,
    l1d: Vec<Cache>,
    itlb: Vec<Tlb>,
    dtlb: Vec<Tlb>,
    l2: Option<Cache>,
    dram: DramModel,
    stats: Vec<CoreMemoryStats>,
    /// Functional-warming mode: cache/TLB state and counters update as
    /// usual, but DRAM accesses do not compete for the channel (see
    /// `DramModel::access_unqueued`). Off for every timing model.
    warming: bool,
    /// Column buffers of the batched warming path (not simulated state).
    warm_scratch: WarmScratch,
}

impl MemoryHierarchy {
    /// Builds an empty hierarchy for `config.num_cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`MemoryConfig::validate`].
    #[must_use]
    pub fn new(config: &MemoryConfig) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid memory configuration: {e}"));
        let n = config.num_cores;
        MemoryHierarchy {
            config: *config,
            l1i: (0..n).map(|_| Cache::new(&config.l1i)).collect(),
            l1d: (0..n).map(|_| Cache::new(&config.l1d)).collect(),
            itlb: (0..n).map(|_| Tlb::new(&config.itlb)).collect(),
            dtlb: (0..n).map(|_| Tlb::new(&config.dtlb)).collect(),
            l2: config.l2.as_ref().map(Cache::new),
            dram: DramModel::new(&config.dram),
            stats: vec![CoreMemoryStats::default(); n],
            warming: false,
            warm_scratch: WarmScratch::default(),
        }
    }

    /// The configuration of this hierarchy.
    #[must_use]
    pub fn config(&self) -> &MemoryConfig {
        &self.config
    }

    /// Switches functional-warming mode on or off (see the field docs):
    /// warming accesses keep every cache, TLB and counter current but skip
    /// DRAM channel reservations. The sampled-simulation controller turns
    /// this on while fast-forwarding and off before handing the hierarchy
    /// back to a timing model.
    pub fn set_warming(&mut self, warming: bool) {
        self.warming = warming;
    }

    /// Number of cores sharing the hierarchy.
    #[must_use]
    pub fn num_cores(&self) -> usize {
        self.config.num_cores
    }

    /// Snapshot of the accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> MemoryStats {
        MemoryStats {
            per_core: self.stats.clone(),
            dram_transactions: self.dram.accesses(),
            dram_queue_cycles: self.dram.total_queue_cycles(),
            dram_average_latency: self.dram.average_latency(),
        }
    }

    /// Measures how warm each structure is (see [`WarmthSummary`]).
    #[must_use]
    pub fn warmth_summary(&self) -> WarmthSummary {
        let mean = |xs: &[f64]| {
            if xs.is_empty() {
                0.0
            } else {
                xs.iter().sum::<f64>() / xs.len() as f64
            }
        };
        WarmthSummary {
            l1i: mean(&self.l1i.iter().map(Cache::warmth).collect::<Vec<_>>()),
            l1d: mean(&self.l1d.iter().map(Cache::warmth).collect::<Vec<_>>()),
            l2: self.l2.as_ref().map_or(0.0, Cache::warmth),
            itlb: mean(&self.itlb.iter().map(Tlb::warmth).collect::<Vec<_>>()),
            dtlb: mean(&self.dtlb.iter().map(Tlb::warmth).collect::<Vec<_>>()),
        }
    }

    /// Coherence state of `addr` in `core`'s L1 data cache (for tests and
    /// invariant checking).
    #[must_use]
    pub fn l1d_state(&self, core: usize, addr: u64) -> LineState {
        self.l1d[core].probe(addr)
    }

    /// Checks the MOESI invariant for one line: at most one core holds the
    /// line in a writable (M/E) or owned (O) state, and a writable copy
    /// excludes any other valid copy.
    #[must_use]
    pub fn coherence_invariant_holds(&self, addr: u64) -> bool {
        let states: Vec<LineState> = self.l1d.iter().map(|c| c.probe(addr)).collect();
        let writable = states.iter().filter(|s| s.is_writable()).count();
        let owners = states
            .iter()
            .filter(|s| matches!(s, LineState::Modified | LineState::Owned))
            .count();
        let valid = states.iter().filter(|s| s.is_valid()).count();
        if writable > 1 || owners > 1 {
            return false;
        }
        if writable == 1 && valid > 1 {
            return false;
        }
        true
    }

    // ----------------------------------------------------------------------
    // Instruction side
    // ----------------------------------------------------------------------

    /// Performs an instruction fetch access for `core` at `pc` in cycle
    /// `now`; returns the extra latency and classification.
    pub fn access_instruction(&mut self, core: usize, pc: u64, now: u64) -> AccessResponse {
        let queued_before = self.dram.read_queue_cycles();
        let resp = self.access_instruction_inner(core, pc, now);
        // The counter records *contention-free* latency: DRAM read queueing
        // depends on the clock the access arrived on, and the sampled
        // estimator compares this counter across execution modes with
        // incomparable clocks (see `CoreMemoryStats::latency_cycles`).
        let queued = self.dram.read_queue_cycles() - queued_before;
        self.stats[core].latency_cycles += resp.latency.saturating_sub(queued);
        resp
    }

    fn access_instruction_inner(&mut self, core: usize, pc: u64, now: u64) -> AccessResponse {
        let cfg = self.config;
        let mut latency = 0;
        let mut tlb_miss = false;
        if !cfg.perfect_itlb {
            let l = self.itlb[core].access(pc);
            if l > 0 {
                tlb_miss = true;
                self.stats[core].itlb_misses += 1;
            }
            latency += l;
        }
        let (fill_latency, level) = self.fetch_fill(core, pc, now);
        AccessResponse {
            latency: latency + fill_latency,
            level,
            tlb_miss,
        }
    }

    /// Cache portion of an instruction fetch (everything past the I-TLB):
    /// L1i lookup and, on a miss, the fill from L2/DRAM.
    fn fetch_fill(&mut self, core: usize, pc: u64, now: u64) -> (u64, AccessLevel) {
        if self.config.perfect_l1i {
            return (0, AccessLevel::L1);
        }
        let line = self.l1i[core].line_addr(pc);
        if self.l1i[core].access(line).is_valid() {
            self.stats[core].l1i_hits += 1;
            return (0, AccessLevel::L1);
        }
        self.stats[core].l1i_misses += 1;
        // Instruction lines are read-only: fill from L2/DRAM in Shared state,
        // no coherence interaction with the data caches.
        let (fill_latency, level) = self.read_from_l2_or_memory(core, line, now);
        if let Some(ev) = self.l1i[core].insert(line, LineState::Shared) {
            // Instruction lines are never dirty; nothing to write back.
            debug_assert!(!ev.state.is_dirty());
        }
        (fill_latency, level)
    }

    // ----------------------------------------------------------------------
    // Data side
    // ----------------------------------------------------------------------

    /// Performs a data access (load or store) for `core` at `vaddr` in cycle
    /// `now`; returns the extra latency and classification.
    pub fn access_data(
        &mut self,
        core: usize,
        vaddr: u64,
        is_store: bool,
        now: u64,
    ) -> AccessResponse {
        let queued_before = self.dram.read_queue_cycles();
        let resp = self.access_data_inner(core, vaddr, is_store, now);
        // Contention-free latency only — see `access_instruction`.
        let queued = self.dram.read_queue_cycles() - queued_before;
        self.stats[core].latency_cycles += resp.latency.saturating_sub(queued);
        resp
    }

    fn access_data_inner(
        &mut self,
        core: usize,
        vaddr: u64,
        is_store: bool,
        now: u64,
    ) -> AccessResponse {
        let cfg = self.config;
        let mut latency = 0;
        let mut tlb_miss = false;
        if !cfg.perfect_dtlb {
            let l = self.dtlb[core].access(vaddr);
            if l > 0 {
                tlb_miss = true;
                self.stats[core].dtlb_misses += 1;
            }
            latency += l;
        }
        let (fill_latency, level) = self.data_fill(core, vaddr, is_store, now);
        AccessResponse {
            latency: latency + fill_latency,
            level,
            tlb_miss,
        }
    }

    /// Cache portion of a data access (everything past the D-TLB): L1d
    /// lookup, store upgrades, and miss handling through coherence, L2 and
    /// DRAM.
    fn data_fill(
        &mut self,
        core: usize,
        vaddr: u64,
        is_store: bool,
        now: u64,
    ) -> (u64, AccessLevel) {
        if self.config.perfect_l1d {
            return (0, AccessLevel::L1);
        }
        let line = self.l1d[core].line_addr(vaddr);
        let state = self.l1d[core].access(line);

        if state.is_valid() {
            self.stats[core].l1d_hits += 1;
            let mut latency = 0;
            if is_store && !state.is_writable() {
                // Upgrade: invalidate remote copies (S or O -> M).
                latency += self.upgrade(core, line);
                self.l1d[core].set_state(line, LineState::Modified);
            } else if is_store {
                self.l1d[core].set_state(line, LineState::Modified);
            }
            return (latency, AccessLevel::L1);
        }

        self.stats[core].l1d_misses += 1;
        if is_store {
            self.handle_store_miss(core, line, now)
        } else {
            self.handle_load_miss(core, line, now)
        }
    }

    // ----------------------------------------------------------------------
    // Batched functional warming
    // ----------------------------------------------------------------------

    /// Batched functional-warming entry point: performs, for one core, the
    /// exact access sequence of the scalar warming loop — line-deduplicated
    /// instruction fetch, then data access, per instruction in batch order —
    /// over structure-of-arrays columns.
    ///
    /// `pc` holds every instruction's program counter; `mem_pos` /
    /// `mem_addr` / `mem_store` describe the batch's memory subset
    /// (ascending positions indexing into `pc`). Instruction `i` executes
    /// at nominal cycle `now + i`. `last_iline` carries the per-core
    /// last-fetched-line state across batches (`u64::MAX` = nothing fetched
    /// yet); `ifetch_line_shift` is the fetch-batching grain.
    ///
    /// Equivalence contract, pinned by the differential suite in `iss-sim`:
    /// cache/TLB state, every counter and the per-core `latency_cycles`
    /// miss-pressure counter end up bit-identical to a scalar
    /// [`access_instruction`](Self::access_instruction) /
    /// [`access_data`](Self::access_data) loop. Two reorderings make the
    /// batch fast and are invisible by construction:
    ///
    /// * TLB translations are hoisted into contiguous column passes
    ///   ([`Tlb::access_batch`]): TLB state is disjoint from cache state and
    ///   each TLB still sees its own accesses in the same order.
    /// * `latency_cycles` accumulates once per batch: in warming mode DRAM
    ///   never queues, so the scalar path's per-access contention-free
    ///   correction (`latency - queued`) degenerates to the plain latency
    ///   sum.
    ///
    /// The L1/L2/DRAM walk itself stays in per-instruction order: misses
    /// insert lines, and a later batch position may hit a line an earlier
    /// position filled.
    ///
    /// # Panics
    ///
    /// Panics when the hierarchy is not in warming mode or the memory
    /// columns disagree on length.
    #[allow(clippy::too_many_arguments)]
    pub fn warm_access_batch(
        &mut self,
        core: usize,
        pc: &[u64],
        mem_pos: &[u32],
        mem_addr: &[u64],
        mem_store: &[bool],
        ifetch_line_shift: u32,
        last_iline: &mut u64,
        now: u64,
    ) {
        assert!(
            self.warming,
            "warm_access_batch requires functional-warming mode"
        );
        assert!(mem_pos.len() == mem_addr.len() && mem_pos.len() == mem_store.len());
        let cfg = self.config;
        let mut scratch = std::mem::take(&mut self.warm_scratch);

        // Column pass 1: line-deduplicate the instruction side (one fetch
        // per line transition, as the scalar loop's `last_iline` check).
        scratch.fetch_pc.clear();
        scratch.fetch_pos.clear();
        let mut last = *last_iline;
        for (i, &p) in pc.iter().enumerate() {
            let line = p >> ifetch_line_shift;
            if last != line {
                last = line;
                scratch.fetch_pc.push(p);
                scratch.fetch_pos.push(i as u32);
            }
        }
        *last_iline = last;

        // Column pass 2: TLB translations over contiguous address columns.
        if !cfg.perfect_itlb {
            self.itlb[core].access_batch(&scratch.fetch_pc, &mut scratch.itlb_lat);
            for &l in &scratch.itlb_lat {
                if l > 0 {
                    self.stats[core].itlb_misses += 1;
                }
            }
        }
        if !cfg.perfect_dtlb {
            self.dtlb[core].access_batch(mem_addr, &mut scratch.dtlb_lat);
            for &l in &scratch.dtlb_lat {
                if l > 0 {
                    self.stats[core].dtlb_misses += 1;
                }
            }
        }

        // In-order cache walk: merge the fetch and data subsets by batch
        // position (the instruction side of one instruction precedes its
        // data side, hence `<=`).
        let num_fetch = scratch.fetch_pos.len();
        let num_mem = mem_pos.len();
        let mut latency_acc = 0u64;
        let (mut fi, mut mi) = (0usize, 0usize);
        while fi < num_fetch || mi < num_mem {
            let fpos = if fi < num_fetch {
                scratch.fetch_pos[fi]
            } else {
                u32::MAX
            };
            let mpos = if mi < num_mem { mem_pos[mi] } else { u32::MAX };
            if fpos <= mpos {
                if !cfg.perfect_itlb {
                    latency_acc += scratch.itlb_lat[fi];
                }
                let (fill, _) = self.fetch_fill(core, scratch.fetch_pc[fi], now + u64::from(fpos));
                latency_acc += fill;
                fi += 1;
            } else {
                if !cfg.perfect_dtlb {
                    latency_acc += scratch.dtlb_lat[mi];
                }
                let (fill, _) =
                    self.data_fill(core, mem_addr[mi], mem_store[mi], now + u64::from(mpos));
                latency_acc += fill;
                mi += 1;
            }
        }
        // One accumulation per batch; equal to the scalar per-access sum
        // because warming never queues at DRAM (see the method docs).
        self.stats[core].latency_cycles += latency_acc;
        self.warm_scratch = scratch;
    }

    /// Snoops the remote L1Ds for `line` in one pass, moving every clean
    /// sharer (E/S) to `sharer_state`; returns the dirty owner (M/O), if
    /// any, and whether a clean sharer existed. No per-miss allocation: the
    /// sharer set is never materialized, only transformed in place.
    fn snoop_set_sharers(
        &mut self,
        requester: usize,
        line: u64,
        sharer_state: LineState,
    ) -> (Option<usize>, bool) {
        let mut owner = None;
        let mut had_sharer = false;
        for c in 0..self.config.num_cores {
            if c == requester {
                continue;
            }
            match self.l1d[c].probe(line) {
                LineState::Modified | LineState::Owned => owner = Some(c),
                LineState::Exclusive | LineState::Shared => {
                    had_sharer = true;
                    self.l1d[c].set_state(line, sharer_state);
                }
                LineState::Invalid => {}
            }
        }
        (owner, had_sharer)
    }

    fn handle_load_miss(&mut self, core: usize, line: u64, now: u64) -> (u64, AccessLevel) {
        if self.config.perfect_l2 {
            let latency = self.config.l2.map_or(12, |l2| l2.latency);
            self.stats[core].l2_hits += 1;
            self.install_l1d(core, line, LineState::Shared, now);
            return (latency, AccessLevel::L2);
        }
        // Clean sharers downgrade to Shared (a no-op for lines already
        // Shared; Exclusive cannot coexist with a dirty owner under MOESI).
        let (owner, has_sharers) = self.snoop_set_sharers(core, line, LineState::Shared);
        if let Some(owner_core) = owner {
            // Dirty copy elsewhere: cache-to-cache transfer, supplier keeps the
            // line in Owned state (MOESI avoids the memory write-back MESI
            // would need).
            self.stats[core].coherence_misses += 1;
            self.l1d[owner_core].set_state(line, LineState::Owned);
            self.install_l1d(core, line, LineState::Shared, now);
            return (self.config.cache_to_cache_latency, AccessLevel::RemoteCache);
        }
        let (latency, level) = self.read_from_l2_or_memory(core, line, now);
        let new_state = if has_sharers {
            LineState::Shared
        } else {
            LineState::Exclusive
        };
        self.install_l1d(core, line, new_state, now);
        (latency, level)
    }

    fn handle_store_miss(&mut self, core: usize, line: u64, now: u64) -> (u64, AccessLevel) {
        if self.config.perfect_l2 {
            let latency = self.config.l2.map_or(12, |l2| l2.latency);
            self.stats[core].l2_hits += 1;
            self.install_l1d(core, line, LineState::Modified, now);
            return (latency, AccessLevel::L2);
        }
        // Read-for-ownership: every remote copy is invalidated.
        let (owner, had_sharer) = self.snoop_set_sharers(core, line, LineState::Invalid);
        let (latency, level) = if let Some(owner_core) = owner {
            self.stats[core].coherence_misses += 1;
            self.l1d[owner_core].set_state(line, LineState::Invalid);
            (self.config.cache_to_cache_latency, AccessLevel::RemoteCache)
        } else {
            self.read_from_l2_or_memory(core, line, now)
        };
        if had_sharer || owner.is_some() {
            self.stats[core].upgrades += 1;
        }
        self.install_l1d(core, line, LineState::Modified, now);
        (latency, level)
    }

    /// Upgrade a resident non-writable line to Modified: invalidate all remote
    /// copies and pay the bus transaction latency.
    fn upgrade(&mut self, core: usize, line: u64) -> u64 {
        let (owner, had_sharer) = self.snoop_set_sharers(core, line, LineState::Invalid);
        if let Some(o) = owner {
            self.l1d[o].set_state(line, LineState::Invalid);
        }
        if had_sharer || owner.is_some() {
            self.stats[core].upgrades += 1;
            self.config.upgrade_latency
        } else {
            0
        }
    }

    /// Installs a line in a core's L1D, handling dirty-victim write-backs.
    fn install_l1d(&mut self, core: usize, line: u64, state: LineState, now: u64) {
        if let Some(ev) = self.l1d[core].insert(line, state) {
            if ev.state.is_dirty() {
                self.stats[core].writebacks += 1;
                self.write_to_l2_or_memory(core, ev.addr, now);
            }
        }
    }

    /// Reads a line from the shared L2 (filling it from DRAM on an L2 miss).
    fn read_from_l2_or_memory(&mut self, core: usize, line: u64, now: u64) -> (u64, AccessLevel) {
        if self.config.perfect_l2 {
            self.stats[core].l2_hits += 1;
            return (self.config.l2.map_or(12, |l2| l2.latency), AccessLevel::L2);
        }
        match &mut self.l2 {
            Some(l2) => {
                let l2_latency = l2.config().latency;
                if l2.access(line).is_valid() {
                    self.stats[core].l2_hits += 1;
                    (l2_latency, AccessLevel::L2)
                } else {
                    self.stats[core].l2_misses += 1;
                    self.stats[core].dram_reads += 1;
                    let dram_latency = if self.warming {
                        self.dram.access_unqueued()
                    } else {
                        self.dram.access(now)
                    };
                    // Fill the L2 (inclusive); its victim may need a
                    // write-back and back-invalidation of L1 copies.
                    #[expect(
                        clippy::expect_used,
                        reason = "L2 access on a path only reachable when the config has an L2"
                    )]
                    let evicted = self
                        .l2
                        .as_mut()
                        .expect("L2 present")
                        .insert(line, LineState::Exclusive);
                    if let Some(ev) = evicted {
                        self.handle_l2_eviction(core, ev.addr, ev.state, now);
                    }
                    (l2_latency + dram_latency, AccessLevel::Memory)
                }
            }
            None => {
                self.stats[core].l2_misses += 1;
                self.stats[core].dram_reads += 1;
                let dram_latency = if self.warming {
                    self.dram.access_unqueued()
                } else {
                    self.dram.access(now)
                };
                (dram_latency, AccessLevel::Memory)
            }
        }
    }

    /// Writes a dirty line back towards memory (L1 victim or coherence
    /// write-back). The requester does not wait for it.
    fn write_to_l2_or_memory(&mut self, _core: usize, line: u64, now: u64) {
        match &mut self.l2 {
            Some(l2) => {
                if l2.access(line).is_valid() {
                    l2.set_state(line, LineState::Modified);
                } else {
                    let evicted = l2.insert(line, LineState::Modified);
                    if let Some(ev) = evicted {
                        self.handle_l2_eviction(_core, ev.addr, ev.state, now);
                    }
                }
            }
            None => {
                if self.warming {
                    self.dram.writeback_unqueued();
                } else {
                    self.dram.writeback(now);
                }
            }
        }
    }

    /// Maintains inclusion on an L2 eviction: back-invalidate the L1 copies
    /// and push dirty data to DRAM.
    fn handle_l2_eviction(&mut self, core: usize, addr: u64, state: LineState, now: u64) {
        let mut any_dirty_l1 = false;
        for c in 0..self.config.num_cores {
            let s = self.l1d[c].probe(addr);
            if s.is_dirty() {
                any_dirty_l1 = true;
            }
            if s.is_valid() {
                self.l1d[c].set_state(addr, LineState::Invalid);
            }
            self.l1i[c].set_state(addr, LineState::Invalid);
        }
        if state.is_dirty() || any_dirty_l1 {
            self.stats[core].writebacks += 1;
            if self.warming {
                self.dram.writeback_unqueued();
            } else {
                self.dram.writeback(now);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;

    fn small_config(cores: usize) -> MemoryConfig {
        let mut c = MemoryConfig::hpca2010_baseline(cores);
        // Shrink the caches so capacity behaviour is testable with few accesses.
        c.l1i = CacheConfig {
            size_bytes: 4096,
            ways: 2,
            line_bytes: 64,
            latency: 0,
        };
        c.l1d = CacheConfig {
            size_bytes: 4096,
            ways: 2,
            line_bytes: 64,
            latency: 0,
        };
        c.l2 = Some(CacheConfig {
            size_bytes: 64 * 1024,
            ways: 4,
            line_bytes: 64,
            latency: 12,
        });
        c
    }

    #[test]
    fn first_data_access_goes_to_memory_second_hits_l1() {
        let mut m = MemoryHierarchy::new(&small_config(1));
        let a = m.access_data(0, 0x10_000, false, 0);
        assert_eq!(a.level, AccessLevel::Memory);
        assert!(a.latency >= 150);
        assert!(a.is_long_latency());
        let b = m.access_data(0, 0x10_008, false, 10);
        assert_eq!(b.level, AccessLevel::L1);
        assert_eq!(b.latency, 0);
        assert!(!b.is_long_latency());
    }

    #[test]
    fn l2_hit_after_l1_capacity_eviction() {
        let mut m = MemoryHierarchy::new(&small_config(1));
        // Touch enough lines to overflow the 4 KB L1 but stay inside the L2.
        for i in 0..256u64 {
            m.access_data(0, 0x10_000 + i * 64, false, i);
        }
        // Re-touch the first line: gone from L1, still in L2.
        let r = m.access_data(0, 0x10_000, false, 1000);
        assert_eq!(r.level, AccessLevel::L2);
        assert_eq!(r.latency, 12);
        assert!(!r.is_long_latency());
    }

    #[test]
    fn instruction_fetch_miss_and_hit() {
        let mut m = MemoryHierarchy::new(&small_config(1));
        let a = m.access_instruction(0, 0x40_0000, 0);
        assert_eq!(a.level, AccessLevel::Memory);
        let b = m.access_instruction(0, 0x40_0000, 5);
        assert_eq!(b.level, AccessLevel::L1);
        assert_eq!(b.latency, 0);
    }

    #[test]
    fn tlb_miss_adds_walk_latency() {
        let mut m = MemoryHierarchy::new(&small_config(1));
        let a = m.access_data(0, 0x10_000, false, 0);
        assert!(a.tlb_miss);
        let b = m.access_data(0, 0x10_040, false, 1);
        assert!(!b.tlb_miss, "same page must hit in the D-TLB");
    }

    #[test]
    fn store_after_remote_load_invalidates_sharer() {
        let mut m = MemoryHierarchy::new(&small_config(2));
        m.access_data(0, 0x20_000, false, 0);
        m.access_data(1, 0x20_000, false, 10);
        assert!(m.coherence_invariant_holds(0x20_000));
        // Core 1 now stores: core 0's copy must be invalidated.
        let st = m.access_data(1, 0x20_000, true, 20);
        assert_eq!(st.level, AccessLevel::L1, "core 1 already holds the line");
        assert_eq!(m.l1d_state(0, 0x20_000), LineState::Invalid);
        assert_eq!(m.l1d_state(1, 0x20_000), LineState::Modified);
        assert!(m.coherence_invariant_holds(0x20_000));
    }

    #[test]
    fn load_of_remotely_modified_line_is_a_coherence_miss() {
        let mut m = MemoryHierarchy::new(&small_config(2));
        m.access_data(0, 0x30_000, true, 0); // core 0 owns the line Modified
        assert_eq!(m.l1d_state(0, 0x30_000), LineState::Modified);
        // Warm core 1's D-TLB with a different line of the same page so the
        // next access isolates the coherence-transfer latency.
        m.access_data(1, 0x30_040, false, 5);
        let r = m.access_data(1, 0x30_000, false, 10);
        assert_eq!(r.level, AccessLevel::RemoteCache);
        assert_eq!(r.latency, m.config().cache_to_cache_latency);
        assert!(r.is_long_latency());
        // MOESI: the previous owner keeps the dirty line in Owned state.
        assert_eq!(m.l1d_state(0, 0x30_000), LineState::Owned);
        assert_eq!(m.l1d_state(1, 0x30_000), LineState::Shared);
        assert!(m.coherence_invariant_holds(0x30_000));
    }

    #[test]
    fn store_to_shared_line_upgrades() {
        let mut m = MemoryHierarchy::new(&small_config(2));
        m.access_data(0, 0x40_000, false, 0);
        m.access_data(1, 0x40_000, false, 5);
        // Both cores share the line now; core 0 writes.
        let st = m.access_data(0, 0x40_000, true, 10);
        assert_eq!(st.level, AccessLevel::L1);
        assert!(st.latency >= m.config().upgrade_latency);
        assert_eq!(m.l1d_state(0, 0x40_000), LineState::Modified);
        assert_eq!(m.l1d_state(1, 0x40_000), LineState::Invalid);
        let stats = m.stats();
        assert!(stats.per_core[0].upgrades >= 1);
    }

    #[test]
    fn store_miss_with_remote_owner_transfers_and_invalidates() {
        let mut m = MemoryHierarchy::new(&small_config(2));
        m.access_data(0, 0x50_000, true, 0);
        let st = m.access_data(1, 0x50_000, true, 10);
        assert_eq!(st.level, AccessLevel::RemoteCache);
        assert_eq!(m.l1d_state(0, 0x50_000), LineState::Invalid);
        assert_eq!(m.l1d_state(1, 0x50_000), LineState::Modified);
        assert!(m.coherence_invariant_holds(0x50_000));
    }

    #[test]
    fn exclusive_then_silent_upgrade_on_own_store() {
        let mut m = MemoryHierarchy::new(&small_config(2));
        m.access_data(0, 0x60_000, false, 0);
        assert_eq!(m.l1d_state(0, 0x60_000), LineState::Exclusive);
        let st = m.access_data(0, 0x60_000, true, 5);
        assert_eq!(st.latency, 0, "E -> M must be silent");
        assert_eq!(m.l1d_state(0, 0x60_000), LineState::Modified);
    }

    #[test]
    fn perfect_data_side_never_misses() {
        let cfg = small_config(1).with_perfect_data_side();
        let mut m = MemoryHierarchy::new(&cfg);
        for i in 0..1000u64 {
            let r = m.access_data(0, i * 4096 * 13, false, i);
            assert_eq!(r.latency, 0);
            assert_eq!(r.level, AccessLevel::L1);
        }
    }

    #[test]
    fn perfect_l2_bounds_data_latency() {
        let cfg = small_config(1).with_perfect_l2();
        let mut m = MemoryHierarchy::new(&cfg);
        for i in 0..500u64 {
            let r = m.access_data(0, 0x100_000 + i * 64 * 131, false, i);
            assert!(r.latency <= 12 + m.config().dtlb.miss_latency);
            assert!(matches!(r.level, AccessLevel::L1 | AccessLevel::L2));
        }
    }

    #[test]
    fn perfect_instruction_side_never_misses() {
        let cfg = small_config(1).with_perfect_instruction_side();
        let mut m = MemoryHierarchy::new(&cfg);
        for i in 0..200u64 {
            let r = m.access_instruction(0, 0x40_0000 + i * 64 * 997, i);
            assert_eq!(r.latency, 0);
        }
    }

    #[test]
    fn no_l2_configuration_goes_straight_to_memory() {
        let mut cfg = small_config(1);
        cfg.l2 = None;
        let mut m = MemoryHierarchy::new(&cfg);
        let r = m.access_data(0, 0x70_000, false, 0);
        assert_eq!(r.level, AccessLevel::Memory);
        // Re-access after L1 eviction pressure would go to memory again, but a
        // direct re-access hits L1.
        let r2 = m.access_data(0, 0x70_000, false, 10);
        assert_eq!(r2.level, AccessLevel::L1);
    }

    #[test]
    fn dram_contention_shows_up_under_load() {
        let mut cfg = small_config(2);
        cfg.l2 = Some(CacheConfig {
            size_bytes: 8 * 1024,
            ways: 2,
            line_bytes: 64,
            latency: 12,
        });
        let mut m = MemoryHierarchy::new(&cfg);
        // Many simultaneous misses at the same cycle: the channel serializes.
        let mut latencies = Vec::new();
        for i in 0..32u64 {
            let r = m.access_data((i % 2) as usize, 0x200_0000 + i * 64 * 1031, false, 0);
            if r.level == AccessLevel::Memory {
                latencies.push(r.latency);
            }
        }
        assert!(latencies.len() > 8);
        assert!(
            latencies.last().unwrap() > latencies.first().unwrap(),
            "later requests in the same cycle must queue behind earlier ones"
        );
        assert!(m.stats().dram_queue_cycles > 0);
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let mut m = MemoryHierarchy::new(&small_config(1));
        m.access_data(0, 0x10_000, false, 0);
        m.access_data(0, 0x10_000, false, 1);
        m.access_instruction(0, 0x40_0000, 2);
        let s = m.stats();
        assert_eq!(s.per_core[0].l1d_misses, 1);
        assert_eq!(s.per_core[0].l1d_hits, 1);
        assert_eq!(s.per_core[0].l1i_misses, 1);
        assert_eq!(s.totals().dram_reads, 2);
    }

    /// Deterministic pseudo-random warming workload: per-instruction PCs
    /// plus a memory subset, shaped to produce TLB misses, L1/L2 misses and
    /// capacity evictions.
    fn warm_pattern(len: usize, salt: u64) -> (Vec<u64>, Vec<u32>, Vec<u64>, Vec<bool>) {
        let mut pc = Vec::with_capacity(len);
        let mut mem_pos = Vec::new();
        let mut mem_addr = Vec::new();
        let mut mem_store = Vec::new();
        let mut x = salt.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        for i in 0..len {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            // Mostly-sequential fetch with occasional far jumps.
            let p = if x.is_multiple_of(13) {
                0x40_0000 + (x >> 32) % 0x8_0000
            } else {
                0x40_0000 + (i as u64) * 4
            };
            pc.push(p);
            if x.is_multiple_of(3) {
                mem_pos.push(i as u32);
                mem_addr
                    .push(((x >> 16) % 0x20_000) * 8 + u64::from(x.is_multiple_of(5)) * 0x100_0000);
                mem_store.push(x.is_multiple_of(4));
            }
        }
        (pc, mem_pos, mem_addr, mem_store)
    }

    /// Scalar reference: the exact loop `FunctionalState::advance` ran
    /// before batching (I-dedup, then data access, nominal clock per inst).
    fn warm_scalar(
        m: &mut MemoryHierarchy,
        core: usize,
        pattern: &(Vec<u64>, Vec<u32>, Vec<u64>, Vec<bool>),
        last_iline: &mut u64,
        now: u64,
    ) {
        let (pc, mem_pos, mem_addr, mem_store) = pattern;
        let mut mi = 0usize;
        for (i, &p) in pc.iter().enumerate() {
            let t = now + i as u64;
            let line = p >> 6;
            if *last_iline != line {
                *last_iline = line;
                let _ = m.access_instruction(core, p, t);
            }
            if mi < mem_pos.len() && mem_pos[mi] as usize == i {
                let _ = m.access_data(core, mem_addr[mi], mem_store[mi], t);
                mi += 1;
            }
        }
    }

    #[test]
    fn warm_batch_matches_scalar_warming_exactly() {
        for cores in [1usize, 2] {
            let mut scalar = MemoryHierarchy::new(&small_config(cores));
            let mut batched = MemoryHierarchy::new(&small_config(cores));
            scalar.set_warming(true);
            batched.set_warming(true);
            let mut s_last = vec![u64::MAX; cores];
            let mut b_last = vec![u64::MAX; cores];
            let mut now = 0u64;
            // Several rounds of interleaved per-core batches, exercising the
            // shared L2 and DRAM counters from both cores.
            for round in 0..6u64 {
                for core in 0..cores {
                    let pattern = warm_pattern(257, round * 31 + core as u64);
                    warm_scalar(&mut scalar, core, &pattern, &mut s_last[core], now);
                    batched.warm_access_batch(
                        core,
                        &pattern.0,
                        &pattern.1,
                        &pattern.2,
                        &pattern.3,
                        6,
                        &mut b_last[core],
                        now,
                    );
                    now += pattern.0.len() as u64;
                }
            }
            assert_eq!(s_last, b_last);
            assert_eq!(batched.stats(), scalar.stats(), "cores={cores}");
            assert_eq!(
                batched.warmth_summary(),
                scalar.warmth_summary(),
                "cores={cores}"
            );
            // Post-warming timed accesses observe identical cache state.
            scalar.set_warming(false);
            batched.set_warming(false);
            for i in 0..64u64 {
                let a = 0x100_0000 + i * 64 * 7;
                assert_eq!(
                    scalar.access_data(0, a, i % 2 == 0, now + i),
                    batched.access_data(0, a, i % 2 == 0, now + i)
                );
            }
        }
    }

    #[test]
    fn warm_batch_in_tiny_pieces_equals_one_big_batch() {
        // Batch size must not be observable: slicing the same instruction
        // sequence into single-instruction batches gives the same state.
        let pattern = warm_pattern(300, 99);
        let mut whole = MemoryHierarchy::new(&small_config(1));
        let mut pieces = MemoryHierarchy::new(&small_config(1));
        whole.set_warming(true);
        pieces.set_warming(true);
        let (mut w_last, mut p_last) = (u64::MAX, u64::MAX);
        whole.warm_access_batch(
            0,
            &pattern.0,
            &pattern.1,
            &pattern.2,
            &pattern.3,
            6,
            &mut w_last,
            0,
        );
        let (pc, mem_pos, mem_addr, mem_store) = &pattern;
        let mut mi = 0usize;
        for (i, &p) in pc.iter().enumerate() {
            let has_mem = mi < mem_pos.len() && mem_pos[mi] as usize == i;
            let (pos, addr, store): (&[u32], &[u64], &[bool]) = if has_mem {
                (&[0u32], &mem_addr[mi..=mi], &mem_store[mi..=mi])
            } else {
                (&[], &[], &[])
            };
            pieces.warm_access_batch(0, &[p], pos, addr, store, 6, &mut p_last, i as u64);
            if has_mem {
                mi += 1;
            }
        }
        assert_eq!(w_last, p_last);
        assert_eq!(whole.stats(), pieces.stats());
        assert_eq!(whole.warmth_summary(), pieces.warmth_summary());
    }

    #[test]
    #[should_panic(expected = "functional-warming mode")]
    fn warm_batch_outside_warming_mode_panics() {
        let mut m = MemoryHierarchy::new(&small_config(1));
        let mut last = u64::MAX;
        m.warm_access_batch(0, &[0x40_0000], &[], &[], &[], 6, &mut last, 0);
    }

    #[test]
    fn l2_eviction_back_invalidates_l1() {
        let mut cfg = small_config(1);
        // L2 as small as the L1 so it evicts quickly.
        cfg.l2 = Some(CacheConfig {
            size_bytes: 4096,
            ways: 1,
            line_bytes: 64,
            latency: 12,
        });
        let mut m = MemoryHierarchy::new(&cfg);
        m.access_data(0, 0x0, false, 0);
        assert!(m.l1d_state(0, 0x0).is_valid());
        // Map another line onto the same (direct-mapped) L2 set: 4096-byte stride.
        m.access_data(0, 0x1000, false, 10);
        assert_eq!(
            m.l1d_state(0, 0x0),
            LineState::Invalid,
            "inclusion requires back-invalidation of the L1 copy"
        );
    }
}

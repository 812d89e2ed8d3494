//! Sampled simulation with statistical error bars.
//!
//! The paper trades mechanistic detail for simulation speed; sampling climbs
//! the next rung of that ladder (SMARTS-style, informed by Bueno et al.'s
//! work on interval representativeness): partition the run into fixed-size
//! **sampling units**, fast-forward most units *functionally* — streams
//! advance and the long-lived state (branch tables, caches, TLBs) stays warm
//! through [`iss_trace::fast_forward_batched`], but no cycles are accounted — and
//! run every k-th unit on a real **measurement model** (interval or
//! detailed). Each measured unit opens with a warmup prefix executed on the
//! measurement model but excluded from the sample, so transient
//! microarchitectural state (window/ROB occupancy, in-flight misses) has
//! settled before cycles are counted.
//!
//! Two estimator details matter in practice:
//!
//! * **The run-initial transient is measured, not sampled.** At small
//!   instruction budgets a large share of the reference cycles comes from
//!   the cold-start transient (empty caches, untrained predictors), which
//!   exists once and is representative of nothing. The first
//!   `prefix_units` units therefore run on the measurement model and their
//!   cycles are counted *exactly*; only the steady remainder is sampled.
//! * **The error bar is honest.** The steady-state per-unit CPI population
//!   yields a Student-t **95% confidence interval**; it is scaled by the
//!   steady region's instruction share into a whole-run-CPI half-width and
//!   reported next to the point estimate — the confidence information a
//!   plain hybrid run cannot provide.
//! * **Miss events are a control variate.** Functional warming observes the
//!   long-latency misses of every fast-forwarded unit (the same L2-miss
//!   counter the timing models drive), and the paper's own thesis is that
//!   those events explain CPI. The estimator exploits it: a weighted
//!   regression of sampled-unit CPI on per-unit miss rate predicts the
//!   *unmeasured* units' CPI from their observed miss rates, which corrects
//!   the aliasing a periodic sample suffers on bursty, miss-driven phase
//!   behaviour. With fewer than three samples (or a degenerate miss
//!   spread) the slope is zero and the estimator falls back to the plain
//!   weighted mean.
//!
//! Determinism: every decision here is driven by simulated state only
//! (instruction counts, stream contents, synchronization outcomes), so a
//! sampled run is bit-identical across `ISS_THREADS` settings, exactly like
//! the plain and hybrid runs. Warming itself executes in structure-of-arrays
//! batches ([`DEFAULT_WARM_BATCH`] instructions decoded per batch):
//! [`iss_trace::fast_forward_batched`] fills an [`InstBatch`]'s columns, the
//! hierarchy walks the batch's line-deduplicated I-side and data column in
//! program order (`MemoryHierarchy::warm_access_batch`), and the branch unit
//! replays the branch subset (`BranchUnit::update_batch`). Branch tables are
//! per-core private and disjoint from the memory hierarchy, so hoisting the
//! branch updates after the memory walk commutes, and every batch size —
//! including the scalar-degenerate `1` — produces bit-identical records.
//!
//! Transitions go through the one [`ModelCheckpoint`] the hybrid subsystem
//! uses. Timed→functional consumes the machine
//! ([`AnyMachine::into_lean_checkpoint`]); functional→timed assembles the
//! checkpoint from the warmed state and [`AnyMachine::restore`]s the
//! measurement model from it, which warm-starts from the transferred
//! streams, branch tables and hierarchy. No hierarchy or stream is ever
//! cloned, and consecutive measured units keep the machine alive, so
//! `sample_every = 1` degenerates to the pure measurement model.

use iss_trace::host_time::HostTimer;

use iss_branch::BranchUnit;
use iss_mem::MemoryHierarchy;
use iss_trace::{
    fast_forward_batched, CheckpointStream, CoreResume, InstBatch, SyncController, ThreadedWorkload,
};

use crate::config::SystemConfig;
use crate::model::{AnyMachine, ModelCheckpoint};
use crate::runner::{BaseModel, CoreModel, CoreSummary, SimSummary};

/// Cache-line shift used to batch instruction-side warming accesses (one
/// hierarchy access per fetched line, as a real fetch unit would).
const IFETCH_LINE_SHIFT: u32 = 6;

/// Functional-warming batch size of [`run_sampled`].
///
/// 64 instructions amortize the per-batch column passes well while keeping
/// the structure-of-arrays buffers inside the L1 data cache. The size is a
/// whole number of [`iss_simd::LANE_WIDTH`] lanes so the batched columns
/// feed the lane kernels full chunks with no scalar tail (any batch size is
/// bit-identical; lane-multiple sizes are just fastest).
pub const DEFAULT_WARM_BATCH: usize = 8 * iss_simd::LANE_WIDTH;

/// Complete description of a sampled run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SamplingSpec {
    /// The timing model that executes the measured units.
    pub measure: BaseModel,
    /// Instructions per sampling unit (chip-wide).
    pub unit_insts: u64,
    /// Sampling period over the steady region: the last unit of every
    /// `sample_every`-unit period is measured, the rest are functionally
    /// fast-forwarded. `1` measures everything.
    pub sample_every: u32,
    /// Warmup prefix of each *sampled* unit: executed on the measurement
    /// model, excluded from the CPI sample. Must be smaller than
    /// `unit_insts`.
    pub warmup_insts: u64,
    /// Run-initial units executed on the measurement model with their
    /// cycles counted exactly (the cold-start transient, which sampling
    /// must not extrapolate from or into).
    pub prefix_units: u32,
}

impl SamplingSpec {
    /// A sampled run measuring on `measure`: `prefix_units` exact units up
    /// front, then every `sample_every`-th unit of `unit_insts` instructions
    /// sampled after a `warmup_insts` prefix.
    #[must_use]
    pub fn new(
        measure: BaseModel,
        unit_insts: u64,
        sample_every: u32,
        warmup_insts: u64,
        prefix_units: u32,
    ) -> Self {
        SamplingSpec {
            measure,
            unit_insts,
            sample_every,
            warmup_insts,
            prefix_units,
        }
    }

    /// Stable label used in reports and golden files.
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "sampled-{}-1in{}@{}w{}p{}",
            self.measure.name(),
            self.sample_every,
            self.unit_insts,
            self.warmup_insts,
            self.prefix_units
        )
    }

    /// Checks the spec's internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a message when the unit size is zero, the sampling period is
    /// zero, or the warmup prefix does not leave room to measure.
    pub fn validate(&self) -> Result<(), String> {
        if self.unit_insts == 0 {
            return Err("sampling unit size must be non-zero".to_string());
        }
        if self.sample_every == 0 {
            return Err("sample_every must be at least 1".to_string());
        }
        if self.warmup_insts >= self.unit_insts {
            return Err(format!(
                "warmup ({}) must be smaller than the sampling unit ({}), \
                 or nothing is left to measure",
                self.warmup_insts, self.unit_insts
            ));
        }
        Ok(())
    }
}

/// One steady unit as the estimator sees it: its instruction count, its
/// long-latency miss rate (observed identically by functional warming and
/// by the timing models), and — for sampled units — its measured CPI.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SteadyUnitObs {
    /// Instructions the unit covered (post-warmup portion for sampled
    /// units, consumed instructions for functional ones).
    pub insts: u64,
    /// Memory-latency cycles per instruction the hierarchy handed out over
    /// the unit (the counter both warming and the timing models drive).
    pub aux_per_inst: f64,
    /// Measured CPI (`Some` for sampled units only).
    pub cpi: Option<f64>,
}

/// The statistical output of a sampled run: the exactly measured prefix
/// plus the steady-state per-unit CPI population, summarized as a whole-run
/// point estimate with a 95% confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplingEstimate {
    /// Sampling units the run was partitioned into (prefix + steady).
    pub units_total: u64,
    /// Steady units that contributed a CPI sample.
    pub units_measured: u64,
    /// Instructions inside the exactly measured run-initial prefix.
    pub prefix_instructions: u64,
    /// Instructions inside the measured (post-warmup) portions of the
    /// sampled steady units.
    pub measured_instructions: u64,
    /// Whole-run CPI point estimate: exact prefix cycles plus the
    /// regression-adjusted steady CPI extrapolated over the steady region.
    pub cpi: f64,
    /// Regression-adjusted CPI of the steady region: the
    /// instruction-weighted sampled-unit CPI, shifted by the miss-rate
    /// regression towards the miss rate of the *whole* steady population.
    pub steady_cpi: f64,
    /// Slope of the CPI-on-miss-rate regression (cycles per miss; 0 when
    /// the estimator fell back to the plain mean).
    pub aux_slope: f64,
    /// Residual standard deviation of the steady per-unit CPI population
    /// around the regression line (0 when fewer than two units were
    /// sampled).
    pub cpi_stddev: f64,
    /// Half-width of the 95% confidence interval around
    /// [`cpi`](Self::cpi), in whole-run-CPI units (Student-t over the
    /// steady residuals, scaled by the steady region's instruction share;
    /// infinite when exactly one steady unit was sampled, zero when the
    /// prefix covered the entire run).
    pub ci95_half_width: f64,
}

impl SamplingEstimate {
    /// Lower edge of the 95% confidence interval.
    #[must_use]
    pub fn ci_low(&self) -> f64 {
        self.cpi - self.ci95_half_width
    }

    /// Upper edge of the 95% confidence interval.
    #[must_use]
    pub fn ci_high(&self) -> f64 {
        self.cpi + self.ci95_half_width
    }

    /// Whether the interval brackets `reference_cpi` (what a correctly
    /// calibrated 95% interval does for the true CPI ~95% of the time).
    #[must_use]
    pub fn brackets(&self, reference_cpi: f64) -> bool {
        self.ci_low() <= reference_cpi && reference_cpi <= self.ci_high()
    }

    /// Assembles the estimate from the measurement bookkeeping: the exact
    /// prefix `(cycles, instructions)`, every steady unit's observation
    /// (instructions + miss rate, plus the measured CPI of the sampled
    /// ones), and the run totals.
    #[must_use]
    pub fn assemble(
        steady_units: &[SteadyUnitObs],
        prefix: (u64, u64),
        total_instructions: u64,
        units_total: u64,
        regress: bool,
    ) -> Self {
        let (prefix_cycles, prefix_insts) = prefix;
        let sampled: Vec<&SteadyUnitObs> =
            steady_units.iter().filter(|u| u.cpi.is_some()).collect();
        let n = sampled.len();
        let measured_insts: u64 = sampled.iter().map(|u| u.insts).sum();
        let w_total: f64 = measured_insts as f64;

        // Instruction-weighted sampled means of CPI and miss rate.
        let (y_bar, z_bar_sampled) = if w_total > 0.0 {
            #[expect(
                clippy::expect_used,
                reason = "measured units always carry a CPI; the sampler sets it before aggregation"
            )]
            let wy: f64 = sampled
                .iter()
                .map(|u| u.insts as f64 * u.cpi.expect("sampled unit has a CPI"))
                .sum();
            let wz: f64 = sampled
                .iter()
                .map(|u| u.insts as f64 * u.aux_per_inst)
                .sum();
            (wy / w_total, wz / w_total)
        } else {
            (0.0, 0.0)
        };
        // Instruction-weighted miss rate of the whole steady population —
        // functional warming observed it for every unit, sampled or not.
        let pop_insts: f64 = steady_units.iter().map(|u| u.insts as f64).sum();
        let z_bar_pop = if pop_insts > 0.0 {
            steady_units
                .iter()
                .map(|u| u.insts as f64 * u.aux_per_inst)
                .sum::<f64>()
                / pop_insts
        } else {
            0.0
        };

        // Weighted least-squares slope of CPI on miss rate, fitted over the
        // steady samples only — the cold-transient prefix follows a
        // steeper, differently-shaped relation (no MLP, untrained
        // predictors) and mixing it in corrupts the fit. With fewer than
        // three samples (no residual degree of freedom) or a degenerate
        // miss-rate spread, fall back to the plain weighted mean.
        let mut slope = 0.0;
        if regress && n >= 3 {
            let sxx: f64 = sampled
                .iter()
                .map(|u| {
                    let d = u.aux_per_inst - z_bar_sampled;
                    u.insts as f64 * d * d
                })
                .sum();
            if sxx > 1e-12 * w_total {
                #[expect(
                    clippy::expect_used,
                    reason = "measured units always carry a CPI; the sampler sets it before aggregation"
                )]
                let sxy: f64 = sampled
                    .iter()
                    .map(|u| {
                        (u.insts as f64)
                            * (u.aux_per_inst - z_bar_sampled)
                            * (u.cpi.expect("sampled unit has a CPI") - y_bar)
                    })
                    .sum();
                slope = sxy / sxx;
            }
        }
        // Every instruction costs at least one dispatch slot; an adjusted
        // CPI below that is extrapolation noise, not a prediction. When no
        // steady unit was ever sampled (a period longer than the steady
        // region), the measured prefix is the only timing information —
        // extrapolate from it (cold-biased, flagged by the infinite
        // interval below) instead of fabricating a number; with no
        // measurement at all, report 0 cycles, which is obviously
        // degenerate rather than plausibly wrong.
        let steady_cpi = if n > 0 {
            (y_bar + slope * (z_bar_pop - z_bar_sampled)).max(0.05)
        } else if prefix_insts > 0 {
            prefix_cycles as f64 / prefix_insts as f64
        } else {
            0.0
        };

        let steady_region = total_instructions.saturating_sub(prefix_insts);
        let total_cycles_est = prefix_cycles as f64 + steady_cpi * steady_region as f64;
        let cpi = if total_instructions > 0 {
            total_cycles_est / total_instructions as f64
        } else {
            0.0
        };
        let steady_share = if total_instructions > 0 {
            steady_region as f64 / total_instructions as f64
        } else {
            0.0
        };
        let (stddev, half_width) = if steady_region == 0 {
            // The prefix covered the whole run: everything was measured.
            (0.0, 0.0)
        } else if n < 2 {
            (0.0, f64::INFINITY)
        } else {
            // Residuals around the regression line (the line is the plain
            // mean when the slope fell back to zero).
            let params = if slope != 0.0 { 2 } else { 1 };
            let dof = n - params;
            let ss_res: f64 = sampled
                .iter()
                .map(|u| {
                    #[expect(clippy::expect_used, reason = "measured units always carry a CPI; the sampler sets it before aggregation")]
                    let e = u.cpi.expect("sampled unit has a CPI")
                        - y_bar
                        - slope * (u.aux_per_inst - z_bar_sampled);
                    e * e
                })
                .sum();
            if dof == 0 {
                (0.0, f64::INFINITY)
            } else {
                let stddev = (ss_res / dof as f64).sqrt();
                let t = t_critical_975(dof as u64);
                (stddev, t * stddev / (n as f64).sqrt() * steady_share)
            }
        };
        SamplingEstimate {
            units_total,
            units_measured: n as u64,
            prefix_instructions: prefix_insts,
            measured_instructions: measured_insts,
            cpi,
            steady_cpi,
            aux_slope: slope,
            cpi_stddev: stddev,
            ci95_half_width: half_width,
        }
    }
}

/// Two-sided 97.5th-percentile critical value of the Student-t distribution
/// (the multiplier of a 95% confidence interval) for `df` degrees of
/// freedom.
#[must_use]
pub fn t_critical_975(df: u64) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    match df {
        0 => f64::INFINITY,
        1..=30 => TABLE[(df - 1) as usize],
        31..=60 => 2.000,
        61..=120 => 1.980,
        _ => 1.960,
    }
}

/// Functionally maintained machine state between measured units: stream
/// positions, warm branch tables and memory hierarchy, synchronization
/// state, per-core progress, and the nominal clock.
struct FunctionalState {
    streams: Vec<CheckpointStream>,
    branch: Vec<BranchUnit>,
    memory: MemoryHierarchy,
    sync: SyncController,
    per_core: Vec<CoreResume>,
    /// Last instruction-cache line fetched per core (I-side warming is
    /// batched per line, as a real fetch unit batches its accesses).
    last_iline: Vec<u64>,
    /// Nominal clock: advanced one cycle per functionally consumed
    /// instruction, so DRAM reservations made while warming stay roughly
    /// contemporaneous with the resumed timing model.
    now: u64,
    /// Reusable structure-of-arrays decode buffer: the fast-forwarder fills
    /// its columns batch by batch, so no per-batch allocation survives on
    /// the warming hot path.
    batch: InstBatch,
}

impl FunctionalState {
    fn fresh(
        config: &SystemConfig,
        streams: Vec<CheckpointStream>,
        sync: SyncController,
        warm_batch: usize,
    ) -> Self {
        let num_cores = streams.len();
        let mut memory = MemoryHierarchy::new(&config.memory);
        memory.set_warming(true);
        FunctionalState {
            streams,
            branch: (0..num_cores)
                .map(|_| BranchUnit::new(&config.branch))
                .collect(),
            memory,
            sync,
            per_core: vec![
                CoreResume {
                    time: 0,
                    instructions: 0,
                    done: false,
                };
                num_cores
            ],
            last_iline: vec![u64::MAX; num_cores],
            now: 0,
            batch: InstBatch::with_capacity(warm_batch),
        }
    }

    fn from_checkpoint(ckpt: ModelCheckpoint, config: &SystemConfig, warm_batch: usize) -> Self {
        let num_cores = ckpt.streams.len();
        let mut memory = ckpt.memory;
        memory.set_warming(true);
        // Only the one-IPC measurement model yields a branch-less
        // checkpoint; the cold-table fallback is built lazily so the
        // common path allocates nothing.
        let branch = ckpt.branch.unwrap_or_else(|| {
            (0..num_cores)
                .map(|_| BranchUnit::new(&config.branch))
                .collect()
        });
        FunctionalState {
            streams: ckpt.streams,
            branch,
            memory,
            sync: ckpt.sync,
            per_core: ckpt.per_core,
            last_iline: vec![u64::MAX; num_cores],
            now: ckpt.machine_time,
            batch: InstBatch::with_capacity(warm_batch),
        }
    }

    fn into_checkpoint(mut self) -> ModelCheckpoint {
        self.memory.set_warming(false);
        ModelCheckpoint {
            machine_time: self.now,
            per_core: self.per_core,
            streams: self.streams,
            branch: Some(self.branch),
            memory: self.memory,
            sync: self.sync,
        }
    }

    fn all_done(&self) -> bool {
        self.per_core.iter().all(|c| c.done)
    }

    /// Fast-forwards up to `budget` instructions, warming branch tables and
    /// the memory hierarchy from every consumed instruction; returns the
    /// instructions consumed.
    ///
    /// Instructions are decoded into the structure-of-arrays [`InstBatch`]
    /// and observed a batch at a time: the hierarchy replays the batch's
    /// I-side (line-deduplicated, like the per-instruction path) and data
    /// column in program order with each access stamped `now + position`,
    /// then the branch unit replays the branch subset. The per-instruction
    /// interleaving this reorders — branch update between I- and D-access —
    /// touches disjoint state (branch tables are per-core private), so
    /// every batch size yields bit-identical warm state and statistics.
    fn advance(&mut self, budget: u64) -> u64 {
        let memory = &mut self.memory;
        let branch = &mut self.branch;
        let last_iline = &mut self.last_iline;
        let mut now = self.now;
        let consumed = fast_forward_batched(
            &mut self.streams,
            &mut self.sync,
            &mut self.per_core,
            budget,
            &mut self.batch,
            &mut |core, batch| {
                memory.warm_access_batch(
                    core,
                    &batch.pc,
                    &batch.mem_pos,
                    &batch.mem_addr,
                    &batch.mem_store,
                    IFETCH_LINE_SHIFT,
                    &mut last_iline[core],
                    now,
                );
                branch[core].update_batch(&batch.br_pc, &batch.br_info);
                now += batch.len() as u64;
            },
        );
        self.now = now;
        for resume in &mut self.per_core {
            if !resume.done {
                resume.time = now;
            }
        }
        consumed
    }
}

/// The machine as the sampling controller sees it: functionally maintained
/// between samples, a live timing model inside (runs of) measured units.
///
/// Exactly one `Phase` exists per sampled run and it is rebuilt on every
/// functional↔timed transition; boxing the larger variant would trade a
/// stack move for a heap round-trip on that hot control path.
#[allow(clippy::large_enum_variant)]
enum Phase {
    Functional(FunctionalState),
    Timed(AnyMachine),
}

/// Chip-level progress probe of a timing model, cheap enough to take at
/// unit boundaries: `(cycles, instructions, contention-free memory latency
/// cycles — the estimator's regression covariate — and per-core (cycles,
/// insts))`.
fn probe(machine: &AnyMachine, spec: SamplingSpec) -> (u64, u64, u64, Vec<(u64, u64)>) {
    let s = machine.summary(CoreModel::Sampled(spec), String::new());
    let per_core = s
        .per_core
        .iter()
        .map(|c| (c.cycles, c.instructions))
        .collect();
    let latency = s.memory.totals().latency_cycles;
    (s.cycles, s.total_instructions, latency, per_core)
}

/// Runs `workload` under the sampling spec and returns the
/// model-independent summary (tagged `CoreModel::Sampled(spec)`, with the
/// statistical estimate attached and the functional→timed transitions
/// recorded as `swaps`).
///
/// Functional warming runs in structure-of-arrays batches of
/// [`DEFAULT_WARM_BATCH`] instructions.
///
/// # Panics
///
/// Panics when the spec is invalid (see [`SamplingSpec::validate`]).
#[must_use]
pub fn run_sampled(
    spec: SamplingSpec,
    config: &SystemConfig,
    workload: ThreadedWorkload,
    label: String,
) -> SimSummary {
    run_sampled_with_batch(spec, config, workload, label, DEFAULT_WARM_BATCH)
}

/// [`run_sampled`] with an explicit warming batch size — the seam the
/// differential tests use to show that every batch size, including the
/// scalar-degenerate `1`, produces bit-identical records.
///
/// # Panics
///
/// Panics when the spec is invalid (see [`SamplingSpec::validate`]) or
/// `warm_batch` is zero.
#[must_use]
pub fn run_sampled_with_batch(
    spec: SamplingSpec,
    config: &SystemConfig,
    workload: ThreadedWorkload,
    label: String,
    warm_batch: usize,
) -> SimSummary {
    spec.validate()
        .unwrap_or_else(|e| panic!("invalid sampling spec: {e}"));
    let start = HostTimer::start();
    let num_cores = workload.num_cores();
    let (raw_streams, sync) = workload.into_parts();
    let mut phase = Phase::Functional(FunctionalState::fresh(
        config,
        raw_streams
            .into_iter()
            .map(CheckpointStream::fresh)
            .collect(),
        sync,
        warm_batch,
    ));

    let mut unit: u64 = 0;
    let mut swaps: u64 = 0;
    let mut fast_forwarded: u64 = 0;
    let mut steady_obs: Vec<SteadyUnitObs> = Vec::new();
    let mut prefix_acc = (0u64, 0u64);
    let mut steady_acc = (0u64, 0u64);
    let mut per_core_prefix: Vec<(u64, u64)> = vec![(0, 0); num_cores];
    let mut per_core_steady: Vec<(u64, u64)> = vec![(0, 0); num_cores];
    let period = u64::from(spec.sample_every);
    let prefix_units = u64::from(spec.prefix_units);

    let mut t_restore = 0.0f64;
    let mut t_measure = 0.0f64;
    let mut t_extract = 0.0f64;
    let mut t_warm = 0.0f64;
    loop {
        let done = match &phase {
            Phase::Functional(fs) => fs.all_done(),
            Phase::Timed(m) => m.is_done(),
        };
        if done {
            break;
        }
        let in_prefix = unit < prefix_units;
        // Over the steady region, the *last* unit of each period is the
        // measured one, so every sample follows `sample_every - 1`
        // functional-warming units.
        let sampled = !in_prefix && (unit - prefix_units) % period == period - 1;
        if in_prefix || sampled {
            let t0 = HostTimer::start();
            let mut machine = match phase {
                Phase::Timed(m) => m,
                Phase::Functional(fs) => {
                    // The initial build from the cold functional state is
                    // not a transition; only boundaries after real
                    // fast-forwarding count as swaps.
                    if fast_forwarded > 0 {
                        swaps += 1;
                    }
                    AnyMachine::restore(spec.measure, config, fs.into_checkpoint())
                }
            };
            t_restore += t0.elapsed_seconds();
            let t0 = HostTimer::start();
            // A sampled unit opens with a warmup prefix (excluded from the
            // sample); prefix units are continuous with the preceding unit,
            // so everything they run is counted exactly.
            let warmup = if sampled { spec.warmup_insts } else { 0 };
            if warmup > 0 {
                machine.step_interval(warmup);
            }
            if !machine.is_done() {
                let (c0, i0, m0, pc0) = probe(&machine, spec);
                machine.step_interval(spec.unit_insts - warmup);
                let (c1, i1, m1, pc1) = probe(&machine, spec);
                let (dc, di) = (c1 - c0, i1 - i0);
                if di > 0 {
                    let obs = SteadyUnitObs {
                        insts: di,
                        aux_per_inst: (m1 - m0) as f64 / di as f64,
                        cpi: Some(dc as f64 / di as f64),
                    };
                    let (acc, per_core_acc) = if in_prefix {
                        (&mut prefix_acc, &mut per_core_prefix)
                    } else {
                        steady_obs.push(obs);
                        (&mut steady_acc, &mut per_core_steady)
                    };
                    acc.0 += dc;
                    acc.1 += di;
                    for (core, slot) in per_core_acc.iter_mut().enumerate() {
                        slot.0 += pc1[core].0 - pc0[core].0;
                        slot.1 += pc1[core].1 - pc0[core].1;
                    }
                }
            }
            t_measure += t0.elapsed_seconds();
            phase = Phase::Timed(machine);
        } else {
            let t0 = HostTimer::start();
            let mut fs = match phase {
                Phase::Timed(m) => {
                    FunctionalState::from_checkpoint(m.into_lean_checkpoint(), config, warm_batch)
                }
                Phase::Functional(fs) => fs,
            };
            t_extract += t0.elapsed_seconds();
            let t0 = HostTimer::start();
            let latency_before = fs.memory.stats().totals().latency_cycles;
            let consumed = fs.advance(spec.unit_insts);
            if consumed > 0 {
                let latency = fs.memory.stats().totals().latency_cycles - latency_before;
                steady_obs.push(SteadyUnitObs {
                    insts: consumed,
                    aux_per_inst: latency as f64 / consumed as f64,
                    cpi: None,
                });
            }
            t_warm += t0.elapsed_seconds();
            fast_forwarded += consumed;
            let stuck = consumed == 0 && !fs.all_done();
            phase = Phase::Functional(fs);
            if stuck {
                // Cannot happen for the deadlock-free synthetic workloads
                // (some thread can always progress); if it ever does, jump
                // to the next sampled unit rather than spinning — the
                // timing model accounts synchronization stalls properly.
                let offset = unit - prefix_units;
                unit += (period - 1 - offset % period) % period;
                continue;
            }
        }
        unit += 1;
    }

    if crate::env::SAMPLING_TRACE.get() {
        eprintln!(
            "sampling trace: restore {:.1}ms measure {:.1}ms extract {:.1}ms warm {:.1}ms",
            t_restore * 1e3,
            t_measure * 1e3,
            t_extract * 1e3,
            t_warm * 1e3
        );
    }
    // --- extrapolation -----------------------------------------------------
    let (total_instructions, per_core_insts, memory) = match &phase {
        Phase::Timed(m) => {
            let s = m.summary(CoreModel::Sampled(spec), String::new());
            (
                s.total_instructions,
                s.per_core
                    .iter()
                    .map(|c| c.instructions)
                    .collect::<Vec<_>>(),
                m.memory_stats(),
            )
        }
        Phase::Functional(fs) => (
            fs.per_core.iter().map(|c| c.instructions).sum(),
            fs.per_core.iter().map(|c| c.instructions).collect(),
            fs.memory.stats(),
        ),
    };
    // The regression is only sound when the sampled units' latency counter
    // is commensurable with the functionally warmed units': the detailed
    // model performs exactly one hierarchy access per fetch/load/store, as
    // warming does, but the interval model's overlap scan issues extra
    // probe accesses and the one-IPC model skips the I-side entirely.
    let regress = spec.measure == BaseModel::Detailed;
    let estimate =
        SamplingEstimate::assemble(&steady_obs, prefix_acc, total_instructions, unit, regress);
    let cycles = (estimate.cpi * total_instructions as f64).round() as u64;
    // Per-core extrapolation: exact per-core prefix cycles plus the core's
    // own steady measurement ratio, shifted by the chip-wide regression
    // adjustment (cores with no steady measurement take the chip-wide
    // steady CPI). A single-core chip just reports the chip estimate.
    let chip_raw_steady = if steady_acc.1 > 0 {
        steady_acc.0 as f64 / steady_acc.1 as f64
    } else {
        estimate.steady_cpi
    };
    let adjustment = estimate.steady_cpi - chip_raw_steady;
    let per_core: Vec<CoreSummary> = per_core_insts
        .iter()
        .enumerate()
        .map(|(core, &insts)| {
            let cycles = if num_cores == 1 {
                cycles
            } else {
                let (pc, pi) = per_core_prefix[core];
                let (sc, si) = per_core_steady[core];
                let steady_cpi = if si > 0 {
                    (sc as f64 / si as f64 + adjustment).max(0.05)
                } else {
                    estimate.steady_cpi
                };
                let steady_region = insts.saturating_sub(pi);
                (pc as f64 + steady_cpi * steady_region as f64).round() as u64
            };
            CoreSummary {
                core,
                instructions: insts,
                cycles,
            }
        })
        .collect();
    SimSummary {
        model: CoreModel::Sampled(spec),
        workload: label,
        cycles,
        per_core,
        total_instructions,
        host_seconds: start.elapsed_seconds(),
        memory,
        swaps,
        sampling: Some(estimate),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadSpec;

    #[test]
    fn spec_labels_are_stable() {
        let spec = SamplingSpec::new(BaseModel::Detailed, 1_000, 10, 200, 4);
        assert_eq!(spec.label(), "sampled-detailed-1in10@1000w200p4");
        let spec = SamplingSpec::new(BaseModel::Interval, 500, 4, 0, 0);
        assert_eq!(spec.label(), "sampled-interval-1in4@500w0p0");
    }

    #[test]
    fn spec_validation_rejects_degenerate_parameters() {
        assert!(SamplingSpec::new(BaseModel::Detailed, 0, 4, 0, 0)
            .validate()
            .is_err());
        assert!(SamplingSpec::new(BaseModel::Detailed, 100, 0, 0, 0)
            .validate()
            .is_err());
        assert!(SamplingSpec::new(BaseModel::Detailed, 100, 4, 100, 0)
            .validate()
            .is_err());
        assert!(SamplingSpec::new(BaseModel::Detailed, 100, 4, 99, 2)
            .validate()
            .is_ok());
    }

    #[test]
    fn t_table_is_monotone_and_approaches_the_normal_value() {
        assert!(t_critical_975(0).is_infinite());
        let mut prev = f64::INFINITY;
        for df in 1..40 {
            let t = t_critical_975(df);
            assert!(t <= prev, "t must not increase with df");
            prev = t;
        }
        assert!((t_critical_975(10_000) - 1.96).abs() < 1e-9);
    }

    fn sampled_obs(insts: u64, aux: f64, cpi: f64) -> SteadyUnitObs {
        SteadyUnitObs {
            insts,
            aux_per_inst: aux,
            cpi: Some(cpi),
        }
    }

    fn functional_obs(insts: u64, aux: f64) -> SteadyUnitObs {
        SteadyUnitObs {
            insts,
            aux_per_inst: aux,
            cpi: None,
        }
    }

    #[test]
    fn estimate_assembles_prefix_and_steady_portions() {
        // Prefix: 2000 insts at CPI 5 (exact). Steady samples: CPI ~1 over
        // 2000 of the remaining 8000 instructions; the miss rate is flat, so
        // the regression degenerates to the plain weighted mean.
        let units: Vec<SteadyUnitObs> = [1.0, 1.2, 0.8, 1.1, 0.9]
            .iter()
            .map(|&c| sampled_obs(400, 0.01, c))
            .chain((0..12).map(|_| functional_obs(500, 0.01)))
            .collect();
        let est = SamplingEstimate::assemble(&units, (10_000, 2_000), 10_000, 20, true);
        assert_eq!(est.units_measured, 5);
        assert_eq!(est.prefix_instructions, 2_000);
        assert_eq!(est.measured_instructions, 2_000);
        assert_eq!(est.aux_slope, 0.0, "flat miss rate must not regress");
        // Whole-run estimate: (10000 + 1.0 * 8000) / 10000 = 1.8.
        assert!((est.cpi - 1.8).abs() < 1e-9);
        assert!((est.steady_cpi - 1.0).abs() < 1e-9);
        // Steady stddev 0.1581, t(4) = 2.776, steady share 0.8:
        // half width = 2.776 * 0.1581 / sqrt(5) * 0.8 ~ 0.157.
        assert!((est.cpi_stddev - 0.1581).abs() < 1e-3);
        assert!((est.ci95_half_width - 0.157).abs() < 1e-3);
        assert!(est.brackets(1.8));
        assert!(est.brackets(1.9));
        assert!(!est.brackets(2.2));
    }

    #[test]
    fn miss_rate_regression_corrects_sampling_aliasing() {
        // CPI is exactly 1 + 100 * miss-rate. The sample caught only
        // low-miss units (miss rate 0.01 -> CPI 2), but the functional
        // population also contains high-miss units (0.05); a plain mean
        // would report 2.0, the regression recovers the population mean.
        let units = vec![
            sampled_obs(500, 0.010, 2.0),
            sampled_obs(500, 0.012, 2.2),
            sampled_obs(500, 0.008, 1.8),
            sampled_obs(500, 0.014, 2.4),
            functional_obs(500, 0.05),
            functional_obs(500, 0.05),
            functional_obs(500, 0.011),
            functional_obs(500, 0.011),
        ];
        let est = SamplingEstimate::assemble(&units, (0, 0), 4_000, 8, true);
        assert!(
            (est.aux_slope - 100.0).abs() < 1e-6,
            "slope {}",
            est.aux_slope
        );
        // Population mean miss rate: (4*0.011avg + 2*0.05 + 2*0.011)/8.
        let z_pop = (0.010 + 0.012 + 0.008 + 0.014 + 0.05 + 0.05 + 0.011 + 0.011) / 8.0;
        let expected = 1.0 + 100.0 * z_pop;
        assert!(
            (est.steady_cpi - expected).abs() < 1e-6,
            "steady {} vs expected {expected}",
            est.steady_cpi
        );
        // The fit is exact, so the residual interval collapses.
        assert!(est.ci95_half_width < 1e-6);
    }

    #[test]
    fn single_steady_sample_has_infinite_interval() {
        let est = SamplingEstimate::assemble(
            &[sampled_obs(400, 0.01, 1.3), functional_obs(500, 0.01)],
            (0, 0),
            8_000,
            8,
            true,
        );
        assert_eq!(est.cpi_stddev, 0.0);
        assert!(est.ci95_half_width.is_infinite());
        assert!(est.brackets(0.1) && est.brackets(100.0));
    }

    #[test]
    fn zero_sampled_units_fall_back_to_the_prefix_not_a_fabricated_cpi() {
        // Only functional observations in the steady region: the prefix is
        // the sole timing information and must drive the extrapolation.
        let units = vec![functional_obs(500, 0.01); 16];
        let est = SamplingEstimate::assemble(&units, (10_000, 2_000), 10_000, 20, true);
        assert_eq!(est.units_measured, 0);
        assert!((est.steady_cpi - 5.0).abs() < 1e-9, "prefix CPI is 5.0");
        assert!((est.cpi - 5.0).abs() < 1e-9);
        assert!(est.ci95_half_width.is_infinite());
        // With no measurement at all, the estimate is an obvious zero, not
        // a plausible-looking fabrication.
        let est = SamplingEstimate::assemble(&units, (0, 0), 10_000, 20, true);
        assert_eq!(est.cpi, 0.0);
        assert!(est.ci95_half_width.is_infinite());
    }

    #[test]
    fn prefix_covering_the_whole_run_is_exact_with_zero_interval() {
        let est = SamplingEstimate::assemble(&[], (42_000, 10_000), 10_000, 20, true);
        assert!((est.cpi - 4.2).abs() < 1e-9);
        assert_eq!(est.ci95_half_width, 0.0);
        assert!(est.brackets(4.2));
        assert!(!est.brackets(4.2001));
    }

    #[test]
    fn sampled_run_retires_the_whole_workload() {
        let config = SystemConfig::hpca2010_baseline(1);
        let spec = SamplingSpec::new(BaseModel::Interval, 1_000, 4, 100, 2);
        let built = WorkloadSpec::single("gcc", 20_000).build(7).unwrap();
        let s = run_sampled(spec, &config, built, "gcc".into());
        assert_eq!(s.total_instructions, 20_000);
        assert!(s.cycles > 0);
        let est = s.sampling.expect("sampled runs carry an estimate");
        assert!(est.units_measured >= 2);
        // `step_interval` advances until *at least* the requested count
        // retires, so the prefix may overshoot by a few instructions.
        assert!((2_000..2_100).contains(&est.prefix_instructions));
        assert!(est.measured_instructions > 0);
        assert!(est.cpi > 0.0);
        assert!(s.swaps >= 1, "at least one functional->timed transition");
    }

    #[test]
    fn sampled_run_is_deterministic() {
        let config = SystemConfig::hpca2010_baseline(1);
        let spec = SamplingSpec::new(BaseModel::Detailed, 800, 3, 100, 2);
        let go = || {
            let built = WorkloadSpec::single("mcf", 8_000).build(3).unwrap();
            run_sampled(spec, &config, built, "mcf".into()).canonical_record()
        };
        assert_eq!(go(), go());
    }

    #[test]
    fn multithreaded_sampled_run_completes_with_sync() {
        let config = SystemConfig::hpca2010_baseline(2);
        let spec = SamplingSpec::new(BaseModel::Interval, 2_000, 4, 200, 2);
        let built = WorkloadSpec::multithreaded("fluidanimate", 2, 60_000)
            .build(11)
            .unwrap();
        let s = run_sampled(spec, &config, built, "fluidanimate".into());
        assert_eq!(s.total_instructions, 60_000);
        assert_eq!(s.per_core.len(), 2);
        assert!(s.per_core.iter().all(|c| c.instructions > 0));
    }
}

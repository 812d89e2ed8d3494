//! Experiment drivers: one thin [`SweepSpec`] constructor per figure of the
//! paper's evaluation.
//!
//! Every figure is now data, not code: a constructor here assembles the
//! same declarative [`SweepSpec`] a checked-in scenario file under
//! `examples/scenarios/` describes, and the generic scenario engine runs
//! it into unified [`Record`] rows (the `figN` wrappers do exactly that).
//! The derived quantities the figures plot — IPC error, STP/ANTT,
//! normalized execution time, host-time speedup, confidence intervals —
//! are methods over records (see [`Record`] and [`crate::report`]), so
//! adding a new experiment needs no new row struct, formatter or driver
//! function.
//!
//! Sweeps execute on the parallel [`batch`](crate::batch) engine; every
//! simulated quantity is deterministic in `(model, config, workload,
//! seed)`, so the rows are identical whether `ISS_THREADS` is 1 or 64.
//! The two wall-clock frontier sweeps ([`fig_hybrid`], [`fig_sampling`])
//! run on a single worker so their speedup columns are not contaminated
//! by host contention between concurrent jobs.

use serde::{Deserialize, Serialize};

use crate::hybrid::HybridSpec;
use crate::runner::{BaseModel, CoreModel};
use crate::sampling::SamplingSpec;
use crate::scenario::{MachineSpec, Record, ScenarioSpec, SweepSpec, Template};
use crate::workload::WorkloadSpec;

/// Instruction budget and seed for an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExperimentScale {
    /// Instructions per SPEC program (per core for multi-program workloads).
    pub spec_length: u64,
    /// Total instructions per PARSEC program (split over its threads).
    pub parsec_length: u64,
    /// Workload generation seed.
    pub seed: u64,
}

impl ExperimentScale {
    /// Small budget for unit/integration tests (seconds of host time).
    #[must_use]
    pub fn quick() -> Self {
        ExperimentScale {
            spec_length: 20_000,
            parsec_length: 40_000,
            seed: 42,
        }
    }

    /// The budget used by the figure-regeneration binaries.
    #[must_use]
    pub fn full() -> Self {
        ExperimentScale {
            spec_length: 200_000,
            parsec_length: 400_000,
            seed: 42,
        }
    }
}

impl Default for ExperimentScale {
    fn default() -> Self {
        Self::quick()
    }
}

/// The four component-isolation experiments of Figure 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Fig4Variant {
    /// (a) Effective dispatch rate: perfect branch predictor, I-side and L2.
    EffectiveDispatchRate,
    /// (b) I-cache/I-TLB: everything else perfect.
    ICache,
    /// (c) Branch prediction: all caches perfect.
    BranchPrediction,
    /// (d) L2 cache: perfect branch predictor and I-side.
    L2Cache,
}

impl Fig4Variant {
    /// All four variants in the order of the figure.
    #[must_use]
    pub fn all() -> [Fig4Variant; 4] {
        [
            Fig4Variant::EffectiveDispatchRate,
            Fig4Variant::ICache,
            Fig4Variant::BranchPrediction,
            Fig4Variant::L2Cache,
        ]
    }

    /// The machine spec implementing this variant.
    #[must_use]
    pub fn machine(self) -> MachineSpec {
        match self {
            Fig4Variant::EffectiveDispatchRate => MachineSpec::fig4_effective_dispatch_rate(),
            Fig4Variant::ICache => MachineSpec::fig4_icache(),
            Fig4Variant::BranchPrediction => MachineSpec::fig4_branch_prediction(),
            Fig4Variant::L2Cache => MachineSpec::fig4_l2(),
        }
    }

    /// The system configuration implementing this variant.
    ///
    /// # Panics
    ///
    /// Never panics: the presets resolve by construction.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "fig4 presets are compiled-in specs that resolve by construction"
    )]
    pub fn config(self) -> crate::config::SystemConfig {
        self.machine()
            .resolve(1)
            .expect("fig4 presets resolve by construction")
    }

    /// Stable slug used as the sweep name and in golden files.
    #[must_use]
    pub fn slug(self) -> &'static str {
        match self {
            Fig4Variant::EffectiveDispatchRate => "fig4-dispatch",
            Fig4Variant::ICache => "fig4-icache",
            Fig4Variant::BranchPrediction => "fig4-branch",
            Fig4Variant::L2Cache => "fig4-l2",
        }
    }

    /// Label used in reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Fig4Variant::EffectiveDispatchRate => "effective dispatch rate",
            Fig4Variant::ICache => "I-cache/TLB",
            Fig4Variant::BranchPrediction => "branch prediction",
            Fig4Variant::L2Cache => "L2 cache",
        }
    }
}

/// The two timing models the accuracy figures compare.
const DETAILED_VS_INTERVAL: [CoreModel; 2] = [CoreModel::Detailed, CoreModel::Interval];

fn benchmarks_owned(benchmarks: &[&str]) -> Vec<String> {
    benchmarks.iter().map(|b| (*b).to_string()).collect()
}

/// A one-template sweep skeleton.
fn sweep(name: &str, workload: WorkloadSpec, machine: MachineSpec, seed: u64) -> SweepSpec {
    let mut base = ScenarioSpec::new(workload, seed);
    base.machine = machine;
    SweepSpec::new(name, base)
}

/// `core_counts` with a leading 1 (the single-core reference point the
/// STP/ANTT and normalized-time views divide by), deduplicated.
fn with_unit_reference(core_counts: &[usize]) -> Vec<usize> {
    let mut cores = vec![1];
    for &c in core_counts {
        if !cores.contains(&c) {
            cores.push(c);
        }
    }
    cores
}

/// Figure 4 as a declarative sweep: the component-isolation machine of the
/// variant, detailed vs interval, one group per benchmark.
#[must_use]
pub fn fig4_sweep(variant: Fig4Variant, benchmarks: &[&str], scale: ExperimentScale) -> SweepSpec {
    let mut s = sweep(
        variant.slug(),
        WorkloadSpec::single(
            benchmarks.first().copied().unwrap_or("gcc"),
            scale.spec_length,
        ),
        variant.machine(),
        scale.seed,
    );
    s.benchmarks = benchmarks_owned(benchmarks);
    s.models = DETAILED_VS_INTERVAL.to_vec();
    s
}

/// Figure 4: component-wise accuracy of interval simulation for one variant.
///
/// # Panics
///
/// Panics when the sweep fails to validate (unknown benchmark).
#[must_use]
pub fn fig4(variant: Fig4Variant, benchmarks: &[&str], scale: ExperimentScale) -> Vec<Record> {
    run_sweep(fig4_sweep(variant, benchmarks, scale))
}

/// Figure 5 as a declarative sweep: the Table 1 baseline, detailed vs
/// interval, one group per benchmark.
#[must_use]
pub fn fig5_sweep(benchmarks: &[&str], scale: ExperimentScale) -> SweepSpec {
    let mut s = sweep(
        "fig5",
        WorkloadSpec::single(
            benchmarks.first().copied().unwrap_or("gcc"),
            scale.spec_length,
        ),
        MachineSpec::hpca2010(),
        scale.seed,
    );
    s.benchmarks = benchmarks_owned(benchmarks);
    s.models = DETAILED_VS_INTERVAL.to_vec();
    s
}

/// Figure 5: overall single-threaded accuracy (all structures real).
///
/// # Panics
///
/// Panics when the sweep fails to validate (unknown benchmark).
#[must_use]
pub fn fig5(benchmarks: &[&str], scale: ExperimentScale) -> Vec<Record> {
    run_sweep(fig5_sweep(benchmarks, scale))
}

/// Figure 6 as a declarative sweep: homogeneous multi-program workloads
/// over a copy-count axis (with the single-program baseline always
/// included), detailed vs interval.
#[must_use]
pub fn fig6_sweep(benchmarks: &[&str], copy_counts: &[usize], scale: ExperimentScale) -> SweepSpec {
    let mut s = sweep(
        "fig6",
        WorkloadSpec::homogeneous(
            benchmarks.first().copied().unwrap_or("gcc"),
            1,
            scale.spec_length,
        ),
        MachineSpec::hpca2010(),
        scale.seed,
    );
    s.benchmarks = benchmarks_owned(benchmarks);
    s.cores = with_unit_reference(copy_counts);
    s.models = DETAILED_VS_INTERVAL.to_vec();
    s
}

/// Figure 6: STP and ANTT of homogeneous multi-program workloads as a
/// function of the number of co-running copies (derive the metrics with
/// [`crate::report::stp_antt_rows`]).
///
/// # Panics
///
/// Panics when the sweep fails to validate (unknown benchmark).
#[must_use]
pub fn fig6(benchmarks: &[&str], copy_counts: &[usize], scale: ExperimentScale) -> Vec<Record> {
    run_sweep(fig6_sweep(benchmarks, copy_counts, scale))
}

/// Figure 7 as a declarative sweep: multi-threaded PARSEC workloads over a
/// core-count axis (single-core reference included), detailed vs interval.
#[must_use]
pub fn fig7_sweep(benchmarks: &[&str], core_counts: &[usize], scale: ExperimentScale) -> SweepSpec {
    let mut s = sweep(
        "fig7",
        WorkloadSpec::multithreaded(
            benchmarks.first().copied().unwrap_or("vips"),
            1,
            scale.parsec_length,
        ),
        MachineSpec::hpca2010(),
        scale.seed,
    );
    s.benchmarks = benchmarks_owned(benchmarks);
    s.cores = with_unit_reference(core_counts);
    s.models = DETAILED_VS_INTERVAL.to_vec();
    s
}

/// Figure 7: normalized execution time of the multi-threaded PARSEC
/// workloads as a function of the number of cores (derive the normalized
/// times with [`crate::report::format_normalized_table`]).
///
/// # Panics
///
/// Panics when the sweep fails to validate (unknown benchmark).
#[must_use]
pub fn fig7(benchmarks: &[&str], core_counts: &[usize], scale: ExperimentScale) -> Vec<Record> {
    run_sweep(fig7_sweep(benchmarks, core_counts, scale))
}

/// The variant labels of Figure 8's two design points.
pub const FIG8_DUAL_VARIANT: &str = "2 cores + L2";
/// The variant label of Figure 8's quad-core 3D-stacked design point.
pub const FIG8_QUAD_VARIANT: &str = "4 cores + 3D";

/// Figure 8 as a declarative sweep: two explicit design-point templates
/// (dual-core + L2 + external DRAM vs quad-core + no L2 + 3D-stacked
/// DRAM), detailed vs interval, one group per benchmark.
#[must_use]
pub fn fig8_sweep(benchmarks: &[&str], scale: ExperimentScale) -> SweepSpec {
    let first = benchmarks.first().copied().unwrap_or("vips");
    let mut s = sweep(
        "fig8",
        WorkloadSpec::multithreaded(first, 2, scale.parsec_length),
        MachineSpec::fig8_dual_core_l2(),
        scale.seed,
    );
    s.templates[0].variant = Some(FIG8_DUAL_VARIANT.to_string());
    s.templates.push(Template {
        variant: Some(FIG8_QUAD_VARIANT.to_string()),
        machine: MachineSpec::fig8_quad_core_3d(),
        workload: WorkloadSpec::multithreaded(first, 4, scale.parsec_length),
        model: CoreModel::Interval,
        seed: scale.seed,
    });
    s.benchmarks = benchmarks_owned(benchmarks);
    s.models = DETAILED_VS_INTERVAL.to_vec();
    s
}

/// Figure 8: the 3D-stacking case study (normalize with
/// [`crate::report::format_normalized_table`] against the dual-core
/// detailed variant).
///
/// # Panics
///
/// Panics when the sweep fails to validate (unknown benchmark).
#[must_use]
pub fn fig8(benchmarks: &[&str], scale: ExperimentScale) -> Vec<Record> {
    run_sweep(fig8_sweep(benchmarks, scale))
}

/// Figure 9 as a declarative sweep: homogeneous SPEC multi-program
/// workloads over a core-count axis, detailed vs interval (the speedup
/// columns of the comparison view are the figure).
#[must_use]
pub fn fig9_sweep(benchmarks: &[&str], core_counts: &[usize], scale: ExperimentScale) -> SweepSpec {
    let mut s = sweep(
        "fig9",
        WorkloadSpec::homogeneous(
            benchmarks.first().copied().unwrap_or("gcc"),
            core_counts.first().copied().unwrap_or(1),
            scale.spec_length,
        ),
        MachineSpec::hpca2010(),
        scale.seed,
    );
    s.benchmarks = benchmarks_owned(benchmarks);
    s.cores = core_counts.to_vec();
    s.models = DETAILED_VS_INTERVAL.to_vec();
    s
}

/// Figure 9: simulation speedup of interval over detailed simulation for
/// homogeneous SPEC multi-program workloads.
///
/// # Panics
///
/// Panics when the sweep fails to validate (unknown benchmark).
#[must_use]
pub fn fig9(benchmarks: &[&str], core_counts: &[usize], scale: ExperimentScale) -> Vec<Record> {
    run_sweep(fig9_sweep(benchmarks, core_counts, scale))
}

/// Figure 10 as a declarative sweep: multi-threaded PARSEC workloads over
/// a core-count axis, detailed vs interval.
#[must_use]
pub fn fig10_sweep(
    benchmarks: &[&str],
    core_counts: &[usize],
    scale: ExperimentScale,
) -> SweepSpec {
    let mut s = sweep(
        "fig10",
        WorkloadSpec::multithreaded(
            benchmarks.first().copied().unwrap_or("vips"),
            core_counts.first().copied().unwrap_or(1),
            scale.parsec_length,
        ),
        MachineSpec::hpca2010(),
        scale.seed,
    );
    s.benchmarks = benchmarks_owned(benchmarks);
    s.cores = core_counts.to_vec();
    s.models = DETAILED_VS_INTERVAL.to_vec();
    s
}

/// Figure 10: simulation speedup of interval over detailed simulation for
/// the multi-threaded PARSEC workloads.
///
/// # Panics
///
/// Panics when the sweep fails to validate (unknown benchmark).
#[must_use]
pub fn fig10(benchmarks: &[&str], core_counts: &[usize], scale: ExperimentScale) -> Vec<Record> {
    run_sweep(fig10_sweep(benchmarks, core_counts, scale))
}

/// The default policy sweep of the hybrid frontier: pin-interval (the fast
/// extreme), periodic detailed sampling, and phase-triggered swapping. The
/// interval quantum is a tenth of the per-benchmark budget so every run
/// crosses several swap decisions.
#[must_use]
pub fn default_hybrid_policies(scale: ExperimentScale) -> Vec<HybridSpec> {
    let quantum = (scale.spec_length / 10).max(500);
    vec![
        HybridSpec::always(BaseModel::Interval, quantum),
        HybridSpec::periodic(4, quantum),
        HybridSpec::phase_cpi(200, quantum),
    ]
}

/// The hybrid frontier as a declarative sweep: per benchmark, a
/// pure-detailed reference variant plus one hybrid variant per policy.
#[must_use]
pub fn hybrid_sweep(
    benchmarks: &[&str],
    policies: &[HybridSpec],
    scale: ExperimentScale,
) -> SweepSpec {
    let mut s = sweep(
        "hybrid",
        WorkloadSpec::single(
            benchmarks.first().copied().unwrap_or("gcc"),
            scale.spec_length,
        ),
        MachineSpec::hpca2010(),
        scale.seed,
    );
    s.benchmarks = benchmarks_owned(benchmarks);
    s.models = std::iter::once(CoreModel::Detailed)
        .chain(policies.iter().map(|&p| CoreModel::Hybrid(p)))
        .collect();
    s
}

/// The hybrid experiment: per benchmark, one pure-detailed reference run
/// and one hybrid run per policy; each `(benchmark, policy)` record pairs
/// with its group's detailed record into one speed-vs-CPI-error frontier
/// point.
///
/// Unlike the other drivers this one runs its jobs on a **single** batch
/// worker regardless of `ISS_THREADS`: the frontier's speedup column
/// compares the reference and hybrid wall-clocks, and concurrent jobs
/// time-slicing against each other would contaminate exactly that
/// measurement. The simulated columns are `ISS_THREADS`-invariant either
/// way.
///
/// # Panics
///
/// Panics when the sweep fails to validate (unknown benchmark).
#[must_use]
pub fn fig_hybrid(
    benchmarks: &[&str],
    policies: &[HybridSpec],
    scale: ExperimentScale,
) -> Vec<Record> {
    hybrid_sweep(benchmarks, policies, scale)
        .run_with_threads(1)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// The default sampling sweep of the frontier: a sparse and a dense
/// detailed-measurement config plus an interval-measurement config, all
/// sized relative to the per-benchmark budget so every run crosses several
/// measured units.
#[must_use]
pub fn default_sampling_specs(scale: ExperimentScale) -> Vec<SamplingSpec> {
    // Tuned at the quick-scale sampling budget (100k instructions) and
    // scaled proportionally beyond it. The three points span the frontier:
    // a sparse detailed-measurement config (the ≥5×-at-≤5%-average
    // acceptance point), a dense detailed-measurement config (the accuracy
    // end, ~3% average error at ~3×), and an interval-measurement config
    // (the speed extreme — interval-model systematic error on top, but
    // ~9× with a confidence interval attached).
    let m = (sampling_length(scale) / 100_000).max(1);
    vec![
        SamplingSpec::new(BaseModel::Detailed, 350 * m, 28, 60 * m, 6),
        SamplingSpec::new(BaseModel::Detailed, 500 * m, 6, 100 * m, 4),
        SamplingSpec::new(BaseModel::Interval, 500 * m, 12, 100 * m, 4),
    ]
}

/// The per-benchmark instruction budget of the sampled-simulation figure:
/// five times the SPEC budget of the scale. Sampling amortizes a
/// run-length-independent cost (the cold-start transient it must measure
/// exactly, plus per-sample warmups) over the run; at the plain quick
/// budget that overhead alone is ~10% of the run and no sampling schedule
/// can be both fast and tight. 5× the budget is the regime the technique
/// is built for, while the pure reference models still finish in seconds
/// at quick scale.
#[must_use]
pub fn sampling_length(scale: ExperimentScale) -> u64 {
    scale.spec_length.saturating_mul(5)
}

/// The sampled-simulation frontier as a declarative sweep: per benchmark,
/// pure-detailed and pure-interval reference variants plus one sampled
/// variant per spec.
#[must_use]
pub fn sampling_sweep(
    benchmarks: &[&str],
    specs: &[SamplingSpec],
    scale: ExperimentScale,
) -> SweepSpec {
    let mut s = sweep(
        "sampling",
        WorkloadSpec::single(
            benchmarks.first().copied().unwrap_or("gcc"),
            sampling_length(scale),
        ),
        MachineSpec::hpca2010(),
        scale.seed,
    );
    s.benchmarks = benchmarks_owned(benchmarks);
    s.models = [CoreModel::Detailed, CoreModel::Interval]
        .into_iter()
        .chain(specs.iter().map(|&sp| CoreModel::Sampled(sp)))
        .collect();
    s
}

/// The sampled-simulation experiment: per benchmark, one pure-detailed and
/// one pure-interval reference run plus one sampled run per spec; each
/// `(benchmark, spec)` record pairs with its group's references into one
/// speed-vs-error-vs-confidence frontier point.
///
/// Like [`fig_hybrid`] this runs its jobs on a **single** batch worker
/// regardless of `ISS_THREADS`, because the frontier compares wall-clocks;
/// the simulated columns are `ISS_THREADS`-invariant either way.
///
/// # Panics
///
/// Panics when the sweep fails to validate (unknown benchmark).
#[must_use]
pub fn fig_sampling(
    benchmarks: &[&str],
    specs: &[SamplingSpec],
    scale: ExperimentScale,
) -> Vec<Record> {
    sampling_sweep(benchmarks, specs, scale)
        .run_with_threads(1)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// The variant labels of the ablation study, in row order: the detailed
/// reference, the full interval model, and the three degradations.
pub const ABLATION_VARIANTS: [&str; 5] = [
    "detailed",
    "interval",
    "interval-no-overlap",
    "interval-no-ow-reset",
    "one-ipc",
];

/// The ablation study as a declarative sweep: five explicit
/// (model, machine) variant templates per benchmark — exactly the shape a
/// cartesian product cannot express and the template list exists for.
#[must_use]
pub fn ablation_sweep(benchmarks: &[&str], scale: ExperimentScale) -> SweepSpec {
    let first = benchmarks.first().copied().unwrap_or("gcc");
    let workload = WorkloadSpec::single(first, scale.spec_length);
    let mut no_overlap = MachineSpec::hpca2010();
    no_overlap.overrides.overlap_effects = Some(false);
    let mut no_reset = MachineSpec::hpca2010();
    no_reset.overrides.old_window_reset = Some(false);

    let template = |variant: &str, machine: MachineSpec, model: CoreModel| Template {
        variant: Some(variant.to_string()),
        machine,
        workload: workload.clone(),
        model,
        seed: scale.seed,
    };
    let mut s = sweep(
        "ablation",
        workload.clone(),
        MachineSpec::hpca2010(),
        scale.seed,
    );
    s.templates = vec![
        template(
            ABLATION_VARIANTS[0],
            MachineSpec::hpca2010(),
            CoreModel::Detailed,
        ),
        template(
            ABLATION_VARIANTS[1],
            MachineSpec::hpca2010(),
            CoreModel::Interval,
        ),
        template(ABLATION_VARIANTS[2], no_overlap, CoreModel::Interval),
        template(ABLATION_VARIANTS[3], no_reset, CoreModel::Interval),
        template(
            ABLATION_VARIANTS[4],
            MachineSpec::hpca2010(),
            CoreModel::OneIpc,
        ),
    ];
    s.benchmarks = benchmarks_owned(benchmarks);
    s
}

/// Ablation study over the interval model's design choices: second-order
/// overlap modeling and the old-window reset, compared against the one-IPC
/// baseline, for single-threaded workloads.
///
/// # Panics
///
/// Panics when the sweep fails to validate (unknown benchmark).
#[must_use]
pub fn ablation(benchmarks: &[&str], scale: ExperimentScale) -> Vec<Record> {
    run_sweep(ablation_sweep(benchmarks, scale))
}

fn run_sweep(sweep: SweepSpec) -> Vec<Record> {
    sweep.run().unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report;

    fn tiny() -> ExperimentScale {
        ExperimentScale {
            spec_length: 8_000,
            parsec_length: 16_000,
            seed: 7,
        }
    }

    #[test]
    fn fig4_variants_produce_paired_records_with_bounded_error() {
        let records = fig4(
            Fig4Variant::EffectiveDispatchRate,
            &["gzip", "swim"],
            tiny(),
        );
        assert_eq!(records.len(), 4); // 2 benchmarks x 2 models
        for pair in records.chunks_exact(2) {
            let (detailed, interval) = (&pair[0], &pair[1]);
            assert_eq!(detailed.variant, "detailed");
            assert_eq!(interval.variant, "interval");
            assert_eq!(detailed.group, interval.group);
            assert!(detailed.core_ipc(0) > 0.0 && interval.core_ipc(0) > 0.0);
            assert!(
                interval.ipc_error_vs(detailed) < 0.5,
                "{}: interval {:.3} vs detailed {:.3}",
                interval.group,
                interval.core_ipc(0),
                detailed.core_ipc(0)
            );
        }
    }

    #[test]
    fn fig5_reports_all_requested_benchmarks() {
        let records = fig5(&["gcc", "mcf"], tiny());
        assert_eq!(records.len(), 4);
        assert_eq!(records[0].group, "gcc");
        assert_eq!(records[2].group, "mcf");
        assert!(records.iter().all(|r| r.core_ipc(0) > 0.0));
        assert!(records.iter().all(|r| r.sweep == "fig5"));
    }

    #[test]
    fn fig6_stp_between_one_and_copies() {
        let records = fig6(&["gcc"], &[1, 2], tiny());
        // 1 benchmark x 2 copy counts x 2 models.
        assert_eq!(records.len(), 4);
        let rows = report::stp_antt_rows(&records);
        assert_eq!(rows.len(), 4); // (2 models) x (2 copy counts)
        for row in &rows {
            assert!(row.stp > 0.0 && row.stp <= row.copies as f64 + 0.35);
            assert!(row.antt >= 0.9);
        }
    }

    #[test]
    fn fig7_single_core_detailed_is_normalized_to_one() {
        let records = fig7(&["blackscholes"], &[1, 2], tiny());
        assert_eq!(records.len(), 4);
        let one_core_detailed = records
            .iter()
            .find(|r| r.cores == 1 && r.variant == "detailed")
            .unwrap();
        let table = report::format_normalized_table("fig7", &records, "detailed");
        assert!(table.contains("blackscholes"));
        assert!(one_core_detailed.cycles > 0);
    }

    #[test]
    fn fig8_produces_two_designs_per_benchmark() {
        let records = fig8(&["swaptions"], tiny());
        // 1 benchmark x 2 designs x 2 models.
        assert_eq!(records.len(), 4);
        assert_eq!(records[0].variant, "2 cores + L2/detailed");
        assert_eq!(records[2].variant, "4 cores + 3D/detailed");
        assert_eq!(records[2].cores, 4);
        let quad = records[2].clone();
        assert!(quad.cycles > 0);
    }

    #[test]
    fn fig9_speedup_is_positive_and_generally_above_one() {
        let records = fig9(&["mcf"], &[1], tiny());
        assert_eq!(records.len(), 2);
        let (detailed, interval) = (&records[0], &records[1]);
        assert!(interval.speedup_vs(detailed) > 0.0);
    }

    #[test]
    fn fig_hybrid_produces_one_record_per_benchmark_policy_pair() {
        let scale = tiny();
        let policies = default_hybrid_policies(scale);
        let records = fig_hybrid(&["gcc"], &policies, scale);
        assert_eq!(records.len(), 1 + policies.len());
        let detailed = &records[0];
        assert_eq!(detailed.variant, "detailed");
        for hybrid in &records[1..] {
            assert!(hybrid.variant.starts_with("hybrid-"));
            assert!(detailed.cpi() > 0.0 && hybrid.cpi() > 0.0);
            assert!(
                hybrid.cpi_error_vs(detailed) < 0.5,
                "{} under {}: hybrid CPI {:.3} vs detailed {:.3}",
                hybrid.group,
                hybrid.variant,
                hybrid.cpi(),
                detailed.cpi()
            );
        }
        // The periodic policy actually swaps on a multi-interval budget.
        let periodic = records
            .iter()
            .find(|r| r.variant.starts_with("hybrid-periodic"))
            .unwrap();
        assert!(periodic.swaps > 0, "periodic sampling must swap models");
    }

    #[test]
    fn ablation_removes_mlp_and_hurts_memory_bound_accuracy() {
        let records = ablation(&["mcf"], tiny());
        assert_eq!(records.len(), 5);
        let by_variant = |v: &str| {
            records
                .iter()
                .find(|r| r.variant == v)
                .unwrap_or_else(|| panic!("missing variant {v}"))
        };
        let interval = by_variant("interval");
        let no_overlap = by_variant("interval-no-overlap");
        // Without overlap modeling every long-latency miss is charged in
        // full, so the estimate must be slower (lower IPC) than the full
        // interval model on a memory-bound benchmark.
        assert!(
            no_overlap.core_ipc(0) < interval.core_ipc(0),
            "no-overlap IPC {:.3} must be below full-model IPC {:.3}",
            no_overlap.core_ipc(0),
            interval.core_ipc(0)
        );
        // Every variant produces a usable (positive, bounded) estimate.
        for v in ABLATION_VARIANTS {
            let ipc = by_variant(v).core_ipc(0);
            assert!(ipc > 0.0 && ipc <= 4.0, "{v}: {ipc}");
        }
    }

    #[test]
    fn sweep_constructors_mirror_their_run_wrappers() {
        // The `figN` wrappers must be nothing but `figN_sweep(...).run()`.
        let scale = tiny();
        let sweep = fig5_sweep(&["gcc"], scale);
        let direct = sweep.run_with_threads(1).unwrap();
        let via_wrapper = fig5(&["gcc"], scale);
        let canon = |rs: &[Record]| rs.iter().map(Record::canonical).collect::<Vec<_>>();
        assert_eq!(canon(&direct), canon(&via_wrapper));
    }
}

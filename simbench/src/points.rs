//! The benchmark's workloads and the simulation points each one runs.

use iss_bench::SPEC_QUICK;
use iss_sim::experiments::{default_sampling_specs, sampling_length, ExperimentScale};
use iss_sim::runner::CoreModel;
use iss_sim::scenario::{MachineSpec, ScenarioSpec};
use iss_sim::{SimJob, WorkloadSpec};
use iss_trace::catalog;

use crate::stats::derive_seed;

/// A named benchmark workload. Later changes refer to these names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// All 26 SPEC CPU2000 profiles, 1 core, interval model, one worker.
    IntervalDistinct,
    /// The SPEC quick set under the sparse sampled-detailed spec, one worker.
    SampledWarming,
    /// A design-space sweep of 1- and 4-core points under every model on
    /// two workers, answered from the result store afterwards.
    DesignSweep,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::IntervalDistinct,
        Workload::SampledWarming,
        Workload::DesignSweep,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::IntervalDistinct => "interval-distinct",
            Workload::SampledWarming => "sampled-warming",
            Workload::DesignSweep => "design-sweep",
        }
    }

    /// Parses a command-line name.
    ///
    /// # Errors
    ///
    /// Names the valid workloads when `name` is none of them.
    pub fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!(
                    "unknown workload `{name}` (expected one of {})",
                    names.join(", ")
                )
            })
    }

    /// Batch worker threads of the timed phase.
    #[must_use]
    pub fn workers(self) -> usize {
        match self {
            Workload::IntervalDistinct | Workload::SampledWarming => 1,
            Workload::DesignSweep => 2,
        }
    }
}

/// Streams, each with its own seed, per benchmark and per 4-core group on
/// `design-sweep`. The detailed model's host time per instruction differs
/// up to 2× between seeds of one benchmark, so the sweep's speed is steady
/// only over many streams.
pub const SWEEP_STREAMS: usize = 8;

/// Run lengths of the workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Instructions per benchmark on `interval-distinct`.
    pub distinct_len: u64,
    /// SPEC budget of `sampled-warming`; its streams are
    /// [`sampling_length`] of it (5×).
    pub sampled_spec_len: u64,
    /// Instructions per single-core point on `design-sweep`.
    pub sweep_len: u64,
    /// Instructions per copy of the 4-core multi-program point.
    pub sweep_copy_len: u64,
    /// Total instructions of each 4-thread PARSEC point.
    pub sweep_parsec_len: u64,
    /// Store lookups made after every timed pass (at least).
    pub replay_lookups: usize,
    /// Set-ups timed per run; `setup_s` is their median.
    pub setup_reps: usize,
}

impl Scale {
    /// The scale the benchmark runs at.
    #[must_use]
    pub fn standard() -> Self {
        Scale {
            distinct_len: 200_000,
            sampled_spec_len: 200_000,
            sweep_len: 16_000,
            sweep_copy_len: 6_000,
            sweep_parsec_len: 12_000,
            replay_lookups: 150,
            setup_reps: 15,
        }
    }

    /// A seconds-long scale for the benchmark's own tests.
    #[must_use]
    pub fn tiny() -> Self {
        Scale {
            distinct_len: 3_000,
            sampled_spec_len: 20_000,
            sweep_len: 2_000,
            sweep_copy_len: 1_000,
            sweep_parsec_len: 4_000,
            replay_lookups: 120,
            setup_reps: 2,
        }
    }

    /// The experiment scale `sampled-warming` sizes its spec and streams by.
    #[must_use]
    pub fn sampled_scale(&self, seed: u64) -> ExperimentScale {
        ExperimentScale {
            spec_length: self.sampled_spec_len,
            parsec_length: self.sampled_spec_len.saturating_mul(2),
            seed,
        }
    }
}

/// One simulation point: the scenario (coordinates, store key) and the
/// batch job it lowers to.
#[derive(Debug, Clone)]
pub struct Point {
    /// The scenario the point answers.
    pub spec: ScenarioSpec,
    /// The job the batch engine runs.
    pub job: SimJob,
}

impl Point {
    /// Simulated cores of the point.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.spec.workload.num_cores()
    }

    /// Whether the point runs on the unmodified baseline machine, so a
    /// direct simulator built from `SystemConfig::hpca2010_baseline` must
    /// reproduce it.
    #[must_use]
    pub fn on_baseline_machine(&self) -> bool {
        self.spec.machine == MachineSpec::hpca2010()
    }
}

/// A point of `sweep`. A single-core point's record carries its benchmark
/// on the benchmark axis.
fn point(
    sweep: &str,
    group: &str,
    variant: &str,
    workload: WorkloadSpec,
    machine: MachineSpec,
    model: CoreModel,
    seed: u64,
) -> Result<Point, String> {
    let spec = ScenarioSpec {
        name: format!("{sweep}/{group}/{variant}"),
        group: group.to_string(),
        variant: variant.to_string(),
        benchmark: match &workload {
            WorkloadSpec::Single { benchmark, .. } => Some(benchmark.clone()),
            _ => None,
        },
        machine,
        workload,
        model,
        seed,
    };
    let job = spec.to_job()?;
    Ok(Point { spec, job })
}

/// The points of the timed phase of `workload` under workload seed `seed`.
/// Every stream gets its own seed derived from `seed` and the stream's
/// label; on `design-sweep` the points that model one stream share it, and
/// each benchmark and 4-core group runs [`SWEEP_STREAMS`] streams,
/// in groups named `<label>#<stream>`.
///
/// # Errors
///
/// Returns the first scenario that fails to validate or resolve.
pub fn timed_points(workload: Workload, scale: &Scale, seed: u64) -> Result<Vec<Point>, String> {
    let base = MachineSpec::hpca2010;
    let sweep = workload.name();
    let mut points = Vec::new();
    match workload {
        Workload::IntervalDistinct => {
            for b in catalog::SPEC_CPU2000 {
                let w = WorkloadSpec::single(b, scale.distinct_len);
                let s = derive_seed(seed, b);
                points.push(point(
                    sweep,
                    b,
                    "interval",
                    w,
                    base(),
                    CoreModel::Interval,
                    s,
                )?);
            }
        }
        Workload::SampledWarming => {
            let exp = scale.sampled_scale(seed);
            let spec = default_sampling_specs(exp)[0];
            let model = CoreModel::Sampled(spec);
            for b in SPEC_QUICK {
                let w = WorkloadSpec::single(b, sampling_length(exp));
                let s = derive_seed(seed, b);
                points.push(point(sweep, b, &model.name(), w, base(), model, s)?);
            }
        }
        Workload::DesignSweep => {
            let mut no_overlap = base();
            no_overlap.overrides.overlap_effects = Some(false);
            let variants = [
                ("detailed", base(), CoreModel::Detailed),
                ("interval", base(), CoreModel::Interval),
                ("interval-no-overlap", no_overlap, CoreModel::Interval),
                ("one-ipc", base(), CoreModel::OneIpc),
            ];
            let single = SPEC_QUICK
                .iter()
                .map(|b| (*b, WorkloadSpec::single(b, scale.sweep_len)));
            let multicore = [
                (
                    "mcf/4c",
                    WorkloadSpec::homogeneous("mcf", 4, scale.sweep_copy_len),
                ),
                (
                    "canneal/4t",
                    WorkloadSpec::multithreaded("canneal", 4, scale.sweep_parsec_len),
                ),
                (
                    "fluidanimate/4t",
                    WorkloadSpec::multithreaded("fluidanimate", 4, scale.sweep_parsec_len),
                ),
            ];
            for (label, w) in single.chain(multicore) {
                // Every model on one core, the ablation shape; detailed and
                // interval on four.
                let models = if w.num_cores() == 1 { 4 } else { 2 };
                for stream in 0..SWEEP_STREAMS {
                    let group = format!("{label}#{stream}");
                    let s = derive_seed(seed, &group);
                    for &(variant, machine, model) in &variants[..models] {
                        points.push(point(sweep, &group, variant, w.clone(), machine, model, s)?);
                    }
                }
            }
        }
    }
    Ok(points)
}

/// The detailed-model reference points of `points` that have no detailed
/// twin in the timed phase: one per stream, on the baseline machine.
/// Accuracy is always measured against the detailed model.
///
/// # Errors
///
/// Returns the first scenario that fails to validate or resolve.
pub fn reference_points(workload: Workload, points: &[Point]) -> Result<Vec<Point>, String> {
    if workload == Workload::DesignSweep {
        return Ok(Vec::new());
    }
    points
        .iter()
        .map(|p| {
            let s = &p.spec;
            point(
                &format!("{}-reference", workload.name()),
                &s.group,
                "detailed",
                s.workload.clone(),
                MachineSpec::hpca2010(),
                CoreModel::Detailed,
                s.seed,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Ok(w));
        }
        assert!(Workload::parse("nope")
            .unwrap_err()
            .contains("interval-distinct"));
    }

    #[test]
    fn point_counts_and_seeds_follow_the_workload_seed() {
        let scale = Scale::tiny();
        let a = timed_points(Workload::IntervalDistinct, &scale, 1).unwrap();
        assert_eq!(a.len(), 26);
        let b = timed_points(Workload::IntervalDistinct, &scale, 1).unwrap();
        let c = timed_points(Workload::IntervalDistinct, &scale, 2).unwrap();
        assert_eq!(a[0].spec.seed, b[0].spec.seed);
        assert_ne!(a[0].spec.seed, c[0].spec.seed);
        assert_ne!(a[0].spec.seed, a[1].spec.seed);

        let sweep = timed_points(Workload::DesignSweep, &scale, 1).unwrap();
        let streams = SWEEP_STREAMS;
        assert_eq!(sweep.len(), (6 * 4 + 3 * 2) * streams);
        // The four models of one stream share its seed; the next stream of
        // the same benchmark has its own.
        assert!(sweep[..4].iter().all(|p| p.spec.seed == sweep[0].spec.seed));
        assert_ne!(sweep[4].spec.seed, sweep[0].spec.seed);
        assert_eq!(sweep[4].spec.benchmark, sweep[0].spec.benchmark);
        assert_eq!(
            sweep.iter().filter(|p| p.cores() == 4).count(),
            3 * 2 * streams
        );
        assert_eq!(
            timed_points(Workload::SampledWarming, &scale, 1)
                .unwrap()
                .len(),
            6
        );
    }
}

//! Uniform runner over the timing models.
//!
//! [`run`] executes a [`WorkloadSpec`] on a [`SystemConfig`] under the chosen
//! [`CoreModel`] and returns a model-independent [`SimSummary`], which is
//! what the experiment drivers and metrics operate on. Every model executes
//! as an [`AnyMachine`] — the three base models as one uninterrupted
//! machine, hybrid specs through the [`hybrid`](crate::hybrid) swap
//! controller.

use iss_mem::MemoryStats;

use crate::config::SystemConfig;
use crate::hybrid::HybridSpec;
use crate::model::AnyMachine;
use crate::sampling::{SamplingEstimate, SamplingSpec};
use crate::workload::WorkloadSpec;

/// One of the three base timing models — the things a hybrid run swaps
/// between, and the non-hybrid values of [`CoreModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BaseModel {
    /// The paper's contribution: the mechanistic analytical interval model.
    Interval,
    /// Detailed cycle-accurate out-of-order simulation (the baseline the
    /// paper compares against).
    Detailed,
    /// The one-instruction-per-cycle simplification (related-work baseline).
    OneIpc,
}

impl BaseModel {
    /// Short name used in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            BaseModel::Interval => "interval",
            BaseModel::Detailed => "detailed",
            BaseModel::OneIpc => "one-ipc",
        }
    }

    /// Dense index (for per-model tables).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            BaseModel::Interval => 0,
            BaseModel::Detailed => 1,
            BaseModel::OneIpc => 2,
        }
    }
}

/// Which timing model drives the cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoreModel {
    /// The mechanistic analytical interval model.
    Interval,
    /// Detailed cycle-accurate out-of-order simulation.
    Detailed,
    /// The one-instruction-per-cycle simplification.
    OneIpc,
    /// Model swapping at interval boundaries under a
    /// [`SwapPolicy`](crate::hybrid::SwapPolicy).
    Hybrid(HybridSpec),
    /// Sampled simulation: functional fast-forward between measured units
    /// executed on a [`SamplingSpec`]'s measurement model, with whole-run
    /// CPI extrapolated under a 95% confidence interval.
    Sampled(SamplingSpec),
}

impl CoreModel {
    /// Short name used in reports (policy-qualified for hybrid runs).
    #[must_use]
    pub fn name(self) -> String {
        match self {
            CoreModel::Interval => "interval".to_string(),
            CoreModel::Detailed => "detailed".to_string(),
            CoreModel::OneIpc => "one-ipc".to_string(),
            CoreModel::Hybrid(spec) => format!("hybrid-{}", spec.label()),
            CoreModel::Sampled(spec) => spec.label(),
        }
    }

    /// The base model, for the three non-hybrid values.
    #[must_use]
    pub fn base(self) -> Option<BaseModel> {
        match self {
            CoreModel::Interval => Some(BaseModel::Interval),
            CoreModel::Detailed => Some(BaseModel::Detailed),
            CoreModel::OneIpc => Some(BaseModel::OneIpc),
            CoreModel::Hybrid(_) | CoreModel::Sampled(_) => None,
        }
    }
}

impl From<BaseModel> for CoreModel {
    fn from(kind: BaseModel) -> Self {
        match kind {
            BaseModel::Interval => CoreModel::Interval,
            BaseModel::Detailed => CoreModel::Detailed,
            BaseModel::OneIpc => CoreModel::OneIpc,
        }
    }
}

/// Per-core summary of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreSummary {
    /// Core index.
    pub core: usize,
    /// Instructions retired by this core.
    pub instructions: u64,
    /// Cycles until this core finished.
    pub cycles: u64,
}

impl CoreSummary {
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

/// Model-independent summary of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSummary {
    /// The core model that produced this summary.
    pub model: CoreModel,
    /// Label of the workload that was run.
    pub workload: String,
    /// Cycles until the last core finished (the workload's execution time).
    pub cycles: u64,
    /// Per-core summaries.
    pub per_core: Vec<CoreSummary>,
    /// Total instructions simulated.
    pub total_instructions: u64,
    /// Host wall-clock seconds the simulation took.
    pub host_seconds: f64,
    /// Shared memory-hierarchy statistics.
    pub memory: MemoryStats,
    /// Model swaps performed (0 for non-hybrid runs; for sampled runs, the
    /// number of functional-to-timed transitions).
    pub swaps: u64,
    /// The statistical CPI estimate of a sampled run (`None` for every
    /// other model — their cycle counts are measured, not extrapolated).
    pub sampling: Option<SamplingEstimate>,
}

impl SimSummary {
    /// Aggregate instructions per cycle over the whole chip.
    #[must_use]
    pub fn aggregate_ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.total_instructions as f64 / self.cycles as f64
        }
    }

    /// IPC of one core.
    #[must_use]
    pub fn core_ipc(&self, core: usize) -> f64 {
        self.per_core[core].ipc()
    }

    /// Simulated instructions per host second (simulation speed).
    #[must_use]
    pub fn simulation_speed(&self) -> f64 {
        if self.host_seconds <= 0.0 {
            0.0
        } else {
            self.total_instructions as f64 / self.host_seconds
        }
    }

    /// Stable text encoding of every *simulated* (deterministic) field of the
    /// summary — everything except `host_seconds`, which is host wall-clock
    /// and varies run to run by nature.
    ///
    /// Two runs of the same `(model, config, workload, seed)` point must
    /// produce byte-identical canonical records no matter how many batch
    /// worker threads executed them; the determinism tests assert exactly
    /// that. (The workspace has no serialization framework; this
    /// hand-rolled encoding is what the tests compare.)
    #[must_use]
    pub fn canonical_record(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        #[expect(clippy::expect_used, reason = "write! to a String is infallible")]
        write!(
            s,
            "model={};workload={};cycles={};instructions={}",
            self.model.name(),
            self.workload,
            self.cycles,
            self.total_instructions
        )
        .expect("write to String cannot fail");
        for c in &self.per_core {
            #[expect(clippy::expect_used, reason = "write! to a String is infallible")]
            write!(s, ";core{}={},{}", c.core, c.instructions, c.cycles)
                .expect("write to String cannot fail");
        }
        #[expect(clippy::expect_used, reason = "write! to a String is infallible")]
        write!(s, ";swaps={}", self.swaps).expect("write to String cannot fail");
        if let Some(est) = &self.sampling {
            // f64 Display prints the shortest round-trip representation, so
            // equal records imply bit-equal estimates.
            #[expect(clippy::expect_used, reason = "write! to a String is infallible")]
            write!(
                s,
                ";sampling=units{}/{},prefix{},insts{},cpi{},steady{},slope{},sd{},ci{}",
                est.units_measured,
                est.units_total,
                est.prefix_instructions,
                est.measured_instructions,
                est.cpi,
                est.steady_cpi,
                est.aux_slope,
                est.cpi_stddev,
                est.ci95_half_width
            )
            .expect("write to String cannot fail");
        }
        #[expect(clippy::expect_used, reason = "write! to a String is infallible")]
        write!(s, ";memory={:?}", self.memory).expect("write to String cannot fail");
        s
    }

    /// [`SimSummary::canonical_record`] with the model tag blanked — what two
    /// runs of *different* models must agree on when they simulate the same
    /// execution (e.g. a hybrid run pinned to `always-interval` against a
    /// plain interval run).
    #[must_use]
    pub fn canonical_record_modelless(&self) -> String {
        let record = self.canonical_record();
        let rest = record
            .split_once(';')
            .map_or("", |(_, rest)| rest)
            .to_string();
        format!("model=*;{rest}")
    }
}

/// Runs `workload` on `config` under `model` with a deterministic `seed`.
///
/// # Panics
///
/// Panics if the workload cannot be built (unknown benchmark, zero sizes) or
/// if the workload's core count does not match the configuration.
#[must_use]
pub fn run(
    model: CoreModel,
    config: &SystemConfig,
    workload: &WorkloadSpec,
    seed: u64,
) -> SimSummary {
    let built = workload
        .build(seed)
        .unwrap_or_else(|e| panic!("cannot build workload `{}`: {e}", workload.label()));
    assert_eq!(
        built.num_cores(),
        config.num_cores(),
        "workload `{}` needs {} cores but the configuration has {}",
        workload.label(),
        built.num_cores(),
        config.num_cores()
    );
    let label = workload.label();
    match model {
        CoreModel::Hybrid(spec) => crate::hybrid::run_hybrid(spec, config, built, label),
        CoreModel::Sampled(spec) => crate::sampling::run_sampled(spec, config, built, label),
        base => {
            #[expect(clippy::expect_used, reason = "base() on a model validated non-hybrid")]
            let kind = base.base().expect("non-hybrid model has a base kind");
            let mut machine = AnyMachine::build(kind, config, built);
            machine.run_to_completion();
            machine.summary(model, label)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_and_detailed_run_the_same_workload() {
        let config = SystemConfig::hpca2010_baseline(1);
        let spec = WorkloadSpec::single("gzip", 4_000);
        let interval = run(CoreModel::Interval, &config, &spec, 7);
        let detailed = run(CoreModel::Detailed, &config, &spec, 7);
        assert_eq!(interval.total_instructions, 4_000);
        assert_eq!(detailed.total_instructions, 4_000);
        assert_eq!(interval.workload, "gzip");
        assert!(interval.aggregate_ipc() > 0.0);
        assert!(detailed.aggregate_ipc() > 0.0);
    }

    #[test]
    fn one_ipc_runs_too() {
        let config = SystemConfig::hpca2010_baseline(1);
        let spec = WorkloadSpec::single("gcc", 2_000);
        let s = run(CoreModel::OneIpc, &config, &spec, 1);
        assert_eq!(s.model, CoreModel::OneIpc);
        assert!(s.core_ipc(0) <= 1.0 + 1e-9);
    }

    #[test]
    fn model_names_are_stable() {
        assert_eq!(CoreModel::Interval.name(), "interval");
        assert_eq!(CoreModel::Detailed.name(), "detailed");
        assert_eq!(CoreModel::OneIpc.name(), "one-ipc");
        let spec = HybridSpec::periodic(4, 1_000);
        assert_eq!(CoreModel::Hybrid(spec).name(), "hybrid-periodic-4@1000");
    }

    #[test]
    fn modelless_record_blanks_only_the_model_tag() {
        let config = SystemConfig::hpca2010_baseline(1);
        let spec = WorkloadSpec::single("gzip", 2_000);
        let s = run(CoreModel::Interval, &config, &spec, 7);
        let blanked = s.canonical_record_modelless();
        assert!(blanked.starts_with("model=*;workload=gzip;"));
        assert!(blanked.contains(&format!("cycles={}", s.cycles)));
    }

    #[test]
    #[should_panic(expected = "needs 4 cores")]
    fn core_count_mismatch_panics() {
        let config = SystemConfig::hpca2010_baseline(1);
        let spec = WorkloadSpec::homogeneous("gcc", 4, 100);
        let _ = run(CoreModel::Interval, &config, &spec, 1);
    }
}

//! Integration tests of the hybrid model-swapping subsystem: instruction
//! conservation across checkpoint restores, bit-identity of pinned hybrid
//! runs, worker-count invariance of hybrid batch rows, and the
//! speed-vs-accuracy acceptance frontier.

// Test helpers panic on failure, like the tests that call them.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use iss_sim::batch::run_batch_with_threads;
use iss_sim::experiments::{default_hybrid_policies, hybrid_sweep, ExperimentScale};
use iss_sim::hybrid::HybridSpec;
use iss_sim::model::AnyMachine;
use iss_sim::runner::{run, BaseModel, CoreModel};
use iss_sim::{SimJob, SystemConfig, WorkloadSpec};

fn machine(kind: BaseModel, spec: &WorkloadSpec, config: &SystemConfig, seed: u64) -> AnyMachine {
    AnyMachine::build(kind, config, spec.build(seed).unwrap())
}

/// Restoring a checkpoint — into the same model or a different one, on one
/// core or two — preserves the functional execution: no instruction is lost
/// or duplicated across the restore, and the restore is deterministic.
#[test]
fn cross_model_restore_retires_exactly_the_remaining_instructions() {
    let pairs = [
        (BaseModel::Interval, BaseModel::Interval),
        (BaseModel::Detailed, BaseModel::Detailed),
        (BaseModel::OneIpc, BaseModel::OneIpc),
        (BaseModel::Interval, BaseModel::Detailed),
        (BaseModel::Detailed, BaseModel::Interval),
        (BaseModel::Interval, BaseModel::OneIpc),
        (BaseModel::OneIpc, BaseModel::Detailed),
    ];
    let single = (
        SystemConfig::hpca2010_baseline(1),
        WorkloadSpec::single("mcf", 8_000),
        3_000,
    );
    // Two cores at different per-core times, with the shared L2 and the
    // barrier state in flight at the checkpoint.
    let fluid = (
        SystemConfig::hpca2010_baseline(2),
        WorkloadSpec::multithreaded("fluidanimate", 2, 30_000),
        9_000,
    );
    for (config, spec, at) in [single, fluid] {
        let total = run(CoreModel::OneIpc, &config, &spec, 3).total_instructions;
        for (from, to) in pairs {
            let case = format!("{}: {} -> {}", spec.label(), from.name(), to.name());
            let run_once = || {
                let mut m = machine(from, &spec, &config, 3);
                m.step_interval(at);
                let retired_at_swap = m.retired_instructions();
                let mut incoming = AnyMachine::restore(to, &config, m.into_lean_checkpoint());
                assert_eq!(
                    incoming.retired_instructions(),
                    retired_at_swap,
                    "{case}: the incoming model must continue from the same \
                     retired-instruction count"
                );
                incoming.run_to_completion();
                incoming.summary(to.into(), spec.label())
            };
            let first = run_once();
            let second = run_once();
            assert_eq!(
                first.total_instructions, total,
                "{case}: every instruction retires exactly once"
            );
            assert_eq!(
                first.canonical_record(),
                second.canonical_record(),
                "{case}: a restore must be deterministic"
            );
        }
    }
}

/// A hybrid run pinned to `always-interval` is the plain interval run, bit
/// for bit: same cycles, same per-core counts, same memory statistics.
#[test]
fn hybrid_pinned_to_interval_matches_plain_interval_bit_for_bit() {
    let config1 = SystemConfig::hpca2010_baseline(1);
    let config4 = SystemConfig::hpca2010_baseline(4);
    let pinned = HybridSpec::always(BaseModel::Interval, 2_000);
    let cases = [
        (config1, WorkloadSpec::single("gcc", 20_000)),
        (config1, WorkloadSpec::single("mcf", 20_000)),
        (config4, WorkloadSpec::homogeneous("gzip", 4, 8_000)),
        (
            config4,
            WorkloadSpec::multithreaded("blackscholes", 4, 40_000),
        ),
    ];
    for (config, spec) in cases {
        let plain = run(CoreModel::Interval, &config, &spec, 42);
        let hybrid = run(CoreModel::Hybrid(pinned), &config, &spec, 42);
        assert_eq!(
            hybrid.swaps,
            0,
            "{}: a pinned run never swaps",
            spec.label()
        );
        assert_eq!(
            plain.canonical_record_modelless(),
            hybrid.canonical_record_modelless(),
            "{}: pinned hybrid must reproduce the plain interval run",
            spec.label()
        );
    }
}

/// Hybrid jobs go through the batch engine like any other job, and their
/// rows are bit-identical whether the batch runs on 1 worker or 4.
#[test]
fn hybrid_batch_rows_are_worker_count_invariant() {
    let config = SystemConfig::hpca2010_baseline(1);
    let scale_len = 10_000;
    let jobs: Vec<SimJob> = ["gcc", "mcf", "swim"]
        .iter()
        .flat_map(|b| {
            let spec = WorkloadSpec::single(b, scale_len);
            [
                SimJob::new(
                    CoreModel::Hybrid(HybridSpec::periodic(4, 1_000)),
                    config,
                    spec.clone(),
                    42,
                ),
                SimJob::new(
                    CoreModel::Hybrid(HybridSpec::phase_cpi(200, 1_000)),
                    config,
                    spec,
                    42,
                ),
            ]
        })
        .collect();
    let serial = run_batch_with_threads(&jobs, 1);
    let parallel = run_batch_with_threads(&jobs, 4);
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.canonical_record(), p.canonical_record());
    }
    // The swapping policies actually swapped somewhere in this batch.
    assert!(
        serial.iter().any(|s| s.swaps > 0),
        "at least one hybrid job must perform a swap"
    );
}

/// The acceptance frontier: at quick scale, the hybrid sweep contains a
/// policy point that is at least 2x faster (host wall-clock) than pure
/// detailed simulation while staying within 5% CPI error.
#[test]
fn frontier_contains_a_2x_faster_point_within_5_percent_error() {
    let scale = ExperimentScale::quick();
    let policies = default_hybrid_policies(scale);
    let records = hybrid_sweep(&["gcc", "gzip", "mcf", "twolf"], &policies, scale)
        .run_with_threads(1)
        .unwrap();
    // One detailed reference plus one hybrid record per policy, per
    // benchmark.
    assert_eq!(records.len(), 4 * (1 + policies.len()));
    let winner = iss_sim::report::groups(&records).into_iter().any(|group| {
        let detailed = group.variant("detailed").expect("reference per group");
        group.records.iter().any(|r| {
            r.variant != "detailed"
                && r.speedup_vs(detailed) >= 2.0
                && r.cpi_error_vs(detailed) <= 0.05
        })
    });
    assert!(
        winner,
        "no (benchmark, policy) point met the 2x / 5% bar; frontier:\n{}",
        iss_sim::report::format_comparison_table("hybrid", &records, "detailed")
    );
}

//! Integration tests: interval simulation accuracy against the detailed
//! cycle-accurate baseline, on the same workloads, through the public API.
//!
//! These are the repository's equivalent of the paper's headline claims: the
//! interval model tracks detailed simulation within a modest error, follows
//! the same performance trends, and never produces nonsensical IPCs.

use interval_sim::sim::config::SystemConfig;
use interval_sim::sim::metrics;
use interval_sim::sim::runner::{run, CoreModel};
use interval_sim::sim::scenario::MachineSpec;
use interval_sim::sim::workload::WorkloadSpec;

const LENGTH: u64 = 30_000;
const SEED: u64 = 2010;

fn ipc_pair(benchmark: &str, config: &SystemConfig) -> (f64, f64) {
    let spec = WorkloadSpec::single(benchmark, LENGTH);
    let detailed = run(CoreModel::Detailed, config, &spec, SEED);
    let interval = run(CoreModel::Interval, config, &spec, SEED);
    (detailed.core_ipc(0), interval.core_ipc(0))
}

#[test]
fn single_thread_error_is_bounded_across_benchmark_classes() {
    // One representative per behaviour class; the paper reports 5.9% average
    // and 15.5% max error on 100M-instruction simulation points. On the much
    // shorter synthetic runs used here we only require the estimate to stay
    // within 35% of detailed simulation per benchmark and 20% on average.
    let config = SystemConfig::hpca2010_baseline(1);
    let benchmarks = ["gzip", "gcc", "mcf", "swim", "mesa", "twolf"];
    let mut errors = Vec::new();
    for b in benchmarks {
        let (detailed, interval) = ipc_pair(b, &config);
        let err = metrics::relative_error(interval, detailed);
        assert!(
            err < 0.35,
            "{b}: interval IPC {interval:.3} deviates {:.1}% from detailed {detailed:.3}",
            err * 100.0
        );
        errors.push(err);
    }
    let avg = metrics::mean(&errors);
    assert!(avg < 0.20, "average error {:.1}% exceeds 20%", avg * 100.0);
}

#[test]
fn interval_preserves_the_benchmark_ranking_of_detailed_simulation() {
    // mcf (memory-bound) must be slower than mesa (compute-friendly) under
    // both models; the relative ordering is what design studies rely on.
    let config = SystemConfig::hpca2010_baseline(1);
    let (d_mcf, i_mcf) = ipc_pair("mcf", &config);
    let (d_mesa, i_mesa) = ipc_pair("mesa", &config);
    assert!(
        d_mcf < d_mesa,
        "detailed: mcf {d_mcf:.3} should be slower than mesa {d_mesa:.3}"
    );
    assert!(
        i_mcf < i_mesa,
        "interval: mcf {i_mcf:.3} should be slower than mesa {i_mesa:.3}"
    );
}

#[test]
fn interval_is_faster_to_simulate_than_detailed() {
    // Figures 9/10: an order of magnitude in the paper; here we only require
    // a clear win on a quad-core workload (debug builds and tiny runs shrink
    // the gap).
    let config = SystemConfig::hpca2010_baseline(4);
    let spec = WorkloadSpec::homogeneous("gcc", 4, 15_000);
    let detailed = run(CoreModel::Detailed, &config, &spec, SEED);
    let interval = run(CoreModel::Interval, &config, &spec, SEED);
    let speedup = metrics::simulation_speedup(detailed.host_seconds, interval.host_seconds);
    assert!(
        speedup > 1.5,
        "interval simulation should be clearly faster than detailed simulation, got {speedup:.2}x"
    );
}

#[test]
fn perfect_component_configuration_gives_high_ipc_under_both_models() {
    // Figure 4(a)-style sanity: with a perfect branch predictor, I-side and
    // L2, both models should report healthy IPCs for an ILP-rich benchmark.
    let config = MachineSpec::fig4_effective_dispatch_rate()
        .resolve(1)
        .unwrap();
    let (detailed, interval) = ipc_pair("swim", &config);
    assert!(detailed > 1.0, "detailed IPC {detailed:.3}");
    assert!(interval > 1.0, "interval IPC {interval:.3}");
    assert!(interval <= 4.0 + 1e-9 && detailed <= 4.0 + 1e-9);
}

#[test]
fn one_ipc_model_is_less_accurate_than_interval_on_ilp_rich_code() {
    // The paper positions interval simulation as the better replacement for
    // the one-IPC assumption; on ILP-rich code the one-IPC model caps at 1.0
    // while the detailed core exceeds it.
    let config = SystemConfig::hpca2010_baseline(1);
    let spec = WorkloadSpec::single("mesa", LENGTH);
    let detailed = run(CoreModel::Detailed, &config, &spec, SEED).core_ipc(0);
    let interval = run(CoreModel::Interval, &config, &spec, SEED).core_ipc(0);
    let one_ipc = run(CoreModel::OneIpc, &config, &spec, SEED).core_ipc(0);
    let interval_err = metrics::relative_error(interval, detailed);
    let one_ipc_err = metrics::relative_error(one_ipc, detailed);
    assert!(
        interval_err < one_ipc_err,
        "interval error {:.1}% should beat one-IPC error {:.1}%",
        interval_err * 100.0,
        one_ipc_err * 100.0
    );
}

#[test]
fn multi_core_scaling_trend_matches_between_models() {
    // Figure 7-style trend fidelity on a scalable benchmark: both models must
    // agree that 4 cores are substantially faster than 1 core.
    let benchmark = "blackscholes";
    let total = 60_000;
    let cycles = |model, cores| {
        let config = SystemConfig::hpca2010_baseline(cores);
        let spec = WorkloadSpec::multithreaded(benchmark, cores, total);
        run(model, &config, &spec, SEED).cycles
    };
    let d1 = cycles(CoreModel::Detailed, 1);
    let d4 = cycles(CoreModel::Detailed, 4);
    let i1 = cycles(CoreModel::Interval, 1);
    let i4 = cycles(CoreModel::Interval, 4);
    assert!(
        (d4 as f64) < 0.6 * d1 as f64,
        "detailed: 4 cores {d4} vs 1 core {d1}"
    );
    assert!(
        (i4 as f64) < 0.6 * i1 as f64,
        "interval: 4 cores {i4} vs 1 core {i1}"
    );
}

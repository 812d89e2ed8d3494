//! CI perf-regression gate.
//!
//! Compares a fresh `perf` run (`BENCH_interval.json`) against the committed
//! baseline `ci/BENCH_baseline.json` and fails when any model's simulated
//! MIPS regresses by more than the allowed fraction (default 25% — host
//! machines differ, real hot-loop regressions are bigger than that).
//!
//! When both files carry a `reference_kernel_mops` entry (the throughput of
//! the same fixed integer kernel on each run's host), the comparison is
//! *normalized*: each MIPS number is divided by its run's kernel speed, so
//! a uniformly slow or loaded host cancels out and the margin gates
//! simulator regressions rather than host noise. Baselines written before
//! the kernel existed fall back to the raw comparison.
//!
//! The same margin also gates the isolated lane kernels (`kernels` rows:
//! tag compare, TLB batch, threshold scan, branch update) as
//! host-normalized per-kernel floors, so a vectorized kernel cannot rot
//! back to scalar speed while the end-to-end MIPS hides it. Baselines
//! without kernel rows skip those floors until refreshed; a baseline with
//! rows against a fresh run without them fails loudly.
//!
//! Usage:
//!   perf_gate \[baseline\] \[fresh\] \[--max-regression-pct N\]
//!
//! Defaults: baseline `ci/BENCH_baseline.json`, fresh `BENCH_interval.json`.

use std::process::ExitCode;

use iss_bench::gates::{diff_kernels, diff_perf, parse_perf_file, PerfFile};

const DEFAULT_BASELINE: &str = "ci/BENCH_baseline.json";
const DEFAULT_FRESH: &str = "BENCH_interval.json";

fn read_perf_file(path: &str) -> Result<PerfFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_perf_file(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut max_regression = 0.25;
    let mut paths = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--max-regression-pct" {
            match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(pct) if pct > 0.0 && pct < 100.0 => max_regression = pct / 100.0,
                _ => {
                    eprintln!("perf gate: --max-regression-pct needs a value in (0, 100)");
                    return ExitCode::FAILURE;
                }
            }
        } else {
            paths.push(a.clone());
        }
    }
    let baseline_path = paths.first().map_or(DEFAULT_BASELINE, String::as_str);
    let fresh_path = paths.get(1).map_or(DEFAULT_FRESH, String::as_str);

    let (baseline, fresh) = match (read_perf_file(baseline_path), read_perf_file(fresh_path)) {
        (Ok(b), Ok(f)) => (b, f),
        (b, f) => {
            for r in [b.err(), f.err()].into_iter().flatten() {
                eprintln!("perf gate: {r}");
            }
            return ExitCode::FAILURE;
        }
    };
    let (baseline_ref, fresh_ref) = (baseline.reference_kernel_mops, fresh.reference_kernel_mops);
    println!(
        "perf gate: {} baseline model(s) from {baseline_path}, fresh run {fresh_path}, \
         max regression {:.0}%",
        baseline.models.len(),
        max_regression * 100.0
    );
    match (baseline_ref, fresh_ref) {
        (Some(b), Some(f)) => println!(
            "  reference kernel: baseline {b:.0} MOPS, fresh {f:.0} MOPS — comparing \
             host-normalized MIPS"
        ),
        _ => println!("  no reference kernel in both files — comparing raw MIPS"),
    }
    for f in &fresh.models {
        let base = baseline
            .models
            .iter()
            .find(|b| b.model == f.model)
            .map_or(f64::NAN, |b| b.simulated_mips);
        println!(
            "  {:<10} fresh {:>8.2} MIPS   baseline {:>8.2} MIPS",
            f.model, f.simulated_mips, base
        );
    }
    if baseline.kernels.is_empty() {
        println!("  no kernel floors in the baseline — refresh it to start pinning them");
    }
    for f in &fresh.kernels {
        let base = baseline
            .kernels
            .iter()
            .find(|b| b.kernel == f.kernel)
            .map_or(f64::NAN, |b| b.mops);
        println!(
            "  kernel {:<20} fresh {:>8.1} MOPS   baseline {:>8.1} MOPS",
            f.kernel, f.mops, base
        );
    }
    let mut violations = diff_perf(
        &baseline.models,
        &fresh.models,
        baseline_ref,
        fresh_ref,
        max_regression,
    );
    violations.extend(diff_kernels(
        &baseline.kernels,
        &fresh.kernels,
        baseline_ref,
        fresh_ref,
        max_regression,
    ));
    if violations.is_empty() {
        println!("perf gate: PASS");
        ExitCode::SUCCESS
    } else {
        eprintln!("perf gate: FAIL — {} violation(s):", violations.len());
        for v in &violations {
            eprintln!("  {v}");
        }
        eprintln!("if the slowdown is intended, refresh the baseline:");
        eprintln!("  cargo run --release -p iss-bench --bin perf -- {DEFAULT_BASELINE}");
        ExitCode::FAILURE
    }
}

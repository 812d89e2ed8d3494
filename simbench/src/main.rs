//! Command-line entry point of the benchmark.
//!
//! ```text
//! simbench --workload <interval-distinct|sampled-warming|design-sweep|all>
//!          [--seed N] [--seconds S] [--trace 0|1] [--scale standard|tiny]
//! ```
//!
//! Prints a text report and, as the last line of standard output, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. Exits 2 on a
//! usage error and 1 when the benchmark cannot run; neither prints JSON.

use std::path::PathBuf;
use std::process::ExitCode;

use simbench::metrics::{Metric, END_TO_END, PER_LAYER};
use simbench::{run, Outcome, RunConfig, Scale, Workload, DEV_SEED};

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workloads: Vec::new(),
        seed: DEV_SEED,
        seconds: 10.0,
        trace: false,
        scale: Scale::standard(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                out.workloads = if v == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(v)?]
                };
            }
            "--seed" => {
                let v = value()?;
                out.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: `{v}` is not a u64"))?;
            }
            "--seconds" => {
                let v = value()?;
                out.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds: `{v}` is not a non-negative number"))?;
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: expected 0 or 1, got `{v}`")),
                };
            }
            "--scale" => {
                out.scale = match value()?.as_str() {
                    "standard" => Scale::standard(),
                    "tiny" => Scale::tiny(),
                    v => return Err(format!("--scale: expected standard or tiny, got `{v}`")),
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if out.workloads.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(out)
}

fn print_metric(m: &Metric) {
    let meaning = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _, _)| *n == m.name)
        .map_or("", |(_, _, d)| d);
    let shown = if m.applies {
        format!("{:.4}", m.value)
    } else {
        "n/a".to_string()
    };
    println!("  {:<28} {shown:>12} {:<12} {meaning}", m.name, m.unit);
}

fn print_report(o: &Outcome, cfg: &RunConfig) {
    let mode = if cfg.trace { "traced" } else { "untraced" };
    let host_threads = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "== {} (seed {}, {} s, {mode}; {} batch workers, {host_threads} host threads) ==",
        o.workload.name(),
        cfg.seed,
        cfg.seconds,
        o.workload.workers()
    );
    for m in &o.metrics.0 {
        print_metric(m);
    }
    if !cfg.trace {
        println!("  reported, not bounded (per-layer metrics of the traced run):");
        for m in &o.extra.0 {
            print_metric(m);
        }
    }
    for note in &o.notes {
        println!("  {note}");
    }
    for e in o.checks.messages.iter().take(10) {
        println!("  FAILED: {e}");
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}");
            return ExitCode::from(2);
        }
    };
    let all = args.workloads.len() > 1;
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for workload in args.workloads {
        let cfg = RunConfig {
            workload,
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            scale: args.scale,
            out_dir: PathBuf::from(".simbench"),
        };
        let outcome = match run(&cfg) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("simbench: {}: {e}", workload.name());
                return ExitCode::from(1);
            }
        };
        print_report(&outcome, &cfg);
        correct &= outcome.checks.failed == 0;
        attempted += outcome.checks.attempted;
        failed += outcome.checks.failed;
        let prefix = if all {
            format!("{}.", workload.name())
        } else {
            String::new()
        };
        metrics.extend(outcome.metrics.to_json(&prefix));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

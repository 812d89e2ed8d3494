//! Tiny-scale runs of every workload through the command line: each must
//! pass its output checks and print every named metric with its unit as
//! the last line of standard output.

use std::process::Command;

use iss_sim::jsonval::{self, Json};
use simbench::metrics::{END_TO_END, PER_LAYER};

fn run(args: &[&str]) -> (i32, String) {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("simbench-cli");
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_simbench"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("benchmark binary runs");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

fn last_json(stdout: &str) -> Json {
    let line = stdout.lines().last().expect("some output");
    jsonval::parse(line).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {line}"))
}

fn check_run(workload: &str, trace: &str) {
    let (code, stdout) = run(&[
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "0",
        "--trace",
        trace,
        "--scale",
        "tiny",
    ]);
    assert_eq!(code, 0, "{stdout}");
    let json = last_json(&stdout);
    let keys: Vec<&str> = json
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(json.get("correct"), Some(&Json::Bool(true)), "{stdout}");
    assert_eq!(json.get("failed").and_then(Json::as_u64), Some(0));
    assert!(json.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
    let catalogue = if trace == "1" { PER_LAYER } else { END_TO_END };
    let metrics = json.get("metrics").and_then(Json::as_obj).unwrap();
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = catalogue.iter().map(|&(n, _, _)| n).collect();
    assert_eq!(names, want, "{workload}: metric names");
    for ((name, m), &(_, unit, _)) in metrics.iter().zip(catalogue) {
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit), "{name}");
        let v = m.get("value").and_then(Json::as_f64).unwrap();
        assert!(v.is_finite(), "{name} = {v}");
        // Every metric is also printed by name in the text report.
        assert!(
            stdout.contains(&format!("  {name} ")),
            "{name} missing from report"
        );
    }
    if trace == "0" {
        for (name, m) in metrics {
            let v = m.get("value").and_then(Json::as_f64).unwrap();
            assert!(
                v > 0.0,
                "{workload}: end-to-end metric {name} must never be 0"
            );
        }
    }
}

#[test]
fn interval_distinct_untraced_and_traced() {
    check_run("interval-distinct", "0");
    check_run("interval-distinct", "1");
}

#[test]
fn sampled_warming_untraced_and_traced() {
    check_run("sampled-warming", "0");
    check_run("sampled-warming", "1");
}

#[test]
fn design_sweep_untraced_and_traced() {
    check_run("design-sweep", "0");
    check_run("design-sweep", "1");
}

#[test]
fn same_seed_same_digest_other_seed_other_digest() {
    let digest = |seed: &str| {
        let (_, out) = run(&[
            "--workload",
            "design-sweep",
            "--seed",
            seed,
            "--seconds",
            "0",
            "--scale",
            "tiny",
        ]);
        let line = out
            .lines()
            .find(|l| l.contains("digest="))
            .expect("digest line")
            .to_string();
        line.split("digest=").nth(1).unwrap().to_string()
    };
    assert_eq!(digest("5"), digest("5"));
    assert_ne!(digest("5"), digest("6"));
}

#[test]
fn usage_errors_exit_nonzero_without_a_result() {
    for args in [
        vec!["--workload", "nope"],
        vec!["--seed", "1"],
        vec!["--workload", "design-sweep", "--trace", "2"],
        vec!["--workload", "design-sweep", "--seconds", "-1"],
    ] {
        let (code, stdout) = run(&args);
        assert_eq!(code, 2, "{args:?}");
        assert!(stdout.is_empty(), "{args:?} printed {stdout}");
    }
}

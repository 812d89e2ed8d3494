//! `iss run` end to end: the figure views it adds follow from the shape of
//! the expanded points, with no flag — STP/ANTT for copies of one program
//! over several copy counts, normalized time for multi-threaded workloads,
//! the best-point line for hybrid and sampled variants.

use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Runs `iss run <fixture>` and returns its stdout; the run must succeed.
fn iss_run(name: &str) -> String {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_iss"))
        .arg("run")
        .arg(fixture(name))
        .args(["--threads", "2"])
        .output()
        .expect("run iss");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "iss run {name} failed:\n{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

const STP_HEADER: &str = "copies        STP       ANTT";
const NORM_HEADER: &str = "norm. time";
const BEST_POINT: &str = "within 5% CPI error";

#[test]
fn copies_of_one_program_get_the_stp_antt_view() {
    let text = iss_run("views-copies.toml");
    assert!(text.contains(STP_HEADER), "{text}");
    assert!(text.contains("average STP error"), "{text}");
    assert!(!text.contains(NORM_HEADER), "{text}");
    assert!(!text.contains(BEST_POINT), "{text}");
}

#[test]
fn multithreaded_workloads_get_the_normalized_time_view() {
    let text = iss_run("views-threads.toml");
    assert!(text.contains(NORM_HEADER), "{text}");
    // The single-core detailed run is the reference of its benchmark.
    assert!(text.contains("1.000"), "{text}");
    assert!(!text.contains(STP_HEADER), "{text}");
    assert!(!text.contains(BEST_POINT), "{text}");
}

#[test]
fn hybrid_variants_get_the_best_point_line() {
    let text = iss_run("views-hybrid.toml");
    let line = text
        .lines()
        .find(|l| l.contains(BEST_POINT))
        .unwrap_or_else(|| panic!("no best-point line:\n{text}"));
    assert!(
        line.starts_with("best point") || line.starts_with("no point stayed"),
        "{line}"
    );
    // A frontier compares wall-clocks, so it runs on the requested workers
    // only when asked; here `--threads 2` was.
    assert!(text.contains("on 2 worker(s)"), "{text}");
    assert!(
        !text.contains(STP_HEADER) && !text.contains(NORM_HEADER),
        "{text}"
    );
}

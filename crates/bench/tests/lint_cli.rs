//! `iss lint` end to end: the real binary on a spec with a known defect
//! and on the checked-in scenario directory, run from the repo root so
//! the cost estimate reads `ci/BENCH_baseline.json`.

use std::path::{Path, PathBuf};
use std::process::Output;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn iss_lint(target: &Path) -> (Output, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_iss"))
        .current_dir(repo_root())
        .arg("lint")
        .arg(target)
        .output()
        .expect("run iss lint");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out, text)
}

#[test]
fn gate_flags_the_duplicate_point_fixture_spec() {
    // A spec that validates cleanly but expands two variants to the same
    // canonical digest.
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/dup-point.toml");
    let (out, text) = iss_lint(&fixture);
    assert!(
        !out.status.success(),
        "duplicate design point must fail:\n{text}"
    );
    assert!(text.contains("duplicate design point"), "{text}");
}

#[test]
fn checked_in_scenarios_lint_clean() {
    let (out, text) = iss_lint(Path::new("examples/scenarios"));
    assert!(
        out.status.success(),
        "examples/scenarios must lint clean:\n{text}"
    );
    assert!(text.contains("lint clean"), "{text}");
    // The perf baseline parsed, so every spec carries a cost estimate.
    assert!(text.contains("at baseline throughput"), "{text}");
}

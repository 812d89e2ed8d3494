//! Drift-injection tests for the workspace's toolchain lint config: the
//! determinism rules must fail loudly on seeded violations, not only pass
//! on the fixed tree.
//!
//! Each test builds a throwaway one-crate workspace from the repo's own
//! `clippy.toml` and root `[workspace.lints.*]` tables, seeds one source
//! file, and runs `$CARGO clippy --all-targets --offline -- -D warnings` on
//! it with a private target dir. A missing `cargo-clippy` fails the tests:
//! the gate these tests pin is a clippy run.

use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The body of the `[header]` table in a TOML text: every line after the
/// header up to the next table header.
fn table(toml: &str, header: &str) -> String {
    let body: Vec<&str> = toml
        .lines()
        .skip_while(|l| l.trim() != header)
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .collect();
    let body = body.join("\n");
    assert!(
        !body.trim().is_empty(),
        "root Cargo.toml has no `{header}` table"
    );
    body
}

/// Writes a fixture crate holding `lib_rs` under the workspace's lint
/// config, runs clippy on it, and returns (passed, diagnostics).
fn clippy(tag: &str, lib_rs: &str) -> (bool, String) {
    let root = std::env::temp_dir().join(format!("iss-lint-drift-{}-{tag}", std::process::id()));
    // A stale tree from an earlier run of the same pid is fine to replace.
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(root.join("src")).expect("create fixture tree");

    let workspace_toml =
        std::fs::read_to_string(repo_root().join("Cargo.toml")).expect("read root Cargo.toml");
    let manifest = format!(
        "[package]\nname = \"fixture\"\nversion = \"0.0.0\"\nedition = \"2021\"\n\n\
         [workspace]\n\n\
         [workspace.lints.rust]\n{}\n\n\
         [workspace.lints.clippy]\n{}\n\n\
         [lints]\nworkspace = true\n",
        table(&workspace_toml, "[workspace.lints.rust]"),
        table(&workspace_toml, "[workspace.lints.clippy]"),
    );
    std::fs::write(root.join("Cargo.toml"), manifest).expect("write manifest");
    std::fs::copy(repo_root().join("clippy.toml"), root.join("clippy.toml"))
        .expect("copy clippy.toml");
    std::fs::write(root.join("src/lib.rs"), lib_rs).expect("write source");

    let out = Command::new(env!("CARGO"))
        .current_dir(&root)
        .env("CARGO_TARGET_DIR", root.join("target"))
        .env_remove("CLIPPY_CONF_DIR")
        .args([
            "clippy",
            "--all-targets",
            "--offline",
            "--",
            "-D",
            "warnings",
        ])
        .output()
        .expect("run cargo clippy");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        !text.contains("no such command"),
        "cargo-clippy is not installed:\n{text}"
    );
    let _ = std::fs::remove_dir_all(&root);
    (out.status.success(), text)
}

/// Asserts the fixture fails clippy and the report names `lint`.
fn assert_fails_with(tag: &str, lib_rs: &str, lint: &str) {
    let (ok, text) = clippy(tag, lib_rs);
    assert!(!ok, "seeded `{lint}` site must fail clippy:\n{text}");
    assert!(text.contains(lint), "report must name `{lint}`:\n{text}");
}

#[test]
fn gate_passes_on_a_clean_tree() {
    // Unit tests may unwrap (`allow-unwrap-in-tests`); library code does not.
    let src = "//! fixture\n/// f\npub fn f() -> u64 { 1 }\n\
               #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        \
               assert_eq!(\"1\".parse::<u64>().unwrap(), super::f());\n    }\n}\n";
    let (ok, text) = clippy("clean", src);
    assert!(ok, "clean crate must pass:\n{text}");
}

#[test]
fn gate_fails_on_a_seeded_hashmap() {
    let src = "//! fixture\nuse std::collections::HashMap;\n/// f\npub fn f() -> usize {\n    \
               let m: HashMap<u64, u64> = HashMap::new();\n    m.len()\n}\n";
    assert_fails_with("hashmap", src, "disallowed_types");
}

#[test]
fn gate_fails_on_a_seeded_wall_clock_read() {
    let src = "//! fixture\n/// f\npub fn f() -> f64 {\n    \
               std::time::Instant::now().elapsed().as_secs_f64()\n}\n";
    assert_fails_with("instant", src, "disallowed_methods");
}

#[test]
fn gate_fails_on_a_seeded_environment_read() {
    // Knobs are read only through the `iss_sim::env` table.
    let src = "//! fixture\n/// f\npub fn f() -> bool {\n    \
               std::env::var(\"ISS_THREADS\").is_ok()\n}\n";
    assert_fails_with("env-var", src, "disallowed_methods");
}

#[test]
fn gate_fails_on_a_seeded_f32_narrowing() {
    let src = "//! fixture\n/// f\npub fn f(x: f64) -> f64 {\n    f64::from(x as f32)\n}\n";
    assert_fails_with("as-f32", src, "disallowed_types");
}

#[test]
fn gate_fails_on_a_seeded_library_unwrap() {
    let src = "//! fixture\n/// f\npub fn f(x: Option<u64>) -> u64 {\n    x.unwrap()\n}\n";
    assert_fails_with("unwrap", src, "unwrap_used");
    let src = "//! fixture\n/// f\npub fn f(x: Option<u64>) -> u64 {\n    x.expect(\"x\")\n}\n";
    assert_fails_with("expect", src, "expect_used");
}

#[test]
fn gate_fails_on_seeded_unsafe_code() {
    let src = "//! fixture\n/// f\npub fn f(x: &u64) -> u64 {\n    \
               unsafe { *std::ptr::from_ref(x) }\n}\n";
    assert_fails_with("unsafe", src, "unsafe-code");
}

#[test]
fn gate_fails_on_a_stale_expectation() {
    // The expectation claims an unwrap site but the code has none: the
    // ratchet must force the attribute to be removed.
    let src = "//! fixture\n/// f\n#[expect(clippy::unwrap_used, reason = \"gone\")]\n\
               pub fn f() -> u64 {\n    1\n}\n";
    assert_fails_with("stale", src, "unfulfilled");
}

#[test]
fn gate_suppresses_exactly_budgeted_sites() {
    let src = "//! fixture\n/// f\npub fn f(x: Option<u64>) -> u64 {\n    \
               #[expect(clippy::unwrap_used, reason = \"fixture\")]\n    \
               let v = x.unwrap();\n    v + 1\n}\n";
    let (ok, text) = clippy("budget", src);
    assert!(ok, "exactly-expected site must pass:\n{text}");
    // One expectation covers one statement: a second site fails.
    let src = "//! fixture\n/// f\npub fn f(x: Option<u64>) -> u64 {\n    \
               #[expect(clippy::unwrap_used, reason = \"fixture\")]\n    \
               let v = x.unwrap();\n    v + x.unwrap()\n}\n";
    assert_fails_with("over-budget", src, "unwrap_used");
}

//! The knob table: every `ISS_*` environment variable the workspace reads.
//!
//! Each knob is one [`Knob`] constant below, and [`TABLE`] lists them in
//! the order the README documents them. They share one contract,
//! implemented once in [`Knob::parse`]: an unset or blank variable selects
//! the documented default, and **anything else must parse exactly** —
//! typos, zeros and overflows fail loudly, naming the variable, the value
//! and the escape hatch, never silently mapped to a default (a typo like
//! `ISS_EXPERIMENT_SCALE=ful` must not quietly turn a "full" accuracy run
//! into a quick one). [`Knob::try_get`] returns the error for callers with
//! an error channel (the scenario engine, the `iss` CLI); [`Knob::get`]
//! panics with it. The private reader here is the workspace's only
//! `std::env::var` call (`clippy.toml` disallows any other).

use std::path::PathBuf;
use std::str::FromStr;

use crate::experiments::ExperimentScale;
use crate::shard::{FaultKind, FaultSpec};

/// One environment knob: its variable, error text, default and parser.
pub struct Knob<T> {
    /// The variable name.
    pub(crate) name: &'static str,
    /// What a set value must be, as the error message words it.
    pub(crate) expected: &'static str,
    /// How to get the default back, as the error message words it.
    pub(crate) escape: &'static str,
    /// The value of an unset or blank variable.
    pub(crate) default: fn() -> T,
    /// Parses a set, non-blank value as read (the path knobs keep
    /// surrounding whitespace; every other parser trims it). `Err` carries
    /// the offending text the error message quotes.
    pub(crate) value: fn(&str) -> Result<T, String>,
}

impl<T> Knob<T> {
    /// Parses a value of this knob: `None` (unset) and blank strings give
    /// the default, anything else goes through the knob's parser.
    ///
    /// # Errors
    ///
    /// Returns "`NAME` must be *expected*, got \`*value*\` (*escape*)"
    /// when the value does not parse.
    pub fn parse(&self, value: Option<&str>) -> Result<T, String> {
        match value {
            Some(raw) if !raw.trim().is_empty() => (self.value)(raw).map_err(|got| {
                format!(
                    "{} must be {}, got `{got}` ({})",
                    self.name, self.expected, self.escape
                )
            }),
            _ => Ok((self.default)()),
        }
    }

    /// Reads and parses the variable from the process environment.
    ///
    /// # Errors
    ///
    /// As [`Knob::parse`]: a set value that does not parse.
    pub fn try_get(&self) -> Result<T, String> {
        self.parse(read(self.name).as_deref())
    }

    /// [`Knob::try_get`] for binaries with no error channel of their own.
    ///
    /// # Panics
    ///
    /// Panics with the [`Knob::parse`] message when the value is malformed,
    /// instead of silently running with the default.
    #[must_use]
    pub fn get(&self) -> T {
        self.try_get().unwrap_or_else(|e| panic!("{e}"))
    }
}

#[expect(
    clippy::disallowed_methods,
    reason = "the knob table is the workspace's one environment reader"
)]
fn read(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

/// A worker count: a positive integer, default the host's parallelism.
const fn workers(name: &'static str) -> Knob<usize> {
    Knob {
        name,
        expected: "a positive integer",
        escape: "unset the variable to use the host's available parallelism",
        default: || std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        value: positive,
    }
}

/// A positive integer; `0` is quoted as `0` whatever its spelling.
fn positive<N: FromStr + PartialEq + From<u8>>(raw: &str) -> Result<N, String> {
    let s = raw.trim();
    match s.parse::<N>() {
        Ok(n) if n == N::from(0) => Err("0".to_string()),
        Ok(n) => Ok(n),
        Err(_) => Err(s.to_string()),
    }
}

/// `ISS_THREADS` — batch-engine worker count of every driver; simulated
/// rows do not depend on it. Default: the host's available parallelism.
pub const THREADS: Knob<usize> = workers("ISS_THREADS");

/// `ISS_EXPERIMENT_SCALE` — instruction budget per benchmark: `quick`
/// (default), `full` (case-insensitive) or a positive instruction count
/// per SPEC benchmark (PARSEC workloads get twice that, saturating).
pub const EXPERIMENT_SCALE: Knob<ExperimentScale> = Knob {
    name: "ISS_EXPERIMENT_SCALE",
    expected: "`quick`, `full`, or a positive instruction count",
    escape: "unset the variable to run at quick scale",
    default: ExperimentScale::quick,
    value: |raw| match raw.trim() {
        s if s.eq_ignore_ascii_case("quick") => Ok(ExperimentScale::quick()),
        s if s.eq_ignore_ascii_case("full") => Ok(ExperimentScale::full()),
        s => positive::<u64>(s).map(|n| ExperimentScale {
            spec_length: n,
            parsec_length: n.saturating_mul(2),
            seed: 42,
        }),
    },
};

/// `ISS_BENCH_OUT` — output path of the `perf` binary (a positional
/// argument overrides it); default `BENCH_interval.json`.
pub const BENCH_OUT: Knob<PathBuf> = Knob {
    name: "ISS_BENCH_OUT",
    expected: "a file path",
    escape: "unset the variable to write BENCH_interval.json",
    default: || PathBuf::from("BENCH_interval.json"),
    value: |raw| Ok(PathBuf::from(raw)),
};

/// `ISS_SAMPLING_TRACE` — any non-blank value prints a per-run phase
/// breakdown (restore/measure/extract/warm wall-clock) of sampled runs on
/// stderr; default off.
pub const SAMPLING_TRACE: Knob<bool> = Knob {
    name: "ISS_SAMPLING_TRACE",
    expected: "any non-blank value",
    escape: "unset the variable to turn the trace off",
    default: || false,
    value: |_| Ok(true),
};

/// `ISS_SHARDS` — child-process count of `iss sweep` (the `--shards` flag
/// overrides it). Default: the host's available parallelism.
pub const SHARDS: Knob<usize> = workers("ISS_SHARDS");

/// `ISS_SHARD_RETRIES` — re-dispatches of a failed shard before the
/// supervisor bisects its job list. A non-negative `u32` (`0` = bisect
/// immediately); default 2.
pub const SHARD_RETRIES: Knob<u32> = Knob {
    name: "ISS_SHARD_RETRIES",
    expected: "a non-negative integer (u32)",
    escape: "unset the variable to use the default of 2 retries",
    default: || 2,
    value: |raw| raw.trim().parse().map_err(|_| raw.trim().to_string()),
};

/// `ISS_JOB_TIMEOUT_MS` — per-shard progress deadline of `iss sweep`, in
/// milliseconds: a silent child is killed and its jobs retried. Positive
/// (`0` would kill every child at once); default 120000.
pub const JOB_TIMEOUT_MS: Knob<u64> = Knob {
    name: "ISS_JOB_TIMEOUT_MS",
    expected: "a positive integer of milliseconds",
    escape: "unset the variable to use the default of 120000 ms",
    default: || 120_000,
    value: positive,
};

/// `ISS_FAULT_INJECT` — deterministic fault injection for the
/// crash-recovery tests: `<kind>:<job>` ([`FaultSpec`]); default none. A
/// typo silently disabling injection would turn those tests into no-ops.
pub const FAULT_INJECT: Knob<Option<FaultSpec>> = Knob {
    name: "ISS_FAULT_INJECT",
    expected: "`panic:<job>`, `exit:<job>` or `stall:<job>`",
    escape: "unset the variable to disable fault injection",
    default: || None,
    value: |raw| {
        let s = raw.trim();
        let (kind, job) = match s.split_once(':') {
            Some(("panic", job)) => (FaultKind::Panic, job),
            Some(("exit", job)) => (FaultKind::Exit, job),
            Some(("stall", job)) => (FaultKind::Stall, job),
            _ => return Err(s.to_string()),
        };
        let job = job.parse().map_err(|_| s.to_string())?;
        Ok(Some(FaultSpec { kind, job }))
    },
};

/// `ISS_SERVE_WORKERS` — simulation worker-pool size of `iss serve` (the
/// `--workers` flag overrides it). Default: the host's available parallelism.
pub const SERVE_WORKERS: Knob<usize> = workers("ISS_SERVE_WORKERS");

/// `ISS_CACHE_DIR` — result-store directory of `iss serve` (the
/// `--cache-dir` flag overrides it), taken verbatim; default `.iss-cache`
/// relative to the server's working directory.
pub const CACHE_DIR: Knob<PathBuf> = Knob {
    name: "ISS_CACHE_DIR",
    expected: "a directory path",
    escape: "unset the variable to use .iss-cache",
    default: || PathBuf::from(".iss-cache"),
    value: |raw| Ok(PathBuf::from(raw)),
};

/// `ISS_CACHE_MAX_MB` — result-store size bound in MiB (the
/// `--cache-max-mb` flag overrides it). A positive integer whose byte count
/// fits in `u64` (`0` would evict the store to nothing); default 512.
pub const CACHE_MAX_MB: Knob<u64> = Knob {
    name: "ISS_CACHE_MAX_MB",
    expected: "a positive integer of MiB",
    escape: "unset the variable to use the default of 512 MiB",
    default: || 512,
    value: |raw| match positive::<u64>(raw)? {
        mib if mib.checked_mul(1024 * 1024).is_some() => Ok(mib),
        _ => Err(raw.trim().to_string()),
    },
};

/// A knob's [`Knob::parse`] with the parsed value dropped.
pub type Check = fn(Option<&str>) -> Result<(), String>;

/// Every knob in documentation order, as `(name, check)` rows.
pub const TABLE: [(&str, Check); 11] = [
    (THREADS.name, |v| THREADS.parse(v).map(drop)),
    (EXPERIMENT_SCALE.name, |v| {
        EXPERIMENT_SCALE.parse(v).map(drop)
    }),
    (BENCH_OUT.name, |v| BENCH_OUT.parse(v).map(drop)),
    (SAMPLING_TRACE.name, |v| SAMPLING_TRACE.parse(v).map(drop)),
    (SHARDS.name, |v| SHARDS.parse(v).map(drop)),
    (SHARD_RETRIES.name, |v| SHARD_RETRIES.parse(v).map(drop)),
    (JOB_TIMEOUT_MS.name, |v| JOB_TIMEOUT_MS.parse(v).map(drop)),
    (FAULT_INJECT.name, |v| FAULT_INJECT.parse(v).map(drop)),
    (SERVE_WORKERS.name, |v| SERVE_WORKERS.parse(v).map(drop)),
    (CACHE_DIR.name, |v| CACHE_DIR.parse(v).map(drop)),
    (CACHE_MAX_MB.name, |v| CACHE_MAX_MB.parse(v).map(drop)),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn fault(kind: FaultKind, job: usize) -> Result<Option<FaultSpec>, String> {
        Ok(Some(FaultSpec { kind, job }))
    }

    #[test]
    fn thread_parsing_accepts_positive_integers_and_unset() {
        assert_eq!(THREADS.parse(Some("3")), Ok(3));
        assert_eq!(THREADS.parse(Some(" 8 ")), Ok(8));
        assert!(THREADS.parse(None).unwrap() >= 1);
        assert!(THREADS.parse(Some("")).unwrap() >= 1);
    }

    #[test]
    fn thread_parsing_rejects_zero_and_garbage_loudly() {
        let zero = THREADS.parse(Some("0")).unwrap_err();
        assert!(zero.contains("`0`"), "got: {zero}");
        let junk = THREADS.parse(Some("four")).unwrap_err();
        assert!(junk.contains("`four`"), "got: {junk}");
        let negative = THREADS.parse(Some("-2")).unwrap_err();
        assert!(negative.contains("`-2`"), "got: {negative}");
    }

    #[test]
    fn scale_parsing_accepts_keywords_numbers_and_unset() {
        let quick = Ok(ExperimentScale::quick());
        for v in [None, Some(""), Some("  "), Some("quick"), Some("QUICK")] {
            assert_eq!(EXPERIMENT_SCALE.parse(v), quick, "{v:?}");
        }
        let full = Ok(ExperimentScale::full());
        assert_eq!(EXPERIMENT_SCALE.parse(Some("full")), full);
        assert_eq!(EXPERIMENT_SCALE.parse(Some("Full")), full);
        let custom = EXPERIMENT_SCALE.parse(Some(" 50000 ")).unwrap();
        assert_eq!(custom.spec_length, 50_000);
        assert_eq!(custom.parsec_length, 100_000);
        assert_eq!(custom.seed, 42);
    }

    #[test]
    fn scale_parsing_saturates_the_parsec_budget() {
        let huge = EXPERIMENT_SCALE.parse(Some(&u64::MAX.to_string())).unwrap();
        assert_eq!(huge.spec_length, u64::MAX);
        assert_eq!(huge.parsec_length, u64::MAX, "must saturate, not overflow");
    }

    #[test]
    fn scale_parsing_rejects_typos_zero_and_bad_numbers_loudly() {
        // The motivating bug: `ful` used to silently select quick scale.
        for bad in ["ful", "0", "-5", "99999999999999999999999", "fast"] {
            let err = EXPERIMENT_SCALE.parse(Some(bad)).unwrap_err();
            assert!(err.contains(&format!("`{bad}`")), "got: {err}");
        }
    }

    #[test]
    fn shard_parsing_accepts_positive_integers_and_unset() {
        assert_eq!(SHARDS.parse(Some("4")), Ok(4));
        assert_eq!(SHARDS.parse(Some(" 2 ")), Ok(2));
        assert!(SHARDS.parse(None).unwrap() >= 1);
        assert!(SHARDS.parse(Some("")).unwrap() >= 1);
    }

    #[test]
    fn shard_parsing_rejects_zero_and_garbage_loudly() {
        let zero = SHARDS.parse(Some("0")).unwrap_err();
        assert!(
            zero.contains("ISS_SHARDS") && zero.contains("`0`"),
            "got: {zero}"
        );
        let junk = SHARDS.parse(Some("two")).unwrap_err();
        assert!(junk.contains("`two`"), "got: {junk}");
    }

    #[test]
    fn retry_parsing_accepts_zero_and_defaults_when_unset() {
        assert_eq!(SHARD_RETRIES.parse(None), Ok(2));
        assert_eq!(SHARD_RETRIES.parse(Some("")), Ok(2));
        assert_eq!(
            SHARD_RETRIES.parse(Some("0")),
            Ok(0),
            "0 = straight to bisection"
        );
        assert_eq!(SHARD_RETRIES.parse(Some(" 5 ")), Ok(5));
    }

    #[test]
    fn retry_parsing_rejects_garbage_and_overflow_loudly() {
        let junk = SHARD_RETRIES.parse(Some("lots")).unwrap_err();
        assert!(
            junk.contains("ISS_SHARD_RETRIES") && junk.contains("`lots`"),
            "got: {junk}"
        );
        let negative = SHARD_RETRIES.parse(Some("-1")).unwrap_err();
        assert!(negative.contains("`-1`"), "got: {negative}");
        let overflow = SHARD_RETRIES.parse(Some("4294967296")).unwrap_err();
        assert!(overflow.contains("`4294967296`"), "got: {overflow}");
    }

    #[test]
    fn timeout_parsing_accepts_positive_ms_and_defaults_when_unset() {
        assert_eq!(JOB_TIMEOUT_MS.parse(None), Ok(120_000));
        assert_eq!(JOB_TIMEOUT_MS.parse(Some("")), Ok(120_000));
        assert_eq!(JOB_TIMEOUT_MS.parse(Some("300")), Ok(300));
    }

    #[test]
    fn timeout_parsing_rejects_zero_garbage_and_overflow_loudly() {
        let zero = JOB_TIMEOUT_MS.parse(Some("0")).unwrap_err();
        assert!(
            zero.contains("ISS_JOB_TIMEOUT_MS") && zero.contains("`0`"),
            "got: {zero}"
        );
        let junk = JOB_TIMEOUT_MS.parse(Some("1s")).unwrap_err();
        assert!(junk.contains("`1s`"), "got: {junk}");
        let overflow = JOB_TIMEOUT_MS
            .parse(Some("99999999999999999999999"))
            .unwrap_err();
        assert!(
            overflow.contains("99999999999999999999999"),
            "got: {overflow}"
        );
    }

    #[test]
    fn fault_parsing_accepts_every_kind_and_none_when_unset() {
        assert_eq!(FAULT_INJECT.parse(None), Ok(None));
        assert_eq!(FAULT_INJECT.parse(Some("")), Ok(None));
        assert_eq!(
            FAULT_INJECT.parse(Some("panic:3")),
            fault(FaultKind::Panic, 3)
        );
        assert_eq!(
            FAULT_INJECT.parse(Some("exit:0")),
            fault(FaultKind::Exit, 0)
        );
        assert_eq!(
            FAULT_INJECT.parse(Some(" stall:2 ")),
            fault(FaultKind::Stall, 2)
        );
    }

    #[test]
    fn fault_parsing_rejects_malformed_specs_loudly() {
        for bad in [
            "panic",
            "panic:",
            "panic:x",
            "segfault:1",
            "panic:-1",
            "3:panic",
        ] {
            let err = FAULT_INJECT.parse(Some(bad)).unwrap_err();
            assert!(err.contains("ISS_FAULT_INJECT"), "`{bad}` got: {err}");
            assert!(err.contains(bad.trim()), "`{bad}` got: {err}");
        }
    }

    #[test]
    fn serve_worker_parsing_accepts_positive_integers_and_unset() {
        assert_eq!(SERVE_WORKERS.parse(Some("4")), Ok(4));
        assert_eq!(SERVE_WORKERS.parse(Some(" 2 ")), Ok(2));
        assert!(SERVE_WORKERS.parse(None).unwrap() >= 1);
        assert!(SERVE_WORKERS.parse(Some("")).unwrap() >= 1);
    }

    #[test]
    fn serve_worker_parsing_rejects_zero_and_garbage_loudly() {
        let zero = SERVE_WORKERS.parse(Some("0")).unwrap_err();
        assert!(
            zero.contains("ISS_SERVE_WORKERS") && zero.contains("`0`"),
            "got: {zero}"
        );
        let junk = SERVE_WORKERS.parse(Some("many")).unwrap_err();
        assert!(junk.contains("`many`"), "got: {junk}");
    }

    #[test]
    fn cache_size_parsing_accepts_positive_mib_and_defaults_when_unset() {
        assert_eq!(CACHE_MAX_MB.parse(None), Ok(512));
        assert_eq!(CACHE_MAX_MB.parse(Some("")), Ok(512));
        assert_eq!(CACHE_MAX_MB.parse(Some(" 64 ")), Ok(64));
    }

    #[test]
    fn cache_size_parsing_rejects_zero_garbage_and_overflow_loudly() {
        let zero = CACHE_MAX_MB.parse(Some("0")).unwrap_err();
        assert!(
            zero.contains("ISS_CACHE_MAX_MB") && zero.contains("`0`"),
            "got: {zero}"
        );
        let junk = CACHE_MAX_MB.parse(Some("big")).unwrap_err();
        assert!(junk.contains("`big`"), "got: {junk}");
        // Parses as u64, but the byte count would overflow.
        let overflow = CACHE_MAX_MB
            .parse(Some("18446744073709551615"))
            .unwrap_err();
        assert!(
            overflow.contains("`18446744073709551615`"),
            "got: {overflow}"
        );
    }

    #[test]
    fn paths_are_verbatim_and_blank_means_the_default() {
        let dir = CACHE_DIR.parse(Some(" /tmp/a b ")).unwrap();
        assert_eq!(
            dir,
            PathBuf::from(" /tmp/a b "),
            "the path keeps its spaces"
        );
        assert_eq!(CACHE_DIR.parse(Some("  ")), Ok(PathBuf::from(".iss-cache")));
        assert_eq!(
            BENCH_OUT.parse(Some("")),
            Ok(PathBuf::from("BENCH_interval.json"))
        );
        assert_eq!(
            BENCH_OUT.parse(Some("out.json")),
            Ok(PathBuf::from("out.json"))
        );
        assert_eq!(SAMPLING_TRACE.parse(None), Ok(false));
        assert_eq!(SAMPLING_TRACE.parse(Some("")), Ok(false));
        assert_eq!(
            SAMPLING_TRACE.parse(Some("0")),
            Ok(true),
            "any value turns it on"
        );
    }

    #[test]
    fn all_variables_share_the_error_shape() {
        // Eight knobs reject garbage; the path and flag knobs take any text.
        let errors: Vec<String> = TABLE
            .iter()
            .filter_map(|(_, check)| check(Some("nope")).err())
            .collect();
        assert_eq!(errors.len(), 8, "{errors:?}");
        for e in &errors {
            assert!(e.contains("must be"), "got: {e}");
            assert!(e.contains("`nope`"), "got: {e}");
            assert!(e.contains("unset the variable"), "got: {e}");
        }
    }

    #[test]
    fn the_table_lists_each_iss_variable_once_in_readme_order() {
        let names: Vec<&str> = TABLE.iter().map(|(name, _)| *name).collect();
        let readme = include_str!("../../../README.md");
        let documented: Vec<&str> = readme
            .lines()
            .filter_map(|l| l.strip_prefix("| `ISS_"))
            .filter_map(|l| l.split('`').next())
            .collect();
        let names: Vec<&str> = names.iter().map(|n| &n["ISS_".len()..]).collect();
        assert_eq!(documented, names);
    }
}

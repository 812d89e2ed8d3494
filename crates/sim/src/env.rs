//! Strict environment-variable parsing shared by every binary.
//!
//! Every knob the simulator reads from the environment goes through this
//! module, with one common failure contract: an unset variable (or the
//! empty string) selects a documented default, and **anything else must
//! parse exactly** — typos, zeros and overflows are rejected with a loud
//! error naming the variable, the offending value and the escape hatch,
//! never silently mapped to a default. A typo like `ISS_EXPERIMENT_SCALE=ful`
//! must not quietly turn a "full" accuracy run into a quick one, and
//! `ISS_THREADS=0` must not quietly benchmark at the wrong concurrency.
//!
//! The variables currently covered:
//!
//! * `ISS_THREADS` — batch-engine worker count ([`parse_thread_count`],
//!   [`configured_threads`]).
//! * `ISS_EXPERIMENT_SCALE` — experiment instruction budget
//!   ([`parse_scale`], [`scale_from_env`]).
//! * `ISS_SHARDS` — sharded-sweep child process count
//!   ([`parse_shard_count`], [`try_shards_from_env`]).
//! * `ISS_SHARD_RETRIES` — retry budget per shard before bisection
//!   ([`parse_retry_limit`], [`try_retries_from_env`]).
//! * `ISS_JOB_TIMEOUT_MS` — per-job progress deadline for child shards
//!   ([`parse_job_timeout_ms`], [`try_job_timeout_from_env`]).
//! * `ISS_FAULT_INJECT` — deterministic fault injection for the
//!   crash-recovery tests ([`parse_fault_spec`], [`try_fault_from_env`]).
//! * `ISS_SERVE_WORKERS` — `iss serve` simulation worker pool size
//!   ([`parse_serve_workers`], [`try_serve_workers_from_env`]).
//! * `ISS_CACHE_DIR` — `iss serve` result-store directory
//!   ([`cache_dir_from_env`]).
//! * `ISS_CACHE_MAX_MB` — result-store size bound in MiB
//!   ([`parse_cache_max_mb`], [`try_cache_max_mb_from_env`]).

use crate::experiments::ExperimentScale;

/// The common loud-failure error shape of this module: names the variable,
/// what it accepts, the offending value, and how to get the default back.
#[must_use]
pub fn reject(var: &str, expected: &str, got: &str, escape: &str) -> String {
    format!("{var} must be {expected}, got `{got}` ({escape})")
}

/// Parses an `ISS_THREADS` value into a worker count.
///
/// `None` (variable unset) and the empty string select the default (the
/// host's available parallelism). Anything else must be a positive integer:
/// `0` and non-numeric values are **rejected** rather than silently falling
/// back to the default.
///
/// # Errors
///
/// Returns a message naming the offending value when it is not a positive
/// integer.
pub fn parse_thread_count(value: Option<&str>) -> Result<usize, String> {
    let Some(raw) = value else {
        return Ok(default_threads());
    };
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Ok(default_threads());
    }
    let escape = "unset the variable to use the host's available parallelism";
    match trimmed.parse::<usize>() {
        Ok(0) => Err(reject("ISS_THREADS", "a positive integer", "0", escape)),
        Ok(n) => Ok(n),
        Err(_) => Err(reject("ISS_THREADS", "a positive integer", trimmed, escape)),
    }
}

/// Worker count used by the batch engine: the `ISS_THREADS` environment
/// variable when set to a positive integer, otherwise the host's available
/// parallelism (1 if that cannot be determined).
///
/// # Errors
///
/// Returns a message naming the offending value when `ISS_THREADS` is set
/// to `0` or to a non-numeric value (see [`parse_thread_count`]) — the
/// typed-error path for callers that can surface the message themselves
/// (the scenario engine, the `iss` CLI).
pub fn try_configured_threads() -> Result<usize, String> {
    let value = std::env::var("ISS_THREADS").ok();
    parse_thread_count(value.as_deref())
}

/// Panicking convenience over [`try_configured_threads`] for binaries with
/// no error channel of their own.
///
/// # Panics
///
/// Panics with a clear message when `ISS_THREADS` is set to `0` or to a
/// non-numeric value (see [`parse_thread_count`]).
#[must_use]
pub fn configured_threads() -> usize {
    try_configured_threads().unwrap_or_else(|e| panic!("{e}"))
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Parses an `ISS_EXPERIMENT_SCALE` value into an [`ExperimentScale`].
///
/// `None` (variable unset) and the empty string select `quick`. Anything
/// else must be `quick`, `full` (case-insensitive) or a positive integer
/// instruction count per SPEC benchmark (PARSEC workloads get twice that
/// budget, saturating instead of overflowing). Unknown strings, `0`,
/// negative and overflowing numbers are **rejected** rather than silently
/// falling back to `quick`.
///
/// # Errors
///
/// Returns a message naming the offending value when it is neither a known
/// keyword nor a positive integer.
pub fn parse_scale(value: Option<&str>) -> Result<ExperimentScale, String> {
    let Some(raw) = value else {
        return Ok(ExperimentScale::quick());
    };
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Ok(ExperimentScale::quick());
    }
    if trimmed.eq_ignore_ascii_case("quick") {
        return Ok(ExperimentScale::quick());
    }
    if trimmed.eq_ignore_ascii_case("full") {
        return Ok(ExperimentScale::full());
    }
    let expected = "`quick`, `full`, or a positive instruction count";
    let escape = "unset the variable to run at quick scale";
    match trimmed.parse::<u64>() {
        Ok(0) => Err(reject("ISS_EXPERIMENT_SCALE", expected, "0", escape)),
        Ok(n) => Ok(ExperimentScale {
            spec_length: n,
            parsec_length: n.saturating_mul(2),
            seed: 42,
        }),
        Err(_) => Err(reject("ISS_EXPERIMENT_SCALE", expected, trimmed, escape)),
    }
}

/// Reads the experiment scale from `ISS_EXPERIMENT_SCALE` (see
/// [`parse_scale`] for the accepted values) — the typed-error path for
/// callers that can surface the message themselves.
///
/// # Errors
///
/// Returns a message naming the offending value when the variable is set
/// to an unknown keyword, `0`, or a non-positive/overflowing number.
pub fn try_scale_from_env() -> Result<ExperimentScale, String> {
    let value = std::env::var("ISS_EXPERIMENT_SCALE").ok();
    parse_scale(value.as_deref())
}

/// Panicking convenience over [`try_scale_from_env`] for binaries with no
/// error channel of their own.
///
/// # Panics
///
/// Panics with a clear message when the variable is set to an unknown
/// keyword, `0`, or a non-positive/overflowing number, instead of silently
/// running at the wrong scale.
#[must_use]
pub fn scale_from_env() -> ExperimentScale {
    try_scale_from_env().unwrap_or_else(|e| panic!("{e}"))
}

/// Parses an `ISS_SHARDS` value into a sharded-sweep child process count.
///
/// `None` (variable unset) and the empty string select the default (the
/// host's available parallelism). Anything else must be a positive integer;
/// `0` and garbage are **rejected** — a sweep silently collapsing to one
/// shard would hide the fault-containment the operator asked for.
///
/// # Errors
///
/// Returns a message naming the offending value when it is not a positive
/// integer.
pub fn parse_shard_count(value: Option<&str>) -> Result<usize, String> {
    let Some(raw) = value else {
        return Ok(default_threads());
    };
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Ok(default_threads());
    }
    let escape = "unset the variable to use the host's available parallelism";
    match trimmed.parse::<usize>() {
        Ok(0) => Err(reject("ISS_SHARDS", "a positive integer", "0", escape)),
        Ok(n) => Ok(n),
        Err(_) => Err(reject("ISS_SHARDS", "a positive integer", trimmed, escape)),
    }
}

/// Reads the sharded-sweep child process count from `ISS_SHARDS` (see
/// [`parse_shard_count`]).
///
/// # Errors
///
/// Returns a message naming the offending value when the variable is set
/// to `0` or to a non-numeric value.
pub fn try_shards_from_env() -> Result<usize, String> {
    let value = std::env::var("ISS_SHARDS").ok();
    parse_shard_count(value.as_deref())
}

/// Default retry budget per shard before the supervisor starts bisecting
/// its job list (see [`parse_retry_limit`]).
pub const DEFAULT_SHARD_RETRIES: u32 = 2;

/// Parses an `ISS_SHARD_RETRIES` value into a retry budget.
///
/// `None` (variable unset) and the empty string select
/// [`DEFAULT_SHARD_RETRIES`]. Anything else must be a non-negative integer
/// (`0` is meaningful: fail straight to bisection); garbage and numbers
/// overflowing `u32` are **rejected** rather than silently capped.
///
/// # Errors
///
/// Returns a message naming the offending value when it is not a
/// non-negative integer fitting in `u32`.
pub fn parse_retry_limit(value: Option<&str>) -> Result<u32, String> {
    let Some(raw) = value else {
        return Ok(DEFAULT_SHARD_RETRIES);
    };
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Ok(DEFAULT_SHARD_RETRIES);
    }
    let escape = "unset the variable to use the default of 2 retries";
    trimmed.parse::<u32>().map_err(|_| {
        reject(
            "ISS_SHARD_RETRIES",
            "a non-negative integer (u32)",
            trimmed,
            escape,
        )
    })
}

/// Reads the per-shard retry budget from `ISS_SHARD_RETRIES` (see
/// [`parse_retry_limit`]).
///
/// # Errors
///
/// Returns a message naming the offending value when the variable is set
/// to anything but a non-negative integer fitting in `u32`.
pub fn try_retries_from_env() -> Result<u32, String> {
    let value = std::env::var("ISS_SHARD_RETRIES").ok();
    parse_retry_limit(value.as_deref())
}

/// Default per-job progress deadline for child shards, in milliseconds
/// (see [`parse_job_timeout_ms`]).
pub const DEFAULT_JOB_TIMEOUT_MS: u64 = 120_000;

/// Parses an `ISS_JOB_TIMEOUT_MS` value into a per-job progress deadline.
///
/// `None` (variable unset) and the empty string select
/// [`DEFAULT_JOB_TIMEOUT_MS`]. Anything else must be a positive integer
/// number of milliseconds: `0` would kill every child instantly and is
/// **rejected**, as are garbage and overflowing values.
///
/// # Errors
///
/// Returns a message naming the offending value when it is not a positive
/// integer.
pub fn parse_job_timeout_ms(value: Option<&str>) -> Result<u64, String> {
    let Some(raw) = value else {
        return Ok(DEFAULT_JOB_TIMEOUT_MS);
    };
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Ok(DEFAULT_JOB_TIMEOUT_MS);
    }
    let escape = "unset the variable to use the default of 120000 ms";
    match trimmed.parse::<u64>() {
        Ok(0) => Err(reject(
            "ISS_JOB_TIMEOUT_MS",
            "a positive integer of milliseconds",
            "0",
            escape,
        )),
        Ok(n) => Ok(n),
        Err(_) => Err(reject(
            "ISS_JOB_TIMEOUT_MS",
            "a positive integer of milliseconds",
            trimmed,
            escape,
        )),
    }
}

/// Reads the per-job progress deadline from `ISS_JOB_TIMEOUT_MS` (see
/// [`parse_job_timeout_ms`]).
///
/// # Errors
///
/// Returns a message naming the offending value when the variable is set
/// to `0` or to a non-numeric/overflowing value.
pub fn try_job_timeout_from_env() -> Result<u64, String> {
    let value = std::env::var("ISS_JOB_TIMEOUT_MS").ok();
    parse_job_timeout_ms(value.as_deref())
}

/// The way an injected fault takes a child shard down (see
/// [`parse_fault_spec`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic before simulating the job (child exits with the panic status).
    Panic,
    /// `std::process::exit(17)` before simulating the job.
    Exit,
    /// Sleep forever before simulating the job, to trip the progress
    /// deadline.
    Stall,
}

impl FaultKind {
    /// The spec keyword for this kind.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Exit => "exit",
            FaultKind::Stall => "stall",
        }
    }
}

/// A deterministic fault to inject into child shards: take down the shard
/// the moment it is about to simulate global job index [`FaultSpec::job`].
///
/// Encoded as `<kind>:<job>` (e.g. `panic:3`, `exit:0`, `stall:2`) in the
/// `ISS_FAULT_INJECT` variable. The supervisor forwards the variable to
/// every child it spawns, so the selected job is *permanently* poisoned:
/// retries keep failing, bisection isolates it, and the sweep must finish
/// with exactly that job quarantined — the end-to-end recovery path the
/// crash tests assert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// How the child dies.
    pub kind: FaultKind,
    /// Global (expansion-order) index of the job whose start triggers the
    /// fault.
    pub job: usize,
}

/// Parses an `ISS_FAULT_INJECT` value into an optional [`FaultSpec`].
///
/// `None` (variable unset) and the empty string mean no injection.
/// Anything else must be exactly `<kind>:<job>` with `kind` one of
/// `panic`, `exit`, `stall` and `job` a non-negative integer; anything
/// else is **rejected** — a typo silently disabling injection would turn
/// the crash-recovery tests into no-ops.
///
/// # Errors
///
/// Returns a message naming the offending value for malformed specs.
pub fn parse_fault_spec(value: Option<&str>) -> Result<Option<FaultSpec>, String> {
    let Some(raw) = value else {
        return Ok(None);
    };
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    let expected = "`panic:<job>`, `exit:<job>` or `stall:<job>`";
    let escape = "unset the variable to disable fault injection";
    let Some((kind_raw, job_raw)) = trimmed.split_once(':') else {
        return Err(reject("ISS_FAULT_INJECT", expected, trimmed, escape));
    };
    let kind = match kind_raw {
        "panic" => FaultKind::Panic,
        "exit" => FaultKind::Exit,
        "stall" => FaultKind::Stall,
        _ => return Err(reject("ISS_FAULT_INJECT", expected, trimmed, escape)),
    };
    let job = job_raw
        .parse::<usize>()
        .map_err(|_| reject("ISS_FAULT_INJECT", expected, trimmed, escape))?;
    Ok(Some(FaultSpec { kind, job }))
}

/// Reads the fault-injection spec from `ISS_FAULT_INJECT` (see
/// [`parse_fault_spec`]).
///
/// # Errors
///
/// Returns a message naming the offending value for malformed specs.
pub fn try_fault_from_env() -> Result<Option<FaultSpec>, String> {
    let value = std::env::var("ISS_FAULT_INJECT").ok();
    parse_fault_spec(value.as_deref())
}

/// Parses an `ISS_SERVE_WORKERS` value into the `iss serve` simulation
/// worker pool size.
///
/// `None` (variable unset) and the empty string select the default (the
/// host's available parallelism). Anything else must be a positive
/// integer: `0` workers would deadlock every request and is **rejected**,
/// as is garbage — a typo must not silently change the server's
/// concurrency.
///
/// # Errors
///
/// Returns a message naming the offending value when it is not a positive
/// integer.
pub fn parse_serve_workers(value: Option<&str>) -> Result<usize, String> {
    let Some(raw) = value else {
        return Ok(default_threads());
    };
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Ok(default_threads());
    }
    let escape = "unset the variable to use the host's available parallelism";
    match trimmed.parse::<usize>() {
        Ok(0) => Err(reject(
            "ISS_SERVE_WORKERS",
            "a positive integer",
            "0",
            escape,
        )),
        Ok(n) => Ok(n),
        Err(_) => Err(reject(
            "ISS_SERVE_WORKERS",
            "a positive integer",
            trimmed,
            escape,
        )),
    }
}

/// Reads the `iss serve` worker pool size from `ISS_SERVE_WORKERS` (see
/// [`parse_serve_workers`]).
///
/// # Errors
///
/// Returns a message naming the offending value when the variable is set
/// to `0` or to a non-numeric value.
pub fn try_serve_workers_from_env() -> Result<usize, String> {
    let value = std::env::var("ISS_SERVE_WORKERS").ok();
    parse_serve_workers(value.as_deref())
}

/// Default result-store directory when `ISS_CACHE_DIR` is unset.
pub const DEFAULT_CACHE_DIR: &str = ".iss-cache";

/// Reads the result-store directory from `ISS_CACHE_DIR`.
///
/// Unlike the numeric knobs this one cannot fail: any non-empty string is
/// a path, and an unset or empty variable selects
/// [`DEFAULT_CACHE_DIR`] relative to the server's working directory.
#[must_use]
pub fn cache_dir_from_env() -> std::path::PathBuf {
    match std::env::var("ISS_CACHE_DIR") {
        Ok(dir) if !dir.trim().is_empty() => std::path::PathBuf::from(dir),
        _ => std::path::PathBuf::from(DEFAULT_CACHE_DIR),
    }
}

/// Default result-store size bound in MiB (see [`parse_cache_max_mb`]).
pub const DEFAULT_CACHE_MAX_MB: u64 = 512;

/// Parses an `ISS_CACHE_MAX_MB` value into the result-store size bound in
/// MiB.
///
/// `None` (variable unset) and the empty string select
/// [`DEFAULT_CACHE_MAX_MB`]. Anything else must be a positive integer
/// whose byte count fits in `u64`: `0` would evict the store to nothing
/// and is **rejected**, as are garbage and overflowing values — a typo
/// must not silently change the store's retention.
///
/// # Errors
///
/// Returns a message naming the offending value when it is not a positive
/// integer with an in-range byte count.
pub fn parse_cache_max_mb(value: Option<&str>) -> Result<u64, String> {
    let Some(raw) = value else {
        return Ok(DEFAULT_CACHE_MAX_MB);
    };
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Ok(DEFAULT_CACHE_MAX_MB);
    }
    let expected = "a positive integer of MiB";
    let escape = "unset the variable to use the default of 512 MiB";
    match trimmed.parse::<u64>() {
        Ok(0) => Err(reject("ISS_CACHE_MAX_MB", expected, "0", escape)),
        Ok(n) if n.checked_mul(1024 * 1024).is_none() => {
            Err(reject("ISS_CACHE_MAX_MB", expected, trimmed, escape))
        }
        Ok(n) => Ok(n),
        Err(_) => Err(reject("ISS_CACHE_MAX_MB", expected, trimmed, escape)),
    }
}

/// Reads the result-store size bound from `ISS_CACHE_MAX_MB` (see
/// [`parse_cache_max_mb`]).
///
/// # Errors
///
/// Returns a message naming the offending value when the variable is set
/// to `0`, garbage, or a value whose byte count overflows `u64`.
pub fn try_cache_max_mb_from_env() -> Result<u64, String> {
    let value = std::env::var("ISS_CACHE_MAX_MB").ok();
    parse_cache_max_mb(value.as_deref())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_parsing_accepts_positive_integers_and_unset() {
        assert_eq!(parse_thread_count(Some("3")), Ok(3));
        assert_eq!(parse_thread_count(Some(" 8 ")), Ok(8));
        assert!(parse_thread_count(None).unwrap() >= 1);
        assert!(parse_thread_count(Some("")).unwrap() >= 1);
    }

    #[test]
    fn thread_parsing_rejects_zero_and_garbage_loudly() {
        let zero = parse_thread_count(Some("0")).unwrap_err();
        assert!(zero.contains("`0`"), "got: {zero}");
        let junk = parse_thread_count(Some("four")).unwrap_err();
        assert!(junk.contains("`four`"), "got: {junk}");
        let negative = parse_thread_count(Some("-2")).unwrap_err();
        assert!(negative.contains("`-2`"), "got: {negative}");
    }

    #[test]
    fn scale_parsing_accepts_keywords_numbers_and_unset() {
        assert_eq!(parse_scale(None).unwrap(), ExperimentScale::quick());
        assert_eq!(parse_scale(Some("")).unwrap(), ExperimentScale::quick());
        assert_eq!(parse_scale(Some("  ")).unwrap(), ExperimentScale::quick());
        assert_eq!(
            parse_scale(Some("quick")).unwrap(),
            ExperimentScale::quick()
        );
        assert_eq!(
            parse_scale(Some("QUICK")).unwrap(),
            ExperimentScale::quick()
        );
        assert_eq!(parse_scale(Some("full")).unwrap(), ExperimentScale::full());
        assert_eq!(parse_scale(Some("Full")).unwrap(), ExperimentScale::full());
        let custom = parse_scale(Some(" 50000 ")).unwrap();
        assert_eq!(custom.spec_length, 50_000);
        assert_eq!(custom.parsec_length, 100_000);
        assert_eq!(custom.seed, 42);
    }

    #[test]
    fn scale_parsing_saturates_the_parsec_budget() {
        let huge = parse_scale(Some(&u64::MAX.to_string())).unwrap();
        assert_eq!(huge.spec_length, u64::MAX);
        assert_eq!(huge.parsec_length, u64::MAX, "must saturate, not overflow");
    }

    #[test]
    fn scale_parsing_rejects_typos_zero_and_bad_numbers_loudly() {
        // The motivating bug: `ful` used to silently select quick scale.
        let typo = parse_scale(Some("ful")).unwrap_err();
        assert!(typo.contains("`ful`"), "got: {typo}");
        let zero = parse_scale(Some("0")).unwrap_err();
        assert!(zero.contains("`0`"), "got: {zero}");
        let negative = parse_scale(Some("-5")).unwrap_err();
        assert!(negative.contains("`-5`"), "got: {negative}");
        let overflow = parse_scale(Some("99999999999999999999999")).unwrap_err();
        assert!(
            overflow.contains("99999999999999999999999"),
            "got: {overflow}"
        );
        let junk = parse_scale(Some("fast")).unwrap_err();
        assert!(junk.contains("`fast`"), "got: {junk}");
    }

    #[test]
    fn shard_parsing_accepts_positive_integers_and_unset() {
        assert_eq!(parse_shard_count(Some("4")), Ok(4));
        assert_eq!(parse_shard_count(Some(" 2 ")), Ok(2));
        assert!(parse_shard_count(None).unwrap() >= 1);
        assert!(parse_shard_count(Some("")).unwrap() >= 1);
    }

    #[test]
    fn shard_parsing_rejects_zero_and_garbage_loudly() {
        let zero = parse_shard_count(Some("0")).unwrap_err();
        assert!(
            zero.contains("ISS_SHARDS") && zero.contains("`0`"),
            "got: {zero}"
        );
        let junk = parse_shard_count(Some("two")).unwrap_err();
        assert!(junk.contains("`two`"), "got: {junk}");
    }

    #[test]
    fn retry_parsing_accepts_zero_and_defaults_when_unset() {
        assert_eq!(parse_retry_limit(None), Ok(DEFAULT_SHARD_RETRIES));
        assert_eq!(parse_retry_limit(Some("")), Ok(DEFAULT_SHARD_RETRIES));
        assert_eq!(
            parse_retry_limit(Some("0")),
            Ok(0),
            "0 = straight to bisection"
        );
        assert_eq!(parse_retry_limit(Some(" 5 ")), Ok(5));
    }

    #[test]
    fn retry_parsing_rejects_garbage_and_overflow_loudly() {
        let junk = parse_retry_limit(Some("lots")).unwrap_err();
        assert!(
            junk.contains("ISS_SHARD_RETRIES") && junk.contains("`lots`"),
            "got: {junk}"
        );
        let negative = parse_retry_limit(Some("-1")).unwrap_err();
        assert!(negative.contains("`-1`"), "got: {negative}");
        let overflow = parse_retry_limit(Some("4294967296")).unwrap_err();
        assert!(overflow.contains("`4294967296`"), "got: {overflow}");
    }

    #[test]
    fn timeout_parsing_accepts_positive_ms_and_defaults_when_unset() {
        assert_eq!(parse_job_timeout_ms(None), Ok(DEFAULT_JOB_TIMEOUT_MS));
        assert_eq!(parse_job_timeout_ms(Some("")), Ok(DEFAULT_JOB_TIMEOUT_MS));
        assert_eq!(parse_job_timeout_ms(Some("300")), Ok(300));
    }

    #[test]
    fn timeout_parsing_rejects_zero_garbage_and_overflow_loudly() {
        let zero = parse_job_timeout_ms(Some("0")).unwrap_err();
        assert!(
            zero.contains("ISS_JOB_TIMEOUT_MS") && zero.contains("`0`"),
            "got: {zero}"
        );
        let junk = parse_job_timeout_ms(Some("1s")).unwrap_err();
        assert!(junk.contains("`1s`"), "got: {junk}");
        let overflow = parse_job_timeout_ms(Some("99999999999999999999999")).unwrap_err();
        assert!(
            overflow.contains("99999999999999999999999"),
            "got: {overflow}"
        );
    }

    #[test]
    fn fault_parsing_accepts_every_kind_and_none_when_unset() {
        assert_eq!(parse_fault_spec(None), Ok(None));
        assert_eq!(parse_fault_spec(Some("")), Ok(None));
        assert_eq!(
            parse_fault_spec(Some("panic:3")),
            Ok(Some(FaultSpec {
                kind: FaultKind::Panic,
                job: 3
            }))
        );
        assert_eq!(
            parse_fault_spec(Some("exit:0")),
            Ok(Some(FaultSpec {
                kind: FaultKind::Exit,
                job: 0
            }))
        );
        assert_eq!(
            parse_fault_spec(Some(" stall:2 ")),
            Ok(Some(FaultSpec {
                kind: FaultKind::Stall,
                job: 2
            }))
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
            let err = parse_fault_spec(Some(bad)).unwrap_err();
            assert!(err.contains("ISS_FAULT_INJECT"), "`{bad}` got: {err}");
            assert!(err.contains(bad.trim()), "`{bad}` got: {err}");
        }
    }

    #[test]
    fn serve_worker_parsing_accepts_positive_integers_and_unset() {
        assert_eq!(parse_serve_workers(Some("4")), Ok(4));
        assert_eq!(parse_serve_workers(Some(" 2 ")), Ok(2));
        assert!(parse_serve_workers(None).unwrap() >= 1);
        assert!(parse_serve_workers(Some("")).unwrap() >= 1);
    }

    #[test]
    fn serve_worker_parsing_rejects_zero_and_garbage_loudly() {
        let zero = parse_serve_workers(Some("0")).unwrap_err();
        assert!(
            zero.contains("ISS_SERVE_WORKERS") && zero.contains("`0`"),
            "got: {zero}"
        );
        let junk = parse_serve_workers(Some("many")).unwrap_err();
        assert!(junk.contains("`many`"), "got: {junk}");
    }

    #[test]
    fn cache_size_parsing_accepts_positive_mib_and_defaults_when_unset() {
        assert_eq!(parse_cache_max_mb(None), Ok(DEFAULT_CACHE_MAX_MB));
        assert_eq!(parse_cache_max_mb(Some("")), Ok(DEFAULT_CACHE_MAX_MB));
        assert_eq!(parse_cache_max_mb(Some(" 64 ")), Ok(64));
    }

    #[test]
    fn cache_size_parsing_rejects_zero_garbage_and_overflow_loudly() {
        let zero = parse_cache_max_mb(Some("0")).unwrap_err();
        assert!(
            zero.contains("ISS_CACHE_MAX_MB") && zero.contains("`0`"),
            "got: {zero}"
        );
        let junk = parse_cache_max_mb(Some("big")).unwrap_err();
        assert!(junk.contains("`big`"), "got: {junk}");
        // Parses as u64, but the byte count would overflow.
        let overflow = parse_cache_max_mb(Some("18446744073709551615")).unwrap_err();
        assert!(
            overflow.contains("`18446744073709551615`"),
            "got: {overflow}"
        );
    }

    #[test]
    fn all_variables_share_the_error_shape() {
        let threads = parse_thread_count(Some("nope")).unwrap_err();
        let scale = parse_scale(Some("nope")).unwrap_err();
        let shards = parse_shard_count(Some("nope")).unwrap_err();
        let retries = parse_retry_limit(Some("nope")).unwrap_err();
        let timeout = parse_job_timeout_ms(Some("nope")).unwrap_err();
        let fault = parse_fault_spec(Some("nope")).unwrap_err();
        let workers = parse_serve_workers(Some("nope")).unwrap_err();
        let cache = parse_cache_max_mb(Some("nope")).unwrap_err();
        for e in [
            &threads, &scale, &shards, &retries, &timeout, &fault, &workers, &cache,
        ] {
            assert!(e.contains("must be"), "got: {e}");
            assert!(e.contains("`nope`"), "got: {e}");
            assert!(e.contains("unset the variable"), "got: {e}");
        }
    }
}

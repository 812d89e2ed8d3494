//! Pass 2 — static analysis of scenario specs, before any simulation.
//!
//! A sweep that parses and validates can still be wasteful or
//! meaningless: two expanded points with identical canonical config
//! digests simulate the same design point twice and then overwrite each
//! other in comparisons; a one-value sweep axis is dead weight; a
//! machine with an L2 smaller than its L1 or a window/dispatch ratio far
//! outside the paper's modeled range produces numbers nobody should
//! read. [`analyze`] finds all of that from the spec text alone and adds
//! a cost estimate (expanded job count × per-model throughput from
//! `ci/BENCH_baseline.json`) so a fat sweep is visible before it burns
//! CI minutes.

use std::collections::BTreeMap;

use iss_sim::jsonval::{self, Json};
use iss_sim::workload::WorkloadSpec;
use iss_sim::{CoreModel, SweepSpec};

/// Severity of one spec finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// The spec should not be run as-is; `iss lint` exits nonzero.
    Error,
    /// Worth fixing, does not fail the lint.
    Warning,
}

/// One spec-analysis finding.
#[derive(Debug, Clone)]
pub struct SpecFinding {
    /// Error or warning.
    pub severity: Severity,
    /// Human-readable message.
    pub message: String,
}

/// Full analysis of one spec.
#[derive(Debug, Clone)]
pub struct SpecReport {
    /// Sweep name from the file.
    pub name: String,
    /// Expanded design-point count.
    pub points: usize,
    /// Estimated total simulated instructions across all points.
    pub instructions: u64,
    /// Estimated host seconds (`None` when no baseline is available).
    pub estimated_seconds: Option<f64>,
    /// Findings, errors first (stable order).
    pub findings: Vec<SpecFinding>,
}

impl SpecReport {
    /// Whether any finding is an [`Severity::Error`].
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.findings.iter().any(|f| f.severity == Severity::Error)
    }
}

/// Per-model host throughput (MIPS), read from `ci/BENCH_baseline.json`.
#[derive(Debug, Clone, Default)]
pub struct ModelMips {
    entries: Vec<(String, f64)>,
}

impl ModelMips {
    /// Extracts `{"model": .., "simulated_mips": ..}` pairs from the
    /// baseline file's `models` array.
    ///
    /// # Errors
    ///
    /// Returns an error when the text is not valid JSON, or when no model
    /// entry can be extracted (an empty estimate must be an explicit "no
    /// baseline", not a silent zero).
    pub fn parse(json: &str) -> Result<ModelMips, String> {
        let doc = jsonval::parse(json)?;
        let entries: Vec<(String, f64)> = doc
            .get("models")
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|m| {
                let model = m.get("model")?.as_str()?;
                let mips = m.get("simulated_mips")?.as_f64()?;
                (mips > 0.0).then(|| (model.to_string(), mips))
            })
            .collect();
        if entries.is_empty() {
            return Err("no model entries with a positive simulated_mips found".to_string());
        }
        Ok(ModelMips { entries })
    }

    /// Throughput for `model`: an exact name match, else the slowest
    /// known model (a conservative estimate for hybrids and newcomers).
    #[must_use]
    pub fn mips_for(&self, model: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(name, _)| name == model)
            .map(|&(_, m)| m)
            .or_else(|| {
                self.entries
                    .iter()
                    .map(|&(_, m)| m)
                    .min_by(|a, b| a.total_cmp(b))
            })
    }
}

/// Total simulated instructions one expanded point costs.
fn workload_instructions(w: &WorkloadSpec) -> u64 {
    match w {
        WorkloadSpec::Single { length, .. } => *length,
        WorkloadSpec::MultiprogramHomogeneous {
            copies,
            length_per_copy,
            ..
        } => length_per_copy.saturating_mul(*copies as u64),
        WorkloadSpec::Multiprogram {
            benchmarks,
            length_per_copy,
        } => length_per_copy.saturating_mul(benchmarks.len() as u64),
        WorkloadSpec::Multithreaded { total_length, .. } => *total_length,
    }
}

/// The paper's modeled window/dispatch regime. Outside this band the
/// interval model's assumptions (balanced dispatch, W/D-bounded interval
/// profiles) degrade; specs get a warning, not an error.
const WINDOW_PER_DISPATCH: (u64, u64) = (4, 256);

/// Digests the expanded points of `sweep` and statically checks them.
///
/// # Errors
///
/// Returns the underlying parse/expansion error when the sweep cannot be
/// expanded at all — that is `iss validate` territory; the lint pass
/// only runs on specs that validate.
pub fn analyze(sweep: &SweepSpec, mips: Option<&ModelMips>) -> Result<SpecReport, String> {
    let points = sweep.expand()?;
    let mut findings = Vec::new();

    // Duplicate design points via the canonical config digest.
    let mut by_digest: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for p in &points {
        by_digest
            .entry(p.digest()?)
            .or_default()
            .push(p.name.clone());
    }
    for (digest, names) in &by_digest {
        if names.len() > 1 {
            findings.push(SpecFinding {
                severity: Severity::Error,
                message: format!(
                    "duplicate design point (digest {digest}): {} expand to the same \
                     simulation — deduplicate the sweep axes or differentiate the variants",
                    names.join(", ")
                ),
            });
        }
    }

    // Dead axes: declared as a sweep but holding a single value.
    for (axis, len) in [
        ("models", sweep.models.len()),
        ("benchmarks", sweep.benchmarks.len()),
        ("cores", sweep.cores.len()),
        ("seeds", sweep.seeds.len()),
    ] {
        if len == 1 {
            findings.push(SpecFinding {
                severity: Severity::Warning,
                message: format!(
                    "sweep axis `{axis}` holds a single value — fold it into the template \
                     (a one-point axis reads like a sweep but is not one)"
                ),
            });
        }
    }

    // Machine sanity, deduplicated across points sharing a config.
    let mut machine_notes: BTreeMap<String, Severity> = BTreeMap::new();
    for p in &points {
        let config = p.resolved_config()?;
        let caches = [("l1i", &config.memory.l1i), ("l1d", &config.memory.l1d)];
        for (label, cache) in caches {
            if !cache.size_bytes.is_power_of_two() || !cache.ways.is_power_of_two() {
                machine_notes.insert(
                    format!(
                        "{label} geometry is not a power of two ({} bytes, {}-way) — \
                         set indexing will round down",
                        cache.size_bytes, cache.ways
                    ),
                    Severity::Warning,
                );
            }
        }
        if let Some(l2) = &config.memory.l2 {
            if !l2.size_bytes.is_power_of_two() || !l2.ways.is_power_of_two() {
                machine_notes.insert(
                    format!(
                        "l2 geometry is not a power of two ({} bytes, {}-way) — \
                         set indexing will round down",
                        l2.size_bytes, l2.ways
                    ),
                    Severity::Warning,
                );
            }
            if l2.size_bytes < config.memory.l1d.size_bytes {
                machine_notes.insert(
                    format!(
                        "L2 ({} bytes) is smaller than L1d ({} bytes) — the hierarchy \
                         is inverted and every L1 victim thrashes",
                        l2.size_bytes, config.memory.l1d.size_bytes
                    ),
                    Severity::Error,
                );
            }
        }
        let width = u64::from(config.interval_core.dispatch_width.max(1));
        let ratio = config.interval_core.window_size as u64 / width;
        if ratio < WINDOW_PER_DISPATCH.0 || ratio > WINDOW_PER_DISPATCH.1 {
            machine_notes.insert(
                format!(
                    "window/dispatch ratio {ratio} (window {} / width {}) is outside the \
                     modeled range [{}, {}] — interval-model accuracy is uncharacterized \
                     there",
                    config.interval_core.window_size,
                    config.interval_core.dispatch_width,
                    WINDOW_PER_DISPATCH.0,
                    WINDOW_PER_DISPATCH.1
                ),
                Severity::Warning,
            );
        }
    }
    for (message, severity) in machine_notes {
        findings.push(SpecFinding { severity, message });
    }
    findings.sort_by_key(|f| f.severity == Severity::Warning);

    // Cost estimate.
    let mut instructions: u64 = 0;
    let mut seconds = 0.0_f64;
    let mut have_seconds = mips.is_some();
    for p in &points {
        let insts = workload_instructions(&p.workload);
        instructions = instructions.saturating_add(insts);
        match mips.and_then(|m| m.mips_for(&model_rate_name(p.model))) {
            Some(rate) => seconds += insts as f64 / (rate * 1.0e6),
            None => have_seconds = false,
        }
    }

    Ok(SpecReport {
        name: sweep.name.clone(),
        points: points.len(),
        instructions,
        estimated_seconds: have_seconds.then_some(seconds),
        findings,
    })
}

/// The baseline table keys throughput by plain model names; parameterized
/// models (hybrid, sampled) fall back to the slowest baseline entry via
/// [`ModelMips::mips_for`] unless their exact string is present.
fn model_rate_name(model: CoreModel) -> String {
    model.name()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(text: &str) -> SweepSpec {
        SweepSpec::from_toml(text).unwrap()
    }

    const BASELINE: &str = r#"{"models": [
        {"model": "interval", "simulated_mips": 5.0},
        {"model": "detailed", "simulated_mips": 0.5}
    ]}"#;

    #[test]
    fn duplicate_design_points_are_errors() {
        // Two variants with identical machine/model/workload/seed collide.
        let text = r#"
            schema = "iss-scenario/v1"
            name = "dup"
            [workload]
            kind = "single"
            benchmark = "gcc"
            length = 1000
            [[scenario]]
            variant = "a"
            [[scenario]]
            variant = "b"
        "#;
        let report = analyze(&spec(text), None).unwrap();
        assert!(report.has_errors());
        assert!(
            report.findings[0]
                .message
                .contains("duplicate design point"),
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn clean_specs_report_no_findings_and_a_cost() {
        let text = r#"
            schema = "iss-scenario/v1"
            name = "ok"
            [workload]
            kind = "single"
            length = 10000
            [sweep]
            models = ["interval", "detailed"]
            benchmarks = ["gcc", "mcf"]
        "#;
        let mips = ModelMips::parse(BASELINE).unwrap();
        let report = analyze(&spec(text), Some(&mips)).unwrap();
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert_eq!(report.points, 4);
        assert_eq!(report.instructions, 40_000);
        // 2×10k at 5 MIPS + 2×10k at 0.5 MIPS.
        let expected = 20_000.0 / 5.0e6 + 20_000.0 / 0.5e6;
        assert!((report.estimated_seconds.unwrap() - expected).abs() < 1e-9);
    }

    #[test]
    fn single_value_axes_warn() {
        let text = r#"
            schema = "iss-scenario/v1"
            name = "dead-axis"
            [workload]
            kind = "single"
            benchmark = "gcc"
            length = 1000
            [sweep]
            models = ["interval"]
        "#;
        let report = analyze(&spec(text), None).unwrap();
        assert!(!report.has_errors());
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.message.contains("`models`")),
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn inverted_cache_hierarchy_is_an_error() {
        let text = r#"
            schema = "iss-scenario/v1"
            name = "tiny-l2"
            [machine]
            l2_size_kb = 16
            [workload]
            kind = "single"
            benchmark = "gcc"
            length = 1000
        "#;
        let report = analyze(&spec(text), None).unwrap();
        assert!(report.has_errors(), "{:?}", report.findings);
        assert!(
            report.findings[0].message.contains("smaller than L1d"),
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn extreme_window_dispatch_ratio_warns() {
        let text = r#"
            schema = "iss-scenario/v1"
            name = "wide"
            [machine]
            window_size = 2048
            [workload]
            kind = "single"
            benchmark = "gcc"
            length = 1000
        "#;
        let report = analyze(&spec(text), None).unwrap();
        assert!(!report.has_errors());
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.message.contains("window/dispatch")),
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn baseline_parsing_reads_the_perf_file_shape() {
        let mips = ModelMips::parse(BASELINE).unwrap();
        assert_eq!(mips.mips_for("interval"), Some(5.0));
        assert_eq!(mips.mips_for("detailed"), Some(0.5));
        // Unknown models fall back to the slowest entry.
        assert_eq!(mips.mips_for("hybrid-periodic-4@2000"), Some(0.5));
        assert!(ModelMips::parse("{}").is_err());
        // A truncated file is an error, never a partial read.
        let cut = &BASELINE[..BASELINE.find("detailed").unwrap()];
        assert!(ModelMips::parse(cut).is_err());
        // The checked-in perf baseline parses.
        let real = include_str!("../../../ci/BENCH_baseline.json");
        let mips = ModelMips::parse(real).unwrap();
        assert!(mips.mips_for("interval").is_some_and(|m| m > 0.0));
    }
}

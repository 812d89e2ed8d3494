//! The benchmark's metric catalogue and its output formats.

use std::fmt::Write as _;

/// End-to-end metrics of the untraced run: name, unit, meaning.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    (
        "setup_s",
        "s",
        "set-up before the first timed call, repeated through the run (median)",
    ),
    (
        "sim_mips",
        "MIPS",
        "simulated instructions / wall seconds of a timed pass (median)",
    ),
    (
        "peak_rss_mb",
        "MiB",
        "process peak resident set (VmHWM) of set-up and the timed phase",
    ),
    (
        "hit_us_p90",
        "us",
        "90th-percentile per-point latency to answer from the store",
    ),
];

/// Per-layer metrics of the traced run: name, unit, meaning. "ns/inst" is
/// host nanoseconds per simulated instruction. The last four are printed by
/// the untraced run too: the median store latency and the accuracy metrics
/// against the detailed model, which are deterministic for a seed.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    (
        "trace.gen_ns",
        "ns/inst",
        "draining SyntheticStream::next_inst",
    ),
    (
        "trace.decode_ns",
        "ns/inst",
        "fast_forward_batched, empty sink, minus trace.gen_ns",
    ),
    ("trace.build_ms", "ms", "WorkloadSpec::build per point"),
    (
        "branch.update_ns",
        "ns/inst",
        "inside BranchUnit::update_batch",
    ),
    (
        "branch.mispredict_pki",
        "1/kinst",
        "warming-pass mispredictions",
    ),
    (
        "mem.warm_ns",
        "ns/inst",
        "inside MemoryHierarchy::warm_access_batch",
    ),
    (
        "mem.l1d_mpki",
        "1/kinst",
        "L1 D-cache misses of the timed points",
    ),
    ("mem.l2_mpki", "1/kinst", "L2 misses of the timed points"),
    (
        "mem.dtlb_mpki",
        "1/kinst",
        "D-TLB misses of the timed points",
    ),
    (
        "mem.dram_pki",
        "1/kinst",
        "DRAM transactions of the timed points",
    ),
    (
        "mem.dram_queue_cpki",
        "cycles/kinst",
        "DRAM queueing cycles of the timed points",
    ),
    (
        "mem.coherence_pki",
        "1/kinst",
        "coherence misses of the timed points",
    ),
    (
        "interval.ns",
        "ns/inst",
        "IntervalSimulator::run, 1 core, pre-generated streams",
    ),
    (
        "interval.mc_ns",
        "ns/inst",
        "IntervalSimulator::run, 4 cores, pre-generated streams",
    ),
    (
        "interval.cpi",
        "cycles/inst",
        "CPI of the 1-core interval runs",
    ),
    (
        "detailed.ns",
        "ns/inst",
        "DetailedSimulator::run, 1 core, pre-generated streams",
    ),
    (
        "detailed.mc_ns",
        "ns/inst",
        "DetailedSimulator::run, 4 cores, pre-generated streams",
    ),
    (
        "oneipc.ns",
        "ns/inst",
        "OneIpcSimulator, 1 core, pre-generated streams",
    ),
    (
        "model.wrap_ns",
        "ns/inst",
        "iss_sim::run minus interval.ns and trace.gen_ns",
    ),
    ("sampling.ns", "ns/inst", "the sampled runner, whole run"),
    (
        "sampling.timed_share",
        "ratio",
        "(sampling.ns - warming pass) / sampling.ns",
    ),
    (
        "sampling.measured_frac",
        "ratio",
        "measured_instructions / instructions",
    ),
    (
        "batch.busy_frac",
        "ratio",
        "sum of point host_seconds / (wall x workers)",
    ),
    (
        "batch.idle_s",
        "s",
        "wall x workers - sum of point host_seconds",
    ),
    ("codec.encode_us", "us", "render_record_line per record"),
    ("codec.decode_us", "us", "parse_record_line per record"),
    ("store.key_us", "us", "ResultStore::key_for per call"),
    ("store.put_us", "us", "ResultStore::put per call"),
    ("store.get_us", "us", "ResultStore::get per call"),
    (
        "store.hit_ratio",
        "ratio",
        "store hits / lookups on the replay pass",
    ),
    (
        "tracing.overhead_pct",
        "%",
        "traced vs untraced sim_mips of the timed passes",
    ),
    (
        "tracing.warm_overhead_pct",
        "%",
        "warming pass with vs without batch spans",
    ),
    (
        "tracing.unattributed_frac",
        "ratio",
        "untraced pass host time the layer rows leave unexplained",
    ),
    (
        "hit_us_p50",
        "us",
        "median per-point latency to answer from the store",
    ),
    (
        "cpi_err_mean_pct",
        "%",
        "mean |CPI - CPI_detailed| / CPI_detailed",
    ),
    (
        "cpi_err_max_pct",
        "%",
        "worst |CPI - CPI_detailed| / CPI_detailed",
    ),
    (
        "sampled_ci95_pct",
        "%",
        "mean 95% CI half-width / estimated CPI",
    ),
];

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Whether the workload exercises what the metric measures; a metric
    /// that does not apply reports 0.
    pub applies: bool,
}

impl Metric {
    /// A measured metric.
    #[must_use]
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric {
            name,
            value,
            unit,
            applies: true,
        }
    }

    /// A metric the workload does not exercise.
    #[must_use]
    pub fn not_applicable(name: &'static str, unit: &'static str) -> Self {
        Metric {
            name,
            value: 0.0,
            unit,
            applies: false,
        }
    }
}

/// The metrics of one run, in report order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricSet(pub Vec<Metric>);

impl MetricSet {
    /// Appends a metric.
    pub fn push(&mut self, m: Metric) {
        self.0.push(m);
    }

    /// The metrics as a JSON object `{"name": {"value": v, "unit": "u"}}`,
    /// each value with all its digits. `prefix` is prepended to every name.
    #[must_use]
    pub fn to_json(&self, prefix: &str) -> Vec<String> {
        self.0
            .iter()
            .map(|m| {
                format!(
                    "\"{prefix}{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect()
    }
}

/// A finite JSON number (non-finite values print as 0; the caller has
/// already failed the run for them).
#[must_use]
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        let mut s = String::new();
        let _ = write!(s, "{v:?}");
        s
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]+`, starting
    /// with a letter or digit, at most 64 characters.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|&(n, _, _)| n)
            .collect();
        for n in &names {
            assert!(valid_name(n), "invalid metric name `{n}`");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "metric names must be unique");
        assert!(!valid_name("a b"));
        assert!(!valid_name("_x"));
        assert!(!valid_name(""));
    }

    #[test]
    fn json_numbers_keep_every_digit() {
        assert_eq!(json_number(1.234_567_890_123), "1.234567890123");
        assert_eq!(json_number(2.0), "2.0");
        assert_eq!(json_number(f64::NAN), "0");
        let set = MetricSet(vec![Metric::new("x", 0.5, "s")]);
        assert_eq!(
            set.to_json(""),
            vec!["\"x\": {\"value\": 0.5, \"unit\": \"s\"}"]
        );
    }
}

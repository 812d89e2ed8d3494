//! One benchmark run of one workload: set-up, the timed phase, the
//! detailed-model accuracy reference, the result-store replay and — in a
//! traced run — the per-layer passes. Every output is checked; a point
//! that fails a check counts toward `failed`.

use std::path::{Path, PathBuf};

use iss_sim::batch::try_run_batch_with_threads;
use iss_sim::runner::{CoreModel, SimSummary};
use iss_sim::scenario::{fnv1a_hex, parse_record_line, render_record_line, Record};
use iss_sim::store::workload_instructions;
use iss_sim::ResultStore;
use iss_trace::HostTimer;

use crate::layers::{self, LayerInput};
use crate::metrics::{Metric, MetricSet};
use crate::points::{reference_points, timed_points, Point, Scale, Workload};
use crate::spans::{self_time_by_name, Tracer};
use crate::stats::{median, peak_rss_mib, tail_percentile};

/// What one run is asked to do.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// The workload seed every input derives from.
    pub seed: u64,
    /// Seconds the timed phase measures for (at least one pass runs).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Run lengths.
    pub scale: Scale,
    /// Directory for the result store and the span file; created, and the
    /// store removed again, by the run.
    pub out_dir: PathBuf,
}

/// Output checks: points attempted and the ones that failed, with why.
#[derive(Debug, Default)]
pub struct Checks {
    /// Point executions and lookups checked.
    pub attempted: u64,
    /// Checked items that failed.
    pub failed: u64,
    /// One message per failure (the first few are printed).
    pub messages: Vec<String>,
}

impl Checks {
    /// Counts one checked item; `err` is its failure, if any.
    pub fn check(&mut self, err: Option<String>) {
        self.attempted += 1;
        if let Some(e) = err {
            self.failed += 1;
            self.messages.push(e);
        }
    }

    /// Records a failure of an item already counted as attempted.
    pub fn fail(&mut self, err: String) {
        self.failed += 1;
        self.messages.push(err);
    }
}

/// The result of one run.
#[derive(Debug)]
pub struct Outcome {
    /// The workload run.
    pub workload: Workload,
    /// Output checks.
    pub checks: Checks,
    /// The metrics of the run (end-to-end, or per-layer when traced).
    pub metrics: MetricSet,
    /// Metrics reported but not bounded: `hit_us_p50` and the accuracy
    /// metrics (deterministic for a seed). The untraced report prints them
    /// beside the end-to-end metrics; the traced run reports them among the
    /// per-layer metrics.
    pub extra: MetricSet,
    /// Deterministic counts and other report lines.
    pub notes: Vec<String>,
}

/// Everything built before the first timed call.
struct Setup {
    points: Vec<Point>,
    references: Vec<Point>,
    store: ResultStore,
}

fn set_up(cfg: &RunConfig, store_dir: &Path, tracer: &mut Tracer) -> Result<Setup, String> {
    let points = timed_points(cfg.workload, &cfg.scale, cfg.seed)?;
    let references = reference_points(cfg.workload, &points)?;
    for (i, p) in points.iter().chain(&references).enumerate() {
        tracer.span("trace.build", i as u32, || {
            p.spec.workload.build(p.spec.seed)
        })?;
    }
    let store = ResultStore::open(store_dir, None)?;
    Ok(Setup {
        points,
        references,
        store,
    })
}

/// Sets up from scratch in an emptied `store_dir`, appending the seconds
/// it took to `times`.
fn timed_setup(
    cfg: &RunConfig,
    store_dir: &Path,
    tracer: &mut Tracer,
    times: &mut Vec<f64>,
) -> Result<Setup, String> {
    let _ = std::fs::remove_dir_all(store_dir);
    let root = tracer.enter("setup", u32::MAX);
    let timer = HostTimer::start();
    let setup = set_up(cfg, store_dir, tracer)?;
    times.push(timer.elapsed_seconds());
    tracer.exit(root);
    Ok(setup)
}

/// One timed pass over the points.
pub(crate) struct Pass {
    /// Per point: the summary, or why the point failed.
    pub summaries: Vec<Result<SimSummary, String>>,
    /// Per point: the record (`None` for failed points).
    pub records: Vec<Option<Record>>,
    /// Per point: the rendered record line (`design-sweep` only).
    pub lines: Vec<String>,
    /// Wall seconds of the pass.
    pub wall: f64,
    /// Simulated instructions of the successful points.
    pub instructions: u64,
}

fn run_points(points: &[Point], workers: usize) -> Vec<Result<SimSummary, String>> {
    let jobs: Vec<_> = points.iter().map(|p| p.job.clone()).collect();
    try_run_batch_with_threads(&jobs, workers)
        .into_iter()
        .zip(points)
        .map(|(r, p)| {
            let summary = r.map_err(|f| format!("{}: {}", p.spec.name, f.message))?;
            let want = workload_instructions(&p.spec.workload);
            if summary.total_instructions == want {
                Ok(summary)
            } else {
                Err(format!(
                    "{}: simulated {} instructions, expected {want}",
                    p.spec.name, summary.total_instructions
                ))
            }
        })
        .collect()
}

fn to_records(
    sweep: &str,
    points: &[Point],
    summaries: &[Result<SimSummary, String>],
) -> Vec<Option<Record>> {
    points
        .iter()
        .zip(summaries)
        .map(|(p, s)| {
            let s = s.as_ref().ok()?;
            p.spec.to_record(sweep, s.clone()).ok()
        })
        .collect()
}

/// Renders each record, then puts it into the store under its point's key.
fn store_records(
    points: &[Point],
    records: &[Option<Record>],
    store: &mut ResultStore,
    tracer: &mut Tracer,
) -> Result<Vec<String>, String> {
    let mut lines = Vec::with_capacity(points.len());
    for (i, (p, r)) in points.iter().zip(records).enumerate() {
        let Some(r) = r else {
            lines.push(String::new());
            continue;
        };
        let point = i as u32;
        lines.push(tracer.span("codec.encode", point, || render_record_line(r)));
        let key = tracer.span("store.key", point, || store.key_for(&p.spec))?;
        tracer.span("store.put", point, || store.put(&key, r))?;
    }
    Ok(lines)
}

fn timed_pass(
    cfg: &RunConfig,
    points: &[Point],
    store: &mut ResultStore,
    tracer: &mut Tracer,
) -> Result<Pass, String> {
    let writes = cfg.workload == Workload::DesignSweep;
    if writes {
        store.clear()?;
    }
    let root = tracer.enter("pass", u32::MAX);
    let timer = HostTimer::start();
    let summaries = tracer.span("batch.run", u32::MAX, || {
        run_points(points, cfg.workload.workers())
    });
    let records = to_records(cfg.workload.name(), points, &summaries);
    let lines = if writes {
        store_records(points, &records, store, tracer)?
    } else {
        Vec::new()
    };
    let wall = timer.elapsed_seconds();
    tracer.exit(root);
    let instructions = summaries
        .iter()
        .filter_map(|s| s.as_ref().ok())
        .map(|s| s.total_instructions)
        .sum();
    Ok(Pass {
        summaries,
        records,
        lines,
        wall,
        instructions,
    })
}

/// Digest over the canonical form of every record (failed points hash as
/// empty).
fn records_digest(records: &[Option<Record>]) -> String {
    let text: Vec<String> = records
        .iter()
        .map(|r| r.as_ref().map_or(String::new(), Record::canonical))
        .collect();
    fnv1a_hex(&text.join("\n"))
}

fn cpi_errors(
    workload: Workload,
    points: &[Point],
    records: &[Option<Record>],
    references: &[Option<Record>],
) -> Vec<f64> {
    let err = |fast: &Record, reference: &Record| {
        (fast.cpi() - reference.cpi()).abs() / reference.cpi() * 100.0
    };
    match workload {
        Workload::IntervalDistinct | Workload::SampledWarming => records
            .iter()
            .zip(references)
            .filter_map(|(r, d)| Some(err(r.as_ref()?, d.as_ref()?)))
            .collect(),
        Workload::DesignSweep => {
            let find = |group: &str, model: CoreModel| {
                points
                    .iter()
                    .zip(records)
                    .find(|(p, _)| {
                        p.spec.group == group && p.spec.model == model && p.on_baseline_machine()
                    })
                    .and_then(|(_, r)| r.as_ref())
            };
            let mut groups: Vec<&str> = points.iter().map(|p| p.spec.group.as_str()).collect();
            groups.dedup();
            groups
                .into_iter()
                .filter_map(|g| {
                    Some(err(
                        find(g, CoreModel::Interval)?,
                        find(g, CoreModel::Detailed)?,
                    ))
                })
                .collect()
        }
    }
}

/// `cpi_err_mean_pct`, `cpi_err_max_pct` and `sampled_ci95_pct` (mean 95%
/// CI half-width ÷ estimated CPI; not applicable without sampled points).
fn accuracy_metrics(cpi_err: &[f64], records: &[Option<Record>]) -> MetricSet {
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let ci95: Vec<f64> = records
        .iter()
        .flatten()
        .filter_map(|r| r.sampling.map(|e| e.ci95_half_width / e.cpi * 100.0))
        .collect();
    let mut m = MetricSet::default();
    m.push(Metric::new("cpi_err_mean_pct", mean(cpi_err), "%"));
    m.push(Metric::new(
        "cpi_err_max_pct",
        cpi_err.iter().copied().fold(0.0, f64::max),
        "%",
    ));
    m.push(if ci95.is_empty() {
        Metric::not_applicable("sampled_ci95_pct", "%")
    } else {
        Metric::new("sampled_ci95_pct", mean(&ci95), "%")
    });
    m
}

/// Answers every point from the store (at least `lookups` lookups in
/// whole rounds), timing each `key_for` + `get`, and marks the points whose
/// stored record differs from the cold pass's line.
fn replay(
    points: &[Point],
    lines: &[String],
    store: &mut ResultStore,
    tracer: &mut Tracer,
    lookups: usize,
    hit_us: &mut Vec<f64>,
    bad: &mut [bool],
) -> Result<(), String> {
    let root = tracer.enter("replay", u32::MAX);
    for _ in 0..lookups.div_ceil(points.len().max(1)) {
        for (i, p) in points.iter().enumerate() {
            if lines[i].is_empty() {
                continue;
            }
            let point = i as u32;
            let timer = HostTimer::start();
            let key = tracer.span("store.key", point, || store.key_for(&p.spec))?;
            let got = tracer.span("store.get", point, || store.get(&key));
            hit_us.push(timer.elapsed_seconds() * 1e6);
            if got.as_ref().map(render_record_line).as_deref() != Some(lines[i].as_str()) {
                bad[i] = true;
            }
        }
    }
    tracer.exit(root);
    Ok(())
}

/// The `q`-quantile of the hit latencies as metric `name`; too few samples
/// beyond it fail the run.
fn hit_metric(name: &'static str, q: f64, samples: &[f64], checks: &mut Checks) -> Metric {
    match tail_percentile(samples, q) {
        Some(v) => Metric::new(name, v, "us"),
        None => {
            checks.fail(format!("{name}: fewer than ten samples beyond it"));
            Metric::not_applicable(name, "us")
        }
    }
}

/// Each model's share of the host seconds of `pass`, largest first.
fn host_shares(points: &[Point], pass: &Pass) -> String {
    let ok = || {
        pass.summaries
            .iter()
            .zip(points)
            .filter_map(|(s, p)| Some((s.as_ref().ok()?, p)))
    };
    let total: f64 = ok().map(|(s, _)| s.host_seconds).sum();
    let mut shares: Vec<(String, f64)> = Vec::new();
    for (s, p) in ok() {
        let seconds = s.host_seconds;
        let key = format!("{} {}c", p.spec.variant, p.cores());
        match shares.iter_mut().find(|(k, _)| *k == key) {
            Some((_, sum)) => *sum += seconds,
            None => shares.push((key, seconds)),
        }
    }
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    let shown: Vec<String> = shares
        .iter()
        .map(|(k, s)| format!("{k} {:.1}%", s / total * 100.0))
        .collect();
    shown.join(", ")
}

/// Runs the workload once, as `cfg` says.
///
/// # Errors
///
/// Returns set-up and store errors (the benchmark cannot run at all).
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let name = cfg.workload.name();
    let mut tracer = Tracer::new(cfg.trace);
    let mut checks = Checks::default();
    let mut notes = Vec::new();
    let store_dir = cfg
        .out_dir
        .join(format!("store-{name}-{}", std::process::id()));

    // Set-up. It is timed again after the timed phase (into a scratch
    // store), so `setup_s` is a median, like the other timings.
    let mut setup_times = Vec::new();
    let Setup {
        points,
        references,
        mut store,
    } = timed_setup(cfg, &store_dir, &mut tracer, &mut setup_times)?;
    let spare_dir = cfg
        .out_dir
        .join(format!("setup-{name}-{}", std::process::id()));

    // Timed phase. A traced run alternates untraced and traced passes.
    // After every pass the store answers each point (the replay), so the
    // hit latencies sample the whole run, not one moment of it.
    let clock = HostTimer::start();
    let min_passes = if cfg.trace { 2 } else { 1 };
    // Per untraced pass: wall seconds, simulated instructions and the sum
    // of its points' host seconds. Only the first pass is kept whole (every
    // pass's records are checked equal to it), so the resident set does
    // not grow with the number of passes.
    let mut untraced: Vec<(f64, u64, f64)> = Vec::new();
    let mut first: Option<Pass> = None;
    let mut traced_mips = Vec::new();
    let mut first_canonical: Vec<Option<String>> = Vec::new();
    let mut lines: Vec<String> = Vec::new();
    let mut hit_us = Vec::new();
    let mut replay_bad = vec![false; points.len()];
    let mut pass_no = 0usize;
    // A traced run ends on an untraced pass.
    while pass_no < min_passes
        || clock.elapsed_seconds() < cfg.seconds
        || (cfg.trace && pass_no.is_multiple_of(2))
    {
        let spanned = cfg.trace && !pass_no.is_multiple_of(2);
        let mut quiet = Tracer::new(false);
        let pass = timed_pass(
            cfg,
            &points,
            &mut store,
            if spanned { &mut tracer } else { &mut quiet },
        )?;
        let canonical: Vec<Option<String>> = pass
            .records
            .iter()
            .map(|r| r.as_ref().map(Record::canonical))
            .collect();
        for (i, (p, s)) in points.iter().zip(&pass.summaries).enumerate() {
            let err = match s {
                Err(e) => Some(e.clone()),
                Ok(_) if pass_no > 0 && canonical[i] != first_canonical[i] => Some(format!(
                    "{}: pass {pass_no} record differs from pass 0",
                    p.spec.name
                )),
                Ok(_) => None,
            };
            checks.check(err);
        }
        if pass_no == 0 {
            first_canonical = canonical;
        }
        // The cold pass wrote design-sweep's records; the other workloads
        // store their first pass's records once.
        if !pass.lines.is_empty() {
            lines.clone_from(&pass.lines);
        } else if lines.is_empty() {
            lines = store_records(&points, &pass.records, &mut store, &mut tracer)?;
        }
        let mut burst = Vec::new();
        replay(
            &points,
            &lines,
            &mut store,
            if spanned { &mut tracer } else { &mut quiet },
            cfg.scale.replay_lookups,
            &mut burst,
            &mut replay_bad,
        )?;
        if !spanned {
            hit_us.extend(burst);
        }
        let mips = pass.instructions as f64 / pass.wall / 1e6;
        if spanned {
            traced_mips.push(mips);
        } else {
            let busy = pass
                .summaries
                .iter()
                .filter_map(|s| s.as_ref().ok())
                .map(|s| s.host_seconds)
                .sum();
            untraced.push((pass.wall, pass.instructions, busy));
            first.get_or_insert(pass);
        }
        pass_no += 1;
    }
    // The peak resident set of set-up and the timed phase, read before the
    // repeated set-ups, the reference runs and the layer passes.
    let peak_rss = peak_rss_mib();
    while setup_times.len() < cfg.scale.setup_reps {
        timed_setup(cfg, &spare_dir, &mut tracer, &mut setup_times)?;
    }
    let _ = std::fs::remove_dir_all(&spare_dir);
    let first = first.as_ref().ok_or("no untraced pass ran")?;
    let pass_mips: Vec<f64> = untraced
        .iter()
        .map(|&(wall, instructions, _)| instructions as f64 / wall / 1e6)
        .collect();
    // `sim_mips` is the median wall-clock speed of a pass, so it takes in
    // every layer by the host time it costs, batch scheduling, idle workers
    // and, on design-sweep, rendering and storing the records. A pass runs
    // for a second or more and the run makes many, so the median stands
    // against host contention that comes and goes over seconds.
    let sim_mips = median(&pass_mips).unwrap_or(0.0);
    let pass_walls: Vec<f64> = untraced.iter().map(|p| p.0).collect();
    let digest = records_digest(&first.records);
    for (i, line) in lines.iter().enumerate().filter(|(_, l)| !l.is_empty()) {
        let parsed = tracer.span("codec.decode", i as u32, || parse_record_line(line));
        checks.check(match parsed {
            Ok(r) if render_record_line(&r) == *line => None,
            Ok(_) => Some(format!(
                "{}: record changed in a codec round trip",
                points[i].spec.name
            )),
            Err(e) => Some(format!(
                "{}: record line does not parse: {e}",
                points[i].spec.name
            )),
        });
    }
    for (i, bad) in replay_bad
        .iter()
        .enumerate()
        .filter(|(i, _)| !lines[*i].is_empty())
    {
        checks.check(bad.then(|| {
            format!(
                "{}: replayed record differs from the cold pass",
                points[i].spec.name
            )
        }));
    }

    // Accuracy reference: the detailed model on the same streams.
    let reference_summaries = tracer.span("reference", u32::MAX, || {
        run_points(&references, Workload::DesignSweep.workers())
    });
    for s in &reference_summaries {
        checks.check(s.as_ref().err().cloned());
    }
    let reference_records = to_records(
        &format!("{name}-reference"),
        &references,
        &reference_summaries,
    );
    let cpi_err = cpi_errors(cfg.workload, &points, &first.records, &reference_records);

    let lookups = store.stats.hits + store.stats.misses;
    let hit_ratio = store.stats.hits as f64 / lookups.max(1) as f64;

    // Deterministic counts, reported beside the timings.
    let ok: Vec<&SimSummary> = first
        .summaries
        .iter()
        .filter_map(|s| s.as_ref().ok())
        .collect();
    let mem = layers::memory_counts(&ok);
    notes.push(format!(
        "counts: points={} instructions/pass={} cycles/pass={} digest={digest}",
        points.len(),
        first.instructions,
        ok.iter().map(|s| s.cycles).sum::<u64>()
    ));
    notes.push(format!(
        "counts: l1d_mpki={:.4} l2_mpki={:.4} dtlb_mpki={:.4} dram_pki={:.4} \
         dram_queue_cpki={:.4} coherence_pki={:.4}",
        mem.l1d_mpki,
        mem.l2_mpki,
        mem.dtlb_mpki,
        mem.dram_pki,
        mem.dram_queue_cpki,
        mem.coherence_pki
    ));
    // The bounded hit latency is p90; p50 sits between the quiet-host and
    // busy-host modes of the latency and swings with their mix, so it is
    // reported beside the accuracy metrics.
    let hit_p90 = hit_metric("hit_us_p90", 0.9, &hit_us, &mut checks);
    let mut extra = MetricSet::default();
    extra.push(hit_metric("hit_us_p50", 0.5, &hit_us, &mut checks));
    extra.0.extend(accuracy_metrics(&cpi_err, &first.records).0);
    notes.push(format!(
        "counts: cpi errors vs detailed over {} pairs: {}",
        cpi_err.len(),
        cpi_err
            .iter()
            .map(|e| format!("{e:.2}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    notes.push(format!(
        "timing: {} untraced passes, MIPS per pass min={:.3} median={:.3} max={:.3}; \
         {} hit samples; store hit ratio {hit_ratio:.3}",
        pass_mips.len(),
        pass_mips.iter().copied().fold(f64::INFINITY, f64::min),
        sim_mips,
        pass_mips.iter().copied().fold(0.0, f64::max),
        hit_us.len()
    ));
    notes.push(format!(
        "timing: share of the first pass's host seconds by model: {}",
        host_shares(&points, first)
    ));

    let mut metrics = MetricSet::default();
    if cfg.trace {
        let input = LayerInput {
            workload: cfg.workload,
            points: &points,
            summaries: &first.summaries,
            references: &references,
            reference_summaries: &reference_summaries,
        };
        let root = tracer.enter("layers", u32::MAX);
        let found = layers::measure(&input, &mut tracer)?;
        tracer.exit(root);
        checks.attempted += found.checked;
        for e in found.errors {
            checks.fail(e);
        }
        let by_name = self_time_by_name(tracer.spans());
        let untraced_mips = sim_mips;
        let traced = median(&traced_mips).unwrap_or(0.0);
        let busy: Vec<f64> = untraced.iter().map(|p| p.2).collect();
        let workers = cfg.workload.workers() as f64;
        let busy_frac: Vec<f64> = busy
            .iter()
            .zip(&pass_walls)
            .map(|(h, w)| h / (w * workers))
            .collect();
        let idle: Vec<f64> = busy
            .iter()
            .zip(&pass_walls)
            .map(|(h, w)| w * workers - h)
            .collect();
        metrics = layers::layer_metrics(&layers::LayerSummary {
            input: &input,
            found: &found.numbers,
            spans: &by_name,
            memory: mem,
            hit_ratio,
            untraced_mips,
            traced_mips: traced,
            pass_wall: median(&pass_walls).unwrap_or(0.0),
            busy_frac: median(&busy_frac).unwrap_or(0.0),
            idle_s: median(&idle).unwrap_or(0.0),
            extra: &extra,
        });
        notes.push(format!(
            "tracing: {} spans; traced {traced:.3} vs untraced {untraced_mips:.3} MIPS",
            tracer.spans().len()
        ));
        std::fs::create_dir_all(&cfg.out_dir)
            .map_err(|e| format!("cannot create `{}`: {e}", cfg.out_dir.display()))?;
        let path = cfg.out_dir.join(format!("spans-{name}.tsv"));
        tracer.write_tsv(&path)?;
        notes.push(format!("tracing: spans written to {}", path.display()));
    } else {
        metrics.push(Metric::new(
            "setup_s",
            median(&setup_times).unwrap_or(0.0),
            "s",
        ));
        metrics.push(Metric::new("sim_mips", sim_mips, "MIPS"));
        metrics.push(Metric::new("peak_rss_mb", peak_rss.unwrap_or(0.0), "MiB"));
        metrics.push(hit_p90);
    }
    for m in metrics
        .0
        .iter()
        .chain(&extra.0)
        .filter(|m| !m.value.is_finite())
    {
        checks.fail(format!("{}: not a finite number ({})", m.name, m.value));
    }
    let failed_frac = checks.failed as f64 / checks.attempted.max(1) as f64;
    notes.push(format!(
        "checks: attempted={} failed={} failed_frac={failed_frac:.4}",
        checks.attempted, checks.failed
    ));
    drop(store);
    let _ = std::fs::remove_dir_all(&store_dir);
    Ok(Outcome {
        workload: cfg.workload,
        checks,
        metrics,
        extra,
        notes,
    })
}

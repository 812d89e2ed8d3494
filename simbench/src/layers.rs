//! The traced run's per-layer passes.
//!
//! Each pass calls one crate's public functions from this file, inside a
//! span, over the same streams the timed phase simulated:
//!
//! * `iss-trace`: draining `SyntheticStream::next_inst` (generator), and
//!   `fast_forward_batched` with an empty sink (generator + batch decode);
//! * `iss-branch` / `iss-mem`: `fast_forward_batched` feeding
//!   `BranchUnit::update_batch` and `MemoryHierarchy::warm_access_batch`,
//!   one span per 64-instruction batch call;
//! * `iss-interval` / `iss-detailed`: `IntervalSimulator::run`,
//!   `DetailedSimulator::run` and `OneIpcSimulator::run_with_limit` fed
//!   pre-generated streams ([`VecStream`]), so the generator is excluded;
//! * `iss-sim`: `run` (the runner and its stream wrapping) and the sampled
//!   runner.
//!
//! The direct simulations must reproduce the timed phase's cycles and
//! memory statistics exactly; a mismatch is a failed check.

use std::collections::BTreeMap;
use std::sync::Arc;

use iss_branch::BranchUnit;
use iss_detailed::{DetailedSimResult, DetailedSimulator, OneIpcSimulator};
use iss_interval::{IntervalSimResult, IntervalSimulator};
use iss_mem::{MemoryHierarchy, MemoryStats};
use iss_sim::runner::{CoreModel, SimSummary};
use iss_sim::SystemConfig;
use iss_trace::{
    fast_forward_batched, CheckpointStream, CoreResume, DynInst, InstBatch, InstructionStream,
    SyncController,
};

use crate::metrics::{Metric, MetricSet, PER_LAYER};
use crate::points::{Point, Workload};
use crate::spans::Tracer;

/// Batch size and fetch-line grain of functional warming — the values the
/// sampled runner uses.
const WARM_BATCH: usize = 64;
const IFETCH_LINE_SHIFT: u32 = 6;

/// A pre-generated instruction stream.
#[derive(Debug, Clone)]
pub struct VecStream {
    insts: Arc<Vec<DynInst>>,
    pos: usize,
}

impl VecStream {
    /// A stream replaying `insts` from the start.
    #[must_use]
    pub fn new(insts: Arc<Vec<DynInst>>) -> Self {
        VecStream { insts, pos: 0 }
    }
}

impl InstructionStream for VecStream {
    fn next_inst(&mut self) -> Option<DynInst> {
        let inst = self.insts.get(self.pos).copied();
        self.pos += 1;
        inst
    }

    fn remaining_hint(&self) -> Option<u64> {
        Some(self.insts.len().saturating_sub(self.pos) as u64)
    }
}

/// What the traced run hands the layer passes.
pub struct LayerInput<'a> {
    /// The workload.
    pub workload: Workload,
    /// The timed points.
    pub points: &'a [Point],
    /// Their summaries from the first untraced pass.
    pub summaries: &'a [Result<SimSummary, String>],
    /// The accuracy-reference points.
    pub references: &'a [Point],
    /// Their summaries.
    pub reference_summaries: &'a [Result<SimSummary, String>],
}

/// Instructions each spanned layer processed, plus deterministic results.
#[derive(Debug, Default)]
pub struct LayerNumbers {
    /// Instructions per span name.
    pub work: BTreeMap<&'static str, u64>,
    /// Wall seconds of the warming pass without spans.
    pub warm_unspanned_s: f64,
    /// Wall seconds of the same pass with batch spans.
    pub warm_spanned_s: f64,
    /// Branch mispredictions of the warming passes.
    pub branch_mispredicts: u64,
    /// Cycles of the interval runs on pre-generated 1-core streams.
    pub interval_cycles: u64,
    /// Instructions measured by the sampled runs' units.
    pub sampled_measured: u64,
    /// Wall seconds of the warming pass on the sampled streams.
    pub sampled_warm_s: f64,
}

impl LayerNumbers {
    fn add(&mut self, name: &'static str, instructions: u64) {
        *self.work.entry(name).or_default() += instructions;
    }
}

/// The passes' numbers, checks made and failures found.
pub struct Found {
    /// Numbers for the metrics.
    pub numbers: LayerNumbers,
    /// Checks that passed or failed (failures are in `errors`).
    pub checked: u64,
    /// One message per failed check.
    pub errors: Vec<String>,
}

/// One stream set (the streams of one workload spec and seed) and the
/// points that simulate it, each with its summary.
struct StreamSet<'a> {
    point: &'a Point,
    runs: Vec<(&'a Point, &'a SimSummary)>,
}

fn stream_sets<'a>(input: &'a LayerInput<'a>) -> Vec<StreamSet<'a>> {
    let mut sets: Vec<StreamSet<'a>> = Vec::new();
    let all = input
        .points
        .iter()
        .zip(input.summaries)
        .chain(input.references.iter().zip(input.reference_summaries));
    for (p, s) in all {
        let Ok(s) = s else { continue };
        let same = |q: &Point| q.spec.workload == p.spec.workload && q.spec.seed == p.spec.seed;
        match sets.iter_mut().find(|set| same(set.point)) {
            Some(set) => set.runs.push((p, s)),
            None => sets.push(StreamSet {
                point: p,
                runs: vec![(p, s)],
            }),
        }
    }
    sets
}

fn build_parts(p: &Point) -> Result<(Vec<iss_trace::SyntheticStream>, SyncController), String> {
    Ok(p.spec.workload.build(p.spec.seed)?.into_parts())
}

/// Drains every stream through `next_inst` inside one span per stream.
fn generator_pass(
    p: &Point,
    tracer: &mut Tracer,
    id: u32,
    n: &mut LayerNumbers,
) -> Result<(), String> {
    let (streams, _) = build_parts(p)?;
    for mut s in streams {
        let count = tracer.span("trace.gen", id, || {
            let mut count = 0u64;
            while let Some(inst) = s.next_inst() {
                std::hint::black_box(&inst);
                count += 1;
            }
            count
        });
        n.add("trace.gen", count);
    }
    Ok(())
}

/// Runs `fast_forward_batched` over a fresh build of the point's streams
/// until they are exhausted, handing every batch to `sink`.
fn fast_forward_all(p: &Point, sink: &mut dyn FnMut(usize, &InstBatch)) -> Result<u64, String> {
    let (raw, mut sync) = build_parts(p)?;
    let mut streams: Vec<CheckpointStream> = raw.into_iter().map(CheckpointStream::fresh).collect();
    let mut per_core = vec![
        CoreResume {
            time: 0,
            instructions: 0,
            done: false,
        };
        streams.len()
    ];
    let mut batch = InstBatch::with_capacity(WARM_BATCH);
    let mut total = 0;
    loop {
        let consumed = fast_forward_batched(
            &mut streams,
            &mut sync,
            &mut per_core,
            u64::MAX,
            &mut batch,
            sink,
        );
        total += consumed;
        if consumed == 0 {
            return Ok(total);
        }
    }
}

/// Functional warming of the point's streams: every batch warms the
/// memory hierarchy and the branch unit, each call in its own span when
/// `spans` is set. Returns wall seconds.
fn warming_pass(
    p: &Point,
    tracer: &mut Tracer,
    spans: bool,
    id: u32,
    n: &mut LayerNumbers,
) -> Result<f64, String> {
    let config = SystemConfig::hpca2010_baseline(p.cores());
    let mut memory = MemoryHierarchy::new(&config.memory);
    memory.set_warming(true);
    let mut branch: Vec<BranchUnit> = (0..p.cores())
        .map(|_| BranchUnit::new(&config.branch))
        .collect();
    let mut last_iline = vec![u64::MAX; p.cores()];
    let mut now = 0u64;
    let mut quiet = Tracer::new(false);
    let t: &mut Tracer = if spans { tracer } else { &mut quiet };
    let timer = iss_trace::HostTimer::start();
    let root = t.enter("warm.pass", id);
    let total = fast_forward_all(p, &mut |core, b: &InstBatch| {
        t.span("mem.warm", id, || {
            memory.warm_access_batch(
                core,
                &b.pc,
                &b.mem_pos,
                &b.mem_addr,
                &b.mem_store,
                IFETCH_LINE_SHIFT,
                &mut last_iline[core],
                now,
            );
        });
        t.span("branch.update", id, || {
            branch[core].update_batch(&b.br_pc, &b.br_info);
        });
        now += b.len() as u64;
    })?;
    t.exit(root);
    let wall = timer.elapsed_seconds();
    if spans {
        n.add("mem.warm", total);
        n.add("branch.update", total);
        n.branch_mispredicts += branch.iter().map(|u| u.stats().mispredictions).sum::<u64>();
    }
    Ok(wall)
}

/// Per-core instruction vectors and the synchronization state they start
/// from.
type Materialized = (Vec<Arc<Vec<DynInst>>>, SyncController);

/// The point's streams, generated once into memory.
fn materialize(p: &Point) -> Result<Materialized, String> {
    let (streams, sync) = build_parts(p)?;
    let insts = streams
        .into_iter()
        .map(|mut s| {
            let mut v = Vec::with_capacity(s.remaining_hint().unwrap_or(0) as usize);
            while let Some(inst) = s.next_inst() {
                v.push(inst);
            }
            Arc::new(v)
        })
        .collect();
    Ok((insts, sync))
}

/// Simulated quantities a direct run must share with the timed phase.
fn same_outcome(
    what: &str,
    cycles: u64,
    per_core: &[(u64, u64)],
    memory: &MemoryStats,
    s: &SimSummary,
) -> Option<String> {
    let want: Vec<(u64, u64)> = s
        .per_core
        .iter()
        .map(|c| (c.instructions, c.cycles))
        .collect();
    if cycles != s.cycles || per_core != want.as_slice() || memory != &s.memory {
        Some(format!(
            "{what}: pre-generated run gives {cycles} cycles, the timed phase {}",
            s.cycles
        ))
    } else {
        None
    }
}

fn interval_outcome(r: &IntervalSimResult) -> (u64, Vec<(u64, u64)>, &MemoryStats) {
    let per_core = r
        .per_core
        .iter()
        .map(|c| (c.instructions, c.cycles))
        .collect();
    (r.cycles, per_core, &r.memory)
}

fn detailed_outcome(r: &DetailedSimResult) -> (u64, Vec<(u64, u64)>, &MemoryStats) {
    let per_core = r
        .per_core
        .iter()
        .map(|c| (c.instructions, c.cycles))
        .collect();
    (r.cycles, per_core, &r.memory)
}

/// Runs every layer pass over the input's streams.
///
/// # Errors
///
/// Returns workload build errors.
pub fn measure(input: &LayerInput<'_>, tracer: &mut Tracer) -> Result<Found, String> {
    let mut n = LayerNumbers::default();
    let mut errors = Vec::new();
    let mut checked = 0u64;
    for (set_no, set) in stream_sets(input).into_iter().enumerate() {
        let id = set_no as u32;
        let p = set.point;
        let multicore = p.cores() > 1;
        if !multicore {
            generator_pass(p, tracer, id, &mut n)?;
            let total = tracer.span("trace.ffb", id, || fast_forward_all(p, &mut |_, _| {}))?;
            n.add("trace.ffb", total);
            let unspanned = warming_pass(p, tracer, false, id, &mut n)?;
            let spanned = warming_pass(p, tracer, true, id, &mut n)?;
            n.warm_unspanned_s += unspanned;
            n.warm_spanned_s += spanned;
            if input.workload == Workload::SampledWarming {
                n.sampled_warm_s += unspanned;
            }
        }
        let (streams, sync) = materialize(p)?;
        let fresh = || -> Vec<VecStream> { streams.iter().cloned().map(VecStream::new).collect() };
        for &(point, summary) in &set.runs {
            let config = point.job.config;
            let what = &point.spec.name;
            let instructions = summary.total_instructions;
            let err = match point.spec.model {
                _ if !point.on_baseline_machine() => continue,
                CoreModel::Interval => {
                    let name = if multicore {
                        "interval.mc"
                    } else {
                        "interval.run"
                    };
                    let mut sim = IntervalSimulator::new(
                        &config.interval_core,
                        &config.branch,
                        &config.memory,
                        fresh(),
                        sync.clone(),
                    );
                    let r = tracer.span(name, id, || sim.run());
                    n.add(name, instructions);
                    if !multicore {
                        n.interval_cycles += r.cycles;
                        // The whole runner call: build, stream wrapping and
                        // the same interval run.
                        let s = tracer.span("model.run", id, || {
                            iss_sim::run(
                                CoreModel::Interval,
                                &config,
                                &point.spec.workload,
                                point.spec.seed,
                            )
                        });
                        n.add("model.run", instructions);
                        checked += 1;
                        if s.canonical_record() != summary.canonical_record() {
                            errors
                                .push(format!("{what}: runner call differs from the timed phase"));
                        }
                    }
                    let (c, pc, m) = interval_outcome(&r);
                    same_outcome(what, c, &pc, m, summary)
                }
                CoreModel::Detailed => {
                    let name = if multicore {
                        "detailed.mc"
                    } else {
                        "detailed.run"
                    };
                    let mut sim = DetailedSimulator::new(
                        &config.detailed_core,
                        &config.branch,
                        &config.memory,
                        fresh(),
                        sync.clone(),
                    );
                    let r = tracer.span(name, id, || sim.run());
                    n.add(name, instructions);
                    let (c, pc, m) = detailed_outcome(&r);
                    same_outcome(what, c, &pc, m, summary)
                }
                CoreModel::OneIpc => {
                    let mut sim = OneIpcSimulator::new(&config.memory, fresh(), sync.clone());
                    let r = tracer.span("oneipc.run", id, || sim.run_with_limit(u64::MAX));
                    n.add("oneipc.run", instructions);
                    let (c, pc, m) = detailed_outcome(&r);
                    same_outcome(what, c, &pc, m, summary)
                }
                CoreModel::Sampled(_) => {
                    let s = tracer.span("sampling.run", id, || {
                        iss_sim::run(
                            point.spec.model,
                            &config,
                            &point.spec.workload,
                            point.spec.seed,
                        )
                    });
                    n.add("sampling.run", instructions);
                    n.sampled_measured += s.sampling.map_or(0, |e| e.measured_instructions);
                    (s.canonical_record() != summary.canonical_record())
                        .then(|| format!("{what}: sampled rerun differs from the timed phase"))
                }
                CoreModel::Hybrid(_) => continue,
            };
            checked += 1;
            errors.extend(err);
        }
    }
    Ok(Found {
        numbers: n,
        checked,
        errors,
    })
}

/// Per-kilo-instruction memory counts over a set of summaries.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemoryCounts {
    /// L1 D-cache misses per kilo-instruction.
    pub l1d_mpki: f64,
    /// L2 misses per kilo-instruction.
    pub l2_mpki: f64,
    /// D-TLB misses per kilo-instruction.
    pub dtlb_mpki: f64,
    /// DRAM transactions per kilo-instruction.
    pub dram_pki: f64,
    /// DRAM queueing cycles per kilo-instruction.
    pub dram_queue_cpki: f64,
    /// Coherence misses per kilo-instruction.
    pub coherence_pki: f64,
}

/// Sums `SimSummary.memory` over `summaries`, per kilo-instruction.
#[must_use]
pub fn memory_counts(summaries: &[&SimSummary]) -> MemoryCounts {
    let instructions: u64 = summaries.iter().map(|s| s.total_instructions).sum();
    let pki = |count: u64| count as f64 * 1000.0 / instructions.max(1) as f64;
    let sum = |f: &dyn Fn(&SimSummary) -> u64| summaries.iter().map(|s| f(s)).sum::<u64>();
    MemoryCounts {
        l1d_mpki: pki(sum(&|s| s.memory.totals().l1d_misses)),
        l2_mpki: pki(sum(&|s| s.memory.totals().l2_misses)),
        dtlb_mpki: pki(sum(&|s| s.memory.totals().dtlb_misses)),
        dram_pki: pki(sum(&|s| s.memory.dram_transactions)),
        dram_queue_cpki: pki(sum(&|s| s.memory.dram_queue_cycles)),
        coherence_pki: pki(sum(&|s| s.memory.totals().coherence_misses)),
    }
}

/// Everything the per-layer metrics are computed from.
pub struct LayerSummary<'a> {
    /// The layer passes' input.
    pub input: &'a LayerInput<'a>,
    /// The layer passes' numbers.
    pub found: &'a LayerNumbers,
    /// Self time (ns) and span count per span name.
    pub spans: &'a BTreeMap<&'static str, (u64, u64)>,
    /// Memory counts of the timed points.
    pub memory: MemoryCounts,
    /// Store hits / lookups on the replay pass.
    pub hit_ratio: f64,
    /// Median MIPS of the untraced passes.
    pub untraced_mips: f64,
    /// Median MIPS of the traced passes.
    pub traced_mips: f64,
    /// Median wall seconds of an untraced pass.
    pub pass_wall: f64,
    /// Median Σ point host seconds / (wall × workers).
    pub busy_frac: f64,
    /// Median wall × workers − Σ point host seconds.
    pub idle_s: f64,
    /// The run's reported, unbounded metrics (`hit_us_p50`, accuracy).
    pub extra: &'a MetricSet,
}

/// Computes every per-layer metric. A layer the workload does not exercise
/// is marked not applicable (it prints `n/a` and reports 0).
#[must_use]
pub fn layer_metrics(l: &LayerSummary<'_>) -> MetricSet {
    let work = |name: &str| l.found.work.get(name).copied().unwrap_or(0);
    let self_ns = |name: &str| l.spans.get(name).map_or(0.0, |&(ns, _)| ns as f64);
    let per_inst = |name: &str| (work(name) > 0).then(|| self_ns(name) / work(name) as f64);
    let mean_us = |name: &str| {
        l.spans
            .get(name)
            .map(|&(ns, count)| ns as f64 / count.max(1) as f64 / 1e3)
    };
    let gen = per_inst("trace.gen");
    let interval = per_inst("interval.run");
    let sampling = per_inst("sampling.run");
    let wrap = per_inst("model.run").map(|run| run - interval.unwrap_or(0.0) - gen.unwrap_or(0.0));
    let sampled_s = self_ns("sampling.run") / 1e9;
    let sampled = work("sampling.run") > 0;
    let warm_overhead = (l.found.warm_unspanned_s > 0.0).then(|| {
        (l.found.warm_spanned_s - l.found.warm_unspanned_s) / l.found.warm_unspanned_s * 100.0
    });

    // Host time of one untraced pass that the layer rows explain: each
    // point's instructions at its path's per-instruction layer costs, plus
    // per-point build, codec and store costs and idle workers.
    let ns = |name: &str| per_inst(name).unwrap_or(0.0);
    let us = |name: &str| mean_us(name).unwrap_or(0.0);
    let mut explained = l.idle_s;
    let writes = l.input.workload == Workload::DesignSweep;
    for (p, s) in l.input.points.iter().zip(l.input.summaries) {
        let Ok(s) = s else { continue };
        let mc = p.cores() > 1;
        let (path_ns, build_us) = match p.spec.model {
            CoreModel::Interval if mc => (ns("trace.gen") + ns("interval.mc"), us("trace.build")),
            // `model.run` covers the build, the generator and the core.
            CoreModel::Interval => (ns("model.run"), 0.0),
            CoreModel::Detailed if mc => (ns("trace.gen") + ns("detailed.mc"), us("trace.build")),
            CoreModel::Detailed => (ns("trace.gen") + ns("detailed.run"), us("trace.build")),
            CoreModel::OneIpc => (ns("trace.gen") + ns("oneipc.run"), us("trace.build")),
            CoreModel::Sampled(_) => (ns("sampling.run"), 0.0),
            CoreModel::Hybrid(_) => (0.0, 0.0),
        };
        explained += s.total_instructions as f64 * path_ns / 1e9 + build_us / 1e6;
        if writes {
            explained += (us("codec.encode") + us("store.key") + us("store.put")) / 1e6;
        }
    }
    let host = l.pass_wall * l.input.workload.workers() as f64;

    let values: BTreeMap<&str, Option<f64>> = [
        ("trace.gen_ns", gen),
        (
            "trace.decode_ns",
            per_inst("trace.ffb").map(|f| f - gen.unwrap_or(0.0)),
        ),
        ("trace.build_ms", mean_us("trace.build").map(|u| u / 1e3)),
        ("branch.update_ns", per_inst("branch.update")),
        (
            "branch.mispredict_pki",
            (work("branch.update") > 0)
                .then(|| l.found.branch_mispredicts as f64 * 1000.0 / work("branch.update") as f64),
        ),
        ("mem.warm_ns", per_inst("mem.warm")),
        ("mem.l1d_mpki", Some(l.memory.l1d_mpki)),
        ("mem.l2_mpki", Some(l.memory.l2_mpki)),
        ("mem.dtlb_mpki", Some(l.memory.dtlb_mpki)),
        ("mem.dram_pki", Some(l.memory.dram_pki)),
        ("mem.dram_queue_cpki", Some(l.memory.dram_queue_cpki)),
        ("mem.coherence_pki", Some(l.memory.coherence_pki)),
        ("interval.ns", interval),
        ("interval.mc_ns", per_inst("interval.mc")),
        (
            "interval.cpi",
            (work("interval.run") > 0)
                .then(|| l.found.interval_cycles as f64 / work("interval.run") as f64),
        ),
        ("detailed.ns", per_inst("detailed.run")),
        ("detailed.mc_ns", per_inst("detailed.mc")),
        ("oneipc.ns", per_inst("oneipc.run")),
        ("model.wrap_ns", wrap),
        ("sampling.ns", sampling),
        (
            "sampling.timed_share",
            sampled.then(|| (sampled_s - l.found.sampled_warm_s) / sampled_s),
        ),
        (
            "sampling.measured_frac",
            sampled.then(|| l.found.sampled_measured as f64 / work("sampling.run") as f64),
        ),
        ("batch.busy_frac", Some(l.busy_frac)),
        ("batch.idle_s", Some(l.idle_s)),
        ("codec.encode_us", mean_us("codec.encode")),
        ("codec.decode_us", mean_us("codec.decode")),
        ("store.key_us", mean_us("store.key")),
        ("store.put_us", mean_us("store.put")),
        ("store.get_us", mean_us("store.get")),
        ("store.hit_ratio", Some(l.hit_ratio)),
        (
            "tracing.overhead_pct",
            (l.untraced_mips > 0.0)
                .then(|| (l.untraced_mips - l.traced_mips) / l.untraced_mips * 100.0),
        ),
        ("tracing.warm_overhead_pct", warm_overhead),
        (
            "tracing.unattributed_frac",
            (host > 0.0).then(|| 1.0 - explained / host),
        ),
    ]
    .into_iter()
    .collect();

    let mut out = MetricSet::default();
    for &(name, unit, _) in PER_LAYER {
        out.push(match l.extra.0.iter().find(|m| m.name == name) {
            Some(m) => m.clone(),
            None => match values.get(name).copied().flatten() {
                Some(v) => Metric::new(name, v, unit),
                None => Metric::not_applicable(name, unit),
            },
        });
    }
    out
}

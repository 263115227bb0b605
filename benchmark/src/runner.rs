//! The two passes over one workload: end to end (tracing off) and traced
//! (per-layer self-times, counts and probes).

use crate::clock::{now, timed};
use crate::metrics::{fnv48, MetricDef, Values, END_TO_END, PER_LAYER};
use crate::sample::{Samples, Summary};
use crate::spans::{SelfTimes, ROOT_SPAN};
use crate::workloads::{self, JobOutput, Workload};
use crate::{host, inputs, probes, spec};
use defines_telemetry::{span, MetricsSnapshot};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Fewest timed jobs of an end-to-end run, however short `--seconds` is.
const MIN_JOBS: usize = 3;
/// Share of `--seconds` after which the traced pass starts no further
/// (untraced, traced) job pair; probes and the parallel cross-check take the
/// rest. At 10 s this gives the slowest workload (`matrix-fullmap`, 5.4 s a
/// pair at one thread) two pairs.
const TRACED_SHARE: f64 = 0.6;
/// Most (untraced, traced) pairs of a traced pass.
const MAX_PAIRS: usize = 6;

/// One run's arguments (the driver's flags).
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One run's result: what the last stdout line carries, plus the
/// human-readable detail printed before it.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(MetricDef, f64)>,
    /// The jobs' result hash in full (the `model.result_fnv` metric carries
    /// only its 48 high bits); what `baseline.json` pins at the default seed.
    pub result_fnv: u64,
    /// Failed checks, in the order they were found.
    pub failures: Vec<String>,
    /// Sample summaries behind the timing metrics, by metric name.
    pub summaries: Vec<(&'static str, Summary)>,
}

/// Running tallies and checks shared by both passes.
struct Checker {
    workload: String,
    seed: u64,
    reference: Option<u64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Checker {
    fn new(args: &RunArgs) -> Self {
        Self {
            workload: args.workload.clone(),
            seed: args.seed,
            reference: None,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    fn fail(&mut self, what: String) {
        if !self.failures.contains(&what) {
            self.failures.push(what);
        }
    }

    /// Books one job: operations, the job's own check, and the result hash —
    /// equal to every earlier job's (whatever its thread count or tracing
    /// state) and, at the pinned seed, to the committed value.
    fn job(&mut self, out: &JobOutput, what: &str) {
        self.attempted += out.attempted;
        self.failed += out.failed;
        if let Some(failure) = &out.check_failure {
            self.fail(failure.clone());
        }
        if out.failed > 0 {
            self.fail(format!(
                "{} of {} operations failed ({what})",
                out.failed, out.attempted
            ));
        }
        match self.reference {
            None => {
                self.reference = Some(out.result_fnv);
                if let Some(pinned) = spec::result_fnv(&self.workload, self.seed) {
                    if pinned != out.result_fnv {
                        self.fail(format!(
                            "model.result_fnv {:016x} differs from the pinned {pinned:016x} \
                             at seed {}",
                            out.result_fnv, self.seed
                        ));
                    }
                }
            }
            Some(reference) if reference != out.result_fnv => self.fail(format!(
                "model.result_fnv {:016x} ({what}) differs from the first job's {reference:016x}",
                out.result_fnv
            )),
            Some(_) => {}
        }
    }

    fn finish(
        self,
        metrics: Vec<(MetricDef, f64)>,
        summaries: Vec<(&'static str, Summary)>,
    ) -> RunResult {
        RunResult {
            correct: self.failures.is_empty(),
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            result_fnv: self.reference.unwrap_or(0),
            failures: self.failures,
            summaries,
        }
    }
}

/// The end-to-end pass: `SETUP_REPS` set-ups (each ending in one untimed
/// warm-up job, so lazy initialisation and allocator growth are set-up, not
/// job time), then jobs back to back until `--seconds` have passed.
pub fn end_to_end(args: &RunArgs) -> Result<RunResult, String> {
    assert!(
        !defines_telemetry::tracing_enabled(),
        "end-to-end numbers are taken with tracing off"
    );
    let mut check = Checker::new(args);
    let mut setups = Samples::new();
    let mut workload: Option<Box<dyn Workload>> = None;
    for _ in 0..SETUP_REPS {
        // Dropped first: the previous set-up's state must not sit in memory
        // while the next one is timed.
        drop(workload.take());
        let start = now();
        let mut fresh = workloads::setup(&args.workload, args.seed)?;
        let threads = fresh.e2e_threads();
        let warm_up = fresh.job(threads)?;
        setups.push(start.elapsed().as_secs_f64());
        check.job(&warm_up, "warm-up job");
        workload = Some(fresh);
    }
    let mut workload = workload.expect("SETUP_REPS > 0");
    let threads = workload.e2e_threads();

    let mut jobs = Samples::new();
    let mut points = 0;
    let start = now();
    while jobs.len() < MIN_JOBS || start.elapsed().as_secs_f64() < args.seconds {
        let (out, seconds) = timed(|| workload.job(threads));
        let out = out?;
        jobs.push(seconds);
        points = out.points;
        check.job(&out, "timed job");
    }
    drop(workload);

    let job = jobs.summary().expect("MIN_JOBS > 0");
    let setup = setups.summary().expect("SETUP_REPS > 0");
    let mut values = Values::new();
    values.set("job_s", job.median);
    values.set("points_per_s", points as f64 / job.median);
    values.set("peak_rss_mb", host::peak_rss_mb()?);
    values.set("setup_s", setup.median);
    Ok(check.finish(
        values.in_table_order(&END_TO_END)?,
        vec![("job_s", job), ("setup_s", setup)],
    ))
}

/// One traced job's harvest. The raw events are reduced on the spot: kept
/// around, six jobs' worth of them would sit in the heap the next jobs run on.
struct Traced {
    seconds: f64,
    times: SelfTimes,
    spans: usize,
    counters: MetricsSnapshot,
}

/// The traced pass: (untraced, traced) job pairs pinned to one engine
/// thread, then — for a workload whose end-to-end pass is parallel — untraced
/// jobs at that thread count, then the probes.
pub fn traced(args: &RunArgs) -> Result<RunResult, String> {
    let mut check = Checker::new(args);
    let mut workload = workloads::setup(&args.workload, args.seed)?;
    let threads = workload.e2e_threads();
    check.job(&workload.job(threads)?, "warm-up job");
    // Counters are read as deltas around each traced job; spans are switched
    // on only inside it.
    defines_telemetry::set_metrics(true);

    let mut untraced = Samples::new();
    let mut layer_values: BTreeMap<&'static str, Samples> = BTreeMap::new();
    let mut harvests: Vec<Traced> = Vec::new();
    // The last traced job's events, for the Chrome trace.
    let mut events = Vec::new();
    let mut model = None;
    let start = now();
    while harvests.is_empty()
        || (harvests.len() < MAX_PAIRS
            && start.elapsed().as_secs_f64() < args.seconds * TRACED_SHARE)
    {
        // Alternating which side of a pair runs first cancels order effects
        // (the second job starts on the heap the first one left behind).
        let traced_first = harvests.len() % 2 == 1;
        for traced in [traced_first, !traced_first] {
            if traced {
                defines_telemetry::clear_events();
                let before = defines_telemetry::snapshot();
                defines_telemetry::set_tracing(true);
                let (out, seconds) = timed(|| {
                    let _root = span!("bench.job");
                    workload.job(1)
                });
                defines_telemetry::set_tracing(false);
                check.job(&out?, "traced job");
                let counters = defines_telemetry::snapshot().since(&before);
                events = defines_telemetry::drain_events();
                harvests.push(Traced {
                    seconds,
                    times: SelfTimes::from_events(&events),
                    spans: events.len(),
                    counters,
                });
            } else {
                let (out, seconds) = timed(|| workload.job(1));
                let out = out?;
                untraced.push(seconds);
                check.job(&out, "untraced job");
                for (name, value) in &out.layer {
                    layer_values.entry(name).or_default().push(*value);
                }
                model = Some((out.model, out.result_fnv));
            }
        }
    }

    let mut values = Values::new();
    let mut summaries = Vec::new();
    for (name, samples) in &layer_values {
        values.set(name, samples.median());
    }
    let (model, result_fnv) = model.expect("at least one pair ran");
    values.set("model.best_energy_mj", model.energy_mj);
    values.set("model.best_latency_mcycles", model.latency_mcycles);
    values.set("model.dram_mb", model.dram_mb);
    values.set("model.result_fnv", fnv48(result_fnv));

    span_metrics(&harvests, &mut values, &mut check);
    let traced_s: Samples = harvests.iter().map(|h| h.seconds).collect();
    values.set(
        "telemetry.trace_overhead_share",
        traced_s.median() / untraced.median() - 1.0,
    );
    summaries.push((
        "job_s (untraced, 1 engine thread)",
        untraced.summary().expect("at least one pair ran"),
    ));

    // The parallel cross-check: same results at the end-to-end thread count,
    // and how much of the extra threads' time turned into speed.
    if threads > 1 {
        let mut parallel = Samples::new();
        for _ in 0..2 {
            let (out, seconds) = timed(|| workload.job(threads));
            check.job(&out?, &format!("job on {threads} engine threads"));
            parallel.push(seconds);
        }
        values.set(
            "engine.engine.parallel_efficiency",
            untraced.median() / (threads as f64 * parallel.median()),
        );
    }

    let scratch = scratch_dir()?;
    values.extend(workload.layer_probes(&scratch)?);
    let probe_inputs = workload.probe_inputs()?;
    values.set(
        "mapping.cache.entries",
        probe_inputs.cache.stats().entries as f64,
    );
    values.extend(probes::run(&probe_inputs, &scratch)?);
    drop(workload);

    let trace_path = inputs::out_dir().join(format!("{}.trace.json", args.workload));
    std::fs::write(
        &trace_path,
        defines_telemetry::chrome_trace(&events).to_json(),
    )
    .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
    // Best effort: other runs may be using the directory.
    let _ = std::fs::remove_dir(&scratch);

    Ok(check.finish(values.in_table_order(&PER_LAYER)?, summaries))
}

/// A per-process scratch directory inside the checkout.
fn scratch_dir() -> Result<PathBuf, String> {
    let dir = inputs::out_dir().join(format!("probe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Self-times (median over the traced jobs) and counts (which must repeat
/// exactly from one traced job to the next) of the program's spans.
fn span_metrics(harvests: &[Traced], values: &mut Values, check: &mut Checker) {
    // (metric, spans whose self-times it sums, scale from µs)
    const SELF_TIMES: [(&str, &[&str], f64); 8] = [
        ("core.evaluate.stack_self_ms", &["evaluate.stack"], 1e-3),
        (
            "core.evaluate.tile_type_self_ms",
            &["evaluate.tile_type"],
            1e-3,
        ),
        (
            "core.explore.self_ms",
            &[
                "explore.validate",
                "explore.sweep",
                "explore.schedule",
                "explore.stack_search",
            ],
            1e-3,
        ),
        ("core.fuse.enumerate_us", &["fuse.enumerate"], 1.0),
        ("core.fuse.partition_dp_us", &["fuse.partition_dp"], 1.0),
        ("core.matrix.run_ms", &["bench.matrix.run_matrix"], 1e-3),
        ("mapping.search.self_ms", &["mapping.search"], 1e-3),
        (
            "engine.engine.self_ms",
            &[
                "engine.run",
                "engine.worker",
                "engine.collect",
                "engine.execute",
            ],
            1e-3,
        ),
    ];
    // (metric, telemetry counter)
    const COUNTERS: [(&str, &str); 10] = [
        ("core.evaluate.tile_types", "evaluate.tile_types"),
        ("core.fuse.candidates", "fuse.candidates"),
        (
            "mapping.search.orderings_evaluated",
            "search.orderings_evaluated",
        ),
        ("mapping.search.pruned_bound", "search.pruned_bound"),
        ("mapping.search.pruned_symmetry", "search.pruned_symmetry"),
        ("mapping.cache.hits", "mapping.cache.hits"),
        ("mapping.cache.misses", "mapping.cache.misses"),
        (
            "mapping.cache.canonical_hits",
            "mapping.cache.canonical_hits",
        ),
        ("engine.engine.points_evaluated", "engine.points_evaluated"),
        ("engine.engine.points_pruned", "engine.points_pruned"),
    ];

    let median = |f: &dyn Fn(&SelfTimes) -> f64| {
        harvests
            .iter()
            .map(|h| f(&h.times))
            .collect::<Samples>()
            .median()
    };
    // The root span is the wall clock of the traced job.
    let wall_us = |a: &SelfTimes| a.get(ROOT_SPAN).total_us;
    for (metric, spans, scale) in SELF_TIMES {
        values.set(metric, median(&|a| a.self_us(spans) * scale));
    }
    values.set(
        "core.evaluate.self_share",
        median(&|a| a.self_us(&["evaluate.stack", "evaluate.tile_type"]) / wall_us(a)),
    );
    values.set(
        "mapping.search.self_share",
        median(&|a| a.self_us(&["mapping.search"]) / wall_us(a)),
    );
    values.set(
        "telemetry.coverage_share",
        median(&|a| a.program_self_us() / wall_us(a)),
    );

    // Counts come from the last traced job and must equal every other one's.
    let last = harvests.len() - 1;
    let count = |i: usize, counter: &str| harvests[i].counters.get(counter).unwrap_or(0);
    for (metric, counter) in COUNTERS {
        values.set(metric, count(last, counter) as f64);
        if let Some(i) = (0..last).find(|&i| count(i, counter) != count(last, counter)) {
            check.fail(format!(
                "count {metric} does not repeat: {} in traced job {i}, {} in job {last}",
                count(i, counter),
                count(last, counter)
            ));
        }
    }
    let spans = |name: &str| harvests[last].times.get(name).count as f64;
    values.set("core.evaluate.stack_calls", spans("evaluate.stack"));
    values.set("mapping.search.searches", spans("mapping.search"));
    values.set("telemetry.spans", harvests[last].spans as f64);

    let (evaluated, pruned) = (
        count(last, "search.orderings_evaluated") as f64,
        (count(last, "search.pruned_bound") + count(last, "search.pruned_symmetry")) as f64,
    );
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    values.set(
        "mapping.search.prune_share",
        ratio(pruned, evaluated + pruned),
    );
    values.set(
        "mapping.search.ns_per_ordering",
        ratio(
            values.get("mapping.search.self_ms").unwrap_or(0.0) * 1e6,
            evaluated,
        ),
    );
    let (hits, misses) = (
        count(last, "mapping.cache.hits") as f64,
        count(last, "mapping.cache.misses") as f64,
    );
    values.set("mapping.cache.hit_share", ratio(hits, hits + misses));
}

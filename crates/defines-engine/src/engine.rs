//! The work-queue parallel sweep executor with pruning and streaming results.

use crate::memo::CacheStats;
use defines_telemetry::{failpoint, span, Counter, Gauge};
use serde::{Serialize, Value};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Design points fully evaluated across every sweep in the process.
static POINTS_EVALUATED: Counter = Counter::new("engine.points_evaluated");
/// Design points skipped by lower-bound pruning across every sweep.
static POINTS_PRUNED: Counter = Counter::new("engine.points_pruned");
/// Per-point panics caught and isolated into [`Outcome::Failed`] records.
static CAUGHT_PANICS: Counter = Counter::new("fault.caught_panics");
/// Worker threads of the most recent sweep.
static THREADS_GAUGE: Gauge = Gauge::new("engine.threads");

/// How a sweep executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads. `1` evaluates inline on the calling thread, in point
    /// order.
    pub threads: usize,
    /// Whether lower-bound pruning is applied (only takes effect when the
    /// caller supplies a bound).
    pub prune: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self::parallel()
    }
}

impl EngineConfig {
    /// One worker, no pruning: the engine's faithful re-implementation of a
    /// plain sequential sweep.
    pub fn sequential() -> Self {
        Self {
            threads: 1,
            prune: false,
        }
    }

    /// One worker per available core, pruning enabled.
    pub fn parallel() -> Self {
        Self {
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            prune: true,
        }
    }

    /// Returns a copy with an explicit worker count (minimum 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Returns a copy with pruning switched on or off.
    pub fn with_pruning(mut self, prune: bool) -> Self {
        self.prune = prune;
        self
    }
}

/// What happened to one design point.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome<C> {
    /// The point was fully evaluated.
    Evaluated {
        /// The evaluated cost.
        cost: C,
        /// The scalar objective value of the cost.
        value: f64,
    },
    /// The point was skipped: its lower bound already exceeded the best
    /// evaluated value, so its true cost cannot beat (or even tie) the best.
    Pruned {
        /// The lower bound that justified skipping.
        lower_bound: f64,
    },
    /// The point's evaluation panicked. The panic was caught and isolated
    /// into this record: sibling points are unaffected, the sweep completes,
    /// and the shared caches recover (see `MemoCache`'s poison recovery).
    /// Failed points never update the shared pruning incumbent, so every
    /// other record is bit-identical to a run where this point was absent.
    Failed {
        /// The panic payload, rendered as a string.
        error: String,
    },
}

/// One streamed sweep result.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRecord<P, C> {
    /// Index of the design point in the submitted order.
    pub index: usize,
    /// The design point.
    pub point: P,
    /// Evaluation outcome.
    pub outcome: Outcome<C>,
    /// Whether this record improved on every record streamed before it.
    pub is_best_so_far: bool,
}

impl<P, C> SweepRecord<P, C> {
    /// The objective value, if the point was evaluated.
    pub fn value(&self) -> Option<f64> {
        match &self.outcome {
            Outcome::Evaluated { value, .. } => Some(*value),
            Outcome::Pruned { .. } | Outcome::Failed { .. } => None,
        }
    }

    /// The evaluated cost, if the point was evaluated.
    pub fn cost(&self) -> Option<&C> {
        match &self.outcome {
            Outcome::Evaluated { cost, .. } => Some(cost),
            Outcome::Pruned { .. } | Outcome::Failed { .. } => None,
        }
    }
}

impl<C: Serialize> Serialize for Outcome<C> {
    fn to_value(&self) -> Value {
        match self {
            Outcome::Evaluated { cost, value } => Value::Object(vec![(
                "Evaluated".to_string(),
                Value::Object(vec![
                    ("cost".to_string(), cost.to_value()),
                    ("value".to_string(), Value::F64(*value)),
                ]),
            )]),
            Outcome::Pruned { lower_bound } => Value::Object(vec![(
                "Pruned".to_string(),
                Value::Object(vec![("lower_bound".to_string(), Value::F64(*lower_bound))]),
            )]),
            Outcome::Failed { error } => Value::Object(vec![(
                "Failed".to_string(),
                Value::Object(vec![("error".to_string(), Value::Str(error.clone()))]),
            )]),
        }
    }
}

impl<P: Serialize, C: Serialize> Serialize for SweepRecord<P, C> {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("index".to_string(), Value::U64(self.index as u64)),
            ("point".to_string(), self.point.to_value()),
            ("outcome".to_string(), self.outcome.to_value()),
            (
                "is_best_so_far".to_string(),
                Value::Bool(self.is_best_so_far),
            ),
        ])
    }
}

/// Summary of one sweep run.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepStats {
    /// Label of the run (e.g. the workload name), empty when unlabelled. Set
    /// via [`SweepEngine::with_label`]; lets streamed reports and JSON dumps
    /// identify which sweep produced them when several run side by side.
    pub label: String,
    /// Total design points submitted.
    pub points: usize,
    /// Points fully evaluated.
    pub evaluated: usize,
    /// Points skipped by lower-bound pruning.
    pub pruned: usize,
    /// Points whose evaluation panicked; the panics were caught and reported
    /// as [`Outcome::Failed`] records instead of aborting the sweep.
    pub failed: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock time of the sweep.
    pub elapsed: Duration,
    /// Snapshot of the memoization cache backing the sweep's evaluations, if
    /// the caller attached one (see
    /// [`SweepStats::with_cache`]). Includes canonical-key hits, so streamed
    /// reports can show how much of the reuse came from problem
    /// canonicalization rather than exact repetition.
    pub cache: Option<CacheStats>,
}

impl SweepStats {
    /// Returns a copy with a cache-statistics snapshot attached (typically
    /// taken from the mapping cache right after the run finishes).
    pub fn with_cache(mut self, cache: CacheStats) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Fully evaluated design points per second of wall-clock time (zero for
    /// an instantaneous or empty run) — the throughput figure streamed
    /// reports print next to the evaluated/pruned counts.
    pub fn points_per_second(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.evaluated as f64 / secs
        } else {
            0.0
        }
    }

    /// Aggregates several runs' statistics under one label: point, evaluated
    /// and pruned counts are summed, `elapsed` is the total busy time across
    /// the runs (they may have executed concurrently, so this is work, not
    /// wall clock), and `threads` is the widest run. Cache snapshots are not
    /// merged — runs sharing one cache would double-count; attach a single
    /// whole-matrix snapshot via [`SweepStats::with_cache`] instead.
    ///
    /// The matrix runner uses this to report how many *design points* its
    /// per-cell schedule searches evaluated in total, next to the outer
    /// flattened run's per-cell statistics.
    pub fn merged<'a>(
        label: impl Into<String>,
        runs: impl IntoIterator<Item = &'a SweepStats>,
    ) -> SweepStats {
        let mut out = SweepStats {
            label: label.into(),
            points: 0,
            evaluated: 0,
            pruned: 0,
            failed: 0,
            threads: 0,
            elapsed: Duration::ZERO,
            cache: None,
        };
        for run in runs {
            out.points += run.points;
            out.evaluated += run.evaluated;
            out.pruned += run.pruned;
            out.failed += run.failed;
            out.threads = out.threads.max(run.threads);
            out.elapsed += run.elapsed;
        }
        out
    }
}

impl Serialize for SweepStats {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("label".to_string(), Value::Str(self.label.clone())),
            ("points".to_string(), Value::U64(self.points as u64)),
            ("evaluated".to_string(), Value::U64(self.evaluated as u64)),
            ("pruned".to_string(), Value::U64(self.pruned as u64)),
            ("failed".to_string(), Value::U64(self.failed as u64)),
            ("threads".to_string(), Value::U64(self.threads as u64)),
            (
                "elapsed_ms".to_string(),
                Value::F64(self.elapsed.as_secs_f64() * 1e3),
            ),
        ];
        if let Some(cache) = &self.cache {
            fields.push((
                "cache".to_string(),
                Value::Object(vec![
                    ("entries".to_string(), Value::U64(cache.entries as u64)),
                    ("hits".to_string(), Value::U64(cache.hits)),
                    ("misses".to_string(), Value::U64(cache.misses)),
                    (
                        "canonical_hits".to_string(),
                        Value::U64(cache.canonical_hits),
                    ),
                    ("hit_rate".to_string(), Value::F64(cache.hit_rate())),
                ]),
            ));
        }
        Value::Object(fields)
    }
}

/// The parallel sweep executor.
///
/// `run` fans the design points out over a work queue, evaluates them with
/// the caller's closure, and streams one [`SweepRecord`] per point (in
/// completion order) to the caller's sink. The best objective value seen so
/// far is shared across workers; when pruning is enabled and the caller
/// provides a lower bound, points whose bound *strictly* exceeds the current
/// best are skipped. Strictness matters: a skipped point can therefore never
/// tie the best evaluated point, so the arg-min over evaluated points (with
/// index tie-breaking) is identical with and without pruning.
#[derive(Debug, Clone, Default)]
pub struct SweepEngine {
    config: EngineConfig,
    label: Option<String>,
}

impl SweepEngine {
    /// Creates an engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        Self {
            config,
            label: None,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Returns a copy whose runs are labelled (the label is carried on every
    /// [`SweepStats`] the engine produces — typically the workload name, so
    /// reports from concurrent sweeps stay attributable).
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Returns a copy with run detail appended to the label as
    /// `"label (detail)"` (or used as the label outright when none is set).
    /// Searches that submit structured candidate sets — e.g. the fuse-depth
    /// search's segment spans — use this so their [`SweepStats`] distinguish
    /// themselves from plain design-point sweeps over the same workload.
    pub fn with_label_detail(mut self, detail: impl Into<String>) -> Self {
        let detail = detail.into();
        self.label = Some(match self.label.take() {
            Some(label) => format!("{label} ({detail})"),
            None => detail,
        });
        self
    }

    /// Runs a sweep, streaming records to `on_record`.
    ///
    /// * `evaluate` — full evaluation of one design point (expensive),
    /// * `objective` — scalar value to minimize, derived from a cost,
    /// * `lower_bound` — optional cheap bound: must never exceed the true
    ///   objective value of the point, or pruning could drop the optimum.
    ///
    /// A panic inside `evaluate`, `objective` or `lower_bound` is caught and
    /// isolated to that point: the sweep streams an [`Outcome::Failed`]
    /// record carrying the panic message and continues. Failed points never
    /// update the shared pruning incumbent, so all sibling records are
    /// bit-identical to a run without the failure.
    ///
    /// This is [`SweepEngine::run_prepared`] with nothing prepared.
    pub fn run<P, C, E, V, L, S>(
        &self,
        points: &[P],
        evaluate: &E,
        objective: &V,
        lower_bound: Option<&L>,
        on_record: S,
    ) -> SweepStats
    where
        P: Clone + Sync,
        C: Send,
        E: Fn(&P) -> C + Sync,
        V: Fn(&P, &C) -> f64 + Sync,
        L: Fn(&P) -> f64 + Sync,
        S: FnMut(SweepRecord<P, C>),
    {
        let bound = lower_bound.map(|lb| move |point: &P, _: &()| lb(point));
        self.run_prepared(
            points,
            &|_: &P| (),
            &|point: &P, ()| evaluate(point),
            objective,
            bound.as_ref(),
            on_record,
        )
    }

    /// Runs a sweep whose points share a per-point intermediate: for each
    /// point, `prepare` computes it once, `lower_bound` reads it, and
    /// `evaluate` consumes it — prepare → bound → evaluate, back to back on
    /// one worker, so the value never crosses threads. The DeFiNES sweep
    /// prepares each point's tile types this way, priced by both the bound
    /// and the evaluation.
    ///
    /// `prepare` runs inside the point's panic isolation like the other
    /// closures: a panic there is one [`Outcome::Failed`] record.
    pub fn run_prepared<P, X, C, F, E, V, L, S>(
        &self,
        points: &[P],
        prepare: &F,
        evaluate: &E,
        objective: &V,
        lower_bound: Option<&L>,
        on_record: S,
    ) -> SweepStats
    where
        P: Clone + Sync,
        C: Send,
        F: Fn(&P) -> X + Sync,
        E: Fn(&P, X) -> C + Sync,
        V: Fn(&P, &C) -> f64 + Sync,
        L: Fn(&P, &X) -> f64 + Sync,
        S: FnMut(SweepRecord<P, C>),
    {
        let _run_span = span!("engine.run");
        // lint:allow(wall-clock, elapsed feeds SweepStats reporting only, never results)
        let start = Instant::now();
        let stages = Stages {
            prepare,
            evaluate,
            objective,
            lower_bound: if self.config.prune { lower_bound } else { None },
        };
        let threads = self.config.threads.min(points.len()).max(1);
        THREADS_GAUGE.set(threads as u64);
        let (evaluated, pruned, failed) = if threads <= 1 {
            self.run_sequential(points, &stages, on_record)
        } else {
            self.run_parallel(points, threads, &stages, on_record)
        };
        POINTS_EVALUATED.add(evaluated as u64);
        POINTS_PRUNED.add(pruned as u64);
        SweepStats {
            label: self.label.clone().unwrap_or_default(),
            points: points.len(),
            evaluated,
            pruned,
            failed,
            threads,
            elapsed: start.elapsed(),
            cache: None,
        }
    }

    /// Runs a sweep and returns the records ordered by design-point index.
    pub fn run_collect<P, C, E, V, L>(
        &self,
        points: &[P],
        evaluate: &E,
        objective: &V,
        lower_bound: Option<&L>,
    ) -> (Vec<SweepRecord<P, C>>, SweepStats)
    where
        P: Clone + Sync,
        C: Send,
        E: Fn(&P) -> C + Sync,
        V: Fn(&P, &C) -> f64 + Sync,
        L: Fn(&P) -> f64 + Sync,
    {
        let mut records: Vec<Option<SweepRecord<P, C>>> = (0..points.len()).map(|_| None).collect();
        let stats = self.run(points, evaluate, objective, lower_bound, |r| {
            let index = r.index;
            records[index] = Some(r);
        });
        let records = records
            .into_iter()
            .map(|r| r.expect("every submitted point produces exactly one record"))
            .collect();
        (records, stats)
    }

    /// The best evaluated record of a sweep: minimal objective value, ties
    /// broken by the lowest design-point index — exactly the arg-min a
    /// sequential scan in submission order would select.
    pub fn best_record<P, C>(records: Vec<SweepRecord<P, C>>) -> Option<SweepRecord<P, C>> {
        records
            .into_iter()
            .filter(|r| r.value().is_some())
            .min_by(|a, b| {
                let (va, vb) = (a.value().unwrap(), b.value().unwrap());
                va.total_cmp(&vb).then(a.index.cmp(&b.index))
            })
    }

    fn run_sequential<P, X, C, F, E, V, L, S>(
        &self,
        points: &[P],
        stages: &Stages<'_, F, E, V, L>,
        mut on_record: S,
    ) -> (usize, usize, usize)
    where
        P: Clone,
        F: Fn(&P) -> X,
        E: Fn(&P, X) -> C,
        V: Fn(&P, &C) -> f64,
        L: Fn(&P, &X) -> f64,
        S: FnMut(SweepRecord<P, C>),
    {
        let mut best = f64::INFINITY;
        let mut evaluated = 0;
        let mut pruned = 0;
        let mut failed = 0;
        for (index, point) in points.iter().enumerate() {
            let outcome = stages.execute(index, point, best);
            let is_best = match &outcome {
                Outcome::Evaluated { value, .. } => {
                    evaluated += 1;
                    let better = *value < best;
                    best = best.min(*value);
                    better
                }
                Outcome::Pruned { .. } => {
                    pruned += 1;
                    false
                }
                Outcome::Failed { .. } => {
                    failed += 1;
                    false
                }
            };
            on_record(SweepRecord {
                index,
                point: point.clone(),
                outcome,
                is_best_so_far: is_best,
            });
        }
        (evaluated, pruned, failed)
    }

    fn run_parallel<P, X, C, F, E, V, L, S>(
        &self,
        points: &[P],
        threads: usize,
        stages: &Stages<'_, F, E, V, L>,
        mut on_record: S,
    ) -> (usize, usize, usize)
    where
        P: Clone + Sync,
        C: Send,
        F: Fn(&P) -> X + Sync,
        E: Fn(&P, X) -> C + Sync,
        V: Fn(&P, &C) -> f64 + Sync,
        L: Fn(&P, &X) -> f64 + Sync,
        S: FnMut(SweepRecord<P, C>),
    {
        let queue = AtomicUsize::new(0);
        let best_bits = AtomicU64::new(f64::INFINITY.to_bits());
        let mut evaluated = 0;
        let mut pruned = 0;
        let mut failed = 0;
        std::thread::scope(|scope| {
            let (tx, rx) = mpsc::channel::<(usize, Outcome<C>)>();
            for worker in 0..threads {
                let tx = tx.clone();
                let queue = &queue;
                let best_bits = &best_bits;
                scope.spawn(move || {
                    // Bound first so it drops last: flushes this worker's
                    // span buffer before the scope owner can resume and
                    // drain (the exit-time flush alone races with `scope`).
                    let _flush = defines_telemetry::flush_on_exit();
                    let _worker_span = span!("engine.worker", worker = worker);
                    loop {
                        let index = queue.fetch_add(1, Ordering::Relaxed);
                        if index >= points.len() {
                            return;
                        }
                        let point = &points[index];
                        let best = f64::from_bits(best_bits.load(Ordering::Relaxed));
                        let outcome = stages.execute(index, point, best);
                        if let Outcome::Evaluated { value, .. } = &outcome {
                            atomic_f64_min(best_bits, *value);
                        }
                        if tx.send((index, outcome)).is_err() {
                            return;
                        }
                    }
                });
            }
            drop(tx);
            let _collect_span = span!("engine.collect");
            let mut best_seen = f64::INFINITY;
            for (index, outcome) in rx {
                let is_best = match &outcome {
                    Outcome::Evaluated { value, .. } => {
                        evaluated += 1;
                        let better = *value < best_seen;
                        best_seen = best_seen.min(*value);
                        better
                    }
                    Outcome::Pruned { .. } => {
                        pruned += 1;
                        false
                    }
                    Outcome::Failed { .. } => {
                        failed += 1;
                        false
                    }
                };
                on_record(SweepRecord {
                    index,
                    point: points[index].clone(),
                    outcome,
                    is_best_so_far: is_best,
                });
            }
        });
        (evaluated, pruned, failed)
    }
}

/// The caller's per-point closures of one run (the bound already dropped
/// when pruning is off).
struct Stages<'a, F, E, V, L> {
    prepare: &'a F,
    evaluate: &'a E,
    objective: &'a V,
    lower_bound: Option<&'a L>,
}

impl<F, E, V, L> Stages<'_, F, E, V, L> {
    /// Executes one design point with panic isolation: the preparation, the
    /// pruning check, the evaluation and the objective all run inside
    /// `catch_unwind`, so a panic anywhere becomes an [`Outcome::Failed`] for
    /// this point alone instead of unwinding through the worker (which would
    /// poison shared locks and, on the parallel path, abort the whole scope).
    ///
    /// `AssertUnwindSafe` is sound here: a caught panic abandons everything
    /// the closures were building, the shared state the evaluation may have
    /// touched (the memo/mapping caches) recovers from lock poisoning by
    /// construction, and the engine never reuses partial results of a failed
    /// point.
    fn execute<P, X, C>(&self, index: usize, point: &P, best: f64) -> Outcome<C>
    where
        F: Fn(&P) -> X,
        E: Fn(&P, X) -> C,
        V: Fn(&P, &C) -> f64,
        L: Fn(&P, &X) -> f64,
    {
        // `quiet_panics` silences the default panic hook for exactly this
        // region: the payload is reported through the Failed record below,
        // so the hook's stderr dump would only duplicate it.
        let result = defines_telemetry::quiet_panics(|| {
            catch_unwind(AssertUnwindSafe(|| {
                let prepared = (self.prepare)(point);
                if let Some(lb) = self.lower_bound {
                    let bound = lb(point, &prepared);
                    if bound > best {
                        return Outcome::Pruned { lower_bound: bound };
                    }
                }
                let cost = {
                    let _span = span!("engine.execute", point = index);
                    failpoint!("engine.execute");
                    (self.evaluate)(point, prepared)
                };
                let value = (self.objective)(point, &cost);
                Outcome::Evaluated { cost, value }
            }))
        });
        result.unwrap_or_else(|payload| {
            CAUGHT_PANICS.incr();
            Outcome::Failed {
                error: panic_error(payload.as_ref()),
            }
        })
    }
}

/// Renders a caught panic payload as a failed record's error string.
fn panic_error(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Lock-free minimum update of an f64 stored as bits. All objective values
/// are non-negative and finite, so the bit patterns order like the floats.
fn atomic_f64_min(cell: &AtomicU64, value: f64) {
    let mut current = cell.load(Ordering::Relaxed);
    loop {
        if f64::from_bits(current) <= value {
            return;
        }
        match cell.compare_exchange_weak(
            current,
            value.to_bits(),
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => return,
            Err(seen) => current = seen,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// A toy quadratic objective over integer points.
    fn toy_eval(p: &i64) -> f64 {
        (*p as f64 - 3.0).powi(2)
    }

    #[test]
    fn sequential_and_parallel_collect_identically() {
        let points: Vec<i64> = (0..40).collect();
        let seq = SweepEngine::new(EngineConfig::sequential());
        let par = SweepEngine::new(EngineConfig::parallel().with_threads(4).with_pruning(false));
        let (a, _) = seq.run_collect(
            &points,
            &toy_eval,
            &|_, c: &f64| *c,
            None::<&fn(&i64) -> f64>,
        );
        let (b, _) = par.run_collect(
            &points,
            &toy_eval,
            &|_, c: &f64| *c,
            None::<&fn(&i64) -> f64>,
        );
        let costs_a: Vec<f64> = a.iter().map(|r| r.value().unwrap()).collect();
        let costs_b: Vec<f64> = b.iter().map(|r| r.value().unwrap()).collect();
        assert_eq!(costs_a, costs_b);
        assert_eq!(
            a.iter().map(|r| r.index).collect::<Vec<_>>(),
            (0..40).collect::<Vec<_>>()
        );
    }

    #[test]
    fn pruning_skips_but_never_changes_the_best() {
        // Sound lower bound: half the true value.
        let lb = |p: &i64| toy_eval(p) / 2.0;
        let points: Vec<i64> = (0..200).collect();
        for threads in [1, 4] {
            let engine = SweepEngine::new(EngineConfig::parallel().with_threads(threads));
            let (records, stats) =
                engine.run_collect(&points, &toy_eval, &|_, c: &f64| *c, Some(&lb));
            let best = SweepEngine::best_record(records).unwrap();
            assert_eq!(best.point, 3);
            assert_eq!(stats.evaluated + stats.pruned, 200);
            if threads == 1 {
                assert!(
                    stats.pruned > 0,
                    "sequential pruning should fire on far points"
                );
            }
        }
    }

    #[test]
    fn strict_pruning_preserves_tie_breaking() {
        // Every point has the same value and a tight (equal) bound: nothing
        // may be pruned, and the best must be the lowest index.
        let points: Vec<i64> = (0..16).collect();
        let engine = SweepEngine::new(EngineConfig::sequential().with_pruning(true));
        let (records, stats) = engine.run_collect(
            &points,
            &|_: &i64| 7.0f64,
            &|_, c: &f64| *c,
            Some(&|_: &i64| 7.0),
        );
        assert_eq!(stats.pruned, 0);
        assert_eq!(SweepEngine::best_record(records).unwrap().index, 0);
    }

    #[test]
    fn streaming_marks_best_so_far() {
        let points: Vec<i64> = vec![9, 5, 5, 1];
        let engine = SweepEngine::new(EngineConfig::sequential());
        let mut flags = Vec::new();
        engine.run(
            &points,
            &|p: &i64| *p as f64,
            &|_, c: &f64| *c,
            None::<&fn(&i64) -> f64>,
            |r| flags.push(r.is_best_so_far),
        );
        assert_eq!(flags, vec![true, true, false, true]);
    }

    #[test]
    fn every_point_is_evaluated_exactly_once_in_parallel() {
        let counter = AtomicUsize::new(0);
        let points: Vec<i64> = (0..100).collect();
        let engine = SweepEngine::new(EngineConfig::parallel().with_threads(8).with_pruning(false));
        let (records, stats) = engine.run_collect(
            &points,
            &|p: &i64| {
                counter.fetch_add(1, Ordering::Relaxed);
                *p as f64
            },
            &|_, c: &f64| *c,
            None::<&fn(&i64) -> f64>,
        );
        assert_eq!(counter.load(Ordering::Relaxed), 100);
        assert_eq!(records.len(), 100);
        assert_eq!(stats.evaluated, 100);
    }

    #[test]
    fn merged_stats_sum_counts_and_keep_widest_thread_count() {
        let a = SweepStats {
            label: "a".into(),
            points: 4,
            evaluated: 3,
            pruned: 1,
            failed: 0,
            threads: 2,
            elapsed: Duration::from_millis(10),
            cache: None,
        };
        let b = SweepStats {
            label: "b".into(),
            points: 6,
            evaluated: 5,
            pruned: 0,
            failed: 1,
            threads: 1,
            elapsed: Duration::from_millis(5),
            cache: None,
        };
        let merged = SweepStats::merged("both", [&a, &b]);
        assert_eq!(merged.label, "both");
        assert_eq!(merged.points, 10);
        assert_eq!(merged.evaluated, 8);
        assert_eq!(merged.pruned, 1);
        assert_eq!(merged.failed, 1);
        assert_eq!(merged.threads, 2);
        assert_eq!(merged.elapsed, Duration::from_millis(15));
        assert!(merged.cache.is_none());
        let empty = SweepStats::merged("none", []);
        assert_eq!(empty.points, 0);
        assert_eq!(empty.elapsed, Duration::ZERO);
    }

    #[test]
    fn points_per_second_guards_zero_elapsed() {
        // An instantaneous run (elapsed rounds to zero) must report a rate
        // of zero, not Inf/NaN.
        let instant = SweepStats {
            label: String::new(),
            points: 10,
            evaluated: 10,
            pruned: 0,
            failed: 0,
            threads: 1,
            elapsed: Duration::ZERO,
            cache: None,
        };
        assert_eq!(instant.points_per_second(), 0.0);
        assert!(instant.points_per_second().is_finite());
    }

    #[test]
    fn points_per_second_guards_empty_run() {
        // An empty sweep: zero points over zero time is zero, and merging
        // nothing stays well-defined.
        let empty = SweepStats::merged("empty", []);
        assert_eq!(empty.evaluated, 0);
        assert_eq!(empty.points_per_second(), 0.0);
        assert!(empty.points_per_second().is_finite());
        // Non-zero elapsed with zero evaluated is a plain 0 rate.
        let idle = SweepStats {
            elapsed: Duration::from_millis(5),
            ..empty
        };
        assert_eq!(idle.points_per_second(), 0.0);
    }

    /// Sweeps 0..20 with an evaluator that panics on point 13, at the given
    /// thread count, and returns the records plus stats.
    fn sweep_with_panicking_point(threads: usize) -> (Vec<SweepRecord<i64, f64>>, SweepStats) {
        let points: Vec<i64> = (0..20).collect();
        let engine = if threads <= 1 {
            SweepEngine::new(EngineConfig::sequential())
        } else {
            SweepEngine::new(EngineConfig::parallel().with_threads(threads))
        };
        engine.run_collect(
            &points,
            &|p: &i64| {
                if *p == 13 {
                    panic!("injected failure for point {p}");
                }
                (*p as f64) * 2.0
            },
            &|_, c: &f64| *c,
            None::<&fn(&i64) -> f64>,
        )
    }

    #[test]
    fn panicking_point_becomes_failed_record() {
        let (records, stats) = sweep_with_panicking_point(1);
        assert_eq!(stats.evaluated, 19);
        assert_eq!(stats.failed, 1);
        match &records[13].outcome {
            Outcome::Failed { error } => {
                assert_eq!(error, "injected failure for point 13");
            }
            other => panic!("expected Failed outcome, got {other:?}"),
        }
        assert_eq!(records[13].value(), None);
        // Every sibling evaluated normally.
        for (i, record) in records.iter().enumerate() {
            if i != 13 {
                assert_eq!(record.value(), Some((i as f64) * 2.0));
            }
        }
    }

    #[test]
    fn panicking_point_leaves_siblings_bit_identical_in_parallel() {
        let (seq, seq_stats) = sweep_with_panicking_point(1);
        let (par, par_stats) = sweep_with_panicking_point(8);
        assert_eq!(par_stats.evaluated, seq_stats.evaluated);
        assert_eq!(par_stats.failed, 1);
        for (s, p) in seq.iter().zip(&par) {
            assert_eq!(s.index, p.index);
            assert_eq!(s.value().map(f64::to_bits), p.value().map(f64::to_bits));
        }
    }

    /// Sweeps `points` with a prepare stage that panics on point 13, pruning
    /// on a bound read from the prepared value, and returns the records.
    fn sweep_with_panicking_prepare(threads: usize, points: &[i64]) -> Vec<SweepRecord<i64, f64>> {
        let engine = SweepEngine::new(EngineConfig::parallel().with_threads(threads));
        let mut records = Vec::new();
        let stats = engine.run_prepared(
            points,
            &|p: &i64| {
                if *p == 13 {
                    panic!("injected prepare failure for point {p}");
                }
                toy_eval(p)
            },
            &|_: &i64, prepared: f64| prepared,
            &|_, c: &f64| *c,
            Some(&|_: &i64, prepared: &f64| prepared / 2.0),
            |r| records.push(r),
        );
        assert_eq!(stats.failed, usize::from(points.contains(&13)));
        assert_eq!(stats.evaluated + stats.pruned + stats.failed, points.len());
        records.sort_by_key(|r| r.index);
        records
    }

    #[test]
    fn panicking_prepare_fails_one_point_and_leaves_siblings_bit_identical() {
        let points: Vec<i64> = (0..20).collect();
        // The same sweep without the failing point: a failed point never
        // publishes a value, so no sibling's pruning decision may change.
        let absent: Vec<i64> = points.iter().copied().filter(|&p| p != 13).collect();
        let reference = sweep_with_panicking_prepare(1, &absent);
        for threads in [1, 4] {
            let records = sweep_with_panicking_prepare(threads, &points);
            match &records[13].outcome {
                Outcome::Failed { error } => {
                    assert_eq!(error, "injected prepare failure for point 13");
                }
                other => panic!("expected Failed outcome, got {other:?}"),
            }
            let siblings: Vec<_> = records.iter().filter(|r| r.point != 13).collect();
            if threads == 1 {
                // Sequential runs see the same incumbents, so pruning
                // decisions and bounds match record for record.
                for (s, r) in siblings.iter().zip(&reference) {
                    assert_eq!((s.point, &s.outcome), (r.point, &r.outcome));
                }
            } else {
                // In parallel a sibling may be pruned or evaluated, but every
                // evaluated value is bit-identical.
                for (s, r) in siblings.iter().zip(&reference) {
                    if let (Some(a), Some(b)) = (s.value(), r.value()) {
                        assert_eq!(a.to_bits(), b.to_bits(), "point {}", s.point);
                    }
                }
            }
        }
    }

    #[test]
    fn prepared_value_reaches_bound_and_evaluation_once() {
        let prepares = AtomicUsize::new(0);
        let points: Vec<i64> = (0..50).collect();
        for threads in [1, 4] {
            prepares.store(0, Ordering::Relaxed);
            let engine = SweepEngine::new(EngineConfig::parallel().with_threads(threads));
            let mut records = Vec::new();
            engine.run_prepared(
                &points,
                &|p: &i64| {
                    prepares.fetch_add(1, Ordering::Relaxed);
                    (*p, toy_eval(p))
                },
                &|p: &i64, (q, value): (i64, f64)| {
                    assert_eq!(*p, q, "evaluate receives its own point's value");
                    value
                },
                &|_, c: &f64| *c,
                Some(&|p: &i64, &(q, value): &(i64, f64)| {
                    assert_eq!(*p, q, "the bound receives its own point's value");
                    value / 2.0
                }),
                |r| records.push(r),
            );
            assert_eq!(prepares.load(Ordering::Relaxed), points.len());
            records.sort_by_key(|r| r.index);
            let best = SweepEngine::best_record(records).unwrap();
            assert_eq!(best.point, 3);
        }
    }

    #[test]
    fn failed_records_serialize_with_error_string() {
        let record = SweepRecord {
            index: 0,
            point: 1i64,
            outcome: Outcome::<f64>::Failed {
                error: "boom".into(),
            },
            is_best_so_far: false,
        };
        let json = serde::Serialize::to_value(&record).to_json();
        assert!(json.contains("\"Failed\""));
        assert!(json.contains("\"error\":\"boom\""));
    }

    #[test]
    fn records_serialize_to_json() {
        let record = SweepRecord {
            index: 2,
            point: 5i64,
            outcome: Outcome::Evaluated {
                cost: 1.5f64,
                value: 1.5,
            },
            is_best_so_far: true,
        };
        let json = serde::Serialize::to_value(&record).to_json();
        assert!(json.contains("\"index\":2"));
        assert!(json.contains("Evaluated"));
    }

    #[test]
    fn atomic_f64_min_orders_like_floats() {
        let cell = AtomicU64::new(f64::INFINITY.to_bits());
        let read = || f64::from_bits(cell.load(Ordering::Relaxed));
        // (published value, cell afterwards): only a smaller value lowers it.
        for (value, expected) in [
            (5.0, 5.0),
            (5.0, 5.0),
            (7.25, 5.0),
            (0.5, 0.5),
            (0.0, 0.0),
            (1e300, 0.0),
        ] {
            atomic_f64_min(&cell, value);
            assert_eq!(read(), expected, "after publishing {value}");
        }
    }
}

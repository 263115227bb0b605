//! The case-study matrix: every `{accelerator} × {workload} × {fuse policy}`
//! cell of DeFiNES' §V case study 2 (Fig. 13–16), evaluated in **one
//! flattened engine run** sharing a single [`MappingCache`], with a
//! checkpoint around it and a report on top.
//!
//! The paper's headline multi-accelerator comparison ranks five DF-flexible
//! architectures across the case-study networks. [`run_matrix`] generalizes
//! that grid to arbitrary axes: each cell is a full schedule search
//! ([`Explorer::best_schedule`](crate::Explorer::best_schedule)) under its
//! fuse policy, and the cells run on the shared cell runner
//! ([`crate::batch`]) — one outer engine run, inner searches sequential, one
//! cost model per accelerator over one mapping cache, so repeated
//! sub-problems are searched once per *hardware*, not once per cell. What
//! this module adds is matrix-specific: axis validation and labels, the
//! [`checkpoint`] header and resume splice, and the report.
//!
//! The resulting [`MatrixReport`] carries per-cell energy / latency / EDP,
//! the per-accelerator best strategy per workload, and a Fig.-13-style
//! ranking table; [`MatrixReport::to_markdown`] renders it for humans and
//! the [`Serialize`] impl for machines (the `matrix` CLI writes both).

use crate::batch::{self, BatchConfig, BatchOutcome, Cell};
use crate::checkpoint;
use crate::evaluate::EvaluationError;
use crate::explore::OptimizeTarget;
use crate::fuse::FusePolicy;
use crate::strategy::OverlapMode;
use defines_arch::Accelerator;
use defines_engine::{EngineConfig, Journal, SweepStats};
use defines_mapping::MappingCache;
use defines_telemetry::{failpoint, Counter, MetricsSnapshot};
use defines_workload::Network;
use serde::{Serialize, Value};
use std::fmt;
use std::time::Duration;

/// Cells whose evaluation panicked (caught and isolated into
/// [`CellOutcome::error`]) — includes injected faults and missed deadlines.
static CELLS_FAILED: Counter = Counter::new("fault.cells_failed");
/// Cells spliced into the report from a checkpoint instead of re-running.
static CELLS_RESUMED: Counter = Counter::new("fault.cells_resumed");

/// Errors produced by [`run_matrix`].
#[derive(Debug, Clone, PartialEq)]
pub enum MatrixError {
    /// The matrix axes themselves are unusable (an empty axis, duplicate
    /// names that would make cells ambiguous, …).
    Config(String),
    /// A cell failed upfront evaluation validation.
    Evaluation(EvaluationError),
    /// The checkpoint file is unreadable, corrupt, or records a different
    /// run configuration (see [`crate::checkpoint`]).
    Checkpoint(String),
}

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixError::Config(msg) => write!(f, "invalid matrix: {msg}"),
            MatrixError::Evaluation(e) => write!(f, "matrix cell cannot be evaluated: {e}"),
            MatrixError::Checkpoint(msg) => write!(f, "checkpoint error: {msg}"),
        }
    }
}

impl std::error::Error for MatrixError {}

impl From<EvaluationError> for MatrixError {
    fn from(e: EvaluationError) -> Self {
        MatrixError::Evaluation(e)
    }
}

/// How the matrix executes.
#[derive(Debug, Clone)]
pub struct MatrixConfig {
    /// The outer engine configuration: cells fan out over this work queue
    /// (each cell's inner schedule search is forced sequential).
    pub engine: EngineConfig,
    /// The mapping cache shared by every cell's cost model. Pass a fresh
    /// cache (the default) or a pre-warmed one from earlier sweeps.
    pub cache: MappingCache,
    /// Whether the cells use the fast symmetry-pruned temporal-mapping
    /// search (default) or the exhaustive reference scan.
    pub fast_mapper: bool,
    /// Deterministic work budget applied to every cell's searches (mapping
    /// orderings and fusion-DP relaxations, see [`defines_mapping::Budget`]).
    /// Exhausting it degrades the cell to its best-so-far result
    /// ([`CellOutcome::degraded`]) — bit-identically at any thread count,
    /// never by wall clock. Unlimited by default.
    pub budget: defines_mapping::Budget,
    /// Hard wall-clock deadline measured from the start of the run. A cell
    /// whose evaluation *begins* after the deadline expired is marked failed
    /// (`"matrix deadline … exceeded"` in [`CellOutcome::error`]) without
    /// being searched. The deadline never reaches inside a running search,
    /// so every cell that does complete is bit-identical to an undeadlined
    /// run — wall clock decides only *which* cells fail, never their values.
    /// Combine with [`MatrixConfig::checkpoint`] to finish the missed cells
    /// in a later run.
    pub deadline: Option<Duration>,
    /// Append-only JSONL checkpoint path (see [`crate::checkpoint`] for the
    /// format). A missing or empty file is created and each finished cell is
    /// appended as it completes; an existing file is *resumed*: its header
    /// must match this run's configuration, recorded cells are spliced into
    /// the report without re-running, and newly finished cells are appended.
    /// Failed cells are never recorded, so resuming retries them.
    pub checkpoint: Option<std::path::PathBuf>,
}

impl Default for MatrixConfig {
    fn default() -> Self {
        Self {
            engine: EngineConfig::parallel(),
            cache: MappingCache::new(),
            fast_mapper: true,
            budget: defines_mapping::Budget::default(),
            deadline: None,
            checkpoint: None,
        }
    }
}

/// One stack of a cell's chosen schedule, with layer names resolved so the
/// report stands alone without the `Network`.
#[derive(Debug, Clone, PartialEq)]
pub struct CellStack {
    /// The layer names of the stack, in topological order.
    pub layers: Vec<String>,
    /// The chosen tile size, rendered (`"(60, 72)"` or `"full feature map"`).
    pub tile: String,
    /// The chosen overlap storing mode, rendered.
    pub mode: String,
    /// The stack's contribution to the optimization target.
    pub value: f64,
}

/// One evaluated `(accelerator, workload, fuse policy)` cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutcome {
    /// The accelerator's name.
    pub accelerator: String,
    /// The accelerator's structural fingerprint (the mapping-cache key
    /// space the cell evaluated in).
    pub fingerprint: u64,
    /// The workload's name.
    pub workload: String,
    /// The fuse policy the cell's schedule was searched under.
    pub policy: FusePolicy,
    /// The policy's unique axis label: its CLI keyword, suffixed `#2`, `#3`,
    /// … when several distinct configurations share a keyword (two
    /// different [`FusePolicy::Search`] setups, say).
    pub fuse: String,
    /// The cell's run label (`"workload @ accelerator [policy]"`), also
    /// carried on the inner engine run's [`SweepStats`].
    pub label: String,
    /// The schedule's value under the matrix's optimization target.
    pub value: f64,
    /// Total energy of the chosen schedule, in pJ.
    pub energy_pj: f64,
    /// Total latency of the chosen schedule, in cycles.
    pub latency_cycles: f64,
    /// Energy-delay product of the chosen schedule (pJ · cycles).
    pub edp: f64,
    /// Number of candidate stacks that entered the cell's schedule search.
    pub candidates: usize,
    /// Whether any search inside the cell exhausted its deterministic work
    /// budget ([`defines_mapping::Budget`]) and returned a best-so-far
    /// result (see [`crate::ScheduleResult::degraded`]). Always `false` under the
    /// default unlimited budget.
    pub degraded: bool,
    /// The panic message, if the cell's evaluation failed instead of
    /// producing a schedule — a caught panic, an injected fault, or a missed
    /// [`MatrixConfig::deadline`]. Failed cells carry NaN values (rendered
    /// `null` in JSON), an empty stack list, and are skipped by the ranking;
    /// sibling cells are bit-identical to a run without the failure.
    pub error: Option<String>,
    /// The chosen stack partition with its per-stack choices.
    pub stacks: Vec<CellStack>,
    /// Statistics of the cell's inner engine run. The per-cell wall-clock
    /// time is zeroed (it is non-deterministic and the shared cache skews it
    /// anyway), so cell records — including checkpoint lines — are exactly
    /// reproducible; the outer [`MatrixReport::stats`] keeps the real
    /// elapsed time.
    pub stats: SweepStats,
}

/// One row of the Fig.-13-style accelerator ranking: accelerators ordered by
/// the sum, over workloads, of their best cell value.
#[derive(Debug, Clone, PartialEq)]
pub struct RankingEntry {
    /// 1-based rank (1 = best).
    pub rank: usize,
    /// The accelerator's name.
    pub accelerator: String,
    /// Sum over workloads of the accelerator's best cell value.
    pub total_value: f64,
    /// `total_value` relative to the rank-1 accelerator (1.0 for the best).
    pub ratio_to_best: f64,
    /// Per workload (in axis order), the index into
    /// [`MatrixReport::cells`] of this accelerator's best *successful* cell.
    /// A workload whose cells all failed contributes no entry here and
    /// `f64::MAX` to `total_value`, ranking the accelerator last.
    pub best_cells: Vec<usize>,
}

/// The full result of a matrix run.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixReport {
    /// The optimization target every cell minimized.
    pub target: OptimizeTarget,
    /// The accelerator axis, in submission order.
    pub accelerators: Vec<String>,
    /// The workload axis, in submission order.
    pub workloads: Vec<String>,
    /// The fuse-policy axis (CLI keywords), in submission order.
    pub policies: Vec<String>,
    /// Every cell, accelerator-major (then workload, then policy) — exactly
    /// the submission order of the flattened engine run.
    pub cells: Vec<CellOutcome>,
    /// The accelerator ranking, best first.
    pub ranking: Vec<RankingEntry>,
    /// Statistics of the single flattened outer engine run (one point per
    /// cell), with the shared mapping cache's whole-run snapshot attached.
    pub stats: SweepStats,
    /// The merged statistics of all inner per-cell schedule searches: how
    /// many design points the matrix evaluated in total.
    pub inner_stats: SweepStats,
    /// Delta of the global telemetry metrics over this run (mapping-cache
    /// hit/miss/canonical counters, branch-and-bound prune counters, …).
    /// Empty unless the process enabled metrics recording
    /// ([`defines_telemetry::set_metrics`]) — the `matrix` CLI always does.
    pub metrics: MetricsSnapshot,
}

impl MatrixReport {
    /// Looks a cell up by its axis names (`policy` is the unique axis label
    /// listed in [`MatrixReport::policies`]).
    pub fn cell(&self, accelerator: &str, workload: &str, policy: &str) -> Option<&CellOutcome> {
        self.cells
            .iter()
            .find(|c| c.accelerator == accelerator && c.workload == workload && c.fuse == policy)
    }

    /// Renders the report as a markdown document: a Fig.-13-style ranking
    /// table (one row per accelerator), the per-cell grid, and the engine /
    /// cache statistics.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str("# DeFiNES case-study matrix\n\n");
        out.push_str(&format!(
            "- target: **{}**\n- grid: {} accelerators × {} workloads × {} fuse policies \
             = {} cells\n",
            self.target,
            self.accelerators.len(),
            self.workloads.len(),
            self.policies.len(),
            self.cells.len(),
        ));
        out.push_str(&format!(
            "- outer engine: {} cells evaluated in {:.1} ms on {} threads (one flattened \
             run); inner searches evaluated {} design points\n",
            self.stats.evaluated,
            self.stats.elapsed.as_secs_f64() * 1e3,
            self.stats.threads,
            self.inner_stats.evaluated,
        ));
        let failed = self.cells.iter().filter(|c| c.error.is_some()).count();
        let degraded = self.cells.iter().filter(|c| c.degraded).count();
        if failed > 0 || degraded > 0 {
            out.push_str(&format!(
                "- faults: {failed} cells failed, {degraded} budget-degraded\n"
            ));
        }
        if let Some(cache) = &self.stats.cache {
            out.push_str(&format!(
                "- shared mapping cache: {} sub-problems, {} hits / {} misses \
                 ({:.1}% hit rate, {} canonical)\n",
                cache.entries,
                cache.hits,
                cache.misses,
                cache.hit_rate() * 100.0,
                cache.canonical_hits,
            ));
        }
        if !self.metrics.is_empty() {
            let get = |name: &str| self.metrics.get(name).unwrap_or(0);
            let hits = get("mapping.cache.hits");
            let misses = get("mapping.cache.misses");
            let lookups = hits + misses;
            let hit_rate = if lookups > 0 {
                hits as f64 / lookups as f64
            } else {
                0.0
            };
            out.push_str(&format!(
                "- mapping cache (metrics): {hits} hits / {misses} misses ({:.1}% hit \
                 rate, {} canonical)\n",
                hit_rate * 100.0,
                get("mapping.cache.canonical_hits"),
            ));
            out.push_str(&format!(
                "- mapping search: {} orderings evaluated, {} pruned by bound, \
                 {} pruned by symmetry\n",
                get("search.orderings_evaluated"),
                get("search.pruned_bound"),
                get("search.pruned_symmetry"),
            ));
            out.push_str("\n## Metrics\n\n| metric | value |\n|---|---:|\n");
            for metric in &self.metrics.values {
                out.push_str(&format!("| `{}` | {} |\n", metric.name, metric.value));
            }
        }

        out.push_str(&format!(
            "\n## Ranking (best strategy per workload, Fig. 13 style)\n\n\
             | rank | accelerator | total {} | vs best | best strategy per workload |\n\
             |---|---|---|---|---|\n",
            self.target
        ));
        for entry in &self.ranking {
            let best: Vec<String> = entry
                .best_cells
                .iter()
                .map(|&idx| {
                    let cell = &self.cells[idx];
                    let detail = if cell.stacks.len() == 1 {
                        format!("tile {} {}", cell.stacks[0].tile, cell.stacks[0].mode)
                    } else {
                        format!("{} stacks", cell.stacks.len())
                    };
                    format!("{}: {} ({detail})", cell.workload, cell.fuse)
                })
                .collect();
            // Three decimals: case-study gaps are often under 1%, and a
            // rank-2 row printed as "1.00x" would read as tied with rank 1.
            out.push_str(&format!(
                "| {} | {} | {:.4e} | {:.3}x | {} |\n",
                entry.rank,
                entry.accelerator,
                entry.total_value,
                entry.ratio_to_best,
                best.join("; "),
            ));
        }

        out.push_str(&format!(
            "\n## Cells\n\n\
             | accelerator | workload | fuse | energy (mJ) | latency (Mcycles) | \
             EDP (pJ·cycles) | {} |\n|---|---|---|---|---|---|---|\n",
            self.target
        ));
        for cell in &self.cells {
            if cell.error.is_some() {
                out.push_str(&format!(
                    "| {} | {} | {} | — | — | — | — |\n",
                    cell.accelerator, cell.workload, cell.fuse,
                ));
                continue;
            }
            // A `*` marks budget-degraded cells (best-so-far, not optimum).
            let mark = if cell.degraded { "\\*" } else { "" };
            out.push_str(&format!(
                "| {} | {} | {} | {:.3} | {:.3} | {:.4e} | {:.4e}{mark} |\n",
                cell.accelerator,
                cell.workload,
                cell.fuse,
                cell.energy_pj / 1e9,
                cell.latency_cycles / 1e6,
                cell.edp,
                cell.value,
            ));
        }
        if failed > 0 {
            out.push_str("\n## Failed cells\n\n");
            for cell in self.cells.iter().filter(|c| c.error.is_some()) {
                out.push_str(&format!(
                    "- **{}**: {}\n",
                    cell.label,
                    cell.error.as_deref().unwrap_or(""),
                ));
            }
        }
        out
    }
}

impl Serialize for CellStack {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            (
                "layers".into(),
                Value::Array(self.layers.iter().map(|l| Value::Str(l.clone())).collect()),
            ),
            ("tile".into(), Value::Str(self.tile.clone())),
            ("mode".into(), Value::Str(self.mode.clone())),
            ("value".into(), Value::F64(self.value)),
        ])
    }
}

impl Serialize for CellOutcome {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("accelerator".into(), Value::Str(self.accelerator.clone())),
            ("fingerprint".into(), Value::U64(self.fingerprint)),
            ("workload".into(), Value::Str(self.workload.clone())),
            ("fuse".into(), Value::Str(self.fuse.clone())),
            // The full policy (Display form carries the Search parameters),
            // so report consumers can tell which configuration a label like
            // "search#2" stands for.
            ("policy".into(), Value::Str(self.policy.to_string())),
            ("label".into(), Value::Str(self.label.clone())),
            ("value".into(), Value::F64(self.value)),
            ("energy_pj".into(), Value::F64(self.energy_pj)),
            ("latency_cycles".into(), Value::F64(self.latency_cycles)),
            ("edp".into(), Value::F64(self.edp)),
            ("candidates".into(), Value::U64(self.candidates as u64)),
            ("degraded".into(), Value::Bool(self.degraded)),
            ("error".into(), self.error.to_value()),
            (
                "stacks".into(),
                Value::Array(self.stacks.iter().map(Serialize::to_value).collect()),
            ),
            ("stats".into(), self.stats.to_value()),
        ])
    }
}

impl Serialize for RankingEntry {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("rank".into(), Value::U64(self.rank as u64)),
            ("accelerator".into(), Value::Str(self.accelerator.clone())),
            ("total_value".into(), Value::F64(self.total_value)),
            ("ratio_to_best".into(), Value::F64(self.ratio_to_best)),
            (
                "best_cells".into(),
                Value::Array(
                    self.best_cells
                        .iter()
                        .map(|&i| Value::U64(i as u64))
                        .collect(),
                ),
            ),
        ])
    }
}

impl Serialize for MatrixReport {
    fn to_value(&self) -> Value {
        let names =
            |items: &[String]| Value::Array(items.iter().map(|n| Value::Str(n.clone())).collect());
        Value::Object(vec![
            ("target".into(), Value::Str(self.target.to_string())),
            ("accelerators".into(), names(&self.accelerators)),
            ("workloads".into(), names(&self.workloads)),
            ("policies".into(), names(&self.policies)),
            (
                "cells".into(),
                Value::Array(self.cells.iter().map(Serialize::to_value).collect()),
            ),
            (
                "ranking".into(),
                Value::Array(self.ranking.iter().map(Serialize::to_value).collect()),
            ),
            ("stats".into(), self.stats.to_value()),
            ("inner_stats".into(), self.inner_stats.to_value()),
            ("metrics".into(), self.metrics.to_value()),
        ])
    }
}

/// Checks an axis for emptiness and ambiguous (duplicate) names.
fn validate_axis(kind: &str, names: &[String]) -> Result<(), MatrixError> {
    if names.is_empty() {
        return Err(MatrixError::Config(format!("the {kind} axis is empty")));
    }
    let mut seen = std::collections::BTreeSet::new();
    for name in names {
        if !seen.insert(name.as_str()) {
            return Err(MatrixError::Config(format!(
                "duplicate {kind} '{name}': cells are keyed by name, so each {kind} \
                 may appear only once"
            )));
        }
    }
    Ok(())
}

/// Runs the full `{accelerators} × {workloads} × {policies}` grid as one
/// flattened engine run sharing one mapping cache, streaming each finished
/// cell to `on_cell` in completion order.
///
/// * `tile_grid` — the tile sizes every cell's schedule search draws from;
///   `None` uses each workload's default case-study grid
///   ([`crate::Explorer::default_tile_grid`]).
/// * `modes` — the overlap storing modes searched per stack.
/// * `target` — the scalar objective every cell minimizes, and the ranking
///   metric.
///
/// Cells are submitted accelerator-major (then workload, then policy), and
/// [`MatrixReport::cells`] preserves that order regardless of completion
/// order or thread count.
///
/// # Errors
///
/// Returns [`MatrixError::Config`] for empty or ambiguous axes and
/// [`MatrixError::Evaluation`] when a cell's workload/partition fails
/// upfront validation (the flattened run itself then never starts).
#[allow(clippy::too_many_arguments)]
pub fn run_matrix(
    accelerators: &[Accelerator],
    workloads: &[Network],
    policies: &[FusePolicy],
    tile_grid: Option<&[(u64, u64)]>,
    modes: &[OverlapMode],
    target: OptimizeTarget,
    config: &MatrixConfig,
    mut on_cell: impl FnMut(&CellOutcome),
) -> Result<MatrixReport, MatrixError> {
    let acc_names: Vec<String> = accelerators.iter().map(|a| a.name().to_string()).collect();
    let wl_names: Vec<String> = workloads.iter().map(|w| w.name().to_string()).collect();
    // Fuse-policy axis labels: the CLI keyword, suffixed `#2`, `#3`, … when
    // several *distinct* configurations share a keyword (e.g. two Search
    // setups with different spans). Truly identical policies would make
    // cells ambiguous and are rejected like any duplicate axis entry.
    let mut policy_names: Vec<String> = Vec::with_capacity(policies.len());
    for (i, policy) in policies.iter().enumerate() {
        if policies[..i].contains(policy) {
            return Err(MatrixError::Config(format!(
                "duplicate fuse policy '{}': cells are keyed by name, so each fuse policy \
                 may appear only once",
                policy.keyword()
            )));
        }
        let same_keyword = policies[..i]
            .iter()
            .filter(|p| p.keyword() == policy.keyword())
            .count();
        policy_names.push(if same_keyword == 0 {
            policy.keyword().to_string()
        } else {
            format!("{}#{}", policy.keyword(), same_keyword + 1)
        });
    }
    validate_axis("accelerator", &acc_names)?;
    validate_axis("workload", &wl_names)?;
    validate_axis("fuse policy", &policy_names)?;
    if modes.is_empty() {
        return Err(MatrixError::Config(
            "no overlap storing modes to search".into(),
        ));
    }

    // The flattened cell list, accelerator-major. Building a cell validates
    // it, so every error an evaluation could produce surfaces here, before
    // the checkpoint is touched or the engine starts.
    let mut points: Vec<(usize, usize, usize)> =
        Vec::with_capacity(accelerators.len() * workloads.len() * policies.len());
    for ai in 0..accelerators.len() {
        for wi in 0..workloads.len() {
            for pi in 0..policies.len() {
                points.push((ai, wi, pi));
            }
        }
    }
    let cell_index =
        |ai: usize, wi: usize, pi: usize| (ai * workloads.len() + wi) * policies.len() + pi;
    let cells = points
        .iter()
        .map(|&(ai, wi, pi)| {
            Cell::new(
                format!(
                    "{} @ {} [{}]",
                    wl_names[wi], acc_names[ai], policy_names[pi]
                ),
                &accelerators[ai],
                &workloads[wi],
                tile_grid,
                modes,
                target,
                &policies[pi],
            )
        })
        .collect::<Result<Vec<_>, EvaluationError>>()?;
    let runner = BatchConfig {
        engine: config.engine,
        cache: config.cache.clone(),
        fast_mapper: config.fast_mapper,
        budget: config.budget,
    };

    // ---- Checkpoint: resume completed cells, open the file for appends ----
    // The header binds the file to this exact run; anything that shapes cell
    // results (beyond the axes themselves) is folded into the fingerprint.
    let mapper_fingerprint = {
        let cfg = *batch::cost_model(&accelerators[0], &runner).mapper_config();
        let mut h = checkpoint::Fnv::new();
        h.write_u64(cfg.objective as u64);
        h.write_u64(cfg.max_orderings as u64);
        h.write_u64(cfg.budget.max_orderings);
        h.write_u64(cfg.budget.max_dp_nodes);
        h.finish()
    };
    let acc_keys: Vec<(String, u64)> = accelerators
        .iter()
        .map(|a| (a.name().to_string(), a.fingerprint()))
        .collect();
    // Per-workload tile grids: the caller's grid, or each workload's default.
    let grids: Vec<&[(u64, u64)]> = (0..workloads.len())
        .map(|wi| &*cells[cell_index(0, wi, 0)].tile_grid)
        .collect();
    let header = checkpoint::live_header(
        target,
        &acc_keys,
        &wl_names,
        policies,
        &policy_names,
        &grids,
        modes,
        mapper_fingerprint,
    );
    // Before the resume splice: the `fault.cells_resumed` increments below
    // must survive the report's since-delta.
    let metrics_before = defines_telemetry::snapshot();
    // Recorded cells are spliced straight into their slots; only the rest run.
    let mut slots: Vec<Option<CellOutcome>> = (0..points.len()).map(|_| None).collect();
    let mut journal: Option<Journal> = None;
    if let Some(path) = &config.checkpoint {
        let populated = std::fs::metadata(path)
            .map(|m| m.len() > 0)
            .unwrap_or(false);
        let file = journal.insert(Journal::open("checkpoint", path)?);
        if populated {
            let ckpt = checkpoint::load(path)?;
            ckpt.header.validate_against(&header)?;
            let on_grid = |names: &[String], name: &String| names.iter().position(|n| n == name);
            for v in &ckpt.cells {
                let cell =
                    checkpoint::cell_from_value(v, policies, &policy_names).map_err(|why| {
                        MatrixError::Checkpoint(format!("checkpoint '{}': {why}", path.display()))
                    })?;
                let slot = acc_keys
                    .iter()
                    .position(|(name, fp)| *name == cell.accelerator && *fp == cell.fingerprint)
                    .zip(on_grid(&wl_names, &cell.workload))
                    .zip(on_grid(&policy_names, &cell.fuse))
                    .map(|((ai, wi), pi)| cell_index(ai, wi, pi))
                    .ok_or_else(|| {
                        MatrixError::Checkpoint(format!(
                            "checkpoint '{}' records cell '{}' which is not on this grid",
                            path.display(),
                            cell.label
                        ))
                    })?;
                slots[slot] = Some(cell);
            }
            // Rewrites the valid prefix (appending after a torn tail would
            // corrupt the next line) and keeps appending from there.
            file.rewrite(std::iter::once(&header.to_value()).chain(&ckpt.cells))?;
        } else {
            file.append(&header.to_value())?;
        }
    }
    let resumed_cells = slots.iter().flatten().count();
    CELLS_RESUMED.add(resumed_cells as u64);
    let (pending_slot, pending): (Vec<usize>, Vec<Cell<'_>>) = cells
        .into_iter()
        .enumerate()
        .filter(|(slot, _)| slots[*slot].is_none())
        .unzip();
    let run_label = if resumed_cells == 0 {
        format!("matrix ({} cells)", pending.len())
    } else {
        format!("matrix ({} cells ({resumed_cells} resumed))", pending.len())
    };
    let cache_before = config.cache.stats();

    // The opt-in deadline only gates cell *starts* — it never reaches inside
    // a search, so completed cells stay bit-identical.
    // lint:allow(wall-clock, deadline gates cell starts only, never results)
    let started = std::time::Instant::now();
    let before_cell = || {
        failpoint!("matrix.cell");
        if let Some(deadline) = config.deadline {
            // A panic here is caught by the engine's per-point isolation and
            // becomes this cell's failure — never a lost run.
            // lint:allow(wall-clock, same opt-in deadline gate as above)
            if started.elapsed() >= deadline {
                panic!(
                    "matrix deadline of {:.3}s exceeded before the cell started",
                    deadline.as_secs_f64()
                );
            }
        }
    };

    let mut checkpoint_error: Option<MatrixError> = None;
    let stats = batch::run_cells(
        &pending,
        &runner,
        run_label,
        before_cell,
        |i, result: BatchOutcome| {
            let slot = pending_slot[i];
            let (ai, wi, pi) = points[slot];
            let label = pending[i].label.clone();
            // A failed cell (its evaluation panicked, caught by the engine's
            // per-point isolation): NaN values, no stacks, empty stats.
            // Siblings are bit-identical to a run without the failure.
            let failed = CellOutcome {
                accelerator: acc_names[ai].clone(),
                fingerprint: acc_keys[ai].1,
                workload: wl_names[wi].clone(),
                policy: policies[pi].clone(),
                fuse: policy_names[pi].clone(),
                label: label.clone(),
                value: f64::NAN,
                energy_pj: f64::NAN,
                latency_cycles: f64::NAN,
                edp: f64::NAN,
                candidates: 0,
                degraded: false,
                error: result.error,
                stacks: Vec::new(),
                stats: SweepStats {
                    label,
                    points: 0,
                    evaluated: 0,
                    pruned: 0,
                    failed: 0,
                    threads: 0,
                    elapsed: Duration::ZERO,
                    cache: None,
                },
            };
            let outcome = match result.schedule {
                Some(schedule) => {
                    let net = &workloads[wi];
                    let stacks = schedule
                        .choices
                        .iter()
                        .map(|choice| CellStack {
                            layers: choice
                                .stack
                                .layers
                                .iter()
                                .map(|&l| net.layer(l).name.clone())
                                .collect(),
                            tile: choice.tile.to_string(),
                            mode: choice.mode.to_string(),
                            value: choice.value,
                        })
                        .collect();
                    CellOutcome {
                        value: result.value,
                        energy_pj: schedule.cost.energy_pj,
                        latency_cycles: schedule.cost.latency_cycles,
                        edp: schedule.cost.edp(),
                        candidates: schedule.candidates,
                        degraded: schedule.degraded,
                        stacks,
                        stats: schedule.stats,
                        ..failed
                    }
                }
                None => {
                    CELLS_FAILED.incr();
                    failed
                }
            };
            // Failed cells are never checkpointed: resuming retries them.
            if outcome.error.is_none() {
                if let Some(j) = journal.as_mut() {
                    if let Err(e) = j.append(&outcome.to_value()) {
                        // Keep computing (the work is not lost for this
                        // process), but surface the first append failure
                        // after the run instead of silently dropping cells
                        // from the checkpoint.
                        checkpoint_error.get_or_insert(e.into());
                        journal = None;
                    }
                }
            }
            on_cell(&outcome);
            slots[slot] = Some(outcome);
        },
    );
    let stats = stats.with_cache(config.cache.stats().since(&cache_before));
    let metrics = defines_telemetry::snapshot().since(&metrics_before);
    if let Some(e) = checkpoint_error {
        return Err(e);
    }

    let cells: Vec<CellOutcome> = slots
        .into_iter()
        .map(|slot| slot.expect("every cell is either resumed or evaluated exactly once"))
        .collect();
    let inner_stats = SweepStats::merged("matrix cells", cells.iter().map(|c| &c.stats));

    // Fig.-13-style ranking: per accelerator, the best *successful* policy
    // per workload; accelerators ordered by the sum of those best values. An
    // accelerator with a workload whose cells all failed has no defensible
    // total — it ranks last (`f64::MAX`) with the starved workload omitted
    // from `best_cells`.
    let mut totals: Vec<(usize, f64, Vec<usize>)> = (0..accelerators.len())
        .map(|ai| {
            let mut total = 0.0;
            let mut starved = false;
            let mut best_cells = Vec::with_capacity(workloads.len());
            for wi in 0..workloads.len() {
                let best = (0..policies.len())
                    .map(|pi| cell_index(ai, wi, pi))
                    .filter(|&idx| cells[idx].error.is_none())
                    .min_by(|&a, &b| cells[a].value.total_cmp(&cells[b].value));
                match best {
                    Some(best) => {
                        total += cells[best].value;
                        best_cells.push(best);
                    }
                    None => starved = true,
                }
            }
            let total = if starved { f64::MAX } else { total };
            (ai, total, best_cells)
        })
        .collect();
    totals.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    let best_total = totals.first().map(|t| t.1).unwrap_or(0.0);
    let ranking = totals
        .into_iter()
        .enumerate()
        .map(|(i, (ai, total, best_cells))| RankingEntry {
            rank: i + 1,
            accelerator: acc_names[ai].clone(),
            total_value: total,
            ratio_to_best: if best_total > 0.0 {
                total / best_total
            } else {
                1.0
            },
            best_cells,
        })
        .collect();

    Ok(MatrixReport {
        target,
        accelerators: acc_names,
        workloads: wl_names,
        policies: policy_names,
        cells,
        ranking,
        stats,
        inner_stats,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use defines_arch::zoo;
    use defines_workload::{Layer, LayerDims, OpType};

    fn tiny_net(name: &str) -> Network {
        let mut net = Network::new(name);
        let a = net
            .add_layer(
                Layer::new("a", OpType::Conv, LayerDims::conv(8, 3, 32, 32, 3, 3)),
                &[],
            )
            .unwrap();
        net.add_layer(
            Layer::new("b", OpType::Conv, LayerDims::conv(8, 8, 30, 30, 3, 3)),
            &[a],
        )
        .unwrap();
        net
    }

    #[test]
    fn matrix_names_every_cell_in_one_run() {
        let accelerators = [zoo::meta_proto_like_df(), zoo::tpu_like_df()];
        let workloads = [tiny_net("tiny")];
        let policies = [FusePolicy::Auto, FusePolicy::SingleLayerStacks];
        let mut streamed = 0;
        let report = run_matrix(
            &accelerators,
            &workloads,
            &policies,
            Some(&[(8, 8), (30, 30)]),
            &OverlapMode::ALL,
            OptimizeTarget::Energy,
            &MatrixConfig::default(),
            |_| streamed += 1,
        )
        .unwrap();
        assert_eq!(report.cells.len(), 4);
        assert_eq!(streamed, 4);
        // The outer run is one flattened engine run: one point per cell.
        assert_eq!(report.stats.points, 4);
        assert_eq!(report.stats.evaluated, 4);
        assert!(
            report.stats.label.starts_with("matrix"),
            "{}",
            report.stats.label
        );
        // Every cell is named and retrievable by its axis names.
        for acc in ["Meta-proto-like DF", "TPU-like DF"] {
            for policy in ["auto", "single"] {
                let cell = report.cell(acc, "tiny", policy).unwrap();
                assert!(cell.energy_pj > 0.0);
                assert!(cell.latency_cycles > 0.0);
                assert!((cell.edp - cell.energy_pj * cell.latency_cycles).abs() < 1e-3);
                assert!(!cell.stacks.is_empty());
                assert_eq!(cell.label, format!("tiny @ {acc} [{policy}]"));
                // The inner engine run carries the cell label (plus the
                // schedule search's own candidate-count detail).
                assert!(
                    cell.stats.label.starts_with(&cell.label),
                    "{}",
                    cell.stats.label
                );
            }
        }
        // Submission order is accelerator-major.
        assert_eq!(report.cells[0].accelerator, "Meta-proto-like DF");
        assert_eq!(report.cells[0].policy.keyword(), "auto");
        assert_eq!(report.cells[1].policy.keyword(), "single");
        assert_eq!(report.cells[2].accelerator, "TPU-like DF");
        // The shared cache served the run.
        let cache = report.stats.cache.as_ref().unwrap();
        assert!(cache.hits > 0, "cells must share the mapping cache");
        // Inner stats aggregate the per-cell runs.
        assert_eq!(
            report.inner_stats.points,
            report.cells.iter().map(|c| c.stats.points).sum::<usize>()
        );
    }

    #[test]
    fn ranking_orders_accelerators_by_best_policy_total() {
        let accelerators = [zoo::meta_proto_like_df(), zoo::tpu_like()];
        let workloads = [tiny_net("tiny")];
        let policies = [FusePolicy::Auto];
        let report = run_matrix(
            &accelerators,
            &workloads,
            &policies,
            Some(&[(8, 8)]),
            &[OverlapMode::FullyCached],
            OptimizeTarget::Energy,
            &MatrixConfig::default(),
            |_| {},
        )
        .unwrap();
        assert_eq!(report.ranking.len(), 2);
        assert_eq!(report.ranking[0].rank, 1);
        assert!((report.ranking[0].ratio_to_best - 1.0).abs() < 1e-12);
        assert!(report.ranking[1].total_value >= report.ranking[0].total_value);
        assert!(report.ranking[1].ratio_to_best >= 1.0);
        // Each ranking row points at one best cell per workload, and that
        // cell belongs to the ranked accelerator.
        for entry in &report.ranking {
            assert_eq!(entry.best_cells.len(), 1);
            assert_eq!(
                report.cells[entry.best_cells[0]].accelerator,
                entry.accelerator
            );
        }
    }

    #[test]
    fn markdown_has_a_ranking_row_per_accelerator_and_json_names_cells() {
        let accelerators = [zoo::meta_proto_like_df(), zoo::edge_tpu_like_df()];
        let workloads = [tiny_net("tiny")];
        let report = run_matrix(
            &accelerators,
            &workloads,
            &[FusePolicy::Auto],
            Some(&[(8, 8)]),
            &[OverlapMode::FullyCached],
            OptimizeTarget::Energy,
            &MatrixConfig::default(),
            |_| {},
        )
        .unwrap();
        let md = report.to_markdown();
        assert!(md.contains("| 1 | "), "{md}");
        assert!(md.contains("| 2 | "), "{md}");
        assert!(md.contains("Meta-proto-like DF"), "{md}");
        assert!(md.contains("Edge-TPU-like DF"), "{md}");
        assert!(md.contains("## Ranking"), "{md}");
        assert!(md.contains("## Cells"), "{md}");

        let json = report.to_value().to_json();
        assert!(
            json.contains("\"accelerator\":\"Meta-proto-like DF\""),
            "{json}"
        );
        assert!(json.contains("\"workload\":\"tiny\""), "{json}");
        assert!(json.contains("\"fuse\":\"auto\""), "{json}");
        assert!(json.contains("\"ranking\""), "{json}");
    }

    #[test]
    fn matrix_result_is_thread_count_independent() {
        let accelerators = [zoo::meta_proto_like_df(), zoo::ascend_like_df()];
        let workloads = [tiny_net("tiny")];
        let policies = [FusePolicy::Auto, FusePolicy::FullNetwork];
        let run = |threads: usize| {
            let config = MatrixConfig {
                engine: EngineConfig::parallel().with_threads(threads),
                ..MatrixConfig::default()
            };
            run_matrix(
                &accelerators,
                &workloads,
                &policies,
                Some(&[(8, 8), (15, 15)]),
                &OverlapMode::ALL,
                OptimizeTarget::Energy,
                &config,
                |_| {},
            )
            .unwrap()
        };
        let sequential = run(1);
        let parallel = run(4);
        let values = |r: &MatrixReport| -> Vec<f64> { r.cells.iter().map(|c| c.value).collect() };
        assert_eq!(values(&sequential), values(&parallel));
        assert_eq!(
            sequential
                .ranking
                .iter()
                .map(|e| e.accelerator.clone())
                .collect::<Vec<_>>(),
            parallel
                .ranking
                .iter()
                .map(|e| e.accelerator.clone())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn distinct_search_configurations_get_unique_axis_labels() {
        // Two different Search setups share the "search" keyword; the axis
        // labels disambiguate them so every cell stays addressable.
        let accelerators = [zoo::meta_proto_like_df()];
        let workloads = [tiny_net("tiny")];
        let policies = [
            FusePolicy::search(),
            FusePolicy::Search {
                max_span: 1,
                weight_budget_factor: 0.5,
            },
        ];
        let report = run_matrix(
            &accelerators,
            &workloads,
            &policies,
            Some(&[(8, 8)]),
            &[OverlapMode::FullyCached],
            OptimizeTarget::Energy,
            &MatrixConfig::default(),
            |_| {},
        )
        .unwrap();
        assert_eq!(report.policies, vec!["search", "search#2"]);
        assert!(report
            .cell("Meta-proto-like DF", "tiny", "search")
            .is_some());
        assert!(report
            .cell("Meta-proto-like DF", "tiny", "search#2")
            .is_some());
        let json = report.to_value().to_json();
        assert!(json.contains("\"fuse\":\"search#2\""), "{json}");
    }

    #[test]
    fn empty_or_duplicate_axes_are_rejected() {
        let acc = [zoo::meta_proto_like_df()];
        let wl = [tiny_net("tiny")];
        let err = run_matrix(
            &[],
            &wl,
            &[FusePolicy::Auto],
            None,
            &OverlapMode::ALL,
            OptimizeTarget::Energy,
            &MatrixConfig::default(),
            |_| {},
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("accelerator axis is empty"),
            "{err}"
        );
        let err = run_matrix(
            &[zoo::meta_proto_like_df(), zoo::meta_proto_like_df()],
            &wl,
            &[FusePolicy::Auto],
            None,
            &OverlapMode::ALL,
            OptimizeTarget::Energy,
            &MatrixConfig::default(),
            |_| {},
        )
        .unwrap_err();
        assert!(err.to_string().contains("duplicate accelerator"), "{err}");
        let err = run_matrix(
            &acc,
            &wl,
            &[FusePolicy::Auto, FusePolicy::Auto],
            None,
            &OverlapMode::ALL,
            OptimizeTarget::Energy,
            &MatrixConfig::default(),
            |_| {},
        )
        .unwrap_err();
        assert!(err.to_string().contains("duplicate fuse policy"), "{err}");
        let err = run_matrix(
            &acc,
            &wl,
            &[FusePolicy::Auto],
            None,
            &[],
            OptimizeTarget::Energy,
            &MatrixConfig::default(),
            |_| {},
        )
        .unwrap_err();
        assert!(err.to_string().contains("modes"), "{err}");
        // An empty workload is a typed error before anything runs — also
        // with the default grid, which cannot be derived from it.
        let err = run_matrix(
            &acc,
            &[Network::new("empty")],
            &[FusePolicy::Auto],
            None,
            &OverlapMode::ALL,
            OptimizeTarget::Energy,
            &MatrixConfig::default(),
            |_| {},
        )
        .unwrap_err();
        assert_eq!(err, MatrixError::Evaluation(EvaluationError::EmptyNetwork));
    }

    /// A scratch checkpoint path unique to this process and test.
    fn scratch_checkpoint(test: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!(
            "defines-matrix-{}-{test}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        path
    }

    /// The deterministic slice of a report: everything except the outer
    /// engine stats and metrics delta, whose wall-clock / cross-run counters
    /// legitimately differ between an uninterrupted and a resumed run.
    fn deterministic_json(report: &MatrixReport) -> String {
        Value::Object(vec![
            ("cells".into(), report.cells.to_value()),
            ("ranking".into(), report.ranking.to_value()),
            ("inner_stats".into(), report.inner_stats.to_value()),
        ])
        .to_json()
    }

    #[test]
    fn checkpoint_resume_reproduces_the_uninterrupted_report_byte_for_byte() {
        let accelerators = [zoo::meta_proto_like_df(), zoo::tpu_like_df()];
        let workloads = [tiny_net("tiny")];
        let policies = [FusePolicy::Auto, FusePolicy::SingleLayerStacks];
        let run = |checkpoint: Option<std::path::PathBuf>| {
            let config = MatrixConfig {
                checkpoint,
                ..MatrixConfig::default()
            };
            run_matrix(
                &accelerators,
                &workloads,
                &policies,
                Some(&[(8, 8), (30, 30)]),
                &OverlapMode::ALL,
                OptimizeTarget::Energy,
                &config,
                |_| {},
            )
            .unwrap()
        };
        let uninterrupted = run(None);

        // Record a full run, then simulate a kill: keep the header and the
        // first two cell lines, with a torn (partially written) third.
        let path = scratch_checkpoint("resume");
        let recorded = run(Some(path.clone()));
        assert_eq!(
            deterministic_json(&recorded),
            deterministic_json(&uninterrupted),
            "recording a checkpoint must not change the report"
        );
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1 + 4, "header + one line per cell");
        let truncated = format!(
            "{}\n{}\n{}\n{}",
            lines[0],
            lines[1],
            lines[2],
            &lines[3][..lines[3].len() / 2]
        );
        std::fs::write(&path, truncated).unwrap();
        let ckpt = checkpoint::load(&path).unwrap();
        assert_eq!(ckpt.cells.len(), 2);
        assert!(ckpt.torn_tail, "the half line must be recognized as torn");

        // Resume: the two recorded cells are spliced in, the torn one and
        // the never-started one re-run, and the report is byte-identical.
        let resumed = run(Some(path.clone()));
        assert_eq!(
            deterministic_json(&resumed),
            deterministic_json(&uninterrupted)
        );
        // The resumed run only evaluated the two missing cells...
        assert_eq!(resumed.stats.points, 2);
        // ...and re-completed the checkpoint for the next resume.
        let ckpt = checkpoint::load(&path).unwrap();
        assert_eq!(ckpt.cells.len(), 4);
        assert!(!ckpt.torn_tail);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_from_a_different_grid_is_rejected() {
        let accelerators = [zoo::meta_proto_like_df()];
        let workloads = [tiny_net("tiny")];
        let path = scratch_checkpoint("mismatch");
        let run = |tile: u64, checkpoint: &std::path::Path| {
            let config = MatrixConfig {
                checkpoint: Some(checkpoint.to_path_buf()),
                ..MatrixConfig::default()
            };
            run_matrix(
                &accelerators,
                &workloads,
                &[FusePolicy::Auto],
                Some(&[(tile, tile)]),
                &[OverlapMode::FullyCached],
                OptimizeTarget::Energy,
                &config,
                |_| {},
            )
        };
        run(8, &path).unwrap();
        // Same axes, different tile grid: the grid fingerprint must refuse.
        let err = run(30, &path).unwrap_err();
        assert!(
            matches!(err, MatrixError::Checkpoint(_)),
            "expected a checkpoint error, got: {err}"
        );
        assert!(err.to_string().contains("grid configuration"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn expired_deadline_fails_cells_without_losing_the_run() {
        let accelerators = [zoo::meta_proto_like_df()];
        let workloads = [tiny_net("tiny")];
        let policies = [FusePolicy::Auto, FusePolicy::SingleLayerStacks];
        let config = MatrixConfig {
            // Already expired when the first cell starts: every cell fails,
            // but the run itself completes with structured errors.
            deadline: Some(Duration::ZERO),
            ..MatrixConfig::default()
        };
        let mut streamed = 0;
        let report = run_matrix(
            &accelerators,
            &workloads,
            &policies,
            Some(&[(8, 8)]),
            &[OverlapMode::FullyCached],
            OptimizeTarget::Energy,
            &config,
            |cell| {
                streamed += 1;
                assert!(cell.error.is_some());
            },
        )
        .unwrap();
        assert_eq!(streamed, 2);
        for cell in &report.cells {
            let error = cell
                .error
                .as_deref()
                .expect("every cell missed the deadline");
            assert!(error.contains("deadline"), "{error}");
            assert!(cell.value.is_nan());
            assert!(cell.stacks.is_empty());
        }
        assert_eq!(report.stats.failed, 2);
        // No successful cell anywhere: the accelerator ranks with MAX total
        // and no representative cells.
        assert_eq!(report.ranking.len(), 1);
        assert_eq!(report.ranking[0].total_value, f64::MAX);
        assert!(report.ranking[0].best_cells.is_empty());
        // The markdown renders the failures instead of numbers.
        let md = report.to_markdown();
        assert!(
            md.contains("- faults: 2 cells failed, 0 budget-degraded"),
            "{md}"
        );
        assert!(md.contains("## Failed cells"), "{md}");
        assert!(md.contains("| — | — | — | — |"), "{md}");
    }

    #[test]
    fn budgeted_matrix_flags_degraded_cells_and_stays_deterministic() {
        let accelerators = [zoo::meta_proto_like_df()];
        let workloads = [tiny_net("tiny")];
        let policies = [FusePolicy::Auto];
        let run = |budget: defines_mapping::Budget| {
            let config = MatrixConfig {
                budget,
                ..MatrixConfig::default()
            };
            run_matrix(
                &accelerators,
                &workloads,
                &policies,
                Some(&[(8, 8)]),
                &[OverlapMode::FullyCached],
                OptimizeTarget::Energy,
                &config,
                |_| {},
            )
            .unwrap()
        };
        let unlimited = run(defines_mapping::Budget::default());
        assert!(!unlimited.cells[0].degraded);
        // A one-ordering window degrades the search but never fails it.
        let starved = run(defines_mapping::Budget::orderings(1));
        assert!(starved.cells[0].degraded);
        assert!(starved.cells[0].error.is_none());
        assert!(starved.cells[0].value >= unlimited.cells[0].value);
        let md = starved.to_markdown();
        assert!(md.contains("budget-degraded"), "{md}");
    }

    #[test]
    fn file_loaded_accelerators_share_the_cache_with_builtins() {
        // Two matrix runs against one shared cache: the first evaluates the
        // builtin accelerator (populating the cache), the second its
        // JSON-round-tripped twin. The twin has the same fingerprint, so
        // its run must be answered entirely from the cache — zero new
        // misses — and produce the identical cell value.
        let builtin = zoo::meta_proto_like_df();
        let json = defines_arch::schema::to_json_pretty(&builtin).unwrap();
        let loaded = defines_arch::loader::from_json_str(&json).unwrap();
        assert_eq!(loaded.fingerprint(), builtin.fingerprint());

        let config = MatrixConfig::default();
        let workloads = [tiny_net("tiny")];
        let report = run_matrix(
            &[builtin],
            &workloads,
            &[FusePolicy::Auto],
            Some(&[(8, 8)]),
            &[OverlapMode::FullyCached],
            OptimizeTarget::Energy,
            &config,
            |_| {},
        )
        .unwrap();
        let misses_first = config.cache.stats().misses;
        assert!(misses_first > 0);

        // Evaluate the file-loaded twin against the same cache: everything
        // is answered from the shared cache (fingerprint-correct sharing).
        let report2 = run_matrix(
            &[loaded],
            &workloads,
            &[FusePolicy::Auto],
            Some(&[(8, 8)]),
            &[OverlapMode::FullyCached],
            OptimizeTarget::Energy,
            &config,
            |_| {},
        )
        .unwrap();
        assert_eq!(
            config.cache.stats().misses,
            misses_first,
            "the file-loaded twin must be answered entirely from the shared cache"
        );
        assert_eq!(report.cells[0].value, report2.cells[0].value);
    }
}

//! Design-space exploration: sweeps over tile sizes and overlap modes, best
//! single strategy, and per-stack best combinations.
//!
//! Since the `defines-engine` subsystem landed, the [`Explorer`] is a thin
//! definition of the DeFiNES design space on top of the generic
//! [`SweepEngine`]: design points fan out over a parallel work queue, the
//! LOMA mapping sub-problems are memoized through the model's
//! [`MappingCache`](defines_mapping::MappingCache), and dominated points are
//! skipped using the cheap lower bounds of [`crate::bounds`]. Results are
//! bit-identical to a sequential scan over
//! [`DfCostModel::evaluate_network`] (the oracle `tests/engine_parity.rs`
//! keeps), regardless of thread count.

use crate::backcalc::{stack_macs, StackGeometry};
use crate::bounds::StrategyBounds;
use crate::evaluate::{DfCostModel, EvaluationError};
use crate::fuse::{enumerate_candidates, optimal_partition, stack_span, FusePolicy};
use crate::result::{NetworkCost, StackCost, StackValue};
use crate::stack::{partition_into_stacks, FuseDepth, Stack};
use crate::strategy::{DfStrategy, OverlapMode, TileSize};
use defines_arch::Accelerator;
use defines_engine::{EngineConfig, FxBuildHasher, Outcome, SweepEngine, SweepRecord, SweepStats};
use defines_telemetry::span;
use defines_workload::Network;
use serde::Serialize;
use std::collections::HashSet;
use std::fmt;

/// A streamed record of the DeFiNES design space: one depth-first strategy
/// and its (possibly pruned) evaluation.
pub type DfSweepRecord = SweepRecord<DfStrategy, NetworkCost>;

/// What the exploration should minimize. Users of DeFiNES can pick their own
/// optimization target (Section V-A); these are the targets used throughout
/// the paper's case studies and SotA comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub enum OptimizeTarget {
    /// Total energy (the default for the case studies).
    #[default]
    Energy,
    /// Total latency.
    Latency,
    /// Energy-delay product.
    Edp,
    /// DRAM traffic only (the target of several SotA frameworks, Fig. 18(a)).
    DramAccess,
    /// Memory energy caused by activations only, ignoring weight traffic
    /// (Fig. 18(c)).
    ActivationEnergy,
}

impl OptimizeTarget {
    /// The target's keyword in the `target` vocabulary of the CLI flags and
    /// the daemon's request field.
    pub fn keyword(&self) -> &'static str {
        match self {
            OptimizeTarget::Energy => "energy",
            OptimizeTarget::Latency => "latency",
            OptimizeTarget::Edp => "edp",
            OptimizeTarget::DramAccess => "dram",
            OptimizeTarget::ActivationEnergy => "activation",
        }
    }

    /// Parses a target keyword: `energy`, `latency`, `edp`, `dram` or `activation`.
    ///
    /// # Errors
    ///
    /// Returns a message listing the valid keywords for an unknown input.
    pub fn from_keyword(name: &str) -> Result<Self, String> {
        match name {
            "energy" => Ok(OptimizeTarget::Energy),
            "latency" => Ok(OptimizeTarget::Latency),
            "edp" => Ok(OptimizeTarget::Edp),
            "dram" => Ok(OptimizeTarget::DramAccess),
            "activation" => Ok(OptimizeTarget::ActivationEnergy),
            other => Err(format!(
                "unknown target '{other}' (expected one of: energy, latency, edp, dram, activation)"
            )),
        }
    }

    /// The scalar value of this target for a network cost.
    pub fn value(&self, cost: &NetworkCost, acc: &Accelerator) -> f64 {
        match self {
            OptimizeTarget::Energy => cost.energy_pj,
            OptimizeTarget::Latency => cost.latency_cycles,
            OptimizeTarget::Edp => cost.edp(),
            OptimizeTarget::DramAccess => cost.dram_traffic_bytes(acc),
            OptimizeTarget::ActivationEnergy => cost.activation_energy_pj(),
        }
    }

    /// The scalar value of this target for a single stack cost.
    pub fn stack_value(&self, cost: &StackCost, acc: &Accelerator) -> f64 {
        match self {
            OptimizeTarget::Energy => cost.energy_pj,
            OptimizeTarget::Latency => cost.latency_cycles,
            OptimizeTarget::Edp => cost.energy_pj * cost.latency_cycles,
            OptimizeTarget::DramAccess => {
                let dram = acc.hierarchy().dram_id();
                cost.activation_access.level_total(dram).total_bytes()
                    + cost.weight_access.level_total(dram).total_bytes()
                    + cost.copy_access.level_total(dram).total_bytes()
            }
            OptimizeTarget::ActivationEnergy => cost.energy_summary.activation_memory_pj,
        }
    }
}

impl fmt::Display for OptimizeTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OptimizeTarget::Energy => "energy",
            OptimizeTarget::Latency => "latency",
            OptimizeTarget::Edp => "EDP",
            OptimizeTarget::DramAccess => "DRAM access",
            OptimizeTarget::ActivationEnergy => "activation energy",
        };
        f.write_str(s)
    }
}

/// One evaluated design point.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ExplorationResult {
    /// The strategy evaluated.
    pub strategy: DfStrategy,
    /// Its cost.
    pub cost: NetworkCost,
}

/// One stack of a searched schedule, with the (tile size, overlap mode)
/// chosen for it and its contribution to the optimization target.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StackChoice {
    /// The stack (layer ids in topological order).
    pub stack: Stack,
    /// The tile size chosen for the stack.
    pub tile: TileSize,
    /// The overlap storing mode chosen for the stack.
    pub mode: OverlapMode,
    /// The stack's value under the optimization target.
    pub value: f64,
}

/// The result of a full schedule search over all three axes
/// ([`Explorer::best_schedule`]): a stack partition together with the best
/// (tile size, overlap mode) per stack.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScheduleResult {
    /// The fuse policy the schedule was searched under.
    pub policy: FusePolicy,
    /// The chosen partition with its per-stack strategy choices, in stack
    /// (topological) order.
    pub choices: Vec<StackChoice>,
    /// The combined network cost of the schedule.
    pub cost: NetworkCost,
    /// Number of candidate stacks that entered the search (equals the number
    /// of partition stacks for the fixed-partition policies).
    pub candidates: usize,
    /// Statistics of the flattened engine run that evaluated the candidates.
    pub stats: SweepStats,
    /// Whether any part of the search ran out of its deterministic work
    /// budget ([`defines_mapping::Budget`]): a chosen stack's mapping search
    /// ([`NetworkCost::degraded`]) or the fuse-partition DP. The schedule is
    /// then the exact optimum of the searched subset only.
    pub degraded: bool,
}

impl ScheduleResult {
    /// The chosen stack partition, in topological order.
    pub fn partition(&self) -> Vec<&Stack> {
        self.choices.iter().map(|c| &c.stack).collect()
    }

    /// The chosen (tile size, overlap mode) per stack, in stack order.
    pub fn per_stack(&self) -> Vec<(TileSize, OverlapMode)> {
        self.choices.iter().map(|c| (c.tile, c.mode)).collect()
    }

    /// The schedule's value under an optimization target.
    pub fn value(&self, target: OptimizeTarget, acc: &Accelerator) -> f64 {
        target.value(&self.cost, acc)
    }
}

/// Design-space explorer over depth-first strategies for one network and one
/// accelerator, running on the parallel exploration engine.
#[derive(Debug)]
pub struct Explorer<'a> {
    model: &'a DfCostModel<'a>,
    engine: EngineConfig,
    /// Whether the pruning entry points hand the engine their lower bound.
    prune: bool,
    fuse: FuseDepth,
    run_label: Option<String>,
}

impl<'a> Explorer<'a> {
    /// Creates an explorer driving the given cost model, with one engine
    /// worker per available core, lower-bound pruning enabled for the
    /// best-strategy searches, and the automatic fuse-depth heuristic.
    pub fn new(model: &'a DfCostModel<'a>) -> Self {
        Self {
            model,
            engine: EngineConfig::parallel(),
            prune: true,
            fuse: FuseDepth::Auto,
            run_label: None,
        }
    }

    /// Returns a copy whose engine runs are labelled with the given string
    /// instead of the workload name. Multi-run drivers — the matrix runner's
    /// per-cell schedule searches — use this so each run's [`SweepStats`]
    /// names its (workload, accelerator, policy) cell rather than just the
    /// workload.
    pub(crate) fn with_run_label(mut self, label: impl Into<String>) -> Self {
        self.run_label = Some(label.into());
        self
    }

    /// The label applied to this explorer's engine runs: the explicit run
    /// label when one was set ([`Explorer::with_run_label`]), otherwise the
    /// workload name.
    fn engine_label(&self, net: &Network) -> String {
        self.run_label
            .clone()
            .unwrap_or_else(|| net.name().to_string())
    }

    /// Returns a copy whose sweep entry points ([`Explorer::sweep`],
    /// [`Explorer::sweep_streaming`], [`Explorer::best_single_strategy`])
    /// evaluate design points under the given fuse depth instead of
    /// [`FuseDepth::Auto`] — axis 3 of the design space. For *searching* that
    /// axis rather than fixing it, use [`Explorer::best_schedule`] with
    /// [`FusePolicy::Search`].
    pub fn with_fuse_depth(mut self, fuse: FuseDepth) -> Self {
        self.fuse = fuse;
        self
    }

    /// The fuse depth applied to this explorer's sweep design points.
    pub fn fuse_depth(&self) -> &FuseDepth {
        &self.fuse
    }

    /// Returns a copy using an explicit engine configuration (its worker
    /// count; pruning is [`Explorer::with_pruning`]'s alone).
    pub fn with_engine_config(mut self, config: EngineConfig) -> Self {
        self.engine = config;
        self
    }

    /// Returns a copy using a fixed number of engine worker threads.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.engine = self.engine.with_threads(threads);
        self
    }

    /// Returns a copy with lower-bound pruning switched on or off. Pruning
    /// applies to [`Explorer::best_single_strategy`] and
    /// [`Explorer::sweep_streaming`], which hand the engine their bound only
    /// when it is on; the exhaustive [`Explorer::sweep`] and the per-stack
    /// [`Explorer::best_schedule`] never hand it one.
    pub fn with_pruning(mut self, prune: bool) -> Self {
        self.prune = prune;
        self
    }

    /// The engine configuration this explorer runs with.
    pub fn engine_config(&self) -> &EngineConfig {
        &self.engine
    }

    /// The design points of a (tile sizes × overlap modes) sweep, in the
    /// canonical submission order (modes outer, tiles inner), under the
    /// explorer's fuse depth.
    fn design_points(&self, tile_sizes: &[(u64, u64)], modes: &[OverlapMode]) -> Vec<DfStrategy> {
        let mut points = Vec::with_capacity(tile_sizes.len() * modes.len());
        for &mode in modes {
            for &(tx, ty) in tile_sizes {
                points.push(
                    DfStrategy::depth_first(TileSize::new(tx, ty), mode)
                        .with_fuse(self.fuse.clone()),
                );
            }
        }
        points
    }

    /// Validates the sweep upfront and returns the explorer's fuse
    /// partition: every design point shares it, so checking it once surfaces
    /// the same [`EvaluationError`]s a per-point evaluation would — and
    /// guarantees the engine's evaluate closures cannot fail mid-sweep.
    fn validate_sweep(&self, net: &Network) -> Result<Vec<Stack>, EvaluationError> {
        let _span = span!("explore.validate");
        net.validate()?;
        let stacks = partition_into_stacks(net, self.model.accelerator(), &self.fuse);
        crate::evaluate::validate_stacks(net, &stacks)?;
        Ok(stacks)
    }

    /// Unwraps the cost of a record from an unpruned engine run. A `Failed`
    /// record (the engine caught a panic while evaluating the point)
    /// re-raises the structured error: explorer entry points promise
    /// complete result sets, so the failure propagates to the caller's
    /// isolation boundary — the matrix runner's per-cell catch — instead of
    /// being silently dropped.
    fn evaluated_cost<C>(outcome: Outcome<C>) -> C {
        match outcome {
            Outcome::Evaluated { cost, .. } => cost,
            Outcome::Pruned { .. } => {
                unreachable!("record carries no cost: the point was pruned")
            }
            Outcome::Failed { error } => panic!("design point evaluation failed: {error}"),
        }
    }

    /// The default tile-size grid used by case study 1 (Fig. 12): powers of
    /// roughly 4 along each axis, capped at the feature-map size.
    ///
    /// The grid is derived from the network's *sink* layer — the layer whose
    /// output nothing consumes — not from whichever layer happens to be last
    /// in insertion order: a JSON-loaded DAG may list an auxiliary head after
    /// the main output. With several sinks, the one with the largest output
    /// feature map wins (ties break to the earliest layer), since the grid
    /// must offer meaningful tile sizes for the dominant output.
    pub fn default_tile_grid(net: &Network) -> Vec<(u64, u64)> {
        let sink = net
            .sink_layers()
            .into_iter()
            .map(|id| {
                let d = &net.layer(id).dims;
                (d.ox * d.oy, id)
            })
            .reduce(|best, cur| if cur.0 > best.0 { cur } else { best })
            .map(|(_, id)| id)
            .expect("non-empty network");
        let sink = net.layer(sink);
        let (w, h) = (sink.dims.ox, sink.dims.oy);
        let xs = axis_points(w);
        let ys = axis_points(h);
        let mut grid = Vec::new();
        for &ty in &ys {
            for &tx in &xs {
                grid.push((tx, ty));
            }
        }
        grid
    }

    /// The one engine-driving body of the sweep family: validates the network
    /// and the explorer's fuse partition, builds the design points, the
    /// per-stack geometries and the lower bounds once, then streams one
    /// [`DfSweepRecord`] per point to `on_record` in completion order. Each
    /// point runs bound → evaluate: the bound — handed to the engine only
    /// when `prune` is set — counts the point's MACs from each stack's axis
    /// classes ([`stack_macs`]), and only the evaluation composes the tile
    /// types. Both look the classes up in the geometries' memos.
    fn run_sweep(
        &self,
        net: &Network,
        tile_sizes: &[(u64, u64)],
        modes: &[OverlapMode],
        target: OptimizeTarget,
        prune: bool,
        on_record: impl FnMut(DfSweepRecord),
    ) -> Result<SweepStats, EvaluationError> {
        let stacks = self.validate_sweep(net)?;
        let _span = span!("explore.sweep");
        let acc = self.model.accelerator();
        let points = self.design_points(tile_sizes, modes);
        let geometries: Vec<StackGeometry<'_>> = stacks
            .iter()
            .map(|stack| StackGeometry::new(net, stack))
            .collect();
        let bounds = StrategyBounds::new(net, acc, target);
        let bound = |s: &DfStrategy| {
            bounds.lower_bound_for_macs(|| {
                geometries
                    .iter()
                    .map(|geometry| stack_macs(geometry, s.tile, s.mode))
                    .sum()
            })
        };
        let engine = SweepEngine::new(self.engine).with_label(self.engine_label(net));
        // Snapshot so the attached cache statistics describe this run, not
        // the cache's lifetime (the model may have served earlier sweeps).
        let cache_before = self.model.mapping_cache().stats();
        let stats = engine.run(
            &points,
            &|s: &DfStrategy| self.model.evaluate_geometries(net, &geometries, s),
            &|_, c: &NetworkCost| target.value(c, acc),
            prune.then_some(&bound),
            on_record,
        );
        Ok(stats.with_cache(self.model.mapping_cache().stats().since(&cache_before)))
    }

    /// [`Explorer::run_sweep`] with the records returned in the canonical
    /// submission order instead of streamed.
    fn collect_sweep(
        &self,
        net: &Network,
        tile_sizes: &[(u64, u64)],
        modes: &[OverlapMode],
        target: OptimizeTarget,
        prune: bool,
    ) -> Result<Vec<DfSweepRecord>, EvaluationError> {
        let mut records = Vec::with_capacity(tile_sizes.len() * modes.len());
        self.run_sweep(net, tile_sizes, modes, target, prune, |r| records.push(r))?;
        records.sort_unstable_by_key(|r| r.index);
        Ok(records)
    }

    /// Evaluates every (tile size × overlap mode) combination on the engine.
    ///
    /// All points are fully evaluated (no pruning) and the results come back
    /// in the canonical submission order, bit-identical to a sequential scan
    /// over [`DfCostModel::evaluate_network`] regardless of thread count. An
    /// empty grid yields an empty result.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors (empty network, invalid stacks).
    pub fn sweep(
        &self,
        net: &Network,
        tile_sizes: &[(u64, u64)],
        modes: &[OverlapMode],
    ) -> Result<Vec<ExplorationResult>, EvaluationError> {
        let records = self.collect_sweep(net, tile_sizes, modes, OptimizeTarget::Energy, false)?;
        Ok(records
            .into_iter()
            .map(|r| ExplorationResult {
                strategy: r.point,
                cost: Self::evaluated_cost(r.outcome),
            })
            .collect())
    }

    /// Streams the sweep as it executes: one [`DfSweepRecord`] per design
    /// point in completion order, with best-so-far flags relative to the
    /// optimization target. Pruning follows [`Explorer::with_pruning`].
    /// Returns the sweep statistics.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors (empty network, invalid stacks).
    pub fn sweep_streaming(
        &self,
        net: &Network,
        tile_sizes: &[(u64, u64)],
        modes: &[OverlapMode],
        target: OptimizeTarget,
        on_record: impl FnMut(DfSweepRecord),
    ) -> Result<SweepStats, EvaluationError> {
        self.run_sweep(net, tile_sizes, modes, target, self.prune, on_record)
    }

    /// Finds the best single strategy over a sweep, according to the target.
    ///
    /// Runs on the engine with lower-bound pruning (unless switched off by
    /// [`Explorer::with_pruning`]): dominated points are skipped, but the
    /// result — including tie-breaking by submission order — is guaranteed
    /// identical to an exhaustive sequential scan, because pruning only drops
    /// points whose bound strictly exceeds an evaluated value.
    ///
    /// # Errors
    ///
    /// Returns [`EvaluationError::EmptyDesignSpace`] when `tile_sizes` or
    /// `modes` is empty and propagates evaluation errors.
    pub fn best_single_strategy(
        &self,
        net: &Network,
        tile_sizes: &[(u64, u64)],
        modes: &[OverlapMode],
        target: OptimizeTarget,
    ) -> Result<ExplorationResult, EvaluationError> {
        require_axis("tile size", tile_sizes)?;
        require_axis("overlap mode", modes)?;
        let records = self.collect_sweep(net, tile_sizes, modes, target, self.prune)?;
        let best = SweepEngine::best_record(records)
            .expect("a non-empty sweep evaluates at least one point");
        Ok(ExplorationResult {
            strategy: best.point,
            cost: Self::evaluated_cost(best.outcome),
        })
    }

    /// Searches the full three-axis design space for one schedule: the stack
    /// partition (axis 3, governed by the [`FusePolicy`]), and per stack the
    /// (tile size, overlap mode) pair (axes 1 and 2) minimizing the target.
    ///
    /// All `(candidate stack × tile size × overlap mode)` triples are
    /// flattened into a single engine run sharing the work queue and the
    /// model's mapping cache. Each is priced for its value only (a
    /// [`StackValue`]); each chosen stack is then priced in full once, for
    /// the schedule's [`NetworkCost`]. For the fixed-partition policies the candidate
    /// stacks *are* the partition; for [`FusePolicy::Search`] the candidates
    /// are spans of branch-free segments (plus single layers and the
    /// automatic partition's stacks, see
    /// [`enumerate_candidates`]) and the
    /// globally optimal partition is selected by shortest-path dynamic
    /// programming over the layer cut boundaries
    /// (`optimal_partition`, budgeted by the model's
    /// [`Budget::max_dp_nodes`](defines_mapping::Budget::max_dp_nodes)) —
    /// exact for the additive targets because
    /// `NetworkCost::from_stacks` sums per
    /// stack, and therefore never worse than the [`FusePolicy::Auto`]
    /// combination on the same grid.
    ///
    /// Under [`FusePolicy::Auto`] this is the paper's "best combination"
    /// (case study 2): the stacks are fixed by the automatic fuse-depth
    /// heuristic and each picks its own (tile size, overlap mode) — including
    /// the full-feature-map tile, i.e. falling back to layer-by-layer
    /// processing for weight-dominant stacks. Stacks exchange feature maps
    /// through DRAM under every policy, so the partitions under comparison
    /// are costed identically.
    ///
    /// # Errors
    ///
    /// Returns [`EvaluationError::EmptyNetwork`] for an empty workload,
    /// [`EvaluationError::EmptyDesignSpace`] for an empty `modes` (an empty
    /// `tile_sizes` still offers every stack its full-feature-map tile) and
    /// propagates DAG validation errors.
    pub fn best_schedule(
        &self,
        net: &Network,
        tile_sizes: &[(u64, u64)],
        modes: &[OverlapMode],
        target: OptimizeTarget,
        policy: &FusePolicy,
    ) -> Result<ScheduleResult, EvaluationError> {
        let _span = span!("explore.schedule");
        net.validate()?;
        require_axis("overlap mode", modes)?;
        let acc = self.model.accelerator();
        // A fixed policy's candidates are its partition, every one of them
        // chosen; `Search` lets the DP choose among overlapping candidates.
        let candidates = match policy {
            FusePolicy::Search => enumerate_candidates(net, acc),
            _ => {
                let fuse = policy.fixed_fuse_depth().expect("only Search is unfixed");
                let stacks = partition_into_stacks(net, acc, &fuse);
                crate::evaluate::validate_stacks(net, &stacks)?;
                stacks
            }
        };
        // One geometry per candidate stack, shared by all its (tile, mode)
        // evaluations and by the chosen stacks' report pricing.
        let geometries: Vec<StackGeometry<'_>> = candidates
            .iter()
            .map(|stack| StackGeometry::new(net, stack))
            .collect();
        let (best, stats) = self.best_choice_per_stack(net, &geometries, tile_sizes, modes, target);
        let (chosen, dp_degraded) = if *policy == FusePolicy::Search {
            let spans: Vec<(usize, usize)> = candidates.iter().map(stack_span).collect();
            let values: Vec<f64> = best.iter().map(|b| b.2).collect();
            let dp_budget = self.model.mapper_config().budget.max_dp_nodes;
            let (chosen, _, degraded) = optimal_partition(net.len(), &spans, &values, dp_budget)
                .expect("single-layer candidates make every partition boundary reachable");
            (chosen, degraded)
        } else {
            ((0..candidates.len()).collect(), false)
        };
        // The search kept each candidate's value only: each chosen stack is
        // priced in full once, on the report path.
        let dram = acc.hierarchy().dram_id();
        let mut choices = Vec::with_capacity(chosen.len());
        let mut stack_costs = Vec::with_capacity(chosen.len());
        for idx in chosen {
            let (tile, mode, value) = best[idx];
            let geometry = &geometries[idx];
            stack_costs.push(self.model.reprice_stack(geometry, tile, mode, dram, dram));
            choices.push(StackChoice {
                stack: geometry.stack().clone(),
                tile,
                mode,
                value,
            });
        }
        let cost = NetworkCost::from_stacks(stack_costs);
        Ok(ScheduleResult {
            policy: *policy,
            choices,
            degraded: dp_degraded || cost.degraded,
            cost,
            candidates: candidates.len(),
            stats,
        })
    }

    /// The tile-size candidates submitted for one stack: the caller's grid
    /// plus the full-feature-map tile, deduplicated by their effective
    /// (clamped) extent on the stack's output — a grid already containing the
    /// full tile would otherwise evaluate it twice and shift the documented
    /// tie-break order away from "earliest candidate".
    fn stack_tile_candidates(
        net: &Network,
        stack: &Stack,
        tile_sizes: &[(u64, u64)],
    ) -> Vec<TileSize> {
        let sink = net.layer(stack.last_layer());
        let (w, h) = (sink.dims.ox, sink.dims.oy);
        let mut seen: HashSet<_, FxBuildHasher> =
            HashSet::with_capacity_and_hasher(tile_sizes.len() + 1, FxBuildHasher::default());
        tile_sizes
            .iter()
            .map(|&(tx, ty)| TileSize::new(tx, ty))
            .chain(std::iter::once(TileSize::full()))
            .filter(|tile| seen.insert(tile.clamped(w, h)))
            .collect()
    }

    /// Prices every `(stack, tile, mode)` triple on the value path in one
    /// engine run and returns, per stack (one geometry each), the choice
    /// minimizing the target and its value (ties resolve to the earliest
    /// candidate, matching a sequential scan) along with the run
    /// statistics. The stacks need not form a partition — the fuse-depth
    /// search passes overlapping candidates.
    fn best_choice_per_stack(
        &self,
        net: &Network,
        geometries: &[StackGeometry<'_>],
        tile_sizes: &[(u64, u64)],
        modes: &[OverlapMode],
        target: OptimizeTarget,
    ) -> (Vec<(TileSize, OverlapMode, f64)>, SweepStats) {
        let _span = span!("explore.stack_search");
        let dram = self.model.accelerator().hierarchy().dram_id();

        // Flatten every (stack, tile, mode) candidate into one engine run so
        // all stacks' candidates share the work queue and the mapping cache.
        let mut points: Vec<(usize, TileSize, OverlapMode)> = Vec::new();
        for (stack_idx, geometry) in geometries.iter().enumerate() {
            for tile in Self::stack_tile_candidates(net, geometry.stack(), tile_sizes) {
                for &mode in modes {
                    points.push((stack_idx, tile, mode));
                }
            }
        }

        let engine = SweepEngine::new(self.engine).with_label(format!(
            "{} ({} stack candidates)",
            self.engine_label(net),
            geometries.len()
        ));
        // Snapshot so the attached cache statistics describe this run alone.
        let cache_before = self.model.mapping_cache().stats();
        let (records, stats) = engine.run_collect(
            &points,
            &|&(stack_idx, tile, mode): &(usize, TileSize, OverlapMode)| {
                self.model
                    .stack_value_with_geometry(&geometries[stack_idx], tile, mode, dram, dram)
            },
            &|_, v: &StackValue| v.value(target),
            None::<&fn(&(usize, TileSize, OverlapMode)) -> f64>,
        );
        let stats = stats.with_cache(self.model.mapping_cache().stats().since(&cache_before));

        // Per stack, pick the candidate with the minimal target value; ties
        // resolve to the earliest candidate, matching a sequential scan.
        let mut best: Vec<Option<(TileSize, OverlapMode, f64)>> = vec![None; geometries.len()];
        for record in records {
            let (stack_idx, tile, mode) = record.point;
            let value = match record.outcome {
                Outcome::Evaluated { value, .. } => value,
                Outcome::Pruned { .. } => unreachable!("combination search never prunes"),
                Outcome::Failed { error } => panic!("design point evaluation failed: {error}"),
            };
            let slot = &mut best[stack_idx];
            if slot.is_none_or(|(_, _, best_value)| value < best_value) {
                *slot = Some((tile, mode, value));
            }
        }
        let best = best
            .into_iter()
            .map(|slot| slot.expect("at least one candidate evaluated per stack"))
            .collect();
        (best, stats)
    }

    /// Evaluates the canonical single-layer and layer-by-layer baselines.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn baselines(&self, net: &Network) -> Result<(NetworkCost, NetworkCost), EvaluationError> {
        let sl = self
            .model
            .evaluate_network(net, &DfStrategy::single_layer())?;
        let lbl = self
            .model
            .evaluate_network(net, &DfStrategy::layer_by_layer())?;
        Ok((sl, lbl))
    }
}

/// Rejects an empty design-space axis where the caller promises one best
/// point, naming the axis.
fn require_axis<T>(axis: &'static str, values: &[T]) -> Result<(), EvaluationError> {
    if values.is_empty() {
        return Err(EvaluationError::EmptyDesignSpace { axis });
    }
    Ok(())
}

/// The tile-size sampling points along one axis used by the default grid:
/// 1, 4, then roughly quarter / half / full of the feature-map extent.
fn axis_points(extent: u64) -> Vec<u64> {
    let mut points = vec![1u64, 4];
    for divisor in [16, 8, 2, 1] {
        let p = (extent / divisor).max(1);
        points.push(p);
    }
    points.sort_unstable();
    points.dedup();
    points.retain(|&p| p <= extent);
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use defines_arch::zoo;
    use defines_workload::{Layer, LayerDims, OpType};

    fn tiny_net() -> Network {
        let mut net = Network::new("tiny");
        let a = net
            .add_layer(
                Layer::new("a", OpType::Conv, LayerDims::conv(8, 3, 48, 48, 3, 3)),
                &[],
            )
            .unwrap();
        let _ = net
            .add_layer(
                Layer::new("b", OpType::Conv, LayerDims::conv(8, 8, 46, 46, 3, 3)),
                &[a],
            )
            .unwrap();
        net
    }

    /// The engine's reference: one thread, no engine, no pruning — a plain
    /// scan over [`DfCostModel::evaluate_network`] in submission order.
    fn sequential_reference(
        model: &DfCostModel<'_>,
        fuse: &FuseDepth,
        net: &Network,
        tiles: &[(u64, u64)],
        modes: &[OverlapMode],
    ) -> Vec<ExplorationResult> {
        let mut out = Vec::new();
        for &mode in modes {
            for &(tx, ty) in tiles {
                let strategy =
                    DfStrategy::depth_first(TileSize::new(tx, ty), mode).with_fuse(fuse.clone());
                let cost = model.evaluate_network(net, &strategy).unwrap();
                out.push(ExplorationResult { strategy, cost });
            }
        }
        out
    }

    /// The per-stack best combination under the automatic partition.
    fn auto_schedule(
        explorer: &Explorer<'_>,
        net: &Network,
        tiles: &[(u64, u64)],
    ) -> ScheduleResult {
        explorer
            .best_schedule(
                net,
                tiles,
                &OverlapMode::ALL,
                OptimizeTarget::Energy,
                &FusePolicy::Auto,
            )
            .unwrap()
    }

    #[test]
    fn axis_points_are_sorted_unique_and_bounded() {
        let p = axis_points(960);
        assert!(p.windows(2).all(|w| w[0] < w[1]));
        assert!(p.iter().all(|&x| x <= 960));
        assert!(p.contains(&1) && p.contains(&960));
        assert_eq!(axis_points(3), vec![1, 3]);
    }

    #[test]
    fn sweep_covers_all_points() {
        let acc = zoo::meta_proto_like_df();
        let model = DfCostModel::new(&acc).with_fast_mapper();
        let explorer = Explorer::new(&model);
        let net = tiny_net();
        let results = explorer
            .sweep(&net, &[(8, 8), (16, 16)], &OverlapMode::ALL)
            .unwrap();
        assert_eq!(results.len(), 6);
        assert!(results.iter().all(|r| r.cost.energy_pj > 0.0));
    }

    #[test]
    fn best_single_strategy_minimizes_target() {
        let acc = zoo::meta_proto_like_df();
        let model = DfCostModel::new(&acc).with_fast_mapper();
        let explorer = Explorer::new(&model);
        let net = tiny_net();
        let tiles = [(8, 8), (16, 16), (46, 46)];
        let best = explorer
            .best_single_strategy(&net, &tiles, &OverlapMode::ALL, OptimizeTarget::Energy)
            .unwrap();
        let all = explorer.sweep(&net, &tiles, &OverlapMode::ALL).unwrap();
        for r in &all {
            assert!(best.cost.energy_pj <= r.cost.energy_pj + 1e-6);
        }
    }

    #[test]
    fn latency_and_energy_targets_can_differ() {
        let acc = zoo::meta_proto_like_df();
        let model = DfCostModel::new(&acc).with_fast_mapper();
        let explorer = Explorer::new(&model);
        let net = tiny_net();
        let tiles = [(8, 8), (46, 46)];
        let e = explorer
            .best_single_strategy(&net, &tiles, &OverlapMode::ALL, OptimizeTarget::Energy)
            .unwrap();
        let l = explorer
            .best_single_strategy(&net, &tiles, &OverlapMode::ALL, OptimizeTarget::Latency)
            .unwrap();
        assert!(l.cost.latency_cycles <= e.cost.latency_cycles + 1e-6);
        assert!(e.cost.energy_pj <= l.cost.energy_pj + 1e-6);
    }

    #[test]
    fn best_combination_is_not_worse_than_best_single() {
        let acc = zoo::meta_proto_like_df();
        let model = DfCostModel::new(&acc).with_fast_mapper();
        let explorer = Explorer::new(&model);
        let net = tiny_net();
        let tiles = [(8, 8), (16, 16)];
        let single = explorer
            .best_single_strategy(&net, &tiles, &OverlapMode::ALL, OptimizeTarget::Energy)
            .unwrap();
        let combo = auto_schedule(&explorer, &net, &tiles);
        // The combination search has at least the single strategies available
        // per stack, so it can only match or improve.
        assert!(combo.cost.energy_pj <= single.cost.energy_pj * 1.01);
        assert_eq!(combo.per_stack().len(), combo.cost.stacks.len());
    }

    #[test]
    fn engine_sweep_matches_sequential_bit_for_bit() {
        let acc = zoo::meta_proto_like_df();
        let model = DfCostModel::new(&acc).with_fast_mapper();
        let net = tiny_net();
        let tiles = [(8, 8), (16, 16), (46, 46)];
        for threads in [1, 4] {
            let explorer = Explorer::new(&model).with_threads(threads);
            let parallel = explorer.sweep(&net, &tiles, &OverlapMode::ALL).unwrap();
            let sequential =
                sequential_reference(&model, &FuseDepth::Auto, &net, &tiles, &OverlapMode::ALL);
            assert_eq!(parallel, sequential, "threads = {threads}");
        }
    }

    #[test]
    fn pruned_best_matches_unpruned_best() {
        let acc = zoo::meta_proto_like_df();
        let model = DfCostModel::new(&acc).with_fast_mapper();
        let net = tiny_net();
        let tiles = [(1, 1), (4, 4), (8, 8), (46, 46)];
        for target in [
            OptimizeTarget::Energy,
            OptimizeTarget::Latency,
            OptimizeTarget::Edp,
        ] {
            let pruned = Explorer::new(&model)
                .with_pruning(true)
                .best_single_strategy(&net, &tiles, &OverlapMode::ALL, target)
                .unwrap();
            let exhaustive = Explorer::new(&model)
                .with_pruning(false)
                .best_single_strategy(&net, &tiles, &OverlapMode::ALL, target)
                .unwrap();
            assert_eq!(pruned, exhaustive, "target {target}");
        }
    }

    #[test]
    fn streaming_sweep_reports_every_point() {
        let acc = zoo::meta_proto_like_df();
        let model = DfCostModel::new(&acc).with_fast_mapper();
        let net = tiny_net();
        let tiles = [(8, 8), (16, 16)];
        let explorer = Explorer::new(&model).with_pruning(false);
        let mut seen = Vec::new();
        let stats = explorer
            .sweep_streaming(
                &net,
                &tiles,
                &OverlapMode::ALL,
                OptimizeTarget::Energy,
                |r| {
                    seen.push(r.index);
                },
            )
            .unwrap();
        assert_eq!(stats.points, 6);
        assert_eq!(stats.evaluated, 6);
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
    }

    /// An engine configuration sets the worker count only: a sequential one
    /// prunes exactly like a default explorer at one thread.
    #[test]
    fn sequential_engine_config_keeps_pruning_on() {
        let acc = zoo::meta_proto_like_df();
        let model = DfCostModel::new(&acc).with_fast_mapper();
        let net = defines_workload::models::fsrcnn();
        // The best tile first, so the worse ones after it can be pruned.
        let tiles = [(60, 72), (1, 1), (4, 4), (960, 540)];
        let run = |explorer: Explorer<'_>| {
            let mut values = Vec::new();
            let stats = explorer
                .sweep_streaming(
                    &net,
                    &tiles,
                    &OverlapMode::ALL,
                    OptimizeTarget::Energy,
                    |r| values.push((r.index, r.value().map(f64::to_bits))),
                )
                .unwrap();
            (stats.evaluated, stats.pruned, values)
        };
        let default = run(Explorer::new(&model).with_threads(1));
        let sequential = run(Explorer::new(&model).with_engine_config(EngineConfig::sequential()));
        assert!(default.1 > 0, "the default explorer prunes this grid");
        assert_eq!(sequential, default);
    }

    #[test]
    fn default_tile_grid_is_6_by_6_for_fsrcnn_like_outputs() {
        let net = defines_workload::models::fsrcnn();
        let grid = Explorer::default_tile_grid(&net);
        assert_eq!(grid.len(), 36);
        assert!(grid.contains(&(960, 540)));
        assert!(grid.contains(&(1, 1)));
    }

    /// The default grid must follow the network's real sink, not the
    /// insertion order: here a tiny auxiliary head is added *after* the large
    /// main output, so `layers().last()` points at the wrong feature map.
    #[test]
    fn default_tile_grid_follows_largest_sink_not_insertion_order() {
        let mut net = Network::new("aux-head-last");
        let trunk = net
            .add_layer(
                Layer::new("trunk", OpType::Conv, LayerDims::conv(8, 3, 128, 128, 3, 3)),
                &[],
            )
            .unwrap();
        let _main = net
            .add_layer(
                Layer::new("main", OpType::Conv, LayerDims::conv(8, 8, 128, 128, 3, 3)),
                &[trunk],
            )
            .unwrap();
        let _aux = net
            .add_layer(
                Layer::new("aux", OpType::Conv, LayerDims::conv(4, 8, 4, 4, 1, 1)),
                &[trunk],
            )
            .unwrap();
        let grid = Explorer::default_tile_grid(&net);
        // Derived from the 128x128 main output, not the 4x4 aux head.
        assert!(grid.contains(&(128, 128)), "grid: {grid:?}");
        assert!(grid.iter().any(|&(tx, ty)| tx > 4 && ty > 4));
    }

    /// A grid that already contains the stack's full-feature-map tile must
    /// not evaluate the appended `TileSize::full()` a second time.
    #[test]
    fn stack_tile_candidates_dedup_by_clamped_extent() {
        let net = tiny_net();
        let stack = Stack::new(net.layer_ids().collect());
        // The sink is 46x46: (46, 46), (64, 64) and full() all clamp to the
        // same extent, so only the first survives.
        let tiles = [(8, 8), (46, 46), (64, 64)];
        let candidates = Explorer::stack_tile_candidates(&net, &stack, &tiles);
        assert_eq!(candidates, vec![TileSize::new(8, 8), TileSize::new(46, 46)]);
        // Without a full-covering grid entry, full() is appended.
        let candidates = Explorer::stack_tile_candidates(&net, &stack, &[(8, 8)]);
        assert_eq!(candidates, vec![TileSize::new(8, 8), TileSize::full()]);
    }

    #[test]
    fn best_combination_unaffected_by_duplicate_full_tile_in_grid() {
        let acc = zoo::meta_proto_like_df();
        let model = DfCostModel::new(&acc).with_fast_mapper();
        let explorer = Explorer::new(&model);
        let net = tiny_net();
        let without = auto_schedule(&explorer, &net, &[(8, 8)]);
        let with_dup = auto_schedule(&explorer, &net, &[(8, 8), (46, 46)]);
        // (46, 46) covers the whole 46x46 output, i.e. it *is* the full tile:
        // the two grids span the same design space and must agree on cost.
        assert_eq!(without.cost.energy_pj, with_dup.cost.energy_pj);
    }

    #[test]
    fn best_schedule_search_is_never_worse_than_auto_combination() {
        let acc = zoo::meta_proto_like_df();
        let model = DfCostModel::new(&acc).with_fast_mapper();
        let explorer = Explorer::new(&model);
        let net = tiny_net();
        let tiles = [(8, 8), (16, 16)];
        let auto = auto_schedule(&explorer, &net, &tiles);
        let searched = explorer
            .best_schedule(
                &net,
                &tiles,
                &OverlapMode::ALL,
                OptimizeTarget::Energy,
                &FusePolicy::search(),
            )
            .unwrap();
        assert!(searched.cost.energy_pj <= auto.cost.energy_pj * (1.0 + 1e-9));
        // The chosen partition covers every layer exactly once, in order.
        let covered: Vec<_> = searched
            .partition()
            .iter()
            .flat_map(|s| s.layers.clone())
            .collect();
        let expected: Vec<_> = net.layer_ids().collect();
        assert_eq!(covered, expected);
        assert_eq!(searched.choices.len(), searched.per_stack().len());
        assert!(searched.candidates >= searched.choices.len());
        assert!(searched.stats.evaluated > 0);
    }

    #[test]
    fn best_schedule_fixed_policies_use_their_partitions() {
        let acc = zoo::meta_proto_like_df();
        let model = DfCostModel::new(&acc).with_fast_mapper();
        let explorer = Explorer::new(&model);
        let net = tiny_net();
        let tiles = [(8, 8)];
        let single = explorer
            .best_schedule(
                &net,
                &tiles,
                &OverlapMode::ALL,
                OptimizeTarget::Energy,
                &FusePolicy::SingleLayerStacks,
            )
            .unwrap();
        assert_eq!(single.choices.len(), net.len());
        assert!(single.partition().iter().all(|s| s.len() == 1));
        let full = explorer
            .best_schedule(
                &net,
                &tiles,
                &OverlapMode::ALL,
                OptimizeTarget::Energy,
                &FusePolicy::FullNetwork,
            )
            .unwrap();
        assert_eq!(full.choices.len(), 1);
        assert_eq!(full.partition()[0].len(), net.len());
        // The searched schedule can only match or beat both fixed policies.
        let searched = explorer
            .best_schedule(
                &net,
                &tiles,
                &OverlapMode::ALL,
                OptimizeTarget::Energy,
                &FusePolicy::search(),
            )
            .unwrap();
        assert!(searched.cost.energy_pj <= single.cost.energy_pj * (1.0 + 1e-9));
        assert!(searched.cost.energy_pj <= full.cost.energy_pj * (1.0 + 1e-9));
    }

    #[test]
    fn sweep_respects_explorer_fuse_depth() {
        let acc = zoo::meta_proto_like_df();
        let model = DfCostModel::new(&acc).with_fast_mapper();
        let net = tiny_net();
        let tiles = [(16, 16)];
        let explorer = Explorer::new(&model).with_fuse_depth(FuseDepth::SingleLayerStacks);
        assert_eq!(explorer.fuse_depth(), &FuseDepth::SingleLayerStacks);
        let results = explorer
            .sweep(&net, &tiles, &[OverlapMode::FullyCached])
            .unwrap();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].strategy.fuse, FuseDepth::SingleLayerStacks);
        // Every layer became its own stack in the evaluated cost.
        assert_eq!(results[0].cost.stacks.len(), net.len());
        // And the sequential reference path agrees bit for bit.
        let sequential = sequential_reference(
            &model,
            explorer.fuse_depth(),
            &net,
            &tiles,
            &[OverlapMode::FullyCached],
        );
        assert_eq!(results, sequential);
    }

    /// Every target, every candidate of the fuse-depth search on every zoo
    /// net, all three modes: the value path's `StackValue` reads the same
    /// bits as `stack_value` of the report path's `StackCost`, and
    /// `best_schedule` returns what an exhaustive report-path scan over the
    /// same candidates chooses, with the same values and cost.
    #[test]
    fn stack_values_equal_the_report_path_bit_for_bit() {
        const TARGETS: [OptimizeTarget; 5] = [
            OptimizeTarget::Energy,
            OptimizeTarget::Latency,
            OptimizeTarget::Edp,
            OptimizeTarget::DramAccess,
            OptimizeTarget::ActivationEnergy,
        ];
        let acc = zoo::meta_proto_like_df();
        let model = DfCostModel::new(&acc).with_fast_mapper();
        let explorer = Explorer::new(&model);
        let dram = acc.hierarchy().dram_id();
        let tiles = [(16, 16)];
        let mut compared = 0;
        for name in defines_workload::models::names() {
            let net = defines_workload::models::by_name(name).expect("zoo net");
            let candidates = enumerate_candidates(&net, &acc);
            // Per candidate stack, its (tile, mode) choices in the search's
            // order, each with its report-path cost.
            let mut costs: Vec<Vec<(TileSize, OverlapMode, StackCost)>> = Vec::new();
            for stack in &candidates {
                let geometry = StackGeometry::new(&net, stack);
                let mut choices = Vec::new();
                for tile in Explorer::stack_tile_candidates(&net, stack, &tiles) {
                    for mode in OverlapMode::ALL {
                        let value =
                            model.stack_value_with_geometry(&geometry, tile, mode, dram, dram);
                        let cost = model.evaluate_stack(&net, stack, tile, mode, dram, dram);
                        assert_eq!((value.macs, value.degraded), (cost.macs, cost.degraded));
                        for target in TARGETS {
                            assert_eq!(
                                value.value(target).to_bits(),
                                target.stack_value(&cost, &acc).to_bits(),
                                "{name} {stack:?} {tile} {mode} {target}"
                            );
                            compared += 1;
                        }
                        choices.push((tile, mode, cost));
                    }
                }
                costs.push(choices);
            }
            for target in TARGETS {
                // The exhaustive scan: the first minimal choice per stack,
                // then the same DP over the candidates' values.
                let best: Vec<&(TileSize, OverlapMode, StackCost)> = costs
                    .iter()
                    .map(|choices| {
                        choices
                            .iter()
                            .reduce(|best, c| {
                                let value = |c: &(_, _, StackCost)| target.stack_value(&c.2, &acc);
                                if value(c) < value(best) {
                                    c
                                } else {
                                    best
                                }
                            })
                            .expect("every stack has a choice")
                    })
                    .collect();
                let values: Vec<f64> = best
                    .iter()
                    .map(|c| target.stack_value(&c.2, &acc))
                    .collect();
                let spans: Vec<(usize, usize)> = candidates.iter().map(stack_span).collect();
                let (chosen, _, _) =
                    optimal_partition(net.len(), &spans, &values, 0).expect("a partition");
                let schedule = explorer
                    .best_schedule(
                        &net,
                        &tiles,
                        &OverlapMode::ALL,
                        target,
                        &FusePolicy::search(),
                    )
                    .unwrap();
                let expected: Vec<(Stack, TileSize, OverlapMode, u64)> = chosen
                    .iter()
                    .map(|&i| {
                        (
                            candidates[i].clone(),
                            best[i].0,
                            best[i].1,
                            values[i].to_bits(),
                        )
                    })
                    .collect();
                let searched: Vec<(Stack, TileSize, OverlapMode, u64)> = schedule
                    .choices
                    .iter()
                    .map(|c| (c.stack.clone(), c.tile, c.mode, c.value.to_bits()))
                    .collect();
                assert_eq!(searched, expected, "{name} {target}");
                let cost =
                    NetworkCost::from_stacks(chosen.iter().map(|&i| best[i].2.clone()).collect());
                assert_eq!(schedule.cost, cost, "{name} {target}");
                assert_eq!(
                    (
                        schedule.cost.energy_pj.to_bits(),
                        schedule.cost.latency_cycles.to_bits()
                    ),
                    (cost.energy_pj.to_bits(), cost.latency_cycles.to_bits())
                );
            }
        }
        assert!(compared > 15_000, "{compared} comparisons");
    }

    #[test]
    fn best_single_strategy_rejects_an_empty_axis() {
        let acc = zoo::meta_proto_like_df();
        let model = DfCostModel::new(&acc).with_fast_mapper();
        let explorer = Explorer::new(&model);
        let net = tiny_net();
        let target = OptimizeTarget::Energy;
        assert_eq!(
            explorer.best_single_strategy(&net, &[], &OverlapMode::ALL, target),
            Err(EvaluationError::EmptyDesignSpace { axis: "tile size" })
        );
        assert_eq!(
            explorer.best_single_strategy(&net, &[(8, 8)], &[], target),
            Err(EvaluationError::EmptyDesignSpace {
                axis: "overlap mode"
            })
        );
        // The exhaustive sweeps promise no best point: an empty grid stays an
        // empty result.
        assert_eq!(explorer.sweep(&net, &[], &OverlapMode::ALL), Ok(vec![]));
        let stats = explorer
            .sweep_streaming(&net, &[(8, 8)], &[], target, |_| {})
            .unwrap();
        assert_eq!(stats.points, 0);
    }

    #[test]
    fn best_schedule_rejects_an_empty_mode_list() {
        let acc = zoo::meta_proto_like_df();
        let model = DfCostModel::new(&acc).with_fast_mapper();
        let explorer = Explorer::new(&model);
        let net = tiny_net();
        for policy in [FusePolicy::Auto, FusePolicy::search()] {
            let err = explorer
                .best_schedule(&net, &[(8, 8)], &[], OptimizeTarget::Energy, &policy)
                .unwrap_err();
            assert_eq!(
                err,
                EvaluationError::EmptyDesignSpace {
                    axis: "overlap mode"
                }
            );
        }
        // An empty tile grid is still a design space: every stack keeps its
        // full-feature-map tile.
        let full_only = explorer
            .best_schedule(
                &net,
                &[],
                &OverlapMode::ALL,
                OptimizeTarget::Energy,
                &FusePolicy::Auto,
            )
            .unwrap();
        assert!(full_only.choices.iter().all(|c| c.tile == TileSize::full()));
    }
}

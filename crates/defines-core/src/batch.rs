//! The cell runner: a list of schedule requests, one flattened engine run.
//!
//! Everything that evaluates many `(accelerator, workload, grid, modes,
//! target, policy)` cells goes through `run_cells`: [`run_batch`] for the
//! ad-hoc request lists of a serving layer (the `defines-serve` daemon
//! coalesces whatever arrived while the previous batch ran into one call, so
//! N concurrent clients cost one engine spin-up and share one
//! [`MappingCache`] warm-up instead of N), and [`crate::run_matrix`] for the
//! case-study grid, which adds a checkpoint and a report around it.
//!
//! Determinism contract: each cell's inner schedule search runs under
//! [`EngineConfig::sequential`] — the outer engine already keeps every core
//! busy with one cell per worker — so the result for a cell is bit-identical
//! to a standalone [`Explorer::best_schedule`] run with the same inputs,
//! regardless of which other cells shared the run, the outer thread count, or
//! the warmth of the shared cache (the cache contract guarantees hits return
//! exactly what the search would recompute).

use crate::evaluate::{DfCostModel, EvaluationError};
use crate::explore::{Explorer, OptimizeTarget, ScheduleResult};
use crate::fuse::FusePolicy;
use crate::stack::partition_into_stacks;
use crate::strategy::OverlapMode;
use defines_arch::Accelerator;
use defines_engine::{EngineConfig, Outcome, SweepEngine, SweepStats};
use defines_mapping::{Budget, MappingCache};
use defines_workload::Network;
use std::borrow::Cow;
use std::time::Duration;

/// One schedule request: everything [`Explorer::best_schedule`] needs.
#[derive(Debug, Clone)]
pub struct BatchItem {
    /// A short human-readable label for telemetry (engine progress lines).
    pub label: String,
    /// The accelerator to schedule for.
    pub accelerator: Accelerator,
    /// The workload to schedule.
    pub network: Network,
    /// The tile grid to search, or `None` for
    /// [`Explorer::default_tile_grid`].
    pub tile_grid: Option<Vec<(u64, u64)>>,
    /// The overlap modes to search.
    pub modes: Vec<OverlapMode>,
    /// The optimization target.
    pub target: OptimizeTarget,
    /// The fuse policy.
    pub policy: FusePolicy,
}

/// How a batch executes (the serving-relevant subset of
/// [`crate::MatrixConfig`]).
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// The outer engine configuration: items fan out over this work queue
    /// (each item's inner schedule search is forced sequential).
    pub engine: EngineConfig,
    /// The mapping cache shared by every item's cost model — the warm asset
    /// a serving deployment persists across batches and restarts.
    pub cache: MappingCache,
    /// Use the fast mapper preset instead of the full search.
    pub fast_mapper: bool,
    /// The mapper's search budget.
    pub budget: Budget,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            engine: EngineConfig::parallel(),
            cache: MappingCache::new(),
            fast_mapper: false,
            budget: Budget::default(),
        }
    }
}

/// The result of one batch item: either a schedule with its objective
/// value, or the error that stopped it. Errors are isolated per item — a
/// failing request never affects its batch siblings' results.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// The best schedule, when the item succeeded.
    pub schedule: Option<ScheduleResult>,
    /// The schedule's objective value under the item's target (`NaN` on
    /// error).
    pub value: f64,
    /// Why the item failed (validation error or a panic caught by the
    /// engine's per-point isolation).
    pub error: Option<String>,
}

impl BatchOutcome {
    fn failed(error: String) -> Self {
        Self {
            schedule: None,
            value: f64::NAN,
            error: Some(error),
        }
    }
}

/// One validated cell, borrowed from its owner. Constructing one is the
/// upfront validation: the runner's evaluate closure is infallible for every
/// `Cell` that exists.
pub(crate) struct Cell<'a> {
    pub(crate) label: String,
    pub(crate) accelerator: &'a Accelerator,
    pub(crate) network: &'a Network,
    pub(crate) tile_grid: Cow<'a, [(u64, u64)]>,
    pub(crate) modes: &'a [OverlapMode],
    pub(crate) target: OptimizeTarget,
    pub(crate) policy: &'a FusePolicy,
}

impl<'a> Cell<'a> {
    /// Validates the workload (and, for a fixed fuse policy, its stack
    /// partition), *then* resolves the tile grid — `None` means
    /// [`Explorer::default_tile_grid`], which needs a non-empty network.
    pub(crate) fn new(
        label: String,
        accelerator: &'a Accelerator,
        network: &'a Network,
        tile_grid: Option<&'a [(u64, u64)]>,
        modes: &'a [OverlapMode],
        target: OptimizeTarget,
        policy: &'a FusePolicy,
    ) -> Result<Self, EvaluationError> {
        network.validate()?;
        if let Some(fuse) = policy.fixed_fuse_depth() {
            let stacks = partition_into_stacks(network, accelerator, &fuse);
            crate::evaluate::validate_stacks(network, &stacks)?;
        }
        Ok(Self {
            label,
            accelerator,
            network,
            tile_grid: match tile_grid {
                Some(grid) => Cow::Borrowed(grid),
                None => Cow::Owned(Explorer::default_tile_grid(network)),
            },
            modes,
            target,
            policy,
        })
    }
}

/// The cost model every cell against `accelerator` evaluates in.
pub(crate) fn cost_model<'a>(
    accelerator: &'a Accelerator,
    config: &BatchConfig,
) -> DfCostModel<'a> {
    let model = DfCostModel::new(accelerator).with_shared_cache(config.cache.clone());
    let model = if config.fast_mapper {
        model.with_fast_mapper()
    } else {
        model
    };
    model.with_search_budget(config.budget)
}

/// Runs `cells` as one flattened engine run labelled `label`, streaming
/// `(cell index, outcome)` to `on_outcome` in completion order, and returns
/// the outer run's statistics.
///
/// `before_cell` runs at the start of every cell *inside* the engine's
/// per-point panic isolation, so a panic there (an injected fault, a missed
/// deadline) fails exactly that cell. A panic inside a cell's search is
/// isolated the same way and becomes that cell's [`BatchOutcome::error`].
pub(crate) fn run_cells(
    cells: &[Cell<'_>],
    config: &BatchConfig,
    label: String,
    before_cell: impl Fn() + Sync,
    mut on_outcome: impl FnMut(usize, BatchOutcome),
) -> SweepStats {
    // One cost model per distinct accelerator, all sharing the run's cache.
    // The cache key includes the accelerator fingerprint, so cells against
    // different hardware coexist, and a file-loaded twin of a builtin
    // accelerator hits the same entries.
    let mut models: Vec<(u64, DfCostModel<'_>)> = Vec::new();
    let model_of: Vec<usize> = cells
        .iter()
        .map(|cell| {
            let fingerprint = cell.accelerator.fingerprint();
            models
                .iter()
                .position(|(known, _)| *known == fingerprint)
                .unwrap_or_else(|| {
                    models.push((fingerprint, cost_model(cell.accelerator, config)));
                    models.len() - 1
                })
        })
        .collect();

    let points: Vec<usize> = (0..cells.len()).collect();
    let evaluate = |&i: &usize| -> ScheduleResult {
        before_cell();
        let cell = &cells[i];
        Explorer::new(&models[model_of[i]].1)
            .with_engine_config(EngineConfig::sequential())
            .with_run_label(cell.label.clone())
            .best_schedule(
                cell.network,
                &cell.tile_grid,
                cell.modes,
                cell.target,
                cell.policy,
            )
            .expect("cells are validated on construction")
    };
    let objective = |&i: &usize, schedule: &ScheduleResult| {
        schedule.value(cells[i].target, cells[i].accelerator)
    };
    SweepEngine::new(config.engine.with_pruning(false))
        .with_label(label)
        .run(
            &points,
            &evaluate,
            &objective,
            None::<&fn(&usize) -> f64>,
            |record| {
                let outcome = match record.outcome {
                    Outcome::Evaluated {
                        cost: mut schedule,
                        value,
                    } => {
                        // The inner run attached a cache delta measured over
                        // its own time window — but the cache is shared by
                        // concurrently running cells, so that window also
                        // counts *their* traffic; and the wall time varies
                        // run to run. Cell results (checkpoint lines, served
                        // responses) must be exactly reproducible, so both go.
                        schedule.stats.cache = None;
                        schedule.stats.elapsed = Duration::ZERO;
                        BatchOutcome {
                            schedule: Some(schedule),
                            value,
                            error: None,
                        }
                    }
                    Outcome::Pruned { .. } => unreachable!("cell runs never prune"),
                    Outcome::Failed { error } => BatchOutcome::failed(error),
                };
                on_outcome(record.point, outcome);
            },
        )
}

/// Runs every item in one flattened engine run sharing `config.cache`, and
/// returns one outcome per item, in item order.
///
/// Items that fail upfront validation produce an error outcome without
/// entering the engine; a panic inside an item's search (injected fault,
/// resource exhaustion) is caught by the engine's per-point isolation and
/// becomes that item's error. Result values and schedules are bit-identical
/// to standalone [`Explorer::best_schedule`] runs of the same requests (see
/// the module docs).
pub fn run_batch(items: &[BatchItem], config: &BatchConfig) -> Vec<BatchOutcome> {
    let mut outcomes: Vec<Option<BatchOutcome>> = (0..items.len()).map(|_| None).collect();
    let mut cells = Vec::with_capacity(items.len());
    let mut item_of = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        match Cell::new(
            item.label.clone(),
            &item.accelerator,
            &item.network,
            item.tile_grid.as_deref(),
            &item.modes,
            item.target,
            &item.policy,
        ) {
            Ok(cell) => {
                cells.push(cell);
                item_of.push(i);
            }
            Err(why) => outcomes[i] = Some(BatchOutcome::failed(why.to_string())),
        }
    }
    run_cells(
        &cells,
        config,
        format!("batch ({} requests)", cells.len()),
        || {},
        |cell, outcome| outcomes[item_of[cell]] = Some(outcome),
    );
    outcomes
        .into_iter()
        .map(|slot| slot.expect("every batch item is either validated out or evaluated"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use defines_arch::zoo;
    use defines_workload::models;
    use serde::Serialize;

    fn item(label: &str, tile: (u64, u64)) -> BatchItem {
        BatchItem {
            label: label.to_string(),
            accelerator: zoo::meta_proto_like_df(),
            network: models::fsrcnn(),
            tile_grid: Some(vec![tile]),
            modes: vec![OverlapMode::FullyCached],
            target: OptimizeTarget::Energy,
            policy: FusePolicy::FullNetwork,
        }
    }

    #[test]
    fn batch_matches_standalone_runs() {
        let config = BatchConfig {
            fast_mapper: true,
            ..BatchConfig::default()
        };
        let items = vec![item("a", (32, 32)), item("b", (48, 48))];
        let outcomes = run_batch(&items, &config);
        assert_eq!(outcomes.len(), 2);
        for (it, outcome) in items.iter().zip(&outcomes) {
            assert!(outcome.error.is_none());
            let model = DfCostModel::new(&it.accelerator)
                .with_shared_cache(MappingCache::new())
                .with_fast_mapper()
                .with_search_budget(config.budget);
            let mut standalone = Explorer::new(&model)
                .with_engine_config(EngineConfig::sequential())
                .with_run_label(it.label.clone())
                .best_schedule(
                    &it.network,
                    it.tile_grid.as_ref().unwrap(),
                    &it.modes,
                    it.target,
                    &it.policy,
                )
                .unwrap();
            standalone.stats.cache = None;
            standalone.stats.elapsed = Duration::ZERO;
            let batched = outcome.schedule.as_ref().unwrap();
            assert_eq!(
                batched.to_value().to_json(),
                standalone.to_value().to_json(),
                "batched result must be bit-identical to the standalone run"
            );
            assert_eq!(outcome.value, standalone.value(it.target, &it.accelerator));
        }
    }

    #[test]
    fn invalid_items_fail_without_poisoning_siblings() {
        let config = BatchConfig {
            fast_mapper: true,
            ..BatchConfig::default()
        };
        let mut bad = item("bad", (32, 32));
        // An empty network fails upfront validation before the engine run.
        bad.network = defines_workload::Network::new("empty");
        let items = vec![bad, item("good", (32, 32))];
        let outcomes = run_batch(&items, &config);
        assert!(outcomes[0].error.is_some());
        assert!(outcomes[0].schedule.is_none());
        assert!(outcomes[1].error.is_none());
        assert!(outcomes[1].schedule.is_some());

        // The same with the default grid requested: validation must come
        // before the grid is derived from the (empty) network, and the good
        // sibling must not notice the bad one.
        let mut items = items;
        items[0].tile_grid = None;
        let with_bad = run_batch(&items, &config);
        assert_eq!(
            with_bad[0].error.as_deref(),
            Some("the workload contains no layers")
        );
        let alone = run_batch(&items[1..], &config);
        assert_eq!(
            with_bad[1].schedule.as_ref().unwrap().to_value().to_json(),
            alone[0].schedule.as_ref().unwrap().to_value().to_json()
        );
        assert_eq!(with_bad[1].value.to_bits(), alone[0].value.to_bits());
    }

    /// "A matrix is a batch with a report": every matrix cell equals the
    /// batch outcome of the corresponding item.
    #[test]
    fn matrix_cells_equal_the_batch_outcomes_of_their_items() {
        let accelerators = [zoo::meta_proto_like_df(), zoo::tpu_like_df()];
        let workloads = [models::fsrcnn()];
        let policies = [FusePolicy::Auto, FusePolicy::SingleLayerStacks];
        let grid = [(60, 72), (240, 270)];
        let report = crate::run_matrix(
            &accelerators,
            &workloads,
            &policies,
            Some(&grid),
            &OverlapMode::ALL,
            OptimizeTarget::Energy,
            &crate::MatrixConfig::default(),
            |_| {},
        )
        .unwrap();

        let mut items = Vec::new();
        for accelerator in &accelerators {
            for policy in &policies {
                items.push(BatchItem {
                    label: String::new(),
                    accelerator: accelerator.clone(),
                    network: workloads[0].clone(),
                    tile_grid: Some(grid.to_vec()),
                    modes: OverlapMode::ALL.to_vec(),
                    target: OptimizeTarget::Energy,
                    policy: policy.clone(),
                });
            }
        }
        let config = BatchConfig {
            fast_mapper: true,
            ..BatchConfig::default()
        };
        let outcomes = run_batch(&items, &config);

        assert_eq!(report.cells.len(), outcomes.len());
        for (cell, outcome) in report.cells.iter().zip(&outcomes) {
            let schedule = outcome.schedule.as_ref().unwrap();
            assert_eq!(cell.value.to_bits(), outcome.value.to_bits());
            assert_eq!(cell.energy_pj.to_bits(), schedule.cost.energy_pj.to_bits());
            assert_eq!(
                cell.latency_cycles.to_bits(),
                schedule.cost.latency_cycles.to_bits()
            );
            assert_eq!(cell.candidates, schedule.candidates);
            assert_eq!(cell.degraded, schedule.degraded);
            assert_eq!(cell.stacks.len(), schedule.choices.len());
            for (stack, choice) in cell.stacks.iter().zip(&schedule.choices) {
                assert_eq!(stack.tile, choice.tile.to_string());
                assert_eq!(stack.mode, choice.mode.to_string());
                assert_eq!(stack.value.to_bits(), choice.value.to_bits());
                assert_eq!(stack.layers.len(), choice.stack.layers.len());
            }
        }
    }
}

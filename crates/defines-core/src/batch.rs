//! Request batching over the engine: arbitrary schedule requests, one
//! flattened run.
//!
//! This is the matrix runner's one-engine-many-cells shape
//! ([`crate::run_matrix`]) generalized from a fixed `{accelerator} ×
//! {workload} × {policy}` grid to an ad-hoc list of requests, as a serving
//! layer needs: the `defines-serve` daemon coalesces whatever requests
//! arrived while the previous batch ran into one [`run_batch`] call, so N
//! concurrent clients cost one engine spin-up and share one
//! [`MappingCache`] warm-up instead of N.
//!
//! Determinism contract: each item's inner schedule search runs under
//! [`EngineConfig::sequential`], exactly like a matrix cell, so the result
//! for a request is bit-identical to a standalone
//! [`Explorer::best_schedule`] run with the same inputs — regardless of
//! which other requests shared the batch, the outer thread count, or the
//! warmth of the shared cache (the cache contract guarantees hits return
//! exactly what the search would recompute).

use crate::evaluate::DfCostModel;
use crate::explore::{Explorer, OptimizeTarget, ScheduleResult};
use crate::fuse::FusePolicy;
use crate::stack::partition_into_stacks;
use crate::strategy::OverlapMode;
use defines_arch::Accelerator;
use defines_engine::{EngineConfig, SweepEngine};
use defines_mapping::{Budget, MappingCache};
use defines_workload::Network;
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
    let mut slots: Vec<Option<BatchOutcome>> = (0..items.len()).map(|_| None).collect();

    // Upfront validation, so the engine's evaluate closure is infallible for
    // the items it sees. Invalid items fail here, in item order, without
    // costing a cell.
    let mut pending: Vec<usize> = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let validity = item
            .network
            .validate()
            .map_err(|e| e.to_string())
            .and_then(|()| {
                if let Some(fuse) = item.policy.fixed_fuse_depth() {
                    let stacks = partition_into_stacks(&item.network, &item.accelerator, &fuse);
                    crate::evaluate::validate_stacks(&item.network, &stacks)
                        .map_err(|e| e.to_string())?;
                }
                Ok(())
            });
        match validity {
            Ok(()) => pending.push(i),
            Err(why) => slots[i] = Some(BatchOutcome::failed(why)),
        }
    }

    // One cost model per item, all sharing the batch cache. The cache key
    // includes the accelerator fingerprint, so items against different
    // hardware coexist; items against the *same* hardware share warm
    // entries.
    let models: Vec<DfCostModel<'_>> = items
        .iter()
        .map(|item| {
            let model = DfCostModel::new(&item.accelerator).with_shared_cache(config.cache.clone());
            let model = if config.fast_mapper {
                model.with_fast_mapper()
            } else {
                model
            };
            model.with_search_budget(config.budget)
        })
        .collect();

    let grids: Vec<Vec<(u64, u64)>> = items
        .iter()
        .map(|item| match &item.tile_grid {
            Some(grid) => grid.clone(),
            None => Explorer::default_tile_grid(&item.network),
        })
        .collect();

    let engine = SweepEngine::new(config.engine.with_pruning(false))
        .with_label("batch")
        .with_label_detail(format!("{} requests", pending.len()));

    let evaluate = |&i: &usize| -> ScheduleResult {
        let item = &items[i];
        // Each item's inner schedule search runs sequentially: the outer
        // engine already keeps every core busy with one item per worker.
        Explorer::new(&models[i])
            .with_engine_config(EngineConfig::sequential())
            .with_run_label(item.label.clone())
            .best_schedule(
                &item.network,
                &grids[i],
                &item.modes,
                item.target,
                &item.policy,
            )
            .expect("batch items are validated before the engine run")
    };
    let objective = |&i: &usize, schedule: &ScheduleResult| {
        schedule.value(items[i].target, &items[i].accelerator)
    };

    engine.run(
        &pending,
        &evaluate,
        &objective,
        None::<&fn(&usize) -> f64>,
        |record| {
            let i = record.point;
            let outcome = match record.outcome {
                defines_engine::Outcome::Evaluated {
                    cost: mut schedule,
                    value,
                } => {
                    // Scrub the run-relative stats, exactly like a matrix
                    // cell: the shared cache's delta also counts sibling
                    // traffic and the wall time varies run to run, but a
                    // served response must be exactly reproducible.
                    schedule.stats.cache = None;
                    schedule.stats.elapsed = Duration::ZERO;
                    BatchOutcome {
                        schedule: Some(schedule),
                        value,
                        error: None,
                    }
                }
                defines_engine::Outcome::Pruned { .. } => {
                    unreachable!("batch runs never prune")
                }
                defines_engine::Outcome::Failed { error } => BatchOutcome::failed(error),
            };
            slots[i] = Some(outcome);
        },
    );

    slots
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
    }
}

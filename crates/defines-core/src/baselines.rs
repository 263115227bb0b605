//! Baseline schedulers and restricted optimizers used by the SotA comparison
//! (Section VI, Fig. 18) and case study 2 (Fig. 16).
//!
//! Each baseline deliberately ignores part of the cost that DeFiNES models —
//! on-chip traffic, multi-level memory skipping, weight traffic, or energy —
//! and is *evaluated* with the full model afterwards, exposing how much the
//! missing factor costs.

use crate::evaluate::{DfCostModel, EvaluationError};
use crate::explore::{Explorer, OptimizeTarget};
use crate::result::NetworkCost;
use crate::strategy::{DfStrategy, OverlapMode, TileSize};
use defines_workload::Network;
use serde::Serialize;

/// Which SotA limitation a baseline models (one row of Table II, roughly).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum BaselineKind {
    /// Plain single-layer scheduling.
    SingleLayer,
    /// Layer-by-layer scheduling with feature maps passed in the lowest
    /// fitting memory level.
    LayerByLayer,
    /// Depth-first, but the schedule is chosen by minimizing DRAM traffic only
    /// (on-chip data movement is invisible to the optimizer) — Fig. 18(a).
    DramTrafficOnly,
    /// Depth-first with multi-level memory skipping disabled: activations may
    /// skip DRAM but always live in the highest on-chip memory — Fig. 18(b).
    DramOnlySkipping,
    /// Depth-first chosen by minimizing activation-caused memory energy while
    /// ignoring weight traffic — Fig. 18(c).
    ActivationsOnly,
    /// Depth-first chosen by minimizing latency instead of energy —
    /// Fig. 18(d).
    LatencyOptimized,
    /// DeFiNES: full model, optimizing total energy.
    FullModel,
}

/// A baseline evaluation: the strategy the restricted optimizer picked and its
/// cost under the *full* model.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BaselineResult {
    /// Which baseline this is.
    pub kind: BaselineKind,
    /// The strategy chosen by the (restricted) optimizer.
    pub strategy: DfStrategy,
    /// The cost of that strategy under the full DeFiNES model.
    pub cost: NetworkCost,
}

/// Runs one baseline on a network.
///
/// `tile_sizes` and `modes` define the candidate depth-first schedules the
/// restricted optimizers may choose from; the single-layer and layer-by-layer
/// baselines ignore them.
///
/// # Errors
///
/// Propagates evaluation errors from the cost model.
pub fn run_baseline(
    model: &DfCostModel<'_>,
    net: &Network,
    kind: BaselineKind,
    tile_sizes: &[(u64, u64)],
    modes: &[OverlapMode],
) -> Result<BaselineResult, EvaluationError> {
    let explorer = Explorer::new(model);
    let result = match kind {
        BaselineKind::SingleLayer => {
            let strategy = DfStrategy::single_layer();
            let cost = model.evaluate_network(net, &strategy)?;
            BaselineResult {
                kind,
                strategy,
                cost,
            }
        }
        BaselineKind::LayerByLayer => {
            let strategy = DfStrategy::layer_by_layer();
            let cost = model.evaluate_network(net, &strategy)?;
            BaselineResult {
                kind,
                strategy,
                cost,
            }
        }
        BaselineKind::DramTrafficOnly => {
            // Choose the schedule by DRAM traffic only. Ties (many schedules
            // reach the minimal DRAM traffic once everything fits on chip) are
            // broken toward the *largest* tile, mimicking a tool that stops
            // optimizing once DRAM traffic is minimal.
            let sweep = explorer.sweep(net, tile_sizes, modes)?;
            let acc = model.accelerator();
            let best = sweep
                .into_iter()
                .min_by(|a, b| {
                    let da = a.cost.dram_traffic_bytes(acc);
                    let db = b.cost.dram_traffic_bytes(acc);
                    da.total_cmp(&db).then_with(|| {
                        let ta = a.strategy.tile.tx * a.strategy.tile.ty;
                        let tb = b.strategy.tile.tx * b.strategy.tile.ty;
                        tb.cmp(&ta)
                    })
                })
                .expect("sweep is non-empty");
            BaselineResult {
                kind,
                strategy: best.strategy,
                cost: best.cost,
            }
        }
        BaselineKind::DramOnlySkipping => {
            // The optimizer sees a model without multi-level skipping; the
            // chosen schedule is then re-evaluated with that same restricted
            // placement (the hardware behaviour it models).
            let restricted = DfCostModel::new(model.accelerator())
                .with_mapper(*model.mapper_config())
                .without_multi_level_skipping();
            let restricted_explorer = Explorer::new(&restricted);
            let best = restricted_explorer.best_single_strategy(
                net,
                tile_sizes,
                modes,
                OptimizeTarget::Energy,
            )?;
            BaselineResult {
                kind,
                strategy: best.strategy,
                cost: best.cost,
            }
        }
        BaselineKind::ActivationsOnly => {
            let best = explorer.best_single_strategy(
                net,
                tile_sizes,
                modes,
                OptimizeTarget::ActivationEnergy,
            )?;
            BaselineResult {
                kind,
                strategy: best.strategy,
                cost: best.cost,
            }
        }
        BaselineKind::LatencyOptimized => {
            let best =
                explorer.best_single_strategy(net, tile_sizes, modes, OptimizeTarget::Latency)?;
            BaselineResult {
                kind,
                strategy: best.strategy,
                cost: best.cost,
            }
        }
        BaselineKind::FullModel => {
            let best =
                explorer.best_single_strategy(net, tile_sizes, modes, OptimizeTarget::Energy)?;
            BaselineResult {
                kind,
                strategy: best.strategy,
                cost: best.cost,
            }
        }
    };
    Ok(result)
}

/// A fully-cached candidate strategy with a fixed tile size, used by case
/// study 2 ("fully-cached DF with 4×72 tiles, the best found in case
/// study 1").
pub fn fixed_fully_cached(tx: u64, ty: u64) -> DfStrategy {
    DfStrategy::depth_first(TileSize::new(tx, ty), OverlapMode::FullyCached)
}

#[cfg(test)]
mod tests {
    use super::*;
    use defines_arch::zoo;
    use defines_workload::{Layer, LayerDims, OpType};

    fn small_net() -> Network {
        let mut net = Network::new("small");
        let a = net
            .add_layer(
                Layer::new("a", OpType::Conv, LayerDims::conv(16, 3, 64, 64, 3, 3)),
                &[],
            )
            .unwrap();
        let _ = net
            .add_layer(
                Layer::new("b", OpType::Conv, LayerDims::conv(16, 16, 62, 62, 3, 3)),
                &[a],
            )
            .unwrap();
        net
    }

    const TILES: [(u64, u64); 3] = [(8, 8), (16, 16), (62, 62)];

    #[test]
    fn full_model_beats_or_matches_restricted_optimizers_on_energy() {
        let acc = zoo::meta_proto_like_df();
        let model = DfCostModel::new(&acc).with_fast_mapper();
        let net = small_net();
        let full = run_baseline(
            &model,
            &net,
            BaselineKind::FullModel,
            &TILES,
            &OverlapMode::ALL,
        )
        .unwrap();
        for kind in [
            BaselineKind::SingleLayer,
            BaselineKind::DramTrafficOnly,
            BaselineKind::ActivationsOnly,
            BaselineKind::LatencyOptimized,
        ] {
            let b = run_baseline(&model, &net, kind, &TILES, &OverlapMode::ALL).unwrap();
            assert!(
                full.cost.energy_pj <= b.cost.energy_pj + 1e-6,
                "{kind:?}: full {} vs baseline {}",
                full.cost.energy_pj,
                b.cost.energy_pj
            );
        }
    }

    #[test]
    fn dram_only_optimizer_minimizes_dram_but_not_energy() {
        let acc = zoo::meta_proto_like_df();
        let model = DfCostModel::new(&acc).with_fast_mapper();
        let net = small_net();
        let dram_only = run_baseline(
            &model,
            &net,
            BaselineKind::DramTrafficOnly,
            &TILES,
            &OverlapMode::ALL,
        )
        .unwrap();
        let sl = run_baseline(
            &model,
            &net,
            BaselineKind::SingleLayer,
            &TILES,
            &OverlapMode::ALL,
        )
        .unwrap();
        assert!(
            dram_only.cost.dram_traffic_bytes(&acc) <= sl.cost.dram_traffic_bytes(&acc),
            "DRAM-only optimization must reduce DRAM traffic vs single-layer"
        );
    }

    #[test]
    fn latency_optimized_is_fastest() {
        let acc = zoo::meta_proto_like_df();
        let model = DfCostModel::new(&acc).with_fast_mapper();
        let net = small_net();
        let lat = run_baseline(
            &model,
            &net,
            BaselineKind::LatencyOptimized,
            &TILES,
            &OverlapMode::ALL,
        )
        .unwrap();
        let full = run_baseline(
            &model,
            &net,
            BaselineKind::FullModel,
            &TILES,
            &OverlapMode::ALL,
        )
        .unwrap();
        assert!(lat.cost.latency_cycles <= full.cost.latency_cycles + 1e-6);
    }

    #[test]
    fn fixed_strategy_helper() {
        let s = fixed_fully_cached(4, 72);
        assert_eq!(s.tile, TileSize::new(4, 72));
        assert_eq!(s.mode, OverlapMode::FullyCached);
    }
}

//! Cheap lower bounds on the cost of a depth-first design point, used by the
//! exploration engine to prune dominated points without paying for a full
//! evaluation.
//!
//! A bound must never exceed the true objective value of the point — the
//! engine prunes a point only when its bound *strictly* exceeds the best
//! evaluated value, so sound bounds guarantee the selected optimum (and its
//! tie-breaking by submission order) is identical with and without pruning.
//!
//! The bounds priced here:
//!
//! * **compute** — the point's exact MAC count, from the step 1–2 tile types
//!   alone ([`tile_types`], no placement / data-copy / mapping work).
//!   Recompute-heavy points (tiny tiles under
//!   [`OverlapMode::FullyRecompute`](crate::strategy::OverlapMode::FullyRecompute))
//!   multiply their MACs and are the main
//!   pruning victims;
//! * **DRAM floor** — any schedule must read the network's external input
//!   from DRAM and write the final output back: those bytes bound DRAM
//!   traffic and the associated energy from below.
//!
//! A sweep identifies each point's tile types once and prices its bound from
//! them ([`StrategyBounds::lower_bound_for_types`]) before the evaluation
//! consumes the same list; [`StrategyBounds::lower_bound`] derives them from
//! scratch.

use crate::backcalc::{tile_types, StackGeometry, TileTypes};
use crate::explore::OptimizeTarget;
use crate::stack::partition_into_stacks;
use crate::strategy::DfStrategy;
use defines_arch::Accelerator;
use defines_workload::Network;

/// Precomputed, strategy-independent floors for one (network, accelerator)
/// pair, plus the machinery to bound one design point.
#[derive(Debug, Clone)]
pub struct StrategyBounds<'a> {
    net: &'a Network,
    acc: &'a Accelerator,
    target: OptimizeTarget,
    /// Bytes of external network input any schedule reads from DRAM.
    dram_input_bytes: f64,
    /// Bytes of final network output any schedule writes to DRAM.
    dram_output_bytes: f64,
    /// Energy floor of the unavoidable DRAM traffic, in pJ.
    dram_floor_pj: f64,
}

impl<'a> StrategyBounds<'a> {
    /// Builds the bounds helper for a network / accelerator / target triple.
    pub fn new(net: &'a Network, acc: &'a Accelerator, target: OptimizeTarget) -> Self {
        // Sources with no predecessor read their input feature map from DRAM.
        // Branching sources may share one input, so take the maximum rather
        // than the sum (a conservative floor either way).
        let dram_input_bytes = net
            .layer_ids()
            .filter(|&l| net.predecessors(l).is_empty())
            .map(|l| net.layer(l).input_bytes())
            .max()
            .unwrap_or(0) as f64;
        // Every sink's output leaves the chip.
        let dram_output_bytes: u64 = net
            .layer_ids()
            .filter(|&l| net.successors(l).is_empty())
            .map(|l| net.layer(l).output_bytes())
            .sum();
        let dram = acc.hierarchy().level(acc.hierarchy().dram_id());
        let dram_floor_pj = dram_input_bytes * dram.read_energy_pj_per_byte()
            + dram_output_bytes as f64 * dram.write_energy_pj_per_byte();
        Self {
            net,
            acc,
            target,
            dram_input_bytes,
            dram_output_bytes: dram_output_bytes as f64,
            dram_floor_pj,
        }
    }

    /// The exact MAC count of a design point (recomputed halos included),
    /// from steps 1–2 alone.
    pub fn point_macs(&self, strategy: &DfStrategy) -> u64 {
        partition_into_stacks(self.net, self.acc, &strategy.fuse)
            .iter()
            .map(|stack| {
                let geometry = StackGeometry::new(self.net, stack);
                total_macs(&tile_types(&geometry, strategy.tile, strategy.mode))
            })
            .sum()
    }

    /// A lower bound on the point's objective value.
    pub fn lower_bound(&self, strategy: &DfStrategy) -> f64 {
        self.bound(|| self.point_macs(strategy))
    }

    /// [`StrategyBounds::lower_bound`] of a point whose per-stack tile types
    /// are already identified ([`crate::PreparedNetwork::tile_types`]): no
    /// partition, geometry or back-calculation is redone.
    pub fn lower_bound_for_types(&self, types: &[TileTypes]) -> f64 {
        self.bound(|| types.iter().map(total_macs).sum())
    }

    /// The bound of a point with `point_macs` MACs, counted only by the
    /// targets that need them.
    fn bound(&self, point_macs: impl FnOnce() -> u64) -> f64 {
        let energy = |macs: u64| {
            // MAC energy of the point plus the unavoidable DRAM energy.
            macs as f64 * self.acc.pe_array().mac_energy_pj() + self.dram_floor_pj
        };
        // Cycles at peak MAC throughput (actual compute cycles are divided by
        // the spatial utilization, which never exceeds one).
        let latency = |macs: u64| macs as f64 / self.acc.pe_array().total_macs() as f64;
        match self.target {
            OptimizeTarget::Energy => energy(point_macs()),
            OptimizeTarget::Latency => latency(point_macs()),
            OptimizeTarget::Edp => {
                let macs = point_macs();
                energy(macs) * latency(macs)
            }
            OptimizeTarget::DramAccess => self.dram_input_bytes + self.dram_output_bytes,
            OptimizeTarget::ActivationEnergy => self.dram_floor_pj,
        }
    }
}

/// MACs of one stack's tile types.
fn total_macs(types: &TileTypes) -> u64 {
    types
        .iter()
        .map(|(analysis, count)| analysis.total_macs() * count)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::DfCostModel;
    use crate::strategy::{OverlapMode, TileSize};
    use defines_arch::zoo;
    use defines_workload::models;

    /// The defining soundness property: for every target and a spread of
    /// design points, the bound never exceeds the true objective value.
    #[test]
    fn bounds_never_exceed_true_values() {
        let acc = zoo::meta_proto_like_df();
        let model = DfCostModel::new(&acc).with_fast_mapper();
        let net = models::fsrcnn();
        let targets = [
            OptimizeTarget::Energy,
            OptimizeTarget::Latency,
            OptimizeTarget::Edp,
            OptimizeTarget::DramAccess,
            OptimizeTarget::ActivationEnergy,
        ];
        let points = [
            DfStrategy::depth_first(TileSize::new(4, 4), OverlapMode::FullyRecompute),
            DfStrategy::depth_first(TileSize::new(60, 72), OverlapMode::FullyCached),
            DfStrategy::depth_first(TileSize::new(960, 540), OverlapMode::HCachedVRecompute),
            DfStrategy::single_layer(),
            DfStrategy::layer_by_layer(),
        ];
        for target in targets {
            let bounds = StrategyBounds::new(&net, &acc, target);
            for strategy in &points {
                let cost = model.evaluate_network(&net, strategy).unwrap();
                let truth = target.value(&cost, &acc);
                let bound = bounds.lower_bound(strategy);
                assert!(
                    bound <= truth * (1.0 + 1e-9),
                    "{target} bound {bound} exceeds true value {truth} for {strategy}"
                );
            }
        }
    }

    /// The MAC count from the bound machinery matches the fully evaluated
    /// model (it is the same step-1 analysis).
    #[test]
    fn point_macs_match_full_evaluation() {
        let acc = zoo::meta_proto_like_df();
        let model = DfCostModel::new(&acc).with_fast_mapper();
        let net = models::fsrcnn();
        let bounds = StrategyBounds::new(&net, &acc, OptimizeTarget::Energy);
        for strategy in [
            DfStrategy::depth_first(TileSize::new(16, 18), OverlapMode::FullyRecompute),
            DfStrategy::depth_first(TileSize::new(60, 72), OverlapMode::FullyCached),
        ] {
            let cost = model.evaluate_network(&net, &strategy).unwrap();
            assert_eq!(bounds.point_macs(&strategy), cost.macs, "{strategy}");
        }
    }

    /// Tiny-tile fully-recompute points multiply their MACs: the energy bound
    /// must reflect that and eventually dominate good points' true cost —
    /// this is what makes pruning fire at all.
    #[test]
    fn recompute_bound_grows_above_good_point_cost() {
        let acc = zoo::meta_proto_like_df();
        let model = DfCostModel::new(&acc).with_fast_mapper();
        let net = models::fsrcnn();
        let bounds = StrategyBounds::new(&net, &acc, OptimizeTarget::Energy);
        let good = DfStrategy::depth_first(TileSize::new(60, 72), OverlapMode::FullyCached);
        let bad = DfStrategy::depth_first(TileSize::new(1, 1), OverlapMode::FullyRecompute);
        let good_cost = model.evaluate_network(&net, &good).unwrap();
        assert!(
            bounds.lower_bound(&bad) > good_cost.energy_pj,
            "1x1 fully-recompute bound should exceed the good point's true energy"
        );
    }
}

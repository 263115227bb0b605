//! LOMA-lite: the temporal-mapping search engine.
//!
//! The original LOMA \[29\] permutes prime factors of the layer dimensions and
//! allocates them to memory levels bottom-up. This implementation permutes
//! whole dimensions (at most 6! = 720 orderings per problem) and reuses the
//! same greedy bottom-up memory allocation. That whole-dimension permutation
//! is the deviation from the paper: its artifact's `loma_lpf_limit` caps how
//! many prime factors LOMA permutes, and has no counterpart here.
//! [`MapperConfig::max_orderings`] instead samples a subset of the n!
//! whole-dimension orderings.
//!
//! [`LomaMapper::optimize`] runs the transposition-pruned branch-and-bound
//! search of [`crate::search`], which returns a bit-identical [`LayerCost`]
//! while evaluating only a fraction of the orderings;
//! [`LomaMapper::optimize_exhaustive`] keeps the plain scan as the reference
//! implementation the pruned search is tested against. Each search is one
//! closed problem that shares no state with any other, so callers
//! parallelize across problems, never inside one.

use crate::cost::{evaluate, LayerCost, Objective};
use crate::problem::SingleLayerProblem;
use crate::search::{search, Kernel, SearchStats};
use crate::temporal::{candidate_orderings, TemporalMapping};
use defines_telemetry::Counter;
use defines_workload::{Dim, Fnv};
use serde::Serialize;

/// Loop orderings fully evaluated by the branch-and-bound search.
static ORDERINGS_EVALUATED: Counter = Counter::new("search.orderings_evaluated");
/// Orderings skipped by the partial-cost lower bound.
static PRUNED_BOUND: Counter = Counter::new("search.pruned_bound");
/// Orderings skipped because an earlier prefix reached the same allocation state.
static PRUNED_SYMMETRY: Counter = Counter::new("search.pruned_symmetry");
/// Orderings skipped because they fell beyond the search budget.
static SKIPPED_BUDGET: Counter = Counter::new("search.skipped_budget");
/// Prefix-tree nodes the searches pushed.
static NODES: Counter = Counter::new("search.nodes");
/// Searches that exhausted their budget and returned a degraded result.
static BUDGET_EXHAUSTED: Counter = Counter::new("fault.budget_exhausted");

/// A deterministic work budget for the exploration pipeline.
///
/// Budgets are counted in *work units of the deterministic enumeration* —
/// candidate orderings for the temporal-mapping search, relaxation steps for
/// the fusion DP — never in wall-clock time, so a budgeted run is
/// bit-identical at any thread count and on any machine. When a budget is
/// exhausted the affected search returns its exact best-so-far over the
/// in-budget window and flags the result *degraded*
/// ([`LayerCost::degraded`]); it never fails or returns garbage.
///
/// `0` means unlimited for either field, and [`Budget::default`] is fully
/// unlimited. Budgets change results (they shrink the candidate window), so
/// both fields are hashed into [`LomaMapper::config_fingerprint`], the one
/// mapper identity: the mapping cache, its disk store and the matrix
/// checkpoint header all key on it, so none of them mixes budgeted and
/// unbudgeted results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct Budget {
    /// Maximum candidate orderings (evaluated or bound-pruned) per
    /// temporal-mapping search; `0` = unlimited.
    pub max_orderings: u64,
    /// Maximum relaxation steps per fusion-partition DP; `0` = unlimited.
    pub max_dp_nodes: u64,
}

impl Budget {
    /// An unlimited budget (the default).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// A budget capping only the per-search ordering window.
    pub fn orderings(max: u64) -> Self {
        Self {
            max_orderings: max,
            max_dp_nodes: 0,
        }
    }
}

/// Configuration of the mapping search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct MapperConfig {
    /// The objective the mapper minimizes.
    pub objective: Objective,
    /// Maximum number of loop orderings evaluated per problem (`0` means
    /// unlimited, i.e. all permutations).
    pub max_orderings: usize,
    /// Deterministic work budget; exhausting it degrades gracefully to the
    /// best-so-far result (see [`Budget`]). Unlimited by default.
    pub budget: Budget,
}

impl Default for MapperConfig {
    fn default() -> Self {
        Self {
            objective: Objective::Energy,
            max_orderings: 720,
            budget: Budget::default(),
        }
    }
}

impl MapperConfig {
    /// A faster configuration for exploration sweeps: 48 of the n! loop
    /// orderings, picked at an integer stride over the enumeration (see
    /// [`crate::temporal::candidate_orderings`]). This is ordering sampling,
    /// not the paper's `loma_lpf_limit`, which caps prime factors.
    pub fn fast() -> Self {
        Self {
            objective: Objective::Energy,
            max_orderings: 48,
            budget: Budget::default(),
        }
    }

    /// Returns a copy with a different objective.
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Accepts and ignores a search-thread count: the search is sequential.
    /// Kept only because the frozen `benchmark/src/probes.rs` (which this
    /// repository's PRs may not edit) still calls it for its `mapping.pool.*`
    /// probe; it leaves together with that probe in the next `benchmark`
    /// change.
    #[doc(hidden)]
    pub fn with_search_threads(self, _threads: usize) -> Self {
        self
    }

    /// Returns a copy with a different work budget.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }
}

/// The temporal-mapping search engine (LOMA-lite).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct LomaMapper {
    config: MapperConfig,
}

impl LomaMapper {
    /// Creates a mapper with the given configuration.
    pub fn new(config: MapperConfig) -> Self {
        Self { config }
    }

    /// The mapper's configuration.
    pub fn config(&self) -> &MapperConfig {
        &self.config
    }

    /// A stable [`Fnv`] fingerprint of the configuration, used by
    /// [`MappingCache`](crate::MappingCache) keys so one cache can serve
    /// mappers with different settings, and by the matrix checkpoint header.
    pub fn config_fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.write_u64(self.config.objective as u64);
        h.write_u64(self.config.max_orderings as u64);
        // The budget IS hashed: it shrinks the candidate window and therefore
        // changes results, so budgeted and unbudgeted searches must never
        // share cache entries.
        h.write_u64(self.config.budget.max_orderings);
        h.write_u64(self.config.budget.max_dp_nodes);
        h.finish()
    }

    /// Finds the best temporal mapping for a problem and returns its cost.
    ///
    /// Ties on the objective are broken by total energy, then latency, so the
    /// result is deterministic. Runs the transposition-pruned branch-and-bound
    /// search, which is guaranteed to return the same cost (and the same
    /// tie-broken mapping) as [`LomaMapper::optimize_exhaustive`]. The
    /// search's counters are published into the `search.*` telemetry metrics.
    pub fn optimize(&self, problem: &SingleLayerProblem<'_>) -> LayerCost {
        let (cost, stats) = self.optimize_with_stats(problem);
        ORDERINGS_EVALUATED.add(stats.evaluated);
        PRUNED_BOUND.add(stats.pruned_bound);
        PRUNED_SYMMETRY.add(stats.pruned_symmetry);
        SKIPPED_BUDGET.add(stats.skipped_budget);
        NODES.add(stats.nodes);
        if stats.skipped_budget > 0 {
            BUDGET_EXHAUSTED.incr();
        }
        cost
    }

    /// The search behind [`LomaMapper::optimize`], returning the search
    /// counters (orderings evaluated / pruned) with the cost instead of
    /// publishing them.
    pub fn optimize_with_stats(
        &self,
        problem: &SingleLayerProblem<'_>,
    ) -> (LayerCost, SearchStats) {
        search(problem, &self.config)
    }

    /// The reference implementation of [`LomaMapper::optimize`]: a plain scan
    /// over every candidate ordering, pricing each through the same cost
    /// arithmetic as the search. Kept (and exercised by the parity tests) to
    /// prove the pruning never changes a result bit.
    pub fn optimize_exhaustive(&self, problem: &SingleLayerProblem<'_>) -> LayerCost {
        let dram = problem.accelerator.hierarchy().dram_id();
        let kernel = Kernel::new(problem);
        let max = if self.config.max_orderings == 0 {
            usize::MAX
        } else {
            self.config.max_orderings
        };
        let mut best: Option<LayerCost> = None;
        for order in candidate_orderings(problem, max) {
            let cost = kernel.evaluate(TemporalMapping::from_order(problem, &order));
            let better = match &best {
                None => true,
                Some(b) => {
                    let (cv, bv) = (
                        cost.objective_value(self.config.objective, dram),
                        b.objective_value(self.config.objective, dram),
                    );
                    cv < bv
                        || (cv == bv && cost.energy_pj < b.energy_pj)
                        || (cv == bv
                            && cost.energy_pj == b.energy_pj
                            && cost.latency_cycles < b.latency_cycles)
                }
            };
            if better {
                best = Some(cost);
            }
        }
        best.expect("candidate_orderings always yields at least one ordering")
    }

    /// Evaluates a problem under a fixed, user-supplied loop ordering
    /// (innermost first), without searching. The benchmark ladder times the
    /// cost arithmetic through it (`mapping.cost.evaluate_ns`).
    pub fn evaluate_fixed_order(
        &self,
        problem: &SingleLayerProblem<'_>,
        order: &[Dim],
    ) -> LayerCost {
        evaluate(problem, TemporalMapping::from_order(problem, order))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::OperandTopLevels;
    use defines_arch::{zoo, Operand};
    use defines_workload::{Layer, LayerDims, OpType};

    fn layer() -> Layer {
        Layer::new("c", OpType::Conv, LayerDims::conv(64, 32, 28, 28, 3, 3))
    }

    #[test]
    fn optimizer_beats_or_matches_any_fixed_order() {
        let acc = zoo::meta_proto_like_df();
        let l = layer();
        let p = SingleLayerProblem::new(&acc, &l);
        let mapper = LomaMapper::default();
        let best = mapper.optimize(&p);
        for order in crate::temporal::candidate_orderings(&p, 36) {
            let c = mapper.evaluate_fixed_order(&p, &order);
            assert!(best.energy_pj <= c.energy_pj + 1e-6);
        }
    }

    #[test]
    fn latency_objective_prefers_lower_latency() {
        let acc = zoo::tpu_like();
        let l = layer();
        let p = SingleLayerProblem::new(&acc, &l);
        let e =
            LomaMapper::new(MapperConfig::default().with_objective(Objective::Energy)).optimize(&p);
        let t = LomaMapper::new(MapperConfig::default().with_objective(Objective::Latency))
            .optimize(&p);
        assert!(t.latency_cycles <= e.latency_cycles + 1e-6);
        assert!(e.energy_pj <= t.energy_pj + 1e-6);
    }

    #[test]
    fn fast_config_is_close_to_exhaustive() {
        let acc = zoo::meta_proto_like_df();
        let l = layer();
        let p = SingleLayerProblem::new(&acc, &l);
        let full = LomaMapper::default().optimize(&p);
        let fast = LomaMapper::new(MapperConfig::fast()).optimize(&p);
        assert!(fast.energy_pj >= full.energy_pj - 1e-6);
        assert!(
            fast.energy_pj <= full.energy_pj * 1.25,
            "fast mapper too far off"
        );
    }

    #[test]
    fn lowering_input_top_level_reduces_energy() {
        // The essence of depth-first scheduling: serving inputs from the local
        // buffer instead of DRAM must reduce the modelled energy.
        let acc = zoo::meta_proto_like_df();
        let small = Layer::new("c", OpType::Conv, LayerDims::conv(32, 12, 60, 72, 3, 3));
        let p_dram = SingleLayerProblem::new(&acc, &small);
        let lb = acc.hierarchy().level_id_named("LB_IO").unwrap();
        let tops = OperandTopLevels::dram(&acc)
            .with_level(Operand::Input, lb)
            .with_level(Operand::Output, lb);
        let p_lb = SingleLayerProblem::new(&acc, &small).with_top_levels(tops);
        let mapper = LomaMapper::default();
        let c_dram = mapper.optimize(&p_dram);
        let c_lb = mapper.optimize(&p_lb);
        assert!(
            c_lb.energy_pj < c_dram.energy_pj,
            "LB-backed activations ({}) should beat DRAM-backed ({})",
            c_lb.energy_pj,
            c_dram.energy_pj
        );
    }

    #[test]
    fn deterministic_results() {
        let acc = zoo::ascend_like_df();
        let l = layer();
        let p = SingleLayerProblem::new(&acc, &l);
        let a = LomaMapper::default().optimize(&p);
        let b = LomaMapper::default().optimize(&p);
        assert_eq!(a.energy_pj, b.energy_pj);
        assert_eq!(a.mapping, b.mapping);
    }

    #[test]
    fn degenerate_fully_spatial_layer() {
        let acc = zoo::meta_proto_like();
        let l = Layer::new("c", OpType::Conv, LayerDims::conv(32, 2, 4, 4, 1, 1));
        let p = SingleLayerProblem::new(&acc, &l);
        let c = LomaMapper::default().optimize(&p);
        assert!(c.mapping.is_empty());
        assert!(c.energy_pj > 0.0);
    }

    /// The mapper fingerprint keys persisted stores and checkpoint headers,
    /// so its value must not depend on the toolchain: pinned as literals.
    #[test]
    fn config_fingerprint_is_pinned() {
        let fingerprint = |config| LomaMapper::new(config).config_fingerprint();
        assert_eq!(
            fingerprint(MapperConfig::default()),
            9_742_633_530_154_921_919
        );
        assert_eq!(fingerprint(MapperConfig::fast()), 5_472_378_961_044_891_605);
    }
}

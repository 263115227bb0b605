//! The depth-first cost model: steps 1–6 of Section III, orchestrated per
//! stack, per tile type and per layer.

use crate::backcalc::{tile_types, FmId, StackGeometry, TileAnalysis, TileTypes};
use crate::datacopy::{copy_cost, DataCopyAction};
use crate::memlevel::{determine_placement, PlacementPolicy, PlacementRequest};
use crate::result::{energy_summary, EnergySummary, NetworkCost, StackCost, TileTypeCost};
use crate::stack::{partition_into_stacks, Stack};
use crate::strategy::{BetweenStackMemory, DfStrategy, OverlapMode, TileSize};
use defines_arch::{Accelerator, MemoryLevelId, Operand};
use defines_mapping::{
    AccessBreakdown, LayerCost, LomaMapper, MapperConfig, MappingCache, Objective,
    OperandTopLevels, SingleLayerProblem,
};
use defines_telemetry::{span, Counter};
use defines_workload::{Layer, LayerDims, Network};
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Errors produced while evaluating a network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvaluationError {
    /// The workload has no layers.
    EmptyNetwork,
    /// A manual stack partition referenced layers outside the network or was
    /// empty.
    InvalidStacks(String),
    /// The workload DAG itself is invalid (dangling edges, self loops).
    ///
    /// [`Network::add_layer`](defines_workload::Network::add_layer) enforces
    /// these invariants for programmatically built networks; the variant
    /// exists so externally produced networks (e.g. from the JSON workload
    /// frontend) surface a structured error instead of a panic if the
    /// invariants are ever violated.
    Network(defines_workload::NetworkError),
    /// A search for one best point was given an empty design-space axis
    /// (no tile sizes or no overlap modes), so there is nothing to choose.
    EmptyDesignSpace {
        /// The empty axis, e.g. `"overlap mode"`.
        axis: &'static str,
    },
}

impl fmt::Display for EvaluationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvaluationError::EmptyNetwork => write!(f, "the workload contains no layers"),
            EvaluationError::InvalidStacks(msg) => write!(f, "invalid stack partition: {msg}"),
            EvaluationError::Network(err) => write!(f, "invalid workload: {err}"),
            EvaluationError::EmptyDesignSpace { axis } => {
                write!(f, "the design space is empty: no {axis} given")
            }
        }
    }
}

impl std::error::Error for EvaluationError {}

impl From<defines_workload::NetworkError> for EvaluationError {
    fn from(err: defines_workload::NetworkError) -> Self {
        match err {
            defines_workload::NetworkError::Empty => EvaluationError::EmptyNetwork,
            other => EvaluationError::Network(other),
        }
    }
}

/// The DeFiNES unified analytical cost model for one accelerator.
///
/// The model is deterministic: evaluating the same workload and strategy twice
/// yields identical results. Single-layer evaluations are memoized through a
/// [`MappingCache`], which is what makes sweeps over many tile sizes fast
/// (identical layer-tile problems re-use their mapping and cost). By default
/// each model owns a private cache; [`DfCostModel::with_shared_cache`] plugs
/// in a shared one so sweeps, explorers and even models for *different*
/// accelerators reuse each other's mapping work (the cache key includes the
/// accelerator fingerprint).
pub struct DfCostModel<'a> {
    acc: &'a Accelerator,
    mapper: LomaMapper,
    policy: PlacementPolicy,
    cache: MappingCache,
    /// [`Accelerator::fingerprint`] of `acc`, computed once — every mapping
    /// cache lookup needs it and hashing the full architecture per lookup is
    /// measurable on the hot path.
    acc_fingerprint: u64,
    /// Reusable per-evaluation scratch buffers (one per concurrently running
    /// stack evaluation), so the hot path allocates nothing per tile type.
    scratch: Mutex<Vec<EvalScratch>>,
}

/// Reusable buffers for one stack evaluation. Taken from (and returned to)
/// the model's scratch pool so concurrent engine workers each reuse their own
/// buffers instead of allocating per tile type.
#[derive(Default)]
struct EvalScratch {
    /// Data-copy actions of the layer currently being evaluated.
    actions: Vec<DataCopyAction>,
    /// Memory level holding each stack layer's freshly produced output,
    /// indexed by the layer's position in the stack.
    output_levels: Vec<MemoryLevelId>,
}

/// The sweep-invariant half of a network evaluation: the stack partition's
/// back-calculated geometries, built once by [`DfCostModel::prepare_stacks`]
/// and shared by every design point of a sweep (the engine's prepare,
/// bound and evaluate closures). Borrows the network and the caller-owned
/// stack partition.
pub struct PreparedNetwork<'n> {
    net: &'n Network,
    geometries: Vec<StackGeometry<'n>>,
}

impl PreparedNetwork<'_> {
    /// Steps 1–2 of one design point: the tile types of every stack under the
    /// strategy's tile size and overlap mode, in stack order. The exploration
    /// engine computes them once per point and hands them to both the lower
    /// bound and [`DfCostModel::evaluate_prepared`].
    pub fn tile_types(&self, strategy: &DfStrategy) -> Vec<TileTypes> {
        self.geometries
            .iter()
            .map(|geometry| tile_types(geometry, strategy.tile, strategy.mode))
            .collect()
    }
}

/// The per-tile cost components produced by the tile-type evaluation, before
/// the caller attaches the analysis and tile count.
struct TileEval {
    energy_pj: f64,
    latency_cycles: f64,
    macs: u64,
    activation_access: AccessBreakdown,
    weight_access: AccessBreakdown,
    copy_access: AccessBreakdown,
    energy_summary: EnergySummary,
    /// Whether any single-layer search in this tile exhausted its budget.
    degraded: bool,
}

impl<'a> fmt::Debug for DfCostModel<'a> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DfCostModel")
            .field("accelerator", &self.acc.name())
            .field("mapper", &self.mapper)
            .field("policy", &self.policy)
            .finish()
    }
}

impl<'a> DfCostModel<'a> {
    /// Creates a cost model for an accelerator with the default (exhaustive)
    /// mapper configuration.
    pub fn new(acc: &'a Accelerator) -> Self {
        Self {
            acc,
            mapper: LomaMapper::default(),
            policy: PlacementPolicy::default(),
            cache: MappingCache::new(),
            acc_fingerprint: acc.fingerprint(),
            scratch: Mutex::new(Vec::new()),
        }
    }

    /// Locks the scratch pool, recovering from poisoning. Sound: the guard
    /// only ever covers a single `pop` or `push` of an owned buffer — neither
    /// can be observed half-done, and a buffer abandoned by a panicking
    /// evaluation is simply re-cleared on reuse — so the poison flag carries
    /// no information and recovery keeps later evaluations working after an
    /// engine worker caught a panic.
    fn lock_scratch(&self) -> MutexGuard<'_, Vec<EvalScratch>> {
        self.scratch.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn take_scratch(&self) -> EvalScratch {
        self.lock_scratch().pop().unwrap_or_default()
    }

    fn put_scratch(&self, scratch: EvalScratch) {
        self.lock_scratch().push(scratch);
    }

    /// The accelerator under evaluation.
    pub fn accelerator(&self) -> &Accelerator {
        self.acc
    }

    /// Uses a shared mapping-memoization cache instead of the model's private
    /// one. All models holding a clone of the same [`MappingCache`] reuse each
    /// other's single-layer mapping results.
    pub fn with_shared_cache(mut self, cache: MappingCache) -> Self {
        self.cache = cache;
        self
    }

    /// The mapping cache this model memoizes single-layer evaluations in.
    pub fn mapping_cache(&self) -> &MappingCache {
        &self.cache
    }

    /// Uses a reduced mapper search (the `loma_lpf_limit`-style speed knob).
    /// Only the ordering cap changes; an objective or budget set earlier is
    /// kept, so the builder calls commute.
    pub fn with_fast_mapper(mut self) -> Self {
        self.mapper = LomaMapper::new(MapperConfig {
            max_orderings: MapperConfig::fast().max_orderings,
            ..*self.mapper.config()
        });
        self
    }

    /// Uses a custom mapper configuration.
    pub fn with_mapper(mut self, config: MapperConfig) -> Self {
        self.mapper = LomaMapper::new(config);
        self
    }

    /// Sets the deterministic work budget of the single-layer mapping search
    /// (and, through [`crate::Explorer`], of the fused-partition DP). The
    /// budget is counted in deterministic work units — never wall-clock — so
    /// budgeted results stay bit-identical at any thread count; exhausting it
    /// flags the affected costs [`degraded`](crate::StackCost::degraded)
    /// instead of failing. Budgets participate in the mapper's cache
    /// fingerprint, so differently budgeted runs never share cache entries.
    pub fn with_search_budget(mut self, budget: defines_mapping::Budget) -> Self {
        self.mapper = LomaMapper::new(self.mapper.config().with_budget(budget));
        self
    }

    /// Sets the single-layer mapper's optimization objective (energy by
    /// default; latency reproduces the latency-optimized schedules of
    /// Fig. 18(d)).
    pub fn with_mapper_objective(mut self, objective: Objective) -> Self {
        self.mapper = LomaMapper::new(self.mapper.config().with_objective(objective));
        self
    }

    /// The single-layer mapper configuration used by this model.
    pub fn mapper_config(&self) -> &MapperConfig {
        self.mapper.config()
    }

    /// Disables multi-level memory skipping (activations are kept in the
    /// highest on-chip memory instead of the lowest level they fit in),
    /// reproducing the "only DRAM skipping" baseline of Fig. 18(b).
    pub fn without_multi_level_skipping(mut self) -> Self {
        self.policy.multi_level_skipping = false;
        self
    }

    /// Evaluates a network under a scheduling strategy.
    ///
    /// # Errors
    ///
    /// Returns [`EvaluationError::EmptyNetwork`] for an empty workload,
    /// [`EvaluationError::Network`] for an invalid DAG and
    /// [`EvaluationError::InvalidStacks`] when a manual fuse-depth partition
    /// is inconsistent with the network.
    pub fn evaluate_network(
        &self,
        net: &Network,
        strategy: &DfStrategy,
    ) -> Result<NetworkCost, EvaluationError> {
        net.validate()?;
        let stacks = partition_into_stacks(net, self.acc, &strategy.fuse);
        validate_stacks(net, &stacks)?;
        let prepared = self.prepare_stacks(net, &stacks);
        Ok(self.evaluate_prepared(&prepared, strategy, prepared.tile_types(strategy)))
    }

    /// Builds the per-stack geometry state every design point of a sweep
    /// shares, so the per-point evaluation ([`DfCostModel::evaluate_prepared`])
    /// skips the validation / partitioning / geometry setup that is identical
    /// across points. `stacks` must be the partition of `net` under the fuse
    /// depth the evaluated strategies will carry ([`partition_into_stacks`],
    /// already validated).
    pub fn prepare_stacks<'n>(&self, net: &'n Network, stacks: &'n [Stack]) -> PreparedNetwork<'n> {
        PreparedNetwork {
            net,
            geometries: stacks
                .iter()
                .map(|stack| StackGeometry::new(net, stack))
                .collect(),
        }
    }

    /// [`DfCostModel::evaluate_network`] on pre-built stack geometries and
    /// the point's tile types (`types`, from [`PreparedNetwork::tile_types`]
    /// for this `strategy`): the per-point remainder of a sweep evaluation,
    /// steps 3–6. Only the components that actually vary across a sweep's
    /// design points (tile size, overlap mode, between-stack memory policy)
    /// are read from `strategy`; the fuse partition is the prepared one.
    /// Bit-identical to [`DfCostModel::evaluate_network`] by construction —
    /// it runs the same per-stack sequence on the same geometry.
    ///
    /// # Panics
    ///
    /// Panics if `types` does not hold one list per prepared stack.
    pub fn evaluate_prepared(
        &self,
        prepared: &PreparedNetwork<'_>,
        strategy: &DfStrategy,
        types: Vec<TileTypes>,
    ) -> NetworkCost {
        debug_assert_eq!(
            partition_into_stacks(prepared.net, self.acc, &strategy.fuse),
            prepared
                .geometries
                .iter()
                .map(|g| g.stack().clone())
                .collect::<Vec<_>>(),
            "strategy fuse depth diverges from the prepared partition"
        );
        assert_eq!(
            types.len(),
            prepared.geometries.len(),
            "one tile-type list per prepared stack"
        );
        let mut stack_costs = Vec::with_capacity(prepared.geometries.len());
        for (geometry, types) in prepared.geometries.iter().zip(types) {
            let in_level = self.stack_input_level(geometry, strategy.between_stacks);
            let out_level =
                self.stack_output_level(prepared.net, geometry.stack(), strategy.between_stacks);
            stack_costs.push(self.price_stack(geometry, types, in_level, out_level));
        }
        NetworkCost::from_stacks(stack_costs)
    }

    /// Evaluates a single stack of fused layers with explicit between-stack
    /// memory levels. Exposed so explorers can pick a different depth-first
    /// strategy per stack ("best combination" in case study 2).
    pub fn evaluate_stack(
        &self,
        net: &Network,
        stack: &Stack,
        tile: TileSize,
        mode: OverlapMode,
        stack_input_level: MemoryLevelId,
        stack_output_level: MemoryLevelId,
    ) -> StackCost {
        let geometry = StackGeometry::new(net, stack);
        self.evaluate_stack_with_geometry(
            &geometry,
            tile,
            mode,
            stack_input_level,
            stack_output_level,
        )
    }

    /// [`DfCostModel::evaluate_stack`] on a pre-built stack geometry, so
    /// callers evaluating many (tile, mode) candidates for the same stack —
    /// the combination and fuse-depth searches — pay the geometry
    /// back-calculation setup once.
    pub(crate) fn evaluate_stack_with_geometry(
        &self,
        geometry: &StackGeometry<'_>,
        tile: TileSize,
        mode: OverlapMode,
        stack_input_level: MemoryLevelId,
        stack_output_level: MemoryLevelId,
    ) -> StackCost {
        let types = tile_types(geometry, tile, mode);
        self.price_stack(geometry, types, stack_input_level, stack_output_level)
    }

    /// Steps 3–6 of one stack: prices every tile type of `types` (the stack's
    /// step 1–2 output) and accumulates them.
    fn price_stack(
        &self,
        geometry: &StackGeometry<'_>,
        types: TileTypes,
        stack_input_level: MemoryLevelId,
        stack_output_level: MemoryLevelId,
    ) -> StackCost {
        let _span = span!("evaluate.stack");
        let mut scratch = self.take_scratch();
        let type_costs: Vec<TileTypeCost> = types
            .into_iter()
            .map(|(analysis, count)| {
                let eval = self.evaluate_tile_type(
                    geometry,
                    &analysis,
                    stack_input_level,
                    stack_output_level,
                    &mut scratch,
                );
                TileTypeCost {
                    analysis,
                    count,
                    energy_pj: eval.energy_pj,
                    latency_cycles: eval.latency_cycles,
                    macs: eval.macs,
                    activation_access: eval.activation_access,
                    weight_access: eval.weight_access,
                    copy_access: eval.copy_access,
                    energy_summary: eval.energy_summary,
                    degraded: eval.degraded,
                }
            })
            .collect();
        self.put_scratch(scratch);

        // Step 6: accumulate.
        let mut energy = 0.0;
        let mut latency = 0.0;
        let mut macs = 0u64;
        let mut activation = AccessBreakdown::new();
        let mut weight = AccessBreakdown::new();
        let mut copy = AccessBreakdown::new();
        let mut summary = EnergySummary::default();
        let mut degraded = false;
        for t in &type_costs {
            let f = t.count as f64;
            energy += t.energy_pj * f;
            latency += t.latency_cycles * f;
            macs += t.macs * t.count;
            activation.merge_scaled(&t.activation_access, f);
            weight.merge_scaled(&t.weight_access, f);
            copy.merge_scaled(&t.copy_access, f);
            summary.accumulate(&t.energy_summary.scaled(f));
            degraded |= t.degraded;
        }

        StackCost {
            stack: geometry.stack().clone(),
            // Every tile of the grid belongs to exactly one type.
            num_tiles: type_costs.iter().map(|t| t.count).sum(),
            tile_types: type_costs,
            energy_pj: energy,
            latency_cycles: latency,
            macs,
            activation_access: activation,
            weight_access: weight,
            copy_access: copy,
            energy_summary: summary,
            degraded,
        }
    }

    /// Evaluates one tile type: placement, data copies and single-layer costs
    /// for every layer of the stack (steps 3–5), for a single tile.
    fn evaluate_tile_type(
        &self,
        geometry: &StackGeometry<'_>,
        analysis: &TileAnalysis,
        stack_input_level: MemoryLevelId,
        stack_output_level: MemoryLevelId,
        scratch: &mut EvalScratch,
    ) -> TileEval {
        /// Distinct tile types priced across every stack evaluation.
        static TILE_TYPES: Counter = Counter::new("evaluate.tile_types");
        let _span = span!("evaluate.tile_type");
        TILE_TYPES.incr();
        let dram = self.acc.hierarchy().dram_id();
        let mut energy = 0.0;
        let mut latency = 0.0;
        let mut macs = 0u64;
        let mut activation_access = AccessBreakdown::new();
        let mut weight_access = AccessBreakdown::new();
        let mut copy_access = AccessBreakdown::new();
        let mut mac_energy = 0.0;
        let mut degraded = false;
        // Where each stack layer's freshly produced output resides, by stack
        // position (`analysis.layers` is in stack order).
        let output_levels = &mut scratch.output_levels;
        output_levels.clear();
        let last = analysis.layers.len() - 1;

        for (pos, (rec, sl)) in analysis
            .layers
            .iter()
            .zip(geometry.stack_layers())
            .enumerate()
        {
            if rec.to_compute_w == 0 || rec.to_compute_h == 0 {
                output_levels.push(stack_input_level);
                continue;
            }
            let layer = sl.layer;

            // Step 3: determine the top memory level of every data class.
            let request = PlacementRequest {
                stack_weight_bytes: geometry.weight_bytes(),
                layer_has_weights: sl.has_weights,
                is_first_tile: analysis.is_first_tile,
                input_bytes: rec.input_bytes,
                output_bytes: rec.output_bytes,
                cache_h_bytes: analysis.cache_h_bytes,
                cache_v_bytes: analysis.cache_v_bytes,
            };
            let placement = determine_placement(self.acc, &request, &self.policy);
            let input_top = if rec.external_input_bytes > 0 {
                placement.input.max(stack_input_level)
            } else {
                placement.input
            };
            let output_top = if pos == last {
                placement.output.max(stack_output_level)
            } else {
                placement.output
            };
            let tops = OperandTopLevels {
                weight: placement.weight,
                input: input_top,
                output: output_top,
            };

            // Step 4: data copy actions that collect the inputs at the
            // determined level and maintain the overlap caches.
            let internal_fresh = rec.fresh_input_bytes - rec.external_input_bytes;
            let producer_level = sl
                .pred_positions
                .iter()
                .map(|&p| output_levels[p])
                .max()
                .unwrap_or(stack_input_level);
            let actions = &mut scratch.actions;
            actions.clear();
            if input_top != dram {
                actions.push(DataCopyAction::new(
                    rec.external_input_bytes,
                    stack_input_level,
                    input_top,
                    Operand::Input,
                ));
                actions.push(DataCopyAction::new(
                    internal_fresh,
                    producer_level,
                    input_top,
                    Operand::Input,
                ));
            }
            if let Some(cache_h) = placement.cache_h {
                if rec.cached_h_input_bytes > 0 {
                    // Store into the cache (when the neighbouring tile produced
                    // the data) and collect it back for the current tile.
                    actions.push(DataCopyAction::new(
                        rec.cached_h_input_bytes,
                        producer_level,
                        cache_h,
                        Operand::Output,
                    ));
                    if input_top != dram {
                        actions.push(DataCopyAction::new(
                            rec.cached_h_input_bytes,
                            cache_h,
                            input_top,
                            Operand::Input,
                        ));
                    }
                }
            }
            if let Some(cache_v) = placement.cache_v {
                if rec.cached_v_input_bytes > 0 {
                    actions.push(DataCopyAction::new(
                        rec.cached_v_input_bytes,
                        producer_level,
                        cache_v,
                        Operand::Output,
                    ));
                    if input_top != dram {
                        actions.push(DataCopyAction::new(
                            rec.cached_v_input_bytes,
                            cache_v,
                            input_top,
                            Operand::Input,
                        ));
                    }
                }
            }
            let copies = copy_cost(self.acc, actions);

            // Step 5: single-layer mapper + cost model on the adjusted
            // problem.
            let dims = LayerDims {
                b: layer.dims.b,
                k: layer.dims.k,
                c: layer.dims.c,
                ox: rec.to_compute_w,
                oy: rec.to_compute_h,
                fx: layer.dims.fx,
                fy: layer.dims.fy,
                stride_x: layer.dims.stride_x,
                stride_y: layer.dims.stride_y,
                pad_x: 0,
                pad_y: 0,
            };
            let layer_cost = self.evaluate_layer_tile(layer, dims, tops);

            energy += layer_cost.energy_pj + copies.energy_pj;
            latency += layer_cost.latency_cycles + copies.latency_cycles;
            macs += layer_cost.macs;
            mac_energy += layer_cost.mac_energy_pj;
            degraded |= layer_cost.degraded;
            copy_access.merge(&copies.accesses);
            for (level, operand, access) in layer_cost.accesses.iter() {
                let target = if operand == Operand::Weight {
                    &mut weight_access
                } else {
                    &mut activation_access
                };
                target.add_reads(level, operand, access.reads_bytes);
                target.add_writes(level, operand, access.writes_bytes);
            }
            output_levels.push(output_top);
        }

        let summary = energy_summary(
            self.acc,
            mac_energy,
            &activation_access,
            &weight_access,
            &copy_access,
        );

        TileEval {
            energy_pj: energy,
            latency_cycles: latency,
            macs,
            activation_access,
            weight_access,
            copy_access,
            energy_summary: summary,
            degraded,
        }
    }

    /// Memoized single-layer evaluation through the mapping cache. Returns a
    /// shared handle: a cache hit is a reference-count bump, not a deep copy
    /// of the access breakdown.
    fn evaluate_layer_tile(
        &self,
        layer: &Layer,
        dims: LayerDims,
        tops: OperandTopLevels,
    ) -> Arc<LayerCost> {
        let problem = SingleLayerProblem::for_tile(self.acc, layer, dims, tops);
        let (key, canonicalized) = defines_mapping::ProblemKey::canonical_with_fingerprints(
            &problem,
            self.acc_fingerprint,
            self.mapper.config_fingerprint(),
        );
        self.cache
            .optimize_shared_keyed(key, canonicalized, &self.mapper, &problem)
    }

    /// The memory level the stack's external inputs reside in.
    fn stack_input_level(
        &self,
        geometry: &StackGeometry<'_>,
        policy: BetweenStackMemory,
    ) -> MemoryLevelId {
        let dram = self.acc.hierarchy().dram_id();
        let mut level = MemoryLevelId(0);
        let externals = geometry.external_inputs();
        if externals.is_empty() {
            return dram;
        }
        for fm in externals {
            let l = match (fm, policy) {
                (FmId::External(None), _) => dram,
                (_, BetweenStackMemory::Dram) => dram,
                (FmId::External(Some(_)), BetweenStackMemory::LowestFitting) => {
                    let bytes = geometry.fm_dims(fm).total_bytes();
                    self.acc
                        .hierarchy()
                        .lowest_fitting(Operand::Input, bytes, MemoryLevelId(0))
                }
                (FmId::Internal(_), _) => unreachable!("external_inputs only yields external fms"),
            };
            level = level.max(l);
        }
        level
    }

    /// The memory level the stack's final output is written to.
    fn stack_output_level(
        &self,
        net: &Network,
        stack: &Stack,
        policy: BetweenStackMemory,
    ) -> MemoryLevelId {
        let dram = self.acc.hierarchy().dram_id();
        let sink = stack.last_layer();
        let consumed_outside = net.successors(sink).iter().any(|s| !stack.contains(*s));
        let is_network_sink = net.successors(sink).is_empty();
        if is_network_sink || policy == BetweenStackMemory::Dram {
            return dram;
        }
        if !consumed_outside {
            // No layer outside the stack reads this output; it is the network
            // output of a (sub)graph and leaves the chip.
            return dram;
        }
        let layer = net.layer(sink);
        let bytes = layer.output_bytes();
        self.acc
            .hierarchy()
            .lowest_fitting(Operand::Output, bytes, MemoryLevelId(0))
    }
}

pub(crate) fn validate_stacks(net: &Network, stacks: &[Stack]) -> Result<(), EvaluationError> {
    if stacks.is_empty() {
        return Err(EvaluationError::InvalidStacks("no stacks produced".into()));
    }
    let mut seen = vec![false; net.len()];
    for stack in stacks {
        if stack.is_empty() {
            return Err(EvaluationError::InvalidStacks("empty stack".into()));
        }
        for l in &stack.layers {
            if l.0 >= net.len() {
                return Err(EvaluationError::InvalidStacks(format!(
                    "layer {l} does not exist in the network"
                )));
            }
            if seen[l.0] {
                return Err(EvaluationError::InvalidStacks(format!(
                    "layer {l} appears in more than one stack"
                )));
            }
            seen[l.0] = true;
        }
    }
    if !seen.iter().all(|&s| s) {
        return Err(EvaluationError::InvalidStacks(
            "some layers are not covered by any stack".into(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::FuseDepth;
    use defines_arch::zoo;
    use defines_workload::{models, LayerId, OpType};

    fn small_net() -> Network {
        let mut net = Network::new("small");
        let l1 = net
            .add_layer(
                Layer::new("l1", OpType::Conv, LayerDims::conv(16, 3, 64, 64, 3, 3)),
                &[],
            )
            .unwrap();
        let l2 = net
            .add_layer(
                Layer::new("l2", OpType::Conv, LayerDims::conv(16, 16, 62, 62, 3, 3)),
                &[l1],
            )
            .unwrap();
        let _ = net
            .add_layer(
                Layer::new("l3", OpType::Conv, LayerDims::conv(8, 16, 60, 60, 3, 3)),
                &[l2],
            )
            .unwrap();
        net
    }

    #[test]
    fn fast_mapper_commutes_with_budget_and_objective() {
        // Applying `set` before or after `with_fast_mapper` must yield the
        // same mapper: the setter's value survives and the fast cap applies.
        fn assert_commutes(set: impl for<'m> Fn(DfCostModel<'m>) -> DfCostModel<'m>) {
            let acc = zoo::meta_proto_like_df();
            let first = set(DfCostModel::new(&acc)).with_fast_mapper();
            let last = set(DfCostModel::new(&acc).with_fast_mapper());
            assert_eq!(first.mapper_config(), last.mapper_config());
            assert_eq!(
                first.mapper.config_fingerprint(),
                last.mapper.config_fingerprint()
            );
            assert_ne!(first.mapper_config(), &MapperConfig::fast());
        }
        assert_commutes(|m| m.with_search_budget(defines_mapping::Budget::orderings(17)));
        assert_commutes(|m| m.with_mapper_objective(Objective::Latency));
    }

    #[test]
    fn empty_network_is_rejected() {
        let acc = zoo::meta_proto_like_df();
        let model = DfCostModel::new(&acc);
        let err = model
            .evaluate_network(&Network::new("empty"), &DfStrategy::single_layer())
            .unwrap_err();
        assert_eq!(err, EvaluationError::EmptyNetwork);
    }

    #[test]
    fn invalid_manual_stacks_are_rejected() {
        let acc = zoo::meta_proto_like_df();
        let model = DfCostModel::new(&acc);
        let net = small_net();
        let strategy = DfStrategy::depth_first(TileSize::new(8, 8), OverlapMode::FullyCached)
            .with_fuse(FuseDepth::Manual(vec![vec![LayerId(0)]]));
        let err = model.evaluate_network(&net, &strategy).unwrap_err();
        assert!(matches!(err, EvaluationError::InvalidStacks(_)));
    }

    #[test]
    fn evaluation_is_deterministic() {
        let acc = zoo::meta_proto_like_df();
        let model = DfCostModel::new(&acc).with_fast_mapper();
        let net = small_net();
        let strategy = DfStrategy::depth_first(TileSize::new(16, 16), OverlapMode::FullyCached);
        let a = model.evaluate_network(&net, &strategy).unwrap();
        let b = model.evaluate_network(&net, &strategy).unwrap();
        assert_eq!(a.energy_pj, b.energy_pj);
        assert_eq!(a.latency_cycles, b.latency_cycles);
    }

    #[test]
    fn depth_first_beats_single_layer_on_activation_dominant_net() {
        let acc = zoo::meta_proto_like_df();
        let model = DfCostModel::new(&acc).with_fast_mapper();
        let net = small_net();
        let sl = model
            .evaluate_network(&net, &DfStrategy::single_layer())
            .unwrap();
        let df = model
            .evaluate_network(
                &net,
                &DfStrategy::depth_first(TileSize::new(16, 16), OverlapMode::FullyCached),
            )
            .unwrap();
        assert!(
            df.energy_pj < sl.energy_pj,
            "DF {} should beat SL {}",
            df.energy_pj,
            sl.energy_pj
        );
        // Single-layer moves every intermediate feature map through DRAM.
        assert!(df.dram_traffic_bytes(&acc) < sl.dram_traffic_bytes(&acc));
    }

    #[test]
    fn overlap_modes_are_identical_for_full_tiles() {
        // With a single tile there is no overlap, so all three modes coincide
        // (the LBL corner of Fig. 12).
        let acc = zoo::meta_proto_like_df();
        let model = DfCostModel::new(&acc).with_fast_mapper();
        let net = small_net();
        let mut energies = Vec::new();
        for mode in OverlapMode::ALL {
            let s = DfStrategy {
                tile: TileSize::full(),
                mode,
                fuse: FuseDepth::FullNetwork,
                between_stacks: BetweenStackMemory::LowestFitting,
            };
            energies.push(model.evaluate_network(&net, &s).unwrap().energy_pj);
        }
        assert!((energies[0] - energies[1]).abs() < 1e-6);
        assert!((energies[1] - energies[2]).abs() < 1e-6);
    }

    #[test]
    fn tile_counts_and_types_are_reported() {
        let acc = zoo::meta_proto_like_df();
        let model = DfCostModel::new(&acc).with_fast_mapper();
        let net = small_net();
        let strategy = DfStrategy::depth_first(TileSize::new(16, 16), OverlapMode::FullyCached);
        let cost = model.evaluate_network(&net, &strategy).unwrap();
        assert_eq!(cost.stacks.len(), 1);
        let stack = &cost.stacks[0];
        // 60x60 output with 16x16 tiles -> 4x4 grid.
        assert_eq!(stack.num_tiles, 16);
        let total: u64 = stack.tile_types.iter().map(|t| t.count).sum();
        assert_eq!(total, stack.num_tiles);
        assert!(stack.tile_type_count() >= 3);
        // Total MACs match the analytical sum over tile types.
        let expected: u64 = stack
            .tile_types
            .iter()
            .map(|t| t.analysis.total_macs() * t.count)
            .sum();
        assert_eq!(stack.macs, expected);
    }

    #[test]
    fn weight_traffic_reported_separately_from_activations() {
        let acc = zoo::meta_proto_like_df();
        let model = DfCostModel::new(&acc).with_fast_mapper();
        let net = small_net();
        let cost = model
            .evaluate_network(
                &net,
                &DfStrategy::depth_first(TileSize::new(16, 16), OverlapMode::FullyCached),
            )
            .unwrap();
        assert!(cost.operand_traffic_bytes(Operand::Weight) > 0.0);
        assert!(
            cost.weight_access
                .operand_total(Operand::Input)
                .total_bytes()
                == 0.0
        );
        assert!(
            cost.activation_access
                .operand_total(Operand::Weight)
                .total_bytes()
                == 0.0
        );
        assert!(cost.energy_summary.total_pj() > 0.0);
        // The summary total approximates the reported energy (both are built
        // from the same breakdowns).
        assert!((cost.energy_summary.total_pj() - cost.energy_pj).abs() / cost.energy_pj < 0.05);
    }

    #[test]
    fn fsrcnn_fully_cached_prefers_mid_tiles_over_extremes() {
        // The qualitative shape of Fig. 12: a mid-sized tile beats both a tiny
        // tile and the full feature map on energy.
        let acc = zoo::meta_proto_like_df();
        let model = DfCostModel::new(&acc).with_fast_mapper();
        let net = models::fsrcnn();
        let eval = |tx, ty| {
            model
                .evaluate_network(
                    &net,
                    &DfStrategy::depth_first(TileSize::new(tx, ty), OverlapMode::FullyCached),
                )
                .unwrap()
                .energy_pj
        };
        let tiny = eval(4, 4);
        let mid = eval(60, 72);
        let full = eval(960, 540);
        assert!(mid < full, "mid {mid} should beat full {full}");
        assert!(
            mid < tiny * 1.5,
            "mid {mid} should not be much worse than tiny {tiny}"
        );
    }
}

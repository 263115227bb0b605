//! The depth-first cost model: steps 1–6 of Section III, orchestrated per
//! stack, per tile type and per layer.

use crate::backcalc::{tile_types, FmId, StackGeometry, TileAnalysis, TileTypes};
use crate::datacopy::{copy_cost, DataCopyAction, MAX_COPY_ACTIONS};
use crate::memlevel::{determine_placement, PlacementPolicy, PlacementRequest};
use crate::result::{
    energy_summary, EnergySummary, NetworkCost, StackCost, StackValue, TileTypeCost,
};
use crate::stack::{partition_into_stacks, Stack};
use crate::strategy::{BetweenStackMemory, DfStrategy, OverlapMode, TileSize};
use defines_arch::{Accelerator, MemoryLevelId, Operand};
use defines_engine::FxBuildHasher;
use defines_mapping::{
    Access, AccessBreakdown, LayerCost, LomaMapper, MapperConfig, MappingCache, OperandTopLevels,
    SingleLayerProblem,
};
use defines_telemetry::{span, Counter};
use defines_workload::{Layer, LayerDims, Network};
use std::cell::RefCell;
use std::collections::hash_map::{Entry, HashMap};
use std::fmt;
use std::sync::Arc;

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
    /// [`LomaMapper::config_fingerprint`] of `mapper`, computed once for the
    /// same reason and refreshed whenever the mapper changes.
    mapper_fingerprint: u64,
}

/// One data class's traffic for the tile type being priced, dense by memory
/// level: a slot per (level, operand), `None` until an add touches it.
#[derive(Debug, Default)]
struct TrafficSlots {
    slots: Vec<[Option<Access>; 3]>,
}

impl TrafficSlots {
    /// Empties every slot of a `levels`-deep hierarchy, keeping the buffer.
    fn reset(&mut self, levels: usize) {
        self.slots.clear();
        self.slots.resize(levels, [None; 3]);
    }

    /// The slot for a key, touched (and zeroed) if it was not yet.
    fn slot(&mut self, level: MemoryLevelId, operand: Operand) -> &mut Access {
        self.slots[level.0][operand as usize].get_or_insert_with(Access::default)
    }

    /// Adds `breakdown`'s traffic scaled by `factor`, as
    /// [`AccessBreakdown::merge_scaled`] does.
    fn merge_scaled(&mut self, breakdown: &AccessBreakdown, factor: f64) {
        for (level, operand, access) in breakdown.iter() {
            let slot = self.slot(level, operand);
            slot.reads_bytes += access.reads_bytes * factor;
            slot.writes_bytes += access.writes_bytes * factor;
        }
    }

    /// The touched slots as `(level, operand, access)`, in `(level,
    /// operand)` order.
    fn iter(&self) -> impl Iterator<Item = (MemoryLevelId, Operand, Access)> + '_ {
        let slots = self.slots.as_flattened().iter().enumerate();
        slots.filter_map(|(i, slot)| {
            slot.map(|access| (MemoryLevelId(i / 3), Operand::ALL[i % 3], access))
        })
    }

    /// The touched slots as an exact-size breakdown, in `(level, operand)`
    /// order.
    fn to_breakdown(&self) -> AccessBreakdown {
        let touched = self.slots.iter().flatten().flatten().count();
        let mut entries = Vec::with_capacity(touched);
        entries.extend(
            self.iter()
                .map(|(level, operand, access)| ((level, operand), access)),
        );
        AccessBreakdown::from_entries(entries)
    }
}

/// A stack layer's to-compute tile under its operands' top levels. Within
/// one stack evaluation this fixes the layer's single-layer problem, and so
/// its mapping-cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct LayerTileKey {
    /// The layer's position in the stack.
    position: usize,
    width: u64,
    height: u64,
    tops: OperandTopLevels,
}

/// The layer costs one stack evaluation has looked up, each with whether
/// its mapping-cache key was canonicalized.
type LayerCosts = HashMap<LayerTileKey, (Arc<LayerCost>, bool), FxBuildHasher>;

/// The buffers every tile type of a stack reuses, so that pricing one
/// allocates only its result: lent by [`SCRATCH`] for one stack
/// evaluation.
#[derive(Debug, Default)]
struct TileScratch {
    /// The data-copy actions of the layer being priced.
    actions: Vec<DataCopyAction>,
    /// The memory level holding each stack layer's freshly produced output,
    /// by stack position.
    output_levels: Vec<MemoryLevelId>,
    /// Traffic of the layers' activations, weights and data copies: the
    /// tile type's while steps 3–5 fill them, the stack's in step 6 of the
    /// report path.
    activation: TrafficSlots,
    weight: TrafficSlots,
    copy: TrafficSlots,
    /// The stack's layer-cost memo: tile types share most of their layer
    /// tiles, and a repeat is answered here instead of by the shared
    /// mapping cache (see [`DfCostModel::fill_tile_type`]). Empty between
    /// two stack evaluations; only its capacity is kept.
    layer_costs: LayerCosts,
}

thread_local! {
    /// This thread's [`TileScratch`] between two stack evaluations. A stack
    /// evaluation takes it, fills it, clears its memo and puts it back, so
    /// once the buffers have grown to the thread's largest stack an
    /// evaluation allocates nothing for them, and the memo's table is sized
    /// by distinct layer tiles. Sizing the memo per call for every possible
    /// lookup would not do: one DMCNN-VD stack can make 31 600 lookups of
    /// 2 903 distinct keys, a 4 MB table.
    static SCRATCH: RefCell<TileScratch> = RefCell::default();
}

/// Runs one stack evaluation on this thread's [`TileScratch`]. The memo's
/// scope ends with it: its entries go, its table stays.
fn with_scratch<R>(evaluate: impl FnOnce(&mut TileScratch) -> R) -> R {
    let mut scratch = SCRATCH.take();
    scratch.actions.reserve(MAX_COPY_ACTIONS);
    let out = evaluate(&mut scratch);
    scratch.layer_costs.clear();
    SCRATCH.set(scratch);
    out
}

/// What steps 3–5 give for one tile of a type, besides the traffic they
/// leave in the [`TileScratch`] slots.
struct TileScalars {
    energy_pj: f64,
    latency_cycles: f64,
    macs: u64,
    /// Priced from the slots, once, for both paths.
    energy_summary: EnergySummary,
    /// Whether any single-layer search in this tile exhausted its budget.
    degraded: bool,
}

/// How a stack evaluation's mapping-cache lookups count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lookups {
    /// As lookups: hits, misses and usage epochs.
    Counted,
    /// As repeats of lookups an earlier evaluation of the same batch made
    /// and counted: they count nothing and touch no usage epoch.
    Repeated,
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
        let mapper = LomaMapper::default();
        Self {
            acc,
            mapper,
            policy: PlacementPolicy::default(),
            cache: MappingCache::new(),
            acc_fingerprint: acc.fingerprint(),
            mapper_fingerprint: mapper.config_fingerprint(),
        }
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

    /// Uses a reduced mapper search: [`MapperConfig::fast`]'s ordering sample.
    /// Only the ordering cap changes; an objective or budget set earlier is
    /// kept, so the builder calls commute.
    pub fn with_fast_mapper(self) -> Self {
        let config = MapperConfig {
            max_orderings: MapperConfig::fast().max_orderings,
            ..*self.mapper.config()
        };
        self.with_mapper(config)
    }

    /// Uses a custom mapper configuration.
    pub fn with_mapper(mut self, config: MapperConfig) -> Self {
        self.mapper = LomaMapper::new(config);
        self.mapper_fingerprint = self.mapper.config_fingerprint();
        self
    }

    /// Sets the deterministic work budget of the single-layer mapping search
    /// (and, through [`crate::Explorer`], of the fused-partition DP). The
    /// budget is counted in deterministic work units — never wall-clock — so
    /// budgeted results stay bit-identical at any thread count; exhausting it
    /// flags the affected costs [`degraded`](crate::StackCost::degraded)
    /// instead of failing. Budgets participate in the mapper's cache
    /// fingerprint, so differently budgeted runs never share cache entries.
    pub fn with_search_budget(self, budget: defines_mapping::Budget) -> Self {
        let config = self.mapper.config().with_budget(budget);
        self.with_mapper(config)
    }

    /// The single-layer mapper configuration used by this model.
    pub(crate) fn mapper_config(&self) -> &MapperConfig {
        self.mapper.config()
    }

    /// Disables multi-level memory skipping (activations are kept in the
    /// highest on-chip memory instead of the lowest level they fit in),
    /// reproducing the "only DRAM skipping" baseline of Fig. 18(b).
    pub(crate) fn without_multi_level_skipping(mut self) -> Self {
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
        let geometries: Vec<StackGeometry<'_>> = stacks
            .iter()
            .map(|stack| StackGeometry::new(net, stack))
            .collect();
        Ok(self.evaluate_geometries(net, &geometries, strategy))
    }

    /// [`DfCostModel::evaluate_network`] on pre-built stack geometries of
    /// `net`: a sweep builds them once for all its design points, so each
    /// point skips the validation / partitioning / geometry setup that is
    /// identical across points. Only the components that actually vary across a sweep's
    /// design points (tile size, overlap mode, between-stack memory policy)
    /// are read from `strategy`; the fuse partition is the geometries' one.
    /// Bit-identical to [`DfCostModel::evaluate_network`] by construction —
    /// it runs the same per-stack sequence on the same geometry.
    pub(crate) fn evaluate_geometries(
        &self,
        net: &Network,
        geometries: &[StackGeometry<'_>],
        strategy: &DfStrategy,
    ) -> NetworkCost {
        debug_assert_eq!(
            partition_into_stacks(net, self.acc, &strategy.fuse),
            geometries
                .iter()
                .map(|g| g.stack().clone())
                .collect::<Vec<_>>(),
            "strategy fuse depth diverges from the geometries' partition"
        );
        let stack_costs = geometries
            .iter()
            .map(|geometry| {
                let types = tile_types(geometry, strategy.tile, strategy.mode);
                let in_level = self.stack_input_level(geometry, strategy.between_stacks);
                let out_level =
                    self.stack_output_level(net, geometry.stack(), strategy.between_stacks);
                self.price_stack(geometry, types, in_level, out_level, Lookups::Counted)
            })
            .collect();
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
        let types = tile_types(&geometry, tile, mode);
        self.price_stack(
            &geometry,
            types,
            stack_input_level,
            stack_output_level,
            Lookups::Counted,
        )
    }

    /// [`DfCostModel::evaluate_stack`] for its value only: the
    /// [`StackValue`] of the same candidate, which every
    /// [`crate::OptimizeTarget`] reads as it reads the [`StackCost`], bit
    /// for bit, without building the cost report.
    pub fn evaluate_stack_value(
        &self,
        net: &Network,
        stack: &Stack,
        tile: TileSize,
        mode: OverlapMode,
        stack_input_level: MemoryLevelId,
        stack_output_level: MemoryLevelId,
    ) -> StackValue {
        let geometry = StackGeometry::new(net, stack);
        self.stack_value_with_geometry(&geometry, tile, mode, stack_input_level, stack_output_level)
    }

    /// [`DfCostModel::evaluate_stack_value`] on a pre-built stack geometry,
    /// so callers pricing many (tile, mode) candidates for the same stack —
    /// the combination and fuse-depth searches — pay the geometry
    /// back-calculation setup once.
    pub(crate) fn stack_value_with_geometry(
        &self,
        geometry: &StackGeometry<'_>,
        tile: TileSize,
        mode: OverlapMode,
        stack_input_level: MemoryLevelId,
        stack_output_level: MemoryLevelId,
    ) -> StackValue {
        let types = tile_types(geometry, tile, mode);
        let _span = span!("evaluate.stack");
        let dram = self.acc.hierarchy().dram_id();
        with_scratch(|scratch| {
            let mut value = StackValue::default();
            for (analysis, count) in &types {
                let tile = self.fill_tile_type(
                    geometry,
                    analysis,
                    stack_input_level,
                    stack_output_level,
                    Lookups::Counted,
                    scratch,
                );
                // Step 6: the report path's sums, term by term.
                let f = *count as f64;
                value.energy_pj += tile.energy_pj * f;
                value.latency_cycles += tile.latency_cycles * f;
                value.macs += tile.macs * count;
                value.activation_memory_pj += tile.energy_summary.activation_memory_pj * f;
                value.degraded |= tile.degraded;
                let classes = [&scratch.activation, &scratch.weight, &scratch.copy];
                for (sums, class) in value.dram_traffic.iter_mut().zip(classes) {
                    for (sum, slot) in sums.iter_mut().zip(&class.slots[dram.0]) {
                        if let Some(access) = slot {
                            sum.reads_bytes += access.reads_bytes * f;
                            sum.writes_bytes += access.writes_bytes * f;
                        }
                    }
                }
            }
            value
        })
    }

    /// The [`StackCost`] of a candidate a schedule search has chosen on its
    /// [`StackValue`]: [`DfCostModel::evaluate_stack`] on a pre-built
    /// geometry, whose mapping-cache lookups repeat the search's and so
    /// count nothing (see [`MappingCache::repeat_shared_keyed`]).
    pub(crate) fn reprice_stack(
        &self,
        geometry: &StackGeometry<'_>,
        tile: TileSize,
        mode: OverlapMode,
        stack_input_level: MemoryLevelId,
        stack_output_level: MemoryLevelId,
    ) -> StackCost {
        let types = tile_types(geometry, tile, mode);
        self.price_stack(
            geometry,
            types,
            stack_input_level,
            stack_output_level,
            Lookups::Repeated,
        )
    }

    /// Steps 3–6 of one stack on the report path: prices every tile type of
    /// `types` (the stack's step 1–2 output) and accumulates them into the
    /// full [`StackCost`].
    fn price_stack(
        &self,
        geometry: &StackGeometry<'_>,
        types: TileTypes,
        stack_input_level: MemoryLevelId,
        stack_output_level: MemoryLevelId,
        lookups: Lookups,
    ) -> StackCost {
        let _span = span!("evaluate.stack");
        with_scratch(|scratch| {
            let type_costs: Vec<TileTypeCost> = types
                .into_iter()
                .map(|(analysis, count)| {
                    let tile = self.fill_tile_type(
                        geometry,
                        &analysis,
                        stack_input_level,
                        stack_output_level,
                        lookups,
                        scratch,
                    );
                    TileTypeCost {
                        analysis,
                        count,
                        energy_pj: tile.energy_pj,
                        latency_cycles: tile.latency_cycles,
                        macs: tile.macs,
                        activation_access: scratch.activation.to_breakdown(),
                        weight_access: scratch.weight.to_breakdown(),
                        copy_access: scratch.copy.to_breakdown(),
                        energy_summary: tile.energy_summary,
                        degraded: tile.degraded,
                    }
                })
                .collect();

            // Step 6: accumulate.
            let mut energy = 0.0;
            let mut latency = 0.0;
            let mut macs = 0u64;
            let mut summary = EnergySummary::default();
            let mut degraded = false;
            let TileScratch {
                activation,
                weight,
                copy,
                ..
            } = scratch;
            let levels = self.acc.hierarchy().len();
            activation.reset(levels);
            weight.reset(levels);
            copy.reset(levels);
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
                activation_access: activation.to_breakdown(),
                weight_access: weight.to_breakdown(),
                copy_access: copy.to_breakdown(),
                energy_summary: summary,
                degraded,
            }
        })
    }

    /// Steps 3–5 of one tile type — placement, data copies and single-layer
    /// costs for every layer of the stack, for a single tile — which both
    /// paths run: fills `scratch`'s traffic slots with the tile's traffic
    /// and returns its scalars. The slots and buffers are cleared here
    /// before use; the layer-cost memo is kept across the stack's tile
    /// types: a layer tile priced before in this stack skips the problem,
    /// the key, the hashing and the shard lock of the shared mapping cache,
    /// and counts as the hit that lookup would have been (under
    /// [`Lookups::Counted`]).
    fn fill_tile_type(
        &self,
        geometry: &StackGeometry<'_>,
        analysis: &TileAnalysis,
        stack_input_level: MemoryLevelId,
        stack_output_level: MemoryLevelId,
        lookups: Lookups,
        scratch: &mut TileScratch,
    ) -> TileScalars {
        /// Distinct tile types priced across every stack evaluation.
        static TILE_TYPES: Counter = Counter::new("evaluate.tile_types");
        let _span = span!("evaluate.tile_type");
        TILE_TYPES.incr();
        let dram = self.acc.hierarchy().dram_id();
        let mut energy = 0.0;
        let mut latency = 0.0;
        let mut macs = 0u64;
        let mut mac_energy = 0.0;
        let mut degraded = false;
        let TileScratch {
            actions,
            output_levels,
            activation,
            weight,
            copy,
            layer_costs,
        } = scratch;
        let levels = self.acc.hierarchy().len();
        activation.reset(levels);
        weight.reset(levels);
        copy.reset(levels);
        // `analysis.layers` is in stack order, as `output_levels` is.
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
            // problem, once per layer tile of the stack.
            let key = LayerTileKey {
                position: pos,
                width: rec.to_compute_w,
                height: rec.to_compute_h,
                tops,
            };
            let layer_cost = match layer_costs.entry(key) {
                Entry::Occupied(seen) => {
                    let (cost, canonicalized) = seen.into_mut();
                    if lookups == Lookups::Counted {
                        self.cache.count_repeat_hit(*canonicalized);
                    }
                    &**cost
                }
                Entry::Vacant(slot) => {
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
                    &*slot
                        .insert(self.evaluate_layer_tile(layer, dims, tops, lookups))
                        .0
                }
            };

            energy += layer_cost.energy_pj + copies.energy_pj;
            latency += layer_cost.latency_cycles + copies.latency_cycles;
            macs += layer_cost.macs;
            mac_energy += layer_cost.mac_energy_pj;
            degraded |= layer_cost.degraded;
            // One addition per key of the layer's copy sum, formed first:
            // the float summation order the breakdowns are pinned to.
            for (level, operand, bytes) in copies.reads() {
                copy.slot(level, operand).reads_bytes += bytes;
            }
            for (level, operand, bytes) in copies.writes() {
                copy.slot(level, operand).writes_bytes += bytes;
            }
            for (level, operand, access) in layer_cost.accesses.iter() {
                let target = if operand == Operand::Weight {
                    &mut *weight
                } else {
                    &mut *activation
                };
                let slot = target.slot(level, operand);
                slot.reads_bytes += access.reads_bytes;
                slot.writes_bytes += access.writes_bytes;
            }
            output_levels.push(output_top);
        }

        TileScalars {
            energy_pj: energy,
            latency_cycles: latency,
            macs,
            energy_summary: energy_summary(
                self.acc,
                mac_energy,
                [activation.iter(), weight.iter(), copy.iter()],
            ),
            degraded,
        }
    }

    /// Memoized single-layer evaluation through the mapping cache, counted
    /// or not as `lookups` says. Returns a shared handle — a cache hit is a
    /// reference-count bump, not a deep copy of the access breakdown — and
    /// whether the key was canonicalized.
    fn evaluate_layer_tile(
        &self,
        layer: &Layer,
        dims: LayerDims,
        tops: OperandTopLevels,
        lookups: Lookups,
    ) -> (Arc<LayerCost>, bool) {
        let problem = SingleLayerProblem::for_tile(self.acc, layer, dims, tops);
        let (key, canonicalized) = defines_mapping::ProblemKey::canonical_with_fingerprints(
            &problem,
            self.acc_fingerprint,
            self.mapper_fingerprint,
        );
        let cost = match lookups {
            Lookups::Counted => {
                self.cache
                    .optimize_shared_keyed(key, canonicalized, &self.mapper, &problem)
            }
            Lookups::Repeated => {
                self.cache
                    .repeat_shared_keyed(key, canonicalized, &self.mapper, &problem)
            }
        };
        (cost, canonicalized)
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
    use defines_mapping::Objective;
    use defines_workload::{models, LayerId, OpType};
    use proptest::prelude::*;

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
            // The fingerprint cached for cache keys follows every setter.
            for model in [&first, &last] {
                assert_eq!(model.mapper_fingerprint, model.mapper.config_fingerprint());
            }
            assert_ne!(first.mapper_config(), &MapperConfig::fast());
        }
        assert_commutes(|m| m.with_search_budget(defines_mapping::Budget::orderings(17)));
        assert_commutes(|m| {
            let config = m.mapper_config().with_objective(Objective::Latency);
            m.with_mapper(config)
        });
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

    /// One traffic add: reads or writes, a level, an operand and a byte
    /// count — zero one time in four, else in thirds, so that summation
    /// order shows in the bits.
    fn traffic_add() -> impl Strategy<Value = (bool, usize, usize, f64)> {
        (0u8..2, 0usize..8, 0usize..3, 0u64..4096).prop_map(|(write, level, operand, bytes)| {
            let bytes = if bytes % 4 == 0 {
                0.0
            } else {
                bytes as f64 / 3.0
            };
            (write == 1, level, operand, bytes)
        })
    }

    fn entry_bits(breakdown: &AccessBreakdown) -> Vec<(MemoryLevelId, Operand, u64, u64)> {
        breakdown
            .iter()
            .map(|(l, o, a)| (l, o, a.reads_bytes.to_bits(), a.writes_bytes.to_bits()))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The dense slots end up holding what an `AccessBreakdown` fed the
        /// same adds holds: the same keys — one touched only by a zero add
        /// included — in the same order, with the same bits; and so does
        /// step 6's scaled merge.
        #[test]
        fn traffic_slots_match_an_access_breakdown(
            adds in (
                traffic_add(),
                traffic_add(),
                traffic_add(),
                traffic_add(),
                traffic_add(),
                traffic_add(),
                traffic_add(),
                traffic_add(),
            ),
            factor in 1u64..64,
        ) {
            let adds = [adds.0, adds.1, adds.2, adds.3, adds.4, adds.5, adds.6, adds.7];
            let mut slots = TrafficSlots::default();
            slots.reset(8);
            let mut reference = AccessBreakdown::new();
            for (write, level, operand, bytes) in adds {
                let (level, operand) = (MemoryLevelId(level), Operand::ALL[operand]);
                if write {
                    slots.slot(level, operand).writes_bytes += bytes;
                    reference.add_writes(level, operand, bytes);
                } else {
                    slots.slot(level, operand).reads_bytes += bytes;
                    reference.add_reads(level, operand, bytes);
                }
            }
            prop_assert_eq!(entry_bits(&slots.to_breakdown()), entry_bits(&reference));

            let factor = factor as f64;
            slots.reset(8);
            let mut merged = AccessBreakdown::new();
            for _ in 0..2 {
                slots.merge_scaled(&reference, factor);
                merged.merge_scaled(&reference, factor);
            }
            prop_assert_eq!(entry_bits(&slots.to_breakdown()), entry_bits(&merged));
        }
    }
}

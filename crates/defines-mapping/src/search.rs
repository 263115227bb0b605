//! The symmetry-pruned, branch-and-bound temporal-mapping search.
//!
//! [`LomaMapper::optimize`](crate::LomaMapper::optimize) used to evaluate up
//! to `6! = 720` full loop orderings per problem, each with a fresh bottom-up
//! memory allocation and a heap-allocated cost record. This module replaces
//! that cold path with a search that is guaranteed to return a bit-identical
//! [`LayerCost`] while doing far less work:
//!
//! * **Canonicalization** — size-1 loops are dropped from the permutation
//!   space ([`crate::temporal::active_loops`]), and
//!   *interchangeable* dimensions (equal trip count, equal spatial unrolling,
//!   identical relevance for every operand, and a symmetric role in every
//!   data-size formula) are pinned to their canonical relative order. Each
//!   surviving ordering is the lexicographically-first member of its symmetry
//!   orbit, which is exactly the member an exhaustive lexicographic scan
//!   would crown on a tie — so skipping the mirrors cannot change the result.
//! * **Prefix-tree enumeration** — orderings are walked innermost-first
//!   through the permutation tree, and the greedy bottom-up allocation state
//!   (per-operand level boundaries plus the refetch factors of already-closed
//!   levels) is extended incrementally, so orderings sharing an innermost
//!   prefix share that work instead of re-deriving it from scratch.
//! * **Branch and bound** — at every prefix the same allocation state yields
//!   a *monotone lower bound* on the cost of any completion: closed levels
//!   keep their current refetch factor (future loops can only multiply it),
//!   open levels are priced at the refetch-free minimum of one footprint
//!   fill. The bound is evaluated with the exact float-operation order of the
//!   true cost, term-wise dominated by it, so `bound > best` proves the whole
//!   subtree is strictly worse and it is skipped. Strictness preserves the
//!   exhaustive scan's tie-breaking.
//!
//! The search itself is sequential and shares nothing: it prunes against its
//! own best only, so the result *and* the counters are a pure function of
//! (problem, configuration). A mean search costs 20–54 µs, below any thread
//! hand-off, so the parallelism lives one level up, across the many
//! independent searches the sweep engine dispatches.
//!
//! The scalar kernel behind both the bound and the leaf evaluation is
//! allocation-free: it works on fixed-size arrays indexed by memory level and
//! operand, mirroring [`crate::cost::evaluate`]'s accumulation order exactly
//! so the scalars it produces are bit-identical to the full cost model's.
//! Only the single best ordering is re-evaluated through
//! [`crate::cost::evaluate`] to build the returned [`LayerCost`].

use crate::allocation::{sharers, usable_levels};
use crate::cost::{evaluate, LayerCost, Objective};
use crate::loma::MapperConfig;
use crate::problem::SingleLayerProblem;
use crate::temporal::{active_loops, TemporalMapping};
use defines_arch::Operand;
use defines_workload::{Dim, OpType};

/// Maximum number of temporal loops a problem can have (the six non-batch
/// dimensions; batch is never temporal in this model).
pub(crate) const MAX_LOOPS: usize = 6;
/// Maximum number of memory levels on one operand's path.
const MAX_LEVELS: usize = 8;

/// Counters describing one temporal-mapping search
/// ([`LomaMapper::optimize_with_stats`](crate::LomaMapper::optimize_with_stats)).
///
/// `evaluated + pruned_bound + pruned_symmetry + skipped_budget ==
/// orderings_selected` always holds: every candidate ordering is either fully
/// evaluated or attributed to exactly one skip mechanism. The split is
/// deterministic: every counter is a pure function of the problem and the
/// mapper configuration, whatever else runs concurrently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchStats {
    /// Loop dimensions with a non-trivial temporal trip count.
    pub dims_active: usize,
    /// Size of the full permutation space (`dims_active!`).
    pub orderings_total: u64,
    /// Orderings selected as candidates (after the `max_orderings` cap).
    pub orderings_selected: u64,
    /// Candidate orderings fully evaluated.
    pub evaluated: u64,
    /// Candidate orderings skipped because the partial-cost lower bound of
    /// their shared prefix already exceeded the best evaluated cost.
    pub pruned_bound: u64,
    /// Candidate orderings skipped as non-canonical members of a symmetry
    /// orbit (only active when the full permutation space is enumerated).
    pub pruned_symmetry: u64,
    /// Candidate orderings skipped because their rank in the deterministic
    /// enumeration fell at or beyond [`crate::Budget::max_orderings`]. A
    /// non-zero count marks the returned cost as *degraded*: it is the exact
    /// optimum of the in-budget candidate window, not of the full space.
    pub skipped_budget: u64,
}

impl SearchStats {
    /// Orderings skipped by either pruning mechanism.
    pub fn pruned(&self) -> u64 {
        self.pruned_bound + self.pruned_symmetry
    }
}

/// Entry point: finds the best temporal mapping of a problem under the given
/// mapper configuration, returning the (bit-identical-to-exhaustive) cost and
/// the search counters.
pub(crate) fn search(
    problem: &SingleLayerProblem<'_>,
    config: &MapperConfig,
) -> (LayerCost, SearchStats) {
    let loops = active_loops(problem);
    let k = loops.len();
    let mut stats = SearchStats {
        dims_active: k,
        ..SearchStats::default()
    };
    if k == 0 {
        stats.orderings_total = 1;
        stats.orderings_selected = 1;
        stats.evaluated = 1;
        let mapping = TemporalMapping::from_order(problem, &[]);
        return (evaluate(problem, &mapping), stats);
    }

    let total: u64 = (1..=k as u64).product();
    let max = if config.max_orderings == 0 {
        u64::MAX
    } else {
        config.max_orderings as u64
    };
    let sample = total > max;
    stats.orderings_total = total;
    stats.orderings_selected = if sample { max } else { total };

    let budget = if config.budget.max_orderings == 0 {
        u64::MAX
    } else {
        config.budget.max_orderings
    };
    let ctx = SearchCtx::new(problem, config.objective, &loops, sample, max, budget);
    let mut state = WalkState::fresh(&ctx);
    state.stats = stats;
    ctx.descend(&mut state, 0, 0, &[AllocState::default(); 3]);

    let stats = state.stats;
    debug_assert_eq!(
        stats.evaluated + stats.pruned_bound + stats.pruned_symmetry + stats.skipped_budget,
        stats.orderings_selected
    );
    let best = state.best.expect("at least one ordering evaluated");
    let order = best.order[..best.order_len].to_vec();
    let mapping = TemporalMapping::from_order(problem, &order);
    let mut cost = evaluate(problem, &mapping);
    cost.degraded = stats.skipped_budget > 0;
    debug_assert_eq!(
        cost.objective_value(config.objective, problem.accelerator.hierarchy().dram_id()),
        best.value,
        "scalar search kernel diverged from the full cost model"
    );
    (cost, stats)
}

/// Read/write traffic accumulator for one (memory level, operand) slot.
#[derive(Debug, Clone, Copy, Default)]
struct Traffic {
    reads: f64,
    writes: f64,
}

/// Per-operand, mapping-independent context of the search.
struct OpCtx {
    operand: Operand,
    /// Total operand footprint in bytes (always > 0 here).
    footprint: f64,
    /// Traffic the PE array drains from the innermost level.
    pe_bytes: f64,
    /// Bitmask over [`Dim::ALL`] indices of the operand's relevant loops.
    relevant: u8,
    /// The operand's usable memory levels, innermost first (global indices).
    levels: Vec<usize>,
    /// Capacity share of each non-top level, as the cost model compares it.
    shares: Vec<f64>,
    /// Whether the capacity shares are non-decreasing from the innermost
    /// level outward. When they are (every zoo architecture), the incremental
    /// allocation state is exact; otherwise leaf costs recompute the greedy
    /// allocation from scratch and bounds fall back to refetch-free fills.
    incremental: bool,
}

/// Incremental bottom-up allocation state of one operand for one prefix.
///
/// Level `i` (a non-top usable level) is *closed* once the data addressed by
/// the prefix loops no longer fits its share. The boundary itself need not be
/// stored — the cost kernel only consumes the refetch factor of the loops
/// above it, which is final from the moment the level closes (shares
/// permitting, see [`OpCtx::incremental`]); open levels always price at
/// factor 1.
#[derive(Debug, Clone, Copy)]
struct AllocState {
    /// Bitmask of closed levels.
    closed: u8,
    /// Per closed level: whether a relevant loop has appeared above its
    /// boundary yet (the refetch factor only multiplies after that).
    seen_relevant: u8,
    /// Per closed level: the refetch factor of the prefix loops above its
    /// boundary, maintained in exact loop order.
    factor: [f64; MAX_LEVELS],
}

impl Default for AllocState {
    fn default() -> Self {
        Self {
            closed: 0,
            seen_relevant: 0,
            factor: [1.0; MAX_LEVELS],
        }
    }
}

/// The best leaf seen so far. Leaves are visited in lexicographic order and
/// only a strictly smaller (value, energy, latency) replaces it, so ties
/// resolve to the first-encountered candidate — the one the exhaustive scan
/// crowns.
struct Best {
    value: f64,
    energy: f64,
    latency: f64,
    order_len: usize,
    order: [Dim; MAX_LOOPS],
}

/// The immutable context of one search.
struct SearchCtx<'p, 'a> {
    problem: &'p SingleLayerProblem<'a>,
    objective: Objective,
    /// Active loop dimensions, canonical order.
    dims: Vec<Dim>,
    /// Temporal trip count per active dimension.
    trips: Vec<u64>,
    /// Spatial unrolling factor per [`Dim::ALL`] index.
    factors: [u64; 7],
    /// Temporal trip count per [`Dim::ALL`] index (1 for inactive dims).
    trip_by_dim: [u64; 7],
    /// For each active dim: bitmask of earlier active dims that are
    /// interchangeable with it and must therefore already be placed before it
    /// may be chosen (symmetry canonicalization).
    pred_mask: Vec<u8>,
    /// Whether symmetry pruning is active (only without subsampling: a
    /// sampled candidate's mirror may not be in the sample, so skipping it
    /// would lose a candidate instead of a duplicate).
    symmetry: bool,
    sample: bool,
    max: u64,
    /// Rank-window budget: candidates whose selected-index reaches this value
    /// are skipped (`u64::MAX` = unlimited). A pure function of enumeration
    /// rank, so the skipped set — and the degraded result — never depends on
    /// timing.
    budget: u64,
    total: u64,
    /// Sub-factorials: `fact[i] = i!`.
    fact: [u64; MAX_LOOPS + 1],
    ops: Vec<OpCtx>,
    /// Per global memory level: read/write energy per byte and bandwidth.
    level_read_e: Vec<f64>,
    level_write_e: Vec<f64>,
    level_read_bw: Vec<f64>,
    level_write_bw: Vec<f64>,
    dram: usize,
    mac_energy: f64,
    compute_cycles: f64,
}

/// The mutable walk state: the current prefix, the scratch traffic
/// accumulators and the search's best/stats.
struct WalkState {
    /// Effective (spatial × temporal-below) size per [`Dim::ALL`] index for
    /// the current prefix, as used by the data-size formulas.
    eff: [u64; 7],
    used: u8,
    order_buf: [Dim; MAX_LOOPS],
    /// Scratch traffic accumulators, one slot per (level, operand).
    traffic: Vec<[Traffic; 3]>,
    best: Option<Best>,
    stats: SearchStats,
}

impl WalkState {
    /// A fresh walk state for `ctx`'s search.
    fn fresh(ctx: &SearchCtx<'_, '_>) -> Self {
        Self {
            eff: ctx.factors,
            used: 0,
            order_buf: [Dim::B; MAX_LOOPS],
            traffic: vec![[Traffic::default(); 3]; ctx.level_read_e.len()],
            best: None,
            stats: SearchStats::default(),
        }
    }
}

impl<'p, 'a> SearchCtx<'p, 'a> {
    fn new(
        problem: &'p SingleLayerProblem<'a>,
        objective: Objective,
        loops: &[crate::temporal::TemporalLoop],
        sample: bool,
        max: u64,
        budget: u64,
    ) -> Self {
        let unrolling = problem.accelerator.pe_array().unrolling();
        let mut factors = [1u64; 7];
        for (i, d) in Dim::ALL.iter().enumerate() {
            factors[i] = unrolling.factor(*d);
        }
        let dims: Vec<Dim> = loops.iter().map(|l| l.dim).collect();
        let trips: Vec<u64> = loops.iter().map(|l| l.size).collect();
        let k = dims.len();
        let mut fact = [1u64; MAX_LOOPS + 1];
        for i in 1..=MAX_LOOPS {
            fact[i] = fact[i - 1] * i as u64;
        }
        let total = fact[k];

        let hierarchy = problem.accelerator.hierarchy();
        let n_levels = hierarchy.levels().len();
        let mut level_read_e = Vec::with_capacity(n_levels);
        let mut level_write_e = Vec::with_capacity(n_levels);
        let mut level_read_bw = Vec::with_capacity(n_levels);
        let mut level_write_bw = Vec::with_capacity(n_levels);
        for level in hierarchy.levels() {
            level_read_e.push(level.read_energy_pj_per_byte());
            level_write_e.push(level.write_energy_pj_per_byte());
            level_read_bw.push(level.read_bw_bytes_per_cycle());
            level_write_bw.push(level.write_bw_bytes_per_cycle());
        }

        let pe = problem.accelerator.pe_array();
        let macs = problem.total_macs();
        let mut ops = Vec::with_capacity(3);
        for operand in Operand::ALL {
            let footprint = problem.footprint_bytes(operand) as f64;
            if footprint <= 0.0 {
                continue;
            }
            let relevant_dims = problem.relevant_dims(operand);
            let spatial_reuse = pe.unrolling().spatial_reuse(relevant_dims) as f64;
            let pe_bytes = macs as f64 / spatial_reuse * problem.bytes_per_element(operand) as f64;
            let mut relevant = 0u8;
            for (i, d) in Dim::ALL.iter().enumerate() {
                if relevant_dims.contains(d) {
                    relevant |= 1 << i;
                }
            }
            let levels: Vec<usize> = usable_levels(problem, operand)
                .into_iter()
                .map(|id| id.0)
                .collect();
            assert!(levels.len() <= MAX_LEVELS, "memory hierarchy too deep");
            let mut shares = Vec::with_capacity(levels.len().saturating_sub(1));
            for &lvl in &levels[..levels.len() - 1] {
                let level = hierarchy.level(defines_arch::MemoryLevelId(lvl));
                let share = match level.capacity_bytes() {
                    None => u64::MAX,
                    Some(c) => c / sharers(problem, defines_arch::MemoryLevelId(lvl)),
                };
                shares.push(share as f64);
            }
            let incremental = shares.windows(2).all(|w| w[0] <= w[1]);
            ops.push(OpCtx {
                operand,
                footprint,
                pe_bytes,
                relevant,
                levels,
                shares,
                incremental,
            });
        }

        let mut trip_by_dim = [1u64; 7];
        for (d, t) in dims.iter().zip(trips.iter()) {
            trip_by_dim[dim_index(*d)] = *t;
        }

        let mut ctx = Self {
            problem,
            objective,
            pred_mask: vec![0; k],
            symmetry: !sample,
            sample,
            max,
            budget,
            total,
            fact,
            ops,
            level_read_e,
            level_write_e,
            level_read_bw,
            level_write_bw,
            dram: hierarchy.dram_id().0,
            mac_energy: macs as f64 * pe.mac_energy_pj(),
            compute_cycles: pe.compute_cycles(macs, &problem.dims),
            dims,
            trips,
            factors,
            trip_by_dim,
        };
        if ctx.symmetry {
            ctx.compute_symmetry();
        }
        ctx
    }

    /// Marks, for every active dimension, the earlier interchangeable
    /// dimensions it must follow. Two dimensions are interchangeable when
    /// swapping them in *any* ordering provably yields the exact same cost:
    /// equal temporal trip count, equal spatial unrolling factor, identical
    /// relevance for every evaluated operand, and a symmetric role in every
    /// data-size formula (purely multiplicative dims always qualify; the
    /// OX/OY and FX/FY sliding-window pairs qualify when the strides match
    /// and the partner pair is temporally trivial with equal unrolling).
    fn compute_symmetry(&mut self) {
        let k = self.dims.len();
        for j in 1..k {
            for i in 0..j {
                if self.interchangeable(i, j) {
                    self.pred_mask[j] |= 1 << i;
                }
            }
        }
    }

    fn interchangeable(&self, i: usize, j: usize) -> bool {
        let (di, dj) = (self.dims[i], self.dims[j]);
        if self.trips[i] != self.trips[j] {
            return false;
        }
        if self.factors[dim_index(di)] != self.factors[dim_index(dj)] {
            return false;
        }
        let (bi, bj) = (1u8 << dim_index(di), 1u8 << dim_index(dj));
        for op in &self.ops {
            if (op.relevant & bi != 0) != (op.relevant & bj != 0) {
                return false;
            }
        }
        let multiplicative = |d: Dim| matches!(d, Dim::B | Dim::K | Dim::C);
        if multiplicative(di) && multiplicative(dj) {
            return true;
        }
        let dims = &self.problem.dims;
        let inactive = |d: Dim| !self.dims.contains(&d);
        match (di, dj) {
            (Dim::OX, Dim::OY) | (Dim::OY, Dim::OX) => {
                dims.stride_x == dims.stride_y
                    && inactive(Dim::FX)
                    && inactive(Dim::FY)
                    && self.factors[dim_index(Dim::FX)] == self.factors[dim_index(Dim::FY)]
            }
            (Dim::FX, Dim::FY) | (Dim::FY, Dim::FX) => {
                dims.stride_x == dims.stride_y
                    && inactive(Dim::OX)
                    && inactive(Dim::OY)
                    && self.factors[dim_index(Dim::OX)] == self.factors[dim_index(Dim::OY)]
            }
            _ => false,
        }
    }

    /// Number of *selected* candidate orderings whose leaf index falls in
    /// `[from, to)`. Without sampling every leaf is a candidate; with
    /// sampling the candidates are the exact integer-stride picks
    /// `i * total / max`.
    fn selected_in(&self, from: u64, to: u64) -> u64 {
        if !self.sample {
            return to - from;
        }
        // floor(i * total / max) >= x  <=>  i >= ceil(x * max / total)
        let first = |x: u64| x.saturating_mul(self.max).div_ceil(self.total);
        first(to) - first(from)
    }

    /// Walks the permutation subtree below the current prefix (`depth` loops
    /// placed, leaves covering `[leaf_base, leaf_base + (k - depth)!)`).
    fn descend(
        &self,
        state: &mut WalkState,
        depth: usize,
        leaf_base: u64,
        states: &[AllocState; 3],
    ) {
        let k = self.dims.len();
        let sub = self.fact[k - depth - 1];
        let mut branch = 0u64;
        for idx in 0..k {
            if state.used & (1 << idx) != 0 {
                continue;
            }
            let base = leaf_base + branch * sub;
            branch += 1;
            let selected = self.selected_in(base, base + sub);
            if selected == 0 {
                continue;
            }
            if self.symmetry && (self.pred_mask[idx] & state.used) != self.pred_mask[idx] {
                state.stats.pruned_symmetry += selected;
                continue;
            }
            // Rank-window budget: a subtree whose first candidate already
            // sits at or beyond the budget is skipped wholesale. The check
            // depends only on enumeration ranks — never on timing or the
            // best found so far — so the degraded result stays deterministic.
            let start_rank = self.selected_in(0, base);
            if start_rank >= self.budget {
                state.stats.skipped_budget += selected;
                continue;
            }
            let fully_in_budget = start_rank + selected <= self.budget;
            let mut child = *states;
            self.push(state, depth, idx, &mut child);
            if depth + 1 == k {
                self.evaluate_leaf(state, &child);
                self.pop(state, idx);
                continue;
            }
            // Bounding a subtree with a single candidate costs as much as
            // evaluating that candidate, so only bound where pruning can
            // amortize. The prune reference is this search's own best: an
            // exact evaluated cost, so it is >= the optimum and strict
            // pruning never drops an optimal-value leaf. Subtrees straddling
            // the budget boundary always recurse: bound-pruning them would
            // charge their beyond-budget tail to `pruned_bound` instead of
            // `skipped_budget`.
            let best_value = state.best.as_ref().map(|b| b.value);
            if let (Some(best_value), true) = (best_value, selected > 1 && fully_in_budget) {
                let (bound, _, _) = self.eval_scalars(state, &child, false);
                if bound > best_value {
                    state.stats.pruned_bound += selected;
                    self.pop(state, idx);
                    continue;
                }
            }
            self.descend(state, depth + 1, base, &child);
            self.pop(state, idx);
        }
    }

    /// Extends the prefix with active dim `idx` as the new outermost loop,
    /// updating the effective sizes and each operand's allocation state.
    fn push(&self, state: &mut WalkState, depth: usize, idx: usize, states: &mut [AllocState]) {
        let d = self.dims[idx];
        let t = self.trips[idx];
        let di = dim_index(d);
        state.order_buf[depth] = d;
        state.used |= 1 << idx;
        state.eff[di] = self.factors[di] * t;

        for (op, alloc) in self.ops.iter().zip(states.iter_mut()) {
            let relevant = op.relevant & (1 << di) != 0;
            // Advance the refetch trackers of the already-closed levels: the
            // new loop sits above every closed boundary.
            let mut closed = alloc.closed;
            while closed != 0 {
                let lvl = closed.trailing_zeros() as usize;
                closed &= closed - 1;
                let bit = 1u8 << lvl;
                if relevant {
                    alloc.seen_relevant |= bit;
                } else if alloc.seen_relevant & bit != 0 {
                    alloc.factor[lvl] *= t as f64;
                }
            }
            if !op.incremental {
                continue;
            }
            // Try to keep the new loop resident in every still-open non-top
            // level; levels it no longer fits close with the loop as the
            // first (already processed) loop above their boundary.
            let mut size = None;
            for lvl in 0..op.shares.len() {
                let bit = 1u8 << lvl;
                if alloc.closed & bit != 0 {
                    continue;
                }
                let size = *size.get_or_insert_with(|| data_size(self.problem, op, &state.eff));
                if size > op.shares[lvl] {
                    alloc.closed |= bit;
                    alloc.factor[lvl] = 1.0;
                    if relevant {
                        alloc.seen_relevant |= bit;
                    }
                }
            }
        }
    }

    fn pop(&self, state: &mut WalkState, idx: usize) {
        let di = dim_index(self.dims[idx]);
        state.used &= !(1 << idx);
        state.eff[di] = self.factors[di];
    }

    /// Evaluates the full ordering described by the current prefix (which now
    /// covers every active loop) and updates the search's best.
    fn evaluate_leaf(&self, state: &mut WalkState, states: &[AllocState]) {
        state.stats.evaluated += 1;
        let (value, energy, latency) = self.eval_scalars(state, states, true);
        let better = match &state.best {
            None => true,
            Some(b) => (value, energy, latency) < (b.value, b.energy, b.latency),
        };
        if better {
            state.best = Some(Best {
                value,
                energy,
                latency,
                order_len: self.dims.len(),
                order: state.order_buf,
            });
        }
    }

    /// The allocation-free scalar cost kernel.
    ///
    /// With `exact == true` (a complete ordering) it reproduces
    /// [`crate::cost::evaluate`]'s energy / latency / objective scalars
    /// bit-for-bit: the traffic terms are accumulated into dense
    /// (level, operand) slots in the same order the cost model fills its
    /// sorted access map, and the reductions over levels and operands follow
    /// the same iteration order. With `exact == false` (a prefix) the same
    /// computation prices still-open levels at refetch factor 1 — every term
    /// is then dominated by its true counterpart in any completion and the
    /// float accumulation order is identical, so the result is a monotone
    /// lower bound of every completion's true cost.
    fn eval_scalars(
        &self,
        state: &mut WalkState,
        states: &[AllocState],
        exact: bool,
    ) -> (f64, f64, f64) {
        for slot in state.traffic.iter_mut() {
            *slot = [Traffic::default(); 3];
        }
        let mut exact_factors = [1.0f64; MAX_LEVELS];
        for (op_idx, (op, alloc)) in self.ops.iter().zip(states.iter()).enumerate() {
            let o = operand_index(op.operand);
            let innermost = op.levels[0];
            state.traffic[innermost][o].reads += op.pe_bytes;
            if op.operand == Operand::Output {
                state.traffic[innermost][o].writes += op.pe_bytes;
            }
            let n_windows = op.levels.len() - 1;
            if n_windows == 0 {
                continue;
            }
            let fallback_exact = exact && !op.incremental;
            if fallback_exact {
                self.exact_refetch_factors(state, op_idx, &mut exact_factors);
            }
            // `w` indexes three parallel structures (level pairs, closure
            // bits, exact factors), so a plain range loop is the clear form.
            #[allow(clippy::needless_range_loop)]
            for w in 0..n_windows {
                let child = op.levels[w];
                let parent = op.levels[w + 1];
                let r = if fallback_exact {
                    exact_factors[w]
                } else if op.incremental && alloc.closed & (1 << w) != 0 {
                    alloc.factor[w]
                } else {
                    1.0
                };
                match op.operand {
                    Operand::Weight | Operand::Input => {
                        let fills = op.footprint * r;
                        state.traffic[child][o].writes += fills;
                        state.traffic[parent][o].reads += fills;
                    }
                    Operand::Output => {
                        let up = op.footprint * r;
                        let down = op.footprint * (r - 1.0);
                        state.traffic[child][o].reads += up;
                        state.traffic[parent][o].writes += up;
                        state.traffic[parent][o].reads += down;
                        state.traffic[child][o].writes += down;
                    }
                }
            }
        }

        // Memory energy, iterating (level, operand) slots in the sorted-map
        // order of the cost model. Slots never touched contribute exactly 0.
        let mut memory_energy = 0.0;
        for (lvl, slots) in state.traffic.iter().enumerate() {
            for t in slots {
                memory_energy +=
                    t.reads * self.level_read_e[lvl] + t.writes * self.level_write_e[lvl];
            }
        }
        let energy = self.mac_energy + memory_energy;

        // Latency: compute-bound unless one level's traffic dominates.
        let mut latency = self.compute_cycles;
        let mut dram_reads = 0.0;
        let mut dram_writes = 0.0;
        for (lvl, slots) in state.traffic.iter().enumerate() {
            let mut reads = 0.0;
            let mut writes = 0.0;
            for t in slots {
                reads += t.reads;
                writes += t.writes;
            }
            if lvl == self.dram {
                dram_reads = reads;
                dram_writes = writes;
            }
            let read_cycles = if self.level_read_bw[lvl].is_finite() {
                reads / self.level_read_bw[lvl]
            } else {
                0.0
            };
            let write_cycles = if self.level_write_bw[lvl].is_finite() {
                writes / self.level_write_bw[lvl]
            } else {
                0.0
            };
            latency = latency.max(read_cycles).max(write_cycles);
        }

        let value = match self.objective {
            Objective::Energy => energy,
            Objective::Latency => latency,
            Objective::Edp => energy * latency,
            Objective::DramAccess => dram_reads + dram_writes,
        };
        (value, energy, latency)
    }

    /// Greedy bottom-up allocation and refetch factors recomputed from
    /// scratch over the complete current ordering, for operands whose
    /// capacity shares are not monotone (where the incremental state may
    /// diverge from the reference greedy). Mirrors
    /// [`crate::allocation::allocate`] exactly.
    fn exact_refetch_factors(
        &self,
        state: &WalkState,
        op_idx: usize,
        factors: &mut [f64; MAX_LEVELS],
    ) {
        let op = &self.ops[op_idx];
        let k = self.dims.len();
        let mut eff = self.factors;
        let mut boundary = 0usize;
        let mut boundaries = [0usize; MAX_LEVELS];
        for (lvl, share) in op.shares.iter().enumerate() {
            while boundary < k {
                let di = dim_index(state.order_buf[boundary]);
                let saved = eff[di];
                eff[di] = self.factors[di] * self.trip_by_dim[di];
                if data_size(self.problem, op, &eff) <= *share {
                    boundary += 1;
                } else {
                    eff[di] = saved;
                    break;
                }
            }
            boundaries[lvl] = boundary;
        }
        for (lvl, &b) in boundaries[..op.shares.len()].iter().enumerate() {
            let mut seen_relevant = false;
            let mut factor = 1.0f64;
            for pos in b..k {
                let di = dim_index(state.order_buf[pos]);
                if op.relevant & (1 << di) != 0 {
                    seen_relevant = true;
                } else if seen_relevant {
                    factor *= self.trip_by_dim[di] as f64;
                }
            }
            factors[lvl] = factor;
        }
    }
}

/// Index of a dimension in [`Dim::ALL`].
fn dim_index(d: Dim) -> usize {
    match d {
        Dim::B => 0,
        Dim::K => 1,
        Dim::C => 2,
        Dim::OX => 3,
        Dim::OY => 4,
        Dim::FX => 5,
        Dim::FY => 6,
    }
}

/// Index of an operand in [`Operand::ALL`].
fn operand_index(op: Operand) -> usize {
    match op {
        Operand::Weight => 0,
        Operand::Input => 1,
        Operand::Output => 2,
    }
}

/// The resident data size of an operand given the effective per-dimension
/// sizes of a boundary, in bytes. Mirrors
/// [`crate::allocation::data_size_bytes`] exactly (same integer products,
/// same float conversion points).
fn data_size(problem: &SingleLayerProblem<'_>, op: &OpCtx, eff: &[u64; 7]) -> f64 {
    let e = |d: Dim| eff[dim_index(d)];
    let bytes = problem.bytes_per_element(op.operand) as f64;
    let elements: f64 = match op.operand {
        Operand::Weight => match problem.op {
            OpType::Conv => (e(Dim::K) * e(Dim::C) * e(Dim::FX) * e(Dim::FY)) as f64,
            OpType::DepthwiseConv => (e(Dim::K) * e(Dim::FX) * e(Dim::FY)) as f64,
            OpType::Pooling | OpType::Add => 0.0,
        },
        Operand::Input => {
            let channels = match problem.op {
                OpType::Conv => e(Dim::C),
                OpType::DepthwiseConv | OpType::Pooling => e(Dim::K),
                OpType::Add => 2 * e(Dim::K),
            };
            let ix = (e(Dim::OX).saturating_sub(1)) * problem.dims.stride_x + e(Dim::FX);
            let iy = (e(Dim::OY).saturating_sub(1)) * problem.dims.stride_y + e(Dim::FY);
            (e(Dim::B) * channels * ix * iy) as f64
        }
        Operand::Output => (e(Dim::B) * e(Dim::K) * e(Dim::OX) * e(Dim::OY)) as f64,
    };
    elements * bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loma::LomaMapper;
    use defines_arch::zoo;
    use defines_workload::{Layer, LayerDims};

    fn problems() -> Vec<(defines_arch::Accelerator, Layer)> {
        vec![
            (
                zoo::meta_proto_like_df(),
                Layer::new("c", OpType::Conv, LayerDims::conv(64, 32, 28, 28, 3, 3)),
            ),
            (
                zoo::tpu_like(),
                Layer::new("c", OpType::Conv, LayerDims::conv(32, 16, 56, 56, 3, 3)),
            ),
            (
                zoo::edge_tpu_like_df(),
                Layer::new(
                    "dw",
                    OpType::DepthwiseConv,
                    LayerDims::conv(48, 48, 28, 28, 3, 3),
                ),
            ),
            (
                zoo::ascend_like_df(),
                Layer::new(
                    "pool",
                    OpType::Pooling,
                    LayerDims::conv(64, 64, 28, 28, 2, 2).with_stride(2, 2),
                ),
            ),
        ]
    }

    #[test]
    fn pruned_search_matches_exhaustive_reference() {
        for (acc, layer) in problems() {
            let problem = SingleLayerProblem::new(&acc, &layer);
            let mapper = LomaMapper::default();
            let exhaustive = mapper.optimize_exhaustive(&problem);
            let (pruned, stats) = mapper.optimize_with_stats(&problem);
            assert_eq!(pruned, exhaustive, "{} / {}", acc.name(), layer.name);
            assert_eq!(
                stats.evaluated + stats.pruned_bound + stats.pruned_symmetry + stats.skipped_budget,
                stats.orderings_selected
            );
        }
    }

    #[test]
    fn sampled_search_matches_exhaustive_reference() {
        for (acc, layer) in problems() {
            let problem = SingleLayerProblem::new(&acc, &layer);
            for max in [3, 7, 48, 100] {
                let mapper = LomaMapper::new(MapperConfig {
                    objective: Objective::Energy,
                    max_orderings: max,
                    budget: crate::Budget::default(),
                });
                let exhaustive = mapper.optimize_exhaustive(&problem);
                let (pruned, stats) = mapper.optimize_with_stats(&problem);
                assert_eq!(pruned, exhaustive, "{} max={max}", acc.name());
                assert!(stats.orderings_selected <= max as u64);
            }
        }
    }

    #[test]
    fn all_objectives_agree_with_reference() {
        let acc = zoo::meta_proto_like_df();
        let layer = Layer::new("c", OpType::Conv, LayerDims::conv(64, 32, 28, 28, 3, 3));
        let problem = SingleLayerProblem::new(&acc, &layer);
        for objective in [
            Objective::Energy,
            Objective::Latency,
            Objective::Edp,
            Objective::DramAccess,
        ] {
            let mapper = LomaMapper::new(MapperConfig::default().with_objective(objective));
            assert_eq!(
                mapper.optimize(&problem),
                mapper.optimize_exhaustive(&problem),
                "{objective:?}"
            );
        }
    }

    #[test]
    fn search_prunes_a_nontrivial_fraction() {
        let acc = zoo::meta_proto_like_df();
        let layer = Layer::new("c", OpType::Conv, LayerDims::conv(64, 32, 28, 28, 3, 3));
        let problem = SingleLayerProblem::new(&acc, &layer);
        let (_, stats) = LomaMapper::default().optimize_with_stats(&problem);
        assert_eq!(stats.orderings_total, 720);
        assert!(
            stats.pruned() > 0,
            "expected pruning on a 6-dim problem: {stats:?}"
        );
        assert!(stats.evaluated < stats.orderings_selected);
    }

    #[test]
    fn degenerate_problem_evaluates_single_empty_ordering() {
        let acc = zoo::meta_proto_like();
        let layer = Layer::new("c", OpType::Conv, LayerDims::conv(32, 2, 4, 4, 1, 1));
        let problem = SingleLayerProblem::new(&acc, &layer);
        let (cost, stats) = LomaMapper::default().optimize_with_stats(&problem);
        assert!(cost.mapping.is_empty());
        assert_eq!(stats.dims_active, 0);
        assert_eq!(stats.evaluated, 1);
    }

    #[test]
    fn symmetry_detection_fires_for_square_one_by_one_conv() {
        // A square tile on a 1x1 conv: OX and OY have equal trips, equal
        // unrolling, equal relevance, and FX/FY are trivial -> the OX/OY pair
        // is interchangeable and half the orderings are symmetry-pruned.
        let acc = zoo::meta_proto_like_df();
        let layer = Layer::new("c", OpType::Conv, LayerDims::conv(64, 32, 32, 32, 1, 1));
        let problem = SingleLayerProblem::new(&acc, &layer);
        let (cost, stats) = LomaMapper::default().optimize_with_stats(&problem);
        assert!(stats.pruned_symmetry > 0, "{stats:?}");
        assert_eq!(cost, LomaMapper::default().optimize_exhaustive(&problem));
    }

    #[test]
    fn exhausted_budget_flags_the_cost_degraded() {
        let acc = zoo::meta_proto_like_df();
        let layer = Layer::new("c", OpType::Conv, LayerDims::conv(64, 32, 28, 28, 3, 3));
        let problem = SingleLayerProblem::new(&acc, &layer);
        let tight = MapperConfig::default().with_budget(crate::Budget::orderings(2));
        let (cost, stats) = search(&problem, &tight);
        assert!(stats.skipped_budget > 0, "{stats:?}");
        assert!(cost.degraded, "exhausted budget must flag the result");
        // The degraded result is the exact optimum of the in-budget window,
        // so it can never beat the unlimited search.
        let (full, full_stats) = search(&problem, &MapperConfig::default());
        assert_eq!(full_stats.skipped_budget, 0);
        assert!(!full.degraded);
        assert!(cost.energy_pj >= full.energy_pj - 1e-9);
    }
}

//! The cost arithmetic of a temporal mapping, and the transposition-pruned,
//! branch-and-bound search over loop orderings that drives it.
//!
//! # One cost arithmetic
//!
//! `Kernel` prices a mapping. It pushes the mapping's loops, innermost first,
//! through an incremental bottom-up allocation state: per operand, how many
//! non-top levels have *closed* (the data addressed by the pushed loops no
//! longer fits their capacity share) and, per closed level, the refetch
//! factor of the loops above its boundary. It then accumulates the
//! per-(level, operand) traffic into dense slots, one per usable level and
//! operand, and reduces them to energy and latency. Every [`LayerCost`] this
//! crate returns is built from those slots: `cost::evaluate` for a fixed
//! mapping and `search` for the best one, from the slots of the winning
//! leaf.
//!
//! The greedy allocation keeps as many innermost loops at each level as fit
//! its capacity share. The kernel compares each level against the running
//! maximum of the shares at and below it. Data size never decreases as loops
//! are pushed, so the greedy boundary of level `i` is the longest prefix
//! whose size fits `max(share_0, …, share_i)`: levels close in order, and the
//! incremental state is exact on any hierarchy, shares shrinking outward
//! included.
//!
//! # The search
//!
//! * **Active loops only** — size-1 loops are dropped from the permutation
//!   space ([`crate::temporal::active_loops`]).
//! * **Prefix-tree enumeration** — orderings are walked innermost-first
//!   through the permutation tree and the allocation state is extended one
//!   loop at a time, so orderings sharing an innermost prefix share that
//!   work.
//! * **Branch and bound** — a prefix's allocation state, priced, is a
//!   *monotone lower bound* on the cost of any completion: closed levels keep
//!   their current refetch factor (future loops can only multiply it), open
//!   levels are priced at the refetch-free minimum of one footprint fill.
//!   Every term is dominated by its counterpart in any completion, so
//!   `price(prefix) > best` proves the whole subtree is strictly worse and it
//!   is skipped. Strictness preserves the exhaustive scan's tie-breaking.
//! * **A derived form decides, `price` reports** — a priced value is affine
//!   in the boundaries' refetch excesses `r − 1`, with non-negative terms, so
//!   `LinearForms` precomputes it once per problem: a dozen or so
//!   multiply-adds per bound instead of filling and reducing every traffic
//!   slot. It is not bit-equal to `price`, so it is used for decisions only.
//!   Its rounding error is far inside a relative guard band of `1e-9`
//!   (`BAND`): a form value outside the band around the best prunes, descends
//!   or drops a leaf on its own; inside the band, or when not finite, `price`
//!   decides. Every decision, and so every `SearchStats` counter, is the one
//!   `price` alone would make, and every reported number comes from `price`.
//! * **Transpositions** — below a prefix the walk reads only the set of
//!   placed loops (which fixes the effective sizes) and each operand's
//!   allocation state. Two prefixes with equal `(placed loops, allocation
//!   states)` therefore root subtrees whose corresponding leaves have
//!   bit-identical (value, energy, latency). The subtree walked first holds
//!   the lexicographically-first member, leaves replace the best only when
//!   strictly smaller, and a node bound-pruned there had `bound > best` then
//!   and so `bound >= best` now; so every later prefix reaching an
//!   already-walked state is skipped without changing the cost or the
//!   tie-broken mapping (`Transpositions`). Most of the 720 orderings of a
//!   problem collapse this way: cost depends on an ordering only through the
//!   allocation state it builds.
//!
//! The search itself is sequential and shares nothing: it prunes against its
//! own best only, so the result *and* the counters are a pure function of
//! (problem, configuration). A search of the case-study grid costs about
//! 15 µs (`mapping.search.self_ms` over `searches` in the benchmark ladder's
//! traced `matrix-fullmap` pass, 2-core host), below any thread hand-off, so
//! the parallelism lives one level up, across the many independent searches
//! the sweep engine dispatches.

use crate::cost::{Access, AccessBreakdown, LayerCost, Objective};
use crate::loma::MapperConfig;
use crate::problem::SingleLayerProblem;
use crate::temporal::{active_loops, Loops, TemporalMapping, MAX_LOOPS};
use defines_arch::{MemoryHierarchy, MemoryLevelId, Operand};
use defines_workload::{Dim, OpType};
use std::cell::Cell;

/// Maximum number of memory levels on one operand's path.
const MAX_LEVELS: usize = 8;
/// Maximum number of memory levels in a hierarchy.
const MAX_HIERARCHY: usize = MemoryHierarchy::MAX_LEVELS;

/// Traffic slots, one `[weight, input, output]` triple per memory level of
/// the hierarchy (the kernel's level count of them are used).
type Traffic = [[Access; 3]; MAX_HIERARCHY];

/// Zeroed traffic slots.
const TRAFFIC_ZERO: Traffic = {
    let zero = Access {
        reads_bytes: 0.0,
        writes_bytes: 0.0,
    };
    [[zero; 3]; MAX_HIERARCHY]
};

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
    /// Candidate orderings skipped because an earlier prefix over the same
    /// loops reached the same allocation state, so their costs repeat ones
    /// already walked (only when the full permutation space is enumerated).
    pub pruned_symmetry: u64,
    /// Candidate orderings skipped because their rank in the deterministic
    /// enumeration fell at or beyond [`crate::Budget::max_orderings`]. A
    /// non-zero count marks the returned cost as *degraded*: it is the exact
    /// optimum of the in-budget candidate window, not of the full space.
    pub skipped_budget: u64,
    /// Prefix-tree nodes the walk pushed (leaves and transposition-pruned
    /// nodes included): the walk's own work, where the fields above count
    /// candidate orderings.
    pub nodes: u64,
}

impl SearchStats {
    /// Orderings skipped by either pruning mechanism.
    #[cfg(test)]
    pub(crate) fn pruned(&self) -> u64 {
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
    let kernel = Kernel::new(problem);
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
        return (kernel.evaluate(mapping), stats);
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
    let ctx = SearchCtx::new(kernel, config.objective, loops, sample, max, budget);
    let mut state = WalkState::fresh(&ctx);
    state.stats = stats;
    ctx.descend(&mut state, 0, 0, &[AllocState::default(); 3]);
    if let Some(seen) = state.seen.take() {
        TRANSPOSITIONS.set(seen);
    }

    let stats = state.stats;
    debug_assert_eq!(
        stats.evaluated + stats.pruned_bound + stats.pruned_symmetry + stats.skipped_budget,
        stats.orderings_selected
    );
    let best = state.best.expect("at least one ordering evaluated");
    let mapping = TemporalMapping::from_order(problem, &best.order[..k]);
    let mut cost = ctx
        .kernel
        .layer_cost(&best.scalars, &state.best_traffic, mapping);
    cost.degraded = stats.skipped_budget > 0;
    ctx.forms.recycle();
    (cost, stats)
}

/// The memory levels an operand may use for this problem, innermost first:
/// every level that serves the operand, up to and including the operand's
/// top level. Returns them in a fixed array, and how many there are.
///
/// # Panics
///
/// Panics if there are more than [`MAX_LEVELS`].
fn usable_levels(
    problem: &SingleLayerProblem<'_>,
    operand: Operand,
) -> ([usize; MAX_LEVELS], usize) {
    let top = problem.top_levels.level(operand).0;
    let mut levels = [0; MAX_LEVELS];
    let mut depth = 0;
    let serving = problem.accelerator.hierarchy().levels_for(operand);
    let below_top = serving.map(|(id, _)| id.0).filter(|&id| id < top);
    // The top is usable even when it nominally serves other operands only:
    // the DF model may pin an operand there.
    for id in below_top.chain([top]) {
        assert!(depth < MAX_LEVELS, "memory hierarchy too deep");
        levels[depth] = id;
        depth += 1;
    }
    (levels, depth)
}

/// Per-operand, mapping-independent context of the kernel.
struct OpCtx {
    operand: Operand,
    /// Total operand footprint in bytes (always > 0 here).
    footprint: f64,
    /// Traffic the PE array drains from the innermost level.
    pe_bytes: f64,
    /// Bitmask over [`Dim::ALL`] indices of the operand's relevant loops.
    relevant: u8,
    /// The number of usable levels.
    depth: usize,
    /// The operand's usable memory levels, innermost first (global
    /// indices): see [`OpCtx::levels`].
    level_ids: [usize; MAX_LEVELS],
    /// Per non-top level: the running maximum of the capacity shares at and
    /// below it (see the module docs). A level's share splits its capacity
    /// evenly between the operands that can use it.
    share_caps: [f64; MAX_LEVELS],
}

impl OpCtx {
    /// A slot no operand fills.
    const UNUSED: OpCtx = OpCtx {
        operand: Operand::Weight,
        footprint: 0.0,
        pe_bytes: 0.0,
        relevant: 0,
        depth: 0,
        level_ids: [0; MAX_LEVELS],
        share_caps: [0.0; MAX_LEVELS],
    };

    /// The usable memory levels, innermost first (global indices).
    fn levels(&self) -> &[usize] {
        &self.level_ids[..self.depth]
    }

    /// The capacity share of every non-top usable level.
    fn shares(&self) -> &[f64] {
        &self.share_caps[..self.depth - 1]
    }
}

/// Incremental bottom-up allocation state of one operand for one prefix.
///
/// The first `closed` non-top usable levels are *closed*: the data addressed
/// by the prefix loops no longer fits them. The boundary itself need not be
/// stored — the kernel only consumes the refetch factor of the loops above
/// it, which is final from the moment the level closes; open levels always
/// price at factor 1.
#[derive(Debug, Clone, Copy)]
struct AllocState {
    /// Number of closed levels (always the innermost ones).
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

/// The scalars of one priced allocation state.
#[derive(Debug, Clone, Copy)]
struct Scalars {
    memory_energy: f64,
    energy: f64,
    latency: f64,
    dram_bytes: f64,
}

impl Scalars {
    fn value(&self, objective: Objective) -> f64 {
        match objective {
            Objective::Energy => self.energy,
            Objective::Latency => self.latency,
            Objective::Edp => self.energy * self.latency,
            Objective::DramAccess => self.dram_bytes,
        }
    }
}

/// Relative half-width of the guard band around a [`LinearForm`] value. The
/// forms and `price` each round to well under `1e-13` relative (see
/// `LinearForm`), so a value outside the band sits on the same side of the
/// incumbent as the exact price.
const BAND: f64 = 1e-9;

/// One scalar of `price` as an affine function of the refetch excesses
/// `r − 1` of every (operand, boundary): `base + Σ coef·(r − 1)`.
///
/// Every traffic term of `price` is `bytes·(a·r + b)` with `a + b ≥ 0` (the
/// output's partial sums move back down `fp·(r − 1)`, so `b = −fp` there), and
/// `r ≥ 1`; rewritten over `r − 1` every coefficient and every part of the
/// base is non-negative for non-negative energies. A sum of at most a few
/// dozen non-negative products then rounds to within `1e-13` of its exact
/// value, as `price`'s own slot sums do: the two differ only in association.
/// The forms decide pruning only; every reported number comes from `price`.
#[derive(Clone)]
struct LinearForm {
    base: f64,
    /// Indexed like `AllocState::factor`, per `Kernel::ops` entry: padding
    /// boundaries carry 0 against an excess of exactly 0.
    coef: [[f64; MAX_LEVELS]; 3],
}

impl LinearForm {
    fn new(base: f64) -> Self {
        Self {
            base,
            coef: [[0.0; MAX_LEVELS]; 3],
        }
    }

    /// Adds `weight·(a·r + b)` for the refetch factor `r` of boundary `w` of
    /// operand `j`.
    fn add(&mut self, (j, w): (usize, usize), weight: f64, a: f64, b: f64) {
        self.coef[j][w] += weight * a;
        self.base += weight * (a + b);
    }

    fn is_zero(&self) -> bool {
        self.base == 0.0 && self.coef.iter().flatten().all(|&c| c == 0.0)
    }

    fn at(&self, excess: &[[f64; MAX_LEVELS]; 3]) -> f64 {
        // Independent lanes per boundary, so the products vectorize.
        let mut lanes = [0.0; MAX_LEVELS];
        for (coef, x) in self.coef.iter().zip(excess) {
            for ((lane, c), x) in lanes.iter_mut().zip(coef).zip(x) {
                *lane += c * x;
            }
        }
        lanes.iter().fold(self.base, |sum, lane| sum + lane)
    }
}

/// The [`LinearForm`]s of `price`'s scalars, built once per problem.
struct LinearForms {
    compute_cycles: f64,
    energy: LinearForm,
    dram_bytes: LinearForm,
    /// Per level and direction with a finite bandwidth and any traffic: the
    /// bytes moved and the bandwidth they move at (built for the latency
    /// objectives only). The thread's [`TRANSFERS`] buffer, lent for one
    /// search.
    transfers: Vec<(LinearForm, f64)>,
}

impl LinearForms {
    /// The forms `objective` reads, of the traffic `price` accumulates, term
    /// by term.
    fn new(kernel: &Kernel<'_, '_>, objective: Objective) -> Self {
        let mut energy = LinearForm::new(kernel.mac_energy);
        let mut dram_bytes = LinearForm::new(0.0);
        // Bytes read, then written, per level, at its bandwidth: only
        // latency reads them. On the thread's buffer, handed back by
        // `LinearForms::recycle`.
        let mut transfers = TRANSFERS.take();
        transfers.clear();
        if matches!(objective, Objective::Latency | Objective::Edp) {
            let n = kernel.n_levels;
            let bandwidths = kernel.level_read_bw[..n]
                .iter()
                .zip(&kernel.level_write_bw[..n]);
            transfers.extend(
                bandwidths
                    .flat_map(|(&read, &write)| [read, write])
                    .map(|bw| (LinearForm::new(0.0), bw)),
            );
        }
        for (j, op) in kernel.ops().iter().enumerate() {
            // `bytes = a·r + b` read (or written) at `lvl` for boundary `w`.
            let mut term = |lvl: usize, write: bool, w: usize, a: f64, b: f64| {
                let e = if write {
                    kernel.level_write_e[lvl]
                } else {
                    kernel.level_read_e[lvl]
                };
                energy.add((j, w), e, a, b);
                if let Some((row, _)) = transfers.get_mut(2 * lvl + usize::from(write)) {
                    row.add((j, w), 1.0, a, b);
                }
                if lvl == kernel.dram {
                    dram_bytes.add((j, w), 1.0, a, b);
                }
            };
            // The PE array's traffic is fixed (`a = 0`).
            let inner = op.levels()[0];
            term(inner, false, 0, 0.0, op.pe_bytes);
            if op.operand == Operand::Output {
                term(inner, true, 0, 0.0, op.pe_bytes);
            }
            let fp = op.footprint;
            for (w, pair) in op.levels().windows(2).enumerate() {
                let (child, parent) = (pair[0], pair[1]);
                match op.operand {
                    Operand::Weight | Operand::Input => {
                        term(child, true, w, fp, 0.0);
                        term(parent, false, w, fp, 0.0);
                    }
                    Operand::Output => {
                        term(child, false, w, fp, 0.0);
                        term(parent, true, w, fp, 0.0);
                        term(parent, false, w, fp, -fp);
                        term(child, true, w, fp, -fp);
                    }
                }
            }
        }
        // The error bound needs non-negative terms. The loader rejects a
        // negative energy, the constructors do not: such a kernel's energy
        // is never approximated.
        let n = kernel.n_levels;
        if !kernel.level_read_e[..n]
            .iter()
            .chain(&kernel.level_write_e[..n])
            .chain([&kernel.mac_energy])
            .all(|&e| e >= 0.0)
        {
            energy.base = f64::NAN;
        }
        transfers.retain(|(form, bw)| bw.is_finite() && !form.is_zero());
        Self {
            compute_cycles: kernel.compute_cycles,
            energy,
            dram_bytes,
            transfers,
        }
    }

    /// Hands the transfers' buffer back to the thread for its next search.
    fn recycle(self) {
        TRANSFERS.set(self.transfers);
    }

    /// `price(states).value(objective)` through the forms: equal to it
    /// within well under [`BAND`], or not finite.
    fn approx(&self, states: &[AllocState; 3], objective: Objective) -> f64 {
        let excess = states.map(|alloc| alloc.factor.map(|r| r - 1.0));
        let latency = || {
            self.transfers
                .iter()
                .fold(self.compute_cycles, |latency, (bytes, bw)| {
                    latency.max(bytes.at(&excess) / bw)
                })
        };
        match objective {
            Objective::Energy => self.energy.at(&excess),
            Objective::Latency => latency(),
            Objective::Edp => self.energy.at(&excess) * latency(),
            Objective::DramAccess => self.dram_bytes.at(&excess),
        }
    }

    /// Whether the states' priced value exceeds `best`, when
    /// [`LinearForms::approx`] is finite and outside the guard band around
    /// `best`; `None` when only `price` can tell.
    fn settle(&self, states: &[AllocState; 3], objective: Objective, best: f64) -> Option<bool> {
        let approx = self.approx(states, objective);
        if !approx.is_finite() {
            None
        } else if approx * (1.0 - BAND) > best {
            Some(true)
        } else if approx * (1.0 + BAND) < best {
            Some(false)
        } else {
            None
        }
    }
}

/// The one cost arithmetic: everything about pricing a problem that does not
/// depend on the loop ordering, plus the allocation walk and the pricing of
/// an allocation state (see the module docs). Its state is fixed-size: a
/// search or a [`crate::cost::evaluate`] sets it up without the allocator.
pub(crate) struct Kernel<'p, 'a> {
    problem: &'p SingleLayerProblem<'a>,
    /// Spatial unrolling factor per [`Dim::ALL`] index.
    factors: [u64; 7],
    /// One entry per operand with data, in W / I / O order: see
    /// [`Kernel::ops`].
    op_slots: [OpCtx; 3],
    n_ops: usize,
    /// Per global memory level: read/write energy per byte and bandwidth,
    /// `n_levels` of each.
    level_read_e: [f64; MAX_HIERARCHY],
    level_write_e: [f64; MAX_HIERARCHY],
    level_read_bw: [f64; MAX_HIERARCHY],
    level_write_bw: [f64; MAX_HIERARCHY],
    n_levels: usize,
    dram: usize,
    macs: u64,
    mac_energy: f64,
    compute_cycles: f64,
}

impl<'p, 'a> Kernel<'p, 'a> {
    pub(crate) fn new(problem: &'p SingleLayerProblem<'a>) -> Self {
        let unrolling = problem.accelerator.pe_array().unrolling();
        let mut factors = [1u64; 7];
        for (i, d) in Dim::ALL.iter().enumerate() {
            factors[i] = unrolling.factor(*d);
        }

        let hierarchy = problem.accelerator.hierarchy();
        let n_levels = hierarchy.len();
        assert!(n_levels <= MAX_HIERARCHY, "memory hierarchy too deep");
        let mut level_read_e = [0.0; MAX_HIERARCHY];
        let mut level_write_e = [0.0; MAX_HIERARCHY];
        let mut level_read_bw = [0.0; MAX_HIERARCHY];
        let mut level_write_bw = [0.0; MAX_HIERARCHY];
        for (lvl, level) in hierarchy.levels().iter().enumerate() {
            level_read_e[lvl] = level.read_energy_pj_per_byte();
            level_write_e[lvl] = level.write_energy_pj_per_byte();
            level_read_bw[lvl] = level.read_bw_bytes_per_cycle();
            level_write_bw[lvl] = level.write_bw_bytes_per_cycle();
        }

        let mut op_slots = [OpCtx::UNUSED; 3];
        let mut n_ops = 0;
        for operand in Operand::ALL {
            if problem.footprint_bytes(operand) > 0 {
                let (level_ids, depth) = usable_levels(problem, operand);
                op_slots[n_ops] = OpCtx {
                    operand,
                    depth,
                    level_ids,
                    ..OpCtx::UNUSED
                };
                n_ops += 1;
            }
        }
        let ops = &mut op_slots[..n_ops];
        // How many operands can use each level: a shared level's capacity is
        // split evenly between them.
        let mut sharers = [0u64; MAX_HIERARCHY];
        for op in ops.iter() {
            for &lvl in op.levels() {
                sharers[lvl] += 1;
            }
        }

        let pe = problem.accelerator.pe_array();
        let macs = problem.total_macs();
        for op in ops.iter_mut() {
            let operand = op.operand;
            let relevant_dims = problem.relevant_dims(operand);
            let spatial_reuse = unrolling.spatial_reuse(relevant_dims) as f64;
            op.pe_bytes = macs as f64 / spatial_reuse * problem.bytes_per_element(operand) as f64;
            for (i, d) in Dim::ALL.iter().enumerate() {
                if relevant_dims.contains(d) {
                    op.relevant |= 1 << i;
                }
            }
            let mut running_max = 0.0f64;
            for w in 0..op.depth - 1 {
                let lvl = op.level_ids[w];
                let share = match hierarchy.level(MemoryLevelId(lvl)).capacity_bytes() {
                    None => u64::MAX,
                    Some(c) => c / sharers[lvl],
                };
                running_max = running_max.max(share as f64);
                op.share_caps[w] = running_max;
            }
            op.footprint = problem.footprint_bytes(operand) as f64;
        }

        Self {
            problem,
            factors,
            op_slots,
            n_ops,
            level_read_e,
            level_write_e,
            level_read_bw,
            level_write_bw,
            n_levels,
            dram: hierarchy.dram_id().0,
            macs,
            mac_energy: macs as f64 * pe.mac_energy_pj(),
            compute_cycles: pe.compute_cycles(macs, &problem.dims),
        }
    }

    /// The operands with data, in W / I / O order.
    fn ops(&self) -> &[OpCtx] {
        &self.op_slots[..self.n_ops]
    }

    /// The most words a `Transpositions` key of this problem takes: the
    /// header and one factor per non-top usable level.
    fn key_words(&self) -> usize {
        1 + self.ops().iter().map(|op| op.depth - 1).sum::<usize>()
    }

    /// The cost of a fixed temporal mapping: its loops pushed innermost
    /// first, the resulting allocation state priced. The returned cost owns
    /// `mapping`.
    pub(crate) fn evaluate(&self, mapping: TemporalMapping) -> LayerCost {
        let mut eff = self.factors;
        let mut states = [AllocState::default(); 3];
        for l in mapping.loops() {
            self.push(&mut eff, l.dim, l.size, &mut states);
        }
        let mut traffic = TRAFFIC_ZERO;
        let scalars = self.price(&mut traffic, &states);
        self.layer_cost(&scalars, &traffic, mapping)
    }

    /// Pushes a loop of `trips` iterations over `dim` as the new outermost
    /// loop: grows the effective (spatial × temporal-below) sizes `eff` and
    /// updates each operand's allocation state.
    fn push(&self, eff: &mut [u64; 7], dim: Dim, trips: u64, states: &mut [AllocState]) {
        let di = dim_index(dim);
        eff[di] *= trips;
        for (op, alloc) in self.ops().iter().zip(states.iter_mut()) {
            let relevant = op.relevant & (1 << di) != 0;
            // The new loop sits above every closed boundary: advance their
            // refetch trackers.
            for lvl in 0..alloc.closed as usize {
                let bit = 1u8 << lvl;
                if relevant {
                    alloc.seen_relevant |= bit;
                } else if alloc.seen_relevant & bit != 0 {
                    alloc.factor[lvl] *= trips as f64;
                }
            }
            // Close every open level the grown prefix no longer fits; the new
            // loop is the first (already processed) loop above their
            // boundary. Shares grow outward, so the first level that still
            // fits ends the scan.
            let mut lvl = alloc.closed as usize;
            let shares = op.shares();
            if lvl == shares.len() {
                continue;
            }
            let size = data_size(self.problem, op.operand, eff);
            while lvl < shares.len() && size > shares[lvl] {
                if relevant {
                    alloc.seen_relevant |= 1 << lvl;
                }
                lvl += 1;
            }
            alloc.closed = lvl as u8;
        }
    }

    /// Prices the allocation states: accumulates every (level, operand)
    /// traffic term into `traffic`, then reduces the slots to energy and
    /// latency.
    ///
    /// For a complete ordering this is the exact cost. For a prefix the
    /// still-open levels price at refetch factor 1 — every term is then
    /// dominated by its counterpart in any completion, and the float
    /// operations are the same, so the result is a monotone lower bound of
    /// every completion's cost.
    fn price(&self, traffic: &mut Traffic, states: &[AllocState]) -> Scalars {
        let traffic = &mut traffic[..self.n_levels];
        for slot in traffic.iter_mut() {
            *slot = [Access::default(); 3];
        }
        // Reads by the PE array, then per level boundary: weights and
        // inputs fill the child from the parent `footprint × refetch`
        // bytes; outputs move partial sums up `footprint × r` bytes and back
        // down `footprint × (r − 1)` bytes. The top level itself is not
        // written (its content is provided by the depth-first model / DRAM).
        for (op, alloc) in self.ops().iter().zip(states) {
            let o = operand_index(op.operand);
            let innermost = &mut traffic[op.levels()[0]][o];
            innermost.reads_bytes += op.pe_bytes;
            if op.operand == Operand::Output {
                innermost.writes_bytes += op.pe_bytes;
            }
            for (w, pair) in op.levels().windows(2).enumerate() {
                let (child, parent) = (pair[0], pair[1]);
                let r = if w < alloc.closed as usize {
                    alloc.factor[w]
                } else {
                    1.0
                };
                match op.operand {
                    Operand::Weight | Operand::Input => {
                        let fills = op.footprint * r;
                        traffic[child][o].writes_bytes += fills;
                        traffic[parent][o].reads_bytes += fills;
                    }
                    Operand::Output => {
                        let up = op.footprint * r;
                        let down = op.footprint * (r - 1.0);
                        traffic[child][o].reads_bytes += up;
                        traffic[parent][o].writes_bytes += up;
                        traffic[parent][o].reads_bytes += down;
                        traffic[child][o].writes_bytes += down;
                    }
                }
            }
        }

        // Memory energy over the slots in (level, operand) order. Slots no
        // operand uses contribute exactly 0.
        let mut memory_energy = 0.0;
        for (lvl, slots) in traffic.iter().enumerate() {
            for t in slots {
                memory_energy += t.reads_bytes * self.level_read_e[lvl]
                    + t.writes_bytes * self.level_write_e[lvl];
            }
        }

        // Latency: compute-bound unless one level's traffic dominates.
        let mut latency = self.compute_cycles;
        let mut dram_bytes = 0.0;
        for (lvl, slots) in traffic.iter().enumerate() {
            let mut reads = 0.0;
            let mut writes = 0.0;
            for t in slots {
                reads += t.reads_bytes;
                writes += t.writes_bytes;
            }
            if lvl == self.dram {
                dram_bytes = reads + writes;
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

        Scalars {
            memory_energy,
            energy: self.mac_energy + memory_energy,
            latency,
            dram_bytes,
        }
    }

    /// The [`LayerCost`] of priced traffic slots: one access entry per
    /// (usable level, operand).
    fn layer_cost(
        &self,
        scalars: &Scalars,
        traffic: &[[Access; 3]],
        mapping: TemporalMapping,
    ) -> LayerCost {
        // Sized exactly: caches keep every returned cost.
        let mut entries = Vec::with_capacity(self.ops().iter().map(|op| op.depth).sum());
        for op in self.ops() {
            let o = operand_index(op.operand);
            for &lvl in op.levels() {
                entries.push(((MemoryLevelId(lvl), op.operand), traffic[lvl][o]));
            }
        }
        LayerCost {
            energy_pj: scalars.energy,
            mac_energy_pj: self.mac_energy,
            memory_energy_pj: scalars.memory_energy,
            latency_cycles: scalars.latency,
            compute_cycles: self.compute_cycles,
            macs: self.macs,
            accesses: AccessBreakdown::from_entries(entries),
            mapping,
            degraded: false,
        }
    }
}

/// The best leaf seen so far. Leaves are visited in lexicographic order and
/// only a strictly smaller (value, energy, latency) replaces it, so ties
/// resolve to the first-encountered candidate — the one the exhaustive scan
/// crowns.
struct Best {
    value: f64,
    scalars: Scalars,
    order: [Dim; MAX_LOOPS],
}

/// The immutable context of one search.
struct SearchCtx<'p, 'a> {
    kernel: Kernel<'p, 'a>,
    forms: LinearForms,
    objective: Objective,
    /// The active loops (dimension and temporal trip count), canonical
    /// order.
    loops: Loops,
    /// Whether the candidates are an integer-stride sample of the orderings.
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
}

/// The mutable walk state: the current prefix, the scratch traffic slots
/// and the search's best/stats.
struct WalkState {
    /// Effective (spatial × temporal-below) size per [`Dim::ALL`] index for
    /// the current prefix, as used by the data-size formulas.
    eff: [u64; 7],
    used: u8,
    order_buf: [Dim; MAX_LOOPS],
    /// Scratch traffic slots, one per (level, operand).
    traffic: Traffic,
    /// The traffic slots of the best leaf.
    best_traffic: Traffic,
    /// The allocation states walked so far, so that a prefix reaching one
    /// again is skipped (see `Transpositions`): the thread's table, lent to
    /// this search. `None` when sampling: a sampled candidate's twin may not
    /// be in the sample, so skipping it would lose a candidate instead of a
    /// duplicate.
    seen: Option<Transpositions>,
    best: Option<Best>,
    stats: SearchStats,
}

impl WalkState {
    /// A fresh walk state for `ctx`'s search.
    fn fresh(ctx: &SearchCtx<'_, '_>) -> Self {
        Self {
            eff: ctx.kernel.factors,
            used: 0,
            order_buf: [Dim::B; MAX_LOOPS],
            traffic: TRAFFIC_ZERO,
            best_traffic: TRAFFIC_ZERO,
            seen: (!ctx.sample).then(|| {
                // One entry per prefix-tree node at most: sum of k!/(k-d)!.
                let k = ctx.loops.len();
                let nodes: u64 = (1..=k).map(|d| ctx.fact[k] / ctx.fact[k - d]).sum();
                let mut seen = TRANSPOSITIONS.take();
                seen.reset(nodes as usize, ctx.kernel.key_words());
                seen
            }),
            best: None,
            stats: SearchStats::default(),
        }
    }
}

thread_local! {
    /// Each thread's transposition table. An exhaustive search takes it,
    /// resets it in O(1) and puts it back, so that a search allocates none
    /// once its thread has searched a problem as large.
    static TRANSPOSITIONS: Cell<Transpositions> = Cell::default();
    /// Each thread's buffer for [`LinearForms::transfers`], taken and put
    /// back by every search the same way.
    static TRANSFERS: Cell<Vec<(LinearForm, f64)>> = Cell::default();
}

/// The set of `(placed loops, per-operand allocation state)` keys one search
/// has walked (see the module docs for why a repeated key can be skipped): a
/// flat open-addressing table over a key arena.
///
/// A key is packed as one header word — the placed-loop mask plus each
/// operand's `closed` count and `seen_relevant` byte — followed by the factor
/// bits of every closed level that has seen a relevant loop, in operand and
/// level order; every other level's factor is exactly 1.0. Equal headers
/// therefore imply equal key lengths.
#[derive(Default)]
struct Transpositions {
    /// Per slot, the generation that filled it and `1 +` its key's offset
    /// in `keys`; a slot of an earlier generation is empty. A search uses
    /// the first `mask + 1` slots.
    slots: Vec<(u32, u32)>,
    /// The current generation, never 0.
    generation: u32,
    /// The slot count of this search (a power of two) less one.
    mask: usize,
    /// `64 - log2(mask + 1)`: the hash's top bits pick the home slot.
    shift: u32,
    keys: Vec<u64>,
}

impl Transpositions {
    /// Empties the table for a search of at most `capacity` keys of at most
    /// `words` words each, at a load factor of at most ½. Allocates only to
    /// grow past what an earlier search used.
    fn reset(&mut self, capacity: usize, words: usize) {
        let len = (2 * capacity).next_power_of_two().max(2);
        if self.slots.len() < len {
            self.slots.resize(len, (0, 0));
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Wrapped: every stamp could read as current.
            self.slots.fill((0, 0));
            self.generation = 1;
        }
        self.mask = len - 1;
        self.shift = 64 - len.trailing_zeros();
        self.keys.clear();
        self.keys.reserve(capacity * words);
    }

    /// Records the key of `used` and `states`; returns `false` if it was
    /// already present.
    fn insert(&mut self, used: u8, states: &[AllocState]) -> bool {
        let mut key = [0u64; 1 + 3 * MAX_LEVELS];
        let mut len = 1;
        let mut header = used as u64;
        for (o, alloc) in states.iter().enumerate() {
            header |= (alloc.closed as u64) << (8 + 16 * o)
                | (alloc.seen_relevant as u64) << (16 + 16 * o);
            // Only closed levels ever see a relevant loop.
            let mut priced = alloc.seen_relevant;
            while priced != 0 {
                key[len] = alloc.factor[priced.trailing_zeros() as usize].to_bits();
                len += 1;
                priced &= priced - 1;
            }
        }
        key[0] = header;
        let key = &key[..len];

        let mut h = 0u64;
        for &word in key {
            h = (h.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
        }
        let mut i = (h >> self.shift) as usize;
        loop {
            match self.slots[i] {
                (generation, slot) if generation == self.generation => {
                    let start = slot as usize - 1;
                    if self.keys[start] == header && self.keys[start + 1..start + len] == key[1..] {
                        return false;
                    }
                }
                _ => {
                    self.slots[i] = (self.generation, self.keys.len() as u32 + 1);
                    self.keys.extend_from_slice(key);
                    return true;
                }
            }
            i = (i + 1) & self.mask;
        }
    }
}

impl<'p, 'a> SearchCtx<'p, 'a> {
    fn new(
        kernel: Kernel<'p, 'a>,
        objective: Objective,
        loops: Loops,
        sample: bool,
        max: u64,
        budget: u64,
    ) -> Self {
        let mut fact = [1u64; MAX_LOOPS + 1];
        for i in 1..=MAX_LOOPS {
            fact[i] = fact[i - 1] * i as u64;
        }
        Self {
            forms: LinearForms::new(&kernel, objective),
            kernel,
            objective,
            total: fact[loops.len()],
            loops,
            sample,
            max,
            budget,
            fact,
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
        let k = self.loops.len();
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
            let l = self.loops[idx];
            state.order_buf[depth] = l.dim;
            state.used |= 1 << idx;
            self.kernel.push(&mut state.eff, l.dim, l.size, &mut child);
            state.stats.nodes += 1;
            // Transposition: an earlier prefix over the same loop set reached
            // this exact allocation state, so its subtree already held every
            // leaf value of this one, at lower ranks. The check follows the
            // budget test, so that twin was fully in budget; a straddling
            // duplicate's beyond-budget tail stays charged to the budget.
            if let Some(seen) = &mut state.seen {
                if !seen.insert(state.used, &child[..self.kernel.n_ops]) {
                    let in_budget = selected.min(self.budget - start_rank);
                    state.stats.pruned_symmetry += in_budget;
                    state.stats.skipped_budget += selected - in_budget;
                    self.pop(state, idx);
                    continue;
                }
            }
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
                if self.exceeds(&mut state.traffic, &child, best_value) {
                    state.stats.pruned_bound += selected;
                    self.pop(state, idx);
                    continue;
                }
            }
            self.descend(state, depth + 1, base, &child);
            self.pop(state, idx);
        }
    }

    /// `price(states) > best` for the search's objective, running `price`
    /// only when [`LinearForms::settle`] cannot decide.
    fn exceeds(&self, traffic: &mut Traffic, states: &[AllocState; 3], best: f64) -> bool {
        self.forms
            .settle(states, self.objective, best)
            .unwrap_or_else(|| self.kernel.price(traffic, states).value(self.objective) > best)
    }

    /// Removes active dim `idx` (the outermost placed loop) from the prefix.
    fn pop(&self, state: &mut WalkState, idx: usize) {
        let di = dim_index(self.loops[idx].dim);
        state.used &= !(1 << idx);
        state.eff[di] = self.kernel.factors[di];
    }

    /// Prices the full ordering described by the current prefix (which now
    /// covers every active loop) and updates the search's best.
    fn evaluate_leaf(&self, state: &mut WalkState, states: &[AllocState; 3]) {
        state.stats.evaluated += 1;
        // A leaf whose value settles above the best cannot replace it.
        if let Some(best) = &state.best {
            if self.forms.settle(states, self.objective, best.value) == Some(true) {
                return;
            }
        }
        let scalars = self.kernel.price(&mut state.traffic, states);
        let value = scalars.value(self.objective);
        let better = match &state.best {
            None => true,
            Some(b) => {
                (value, scalars.energy, scalars.latency)
                    < (b.value, b.scalars.energy, b.scalars.latency)
            }
        };
        if better {
            state.best = Some(Best {
                value,
                scalars,
                order: state.order_buf,
            });
            let n = self.kernel.n_levels;
            state.best_traffic[..n].copy_from_slice(&state.traffic[..n]);
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

/// The data footprint, in bytes, of `operand` restricted to the effective
/// per-dimension sizes `eff` (spatial unrolling times the temporal loops
/// below a boundary). For inputs, the OX/FX and OY/FY pairs combine through
/// the sliding-window relation `ix = (ox - 1) * stride + fx`.
fn data_size(problem: &SingleLayerProblem<'_>, operand: Operand, eff: &[u64; 7]) -> f64 {
    let e = |d: Dim| eff[dim_index(d)];
    let bytes = problem.bytes_per_element(operand) as f64;
    let elements: f64 = match operand {
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
    use crate::cost::evaluate;
    use crate::loma::LomaMapper;
    use crate::temporal::candidate_orderings;
    use crate::OperandTopLevels;
    use defines_arch::zoo;
    use defines_workload::{Layer, LayerDims};
    use proptest::prelude::*;

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

    const OBJECTIVES: [Objective; 4] = [
        Objective::Energy,
        Objective::Latency,
        Objective::Edp,
        Objective::DramAccess,
    ];

    /// Every counter of the search on `problems()` under each objective, as
    /// the walk that priced every bound with `price` counted them: any
    /// changed pruning decision moves at least one.
    #[test]
    fn search_counters_are_pinned() {
        /// (selected, evaluated, pruned_bound, pruned_symmetry, nodes).
        type Pin = (u64, u64, u64, u64, u64);
        // Per problem, objectives in `OBJECTIVES` order.
        #[rustfmt::skip]
        let pins: [[Pin; 4]; 4] = [
            [(720, 24, 174, 522, 335), (720, 29, 152, 539, 363),
             (720, 25, 170, 525, 342), (720, 35, 0, 685, 469)],
            [(24, 4, 0, 20, 36), (24, 4, 0, 20, 36), (24, 4, 0, 20, 36), (24, 4, 0, 20, 36)],
            [(720, 10, 82, 628, 215), (720, 14, 54, 652, 255),
             (720, 10, 82, 628, 215), (720, 21, 0, 699, 319)],
            [(720, 9, 82, 629, 213), (720, 20, 16, 684, 300),
             (720, 9, 82, 629, 213), (720, 23, 0, 697, 321)],
        ];
        for ((acc, layer), pins) in problems().into_iter().zip(pins) {
            let problem = SingleLayerProblem::new(&acc, &layer);
            for (objective, pin) in OBJECTIVES.into_iter().zip(pins) {
                let config = MapperConfig::default().with_objective(objective);
                let (_, s) = search(&problem, &config);
                assert_eq!(
                    (
                        s.orderings_selected,
                        s.evaluated,
                        s.pruned_bound,
                        s.pruned_symmetry,
                        s.nodes
                    ),
                    pin,
                    "{} / {objective:?}",
                    acc.name()
                );
                assert_eq!(s.skipped_budget, 0);
            }
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
        for objective in OBJECTIVES {
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
    fn transpositions_fire_on_a_non_square_three_by_three_conv() {
        // Trips K 3, C 20, OX 7, OY 5, FX 3, FY 3: no two loops can be
        // swapped in every ordering at equal cost (K is multiplicative,
        // FX/FY are a sliding window over active OX/OY), yet prefixes still
        // reach equal allocation states.
        let acc = zoo::meta_proto_like_df();
        let layer = Layer::new("c", OpType::Conv, LayerDims::conv(96, 40, 28, 20, 3, 3));
        let problem = SingleLayerProblem::new(&acc, &layer);
        let (cost, stats) = LomaMapper::default().optimize_with_stats(&problem);
        assert_eq!(stats.orderings_total, 720);
        assert!(stats.pruned_symmetry > 0, "{stats:?}");
        assert_eq!(cost, LomaMapper::default().optimize_exhaustive(&problem));
    }

    /// The plain scan over the first `b` candidate orderings with the
    /// search's (value, energy, latency) tie-break.
    fn scan_window(problem: &SingleLayerProblem<'_>, b: usize) -> LayerCost {
        let dram = problem.accelerator.hierarchy().dram_id();
        let key = |c: &LayerCost| {
            (
                c.objective_value(Objective::Energy, dram),
                c.energy_pj,
                c.latency_cycles,
            )
        };
        let mut best: Option<LayerCost> = None;
        for order in candidate_orderings(problem, usize::MAX).iter().take(b) {
            let cost = evaluate(problem, TemporalMapping::from_order(problem, order));
            if best.as_ref().is_none_or(|b| key(&cost) < key(b)) {
                best = Some(cost);
            }
        }
        best.expect("at least one candidate ordering")
    }

    #[test]
    fn budget_windows_match_a_plain_scan_of_the_window() {
        for (acc, layer) in problems() {
            let problem = SingleLayerProblem::new(&acc, &layer);
            for b in [1u64, 2, 7, 50, 300, 719] {
                let config = MapperConfig::default().with_budget(crate::Budget::orderings(b));
                let (cost, stats) = search(&problem, &config);
                let mut expected = scan_window(&problem, b as usize);
                expected.degraded = stats.orderings_selected > b;
                assert_eq!(cost, expected, "{} / {} b={b}", acc.name(), layer.name);
                assert_eq!(
                    stats.skipped_budget,
                    stats.orderings_selected.saturating_sub(b)
                );
            }
        }
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The running-maximum share rule rests on this: whatever the
        /// operator and the ordering, an operand's resident data size never
        /// shrinks as loops are pushed, and the full prefix covers at least
        /// the operand's footprint (padded trip counts may overshoot it).
        #[test]
        fn data_size_never_decreases_as_loops_are_pushed(
            dims in (1u64..=96, 1u64..=48, 1u64..=40, 1u64..=40, 1u64..=5, 1u64..=5, 1u64..=3)
                .prop_map(|(k, c, ox, oy, fx, fy, s)| {
                    LayerDims::conv(k, c, ox, oy, fx, fy).with_stride(s, s)
                }),
            op in prop::sample::select(vec![
                OpType::Conv,
                OpType::DepthwiseConv,
                OpType::Pooling,
                OpType::Add,
            ]),
            pick in 0usize..720,
        ) {
            let acc = zoo::meta_proto_like_df();
            let layer = Layer::new("l", op, dims);
            let problem = SingleLayerProblem::new(&acc, &layer);
            let kernel = Kernel::new(&problem);
            let orders = candidate_orderings(&problem, 0);
            let mapping = TemporalMapping::from_order(&problem, &orders[pick % orders.len()]);
            let mut eff = kernel.factors;
            let mut states = [AllocState::default(); 3];
            let mut sizes = Operand::ALL.map(|operand| data_size(&problem, operand, &eff));
            for l in mapping.loops() {
                kernel.push(&mut eff, l.dim, l.size, &mut states);
                for (operand, size) in Operand::ALL.into_iter().zip(&mut sizes) {
                    let grown = data_size(&problem, operand, &eff);
                    prop_assert!(grown >= *size, "{operand} shrank pushing {}", l.dim);
                    *size = grown;
                }
            }
            for (operand, size) in Operand::ALL.into_iter().zip(sizes) {
                prop_assert!(size >= problem.footprint_bytes(operand) as f64, "{operand}");
            }
        }
    }

    /// `acc` with every level's write energy and write bandwidth scaled by
    /// `(energy, bandwidth)`: the zoo's levels read and write alike, which
    /// would hide a read/write mix-up.
    fn skew_writes(
        acc: &defines_arch::Accelerator,
        (energy, bandwidth): (f64, f64),
    ) -> defines_arch::Accelerator {
        let pe = acc.pe_array();
        let mut builder = defines_arch::AcceleratorBuilder::new(acc.name())
            .pe_array(pe.unrolling().clone(), pe.mac_energy_pj());
        for level in acc.hierarchy().levels() {
            builder = builder.add_level(defines_arch::MemoryLevel::new(
                level.name(),
                level.capacity_bytes(),
                level.read_energy_pj_per_byte(),
                level.write_energy_pj_per_byte() * energy,
                level.read_bw_bytes_per_cycle(),
                level.write_bw_bytes_per_cycle() * bandwidth,
                level.operands(),
            ));
        }
        builder.build().expect("a rescaled hierarchy stays valid")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The linear forms track `price` at every prefix of an ordering,
        /// and the band decision is `price`'s own wherever the incumbent
        /// sits: at the priced value, one ulp to either side, and well away.
        #[test]
        fn band_decisions_equal_exact_pricing(
            acc_pick in 0usize..10,
            op in prop::sample::select(vec![
                OpType::Conv,
                OpType::DepthwiseConv,
                OpType::Pooling,
                OpType::Add,
            ]),
            dims in (1u64..=96, 1u64..=48, 1u64..=40, 1u64..=40, 1u64..=5, 1u64..=5, 1u64..=2)
                .prop_map(|(k, c, ox, oy, fx, fy, s)| {
                    LayerDims::conv(k, c, ox, oy, fx, fy).with_stride(s, s)
                }),
            tops in (0usize..8, 0usize..8, 0usize..8),
            pick in 0usize..720,
            // Quarters from 0.25 to 4.
            write_skew in (1u32..=16, 1u32..=16)
                .prop_map(|(e, bw)| (f64::from(e) / 4.0, f64::from(bw) / 4.0)),
        ) {
            let acc = skew_writes(
                &zoo::all_case_study_architectures()[acc_pick],
                write_skew,
            );
            let n_levels = acc.hierarchy().levels().len();
            let top = |pick: usize| MemoryLevelId(pick % n_levels);
            let layer = Layer::new("l", op, dims);
            let problem = SingleLayerProblem::new(&acc, &layer).with_top_levels(
                OperandTopLevels::dram(&acc)
                    .with_level(Operand::Weight, top(tops.0))
                    .with_level(Operand::Input, top(tops.1))
                    .with_level(Operand::Output, top(tops.2)),
            );
            let loops = active_loops(&problem);
            let orders = candidate_orderings(&problem, 0);
            let order = &orders[pick % orders.len()];
            for objective in OBJECTIVES {
                let ctx = SearchCtx::new(
                    Kernel::new(&problem),
                    objective,
                    loops,
                    false,
                    u64::MAX,
                    u64::MAX,
                );
                let mut traffic = TRAFFIC_ZERO;
                let mut eff = ctx.kernel.factors;
                let mut states = [AllocState::default(); 3];
                let mapping = TemporalMapping::from_order(&problem, order);
                for depth in 0..=mapping.loops().len() {
                    if depth > 0 {
                        let l = &mapping.loops()[depth - 1];
                        ctx.kernel.push(&mut eff, l.dim, l.size, &mut states);
                    }
                    let exact = ctx.kernel.price(&mut traffic, &states).value(objective);
                    let approx = ctx.forms.approx(&states, objective);
                    prop_assert!(
                        (approx - exact).abs() <= 1e-12 * exact,
                        "{objective:?} depth {depth}: {approx} vs {exact}"
                    );
                    for best in [
                        exact,
                        exact.next_up(),
                        exact.next_down(),
                        exact * (1.0 + 1e-6),
                        exact * (1.0 - 1e-6),
                    ] {
                        prop_assert_eq!(
                            ctx.exceeds(&mut traffic, &states, best),
                            exact > best,
                            "{:?} depth {} best {}", objective, depth, best
                        );
                    }
                }
            }
        }
    }

    /// The effective sizes after pushing each prefix of `order`'s loops,
    /// starting from the bare spatial unrolling.
    fn effective_sizes(problem: &SingleLayerProblem<'_>, order: &[Dim]) -> Vec<[u64; 7]> {
        let kernel = Kernel::new(problem);
        let mapping = TemporalMapping::from_order(problem, order);
        let mut eff = kernel.factors;
        let mut states = [AllocState::default(); 3];
        let mut sizes = vec![eff];
        for l in mapping.loops() {
            kernel.push(&mut eff, l.dim, l.size, &mut states);
            sizes.push(eff);
        }
        sizes
    }

    #[test]
    fn effective_sizes_count_only_pushed_loops() {
        let acc = zoo::meta_proto_like();
        let layer = Layer::new("c", OpType::Conv, LayerDims::conv(64, 4, 16, 16, 3, 3));
        let problem = SingleLayerProblem::new(&acc, &layer);
        // Temporal loops OX 4, OY 4, K 2, C 2, FX 3, FY 3, innermost first.
        let order = [Dim::OX, Dim::OY, Dim::K, Dim::C, Dim::FX, Dim::FY];
        let sizes = effective_sizes(&problem, &order);
        let spatial = Kernel::new(&problem).factors;
        let (ox, k) = (dim_index(Dim::OX), dim_index(Dim::K));
        assert_eq!(sizes[0][ox], spatial[ox]);
        assert_eq!(sizes[1][ox], 4 * spatial[ox]);
        assert_eq!(sizes[2][k], spatial[k]);
        assert_eq!(sizes[3][k], 2 * spatial[k]);
        // With every loop pushed, each iteration is counted exactly once.
        assert_eq!(sizes[6].iter().product::<u64>(), 64 * 4 * 16 * 16 * 3 * 3);
    }

    #[test]
    fn data_size_grows_with_boundary() {
        let acc = zoo::meta_proto_like();
        let layer = Layer::new("c", OpType::Conv, LayerDims::conv(64, 16, 32, 32, 3, 3));
        let problem = SingleLayerProblem::new(&acc, &layer);
        let sizes = effective_sizes(&problem, &Dim::SPATIAL_AND_CHANNEL);
        for op in Operand::ALL {
            let mut prev = 0.0;
            for eff in &sizes {
                let s = data_size(&problem, op, eff);
                assert!(s >= prev, "{op}: size must be monotone in boundary");
                prev = s;
            }
        }
    }

    #[test]
    fn data_size_at_full_prefix_reaches_footprint() {
        let acc = zoo::meta_proto_like();
        let layer = Layer::new("c", OpType::Conv, LayerDims::conv(64, 16, 32, 32, 3, 3));
        let problem = SingleLayerProblem::new(&acc, &layer);
        let sizes = effective_sizes(&problem, &Dim::SPATIAL_AND_CHANNEL);
        let full = sizes.last().unwrap();
        // With every loop pushed the resident set covers the entire operand.
        // (Ceiling division of unrolled dimensions may slightly overestimate.)
        for op in Operand::ALL {
            let size = data_size(&problem, op, full);
            assert!(size >= problem.footprint_bytes(op) as f64, "{op}");
            assert!(size <= problem.footprint_bytes(op) as f64 * 1.3, "{op}");
        }
    }

    #[test]
    fn allocation_closes_inner_levels_first_and_never_the_top() {
        let acc = zoo::meta_proto_like_df();
        let layer = Layer::new("c", OpType::Conv, LayerDims::conv(64, 16, 32, 32, 3, 3));
        let problem = SingleLayerProblem::new(&acc, &layer);
        let kernel = Kernel::new(&problem);
        for order in candidate_orderings(&problem, 0) {
            let mapping = TemporalMapping::from_order(&problem, &order);
            let mut eff = kernel.factors;
            let mut states = [AllocState::default(); 3];
            for l in mapping.loops() {
                let before = states;
                kernel.push(&mut eff, l.dim, l.size, &mut states);
                for ((op, was), now) in kernel.ops().iter().zip(&before).zip(&states) {
                    assert!(now.closed >= was.closed, "a closed level reopened");
                    assert!((now.closed as usize) < op.depth, "top level closed");
                }
            }
            // Every usable level up to the operand's top carries traffic,
            // and nothing above the top does.
            let cost = kernel.evaluate(mapping);
            for operand in Operand::ALL {
                let top = problem.top_levels.level(operand);
                let levels: Vec<_> = cost
                    .accesses
                    .iter()
                    .filter(|&(_, o, _)| o == operand)
                    .map(|(l, _, _)| l)
                    .collect();
                assert_eq!(levels.last(), Some(&top), "{operand}");
            }
        }
    }

    #[test]
    fn small_weights_stay_resident_in_lb_w() {
        // Weights of 32*2*9 = 576 B fit the 32 KB weight LB, so LB_W never
        // closes and its parent serves each weight exactly once.
        let acc = zoo::meta_proto_like_df();
        let layer = Layer::new("c", OpType::Conv, LayerDims::conv(32, 2, 4, 4, 3, 3));
        let problem = SingleLayerProblem::new(&acc, &layer);
        let kernel = Kernel::new(&problem);
        let lb_w = acc.hierarchy().level_id_named("LB_W").unwrap().0;
        let weights = &kernel.ops()[0];
        assert_eq!(weights.operand, Operand::Weight);
        let lb_pos = weights.levels().iter().position(|&l| l == lb_w).unwrap();
        let mapping = TemporalMapping::from_order(&problem, &Dim::SPATIAL_AND_CHANNEL);
        let mut eff = kernel.factors;
        let mut states = [AllocState::default(); 3];
        for l in mapping.loops() {
            kernel.push(&mut eff, l.dim, l.size, &mut states);
        }
        assert!(states[0].closed as usize <= lb_pos, "LB_W closed");
        let cost = kernel.evaluate(mapping);
        let parent = MemoryLevelId(weights.levels()[lb_pos + 1]);
        assert_eq!(
            cost.accesses.get(parent, Operand::Weight).reads_bytes,
            576.0
        );
    }

    #[test]
    fn usable_levels_respect_top() {
        let acc = zoo::meta_proto_like_df();
        let lb = acc.hierarchy().level_id_named("LB_IO").unwrap();
        let layer = Layer::new("c", OpType::Conv, LayerDims::conv(8, 8, 8, 8, 3, 3));
        let p = SingleLayerProblem::new(&acc, &layer)
            .with_top_levels(OperandTopLevels::dram(&acc).with_level(Operand::Input, lb));
        let (levels, depth) = usable_levels(&p, Operand::Input);
        let levels = &levels[..depth];
        assert_eq!(*levels.last().unwrap(), lb.0);
        assert!(levels.iter().all(|&l| l <= lb.0));
        // Weights still go all the way to DRAM.
        let (w, depth) = usable_levels(&p, Operand::Weight);
        assert_eq!(w[depth - 1], acc.hierarchy().dram_id().0);
    }
}

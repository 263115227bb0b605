//! Temporal mappings: ordered loop nests after spatial unrolling.

use crate::problem::SingleLayerProblem;
use defines_workload::Dim;
use serde::Serialize;
use std::fmt;
use std::ops::Deref;

/// Maximum number of temporal loops a problem can have (the six non-batch
/// dimensions; batch is never temporal in this model).
pub(crate) const MAX_LOOPS: usize = Dim::SPATIAL_AND_CHANNEL.len();

/// One temporal loop: a dimension and its trip count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct TemporalLoop {
    /// The loop dimension.
    pub dim: Dim,
    /// The trip count (always ≥ 2 inside a [`TemporalMapping`]).
    pub size: u64,
}

/// A temporal mapping: loops ordered from innermost to outermost.
///
/// Loop trip counts are the layer dimensions divided (ceiling) by the PE
/// array's spatial unrolling — the spatially-unrolled part of each dimension
/// executes in parallel and is therefore not part of the temporal loop nest.
///
/// ```
/// use defines_arch::zoo;
/// use defines_mapping::{LomaMapper, SingleLayerProblem};
/// use defines_workload::{Dim, Layer, LayerDims, OpType};
///
/// let acc = zoo::meta_proto_like();
/// let layer = Layer::new("c", OpType::Conv, LayerDims::conv(64, 4, 16, 16, 3, 3));
/// let problem = SingleLayerProblem::new(&acc, &layer);
/// let m = LomaMapper::default().optimize(&problem).mapping;
/// // Meta-proto unrolls K32 C2 OX4 OY4, so K contributes a temporal loop of 2.
/// let k = m.loops().iter().find(|l| l.dim == Dim::K).unwrap();
/// assert_eq!(k.size, 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct TemporalMapping {
    loops: Vec<TemporalLoop>,
}

impl TemporalMapping {
    /// Builds a temporal mapping from an ordering of dimensions
    /// (innermost first). Dimensions whose temporal trip count is 1 are
    /// dropped.
    pub(crate) fn from_order(problem: &SingleLayerProblem<'_>, order: &[Dim]) -> Self {
        let unrolling = problem.accelerator.pe_array().unrolling();
        let mut loops = Vec::with_capacity(order.len());
        for &dim in order {
            let total = problem.dims.size(dim).max(1);
            let spatial = unrolling.factor(dim);
            let temporal = total.div_ceil(spatial);
            if temporal > 1 {
                loops.push(TemporalLoop {
                    dim,
                    size: temporal,
                });
            }
        }
        Self { loops }
    }

    /// Rebuilds a mapping from explicit loops (innermost first) — the
    /// deserialization path of the persistent mapping-cache store. The loops
    /// are taken verbatim; callers are expected to pass back exactly what
    /// [`TemporalMapping::loops`] produced.
    pub fn from_loops(loops: Vec<TemporalLoop>) -> Self {
        Self { loops }
    }

    /// The loops, innermost first.
    pub fn loops(&self) -> &[TemporalLoop] {
        &self.loops
    }

    /// Whether there are no temporal loops (the whole tile fits one PE-array
    /// pass).
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.loops.is_empty()
    }
}

impl fmt::Display for TemporalMapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.loops.is_empty() {
            return f.write_str("(fully spatial)");
        }
        let parts: Vec<String> = self
            .loops
            .iter()
            .map(|l| format!("{} {}", l.dim, l.size))
            .collect();
        write!(f, "[{}]", parts.join(" -> "))
    }
}

/// The temporal loops a problem actually has to order: the dimensions of
/// [`Dim::SPATIAL_AND_CHANNEL`] whose temporal trip count (after spatial
/// unrolling) exceeds one, in canonical order, paired with that trip count.
///
/// This is the "drop size-1 dims" half of the search-space canonicalization:
/// trivial loops can sit anywhere in an ordering without changing anything,
/// so they are excluded from the permutation space outright.
pub(crate) fn active_loops(problem: &SingleLayerProblem<'_>) -> Loops {
    let unrolling = problem.accelerator.pe_array().unrolling();
    let mut loops = Loops::EMPTY;
    for dim in Dim::SPATIAL_AND_CHANNEL {
        let size = problem.dims.size(dim).div_ceil(unrolling.factor(dim));
        if size > 1 {
            loops.push(TemporalLoop { dim, size });
        }
    }
    loops
}

/// At most [`MAX_LOOPS`] temporal loops, held inline: a list that costs no
/// allocation to build or copy.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Loops {
    slots: [TemporalLoop; MAX_LOOPS],
    len: u8,
}

impl Loops {
    /// The empty list.
    pub(crate) const EMPTY: Self = Self {
        slots: [TemporalLoop {
            dim: Dim::B,
            size: 1,
        }; MAX_LOOPS],
        len: 0,
    };

    /// Appends `l`.
    ///
    /// # Panics
    ///
    /// Panics if the list already holds [`MAX_LOOPS`] loops, which a list of
    /// distinct non-batch dimensions never does.
    pub(crate) fn push(&mut self, l: TemporalLoop) {
        self.slots[usize::from(self.len)] = l;
        self.len += 1;
    }
}

impl Deref for Loops {
    type Target = [TemporalLoop];

    fn deref(&self) -> &[TemporalLoop] {
        &self.slots[..usize::from(self.len)]
    }
}

/// Generates candidate loop orderings (innermost-first permutations of the
/// dimensions that have a non-trivial temporal trip count), capped at
/// `max_orderings` by deterministic subsampling.
///
/// Permutations are enumerated lexicographically with respect to the
/// canonical dimension order — the same enumeration the pruned search in
/// `crate::search` walks, which is what makes the two agree bit-for-bit on
/// tie-breaking. Subsampling picks index `i * total / max` for each
/// `i < max`: exact integer striding, so the sample always contains exactly
/// `max` *distinct* orderings (the float-stride sampler it replaces could
/// duplicate or skip entries when `total / max` was not exactly
/// representable).
pub fn candidate_orderings(
    problem: &SingleLayerProblem<'_>,
    max_orderings: usize,
) -> Vec<Vec<Dim>> {
    let dims: Vec<Dim> = active_loops(problem).iter().map(|l| l.dim).collect();
    if dims.is_empty() {
        return vec![vec![]];
    }
    let mut all = Vec::new();
    let mut used = vec![false; dims.len()];
    let mut current = Vec::with_capacity(dims.len());
    permute_lex(&dims, &mut used, &mut current, &mut all);
    if all.len() <= max_orderings || max_orderings == 0 {
        return all;
    }
    // Deterministic subsample: an evenly spaced subset by integer striding.
    let total = all.len();
    (0..max_orderings)
        .map(|i| all[i * total / max_orderings].clone())
        .collect()
}

/// Lexicographic permutation enumeration: at every position the remaining
/// dimensions are tried in canonical (input) order. Intermediate recursion
/// mutates `current` in place; a `Vec` is materialized only at the leaves.
fn permute_lex(dims: &[Dim], used: &mut [bool], current: &mut Vec<Dim>, out: &mut Vec<Vec<Dim>>) {
    if current.len() == dims.len() {
        out.push(current.clone());
        return;
    }
    for i in 0..dims.len() {
        if used[i] {
            continue;
        }
        used[i] = true;
        current.push(dims[i]);
        permute_lex(dims, used, current, out);
        current.pop();
        used[i] = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use defines_arch::zoo;
    use defines_workload::{Layer, LayerDims, OpType};

    fn problem_for(dims: LayerDims) -> (defines_arch::Accelerator, Layer) {
        (zoo::meta_proto_like(), Layer::new("c", OpType::Conv, dims))
    }

    #[test]
    fn from_order_divides_by_spatial_unrolling() {
        let (acc, layer) = problem_for(LayerDims::conv(64, 4, 16, 16, 3, 3));
        let p = SingleLayerProblem::new(&acc, &layer);
        let m = TemporalMapping::from_order(&p, &Dim::SPATIAL_AND_CHANNEL);
        // K: 64/32 = 2, C: 4/2 = 2, OX: 16/4 = 4, OY: 4, FX: 3, FY: 3.
        let iterations: u64 = m.loops().iter().map(|l| l.size).product();
        assert_eq!(iterations, 2 * 2 * 4 * 4 * 3 * 3);
        // C is unrolled by 2 so its temporal loop is 2.
        assert!(m.loops().iter().any(|l| l.dim == Dim::C && l.size == 2));
    }

    #[test]
    fn trivial_loops_are_dropped() {
        let (acc, layer) = problem_for(LayerDims::conv(32, 2, 4, 4, 1, 1));
        let p = SingleLayerProblem::new(&acc, &layer);
        let m = TemporalMapping::from_order(&p, &Dim::SPATIAL_AND_CHANNEL);
        assert!(m.is_empty(), "{m}");
        assert_eq!(m.loops().iter().map(|l| l.size).product::<u64>(), 1);
    }

    #[test]
    fn candidate_orderings_cover_permutations() {
        let (acc, layer) = problem_for(LayerDims::conv(64, 4, 16, 16, 3, 3));
        let p = SingleLayerProblem::new(&acc, &layer);
        let all = candidate_orderings(&p, usize::MAX);
        assert_eq!(all.len(), 720);
        let capped = candidate_orderings(&p, 24);
        assert_eq!(capped.len(), 24);
        // Deterministic.
        assert_eq!(capped, candidate_orderings(&p, 24));
    }

    #[test]
    fn candidate_orderings_degenerate_layer() {
        let (acc, layer) = problem_for(LayerDims::conv(32, 2, 4, 4, 1, 1));
        let p = SingleLayerProblem::new(&acc, &layer);
        let all = candidate_orderings(&p, usize::MAX);
        assert_eq!(all, vec![Vec::<Dim>::new()]);
    }

    #[test]
    fn display_shows_order() {
        let (acc, layer) = problem_for(LayerDims::conv(64, 4, 16, 16, 3, 3));
        let p = SingleLayerProblem::new(&acc, &layer);
        let m = TemporalMapping::from_order(&p, &[Dim::K, Dim::OX]);
        let s = m.to_string();
        assert!(s.contains("K 2") && s.contains("OX 4"), "{s}");
    }
}

//! Searching axis 3 of the design space: which stack partition (fuse depth)
//! is globally optimal.
//!
//! The automatic heuristic of [`crate::stack`] greedily packs branch-free
//! segments into stacks until a weight budget is exceeded — a policy, not a
//! search. This module turns the fuse-depth axis into a searched one:
//!
//! 1. **Candidate enumeration** ([`enumerate_candidates`]): every span of
//!    consecutive branch-free segments (weight-gated), every single layer,
//!    and — so the search can never lose to the heuristic — every stack the
//!    automatic partition would produce.
//! 2. **Flattened evaluation**: the explorer evaluates every
//!    `(candidate × tile size × overlap mode)` triple in one engine run
//!    sharing the mapping cache
//!    ([`Explorer::best_schedule`](crate::Explorer::best_schedule)).
//! 3. **Exact selection** ([`optimal_partition`]): because
//!    [`NetworkCost::from_stacks`](crate::NetworkCost::from_stacks) is
//!    additive per stack, the best partition is a shortest path over the
//!    layer cut boundaries, solved by dynamic programming in
//!    `O(boundaries + candidates)`.
//!
//! For additive targets (energy, latency, DRAM traffic, activation energy)
//! the DP is exact over the candidate set; for EDP the per-stack values are
//! summed as an additive surrogate, matching the convention of the per-stack
//! "best combination" search (case study 2).

use crate::stack::{auto_partition, segments, weight_fuse_budget_bytes, FuseDepth, Stack};
use defines_arch::Accelerator;
use defines_telemetry::{span, Counter};
use defines_workload::{LayerId, Network};
use serde::{Deserialize, Serialize};
use std::fmt;

/// How the fuse-depth axis is handled by a schedule search
/// ([`Explorer::best_schedule`](crate::Explorer::best_schedule)).
///
/// The first three variants fix the partition with the corresponding
/// [`FuseDepth`] policy and only search tile sizes and overlap modes per
/// stack; [`FusePolicy::Search`] additionally searches the partition itself.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FusePolicy {
    /// The automatic weight-budget heuristic ([`FuseDepth::Auto`]).
    Auto,
    /// One stack spanning the whole network ([`FuseDepth::FullNetwork`]).
    FullNetwork,
    /// Every layer its own stack ([`FuseDepth::SingleLayerStacks`]).
    SingleLayerStacks,
    /// Search the partition: enumerate candidate stacks as spans of
    /// branch-free segments (plus single layers), evaluate every candidate,
    /// and pick the optimal partition by shortest-path DP over cut points.
    Search {
        /// Maximum number of consecutive segments a candidate stack may span.
        /// Spans the automatic heuristic would form are always included, so
        /// a small `max_span` bounds work without losing to the heuristic.
        max_span: usize,
        /// Multiplier on the automatic weight budget
        /// ([`weight_fuse_budget_bytes`]) gating multi-segment spans: spans
        /// whose total weights exceed `factor × budget` are not enumerated.
        /// `1.0` explores the heuristic's own space; larger factors admit
        /// weight-spilling stacks the heuristic would never form.
        weight_budget_factor: f64,
    },
}

impl FusePolicy {
    /// The default search configuration: unlimited span length, spans gated
    /// at the heuristic's own weight budget (`factor = 1.0`). The candidate
    /// set then always contains the automatic partition's stacks, all single
    /// layers, and every budget-respecting segment span.
    pub fn search() -> Self {
        FusePolicy::Search {
            max_span: usize::MAX,
            weight_budget_factor: 1.0,
        }
    }

    /// The fixed [`FuseDepth`] this policy corresponds to, or `None` for
    /// [`FusePolicy::Search`] (whose partition is an output, not an input).
    pub fn fixed_fuse_depth(&self) -> Option<FuseDepth> {
        match self {
            FusePolicy::Auto => Some(FuseDepth::Auto),
            FusePolicy::FullNetwork => Some(FuseDepth::FullNetwork),
            FusePolicy::SingleLayerStacks => Some(FuseDepth::SingleLayerStacks),
            FusePolicy::Search { .. } => None,
        }
    }

    /// The policy's CLI keyword (`auto`, `full`, `single`, `search`).
    pub fn keyword(&self) -> &'static str {
        match self {
            FusePolicy::Auto => "auto",
            FusePolicy::FullNetwork => "full",
            FusePolicy::SingleLayerStacks => "single",
            FusePolicy::Search { .. } => "search",
        }
    }

    /// Parses a fuse-policy keyword — the inverse of
    /// [`FusePolicy::keyword`], with `search` meaning the default
    /// [`FusePolicy::search`] configuration:
    ///
    /// * `auto` — the automatic weight-budget fuse heuristic,
    /// * `full` — the whole network as one stack,
    /// * `single` — every layer its own stack,
    /// * `search` — search the stack partition itself (segment-span
    ///   candidates, shortest-path DP over cut points).
    ///
    /// # Errors
    ///
    /// Returns a message listing the valid keywords for an unknown input.
    pub fn from_keyword(name: &str) -> Result<Self, String> {
        match name {
            "auto" => Ok(FusePolicy::Auto),
            "full" => Ok(FusePolicy::FullNetwork),
            "single" => Ok(FusePolicy::SingleLayerStacks),
            "search" => Ok(FusePolicy::search()),
            other => Err(format!(
                "unknown fuse policy '{other}' (expected one of: auto, full, single, search)"
            )),
        }
    }
}

impl fmt::Display for FusePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FusePolicy::Auto => f.write_str("fuse policy: auto"),
            FusePolicy::FullNetwork => f.write_str("fuse policy: full network"),
            FusePolicy::SingleLayerStacks => f.write_str("fuse policy: single-layer stacks"),
            FusePolicy::Search {
                max_span,
                weight_budget_factor,
            } => {
                if *max_span == usize::MAX {
                    write!(f, "fuse policy: search (budget x{weight_budget_factor})")
                } else {
                    write!(
                        f,
                        "fuse policy: search (max span {max_span}, budget x{weight_budget_factor})"
                    )
                }
            }
        }
    }
}

/// The contiguous layer range `[start, end)` a candidate stack covers. Every
/// candidate the search enumerates is a contiguous run of layer ids, which is
/// what makes the partition problem a shortest path over cut boundaries.
pub fn stack_span(stack: &Stack) -> (usize, usize) {
    (stack.first_layer().0, stack.last_layer().0 + 1)
}

/// Enumerates the candidate stacks of the fuse-depth search, in a
/// deterministic order (ties in the DP resolve to the earliest candidate):
///
/// 1. spans of consecutive branch-free segments, by start segment then span
///    length — multi-segment spans are skipped once their total weights
///    exceed `weight_budget_factor ×` [`weight_fuse_budget_bytes`] or their
///    length exceeds `max_span`;
/// 2. every single layer (the degenerate stacks the heuristic falls back to
///    inside over-budget segments, and the building blocks that keep every
///    cut boundary reachable);
/// 3. the stacks of the automatic partition itself, so the searched optimum
///    can never be worse than the heuristic's choice regardless of the gates.
///
/// Duplicate layer ranges keep their first occurrence.
pub fn enumerate_candidates(
    net: &Network,
    acc: &Accelerator,
    max_span: usize,
    weight_budget_factor: f64,
) -> Vec<Stack> {
    /// Fuse-stack candidates produced across every enumeration.
    static FUSE_CANDIDATES: Counter = Counter::new("fuse.candidates");
    let _span = span!("fuse.enumerate");
    let budget = weight_fuse_budget_bytes(acc) as f64 * weight_budget_factor.max(0.0);
    // `as` saturates: an infinite factor admits every span.
    let budget = budget as u64;
    let segs = segments(net);
    let seg_weight: Vec<u64> = segs
        .iter()
        .map(|s| s.iter().map(|&l| net.layer(l).weight_bytes()).sum())
        .collect();

    let mut seen = std::collections::HashSet::new();
    let mut candidates: Vec<Stack> = Vec::new();
    let mut push = |stack: Stack, candidates: &mut Vec<Stack>| {
        if seen.insert(stack_span(&stack)) {
            candidates.push(stack);
        }
    };

    // 1. Segment spans. Weights grow monotonically with the span, so the
    //    scan for each start breaks at the first over-budget extension.
    for i in 0..segs.len() {
        let mut layers: Vec<LayerId> = Vec::new();
        let mut weight = 0u64;
        for (span, seg) in segs.iter().enumerate().skip(i).map(|(j, s)| (j - i + 1, s)) {
            if span > max_span.max(1) {
                break;
            }
            weight = weight.saturating_add(seg_weight[i + span - 1]);
            if span >= 2 && weight > budget {
                break;
            }
            layers.extend(seg.iter().copied());
            push(Stack::new(layers.clone()), &mut candidates);
        }
    }

    // 2. Single layers.
    for l in net.layer_ids() {
        push(Stack::new(vec![l]), &mut candidates);
    }

    // 3. The automatic partition's own stacks.
    for stack in auto_partition(net, acc) {
        push(stack, &mut candidates);
    }

    FUSE_CANDIDATES.add(candidates.len() as u64);
    candidates
}

/// Picks the optimal partition of `num_layers` layers from candidate layer
/// spans by shortest-path dynamic programming over the cut boundaries
/// `0..=num_layers`.
///
/// `spans[i]` is candidate `i`'s layer range `[start, end)` and `values[i]`
/// its (additive) cost contribution. Returns the chosen candidate indices in
/// layer order together with the minimal total value, or `None` when the
/// candidates cannot tile `0..num_layers` (never the case for
/// [`enumerate_candidates`], which always contains every single layer).
///
/// Ties resolve to the earliest candidate index at each boundary, making the
/// result deterministic and independent of evaluation order.
pub fn optimal_partition(
    num_layers: usize,
    spans: &[(usize, usize)],
    values: &[f64],
) -> Option<(Vec<usize>, f64)> {
    optimal_partition_budgeted(num_layers, spans, values, 0)
        .map(|(chosen, total, _degraded)| (chosen, total))
}

/// [`optimal_partition`] under a deterministic work budget: at most
/// `max_dp_nodes` multi-layer candidate relaxations are performed (`0` means
/// unlimited), counted in the DP's fixed boundary-then-candidate order so the
/// cutoff is a pure function of the input, never of timing.
///
/// Single-layer spans are always relaxed for free: they are what keeps every
/// cut boundary reachable, so an exhausted budget degrades the search toward
/// the shallow (layer-by-layer) partition instead of failing. The returned
/// flag is `true` iff at least one candidate was skipped — the result is
/// then the exact optimum over the *relaxed* subset only, and a larger
/// budget might find a better partition.
pub fn optimal_partition_budgeted(
    num_layers: usize,
    spans: &[(usize, usize)],
    values: &[f64],
    max_dp_nodes: u64,
) -> Option<(Vec<usize>, f64, bool)> {
    /// Multi-layer DP relaxations skipped because the fuse-search budget ran
    /// out ([`defines_mapping::Budget::max_dp_nodes`]).
    static DP_SKIPPED: Counter = Counter::new("fuse.dp_skipped_budget");
    let _span = span!("fuse.partition_dp");
    assert_eq!(
        spans.len(),
        values.len(),
        "one value per candidate span required"
    );
    let cap = if max_dp_nodes == 0 {
        u64::MAX
    } else {
        max_dp_nodes
    };
    let mut by_end: Vec<Vec<usize>> = vec![Vec::new(); num_layers + 1];
    for (idx, &(start, end)) in spans.iter().enumerate() {
        assert!(
            start < end && end <= num_layers,
            "candidate span {start}..{end} out of bounds for {num_layers} layers"
        );
        by_end[end].push(idx);
    }
    let mut best = vec![f64::INFINITY; num_layers + 1];
    let mut parent: Vec<Option<usize>> = vec![None; num_layers + 1];
    best[0] = 0.0;
    let mut relaxed = 0u64;
    let mut skipped = 0u64;
    for end in 1..=num_layers {
        for &idx in &by_end[end] {
            let (start, _) = spans[idx];
            if end - start > 1 {
                if relaxed >= cap {
                    skipped += 1;
                    continue;
                }
                relaxed += 1;
            }
            if !best[start].is_finite() {
                continue;
            }
            let total = best[start] + values[idx];
            if total < best[end] {
                best[end] = total;
                parent[end] = Some(idx);
            }
        }
    }
    DP_SKIPPED.add(skipped);
    if !best[num_layers].is_finite() {
        return None;
    }
    let mut chosen = Vec::new();
    let mut boundary = num_layers;
    while boundary > 0 {
        let idx = parent[boundary].expect("finite DP value implies a recorded parent");
        chosen.push(idx);
        boundary = spans[idx].0;
    }
    chosen.reverse();
    Some((chosen, best[num_layers], skipped > 0))
}

/// Exhaustive reference for [`optimal_partition`]: enumerates every way of
/// tiling `0..num_layers` with candidate spans and returns the minimum-total
/// tiling (candidates tried in index order, so ties resolve to the
/// lexicographically earliest choice sequence). Exponential — test-sized
/// inputs only; the DP/brute-force parity tests rely on it.
pub fn brute_force_partition(
    num_layers: usize,
    spans: &[(usize, usize)],
    values: &[f64],
) -> Option<(Vec<usize>, f64)> {
    assert_eq!(spans.len(), values.len());
    fn recurse(
        boundary: usize,
        num_layers: usize,
        spans: &[(usize, usize)],
        values: &[f64],
        chosen: &mut Vec<usize>,
        best: &mut Option<(Vec<usize>, f64)>,
    ) {
        if boundary == num_layers {
            let total: f64 = chosen.iter().map(|&i| values[i]).sum();
            let better = match best {
                None => true,
                Some((_, b)) => total < *b,
            };
            if better {
                *best = Some((chosen.clone(), total));
            }
            return;
        }
        for (idx, &(start, end)) in spans.iter().enumerate() {
            if start == boundary {
                chosen.push(idx);
                recurse(end, num_layers, spans, values, chosen, best);
                chosen.pop();
            }
        }
    }
    let mut best = None;
    recurse(0, num_layers, spans, values, &mut Vec::new(), &mut best);
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use defines_arch::zoo;
    use defines_workload::models;

    /// The one keyword vocabulary (CLI flags, daemon request fields): every
    /// value parses back from its own keyword.
    #[test]
    fn keyword_vocabulary_round_trips() {
        use crate::{OptimizeTarget, OverlapMode};
        for policy in [
            FusePolicy::Auto,
            FusePolicy::FullNetwork,
            FusePolicy::SingleLayerStacks,
            FusePolicy::search(),
        ] {
            assert_eq!(FusePolicy::from_keyword(policy.keyword()), Ok(policy));
        }
        for target in [
            OptimizeTarget::Energy,
            OptimizeTarget::Latency,
            OptimizeTarget::Edp,
            OptimizeTarget::DramAccess,
            OptimizeTarget::ActivationEnergy,
        ] {
            assert_eq!(OptimizeTarget::from_keyword(target.keyword()), Ok(target));
        }
        for mode in OverlapMode::ALL {
            let digit = mode.digit().to_string();
            assert_eq!(OverlapMode::parse_digits(&digit), Ok(vec![mode]));
        }
        let all: String = OverlapMode::ALL.iter().map(OverlapMode::digit).collect();
        assert_eq!(
            OverlapMode::parse_digits(&all),
            Ok(OverlapMode::ALL.to_vec())
        );
    }

    #[test]
    fn policy_keywords_and_fixed_depths() {
        assert_eq!(FusePolicy::Auto.fixed_fuse_depth(), Some(FuseDepth::Auto));
        assert_eq!(
            FusePolicy::FullNetwork.fixed_fuse_depth(),
            Some(FuseDepth::FullNetwork)
        );
        assert_eq!(
            FusePolicy::SingleLayerStacks.fixed_fuse_depth(),
            Some(FuseDepth::SingleLayerStacks)
        );
        assert_eq!(FusePolicy::search().fixed_fuse_depth(), None);
        assert_eq!(FusePolicy::search().keyword(), "search");
        assert_eq!(FusePolicy::Auto.keyword(), "auto");
        assert!(FusePolicy::search().to_string().contains("search"));
    }

    #[test]
    fn candidates_cover_singles_spans_and_auto_stacks() {
        let net = models::fsrcnn();
        let acc = zoo::meta_proto_like_df();
        let candidates = enumerate_candidates(&net, &acc, usize::MAX, 1.0);
        // Every single layer is a candidate.
        for l in net.layer_ids() {
            assert!(
                candidates.iter().any(|c| stack_span(c) == (l.0, l.0 + 1)),
                "missing single-layer candidate for {l}"
            );
        }
        // The full network fits the weight budget, so the full span is there.
        assert!(candidates.iter().any(|c| c.len() == net.len()));
        // Every auto stack is a candidate.
        for stack in crate::stack::partition_into_stacks(&net, &acc, &FuseDepth::Auto) {
            assert!(candidates.iter().any(|c| c == &stack));
        }
        // No duplicate spans.
        let mut spans: Vec<(usize, usize)> = candidates.iter().map(stack_span).collect();
        spans.sort_unstable();
        let before = spans.len();
        spans.dedup();
        assert_eq!(spans.len(), before);
    }

    #[test]
    fn max_span_and_budget_gate_multi_segment_spans() {
        let net = models::fsrcnn();
        let acc = zoo::meta_proto_like_df();
        // max_span = 1: only single segments (here: single layers; FSRCNN is
        // branch-free so every layer is its own segment) plus the auto stack.
        let gated = enumerate_candidates(&net, &acc, 1, 1.0);
        let auto = crate::stack::partition_into_stacks(&net, &acc, &FuseDepth::Auto);
        assert_eq!(gated.len(), net.len() + auto.len());
        // A zero budget factor also degenerates to singles + auto stacks.
        let zero = enumerate_candidates(&net, &acc, usize::MAX, 0.0);
        assert_eq!(zero.len(), net.len() + auto.len());
        // The unrestricted candidate set is the full triangular family.
        let all = enumerate_candidates(&net, &acc, usize::MAX, f64::INFINITY);
        assert_eq!(all.len(), net.len() * (net.len() + 1) / 2);
    }

    #[test]
    fn dp_picks_the_cheaper_partition() {
        // Layers 0..3; merging all three (value 5) loses to {0} + {1,2}
        // (1 + 3 = 4) but beats all singles (1 + 2 + 2 = 5, tie resolved to
        // the earlier candidate structure by value strictness).
        let spans = [(0, 3), (0, 1), (1, 3), (1, 2), (2, 3)];
        let values = [5.0, 1.0, 3.0, 2.0, 2.0];
        let (chosen, total) = optimal_partition(3, &spans, &values).unwrap();
        assert_eq!(chosen, vec![1, 2]);
        assert!((total - 4.0).abs() < 1e-12);
    }

    #[test]
    fn dp_ties_resolve_to_earliest_candidate() {
        // Two ways to cover 0..2 with the same total: the whole-span
        // candidate is listed first and must win the tie.
        let spans = [(0, 2), (0, 1), (1, 2)];
        let values = [2.0, 1.0, 1.0];
        let (chosen, total) = optimal_partition(2, &spans, &values).unwrap();
        assert_eq!(chosen, vec![0]);
        assert!((total - 2.0).abs() < 1e-12);
    }

    #[test]
    fn dp_reports_untileable_candidate_sets() {
        // No candidate covers layer 1.
        assert!(optimal_partition(2, &[(0, 1)], &[1.0]).is_none());
        assert!(brute_force_partition(2, &[(0, 1)], &[1.0]).is_none());
    }

    #[test]
    fn budgeted_dp_degrades_gracefully_and_deterministically() {
        // Dense candidate set over 6 layers with pseudo-random values.
        let n = 6;
        let mut spans = Vec::new();
        let mut values = Vec::new();
        let mut state = 0xdeadbeefcafef00du64;
        for s in 0..n {
            for e in (s + 1)..=n {
                spans.push((s, e));
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                values.push((state % 1000) as f64 / 10.0);
            }
        }
        let (full_chosen, full_total, full_degraded) =
            optimal_partition_budgeted(n, &spans, &values, 0).unwrap();
        assert!(!full_degraded, "unlimited budget never degrades");
        assert_eq!(
            optimal_partition(n, &spans, &values).unwrap(),
            (full_chosen.clone(), full_total),
            "unlimited budgeted DP is the plain DP"
        );
        // A generous budget covering every multi-layer candidate is also
        // un-degraded and identical.
        let multi = spans.iter().filter(|(s, e)| e - s > 1).count() as u64;
        let (chosen, total, degraded) =
            optimal_partition_budgeted(n, &spans, &values, multi).unwrap();
        assert!(!degraded);
        assert_eq!((chosen, total), (full_chosen, full_total));
        // Tiny budgets always complete (single-layer spans are free), are
        // flagged degraded whenever a candidate was skipped, never beat the
        // optimum, and are reproducible.
        for budget in 1..multi {
            let (chosen, total, degraded) =
                optimal_partition_budgeted(n, &spans, &values, budget).unwrap();
            assert!(
                total >= full_total - 1e-9,
                "budget {budget} beat the optimum"
            );
            // The chosen spans tile 0..n.
            let mut boundary = 0;
            for &idx in &chosen {
                assert_eq!(spans[idx].0, boundary);
                boundary = spans[idx].1;
            }
            assert_eq!(boundary, n);
            let again = optimal_partition_budgeted(n, &spans, &values, budget).unwrap();
            assert_eq!(again.0, chosen, "budgeted DP must be reproducible");
            assert_eq!(again.2, degraded);
        }
        // A budget of 1 skips candidates on this dense set.
        let (_, _, degraded) = optimal_partition_budgeted(n, &spans, &values, 1).unwrap();
        assert!(degraded, "a budget of 1 must be flagged degraded here");
    }

    #[test]
    fn dp_matches_brute_force_on_dense_candidate_sets() {
        // All contiguous spans over 5 layers with deterministic pseudo-random
        // values: DP and exhaustive enumeration must agree exactly.
        let n = 5;
        let mut spans = Vec::new();
        let mut values = Vec::new();
        let mut state = 0x9e3779b97f4a7c15u64;
        for s in 0..n {
            for e in (s + 1)..=n {
                spans.push((s, e));
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                values.push((state % 1000) as f64 / 10.0);
            }
        }
        let (dp_chosen, dp_total) = optimal_partition(n, &spans, &values).unwrap();
        let (bf_chosen, bf_total) = brute_force_partition(n, &spans, &values).unwrap();
        assert!((dp_total - bf_total).abs() < 1e-9);
        assert_eq!(dp_chosen, bf_chosen);
    }
}

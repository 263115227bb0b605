//! Fuse depth (axis 3): grouping layers into stacks of fused layers.

use defines_arch::{Accelerator, Operand};
use defines_workload::{LayerId, Network};
use serde::Serialize;
use std::fmt;

/// Axis 3 of the design space: how layers are grouped into fused-layer stacks.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub enum FuseDepth {
    /// Layers are added to a stack as long as the stack's total weights fit in
    /// the highest on-chip memory level that holds weights; branch-free
    /// segments are kept together (Section III, "Inputs").
    Auto,
    /// The whole network forms one stack.
    FullNetwork,
    /// Every layer is its own stack (single-layer style scheduling).
    SingleLayerStacks,
    /// Explicit stacks, each a list of layer ids in topological order.
    Manual(Vec<Vec<LayerId>>),
}

impl fmt::Display for FuseDepth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FuseDepth::Auto => f.write_str("fuse: auto"),
            FuseDepth::FullNetwork => f.write_str("fuse: full network"),
            FuseDepth::SingleLayerStacks => f.write_str("fuse: single-layer stacks"),
            FuseDepth::Manual(stacks) => write!(f, "fuse: manual ({} stacks)", stacks.len()),
        }
    }
}

/// A stack of fused layers: a consecutive (in topological order) group of
/// layers that is processed depth-first, tile by tile.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Stack {
    /// The layers of the stack, in topological order.
    pub layers: Vec<LayerId>,
}

impl Stack {
    /// Creates a stack from layer ids.
    pub fn new(layers: Vec<LayerId>) -> Self {
        Self { layers }
    }

    /// The last (sink) layer of the stack — the one whose output is tiled.
    pub fn last_layer(&self) -> LayerId {
        *self.layers.last().expect("stacks are never empty")
    }

    /// The first layer of the stack.
    pub fn first_layer(&self) -> LayerId {
        *self.layers.first().expect("stacks are never empty")
    }

    /// Number of layers fused in the stack.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the stack has no layers (never true for produced stacks).
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Whether a layer belongs to the stack.
    pub(crate) fn contains(&self, id: LayerId) -> bool {
        self.layers.contains(&id)
    }

    /// Total weight bytes of the stack's layers.
    pub fn weight_bytes(&self, net: &Network) -> u64 {
        self.layers
            .iter()
            .map(|&l| net.layer(l).weight_bytes())
            .sum()
    }
}

/// The capacity, in bytes, of the highest on-chip memory level that holds
/// weights, divided by the number of operands sharing it. This is the budget
/// the automatic fuse-depth heuristic uses.
///
/// Per-MAC register files (anything below 8 KB) do not count as a weight
/// buffer: they cannot keep a fused stack's weights resident, so an
/// architecture whose only on-chip weight storage is its registers (the
/// TPU-like baseline) gets a budget of zero and falls back to one-layer
/// stacks.
pub(crate) fn weight_fuse_budget_bytes(acc: &Accelerator) -> u64 {
    const MIN_WEIGHT_BUFFER_BYTES: u64 = 8 * 1024;
    acc.hierarchy()
        .levels_for(Operand::Weight)
        .filter(|(_, l)| !l.is_dram())
        .filter_map(|(_, l)| l.capacity_bytes().map(|c| c / l.shared_by() as u64))
        .filter(|&share| share >= MIN_WEIGHT_BUFFER_BYTES)
        .last()
        .unwrap_or(0)
}

/// Partitions a network into stacks according to the fuse-depth choice.
///
/// For [`FuseDepth::Auto`]:
///
/// * the network is first split into *segments* at its branch-free cut points
///   (all layers between two cut points go together or not at all),
/// * segments are greedily merged into stacks while the total weight size
///   stays within `weight_fuse_budget_bytes`,
/// * a multi-layer segment that does not fit by itself degenerates into
///   one-layer stacks, exactly as described in Section III.
pub fn partition_into_stacks(net: &Network, acc: &Accelerator, fuse: &FuseDepth) -> Vec<Stack> {
    match fuse {
        FuseDepth::FullNetwork => vec![Stack::new(net.layer_ids().collect())],
        FuseDepth::SingleLayerStacks => net.layer_ids().map(|l| Stack::new(vec![l])).collect(),
        FuseDepth::Manual(stacks) => stacks.iter().map(|s| Stack::new(s.clone())).collect(),
        FuseDepth::Auto => auto_partition(net, acc),
    }
}

/// The automatic (greedy) partition used by [`FuseDepth::Auto`]. Exposed to
/// the fuse-depth search ([`crate::fuse`]) so its candidate set always
/// contains the heuristic's own stacks, guaranteeing the searched schedule is
/// never worse than the heuristic one.
pub(crate) fn auto_partition(net: &Network, acc: &Accelerator) -> Vec<Stack> {
    let budget = weight_fuse_budget_bytes(acc);
    let segments = segments(net);
    let mut stacks: Vec<Stack> = Vec::new();
    let mut current: Vec<LayerId> = Vec::new();
    let mut current_weight = 0u64;

    let close = |stacks: &mut Vec<Stack>, current: &mut Vec<LayerId>, current_weight: &mut u64| {
        if !current.is_empty() {
            stacks.push(Stack::new(std::mem::take(current)));
            *current_weight = 0;
        }
    };

    for seg in segments {
        let seg_weight: u64 = seg.iter().map(|&l| net.layer(l).weight_bytes()).sum();
        if seg_weight > budget {
            // The segment alone exceeds the budget.
            close(&mut stacks, &mut current, &mut current_weight);
            if seg.len() == 1 {
                stacks.push(Stack::new(seg));
            } else {
                // Branchy segment that does not fit: every layer becomes its
                // own stack.
                for l in seg {
                    stacks.push(Stack::new(vec![l]));
                }
            }
            continue;
        }
        if current_weight + seg_weight > budget {
            close(&mut stacks, &mut current, &mut current_weight);
        }
        current_weight += seg_weight;
        current.extend(seg);
    }
    close(&mut stacks, &mut current, &mut current_weight);
    stacks
}

/// Splits the network into branch-free segments: maximal runs of consecutive
/// layers ending at a cut point.
///
/// Segments are the atoms of the fuse-depth axis: "either all layers between
/// two points where there are no branches are added to a stack, or none of
/// them" (Section III). Every returned segment is a contiguous run of layer
/// ids, the segments are in topological order, and together they cover every
/// layer exactly once. The fuse-depth search (`crate::fuse`) enumerates its
/// stack candidates as spans of consecutive segments.
pub(crate) fn segments(net: &Network) -> Vec<Vec<LayerId>> {
    let cuts = net.cut_points();
    let mut segs = Vec::new();
    let mut start = 0usize;
    for cut in cuts {
        let seg: Vec<LayerId> = (start..=cut.0).map(LayerId).collect();
        if !seg.is_empty() {
            segs.push(seg);
        }
        start = cut.0 + 1;
    }
    if start < net.len() {
        segs.push((start..net.len()).map(LayerId).collect());
    }
    segs
}

#[cfg(test)]
mod tests {
    use super::*;
    use defines_arch::zoo;
    use defines_workload::models;

    #[test]
    fn full_network_and_single_layer_partitions() {
        let net = models::fsrcnn();
        let acc = zoo::meta_proto_like_df();
        let full = partition_into_stacks(&net, &acc, &FuseDepth::FullNetwork);
        assert_eq!(full.len(), 1);
        assert_eq!(full[0].len(), net.len());
        let single = partition_into_stacks(&net, &acc, &FuseDepth::SingleLayerStacks);
        assert_eq!(single.len(), net.len());
        assert!(single.iter().all(|s| s.len() == 1));
    }

    #[test]
    fn auto_fuses_fsrcnn_into_one_stack() {
        // FSRCNN's 12-15 KB of weights fit in the Meta-proto-like DF 32 KB
        // weight LB, so the whole network fuses into a single stack
        // (case study 1 relies on this).
        let net = models::fsrcnn();
        let acc = zoo::meta_proto_like_df();
        let stacks = partition_into_stacks(&net, &acc, &FuseDepth::Auto);
        assert_eq!(stacks.len(), 1, "stacks: {stacks:?}");
        assert_eq!(stacks[0].len(), 8);
    }

    #[test]
    fn auto_splits_weight_dominant_networks() {
        // MobileNetV1 has ~4 MB of weights; no single stack can hold them in a
        // 1 MB weight GB, so auto fusing must produce several stacks.
        let net = models::mobilenet_v1();
        let acc = zoo::meta_proto_like_df();
        let stacks = partition_into_stacks(&net, &acc, &FuseDepth::Auto);
        assert!(stacks.len() > 1);
        // Every layer appears exactly once, in order.
        let all: Vec<LayerId> = stacks.iter().flat_map(|s| s.layers.clone()).collect();
        let expected: Vec<LayerId> = net.layer_ids().collect();
        assert_eq!(all, expected);
    }

    #[test]
    fn auto_respects_branches() {
        // ResNet18 residual blocks may not be split in the middle of a branch:
        // every stack boundary must be a cut point of the DAG.
        let net = models::resnet18();
        let acc = zoo::meta_proto_like_df();
        let stacks = partition_into_stacks(&net, &acc, &FuseDepth::Auto);
        let cuts = net.cut_points();
        for stack in &stacks {
            let last = stack.last_layer();
            assert!(
                cuts.contains(&last) || stack.len() == 1,
                "stack ending at {last} splits a branch"
            );
        }
        let all: Vec<LayerId> = stacks.iter().flat_map(|s| s.layers.clone()).collect();
        let expected: Vec<LayerId> = net.layer_ids().collect();
        assert_eq!(all, expected);
    }

    #[test]
    fn weight_budget_depends_on_architecture() {
        // The TPU-like baseline has no on-chip weight memory at all.
        assert_eq!(weight_fuse_budget_bytes(&zoo::tpu_like()), 0);
        // Its DF variant has a 1 MB weight GB.
        assert_eq!(weight_fuse_budget_bytes(&zoo::tpu_like_df()), 1024 * 1024);
        // Meta-proto-like DF: the weight GB (1 MB) is the top weight level.
        assert_eq!(
            weight_fuse_budget_bytes(&zoo::meta_proto_like_df()),
            1024 * 1024
        );
    }

    #[test]
    fn no_weight_buffer_means_single_layer_stacks() {
        let net = models::fsrcnn();
        let acc = zoo::tpu_like();
        let stacks = partition_into_stacks(&net, &acc, &FuseDepth::Auto);
        assert_eq!(stacks.len(), net.len());
    }

    #[test]
    fn manual_partition_is_respected() {
        let net = models::fsrcnn();
        let acc = zoo::meta_proto_like_df();
        let manual = FuseDepth::Manual(vec![
            (0..4).map(LayerId).collect(),
            (4..8).map(LayerId).collect(),
        ]);
        let stacks = partition_into_stacks(&net, &acc, &manual);
        assert_eq!(stacks.len(), 2);
        assert_eq!(stacks[0].last_layer(), LayerId(3));
        assert_eq!(stacks[1].first_layer(), LayerId(4));
    }

    #[test]
    fn stack_weight_bytes_sums_layers() {
        let net = models::fsrcnn();
        let stack = Stack::new(net.layer_ids().collect());
        let expected: u64 = net.layers().iter().map(|l| l.weight_bytes()).sum();
        assert_eq!(stack.weight_bytes(&net), expected);
    }
}

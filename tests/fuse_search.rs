//! The fuse-depth search (axis 3): the searched stack partition can never be
//! worse than the automatic heuristic, the DP partition solver agrees with
//! exhaustive enumeration, the automatic partitions are well-formed on
//! randomized networks, and the default tile grid follows the network's real
//! sink even for permuted-order workload files.

use defines_arch::zoo;
use defines_core::fuse::{brute_force_partition, enumerate_candidates, optimal_partition};
use defines_core::{
    DfCostModel, Explorer, FuseDepth, FusePolicy, OptimizeTarget, OverlapMode, Stack, TileSize,
};
use defines_mapping::MappingCache;
use defines_workload::{models, Layer, LayerDims, LayerId, Network, OpType};
use proptest::prelude::*;

/// A reduced tile grid for a workload: two interior points derived from the
/// largest feature map (`best_schedule` appends the full tile itself).
fn small_grid(net: &Network) -> Vec<(u64, u64)> {
    let (w, h) = net
        .layers()
        .iter()
        .map(|l| (l.dims.ox, l.dims.oy))
        .max_by_key(|&(x, y)| x * y)
        .expect("non-empty network");
    vec![
        ((w / 8).max(1), (h / 8).max(1)),
        ((w / 2).max(1), (h / 2).max(1)),
    ]
}

/// The acceptance criterion of the fuse-depth search: on every zoo workload,
/// `FusePolicy::Search` finds a schedule whose target value is at most the
/// `FuseDepth::Auto` best-combination value over the same grid and modes —
/// the candidate set contains the automatic partition's stacks by
/// construction, and the DP can only improve on any tiling of them.
#[test]
fn search_is_never_worse_than_auto_combination_on_all_zoo_workloads() {
    let acc = zoo::meta_proto_like_df();
    let cache = MappingCache::new();
    for net in [
        models::fsrcnn(),
        models::dmcnn_vd(),
        models::mccnn(),
        models::mobilenet_v1(),
        models::resnet18(),
        models::reference_net(),
    ] {
        let model = DfCostModel::new(&acc)
            .with_fast_mapper()
            .with_shared_cache(cache.clone());
        let explorer = Explorer::new(&model);
        let tiles = small_grid(&net);
        let modes = [OverlapMode::FullyRecompute, OverlapMode::FullyCached];
        let target = OptimizeTarget::Energy;
        let auto = explorer
            .best_schedule(&net, &tiles, &modes, target, &FusePolicy::Auto)
            .unwrap();
        let searched = explorer
            .best_schedule(&net, &tiles, &modes, target, &FusePolicy::search())
            .unwrap();
        let auto_value = target.value(&auto.cost, &acc);
        let searched_value = target.value(&searched.cost, &acc);
        assert!(
            searched_value <= auto_value * (1.0 + 1e-9),
            "{}: searched {searched_value} worse than auto {auto_value}",
            net.name()
        );
        // The chosen partition is a valid cover: every layer exactly once,
        // in topological order.
        let covered: Vec<LayerId> = searched
            .partition()
            .iter()
            .flat_map(|s| s.layers.clone())
            .collect();
        let expected: Vec<LayerId> = net.layer_ids().collect();
        assert_eq!(covered, expected, "{}", net.name());
    }
}

fn chain_net(widths: &[u64]) -> Network {
    let mut net = Network::new("chain");
    let mut prev: Option<LayerId> = None;
    let mut side = 32u64;
    for (i, &k) in widths.iter().enumerate() {
        let c = if i == 0 { 3 } else { widths[i - 1] };
        let preds: Vec<LayerId> = prev.into_iter().collect();
        side -= 2; // 3x3 valid conv shrinks by 2
        let id = net
            .add_layer(
                Layer::new(
                    format!("l{i}"),
                    OpType::Conv,
                    LayerDims::conv(k, c, side, side, 3, 3),
                ),
                &preds,
            )
            .unwrap();
        prev = Some(id);
    }
    net
}

/// Brute-force parity on a real model: for a 4-layer chain every contiguous
/// partition is a tiling of segment spans, so exhaustively evaluating all
/// 2^(n-1) partitions (each stack with its best tile/mode choice, stacks
/// exchanging data through DRAM exactly like the search) must reproduce the
/// DP's chosen value.
#[test]
fn search_matches_exhaustive_partition_enumeration_on_a_chain() {
    let acc = zoo::meta_proto_like_df();
    let model = DfCostModel::new(&acc).with_fast_mapper();
    let explorer = Explorer::new(&model);
    let net = chain_net(&[8, 8, 16, 8]);
    let tiles = [(8, 8), (16, 16)];
    let modes = OverlapMode::ALL;
    let target = OptimizeTarget::Energy;
    let dram = acc.hierarchy().dram_id();

    // Best value of one stack over the tile/mode candidates (the full tile
    // is a candidate too, as in the search).
    let stack_best = |layers: Vec<LayerId>| -> f64 {
        let stack = Stack::new(layers);
        let mut candidates: Vec<TileSize> = tiles
            .iter()
            .map(|&(tx, ty)| TileSize::new(tx, ty))
            .collect();
        candidates.push(TileSize::full());
        candidates
            .into_iter()
            .flat_map(|tile| modes.iter().map(move |&mode| (tile, mode)))
            .map(|(tile, mode)| {
                let cost = model.evaluate_stack(&net, &stack, tile, mode, dram, dram);
                target.stack_value(&cost, &acc)
            })
            .fold(f64::INFINITY, f64::min)
    };

    // Exhaustive minimum over all 2^(n-1) contiguous partitions.
    let n = net.len();
    let mut exhaustive = f64::INFINITY;
    for cut_mask in 0..(1u32 << (n - 1)) {
        let mut total = 0.0;
        let mut start = 0usize;
        for end in 1..=n {
            let cut_here = end == n || cut_mask & (1 << (end - 1)) != 0;
            if cut_here {
                total += stack_best((start..end).map(LayerId).collect());
                start = end;
            }
        }
        exhaustive = exhaustive.min(total);
    }

    let searched = explorer
        .best_schedule(&net, &tiles, &modes, target, &FusePolicy::search())
        .unwrap();
    let searched_value = target.value(&searched.cost, &acc);
    assert!(
        (searched_value - exhaustive).abs() <= exhaustive * 1e-9,
        "DP picked {searched_value}, exhaustive minimum is {exhaustive}"
    );
}

// DP vs brute force on synthetic candidate sets shaped like the search's
// (all contiguous spans over up to 6 segments, pseudo-random values): totals
// and chosen partitions must agree.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn dp_matches_brute_force_on_random_values(
        n in 1usize..=6,
        seed in 0u64..u64::MAX,
    ) {
        let mut spans = Vec::new();
        let mut values = Vec::new();
        let mut state = seed | 1;
        for s in 0..n {
            for e in (s + 1)..=n {
                spans.push((s, e));
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                // Coarse values make ties likely, exercising tie-breaking.
                values.push((state % 16) as f64);
            }
        }
        let (dp_chosen, dp_total) = optimal_partition(n, &spans, &values).unwrap();
        let (bf_chosen, bf_total) = brute_force_partition(n, &spans, &values).unwrap();
        prop_assert!((dp_total - bf_total).abs() < 1e-9);
        // Both tile the layer range exactly.
        let mut boundary = 0;
        for &idx in &dp_chosen {
            prop_assert_eq!(spans[idx].0, boundary);
            boundary = spans[idx].1;
        }
        prop_assert_eq!(boundary, n);
        let _ = bf_chosen;
    }
}

// Automatic partitions cover every layer exactly once, in topological order,
// on randomized chain networks with a random residual edge — for both a
// weight-buffered architecture and one without any (budget zero).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn auto_partition_covers_every_layer_exactly_once(
        len in 2usize..=9,
        width_seed in 1u64..=64,
        skip_from in 0usize..=7,
    ) {
        let widths: Vec<u64> = (0..len)
            .map(|i| 4 + (width_seed.wrapping_mul(i as u64 + 1) % 64))
            .collect();
        let mut net = chain_net(&widths);
        // A residual edge makes the middle of the network branchy, removing
        // cut points; the partition must still respect the remaining ones.
        if skip_from + 2 < len {
            let side = net.layer(LayerId(skip_from + 2)).dims;
            let _ = net.add_layer(
                Layer::new("residual", OpType::Add, LayerDims::conv(side.k, side.k, side.ox, side.oy, 1, 1)),
                &[LayerId(skip_from), LayerId(skip_from + 2)],
            );
        }
        for acc in [zoo::meta_proto_like_df(), zoo::tpu_like()] {
            let stacks = defines_core::stack::partition_into_stacks(&net, &acc, &FuseDepth::Auto);
            let covered: Vec<LayerId> = stacks.iter().flat_map(|s| s.layers.clone()).collect();
            let expected: Vec<LayerId> = net.layer_ids().collect();
            prop_assert_eq!(covered, expected, "{}", acc.name());
            // Multi-layer stacks may only end at cut points of the DAG.
            let cuts = net.cut_points();
            for stack in &stacks {
                prop_assert!(
                    stack.len() == 1 || cuts.contains(&stack.last_layer()),
                    "stack ending at {} splits a branch", stack.last_layer()
                );
            }
        }
    }
}

/// The search candidate set always contains the automatic partition's stacks
/// and all single layers, on every zoo workload and architecture extreme.
#[test]
fn candidate_sets_contain_auto_stacks_and_singles() {
    for acc in [zoo::meta_proto_like_df(), zoo::tpu_like()] {
        for net in [models::fsrcnn(), models::resnet18()] {
            let candidates = enumerate_candidates(&net, &acc, usize::MAX, 1.0);
            for stack in defines_core::stack::partition_into_stacks(&net, &acc, &FuseDepth::Auto) {
                assert!(
                    candidates.iter().any(|c| c == &stack),
                    "auto stack missing on {} / {}",
                    acc.name(),
                    net.name()
                );
            }
            for l in net.layer_ids() {
                assert!(candidates
                    .iter()
                    .any(|c| c.layers.len() == 1 && c.layers[0] == l));
            }
        }
    }
}

/// Regression: the default tile grid is derived from the network's actual
/// (largest) sink layer, not from whichever layer a workload file happens to
/// list last — here a 4×4 auxiliary head appears after the 128×128 output.
#[test]
fn default_tile_grid_ignores_trailing_auxiliary_head_in_workload_file() {
    let json = r#"{
        "format": "defines-workload-v1",
        "name": "permuted",
        "layers": [
            {"name": "trunk", "op": "Conv", "inputs": [],
             "k": 8, "c": 3, "ox": 128, "oy": 128, "fx": 3, "fy": 3,
             "padding": [1, 1]},
            {"name": "main_out", "op": "Conv", "inputs": ["trunk"],
             "k": 8, "ox": 128, "oy": 128, "fx": 3, "fy": 3,
             "padding": [1, 1]},
            {"name": "aux_head", "op": "Conv", "inputs": ["trunk"],
             "k": 4, "ox": 4, "oy": 4, "fx": 1, "fy": 1,
             "stride": [32, 32]}
        ]
    }"#;
    let dir = std::env::temp_dir().join("defines-fuse-search-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("permuted.json");
    std::fs::write(&path, json).unwrap();
    let net = defines_workload::loader::from_json_file(&path).unwrap();
    // The aux head is last in insertion order…
    assert_eq!(net.layers().last().unwrap().name, "aux_head");
    // …but the grid follows the 128×128 main output.
    let grid = Explorer::default_tile_grid(&net);
    assert!(grid.contains(&(128, 128)), "grid: {grid:?}");
    assert!(
        grid.iter().any(|&(tx, ty)| tx > 4 && ty > 4),
        "grid stuck at the 4x4 aux head: {grid:?}"
    );
}

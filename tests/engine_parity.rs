//! Engine parity: the parallel + memoized + pruned exploration engine must
//! produce results bit-identical to the sequential reference path, on real
//! paper workloads and on randomized synthetic networks, while actually
//! hitting its memoization cache.

use defines_arch::zoo;
use defines_core::{
    DfCostModel, DfStrategy, ExplorationResult, Explorer, FusePolicy, OptimizeTarget, OverlapMode,
    TileSize,
};
use defines_engine::{EngineConfig, SweepEngine};
use defines_mapping::MappingCache;
use defines_workload::{models, Layer, LayerDims, Network, OpType};
use proptest::prelude::*;

fn synthetic_net(k1: u64, k2: u64, side: u64, f: u64) -> Network {
    let mut net = Network::new("synthetic");
    let a = net
        .add_layer(
            Layer::new("a", OpType::Conv, LayerDims::conv(k1, 3, side, side, f, f)),
            &[],
        )
        .unwrap();
    let inner = side - (f - 1);
    let _ = net
        .add_layer(
            Layer::new(
                "b",
                OpType::Conv,
                LayerDims::conv(k2, k1, inner, inner, f, f),
            ),
            &[a],
        )
        .unwrap();
    net
}

/// The seed's sequential sweep, kept as the engine's bit-identity oracle: one
/// thread, no engine, no pruning, no prepared geometries — a plain scan over
/// `DfCostModel::evaluate_network` in the canonical submission order (modes
/// outer, tiles inner) under the automatic fuse depth (the explorer's default).
fn sweep_sequential(
    model: &DfCostModel<'_>,
    net: &Network,
    tiles: &[(u64, u64)],
    modes: &[OverlapMode],
) -> Vec<ExplorationResult> {
    let mut out = Vec::with_capacity(tiles.len() * modes.len());
    for &mode in modes {
        for &(tx, ty) in tiles {
            let strategy = DfStrategy::depth_first(TileSize::new(tx, ty), mode);
            let cost = model.evaluate_network(net, &strategy).unwrap();
            out.push(ExplorationResult { strategy, cost });
        }
    }
    out
}

/// The engine sweep (multi-threaded, shared cache) is bit-identical to the
/// seed's sequential sweep on FSRCNN over a representative grid.
#[test]
fn fsrcnn_engine_sweep_is_bit_identical_to_sequential() {
    let acc = zoo::meta_proto_like_df();
    let net = models::fsrcnn();
    let tiles = [(1, 1), (16, 18), (60, 72), (960, 540)];

    let sequential_model = DfCostModel::new(&acc).with_fast_mapper();
    let sequential = sweep_sequential(&sequential_model, &net, &tiles, &OverlapMode::ALL);

    let shared = MappingCache::new();
    let engine_model = DfCostModel::new(&acc)
        .with_fast_mapper()
        .with_shared_cache(shared.clone());
    for threads in [1, 4] {
        let parallel = Explorer::new(&engine_model)
            .with_threads(threads)
            .sweep(&net, &tiles, &OverlapMode::ALL)
            .unwrap();
        assert_eq!(parallel, sequential, "threads = {threads}");
    }
}

/// The memoization cache must absorb the cross-design-point redundancy: a
/// second sweep over the same space reuses every single mapping sub-problem.
#[test]
fn mapping_cache_hit_rate_reflects_design_space_redundancy() {
    let acc = zoo::meta_proto_like_df();
    let net = models::fsrcnn();
    let tiles = [(16, 18), (60, 72), (240, 270)];
    let cache = MappingCache::new();
    let model = DfCostModel::new(&acc)
        .with_fast_mapper()
        .with_shared_cache(cache.clone());
    let explorer = Explorer::new(&model);

    let _ = explorer.sweep(&net, &tiles, &OverlapMode::ALL).unwrap();
    let first = cache.stats();
    assert!(
        first.hit_rate() > 0.5,
        "one sweep already repeats most sub-problems: {first:?}"
    );

    let _ = explorer.sweep(&net, &tiles, &OverlapMode::ALL).unwrap();
    let second = cache.stats();
    assert_eq!(
        second.misses, first.misses,
        "a repeated sweep must introduce no new mapping sub-problems"
    );
    assert!(second.hits > first.hits);
}

/// Best-strategy search with pruning returns exactly the exhaustive result.
#[test]
fn fsrcnn_pruned_best_equals_exhaustive_best() {
    let acc = zoo::meta_proto_like_df();
    let net = models::fsrcnn();
    let tiles = [(1, 1), (4, 4), (16, 18), (60, 72), (960, 540)];
    let model = DfCostModel::new(&acc).with_fast_mapper();
    for target in [
        OptimizeTarget::Energy,
        OptimizeTarget::Edp,
        OptimizeTarget::DramAccess,
    ] {
        let pruned = Explorer::new(&model)
            .with_pruning(true)
            .best_single_strategy(&net, &tiles, &OverlapMode::ALL, target)
            .unwrap();
        let exhaustive = Explorer::new(&model)
            .with_pruning(false)
            .best_single_strategy(&net, &tiles, &OverlapMode::ALL, target)
            .unwrap();
        assert_eq!(pruned, exhaustive, "target {target}");
    }
}

/// Best-combination search on the engine matches a per-stack sequential scan
/// on a weight-dominant workload (several stacks).
#[test]
fn mobilenet_best_combination_is_deterministic_across_thread_counts() {
    let acc = zoo::meta_proto_like_df();
    let net = models::mobilenet_v1();
    let tiles = [(28, 28), (112, 112)];
    let model = DfCostModel::new(&acc).with_fast_mapper();
    let single = Explorer::new(&model)
        .with_threads(1)
        .best_schedule(
            &net,
            &tiles,
            &OverlapMode::ALL,
            OptimizeTarget::Energy,
            &FusePolicy::Auto,
        )
        .unwrap();
    let parallel = Explorer::new(&model)
        .with_threads(4)
        .best_schedule(
            &net,
            &tiles,
            &OverlapMode::ALL,
            OptimizeTarget::Energy,
            &FusePolicy::Auto,
        )
        .unwrap();
    assert_eq!(single.per_stack(), parallel.per_stack());
    assert_eq!(single.cost, parallel.cost);
    assert!(
        single.per_stack().len() > 1,
        "MobileNetV1 should split into several stacks"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Property: for random two-layer networks, random tile grids and any
    /// thread count, the engine sweep equals the sequential sweep
    /// bit-for-bit, and the pruned best equals the exhaustive best.
    #[test]
    fn randomized_networks_preserve_parity(
        k1 in 4u64..=24,
        k2 in 4u64..=24,
        side in 24u64..=72,
        f in prop::sample::select(vec![1u64, 3]),
        tx in 1u64..=24,
        ty in 1u64..=24,
        threads in 1usize..=4,
    ) {
        let acc = zoo::meta_proto_like_df();
        let net = synthetic_net(k1, k2, side, f);
        let last = net.layers().last().unwrap();
        let tiles = [
            (tx.min(last.dims.ox), ty.min(last.dims.oy)),
            (last.dims.ox, last.dims.oy),
        ];
        let model = DfCostModel::new(&acc).with_fast_mapper();
        let explorer = Explorer::new(&model).with_threads(threads);
        let sequential = sweep_sequential(&model, &net, &tiles, &OverlapMode::ALL);
        let parallel = explorer.sweep(&net, &tiles, &OverlapMode::ALL).unwrap();
        prop_assert_eq!(&parallel, &sequential);

        let pruned = explorer
            .best_single_strategy(&net, &tiles, &OverlapMode::ALL, OptimizeTarget::Energy)
            .unwrap();
        let exhaustive = explorer
            .with_pruning(false)
            .best_single_strategy(&net, &tiles, &OverlapMode::ALL, OptimizeTarget::Energy)
            .unwrap();
        prop_assert_eq!(pruned, exhaustive);
    }
}

/// The generic engine itself: evaluation counts, ordering and best-record
/// selection behave identically across thread counts on a cheap space.
#[test]
fn generic_engine_thread_count_invariance() {
    let points: Vec<u64> = (0..64).collect();
    let eval = |p: &u64| ((*p as f64) - 20.5).abs();
    let value = |_: &u64, c: &f64| *c;
    let mut reference: Option<Vec<Option<f64>>> = None;
    for threads in [1, 2, 8] {
        let engine = SweepEngine::new(
            EngineConfig::parallel()
                .with_threads(threads)
                .with_pruning(false),
        );
        let (records, stats) = engine.run_collect(&points, &eval, &value, None::<&fn(&u64) -> f64>);
        assert_eq!(stats.evaluated, 64);
        let values: Vec<Option<f64>> = records.iter().map(|r| r.value()).collect();
        match &reference {
            None => reference = Some(values),
            Some(expected) => assert_eq!(&values, expected, "threads = {threads}"),
        }
        assert_eq!(SweepEngine::best_record(records).unwrap().point, 20);
    }
}

//! Integration tests for the transposition-pruned, branch-and-bound LOMA
//! search: the pruned search must return bit-identical results to the
//! exhaustive reference scan on every problem (including accelerators whose
//! capacity shares shrink outward, where transposed prefixes merge all the
//! same), the integer-stride ordering sampler must produce exactly the
//! requested number of distinct orderings, the canonical cache-key
//! statistics must surface through the sweep plumbing, and the shared
//! [`MappingCache`] must stay consistent when the engine's threads resolve
//! the same canonical problems concurrently.

use defines_arch::{zoo, Accelerator};
use defines_core::{DfCostModel, Explorer, OptimizeTarget, OverlapMode};
use defines_mapping::{LomaMapper, MapperConfig, MappingCache, Objective, SingleLayerProblem};
use defines_workload::{models, Layer, LayerDims, Network, OpType};
use proptest::prelude::*;

fn arb_problem_dims() -> impl Strategy<Value = LayerDims> {
    (
        1u64..=96, // k
        1u64..=48, // c
        1u64..=80, // ox
        1u64..=80, // oy
        prop::sample::select(vec![1u64, 2, 3, 5]),
        prop::sample::select(vec![1u64, 2, 3]),
        prop::sample::select(vec![1u64, 2]),
    )
        .prop_map(|(k, c, ox, oy, fx, fy, s)| {
            LayerDims::conv(k, c, ox, oy, fx, fy).with_stride(s, s)
        })
}

fn arb_objective() -> impl Strategy<Value = Objective> {
    prop::sample::select(vec![
        Objective::Energy,
        Objective::Latency,
        Objective::Edp,
        Objective::DramAccess,
    ])
}

fn arb_op() -> impl Strategy<Value = OpType> {
    prop::sample::select(vec![
        OpType::Conv,
        OpType::DepthwiseConv,
        OpType::Pooling,
        OpType::Add,
    ])
}

/// Asserts the pruned search and the exhaustive reference agree bit-for-bit
/// (cost scalars, access breakdown and the tie-broken mapping) on a problem.
fn assert_parity(acc: &defines_arch::Accelerator, layer: &Layer, config: MapperConfig) {
    let mapper = LomaMapper::new(config);
    let problem = SingleLayerProblem::new(acc, layer);
    let exhaustive = mapper.optimize_exhaustive(&problem);
    let (pruned, stats) = mapper.optimize_with_stats(&problem);
    assert_eq!(
        pruned,
        exhaustive,
        "search diverged on {} / {} ({:?})",
        acc.name(),
        layer.name,
        stats
    );
    assert_eq!(
        stats.evaluated + stats.pruned_bound + stats.pruned_symmetry + stats.skipped_budget,
        stats.orderings_selected,
        "search counters must account for every candidate ordering"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline guarantee of the cold-path overhaul: across randomized
    /// problems, operators and objectives, the symmetry-canonicalized +
    /// branch-and-bound search returns the same `LayerCost` as the
    /// exhaustive 720-ordering scan.
    #[test]
    fn pruned_search_matches_exhaustive(
        dims in arb_problem_dims(),
        op in arb_op(),
        acc_idx in 0usize..4,
        objective in arb_objective(),
    ) {
        let accs = [
            zoo::meta_proto_like_df(),
            zoo::edge_tpu_like_df(),
            zoo::tpu_like(),
            zoo::ascend_like_df(),
        ];
        let layer = Layer::new("l", op, dims);
        let config = MapperConfig::default().with_objective(objective);
        assert_parity(&accs[acc_idx], &layer, config);
    }

    /// Same parity under the sampled (`fast`) configuration, where symmetry
    /// pruning is disabled and the search walks the exact integer-stride
    /// candidate subset.
    #[test]
    fn sampled_search_matches_exhaustive(
        dims in arb_problem_dims(),
        op in arb_op(),
        max in prop::sample::select(vec![3usize, 7, 24, 48, 100]),
    ) {
        let acc = zoo::meta_proto_like_df();
        let layer = Layer::new("l", op, dims);
        let config = MapperConfig { objective: Objective::Energy, max_orderings: max, ..MapperConfig::default() };
        assert_parity(&acc, &layer, config);
    }
}

/// Parity over every layer of all six zoo workloads (the deterministic tier),
/// under both the exhaustive-width and the sampled mapper configurations.
#[test]
fn zoo_workloads_search_parity() {
    let mut nets: Vec<Network> = models::case_study_workloads();
    nets.push(models::reference_net());
    assert_eq!(nets.len(), 6, "the zoo has six workloads");
    let acc = zoo::meta_proto_like_df();
    for net in &nets {
        for layer in net.layers() {
            assert_parity(&acc, layer, MapperConfig::fast());
        }
    }
    // The exhaustive width is slower, so spot-check it on the smallest net.
    for layer in models::fsrcnn().layers() {
        assert_parity(&acc, layer, MapperConfig::default());
    }
}

/// An accelerator whose per-sharer capacity shares *decrease* outward (the
/// global buffers are smaller than the local ones). The kernel compares each
/// level against the running maximum of the shares below it, so its
/// incremental allocation state is exact here too and transpositions stay on.
fn shrinking_shares() -> Accelerator {
    defines_arch::loader::from_json_str(include_str!("support/shrinking-shares.json"))
        .expect("valid accelerator")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On shrinking shares too, the search returns the exhaustive scan's
    /// cost for every operator and objective, at both mapper widths.
    #[test]
    fn shrinking_shares_search_matches_exhaustive(
        dims in arb_problem_dims(),
        op in arb_op(),
        objective in arb_objective(),
        fast in prop::sample::select(vec![false, true]),
    ) {
        let config = if fast { MapperConfig::fast() } else { MapperConfig::default() };
        let layer = Layer::new("l", op, dims);
        assert_parity(&shrinking_shares(), &layer, config.with_objective(objective));
    }
}

/// On two fixed 6-loop layers over shrinking shares, the exhaustive-width
/// search merges transposed prefixes and still matches the exhaustive scan.
#[test]
fn shrinking_shares_merge_transposed_prefixes() {
    let acc = shrinking_shares();
    for dims in [
        LayerDims::conv(64, 32, 28, 28, 3, 3),
        LayerDims::conv(96, 40, 28, 20, 3, 3).with_stride(2, 2),
    ] {
        let layer = Layer::new("c", OpType::Conv, dims);
        let problem = SingleLayerProblem::new(&acc, &layer);
        let mapper = LomaMapper::default();
        let (cost, stats) = mapper.optimize_with_stats(&problem);
        assert_eq!(stats.orderings_total, 720);
        assert!(stats.pruned_symmetry > 0, "{stats:?}");
        assert_eq!(cost, mapper.optimize_exhaustive(&problem));
    }
}

/// The integer-stride sampler returns exactly `n` distinct orderings for
/// every `n` up to the full factorial — the float-stride sampler it replaced
/// could duplicate or skip entries for some `n`.
#[test]
fn sampler_yields_exactly_n_distinct_orderings_for_every_n() {
    let acc = zoo::meta_proto_like_df();
    // 6 active temporal dimensions -> 720 orderings.
    let layer = Layer::new("c", OpType::Conv, LayerDims::conv(64, 32, 28, 28, 3, 3));
    let problem = SingleLayerProblem::new(&acc, &layer);
    let all = defines_mapping::temporal::candidate_orderings(&problem, 0);
    assert_eq!(all.len(), 720);
    for n in 1..=720usize {
        let sample = defines_mapping::temporal::candidate_orderings(&problem, n);
        assert_eq!(sample.len(), n, "sample size for n = {n}");
        let distinct: std::collections::HashSet<_> = sample.iter().collect();
        assert_eq!(distinct.len(), n, "duplicate orderings for n = {n}");
        // Every sampled ordering is a member of the full enumeration.
        for order in &sample {
            assert!(all.contains(order));
        }
    }
}

/// The search is dramatically cheaper than exhaustive in evaluated orderings,
/// not just wall-clock: over the FSRCNN layers at full width, most orderings
/// are pruned.
#[test]
fn search_prunes_most_orderings_on_fsrcnn() {
    let acc = zoo::meta_proto_like_df();
    let mapper = LomaMapper::default();
    let mut evaluated = 0u64;
    let mut selected = 0u64;
    for layer in models::fsrcnn().layers() {
        let (_, stats) = mapper.optimize_with_stats(&SingleLayerProblem::new(&acc, layer));
        evaluated += stats.evaluated;
        selected += stats.orderings_selected;
    }
    assert!(
        evaluated * 3 < selected * 2,
        "expected >1/3 pruning, evaluated {evaluated} of {selected}"
    );
}

/// Canonical cache-key statistics flow through to the sweep stats: a sweep
/// over a workload with weight-less layers (pooling / add) produces canonical
/// hits, and `SweepStats` carries the cache snapshot.
#[test]
fn sweep_stats_carry_canonical_cache_hits() {
    let acc = zoo::meta_proto_like_df();
    let model = DfCostModel::new(&acc).with_fast_mapper();
    let explorer = Explorer::new(&model).with_threads(1);
    let net = models::resnet18();
    let stats = explorer
        .sweep_streaming(
            &net,
            &[(14, 14), (28, 28)],
            &[OverlapMode::FullyCached],
            OptimizeTarget::Energy,
            |_| {},
        )
        .unwrap();
    let cache = stats.cache.expect("sweep stats carry a cache snapshot");
    assert!(cache.entries > 0);
    assert!(
        cache.canonical_hits > 0,
        "pooling/add tiles with differing weight placements must share \
         canonical cache entries: {cache:?}"
    );
    assert!(cache.hits >= cache.canonical_hits);
}

/// N threads hammering the same canonical problems through one shared
/// [`MappingCache`]: no duplicate entries, every returned cost identical,
/// and the hit/miss/canonical counters account for exactly every lookup.
#[test]
fn mapping_cache_stays_consistent_under_contention() {
    let acc = zoo::meta_proto_like_df();
    // Two canonical problems, each reachable from two raw variants: the
    // padded layers canonicalize onto their pad-free twins (weight-less ops
    // are canonicalized by the cache key, convs by padding removal).
    let variants = [
        Layer::new("a", OpType::Conv, LayerDims::conv(32, 16, 28, 28, 3, 3)),
        Layer::new(
            "a_pad",
            OpType::Conv,
            LayerDims::conv(32, 16, 28, 28, 3, 3).with_padding(1, 1),
        ),
        Layer::new("b", OpType::Pooling, LayerDims::conv(64, 64, 14, 14, 2, 2)),
        Layer::new(
            "b_pad",
            OpType::Pooling,
            LayerDims::conv(64, 64, 14, 14, 2, 2).with_padding(1, 1),
        ),
    ];
    let cache = MappingCache::new();
    let mapper = LomaMapper::new(MapperConfig::fast());

    // The single-threaded reference answers, computed on a private cache.
    let reference: Vec<_> = variants
        .iter()
        .map(|layer| {
            MappingCache::new().optimize_shared(&mapper, &SingleLayerProblem::new(&acc, layer))
        })
        .collect();

    const THREADS: usize = 8;
    const ROUNDS: usize = 16;
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                for _ in 0..ROUNDS {
                    for (layer, expected) in variants.iter().zip(&reference) {
                        let got =
                            cache.optimize_shared(&mapper, &SingleLayerProblem::new(&acc, layer));
                        assert_eq!(&*got, &**expected, "contended lookup diverged");
                    }
                }
            });
        }
    });

    let stats = cache.stats();
    let lookups = (THREADS * ROUNDS * variants.len()) as u64;
    assert_eq!(
        stats.hits + stats.misses,
        lookups,
        "every lookup must count as exactly one hit or one miss"
    );
    // The four raw variants collapse onto two canonical entries; the racy
    // first round may compute a canonical problem more than once, but the
    // first insert wins, so no duplicate entries ever materialize.
    assert_eq!(stats.entries, 2, "duplicate cache entries under contention");
    assert!(
        stats.misses >= 2,
        "each canonical problem misses at least once"
    );
    assert!(
        stats.misses <= (THREADS * variants.len()) as u64,
        "misses are bounded by the racy first round: {stats:?}"
    );
    assert!(
        stats.canonical_hits > 0 && stats.canonical_hits <= stats.hits,
        "padded variants must hit through canonicalization: {stats:?}"
    );

    // The cache holds one strong handle per entry; every reader got its own
    // clone, all of which have been dropped again.
    let arcs: Vec<_> = variants
        .iter()
        .map(|layer| cache.optimize_shared(&mapper, &SingleLayerProblem::new(&acc, layer)))
        .collect();
    assert_eq!(
        std::sync::Arc::strong_count(&arcs[0]),
        3,
        "cache + 2 clones"
    );
    assert!(std::sync::Arc::ptr_eq(&arcs[0], &arcs[1]));
    assert!(std::sync::Arc::ptr_eq(&arcs[2], &arcs[3]));
}

/// What the `sweep` command line does on one engine thread with the default
/// grid and every overlap mode, in process: the per-point sweep (fixed fuse
/// policies only), the schedule search, then the two baselines, all on the
/// model's one mapping cache. Returns that cache's (hits, misses, canonical
/// hits).
fn sweep_cache_counts(net: &Network, policy: &str) -> (u64, u64, u64) {
    let acc = zoo::meta_proto_like_df();
    let model = DfCostModel::new(&acc).with_fast_mapper();
    let policy = defines_core::FusePolicy::from_keyword(policy).unwrap();
    let mut explorer = Explorer::new(&model).with_threads(1);
    if let Some(fuse) = policy.fixed_fuse_depth() {
        explorer = explorer.with_fuse_depth(fuse);
    }
    let grid = Explorer::default_tile_grid(net);
    let target = OptimizeTarget::Energy;
    if policy.fixed_fuse_depth().is_some() {
        explorer
            .sweep_streaming(net, &grid, &OverlapMode::ALL, target, |_| {})
            .unwrap();
    }
    explorer
        .best_schedule(net, &grid, &OverlapMode::ALL, target, &policy)
        .unwrap();
    explorer.baselines(net).unwrap();
    let stats = model.mapping_cache().stats();
    (stats.hits, stats.misses, stats.canonical_hits)
}

/// The mapping-cache counters of three whole `sweep` runs, pinned as
/// literals. A lookup answered without the shared cache (a repeat inside one
/// stack evaluation) still counts as the hit the cache would have given, and
/// as canonical when its key was canonicalized, so none of these may move.
#[test]
fn sweep_cache_counters_are_pinned() {
    assert_eq!(
        sweep_cache_counts(&models::dmcnn_vd(), "auto"),
        (165_109, 7_621, 0)
    );
    assert_eq!(
        sweep_cache_counts(&models::resnet18(), "search"),
        (18_354, 2_015, 5_875)
    );
    assert_eq!(
        sweep_cache_counts(&models::mobilenet_v1(), "search"),
        (97_149, 6_417, 7)
    );
}

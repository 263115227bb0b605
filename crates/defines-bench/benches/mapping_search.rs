//! Criterion bench: the LOMA temporal-mapping search, exhaustive reference
//! versus the symmetry-pruned branch-and-bound search, over a representative
//! set of single-layer (and layer-tile) mapping problems.
//!
//! Besides the criterion samples, the bench writes `BENCH_mapping.json` at
//! the repository root with the aggregate search counters (orderings
//! evaluated / pruned), cold and warm wall-clock numbers, and a parity flag
//! asserting the pruned search returned a bit-identical [`LayerCost`] for
//! every problem. The CI perf-smoke job fails if `results_identical` is ever
//! false or if pruning stops firing.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use defines_bench::{write_json, BenchHeader};
use defines_mapping::{LomaMapper, MapperConfig, MappingCache, SearchStats, SingleLayerProblem};
use defines_workload::{models, Layer, LayerDims, OpType};
use serde::Serialize;
use std::time::Instant;

/// The problem set: every FSRCNN layer at three depth-first tile sizes (the
/// shapes the cold sweep path resolves), plus full-layer problems covering
/// the depthwise / pooling operand paths and a second architecture.
fn problems() -> Vec<(defines_arch::Accelerator, Layer)> {
    let mut set = Vec::new();
    let fsrcnn = models::fsrcnn();
    for layer in fsrcnn.layers() {
        for (tx, ty) in [(60, 72), (16, 18), (960, 540)] {
            let mut dims = layer.dims;
            dims.ox = tx.min(layer.dims.ox);
            dims.oy = ty.min(layer.dims.oy);
            dims.pad_x = 0;
            dims.pad_y = 0;
            let tile = Layer::new(&layer.name, layer.op, dims);
            set.push((defines_arch::zoo::meta_proto_like_df(), tile));
        }
    }
    set.push((
        defines_arch::zoo::edge_tpu_like_df(),
        Layer::new(
            "dw",
            OpType::DepthwiseConv,
            LayerDims::conv(48, 48, 28, 28, 3, 3),
        ),
    ));
    set.push((
        defines_arch::zoo::ascend_like_df(),
        Layer::new(
            "pool",
            OpType::Pooling,
            LayerDims::conv(64, 64, 28, 28, 2, 2).with_stride(2, 2),
        ),
    ));
    set.push((
        defines_arch::zoo::tpu_like(),
        Layer::new("c", OpType::Conv, LayerDims::conv(64, 32, 56, 56, 3, 3)),
    ));
    // A square 1x1 conv: OX/OY are interchangeable, exercising the symmetry
    // half of the pruning (the counters land in BENCH_mapping.json).
    set.push((
        defines_arch::zoo::meta_proto_like_df(),
        Layer::new("sq", OpType::Conv, LayerDims::conv(64, 32, 32, 32, 1, 1)),
    ));
    set
}

fn bench_mapping_search(c: &mut Criterion) {
    let set = problems();
    let full = LomaMapper::default();
    let fast = LomaMapper::new(MapperConfig::fast());

    let mut group = c.benchmark_group("mapping_search");
    group.sample_size(10);
    group.bench_function("exhaustive_720", |b| {
        b.iter(|| {
            for (acc, layer) in &set {
                let p = SingleLayerProblem::new(acc, layer);
                black_box(full.optimize_exhaustive(&p));
            }
        });
    });
    group.bench_function("pruned_720", |b| {
        b.iter(|| {
            for (acc, layer) in &set {
                let p = SingleLayerProblem::new(acc, layer);
                black_box(full.optimize(&p));
            }
        });
    });
    group.bench_function("pruned_48", |b| {
        b.iter(|| {
            for (acc, layer) in &set {
                let p = SingleLayerProblem::new(acc, layer);
                black_box(fast.optimize(&p));
            }
        });
    });
    group.finish();

    write_report(&set);
}

/// One-shot wall-clock comparison and counter dump written to
/// `BENCH_mapping.json`.
#[derive(Serialize)]
struct MappingBenchReport {
    header: BenchHeader,
    problems: usize,
    max_orderings: usize,
    orderings_total: u64,
    orderings_selected: u64,
    orderings_evaluated: u64,
    orderings_pruned: u64,
    pruned_bound: u64,
    pruned_symmetry: u64,
    exhaustive_cold_ms: f64,
    search_cold_ms: f64,
    search_warm_ms: f64,
    speedup_vs_exhaustive: f64,
    results_identical: bool,
}

fn write_report(set: &[(defines_arch::Accelerator, Layer)]) {
    let mapper = LomaMapper::default();

    let start = Instant::now();
    let reference: Vec<_> = set
        .iter()
        .map(|(acc, layer)| mapper.optimize_exhaustive(&SingleLayerProblem::new(acc, layer)))
        .collect();
    let exhaustive_cold = start.elapsed();

    let mut stats = SearchStats::default();
    let start = Instant::now();
    let pruned: Vec<_> = set
        .iter()
        .map(|(acc, layer)| {
            let (cost, s) = mapper.optimize_with_stats(&SingleLayerProblem::new(acc, layer));
            stats.accumulate(&s);
            cost
        })
        .collect();
    let search_cold = start.elapsed();

    // Warm path: the mapping cache answers repeated problems outright.
    let cache = MappingCache::new();
    for (acc, layer) in set {
        let _ = cache.optimize_shared(&mapper, &SingleLayerProblem::new(acc, layer));
    }
    let start = Instant::now();
    for (acc, layer) in set {
        black_box(cache.optimize_shared(&mapper, &SingleLayerProblem::new(acc, layer)));
    }
    let search_warm = start.elapsed();

    let results_identical = reference == pruned;
    let report = MappingBenchReport {
        // The problem set mixes FSRCNN layer tiles with micro-problems across
        // four zoo architectures; the search itself is single-threaded.
        header: BenchHeader::new(
            "mapping_search",
            "fsrcnn-tiles+micro",
            "zoo (meta-proto, edge-tpu, ascend, tpu)",
            1,
        ),
        problems: set.len(),
        max_orderings: mapper.config().max_orderings,
        orderings_total: stats.orderings_total,
        orderings_selected: stats.orderings_selected,
        orderings_evaluated: stats.evaluated,
        orderings_pruned: stats.pruned(),
        pruned_bound: stats.pruned_bound,
        pruned_symmetry: stats.pruned_symmetry,
        exhaustive_cold_ms: exhaustive_cold.as_secs_f64() * 1e3,
        search_cold_ms: search_cold.as_secs_f64() * 1e3,
        search_warm_ms: search_warm.as_secs_f64() * 1e3,
        speedup_vs_exhaustive: exhaustive_cold.as_secs_f64() / search_cold.as_secs_f64(),
        results_identical,
    };
    assert!(
        report.results_identical,
        "pruned search diverged from the exhaustive reference"
    );
    assert!(
        report.orderings_pruned > 0,
        "pruning never fired over the benchmark problem set"
    );

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_mapping.json");
    write_json(path, &report).expect("write BENCH_mapping.json");
    eprintln!(
        "  BENCH_mapping.json: exhaustive {:.1} ms | pruned {:.1} ms ({:.2}x) | warm {:.3} ms | \
         {} evaluated / {} pruned of {} orderings",
        report.exhaustive_cold_ms,
        report.search_cold_ms,
        report.speedup_vs_exhaustive,
        report.search_warm_ms,
        report.orderings_evaluated,
        report.orderings_pruned,
        report.orderings_selected,
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_mapping_search
}
criterion_main!(benches);

//! A mapping store keeps the answer, not its cost: a format 2 line holds a
//! cache entry's winning loops and degraded flag, and the first lookup that
//! hits the loaded entry prices those loops on the problem it looked up.
//! These tests check that the price is the cost the search returned, bit for
//! bit, for every entry a sweep leaves in the cache — on every zoo
//! accelerator, with the fast mapper, the full mapper and a budget that
//! degrades — and for lookups whose key was canonicalized.

use defines_arch::{zoo, Accelerator, Operand};
use defines_core::{DfCostModel, Explorer, OptimizeTarget, OverlapMode};
use defines_mapping::{
    Budget, CacheStore, LomaMapper, MapperConfig, MappingCache, OperandTopLevels,
    SingleLayerProblem,
};
use defines_workload::{models, Layer, LayerDims, Network, OpType};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn fresh_path() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("defines-stored-answers-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("store-{n}.jsonl"))
}

/// A fresh cache holding every entry of `cache` as a store file reloads
/// it: stored, not priced.
fn reloaded(cache: &MappingCache) -> MappingCache {
    let path = fresh_path();
    let staging = MappingCache::new();
    let mut store = CacheStore::open(&path, staging.clone(), 0).expect("open");
    for (key, cost) in cache.entries() {
        staging.preload(key.clone(), cost);
        staging.set_usage(key, staging.current_epoch());
    }
    store.sync().expect("sync");
    drop(store);
    let loaded = MappingCache::new();
    let store = CacheStore::open(&path, loaded.clone(), 0).expect("reopen");
    assert_eq!(store.stats().loaded as usize, cache.entries().len());
    assert!(loaded.entries().is_empty(), "a format 2 line loads stored");
    let _ = std::fs::remove_file(&path);
    loaded
}

/// Every priced entry, rendered: JSON floats round-trip, so equal text is
/// equal bits.
fn priced(cache: &MappingCache) -> Vec<String> {
    cache
        .entries()
        .iter()
        .map(|(key, cost)| format!("{key:?} {}", serde::to_json(cost.as_ref())))
        .collect()
}

/// A one-thread, unpruned sweep of `net` into `cache`: every record.
fn sweep(
    acc: &Accelerator,
    net: &Network,
    config: MapperConfig,
    cache: &MappingCache,
) -> Vec<String> {
    let model = DfCostModel::new(acc)
        .with_mapper(config)
        .with_shared_cache(cache.clone());
    let tiles = [(
        net.layers()[0].dims.ox.min(30),
        net.layers()[0].dims.oy.min(24),
    )];
    let mut records = Vec::new();
    Explorer::new(&model)
        .with_threads(1)
        .with_pruning(false)
        .sweep_streaming(
            net,
            &tiles,
            &OverlapMode::ALL,
            OptimizeTarget::Energy,
            |record| records.push(format!("{record:?}")),
        )
        .expect("sweep");
    records
}

#[test]
fn stored_answers_price_to_the_cost_the_search_returned() {
    let nets = [models::fsrcnn(), models::resnet18()];
    let configs = [
        ("fast", MapperConfig::fast()),
        ("full", MapperConfig::default()),
        (
            "budget",
            MapperConfig::default().with_budget(Budget::orderings(5)),
        ),
    ];
    let mut degraded = 0;
    for name in zoo::names() {
        let acc = zoo::by_name(name).expect("zoo accelerator");
        for (label, config) in configs {
            for net in &nets {
                let computed = MappingCache::new();
                let records = sweep(&acc, net, config, &computed);
                let loaded = reloaded(&computed);
                let again = sweep(&acc, net, config, &loaded);
                let case = format!("{name} {label} {}", net.name());
                assert_eq!(loaded.stats().misses, 0, "{case}: a stored answer missed");
                assert_eq!(
                    loaded.stats().hits,
                    computed.stats().hits + computed.stats().misses
                );
                assert_eq!(priced(&loaded), priced(&computed), "{case}");
                assert_eq!(again, records, "{case}");
                degraded += computed
                    .entries()
                    .iter()
                    .filter(|(_, c)| c.degraded)
                    .count();
            }
        }
    }
    assert!(degraded > 0, "the budget must degrade some searches");
}

/// The first hit may come from a problem other than the one whose search
/// filled the entry: one whose key was canonicalized onto it.
#[test]
fn stored_answers_price_equally_for_canonicalized_lookups() {
    let conv = LayerDims::conv(16, 8, 28, 28, 3, 3);
    let pool = LayerDims::conv(64, 64, 28, 28, 2, 2).with_stride(2, 2);
    let mut canonical = 0;
    for name in zoo::names() {
        let acc = zoo::by_name(name).expect("zoo accelerator");
        let mapper = LomaMapper::new(MapperConfig::fast());
        let plain = Layer::new("c", OpType::Conv, conv);
        let padded = Layer::new("c", OpType::Conv, conv.with_padding(1, 1));
        let pooling = Layer::new("p", OpType::Pooling, pool);
        let pool_base = SingleLayerProblem::new(&acc, &pooling);
        let weight_level = acc
            .hierarchy()
            .levels()
            .iter()
            .position(|level| level.serves(Operand::Weight))
            .expect("a level holds weights");
        let pool_moved = pool_base.clone().with_top_levels(
            OperandTopLevels::dram(&acc)
                .with_level(Operand::Weight, defines_arch::MemoryLevelId(weight_level)),
        );
        let pairs = [
            (
                SingleLayerProblem::new(&acc, &plain),
                SingleLayerProblem::new(&acc, &padded),
            ),
            (pool_base, pool_moved),
        ];
        for (first, variant) in &pairs {
            let computed = MappingCache::new();
            let searched = computed.optimize_shared(&mapper, first);
            let loaded = reloaded(&computed);
            let priced = loaded.optimize_shared(&mapper, variant);
            let stats = loaded.stats();
            assert_eq!((stats.hits, stats.misses), (1, 0), "{name}");
            canonical += stats.canonical_hits;
            assert_eq!(
                serde::to_json(priced.as_ref()),
                serde::to_json(searched.as_ref()),
                "{name}: {variant:?}"
            );
        }
    }
    assert_eq!(
        canonical,
        2 * zoo::names().len() as u64,
        "every variant hits canonically"
    );
}

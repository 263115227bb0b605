//! Property tests for the persistent mapping-cache store: an arbitrary
//! sequence of store/touch/evict batches, persisted and reloaded into a
//! fresh cache, must reproduce the surviving entries, their LRU epochs, and
//! — after re-compaction — the exact file bytes. The compacted file is a
//! pure function of the logical request history.
//!
//! A store line keeps a cost's mapping and degraded flag, from which a hit
//! re-prices the rest; the synthetic costs here price nothing, so a
//! reloaded entry is compared by what its line kept
//! (`MappingCache::mappings`).

use defines_arch::MemoryLevelId;
use defines_mapping::{
    temporal::{TemporalLoop, TemporalMapping},
    Access, AccessBreakdown, CacheStore, LayerCost, LomaMapper, MapperConfig, MappingCache,
    ProblemKey, SingleLayerProblem,
};
use defines_workload::{Dim, Layer, LayerDims, OpType};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A fresh store path per invocation (cases run sequentially per test, but
/// tests run in parallel).
fn fresh_path(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("defines-persist-prop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{tag}-{n}.jsonl"))
}

/// Deterministic splitmix-style stream for deriving entry contents from a
/// proptest-drawn seed.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A synthetic but structurally honest key: every field the fingerprint and
/// the serializer cover varies with `i`.
fn key(i: u64, accelerator: u64) -> ProblemKey {
    let ops = [
        OpType::Conv,
        OpType::DepthwiseConv,
        OpType::Pooling,
        OpType::Add,
    ];
    ProblemKey {
        accelerator,
        op: ops[(i % 4) as usize],
        dims: LayerDims {
            b: 1 + i % 2,
            k: 8 + i,
            c: 3 + i % 5,
            ox: 16 + i % 7,
            oy: 16 + (i / 2) % 7,
            fx: 1 + i % 3,
            fy: 1 + (i / 3) % 3,
            stride_x: 1 + i % 2,
            stride_y: 1,
            pad_x: i % 2,
            pad_y: (i / 2) % 2,
        },
        act_bits: if i.is_multiple_of(2) { 8 } else { 16 },
        weight_bits: 8,
        top_levels: defines_mapping::OperandTopLevels {
            weight: MemoryLevelId((i % 3) as usize),
            input: MemoryLevelId(2),
            output: MemoryLevelId(((i / 3) % 3) as usize),
        },
        mapper: i.wrapping_mul(0x1234_5678_9abc_def1),
    }
}

/// A synthetic cost exercising every serialized field, including the access
/// breakdown map and the temporal mapping loops.
fn cost(i: u64) -> LayerCost {
    let f = |n: u64| (n % 100_000) as f64 * 0.25 + 1.0;
    LayerCost {
        energy_pj: f(i.wrapping_mul(3)),
        mac_energy_pj: f(i.wrapping_mul(5)),
        memory_energy_pj: f(i.wrapping_mul(7)),
        latency_cycles: f(i.wrapping_mul(11)),
        compute_cycles: f(i.wrapping_mul(13)),
        macs: i * 1000 + 1,
        accesses: AccessBreakdown::from_entries(vec![
            (
                (MemoryLevelId(0), defines_arch::Operand::Input),
                Access {
                    reads_bytes: f(i),
                    writes_bytes: f(i + 1),
                },
            ),
            (
                (
                    MemoryLevelId((i % 3) as usize),
                    defines_arch::Operand::Output,
                ),
                Access {
                    reads_bytes: f(i + 2),
                    writes_bytes: f(i + 3),
                },
            ),
        ]),
        mapping: TemporalMapping::from_loops(vec![
            TemporalLoop {
                dim: Dim::OX,
                size: 2 + i % 6,
            },
            TemporalLoop {
                dim: Dim::K,
                size: 2 + i % 4,
            },
        ]),
        degraded: i.is_multiple_of(5),
    }
}

/// Replays a batched usage history into a store: each batch preloads /
/// touches its keys at the current epoch, then syncs (which advances the
/// epoch — the batch boundary).
fn replay(store: &mut CacheStore, cache: &MappingCache, batches: &[Vec<u64>], accelerator: u64) {
    for batch in batches {
        for &i in batch {
            let k = key(i, accelerator);
            cache.preload(k.clone(), Arc::new(cost(i)));
            cache.set_usage(k, cache.current_epoch());
        }
        store.sync().expect("sync");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn store_evict_persist_reload_reproduces_entries_and_bytes(
        seed in 0u64..u64::MAX,
        n_batches in 1usize..5,
        batch_size in 1usize..8,
        bound in 0usize..10,
        accelerator in 1u64..u64::MAX,
    ) {
        // Derive the usage history: batches of key indices with deliberate
        // overlap so later batches re-touch earlier entries.
        let mut state = seed;
        let universe = 2 + (mix(&mut state) % 12);
        let batches: Vec<Vec<u64>> = (0..n_batches)
            .map(|_| (0..batch_size).map(|_| mix(&mut state) % universe).collect())
            .collect();

        // First life: populate, sync per batch, evict at the bound.
        let path = fresh_path("roundtrip");
        let cache_a = MappingCache::new();
        let mut store_a = CacheStore::open(&path, cache_a.clone(), bound).expect("open");
        replay(&mut store_a, &cache_a, &batches, accelerator);
        store_a.compact_now().expect("compact");
        let stats_a = store_a.stats();
        let entries_a = cache_a.entries();
        let bytes_a = std::fs::read(&path).expect("read store file");
        drop(store_a);

        if bound > 0 {
            prop_assert!(entries_a.len() <= bound,
                "bound {bound} violated: {} entries", entries_a.len());
        }
        prop_assert_eq!(stats_a.entries, entries_a.len());

        // Second life: a fresh cache reloaded from the file must hold the
        // same entries with the same answers...
        let cache_b = MappingCache::new();
        let mut store_b = CacheStore::open(&path, cache_b.clone(), bound).expect("reopen");
        prop_assert_eq!(store_b.stats().loaded as usize, entries_a.len());
        let entries_b = cache_b.mappings();
        prop_assert_eq!(entries_a.len(), entries_b.len());
        for ((ka, ca), (kb, mapping, degraded)) in entries_a.iter().zip(&entries_b) {
            prop_assert_eq!(ka, kb, "reloaded key order diverged");
            prop_assert_eq!(&ca.mapping, mapping, "reloaded mapping diverged for {:?}", ka);
            prop_assert_eq!(ca.degraded, *degraded, "reloaded flag diverged for {:?}", ka);
        }
        // ...and re-compacting must byte-reproduce the file: the epochs (LRU
        // order) survived the round-trip exactly.
        store_b.compact_now().expect("recompact");
        let bytes_b = std::fs::read(&path).expect("read recompacted file");
        prop_assert_eq!(&bytes_a, &bytes_b, "compacted file is not a pure function of state");

        // Third life, asymmetric sync schedule: replaying the same history
        // in one store with per-batch syncs (above) and in another with the
        // same batches against a *fresh* file must converge to the same
        // compacted bytes — persistence timing is not observable.
        let path_c = fresh_path("replay");
        let cache_c = MappingCache::new();
        let mut store_c = CacheStore::open(&path_c, cache_c.clone(), bound).expect("open c");
        replay(&mut store_c, &cache_c, &batches, accelerator);
        store_c.compact_now().expect("compact c");
        let bytes_c = std::fs::read(&path_c).expect("read replayed file");
        prop_assert_eq!(&bytes_a, &bytes_c, "replayed history produced different bytes");

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&path_c);
    }
}

/// A sync writes only what was used since the last one: after no lookup it
/// leaves the file byte-equal, and a listed entry re-used in a new epoch
/// costs one `touch` line, not its entry line again.
#[test]
fn a_sync_writes_only_what_was_used() {
    let path = fresh_path("only-used");
    let cache = MappingCache::new();
    let mut store = CacheStore::open(&path, cache.clone(), 0).expect("open");
    replay(&mut store, &cache, &[vec![0, 1, 2]], 5);
    let listed = std::fs::read_to_string(&path).unwrap();
    store.sync().expect("sync");
    store.sync().expect("sync");
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        listed,
        "nothing was used"
    );

    cache.set_usage(key(1, 5), cache.current_epoch());
    store.sync().expect("sync");
    let text = std::fs::read_to_string(&path).unwrap();
    let appended = text.strip_prefix(listed.as_str()).expect("appended only");
    assert_eq!(appended.lines().count(), 1, "{appended}");
    assert!(appended.starts_with("{\"touch\":["), "{appended}");
    assert_eq!(store.stats().stored, 3);
    let _ = std::fs::remove_file(&path);
}

/// Deterministic LRU pin-down: with a bound of 2, the entry whose last use
/// is oldest goes first, and ties on the epoch break by key order.
#[test]
fn eviction_is_least_recently_used_with_key_tiebreak() {
    let path = fresh_path("lru");
    let cache = MappingCache::new();
    let mut store = CacheStore::open(&path, cache.clone(), 2).expect("open");
    let acc = 42u64;

    // Batch 0: keys 0 and 1. Batch 1: re-touch 0, add 2 → bound exceeded.
    replay(&mut store, &cache, &[vec![0, 1], vec![0, 2]], acc);
    let entries: Vec<ProblemKey> = cache.entries().into_iter().map(|(k, _)| k).collect();
    assert_eq!(entries.len(), 2);
    assert!(
        !entries.contains(&key(1, acc)),
        "key 1 (least recently used) should have been evicted"
    );
    assert!(
        entries.contains(&key(0, acc)),
        "re-touched key 0 must survive"
    );
    assert!(entries.contains(&key(2, acc)), "fresh key 2 must survive");
    assert_eq!(store.stats().evicted, 1);

    let _ = std::fs::remove_file(&path);

    // Same-epoch tie: three keys arrive in one batch against a bound of 2;
    // the smallest key is the deterministic victim.
    let path = fresh_path("lru-tie");
    let cache = MappingCache::new();
    let mut store = CacheStore::open(&path, cache.clone(), 2).expect("open");
    replay(&mut store, &cache, &[vec![3, 4, 5]], acc);
    let entries: Vec<ProblemKey> = cache.entries().into_iter().map(|(k, _)| k).collect();
    assert_eq!(entries.len(), 2);
    let mut tied = [key(3, acc), key(4, acc), key(5, acc)];
    tied.sort();
    assert!(
        !entries.contains(&tied[0]),
        "the smallest same-epoch key is the deterministic victim"
    );
    assert!(entries.contains(&tied[1]));
    assert!(entries.contains(&tied[2]));
    assert_eq!(store.stats().evicted, 1);
    let _ = std::fs::remove_file(&path);
}

/// A store file of three entries (lines 2–4 after the header) in which entry
/// line `line` carries `"epoch":"x"`.
fn store_with_broken_epoch(tag: &str, line: usize) -> PathBuf {
    let path = fresh_path(tag);
    let cache = MappingCache::new();
    let mut store = CacheStore::open(&path, cache.clone(), 0).expect("open");
    replay(&mut store, &cache, &[vec![0, 1, 2]], 7);
    drop(store);
    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    assert_eq!(lines.len(), 4, "header + one line per entry");
    let broken = &mut lines[line - 1];
    let at = broken.find("\"epoch\":").unwrap() + "\"epoch\":".len();
    let digits = broken[at..].find(|c: char| !c.is_ascii_digit()).unwrap();
    broken.replace_range(at..at + digits, "\"x\"");
    std::fs::write(&path, lines.join("\n") + "\n").unwrap();
    path
}

#[test]
fn broken_interior_entry_fails_the_open_naming_file_and_line() {
    let path = store_with_broken_epoch("broken-interior", 3);
    let err = CacheStore::open(&path, MappingCache::new(), 0)
        .unwrap_err()
        .to_string();
    assert!(err.contains(&path.display().to_string()), "{err}");
    assert!(err.contains("line 3"), "{err}");
    assert!(err.contains("'epoch'"), "{err}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn broken_last_entry_is_dropped_as_a_torn_tail() {
    let path = store_with_broken_epoch("broken-tail", 4);
    let cache = MappingCache::new();
    let store = CacheStore::open(&path, cache.clone(), 0).expect("a torn tail is tolerated");
    let stats = store.stats();
    assert_eq!((stats.loaded, stats.entries), (2, 2));
    assert_eq!(
        stats.compactions, 1,
        "the torn tail is healed by a compaction"
    );
    assert_eq!(cache.mappings().len(), 2);
    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(text.lines().count(), 3, "header + the two valid entries");
    let _ = std::fs::remove_file(&path);
}

/// A format 2 line's loops must be ones a search of its key can return:
/// otherwise a hit would price a mapping of some other problem.
#[test]
fn loops_that_do_not_fit_their_key_fail_the_open() {
    for (tag, loops) in [
        ("batch", r#"[["B",2]]"#),
        ("repeated", r#"[["OX",2],["OX",2]]"#),
        ("trivial", r#"[["OX",1]]"#),
        ("oversized", r#"[["OX",1000]]"#),
    ] {
        let path = fresh_path(tag);
        let cache = MappingCache::new();
        let mut store = CacheStore::open(&path, cache.clone(), 0).expect("open");
        replay(&mut store, &cache, &[vec![0, 1, 2]], 7);
        drop(store);
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        let line = &mut lines[2];
        let at = line.find("\"loops\":").unwrap() + "\"loops\":".len();
        let end = at + line[at..].find("]]").unwrap() + 2;
        line.replace_range(at..end, loops);
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        let err = CacheStore::open(&path, MappingCache::new(), 0)
            .unwrap_err()
            .to_string();
        assert!(err.contains("line 3"), "{tag}: {err}");
        assert!(err.contains("does not fit its key"), "{tag}: {err}");
        let _ = std::fs::remove_file(&path);
    }
}

/// The doubling rule bounds the file across restarts, not just within one
/// process: every life that re-touches the entries appends a `touch` line,
/// and the lines an earlier life left behind count toward the next
/// compaction.
#[test]
fn restarts_that_only_touch_keep_the_file_bounded() {
    let path = fresh_path("lives");
    let keys = [0, 1, 2, 3];
    for _ in 0..40 {
        let cache = MappingCache::new();
        let mut store = CacheStore::open(&path, cache.clone(), 0).expect("open");
        replay(&mut store, &cache, &[keys.to_vec()], 9);
        drop(store);
    }
    let lines = std::fs::read_to_string(&path).unwrap().lines().count();
    let bound = 2 * keys.len().max(16) + 2;
    assert!(
        lines <= bound,
        "{lines} lines after 40 lives (bound {bound})"
    );
    let _ = std::fs::remove_file(&path);
}

/// A store attached to a cache that already holds entries lists none of
/// them: an entry computed before `CacheStore::open` is persisted, and
/// counts toward the bound, only once a lookup touches it again.
#[test]
fn entries_computed_before_open_are_persisted_once_touched() {
    let acc = defines_arch::zoo::meta_proto_like_df();
    let mapper = LomaMapper::new(MapperConfig::fast());
    let layers =
        [8, 16].map(|k| Layer::new("c", OpType::Conv, LayerDims::conv(k, 8, 14, 14, 3, 3)));
    let problems: Vec<_> = layers
        .iter()
        .map(|layer| SingleLayerProblem::new(&acc, layer))
        .collect();
    let cache = MappingCache::new();
    for problem in &problems {
        cache.optimize_shared(&mapper, problem);
    }

    let path = fresh_path("before-open");
    let lines = || std::fs::read_to_string(&path).unwrap().lines().count();
    let mut store = CacheStore::open(&path, cache.clone(), 1).expect("open");
    store.sync().expect("sync");
    assert_eq!(lines(), 1, "only the header: nothing was touched");
    assert_eq!((store.stats().stored, store.stats().entries), (0, 0));

    // A hit lists its entry; the untouched one is outside the bound.
    cache.optimize_shared(&mapper, &problems[0]);
    store.sync().expect("sync");
    assert_eq!(lines(), 2);
    assert_eq!((store.stats().stored, store.stats().entries), (1, 1));
    assert_eq!(store.stats().evicted, 0);
    assert_eq!(cache.entries().len(), 2);

    // Listing the second goes over the bound: the older listed entry goes.
    cache.optimize_shared(&mapper, &problems[1]);
    store.sync().expect("sync");
    assert_eq!(store.stats().evicted, 1);
    let keys: Vec<ProblemKey> = cache.entries().into_iter().map(|(k, _)| k).collect();
    assert_eq!(keys, vec![ProblemKey::canonical(&problems[1], &mapper).0]);
    assert_eq!(cache.stats().misses, 2, "both lookups after open were hits");
    drop(store);

    let reloaded = CacheStore::open(&path, MappingCache::new(), 1).expect("reopen");
    assert_eq!((reloaded.stats().loaded, reloaded.stats().entries), (1, 1));

    // What an earlier store listed is held, not listed, by the next one.
    let other = fresh_path("before-open-other");
    let mut store = CacheStore::open(&other, cache.clone(), 1).expect("open other");
    store.compact_now().expect("compact");
    assert_eq!(store.stats().entries, 0);
    assert_eq!(std::fs::read_to_string(&other).unwrap().lines().count(), 1);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&other);
}

//! Fault-injection campaign against the persistent mapping-cache store:
//! deterministic kills injected into every persistence site — mid-append,
//! at compaction start, between compacted entries, and just before the
//! atomic rename — must never corrupt the file. Reopening after each kill
//! must succeed (healing the torn tail / stale `.tmp`), and re-replaying
//! the same usage history must converge to byte-identical file content.
#![cfg(feature = "failpoints")]

use defines_arch::MemoryLevelId;
use defines_mapping::{
    temporal::{TemporalLoop, TemporalMapping},
    Access, AccessBreakdown, CacheStore, LayerCost, MappingCache, OperandTopLevels, ProblemKey,
};
use defines_telemetry::fault;
use defines_workload::{Dim, LayerDims, OpType};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;

fn fresh_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("defines-persist-fault-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{tag}.jsonl"))
}

fn key(i: u64) -> ProblemKey {
    ProblemKey {
        accelerator: 0xdead_beef,
        op: OpType::Conv,
        dims: LayerDims {
            b: 1,
            k: 8 + i,
            c: 3,
            ox: 16,
            oy: 16,
            fx: 3,
            fy: 3,
            stride_x: 1,
            stride_y: 1,
            pad_x: 1,
            pad_y: 1,
        },
        act_bits: 8,
        weight_bits: 8,
        top_levels: OperandTopLevels {
            weight: MemoryLevelId(2),
            input: MemoryLevelId(2),
            output: MemoryLevelId(2),
        },
        mapper: 7,
    }
}

fn cost(i: u64) -> LayerCost {
    LayerCost {
        energy_pj: 100.0 + i as f64,
        mac_energy_pj: 40.0,
        memory_energy_pj: 60.0 + i as f64,
        latency_cycles: 1000.0 * (i + 1) as f64,
        compute_cycles: 900.0,
        macs: 4096 + i,
        accesses: AccessBreakdown::from_entries(vec![(
            (MemoryLevelId(0), defines_arch::Operand::Input),
            Access {
                reads_bytes: 64.0 + i as f64,
                writes_bytes: 32.0,
            },
        )]),
        mapping: TemporalMapping::from_loops(vec![TemporalLoop {
            dim: Dim::OX,
            size: 4,
        }]),
        degraded: false,
    }
}

/// The fixed usage history every campaign replays: three batches with
/// re-touches, enough entries that mid-compaction kills land between lines.
const BATCHES: [&[u64]; 3] = [&[0, 1, 2, 3], &[1, 4, 5], &[0, 5, 6, 7]];

/// Replays the history from epoch 1 (matching a fresh store), so a healed
/// store converges to the exact reference epochs.
fn replay(store: &mut CacheStore, cache: &MappingCache) -> Result<(), String> {
    cache.set_epoch(1);
    for batch in BATCHES {
        for &i in batch {
            cache.preload(key(i), Arc::new(cost(i)));
            cache.set_usage(key(i), cache.current_epoch());
        }
        store.sync().map_err(|e| e.to_string())?;
    }
    store.compact_now().map_err(|e| e.to_string())
}

/// One sequential campaign (the fault registry is process-global).
#[test]
fn kills_during_persistence_never_corrupt_the_store() {
    const BOUND: usize = 6;

    // Fault-free reference bytes for the full history at the same bound.
    let reference = {
        let path = fresh_path("reference");
        let _ = std::fs::remove_file(&path);
        let cache = MappingCache::new();
        let mut store = CacheStore::open(&path, cache.clone(), BOUND).expect("open reference");
        replay(&mut store, &cache).expect("reference replay");
        let bytes = std::fs::read(&path).expect("read reference");
        let _ = std::fs::remove_file(&path);
        bytes
    };
    assert!(!reference.is_empty());

    let mut injections = 0u64;
    for site in [
        "journal.append",
        "journal.rewrite.begin",
        "journal.rewrite.mid",
        "journal.rewrite.rename",
    ] {
        for fire_at in [1u64, 2, 3] {
            let tag = format!("{}-{fire_at}", site.replace('.', "-"));
            let path = fresh_path(&tag);
            let _ = std::fs::remove_file(&path);

            // First life: the injected kill lands somewhere inside the
            // replay (or never fires, when fire_at exceeds the site's hit
            // count — that case degenerates to the fault-free path).
            let cache = MappingCache::new();
            let mut store = CacheStore::open(&path, cache.clone(), BOUND).expect("open");
            let fired = {
                let guard = fault::arm(site, fire_at);
                let outcome = catch_unwind(AssertUnwindSafe(|| replay(&mut store, &cache)));
                let fired = fault::hits(site) >= fire_at;
                drop(guard);
                match outcome {
                    Ok(Ok(())) => assert!(!fired, "{site}@{fire_at}: fired but no panic"),
                    Ok(Err(e)) => panic!("{site}@{fire_at}: IO error instead of panic: {e}"),
                    Err(_) => assert!(fired, "{site}@{fire_at}: panic without firing"),
                }
                fired
            };
            injections += u64::from(fired);
            drop(store);

            // Second life: reopening heals whatever the kill left behind
            // (torn tail, stale .tmp) — never an error, never a corrupt
            // entry (fingerprints are verified line by line).
            let cache = MappingCache::new();
            let mut store = CacheStore::open(&path, cache.clone(), BOUND)
                .unwrap_or_else(|e| panic!("{site}@{fire_at}: reopen failed: {e}"));
            // A line keeps the cost's mapping and degraded flag (a hit
            // re-prices the rest; these synthetic costs price nothing).
            for (k, mapping, degraded) in cache.mappings() {
                let i = k.dims.k - 8;
                assert_eq!(key(i), k, "{site}@{fire_at}: reloaded a corrupt key");
                assert_eq!(
                    (cost(i).mapping, cost(i).degraded),
                    (mapping, degraded),
                    "{site}@{fire_at}: reloaded a corrupt cost for key {i}"
                );
            }

            // Healing: re-replaying the same history converges to the
            // byte-exact reference file, whatever was lost.
            replay(&mut store, &cache)
                .unwrap_or_else(|e| panic!("{site}@{fire_at}: healing replay failed: {e}"));
            let healed = std::fs::read(&path).expect("read healed file");
            assert_eq!(
                healed, reference,
                "{site}@{fire_at}: healed store diverged from the reference bytes"
            );
            let _ = std::fs::remove_file(&path);
        }
    }
    assert!(
        injections >= 8,
        "campaign only injected {injections} kills — sites are not being exercised"
    );
}

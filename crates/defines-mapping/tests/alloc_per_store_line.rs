//! Pins what the mapping-cache store allocates per entry line: writing a
//! line renders into the journal's reused buffer and allocates nothing, and
//! loading an entry allocates only what the entry keeps — a format 2 line
//! loads as a stored answer, one `Arc` of its loops — plus the amortized
//! growth of the maps that index it.
//!
//! Lives in its own integration-test binary because it installs a counting
//! `#[global_allocator]`; keeping it isolated means the counter only sees
//! this file's allocations.
#![expect(
    unsafe_code,
    reason = "a counting #[global_allocator] is an unsafe impl of GlobalAlloc"
)]

use defines_arch::{MemoryLevelId, Operand};
use defines_mapping::temporal::{TemporalLoop, TemporalMapping};
use defines_mapping::{
    Access, AccessBreakdown, CacheStore, LayerCost, MappingCache, OperandTopLevels, ProblemKey,
};
use defines_workload::{Dim, LayerDims, OpType};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Held by each test while it counts: the counter is process-global, and
/// the tests would otherwise count each other's allocations.
static COUNTING: Mutex<()> = Mutex::new(());

// SAFETY: pure pass-through to `System`; the only extra work is a relaxed
// atomic increment, which cannot allocate or violate the GlobalAlloc contract.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: forwards the caller's layout to `System.alloc` unchanged, so the
    // caller's obligations (non-zero size) transfer directly.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: forwards ptr/layout to `System.dealloc` unchanged; the caller
    // guarantees they match a prior `alloc` from this allocator.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` are the caller's, passed on unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// The fewest allocations `f` makes over a few calls: the counter is
/// process-global, so runtime machinery occasionally adds a stray
/// allocation mid-window.
fn fewest_allocations<T>(mut f: impl FnMut() -> T) -> u64 {
    let mut fewest = u64::MAX;
    for _attempt in 0..5 {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let out = f();
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        drop(out);
        fewest = fewest.min(after - before);
    }
    fewest
}

/// An entry shaped like a real one: eight access slots, four loops.
fn entry(i: u64) -> (ProblemKey, LayerCost) {
    let key = ProblemKey {
        accelerator: 7,
        op: OpType::Conv,
        dims: LayerDims {
            b: 1,
            k: 8 + i,
            c: 16,
            ox: 60,
            oy: 72,
            fx: 3,
            fy: 3,
            stride_x: 1,
            stride_y: 1,
            pad_x: 0,
            pad_y: 0,
        },
        act_bits: 8,
        weight_bits: 8,
        top_levels: OperandTopLevels {
            weight: MemoryLevelId(2),
            input: MemoryLevelId(3),
            output: MemoryLevelId(3),
        },
        mapper: 11,
    };
    let f = |n: u64| ((i * 7919 + n) % 100_000) as f64 * 0.37;
    let accesses = (0..8).map(|n| {
        let operand = [Operand::Weight, Operand::Input, Operand::Output][n as usize % 3];
        let access = Access {
            reads_bytes: f(n),
            writes_bytes: f(n + 8).round(),
        };
        ((MemoryLevelId(n as usize / 3), operand), access)
    });
    let loops = [Dim::C, Dim::OX, Dim::OY, Dim::K].map(|dim| TemporalLoop {
        dim,
        size: 2 + i % 5,
    });
    let cost = LayerCost {
        energy_pj: f(1),
        mac_energy_pj: f(2),
        memory_energy_pj: f(3),
        latency_cycles: f(4).round(),
        compute_cycles: f(5),
        macs: 1000 + i,
        accesses: AccessBreakdown::from_entries(accesses.collect()),
        mapping: TemporalMapping::from_loops(loops.to_vec()),
        degraded: false,
    };
    (key, cost)
}

/// A store file holding `n` entries (named after `test`, which runs in
/// parallel with the others), and the open store.
fn store(test: &str, n: u64) -> (PathBuf, CacheStore) {
    let dir = std::env::temp_dir().join(format!("defines-alloc-store-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("{test}-{n}.jsonl"));
    let _ = std::fs::remove_file(&path);
    let cache = MappingCache::new();
    let mut store = CacheStore::open(&path, cache.clone(), 0).expect("open");
    for i in 0..n {
        let (key, cost) = entry(i);
        cache.preload(key.clone(), Arc::new(cost));
        cache.set_usage(key, cache.current_epoch());
    }
    store.sync().expect("sync");
    (path, store)
}

fn open(path: &Path) -> CacheStore {
    CacheStore::open(path, MappingCache::new(), 0).expect("reopen")
}

#[test]
fn rendering_entry_lines_allocates_nothing_per_line() {
    let _counting = COUNTING.lock().expect("no test panicked while counting");
    let (_, mut small) = store("render", 200);
    let (_, mut large) = store("render", 400);
    let small = fewest_allocations(|| small.compact_now().expect("compact"));
    let large = fewest_allocations(|| large.compact_now().expect("compact"));
    assert_eq!(large, small, "200 more lines must cost no allocation");
}

#[test]
fn loading_an_entry_allocates_what_it_keeps_and_little_else() {
    let _counting = COUNTING.lock().expect("no test panicked while counting");
    let (small_path, _) = store("load", 200);
    let (large_path, _) = store("load", 400);
    let small = fewest_allocations(|| open(&small_path));
    let large = fewest_allocations(|| open(&large_path));
    let per_entry = (large - small) as f64 / 200.0;
    // One kept (the `Arc` of the loops), plus the amortized growth of the
    // cache shards and of the sorted list of live entries: 1.085 here. A
    // format 1 line kept three (its cost's two `Vec`s and the `Arc` around
    // it), 3.0 in all.
    assert!(
        per_entry <= 1.15,
        "{per_entry} allocations per loaded entry"
    );
}

//! Pins what an exhaustive mapping search allocates, under every objective:
//! its loop lists and linear forms are fixed-size state, and its
//! transposition table and the latency forms' transfer list are the
//! thread's own, reused across searches, so once the thread has searched a
//! problem as large, `LomaMapper::optimize` allocates only the two buffers
//! the returned `LayerCost` owns: the mapping's loop list and the access
//! breakdown's entries.
//!
//! Lives in its own integration-test binary because it installs a counting
//! `#[global_allocator]`; keeping it isolated means the counter only sees
//! this file's allocations.
#![expect(
    unsafe_code,
    reason = "a counting #[global_allocator] is an unsafe impl of GlobalAlloc"
)]

use defines_arch::zoo;
use defines_mapping::{LomaMapper, MapperConfig, Objective, SingleLayerProblem};
use defines_workload::{Layer, LayerDims, OpType};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

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
fn fewest_allocations<T>(f: impl Fn() -> T) -> u64 {
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

// One test function, deliberately: the allocation counter is process-global,
// so a sibling test thread would count its allocations against this one.
#[test]
fn an_exhaustive_search_allocates_only_what_its_cost_owns() {
    // Six active loops on every zoo array: each dimension outgrows its
    // spatial unrolling.
    let layers = [
        Layer::new("conv", OpType::Conv, LayerDims::conv(96, 48, 40, 40, 5, 5)),
        Layer::new(
            "dw",
            OpType::DepthwiseConv,
            LayerDims::conv(96, 96, 40, 40, 5, 5),
        ),
    ];
    let mut checked = 0;
    for objective in [
        Objective::Energy,
        Objective::Latency,
        Objective::Edp,
        Objective::DramAccess,
    ] {
        let mapper = LomaMapper::new(MapperConfig::default().with_objective(objective));
        for name in zoo::names() {
            let acc = zoo::by_name(name).expect("zoo name");
            for layer in &layers {
                let problem = SingleLayerProblem::new(&acc, layer);
                // The warm-up search grows the thread's buffers.
                let (_, stats) = mapper.optimize_with_stats(&problem);
                if stats.dims_active != 6 {
                    continue;
                }
                assert!(stats.pruned_symmetry > 0, "{name}: the table is in use");
                let allocations = fewest_allocations(|| mapper.optimize(&problem));
                assert_eq!(
                    allocations, 2,
                    "{objective:?} {name} {}: {allocations} allocations",
                    layer.name
                );
                checked += 1;
            }
        }
    }
    assert_eq!(
        checked,
        4 * 22,
        "every objective, zoo accelerator and layer"
    );
}

//! Proves that a sweep point's prepare and bound stages allocate a fixed
//! number of times, however many tile types the point has: once each
//! stack's axis classes are in its geometry's memo, looking them up
//! (`backcalc::stack_axes`) and counting the point's MACs from them
//! (`backcalc::stack_macs`) compose no tile type, so a 1×1 tile on
//! DMCNN-VD — over a thousand tile types — costs what a whole-map tile
//! costs: the one `Vec` of per-stack axes the engine hands from the
//! prepare stage to the bound and the evaluation.
//!
//! Lives in its own integration-test binary because it installs a counting
//! `#[global_allocator]`; keeping it isolated means the counter only sees
//! this file's allocations.
#![expect(
    unsafe_code,
    reason = "a counting #[global_allocator] is an unsafe impl of GlobalAlloc"
)]

use defines_arch::zoo;
use defines_core::backcalc::{stack_axes, stack_macs, tile_types, StackGeometry};
use defines_core::stack::partition_into_stacks;
use defines_core::{FuseDepth, OverlapMode, TileSize};
use defines_workload::models;
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

/// Allocations of a warm point's prepare and bound stages: the axes `Vec`.
const PREPARE_AND_BOUND: u64 = 1;

// One test function, deliberately: the allocation counter is process-global,
// so a sibling test thread would count its allocations against this one.
#[test]
fn a_warm_point_prepares_and_bounds_in_a_fixed_number_of_allocations() {
    let acc = zoo::meta_proto_like_df();
    let mut most_types = 0;
    for net in [models::dmcnn_vd(), models::fsrcnn()] {
        let stacks = partition_into_stacks(&net, &acc, &FuseDepth::Auto);
        let geometries: Vec<StackGeometry<'_>> = stacks
            .iter()
            .map(|stack| StackGeometry::new(&net, stack))
            .collect();
        for tile in [TileSize::new(1, 1), TileSize::new(960, 540)] {
            for mode in OverlapMode::ALL {
                // The engine's prepare stage, then its bound's MAC count.
                let point = || {
                    let axes: Vec<_> = geometries
                        .iter()
                        .map(|geometry| stack_axes(geometry, tile, mode))
                        .collect();
                    let macs: u64 = geometries
                        .iter()
                        .zip(&axes)
                        .map(|(geometry, axes)| stack_macs(geometry, axes))
                        .sum();
                    (axes, macs)
                };
                // Fill the geometries' memos.
                let macs = point().1;
                let types: usize = geometries
                    .iter()
                    .map(|geometry| tile_types(geometry, tile, mode).len())
                    .sum();
                most_types = most_types.max(types);
                assert!(macs > 0);
                assert_eq!(
                    fewest_allocations(point),
                    PREPARE_AND_BOUND,
                    "{} {tile} {mode}: {types} tile types",
                    net.name()
                );
            }
        }
    }
    assert!(
        most_types >= 1000,
        "some point has many tile types: {most_types}"
    );
}

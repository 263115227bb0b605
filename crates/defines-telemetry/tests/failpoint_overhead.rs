//! Proves the disarmed failpoint hot path allocates nothing.
//!
//! Compiled with the `failpoints` feature (the worst case: the sites exist
//! and each hit pays the armed-count load); without the feature the macro
//! expands to an empty function and there is nothing to measure. Lives in its
//! own integration-test binary because it installs a counting
//! `#[global_allocator]` — see `disabled_overhead.rs` for the idiom.
#![cfg(feature = "failpoints")]
#![expect(
    unsafe_code,
    reason = "a counting #[global_allocator] is an unsafe impl of GlobalAlloc"
)]

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

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

// One test function, deliberately: the allocation counter is process-global,
// so a sibling test thread spawned by the harness mid-window would count its
// startup allocations against the disarmed hot path.
#[test]
fn disarmed_failpoints_do_not_allocate() {
    defines_telemetry::fault::disarm_all();

    // Warm anything lazy outside the measured window.
    defines_telemetry::failpoint!("overhead.warmup");

    // One clean window proves the property (an allocating hot path would
    // allocate on every one of the 10k iterations); retry a few times to
    // ride out stray harness allocations — see disabled_overhead.rs.
    let mut cleanest = u64::MAX;
    for _attempt in 0..5 {
        let before = allocations();
        for _ in 0..10_000 {
            defines_telemetry::failpoint!("overhead.site_a");
            defines_telemetry::failpoint!("overhead.site_b");
        }
        let after = allocations();
        cleanest = cleanest.min(after - before);
        if cleanest == 0 {
            break;
        }
    }
    assert_eq!(cleanest, 0, "disarmed failpoint hot path must not allocate");

    // Sanity check in the same binary: the zero-allocation result above is
    // meaningful only if the same sites do fire once armed.
    let _guard = defines_telemetry::fault::arm("overhead.site_a", 1);
    let err = std::panic::catch_unwind(|| defines_telemetry::failpoint!("overhead.site_a"))
        .expect_err("armed site must fire");
    let msg = err.downcast_ref::<String>().expect("string payload");
    assert_eq!(msg, "failpoint overhead.site_a fired");
}

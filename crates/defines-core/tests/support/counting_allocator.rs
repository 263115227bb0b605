//! The counting allocator of this crate's allocation pins. Each pin is an
//! integration-test binary of its own that includes this module and
//! installs [`CountingAllocator`] as its `#[global_allocator]`, so the
//! counter only sees that binary's allocations, and holds one test function:
//! the counter is process-global, so a sibling test thread would count its
//! allocations against the pinned one.
#![expect(
    unsafe_code,
    reason = "a counting #[global_allocator] is an unsafe impl of GlobalAlloc"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// `System`, counting every allocation.
pub(crate) struct CountingAllocator;

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

/// The fewest allocations `f` makes over a few calls: the counter is
/// process-global, so runtime machinery occasionally adds a stray
/// allocation mid-window.
pub(crate) fn fewest_allocations<T>(f: impl Fn() -> T) -> u64 {
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

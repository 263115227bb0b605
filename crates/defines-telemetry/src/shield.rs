//! Quiet handling of panics that are about to be caught and reported.
//!
//! The engine isolates panics with `catch_unwind` and turns them into
//! structured failure records — but the process's default panic hook still
//! prints `thread panicked at ...` plus a backtrace pointer *before* the
//! catch, so every isolated failure spams stderr with noise that duplicates
//! the structured report.
//!
//! [`quiet_panics`] runs a closure with that noise suppressed on the current
//! thread. The first use installs (once, process-wide) a wrapper around the
//! current hook; the wrapper delegates to the original hook unless the
//! panicking thread is inside a `quiet_panics` region, so genuinely
//! unexpected panics — other threads, code outside an isolation boundary —
//! keep their full default report. Regions nest, and the thread-local depth
//! is restored even when the closure unwinds (the whole point), so a caught
//! panic cannot leak suppression into later code.

use std::cell::Cell;
use std::sync::Once;

thread_local! {
    /// Nesting depth of [`quiet_panics`] regions on this thread.
    static QUIET_DEPTH: Cell<usize> = const { Cell::new(0) };
}

static INSTALL_HOOK: Once = Once::new();

/// Restores the depth on drop so an unwinding closure still leaves the
/// thread un-suppressed.
struct DepthGuard;

impl Drop for DepthGuard {
    fn drop(&mut self) {
        QUIET_DEPTH.with(|d| d.set(d.get() - 1));
    }
}

/// Runs `f` with the default panic hook silenced for panics raised on this
/// thread, for callers that catch the unwind and report the payload
/// themselves. Panics on other threads, or outside the region, print as
/// usual.
pub fn quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    INSTALL_HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if QUIET_DEPTH.with(Cell::get) == 0 {
                previous(info);
            }
        }));
    });
    QUIET_DEPTH.with(|d| d.set(d.get() + 1));
    let _restore = DepthGuard;
    f()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn quiet_region_suppresses_and_restores() {
        // The caught payload still comes through; only the hook is silent.
        let err = catch_unwind(AssertUnwindSafe(|| {
            quiet_panics(|| panic!("inside the region"))
        }))
        .unwrap_err();
        assert_eq!(err.downcast_ref::<&str>(), Some(&"inside the region"));
        // The unwind ran the depth guard: the thread is no longer quiet.
        QUIET_DEPTH.with(|d| assert_eq!(d.get(), 0));

        // Nesting: two regions, one unwind, depth back to the outer level.
        quiet_panics(|| {
            let _ = catch_unwind(AssertUnwindSafe(|| quiet_panics(|| panic!("nested"))));
            QUIET_DEPTH.with(|d| assert_eq!(d.get(), 1));
        });

        // A normal return pops the depth too.
        assert_eq!(quiet_panics(|| 7), 7);
        QUIET_DEPTH.with(|d| assert_eq!(d.get(), 0));
    }
}

//! Deterministic fault injection: named failpoints for robustness tests.
//!
//! A failpoint is a named site in production code —
//! `failpoint!("engine.execute")` — that normally does nothing, but can be
//! *armed* by a test to panic on a chosen hit. Arming is fully deterministic:
//! a site fires on its `fire_at`-th hit (1-based, counted process-wide since
//! arming), so a seeded campaign replays identically.
//!
//! The facility is gated behind the `failpoints` cargo feature:
//!
//! * **Feature off** (the default, and all release builds): [`check`] is an
//!   empty `#[inline(always)]` function — the call compiles away entirely.
//! * **Feature on, nothing armed**: one relaxed atomic load per hit, no
//!   allocation (pinned by the counting-allocator test
//!   `tests/failpoint_overhead.rs`).
//! * **Feature on, a site armed**: hits of armed sites take a mutex to count
//!   deterministically; the firing hit bumps the `fault.injected` counter and
//!   panics with a `failpoint <site> fired` payload *after* releasing the
//!   registry lock, so the facility never poisons itself.
//!
//! The `failpoint!` macro lives in the crate root and expands to
//! `$crate::fault::check(...)`, which means the `cfg` is evaluated *here*,
//! when `defines-telemetry` itself is compiled — downstream crates compile
//! identically whether or not they forward the feature.

#[cfg(feature = "failpoints")]
use crate::Counter;
#[cfg(feature = "failpoints")]
use std::sync::atomic::{AtomicUsize, Ordering};
#[cfg(feature = "failpoints")]
use std::sync::{Mutex, PoisonError};

/// Probes a named failpoint. Panics iff the site is armed and this is its
/// firing hit; otherwise returns normally. Compiles to nothing without the
/// `failpoints` feature.
#[inline(always)]
pub fn check(site: &'static str) {
    #[cfg(feature = "failpoints")]
    check_armed(site);
    #[cfg(not(feature = "failpoints"))]
    let _ = site;
}

#[cfg(feature = "failpoints")]
mod armed {
    use super::*;

    /// Injected panics actually fired, across all sites.
    static INJECTED: Counter = Counter::new("fault.injected");

    /// Number of currently armed sites. The fast path of [`check`] is a single
    /// relaxed load of this count: zero means no site anywhere is armed and
    /// the hit returns immediately, without touching the registry lock.
    static ARMED_COUNT: AtomicUsize = AtomicUsize::new(0);

    struct Site {
        name: &'static str,
        /// Hits observed since arming (the registry lock serializes these, so
        /// hit indices are deterministic under any thread interleaving as
        /// long as the workload itself reaches the site deterministically).
        hits: u64,
        /// 1-based hit index to fire on; 0 disables firing but keeps
        /// counting.
        fire_at: u64,
        fired: bool,
    }

    static SITES: Mutex<Vec<Site>> = Mutex::new(Vec::new());

    fn sites() -> std::sync::MutexGuard<'static, Vec<Site>> {
        // A firing site panics *outside* the lock, but a test harness
        // panicking elsewhere while armed must not wedge later campaigns.
        SITES.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Disarms every site on drop, so a campaign cannot leak armed state
    /// into the next test even when the test itself panics.
    pub struct ArmGuard(());

    impl Drop for ArmGuard {
        fn drop(&mut self) {
            disarm_all();
        }
    }

    /// Arms `site` to panic on its `fire_at`-th hit (1-based) from now on.
    /// Re-arming an already-armed site resets its hit count.
    pub fn arm(site: &'static str, fire_at: u64) -> ArmGuard {
        let mut sites = sites();
        if let Some(s) = sites.iter_mut().find(|s| s.name == site) {
            s.hits = 0;
            s.fire_at = fire_at;
            s.fired = false;
        } else {
            sites.push(Site {
                name: site,
                hits: 0,
                fire_at,
                fired: false,
            });
        }
        ARMED_COUNT.store(sites.len(), Ordering::Relaxed);
        ArmGuard(())
    }

    /// Disarms every site and clears all hit counts.
    pub fn disarm_all() {
        let mut sites = sites();
        sites.clear();
        ARMED_COUNT.store(0, Ordering::Relaxed);
    }

    /// Hits recorded for `site` since it was armed (0 when not armed).
    pub fn hits(site: &str) -> u64 {
        sites()
            .iter()
            .find(|s| s.name == site)
            .map_or(0, |s| s.hits)
    }

    /// Total injected panics fired since process start (reads the
    /// `fault.injected` counter directly, independent of the metrics flag
    /// snapshotting).
    pub fn injected_total() -> u64 {
        INJECTED.value()
    }

    #[inline]
    pub(super) fn check_armed(site: &'static str) {
        if ARMED_COUNT.load(Ordering::Relaxed) == 0 {
            return;
        }
        let fire = {
            let mut sites = sites();
            match sites.iter_mut().find(|s| s.name == site) {
                Some(s) => {
                    s.hits += 1;
                    if !s.fired && s.fire_at != 0 && s.hits == s.fire_at {
                        s.fired = true;
                        true
                    } else {
                        false
                    }
                }
                None => false,
            }
        };
        if fire {
            INJECTED.incr();
            panic!("failpoint {site} fired");
        }
    }
}

#[cfg(feature = "failpoints")]
pub use armed::{arm, disarm_all, hits, injected_total, ArmGuard};

#[cfg(feature = "failpoints")]
use armed::check_armed;

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes tests that arm the global failpoint registry.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn unarmed_site_never_fires() {
        let _lock = TEST_LOCK.lock().unwrap();
        disarm_all();
        for _ in 0..100 {
            check("test.fault.unarmed");
        }
    }

    #[test]
    fn armed_site_fires_on_exact_hit() {
        let _lock = TEST_LOCK.lock().unwrap();
        let _guard = arm("test.fault.third", 3);
        check("test.fault.third");
        check("test.fault.third");
        assert_eq!(hits("test.fault.third"), 2);
        let err = std::panic::catch_unwind(|| check("test.fault.third")).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert_eq!(msg, "failpoint test.fault.third fired");
        // Fires exactly once.
        check("test.fault.third");
        assert_eq!(hits("test.fault.third"), 4);
    }

    #[test]
    fn guard_disarms_on_drop() {
        let _lock = TEST_LOCK.lock().unwrap();
        {
            let _guard = arm("test.fault.guarded", 1);
        }
        check("test.fault.guarded");
        assert_eq!(hits("test.fault.guarded"), 0);
    }

    #[test]
    fn fire_at_zero_counts_without_firing() {
        let _lock = TEST_LOCK.lock().unwrap();
        let _guard = arm("test.fault.count", 0);
        for _ in 0..5 {
            check("test.fault.count");
        }
        assert_eq!(hits("test.fault.count"), 5);
    }
}

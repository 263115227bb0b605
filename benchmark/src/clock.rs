//! The harness's only clock read. Every timing in the benchmark goes through
//! [`now`], so the workspace linter's `wall-clock` rule has exactly one
//! annotated site to audit under `benchmark/src`.

use std::time::Instant;

/// Reads the monotonic clock.
#[inline]
pub fn now() -> Instant {
    // lint:allow(wall-clock, the benchmark harness measures host time by design; nothing here feeds a model result)
    Instant::now()
}

/// Runs `f` and returns its result with the elapsed wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

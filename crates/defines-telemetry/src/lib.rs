//! Telemetry for the DeFiNES pipeline: span tracing, a metrics registry and
//! exporters (Chrome trace-event JSON, per-phase breakdown tables).
//!
//! The crate is a vendored-only stand-in in the spirit of `vendor/serde`: it
//! depends on nothing but the vendored `serde` and is a leaf of the crate
//! graph, so every other crate (`defines-engine`, `defines-mapping`,
//! `defines-core`, `defines-cli`, `defines-bench`) can instrument itself
//! without cycles.
//!
//! # Design
//!
//! Two independent, globally-visible switches gate everything:
//!
//! * [`set_tracing`] / [`tracing_enabled`] — span recording. When off, a
//!   [`span!`] expands to a guard whose construction is one relaxed atomic
//!   load and whose drop is a branch on a `None`; no clock is read and no
//!   allocation happens.
//! * [`set_metrics`] — counters and gauges. When off,
//!   [`Counter::add`] is a single relaxed atomic load.
//!
//! Spans are buffered per thread (a `thread_local` `Vec`, no lock on the hot
//! path) and flushed into a global sink when the thread exits or when
//! [`drain_events`] runs on that thread. The engine's worker threads are
//! scoped — they exit before the sweep returns — so a drain after a sweep
//! observes every worker's spans.
//!
//! Metrics are `static` [`Counter`] / [`Gauge`] items that lazily register
//! themselves in a global list, under its lock, the first time they are
//! touched; [`snapshot`] reads the list.
//!
//! # Example
//!
//! ```
//! use defines_telemetry as telemetry;
//! use defines_telemetry::span;
//!
//! static POINTS: telemetry::Counter = telemetry::Counter::new("example.points");
//!
//! telemetry::set_tracing(true);
//! telemetry::set_metrics(true);
//! {
//!     let _span = span!("example.work");
//!     POINTS.add(3);
//! }
//! let events = telemetry::drain_events();
//! assert!(events.iter().any(|e| e.name == "example.work"));
//! assert_eq!(telemetry::snapshot().get("example.points"), Some(3));
//! telemetry::set_tracing(false);
//! telemetry::set_metrics(false);
//! ```

#![expect(
    clippy::disallowed_methods,
    reason = "this crate owns the span clock: Instant::now feeds trace events, never results"
)]

mod export;
// the `failpoint!` macro's probe and the fault-injection campaigns' arming API
pub mod fault;
mod metrics;
mod shield;
mod span;

pub use export::{chrome_trace, PhaseBreakdown};
pub use metrics::{snapshot, Counter, Gauge, MetricValue, MetricsSnapshot};
pub use shield::quiet_panics;
pub use span::{clear_events, drain_events, flush_on_exit, SpanEvent, SpanFlushGuard, SpanGuard};

use std::sync::atomic::{AtomicBool, Ordering};

static TRACING: AtomicBool = AtomicBool::new(false);
static METRICS: AtomicBool = AtomicBool::new(false);

/// Whether span recording is on. One relaxed atomic load — this is the whole
/// cost a [`span!`] pays on the hot path while tracing is disabled.
#[inline(always)]
pub fn tracing_enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Switches span recording on or off. Enabling also pins the trace epoch
/// (the instant all span timestamps are relative to) if it is not set yet.
pub fn set_tracing(on: bool) {
    if on {
        span::pin_epoch();
    }
    TRACING.store(on, Ordering::Relaxed);
}

/// Whether the metrics registry is recording. One relaxed atomic load.
#[inline(always)]
pub(crate) fn metrics_enabled() -> bool {
    METRICS.load(Ordering::Relaxed)
}

/// Switches counter/gauge recording on or off.
pub fn set_metrics(on: bool) {
    METRICS.store(on, Ordering::Relaxed);
}

/// Probes a named fault-injection site (see [`fault`]).
///
/// Without the `failpoints` cargo feature this expands to an empty inline
/// function call and compiles away; with it, an armed site panics on its
/// configured hit. The `cfg` is evaluated inside *this* crate, so callers
/// compile identically whether or not they forward the feature:
///
/// ```
/// use defines_telemetry::failpoint;
/// failpoint!("example.site"); // no-op unless armed under `failpoints`
/// ```
#[macro_export]
macro_rules! failpoint {
    ($name:expr) => {
        $crate::fault::check($name)
    };
}

/// Opens a span: records wall time from here to the end of the enclosing
/// scope, attributed to the current thread.
///
/// The name must be a `&'static str` in `stage.phase` form (see the span
/// taxonomy in `docs/architecture.md`). Optional fields are `key = value`
/// pairs with `u64`-convertible values, carried into the Chrome trace as the
/// event's `args`:
///
/// ```
/// use defines_telemetry::span;
/// let _s = span!("engine.execute");
/// let _t = span!("engine.worker", worker = 3u64);
/// ```
///
/// With tracing disabled the guard is inert: no clock read, no allocation.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($name)
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        $crate::SpanGuard::enter_with_args(
            $name,
            &[$((stringify!($key), $value as u64)),+],
        )
    };
}

/// Serializes this crate's unit tests that toggle the global tracing and
/// metrics flags: one test switching a flag off mid-way through another's
/// recording would make that one fail.
#[cfg(test)]
static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_default_off_and_toggle() {
        let _lock = TEST_LOCK.lock().unwrap();
        // Default state: both off (other tests in this binary restore it).
        set_tracing(true);
        assert!(tracing_enabled());
        set_tracing(false);
        assert!(!tracing_enabled());
        set_metrics(true);
        assert!(metrics_enabled());
        set_metrics(false);
        assert!(!metrics_enabled());
    }

    #[test]
    fn disabled_span_records_nothing() {
        let _lock = TEST_LOCK.lock().unwrap();
        set_tracing(false);
        {
            let _s = span!("test.disabled");
        }
        let events = drain_events();
        assert!(events.iter().all(|e| e.name != "test.disabled"));
    }
}

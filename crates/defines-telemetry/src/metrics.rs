//! The metrics registry: static counters and gauges, registered once per
//! process, and point-in-time snapshots.
//!
//! Metrics are declared as `static` items next to the code they count:
//!
//! ```
//! use defines_telemetry::{Counter, Gauge};
//!
//! static CACHE_HITS: Counter = Counter::new("example.cache.hits");
//! static THREADS: Gauge = Gauge::new("example.threads");
//!
//! defines_telemetry::set_metrics(true);
//! CACHE_HITS.incr();
//! THREADS.set(4);
//! let snap = defines_telemetry::snapshot();
//! assert_eq!(snap.get("example.cache.hits"), Some(1));
//! assert_eq!(snap.get("example.threads"), Some(4));
//! defines_telemetry::set_metrics(false);
//! ```
//!
//! The first touch of a metric appends it to a global registry under a
//! lock; subsequent updates are one relaxed atomic add/store. With metrics
//! disabled an update is a single relaxed load.

use serde::{Serialize, Writer};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// What kind of time series a metric is — decides how
/// [`MetricsSnapshot::since`] differences two snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MetricKind {
    /// Monotonically increasing count; `since` subtracts.
    Counter,
    /// Last-written level; `since` keeps the later value.
    Gauge,
}

/// The shared guts of [`Counter`] and [`Gauge`]: a named atomic cell that
/// the global registry lists once it is first updated.
struct Metric {
    name: &'static str,
    kind: MetricKind,
    value: AtomicU64,
    registered: AtomicBool,
}

/// Every metric updated so far, in registration order.
static REGISTRY: Mutex<Vec<&'static Metric>> = Mutex::new(Vec::new());

/// Locks the registry. Poisoning is recovered from: every critical section
/// is one push or one read, which cannot be seen half-done.
fn registry() -> MutexGuard<'static, Vec<&'static Metric>> {
    REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Metric {
    const fn new(name: &'static str, kind: MetricKind) -> Self {
        Self {
            name,
            kind,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// Ensures the metric is in the registry (exactly once).
    #[inline]
    fn ensure_registered(&'static self) {
        if !self.registered.load(Ordering::Relaxed) {
            self.register();
        }
    }

    /// The first update's registration, kept out of line so the update
    /// paths stay one load and one add.
    #[cold]
    #[inline(never)]
    fn register(&'static self) {
        if self.registered.swap(true, Ordering::AcqRel) {
            return; // another thread won the race and is registering
        }
        registry().push(self);
    }
}

/// A monotonically increasing counter. Declare as a `static` next to the
/// code it counts; updates are dropped while metrics are disabled.
pub struct Counter {
    inner: Metric,
}

impl Counter {
    /// Creates a counter. `name` should be `stage.metric` (e.g.
    /// `"mapping.cache.hits"`); it is the key in snapshots and reports.
    pub const fn new(name: &'static str) -> Self {
        Self {
            inner: Metric::new(name, MetricKind::Counter),
        }
    }

    /// Adds `n`. A single relaxed load when metrics are disabled.
    #[inline]
    pub fn add(&'static self, n: u64) {
        if !crate::metrics_enabled() {
            return;
        }
        self.inner.ensure_registered();
        self.inner.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn incr(&'static self) {
        self.add(1);
    }

    /// Current value (0 until first registered update).
    pub fn value(&self) -> u64 {
        self.inner.value.load(Ordering::Relaxed)
    }
}

/// A last-written-value gauge. Declare as a `static`; writes are dropped
/// while metrics are disabled.
pub struct Gauge {
    inner: Metric,
}

impl Gauge {
    /// Creates a gauge (see [`Counter::new`] for naming).
    pub const fn new(name: &'static str) -> Self {
        Self {
            inner: Metric::new(name, MetricKind::Gauge),
        }
    }

    /// Sets the level. A single relaxed load when metrics are disabled.
    #[inline]
    pub fn set(&'static self, v: u64) {
        if !crate::metrics_enabled() {
            return;
        }
        self.inner.ensure_registered();
        self.inner.value.store(v, Ordering::Relaxed);
    }
}

/// One metric's name, kind and value at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricValue {
    /// Metric name as declared.
    pub name: &'static str,
    /// Counter or gauge (drives [`MetricsSnapshot::since`]).
    pub(crate) kind: MetricKind,
    /// Value at snapshot time.
    pub value: u64,
}

/// A point-in-time copy of every registered metric, sorted by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Per-metric values, sorted by name.
    pub values: Vec<MetricValue>,
}

/// Snapshots every metric registered so far (sorted by name). Metrics that
/// have never been touched while enabled are absent.
pub fn snapshot() -> MetricsSnapshot {
    let mut values: Vec<MetricValue> = registry()
        .iter()
        .map(|metric| MetricValue {
            name: metric.name,
            kind: metric.kind,
            value: metric.value.load(Ordering::Relaxed),
        })
        .collect();
    values.sort_by(|a, b| a.name.cmp(b.name));
    MetricsSnapshot { values }
}

impl MetricsSnapshot {
    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.values.iter().find(|v| v.name == name).map(|v| v.value)
    }

    /// True when no metric has been recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The change from `before` to `self`: counters are differenced
    /// (saturating, in case `before` post-dates a reset), gauges keep their
    /// later value. Metrics first registered after `before` appear with
    /// their full value.
    pub fn since(&self, before: &MetricsSnapshot) -> MetricsSnapshot {
        let values = self
            .values
            .iter()
            .map(|now| {
                let value = match now.kind {
                    MetricKind::Counter => {
                        let prev = before.get(now.name).unwrap_or(0);
                        now.value.saturating_sub(prev)
                    }
                    MetricKind::Gauge => now.value,
                };
                MetricValue { value, ..*now }
            })
            .collect();
        MetricsSnapshot { values }
    }
}

impl Serialize for MetricsSnapshot {
    fn serialize(&self, w: &mut Writer<'_>) {
        w.begin_object();
        for v in &self.values {
            w.field(v.name, &v.value);
        }
        w.end_object();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;
    static TEST_COUNTER: Counter = Counter::new("test.metrics.counter");
    static TEST_GAUGE: Gauge = Gauge::new("test.metrics.gauge");

    #[test]
    fn counter_and_gauge_record_when_enabled() {
        let _lock = crate::TEST_LOCK.lock().unwrap();
        crate::set_metrics(true);
        let before = snapshot();
        TEST_COUNTER.add(5);
        TEST_COUNTER.incr();
        TEST_GAUGE.set(42);
        let delta = snapshot().since(&before);
        crate::set_metrics(false);
        assert_eq!(delta.get("test.metrics.counter"), Some(6));
        assert_eq!(delta.get("test.metrics.gauge"), Some(42));
    }

    #[test]
    fn disabled_metrics_drop_updates() {
        let _lock = crate::TEST_LOCK.lock().unwrap();
        crate::set_metrics(false);
        let before = TEST_COUNTER.value();
        TEST_COUNTER.add(100);
        assert_eq!(TEST_COUNTER.value(), before);
    }

    #[test]
    fn concurrent_adds_do_not_lose_updates() {
        let _lock = crate::TEST_LOCK.lock().unwrap();
        static CONCURRENT: Counter = Counter::new("test.metrics.concurrent");
        crate::set_metrics(true);
        let before = CONCURRENT.value();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        CONCURRENT.incr();
                    }
                });
            }
        });
        crate::set_metrics(false);
        assert_eq!(CONCURRENT.value() - before, 8000);
    }

    #[test]
    fn snapshot_is_sorted_and_serializes_to_object() {
        let _lock = crate::TEST_LOCK.lock().unwrap();
        crate::set_metrics(true);
        TEST_COUNTER.incr();
        TEST_GAUGE.set(1);
        let snap = snapshot();
        crate::set_metrics(false);
        let names: Vec<_> = snap.values.iter().map(|v| v.name).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
        match snap.to_value() {
            Value::Object(fields) => assert_eq!(fields.len(), snap.values.len()),
            other => panic!("expected object, got {other:?}"),
        }
    }

    #[test]
    fn since_differences_counters_and_keeps_gauges() {
        let a = MetricsSnapshot {
            values: vec![
                MetricValue {
                    name: "c",
                    kind: MetricKind::Counter,
                    value: 10,
                },
                MetricValue {
                    name: "g",
                    kind: MetricKind::Gauge,
                    value: 3,
                },
            ],
        };
        let b = MetricsSnapshot {
            values: vec![
                MetricValue {
                    name: "c",
                    kind: MetricKind::Counter,
                    value: 25,
                },
                MetricValue {
                    name: "g",
                    kind: MetricKind::Gauge,
                    value: 8,
                },
                MetricValue {
                    name: "new",
                    kind: MetricKind::Counter,
                    value: 4,
                },
            ],
        };
        let delta = b.since(&a);
        assert_eq!(delta.get("c"), Some(15));
        assert_eq!(delta.get("g"), Some(8));
        assert_eq!(delta.get("new"), Some(4));
        // Saturating difference, never a panic, when `before` is ahead.
        let reset = a.since(&b);
        assert_eq!(reset.get("c"), Some(0));
    }
}

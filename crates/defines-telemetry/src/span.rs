//! The span tracer: scope guards, per-thread buffers and the global sink.
//!
//! A [`SpanGuard`] measures the wall time between its construction and its
//! drop and appends one [`SpanEvent`] to a `thread_local` buffer — no lock is
//! taken on the hot path. Buffers flush into a global sink when their thread
//! exits (a `Drop` impl on the thread-local slot) and when [`drain_events`]
//! runs on the owning thread, so after a sweep whose scoped worker threads
//! have joined, a single drain on the coordinating thread sees every span.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span: a named interval on one thread's timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Span name (`stage.phase`, e.g. `"engine.execute"`).
    pub name: &'static str,
    /// Start time in microseconds since the trace epoch.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Telemetry thread id (dense, assigned in first-span order; *not* the
    /// OS thread id).
    pub thread: u32,
    /// Optional `key = value` fields attached at the call site.
    pub args: Vec<(&'static str, u64)>,
}

/// The instant all span timestamps are measured from. Pinned at most once
/// per process, by the first [`crate::set_tracing`]`(true)` (or lazily by
/// the first recorded span).
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Dense thread-id allocator for trace tracks.
static NEXT_THREAD_ID: AtomicU32 = AtomicU32::new(0);

/// Spans flushed from exited (or drained) threads, in flush order.
static SINK: Mutex<Vec<SpanEvent>> = Mutex::new(Vec::new());

pub(crate) fn pin_epoch() {
    EPOCH.get_or_init(Instant::now);
}

fn micros_since_epoch(at: Instant) -> f64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    // saturating: a span opened on another thread in the same instant the
    // epoch was pinned can observe a start marginally before it.
    at.saturating_duration_since(epoch).as_secs_f64() * 1e6
}

/// Per-thread span buffer; flushes itself into [`SINK`] on thread exit.
struct ThreadBuffer {
    id: u32,
    events: Vec<SpanEvent>,
}

impl ThreadBuffer {
    fn flush(&mut self) {
        if self.events.is_empty() {
            return;
        }
        let mut sink = SINK.lock().expect("telemetry sink poisoned");
        sink.append(&mut self.events);
    }
}

impl Drop for ThreadBuffer {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static BUFFER: RefCell<ThreadBuffer> = RefCell::new(ThreadBuffer {
        id: NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed),
        events: Vec::new(),
    });
}

/// The RAII guard behind [`crate::span!`]. Inert (no clock read, no
/// allocation, drop is a branch) when tracing is disabled at construction.
#[must_use = "a span measures the scope it is bound to; bind it to a `_guard` name"]
pub struct SpanGuard {
    name: &'static str,
    /// `None` when tracing was disabled at construction: the drop is a no-op.
    start: Option<Instant>,
    args: Vec<(&'static str, u64)>,
}

impl SpanGuard {
    /// Opens a span. Prefer the [`crate::span!`] macro.
    #[inline]
    pub fn enter(name: &'static str) -> Self {
        if !crate::tracing_enabled() {
            return Self {
                name,
                start: None,
                args: Vec::new(),
            };
        }
        Self {
            name,
            start: Some(Instant::now()),
            args: Vec::new(),
        }
    }

    /// Opens a span with `key = value` fields. Prefer the [`crate::span!`]
    /// macro. The fields are only copied out of `args` when tracing is
    /// enabled.
    #[inline]
    pub fn enter_with_args(name: &'static str, args: &[(&'static str, u64)]) -> Self {
        if !crate::tracing_enabled() {
            return Self {
                name,
                start: None,
                args: Vec::new(),
            };
        }
        Self {
            name,
            start: Some(Instant::now()),
            args: args.to_vec(),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let end = Instant::now();
        let start_us = micros_since_epoch(start);
        let dur_us = end.saturating_duration_since(start).as_secs_f64() * 1e6;
        let args = std::mem::take(&mut self.args);
        BUFFER.with(|buffer| {
            let mut buffer = buffer.borrow_mut();
            let thread = buffer.id;
            buffer.events.push(SpanEvent {
                name: self.name,
                start_us,
                dur_us,
                thread,
                args,
            });
        });
    }
}

/// Flushes the calling thread's span buffer into the global sink.
///
/// Worker threads that record spans should flush before signalling
/// completion: relying on the thread-exit flush alone is racy under
/// [`std::thread::scope`], which unparks the scope owner when the closure
/// returns — *before* the thread-local destructors run — so a drain right
/// after the scope can miss a buffer still in flight. Prefer the RAII form
/// [`flush_on_exit`], which survives early `return`s.
pub(crate) fn flush_thread_spans() {
    BUFFER.with(|buffer| buffer.borrow_mut().flush());
}

/// RAII flush for worker closures: the returned guard flushes the calling
/// thread's span buffer when dropped. Bind it *first* in the closure so it
/// drops *last* — after every span guard in the body has recorded its event.
#[must_use = "bind the guard to a `_flush` name so it drops at scope exit"]
pub fn flush_on_exit() -> SpanFlushGuard {
    SpanFlushGuard
}

/// Guard returned by [`flush_on_exit`]; flushes the thread's spans on drop.
pub struct SpanFlushGuard;

impl Drop for SpanFlushGuard {
    fn drop(&mut self) {
        flush_thread_spans();
    }
}

/// Takes every span recorded so far: the calling thread's buffer plus
/// everything already flushed to the global sink (buffers of exited
/// threads and of threads that drained themselves).
///
/// Spans held in the live buffers of *other* still-running threads are not
/// visible; drain after joining worker threads. Scoped workers must flush
/// explicitly before returning (see [`flush_on_exit`]): the scope owner can
/// resume before a scoped thread's exit-time flush has run.
pub fn drain_events() -> Vec<SpanEvent> {
    BUFFER.with(|buffer| buffer.borrow_mut().flush());
    let mut sink = SINK.lock().expect("telemetry sink poisoned");
    std::mem::take(&mut *sink)
}

/// Discards every span recorded so far (same visibility as
/// [`drain_events`]). Benchmarks use this between scenarios.
pub fn clear_events() {
    drop(drain_events());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_name_duration_and_thread() {
        let _lock = crate::TEST_LOCK.lock().unwrap();
        crate::set_tracing(true);
        clear_events();
        {
            let _s = crate::span!("test.unit");
            std::hint::black_box(());
        }
        crate::set_tracing(false);
        let events = drain_events();
        let span = events
            .iter()
            .find(|e| e.name == "test.unit")
            .expect("span recorded");
        assert!(span.dur_us >= 0.0);
        assert!(span.start_us >= 0.0);
        assert!(span.args.is_empty());
    }

    #[test]
    fn span_args_are_captured() {
        let _lock = crate::TEST_LOCK.lock().unwrap();
        crate::set_tracing(true);
        clear_events();
        {
            let _s = crate::span!("test.args", worker = 7u64, batch = 2u64);
        }
        crate::set_tracing(false);
        let events = drain_events();
        let span = events.iter().find(|e| e.name == "test.args").unwrap();
        assert_eq!(span.args, vec![("worker", 7), ("batch", 2)]);
    }

    #[test]
    fn exited_threads_flush_into_the_sink() {
        let _lock = crate::TEST_LOCK.lock().unwrap();
        crate::set_tracing(true);
        clear_events();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    let _s = crate::span!("test.thread");
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        crate::set_tracing(false);
        let events = drain_events();
        let count = events.iter().filter(|e| e.name == "test.thread").count();
        assert_eq!(count, 4);
    }

    #[test]
    fn nested_spans_both_record() {
        let _lock = crate::TEST_LOCK.lock().unwrap();
        crate::set_tracing(true);
        clear_events();
        {
            let _outer = crate::span!("test.outer");
            let _inner = crate::span!("test.inner");
        }
        crate::set_tracing(false);
        let events = drain_events();
        assert!(events.iter().any(|e| e.name == "test.outer"));
        assert!(events.iter().any(|e| e.name == "test.inner"));
    }
}

//! Exporters: Chrome trace-event JSON and per-phase wall-time breakdowns.

use crate::span::SpanEvent;
use serde::{Serialize, Value};

/// Renders spans as a Chrome trace-event document (the JSON Object Format),
/// loadable in Perfetto / `chrome://tracing`: one complete (`"ph": "X"`)
/// event per span, one track per recorded thread, plus `thread_name`
/// metadata events naming the tracks.
pub fn chrome_trace(events: &[SpanEvent]) -> Value {
    let mut threads: Vec<u32> = events.iter().map(|e| e.thread).collect();
    threads.sort_unstable();
    threads.dedup();

    let mut trace: Vec<Value> = threads
        .iter()
        .map(|&tid| {
            Value::Object(vec![
                ("ph".to_string(), Value::Str("M".to_string())),
                ("name".to_string(), Value::Str("thread_name".to_string())),
                ("pid".to_string(), Value::U64(1)),
                ("tid".to_string(), Value::U64(tid as u64)),
                (
                    "args".to_string(),
                    Value::Object(vec![(
                        "name".to_string(),
                        Value::Str(format!("thread-{tid}")),
                    )]),
                ),
            ])
        })
        .collect();

    // Deterministic output order: by start time, then thread, then name.
    let mut ordered: Vec<&SpanEvent> = events.iter().collect();
    ordered.sort_by(|a, b| {
        a.start_us
            .total_cmp(&b.start_us)
            .then(a.thread.cmp(&b.thread))
            .then(a.name.cmp(b.name))
    });
    for event in ordered {
        let mut fields = vec![
            ("name".to_string(), Value::Str(event.name.to_string())),
            ("ph".to_string(), Value::Str("X".to_string())),
            ("ts".to_string(), Value::F64(event.start_us)),
            ("dur".to_string(), Value::F64(event.dur_us)),
            ("pid".to_string(), Value::U64(1)),
            ("tid".to_string(), Value::U64(event.thread as u64)),
        ];
        if !event.args.is_empty() {
            fields.push((
                "args".to_string(),
                Value::Object(
                    event
                        .args
                        .iter()
                        .map(|(k, v)| (k.to_string(), Value::U64(*v)))
                        .collect(),
                ),
            ));
        }
        trace.push(Value::Object(fields));
    }

    Value::Object(vec![("traceEvents".to_string(), Value::Array(trace))])
}

/// Aggregate statistics of one span name.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRow {
    /// Span name.
    pub name: &'static str,
    /// Number of spans with this name.
    pub count: u64,
    /// Summed duration across those spans, milliseconds.
    pub total_ms: f64,
    /// Mean duration, microseconds (0 for an empty phase).
    pub mean_us: f64,
    /// `total_ms` as a fraction of the trace's wall-clock window (0 when the
    /// window is empty). Spans nest — e.g. `engine.execute` inside
    /// `engine.worker` — so shares do not sum to 1.
    pub share: f64,
    /// Self-time: `total_ms` minus the time the phase's direct child spans
    /// cover, milliseconds.
    pub self_ms: f64,
    /// `self_ms` as a fraction of the wall-clock window. Per thread,
    /// self-times partition the traced time, so on one thread the self
    /// shares of all phases sum to at most 1.
    pub self_share: f64,
}

/// A per-phase wall-time breakdown of a trace: one [`PhaseRow`] per span
/// name, sorted by total time descending.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseBreakdown {
    /// Per-phase rows, heaviest first.
    pub phases: Vec<PhaseRow>,
    /// The trace's wall-clock window (earliest start to latest end),
    /// milliseconds. Zero for an empty trace.
    pub wall_ms: f64,
}

impl PhaseBreakdown {
    /// Aggregates spans by name. Every rate is zero-guarded: an empty event
    /// list yields an empty breakdown with `wall_ms == 0`, never a NaN.
    pub fn from_events(events: &[SpanEvent]) -> Self {
        if events.is_empty() {
            return Self::default();
        }
        let mut earliest = f64::INFINITY;
        let mut latest = f64::NEG_INFINITY;
        // (name, count, total µs, self µs)
        let mut totals: Vec<(&'static str, u64, f64, f64)> = Vec::new();
        for (event, self_us) in events.iter().zip(self_times_us(events)) {
            earliest = earliest.min(event.start_us);
            latest = latest.max(event.start_us + event.dur_us);
            match totals.iter_mut().find(|(name, ..)| *name == event.name) {
                Some((_, count, total, own)) => {
                    *count += 1;
                    *total += event.dur_us;
                    *own += self_us;
                }
                None => totals.push((event.name, 1, event.dur_us, self_us)),
            }
        }
        let wall_us = (latest - earliest).max(0.0);
        let wall_ms = wall_us / 1e3;
        let share = |us: f64| if wall_us > 0.0 { us / wall_us } else { 0.0 };
        let mut phases: Vec<PhaseRow> = totals
            .into_iter()
            .map(|(name, count, total_us, self_us)| PhaseRow {
                name,
                count,
                total_ms: total_us / 1e3,
                mean_us: if count > 0 {
                    total_us / count as f64
                } else {
                    0.0
                },
                share: share(total_us),
                self_ms: self_us / 1e3,
                self_share: share(self_us),
            })
            .collect();
        phases.sort_by(|a, b| b.total_ms.total_cmp(&a.total_ms).then(a.name.cmp(b.name)));
        Self { phases, wall_ms }
    }

    /// The breakdown as a markdown table (phase, count, total, self, mean,
    /// shares of wall clock).
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "| phase | count | total (ms) | self (ms) | mean (µs) | % of wall | % self |\n",
        );
        out.push_str("|---|---:|---:|---:|---:|---:|---:|\n");
        for row in &self.phases {
            out.push_str(&format!(
                "| `{}` | {} | {:.3} | {:.3} | {:.1} | {:.1}% | {:.1}% |\n",
                row.name,
                row.count,
                row.total_ms,
                row.self_ms,
                row.mean_us,
                row.share * 100.0,
                row.self_share * 100.0
            ));
        }
        out.push_str(&format!(
            "\nwall clock: {:.3} ms ({} phases; `% of wall` includes nested spans, \
             `% self` excludes them)\n",
            self.wall_ms,
            self.phases.len()
        ));
        out
    }
}

/// Each span's self-time in µs, in `events` order: its duration minus the
/// interval its direct children cover. Per thread, spans nest by interval
/// containment — a span's parent is the innermost earlier span of the same
/// thread still open when it starts — the rule the benchmark ladder's
/// `benchmark/src/spans.rs` applies.
fn self_times_us(events: &[SpanEvent]) -> Vec<f64> {
    let end = |e: &SpanEvent| e.start_us + e.dur_us;
    // Per thread, parents before children: earlier start first, and of two
    // spans starting together the longer one encloses the other.
    let mut order: Vec<usize> = (0..events.len()).collect();
    order.sort_by(|&a, &b| {
        let (a, b) = (&events[a], &events[b]);
        a.thread
            .cmp(&b.thread)
            .then(a.start_us.total_cmp(&b.start_us))
            .then(b.dur_us.total_cmp(&a.dur_us))
    });
    let mut self_us: Vec<f64> = events.iter().map(|e| e.dur_us).collect();
    // Open spans of the current thread, innermost last.
    let mut open: Vec<usize> = Vec::new();
    for &i in &order {
        let span = &events[i];
        while open.last().is_some_and(|&top| {
            events[top].thread != span.thread || end(&events[top]) <= span.start_us
        }) {
            open.pop();
        }
        if let Some(&parent) = open.last() {
            // Clipped to the parent: clock jitter must not make a child
            // cover more than its parent has.
            self_us[parent] -= (end(span).min(end(&events[parent])) - span.start_us).max(0.0);
        }
        open.push(i);
    }
    self_us.into_iter().map(|us| us.max(0.0)).collect()
}

impl Serialize for PhaseBreakdown {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("wall_ms".to_string(), Value::F64(self.wall_ms)),
            (
                "phases".to_string(),
                Value::Array(
                    self.phases
                        .iter()
                        .map(|p| {
                            Value::Object(vec![
                                ("name".to_string(), Value::Str(p.name.to_string())),
                                ("count".to_string(), Value::U64(p.count)),
                                ("total_ms".to_string(), Value::F64(p.total_ms)),
                                ("mean_us".to_string(), Value::F64(p.mean_us)),
                                ("share".to_string(), Value::F64(p.share)),
                                ("self_ms".to_string(), Value::F64(p.self_ms)),
                                ("self_share".to_string(), Value::F64(p.self_share)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(name: &'static str, start_us: f64, dur_us: f64, thread: u32) -> SpanEvent {
        SpanEvent {
            name,
            start_us,
            dur_us,
            thread,
            args: Vec::new(),
        }
    }

    #[test]
    fn chrome_trace_has_one_track_per_thread() {
        let events = vec![
            event("a", 0.0, 10.0, 0),
            event("b", 2.0, 3.0, 1),
            event("a", 5.0, 1.0, 1),
        ];
        let trace = chrome_trace(&events);
        let items = trace.get("traceEvents").unwrap().as_array().unwrap();
        // 2 thread_name metadata events + 3 span events.
        assert_eq!(items.len(), 5);
        let metadata = items
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("M"))
            .count();
        assert_eq!(metadata, 2);
        for item in items {
            assert!(item.get("pid").is_some());
            assert!(item.get("tid").is_some());
        }
    }

    #[test]
    fn chrome_trace_carries_span_args() {
        let mut e = event("engine.worker", 0.0, 1.0, 0);
        e.args = vec![("worker", 3)];
        let trace = chrome_trace(&[e]);
        let items = trace.get("traceEvents").unwrap().as_array().unwrap();
        let span = items
            .iter()
            .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .unwrap();
        let worker = span.get("args").and_then(|a| a.get("worker"));
        assert_eq!(worker.and_then(|w| w.as_u64()), Some(3));
    }

    #[test]
    fn empty_breakdown_is_all_zeros() {
        let breakdown = PhaseBreakdown::from_events(&[]);
        assert!(breakdown.phases.is_empty());
        assert_eq!(breakdown.wall_ms, 0.0);
        // Rendering an empty breakdown must not divide by zero.
        assert!(breakdown.to_markdown().contains("wall clock: 0.000 ms"));
    }

    #[test]
    fn zero_duration_spans_produce_finite_shares() {
        // All spans instantaneous at the same timestamp: wall window is 0,
        // shares must be 0, not NaN.
        let events = vec![event("a", 5.0, 0.0, 0), event("b", 5.0, 0.0, 0)];
        let breakdown = PhaseBreakdown::from_events(&events);
        assert_eq!(breakdown.wall_ms, 0.0);
        for row in &breakdown.phases {
            assert!(row.share.is_finite());
            assert_eq!(row.share, 0.0);
            assert!(row.mean_us.is_finite());
        }
    }

    #[test]
    fn breakdown_aggregates_and_sorts_by_total() {
        let events = vec![
            event("small", 0.0, 10.0, 0),
            event("big", 0.0, 100.0, 0),
            event("small", 20.0, 30.0, 1),
        ];
        let breakdown = PhaseBreakdown::from_events(&events);
        assert_eq!(breakdown.phases[0].name, "big");
        assert_eq!(breakdown.phases[1].name, "small");
        assert_eq!(breakdown.phases[1].count, 2);
        assert!((breakdown.phases[1].total_ms - 0.04).abs() < 1e-12);
        assert!((breakdown.phases[1].mean_us - 20.0).abs() < 1e-12);
        assert!((breakdown.wall_ms - 0.1).abs() < 1e-12);
        let md = breakdown.to_markdown();
        assert!(md.contains("| `big` |"));
        assert!(md.contains("| `small` | 2 |"));
        assert!(!md.contains("exceed 100%"));
    }

    #[test]
    fn self_time_subtracts_child_spans_per_thread() {
        // Thread 0: outer [0, 100) holding mid [10, 60) holding inner
        // [20, 30), and a second child [70, 90). Thread 1 runs an `outer`
        // [5, 45) with a `mid` [40, 80) that overruns it by 35 µs (clock
        // jitter) — a span on another thread never counts as a child.
        let events = vec![
            event("outer", 0.0, 100.0, 0),
            event("mid", 10.0, 50.0, 0),
            event("inner", 20.0, 10.0, 0),
            event("inner", 70.0, 20.0, 0),
            event("outer", 5.0, 40.0, 1),
            event("mid", 40.0, 40.0, 1),
        ];
        let breakdown = PhaseBreakdown::from_events(&events);
        let row = |name: &str| {
            breakdown
                .phases
                .iter()
                .find(|p| p.name == name)
                .unwrap()
                .clone()
        };
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        // outer: 100 - 50 (mid) - 20 (inner) on thread 0, plus 40 - 5 (mid,
        // clipped to outer's end) on thread 1.
        assert!(close(row("outer").self_ms, (30.0 + 35.0) / 1e3));
        // mid: 50 - 10 on thread 0, and 40 on thread 1 (its overrun is past
        // its own parent, so it has no child).
        assert!(close(row("mid").self_ms, (40.0 + 40.0) / 1e3));
        assert!(close(row("inner").self_ms, 30.0 / 1e3));
        // Wall window [0, 100): per thread, self-times partition the traced
        // time, so the shares of thread 0 alone sum to exactly 1.
        let thread0 = PhaseBreakdown::from_events(&events[..4]);
        let sum: f64 = thread0.phases.iter().map(|p| p.self_share).sum();
        assert!(close(sum, 1.0), "single-thread self shares sum to {sum}");
        for p in &breakdown.phases {
            assert!(p.self_ms <= p.total_ms + 1e-12);
            assert!(p.self_share.is_finite());
        }
    }
}

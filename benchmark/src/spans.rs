//! Self-time attribution over the spans the program already emits.
//!
//! The program's telemetry reports *inclusive* span durations. A layer's
//! self-time is its span's duration minus the interval its same-thread child
//! spans cover; summed over all spans of a thread, self-times partition that
//! thread's traced time exactly, so "where did the wall clock go" has one
//! answer instead of shares that exceed 100 %.

use defines_telemetry::SpanEvent;
use std::collections::BTreeMap;

/// Spans whose names start with this prefix are the harness's own (around
/// its calls into the program); everything else is emitted by the program.
pub const HARNESS_PREFIX: &str = "bench.";

/// The harness's root span around one traced job.
pub const ROOT_SPAN: &str = "bench.job";

/// Aggregate of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Number of spans.
    pub count: u64,
    /// Summed inclusive duration, µs.
    pub total_us: f64,
    /// Summed self-time, µs.
    pub self_us: f64,
}

/// Per-name totals of a trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SelfTimes(BTreeMap<&'static str, SpanTotals>);

impl SelfTimes {
    /// Computes self-times: per thread, spans are nested by interval
    /// containment (a span's parent is the innermost earlier span of the
    /// same thread still open when it starts), and every span's duration is
    /// charged against its parent's self-time.
    pub fn from_events(events: &[SpanEvent]) -> Self {
        let mut by_thread: BTreeMap<u32, Vec<&SpanEvent>> = BTreeMap::new();
        for event in events {
            by_thread.entry(event.thread).or_default().push(event);
        }
        let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for spans in by_thread.values_mut() {
            // Parents before children: earlier start first, and of two spans
            // starting together the longer one encloses the other.
            spans.sort_by(|a, b| {
                a.start_us
                    .total_cmp(&b.start_us)
                    .then(b.dur_us.total_cmp(&a.dur_us))
            });
            // Open spans, innermost last.
            struct Open {
                name: &'static str,
                end_us: f64,
                dur_us: f64,
                /// µs of this span covered by its direct children.
                covered_us: f64,
            }
            let mut open: Vec<Open> = Vec::new();
            let mut close = |span: Open| {
                totals.entry(span.name).or_default().self_us +=
                    (span.dur_us - span.covered_us).max(0.0);
            };
            for span in spans.iter() {
                while open.last().is_some_and(|top| top.end_us <= span.start_us) {
                    close(open.pop().expect("checked non-empty"));
                }
                let end_us = span.start_us + span.dur_us;
                if let Some(parent) = open.last_mut() {
                    // Clipped to the parent: clock jitter must not make a
                    // child cover more than its parent has.
                    parent.covered_us += (end_us.min(parent.end_us) - span.start_us).max(0.0);
                }
                open.push(Open {
                    name: span.name,
                    end_us,
                    dur_us: span.dur_us,
                    covered_us: 0.0,
                });
            }
            open.into_iter().for_each(&mut close);
            for span in spans.iter() {
                let entry = totals.entry(span.name).or_default();
                entry.count += 1;
                entry.total_us += span.dur_us;
            }
        }
        Self(totals)
    }

    /// Totals of one span name (zeros when absent).
    pub fn get(&self, name: &str) -> SpanTotals {
        self.0.get(name).copied().unwrap_or_default()
    }

    /// Summed self-time of several span names, µs.
    pub fn self_us(&self, names: &[&str]) -> f64 {
        names.iter().map(|n| self.get(n).self_us).sum()
    }

    /// Summed self-time of every span the *program* emitted, µs.
    pub fn program_self_us(&self) -> f64 {
        self.0
            .iter()
            .filter(|(name, _)| !name.starts_with(HARNESS_PREFIX))
            .map(|(_, t)| t.self_us)
            .sum()
    }

    /// Every name with its totals, by name.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, SpanTotals)> + '_ {
        self.0.iter().map(|(name, totals)| (*name, *totals))
    }
}

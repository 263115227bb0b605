//! Cross-crate telemetry integration tests: multi-threaded span recording,
//! Chrome-trace JSON round-tripping through the real parser, and the
//! bit-identity guarantee — enabling tracing must not change any sweep
//! result.
//!
//! Telemetry state (enable flags, span sink, metric registry) is global, so
//! every test serializes on one lock.

use defines_core::{Explorer, OverlapMode};
use defines_telemetry::{span, SpanEvent};
use std::sync::{Mutex, MutexGuard};

static TEST_LOCK: Mutex<()> = Mutex::new(());

/// Serializes the test and leaves telemetry disabled with a clean sink,
/// whatever the previous test did.
fn telemetry_test() -> MutexGuard<'static, ()> {
    let guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    defines_telemetry::set_tracing(false);
    defines_telemetry::set_metrics(false);
    defines_telemetry::clear_events();
    guard
}

#[test]
fn spans_from_many_threads_merge_without_loss() {
    let _guard = telemetry_test();
    defines_telemetry::set_tracing(true);

    const THREADS: usize = 8;
    const SPANS_PER_THREAD: usize = 250;
    std::thread::scope(|scope| {
        for worker in 0..THREADS {
            scope.spawn(move || {
                // The engine worker protocol: an explicit flush guard,
                // because a scope owner can resume before a scoped thread's
                // exit-time TLS flush has run.
                let _flush = defines_telemetry::flush_on_exit();
                for _ in 0..SPANS_PER_THREAD {
                    let _span = span!("test.work", worker = worker);
                }
            });
        }
    });

    let events = defines_telemetry::drain_events();
    defines_telemetry::set_tracing(false);

    assert_eq!(events.len(), THREADS * SPANS_PER_THREAD);
    assert!(events.iter().all(|e| e.name == "test.work"));
    // Every spawned thread got its own id, and each recorded its full batch.
    let mut threads: Vec<u32> = events.iter().map(|e| e.thread).collect();
    threads.sort_unstable();
    threads.dedup();
    assert_eq!(threads.len(), THREADS);
    for tid in threads {
        let per_thread = events.iter().filter(|e| e.thread == tid).count();
        assert_eq!(per_thread, SPANS_PER_THREAD);
    }
    // The per-thread worker argument survives the merge.
    let workers: std::collections::HashSet<u64> = events
        .iter()
        .map(|e| e.args.iter().find(|(k, _)| *k == "worker").unwrap().1)
        .collect();
    assert_eq!(workers.len(), THREADS);
}

/// A conv layer whose mapping search walks the full 720-ordering space.
fn six_loop_conv() -> (defines_arch::Accelerator, defines_workload::Layer) {
    let layer = defines_workload::Layer::new(
        "c",
        defines_workload::OpType::Conv,
        defines_workload::LayerDims::conv(64, 32, 28, 28, 3, 3),
    );
    (defines_arch::zoo::meta_proto_like_df(), layer)
}

/// The `search.*` telemetry counters must agree with the stats the search
/// returns: the mirrored counter deltas satisfy the same accounting invariant
/// (`evaluated + pruned = selected`).
#[test]
fn search_counters_stay_consistent_with_returned_stats() {
    let _guard = telemetry_test();
    defines_telemetry::set_metrics(true);

    let (acc, layer) = six_loop_conv();
    let problem = defines_mapping::SingleLayerProblem::new(&acc, &layer);
    let mapper = defines_mapping::LomaMapper::default();

    let before = defines_telemetry::snapshot();
    let cost = mapper.optimize(&problem);
    let delta = defines_telemetry::snapshot().since(&before);
    defines_telemetry::set_metrics(false);

    let (reference, stats) = mapper.optimize_with_stats(&problem);
    assert_eq!(cost, reference);

    let evaluated = delta.get("search.orderings_evaluated").unwrap_or(0);
    let pruned_bound = delta.get("search.pruned_bound").unwrap_or(0);
    let pruned_symmetry = delta.get("search.pruned_symmetry").unwrap_or(0);
    assert_eq!(
        (evaluated, pruned_bound, pruned_symmetry),
        (stats.evaluated, stats.pruned_bound, stats.pruned_symmetry),
        "mirrored counters must equal the returned stats: {delta:?}"
    );
    assert_eq!(
        evaluated + pruned_bound + pruned_symmetry,
        stats.orderings_selected,
        "mirrored counters must account for every candidate ordering: {delta:?}"
    );
    assert!(evaluated > 0, "the search evaluated at least the winner");
}

/// Searches share nothing: however many threads miss one cold key at once,
/// each racing search does exactly the work of a lone search, so the global
/// `search.*` counters are `misses` times the single-search stats.
#[test]
fn search_counters_are_independent_of_concurrent_searches() {
    let _guard = telemetry_test();
    defines_telemetry::set_metrics(true);

    const THREADS: usize = 8;
    let (acc, layer) = six_loop_conv();
    let problem = defines_mapping::SingleLayerProblem::new(&acc, &layer);
    let mapper = defines_mapping::LomaMapper::default();
    let cache = defines_mapping::MappingCache::new();
    let barrier = std::sync::Barrier::new(THREADS);

    let before = defines_telemetry::snapshot();
    let costs: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    cache.optimize_shared(&mapper, &problem)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let delta = defines_telemetry::snapshot().since(&before);
    defines_telemetry::set_metrics(false);

    let (reference, single) = mapper.optimize_with_stats(&problem);
    assert!(costs.iter().all(|c| **c == reference));
    let stats = cache.stats();
    assert_eq!(stats.entries, 1);
    assert_eq!(stats.hits + stats.misses, THREADS as u64);
    assert!(stats.misses >= 1);
    assert_eq!(
        delta.get("search.orderings_evaluated").unwrap_or(0),
        stats.misses * single.evaluated,
        "{stats:?} {delta:?}"
    );
    assert_eq!(
        delta.get("search.pruned_bound").unwrap_or(0),
        stats.misses * single.pruned_bound,
        "{stats:?} {delta:?}"
    );
}

#[test]
fn chrome_trace_round_trips_through_the_json_parser() {
    let _guard = telemetry_test();

    let events = vec![
        SpanEvent {
            name: "explore.sweep",
            start_us: 0.0,
            dur_us: 125.5,
            thread: 0,
            args: Vec::new(),
        },
        SpanEvent {
            name: "engine.execute",
            start_us: 10.25,
            dur_us: 50.0,
            thread: 1,
            args: vec![("point", 7)],
        },
    ];
    let text = defines_telemetry::chrome_trace(&events).to_json();
    let parsed = serde_json::from_str(&text).expect("trace must be valid JSON");

    let items = parsed
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    // 2 thread_name metadata events (one per track) + 2 span events.
    assert_eq!(items.len(), 4);
    let span = items
        .iter()
        .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("engine.execute"))
        .expect("engine.execute span present");
    assert_eq!(span.get("ph").and_then(|p| p.as_str()), Some("X"));
    assert_eq!(span.get("tid").and_then(|t| t.as_u64()), Some(1));
    assert_eq!(
        span.get("args")
            .and_then(|a| a.get("point"))
            .and_then(|p| p.as_u64()),
        Some(7)
    );
    for item in items {
        assert!(item.get("pid").is_some());
        assert!(item.get("tid").is_some());
    }
}

#[test]
fn tracing_does_not_change_sweep_results() {
    let _guard = telemetry_test();

    let accelerator = defines_arch::zoo::meta_proto_like_df();
    let net = defines_workload::models::fsrcnn();
    let tiles = [(60, 72), (960, 540)];

    let model = defines_core::DfCostModel::new(&accelerator).with_fast_mapper();
    let untraced = Explorer::new(&model)
        .sweep(&net, &tiles, &OverlapMode::ALL)
        .expect("untraced sweep");

    // A fresh model for the traced run: mapping caches start cold, so the
    // `mapping.search` spans (recorded on cache misses) actually fire.
    let fresh = defines_core::DfCostModel::new(&accelerator).with_fast_mapper();
    defines_telemetry::set_tracing(true);
    defines_telemetry::set_metrics(true);
    let traced = Explorer::new(&fresh)
        .sweep(&net, &tiles, &OverlapMode::ALL)
        .expect("traced sweep");
    let events = defines_telemetry::drain_events();
    defines_telemetry::set_tracing(false);
    defines_telemetry::set_metrics(false);

    // The signature invariant: instrumentation observes the pipeline, it
    // never perturbs it.
    assert_eq!(untraced, traced);
    // And the traced run actually recorded the pipeline stages.
    for prefix in ["explore.", "engine.", "evaluate.", "mapping."] {
        assert!(
            events.iter().any(|e| e.name.starts_with(prefix)),
            "no {prefix}* span recorded"
        );
    }
}

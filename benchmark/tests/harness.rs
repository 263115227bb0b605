//! Tests of the harness itself: the statistics, the self-time attribution,
//! the seeded generators, the result hash, and that the committed documents
//! (`BENCHMARK.json`, `baseline.json`) agree with the code.

use defines_benchmark::metrics::{fnv48, MetricDef, Values, END_TO_END, PER_LAYER};
use defines_benchmark::rng::Rng;
use defines_benchmark::sample::{tail_percentile, Samples};
use defines_benchmark::spans::SelfTimes;
use defines_benchmark::workloads::{self, serve, WORKLOADS};
use defines_benchmark::{inputs, spec};
use defines_core::{DfCostModel, Explorer, FusePolicy, OptimizeTarget, OverlapMode};
use defines_telemetry::SpanEvent;
use serde::Value;

// ---- sampling ----

#[test]
fn tail_percentile_needs_ten_samples_beyond_it() {
    assert_eq!(tail_percentile(1), None);
    assert_eq!(tail_percentile(19), None);
    assert_eq!(tail_percentile(20), Some(50.0));
    assert_eq!(tail_percentile(39), Some(50.0));
    assert_eq!(tail_percentile(40), Some(75.0));
    assert_eq!(tail_percentile(100), Some(90.0));
    assert_eq!(tail_percentile(199), Some(90.0));
    assert_eq!(tail_percentile(200), Some(95.0));
    assert_eq!(tail_percentile(1000), Some(99.0));
    assert_eq!(tail_percentile(10_000), Some(99.9));
    assert_eq!(tail_percentile(100_000), Some(99.99));
}

#[test]
fn summary_matches_python_statistics_on_known_samples() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let shuffled = [7.0, 1.0, 10.0, 4.0, 3.0, 9.0, 2.0, 8.0, 6.0, 5.0];
    let s = Samples::from_iter(shuffled).summary().unwrap();
    assert_eq!((s.n, s.min, s.max), (10, 1.0, 10.0));
    assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
    assert_eq!(s.tail, None);

    // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
    let s = Samples::from_iter([3.0, 1.0, 2.0]).summary().unwrap();
    assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));

    // 1..=100: p90 is the highest percentile with ten samples beyond it, and
    // its nearest-rank value is the 90th sample.
    let s = Samples::from_iter((1..=100).map(f64::from))
        .summary()
        .unwrap();
    assert_eq!(s.tail, Some((90.0, 90.0)));
    assert_eq!(s.median, 50.5);

    assert!(Samples::new().summary().is_none());
    assert_eq!(Samples::from_iter([4.0]).summary().unwrap().q3, 4.0);
}

// ---- self-time ----

fn span(name: &'static str, start_us: f64, end_us: f64, thread: u32) -> SpanEvent {
    SpanEvent {
        name,
        start_us,
        dur_us: end_us - start_us,
        thread,
        args: Vec::new(),
    }
}

#[test]
fn self_time_subtracts_same_thread_children_only() {
    // Thread 0: root ⊃ {a ⊃ b, a}; thread 1: c ⊃ a. Given out of order, as a
    // drain delivers them (children close before parents).
    let events = vec![
        span("b", 20.0, 30.0, 0),
        span("a", 10.0, 40.0, 0),
        span("a", 10.0, 20.0, 1),
        span("a", 50.0, 70.0, 0),
        span("bench.job", 0.0, 100.0, 0),
        span("c", 0.0, 50.0, 1),
    ];
    let times = SelfTimes::from_events(&events);
    let root = times.get("bench.job");
    assert_eq!((root.count, root.total_us, root.self_us), (1, 100.0, 50.0));
    let a = times.get("a");
    assert_eq!((a.count, a.total_us, a.self_us), (3, 60.0, 50.0));
    assert_eq!(times.get("b").self_us, 10.0);
    // The span on thread 1 overlapping thread 0's root in time is not its child.
    assert_eq!(times.get("c").self_us, 40.0);
    // Self-times partition each thread's traced time: 100 µs + 50 µs.
    let total: f64 = times.iter().map(|(_, t)| t.self_us).sum();
    assert_eq!(total, 150.0);
    // Program spans exclude the harness's own.
    assert_eq!(times.program_self_us(), 100.0);
    assert_eq!(times.self_us(&["a", "b", "missing"]), 60.0);
    assert_eq!(times.get("missing").count, 0);
}

#[test]
fn self_time_handles_back_to_back_and_coincident_spans() {
    // Siblings touching end to start, and a child starting with its parent.
    let events = vec![
        span("parent", 0.0, 30.0, 0),
        span("x", 0.0, 10.0, 0),
        span("y", 10.0, 20.0, 0),
        span("z", 20.0, 30.0, 0),
    ];
    let times = SelfTimes::from_events(&events);
    assert_eq!(times.get("parent").self_us, 0.0);
    assert_eq!(times.self_us(&["x", "y", "z"]), 30.0);
    assert_eq!(SelfTimes::from_events(&[]).program_self_us(), 0.0);
}

// ---- seeded generators ----

#[test]
fn rng_is_reproducible_and_seed_sensitive() {
    let stream = |seed| {
        let mut rng = Rng::new(seed);
        (0..8).map(|_| rng.next_u64()).collect::<Vec<_>>()
    };
    assert_eq!(stream(1), stream(1));
    assert_ne!(stream(1), stream(2));
    // Forks are independent of each other and of draws made elsewhere.
    let root = Rng::new(7);
    assert_ne!(
        root.fork("tiles").next_u64(),
        root.fork("requests").next_u64()
    );
    assert_eq!(
        root.fork("tiles").next_u64(),
        Rng::new(7).fork("tiles").next_u64()
    );
    let mut rng = Rng::new(3);
    assert!((0..1000).all(|_| (5..=9).contains(&rng.range(5, 9))));
    let mut items: Vec<u32> = (0..50).collect();
    Rng::new(4).shuffle(&mut items);
    assert_ne!(items, (0..50).collect::<Vec<_>>());
    items.sort_unstable();
    assert_eq!(items, (0..50).collect::<Vec<_>>());
}

#[test]
fn seeded_tiles_are_reproducible_off_grid_and_seed_sensitive() {
    let net = inputs::load_workload("fsrcnn").unwrap();
    let draw = |seed| inputs::seeded_tiles(&mut Rng::new(seed), &net, 6);
    assert_eq!(draw(1), draw(1));
    assert_ne!(draw(1), draw(2));
    let grid = Explorer::default_tile_grid(&net);
    let tiles = draw(1);
    assert_eq!(tiles.len(), 6);
    for (i, tile) in tiles.iter().enumerate() {
        assert!(!grid.contains(tile), "{tile:?} is on the default grid");
        assert!(!tiles[..i].contains(tile), "{tile:?} drawn twice");
    }
    let with_grid = inputs::grid_with_seeded_tiles(&mut Rng::new(1), &net, 6);
    assert_eq!(with_grid[..grid.len()], grid[..]);
    assert_eq!(with_grid[grid.len()..], tiles[..]);
    // The degenerate 1×1 sink of a classification net still gets real tiles.
    let mobilenet = inputs::load_workload("mobilenet-v1").unwrap();
    assert!(inputs::seeded_tiles(&mut Rng::new(1), &mobilenet, 2)
        .iter()
        .all(|&(x, y)| x > 1 && y > 1));
}

#[test]
fn seeded_requests_are_reproducible_distinct_and_valid() {
    let draw = |seed| serve::seeded_requests(&mut Rng::new(seed)).unwrap();
    let lines = draw(1);
    assert_eq!(lines, draw(1));
    assert_ne!(lines, draw(2));
    assert_eq!(lines.len(), serve::DISTINCT + serve::BURST_DISTINCT);
    let mut keys: Vec<String> = lines
        .iter()
        .map(|line| serve::parse_request(line).unwrap().canonical_key())
        .collect();
    keys.sort();
    keys.dedup();
    assert_eq!(keys.len(), lines.len(), "requests must be distinct");
    // Exactly one request names its workload by document path, and it is
    // one of the distinct set (so the cold phase pays the loader for it).
    let path_named: Vec<usize> = (0..lines.len())
        .filter(|&i| lines[i].contains("workloads/"))
        .collect();
    assert_eq!(path_named.len(), 1);
    assert!(path_named[0] < serve::DISTINCT);
    // Every seed draws from the same pool: same (workload, accelerator)
    // pairs, so rounds cost about the same.
    let pairs = |lines: &[String]| {
        let mut pairs: Vec<(String, String)> = lines
            .iter()
            .map(|line| {
                let r = serve::parse_request(line).unwrap();
                let workload = r.workload.trim_start_matches("workloads/");
                (
                    workload.trim_end_matches(".json").to_string(),
                    r.accelerator,
                )
            })
            .collect();
        pairs.sort();
        pairs
    };
    assert_eq!(pairs(&lines), pairs(&draw(9)));
}

// ---- result hash ----

#[test]
fn result_fnv_is_stable_for_a_fixed_input_and_moves_with_the_result() {
    let acc = inputs::load_accelerator("meta-proto-df").unwrap();
    let net = inputs::load_workload("reference").unwrap();
    let hash = |tile: (u64, u64)| {
        // A fresh model (cold cache) every time: the hash must not depend on
        // cache state.
        let model = DfCostModel::new(&acc).with_fast_mapper();
        let schedule = Explorer::new(&model)
            .with_threads(1)
            .best_schedule(
                &net,
                &[tile],
                &OverlapMode::ALL,
                OptimizeTarget::Energy,
                &FusePolicy::Auto,
            )
            .unwrap();
        workloads::schedule_fnv(&schedule)
    };
    assert_eq!(hash((16, 16)), hash((16, 16)));
    assert_ne!(hash((16, 16)), hash((5, 7)));
    // The metric carries the 48 high bits, exactly.
    assert_eq!(fnv48(0xdead_beef_cafe_f00d), 0xdead_beef_cafe_u64 as f64);
    assert_eq!(fnv48(u64::MAX) as u64, u64::MAX >> 16);
}

// ---- the committed documents ----

fn names_are_unique_and_well_formed(table: &[MetricDef]) {
    for (i, def) in table.iter().enumerate() {
        assert!(
            !table[..i].iter().any(|d| d.name == def.name),
            "{} listed twice",
            def.name
        );
        let name_ok = def.name.len() <= 64
            && def.name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
        assert!(name_ok, "bad metric name {}", def.name);
        let unit_ok = !def.unit.is_empty()
            && def.unit.len() <= 16
            && def
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c));
        assert!(unit_ok, "bad unit {} of {}", def.unit, def.name);
        assert!(["lower", "higher"].contains(&def.better));
    }
}

#[test]
fn metric_tables_meet_the_contract_limits() {
    names_are_unique_and_well_formed(&END_TO_END);
    names_are_unique_and_well_formed(&PER_LAYER);
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    for def in END_TO_END {
        assert!(def.bound > 0.0 && def.bound <= 0.25, "{}", def.name);
    }
    let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
    // Set-up time carries the largest bound.
    assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
}

fn documented(table: &Value) -> Vec<(String, String, String, Option<f64>)> {
    table
        .as_array()
        .unwrap()
        .iter()
        .map(|m| {
            let field = |key: &str| m.get(key).unwrap().as_str().unwrap().to_string();
            (
                field("name"),
                field("unit"),
                field("better"),
                m.get("bound").map(|b| b.as_f64().unwrap()),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_harness_metrics_and_workloads() {
    let doc = spec::benchmark();
    let keys: Vec<&str> = doc
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let e2e: Vec<_> = END_TO_END
        .iter()
        .map(|d| (d.name.into(), d.unit.into(), d.better.into(), Some(d.bound)))
        .collect();
    assert_eq!(documented(doc.get("end_to_end").unwrap()), e2e);
    let per_layer: Vec<_> = PER_LAYER
        .iter()
        .map(|d| (d.name.into(), d.unit.into(), d.better.into(), None))
        .collect();
    assert_eq!(documented(doc.get("per_layer").unwrap()), per_layer);

    let workloads: Vec<&str> = doc
        .get("workloads")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|w| {
            let why = w.get("why").unwrap().as_str().unwrap();
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
            w.get("name").unwrap().as_str().unwrap()
        })
        .collect();
    assert_eq!(workloads, WORKLOADS);
    assert_eq!(
        doc.get("paths").unwrap().as_array().unwrap(),
        [Value::Str("benchmark".into())]
    );
    let seconds = spec::run_seconds();
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
}

#[test]
fn baseline_pins_a_result_hash_for_every_workload() {
    let seed = spec::pinned_seed();
    for workload in WORKLOADS {
        assert!(
            spec::result_fnv(workload, seed).is_some(),
            "no pinned result_fnv for {workload}"
        );
        assert_eq!(spec::result_fnv(workload, seed + 1), None);
    }
}

#[test]
fn values_reject_unknown_names_and_zero_fill_missing_ones() {
    let mut values = Values::new();
    values.set("job_s", 1.5);
    let table = values.in_table_order(&END_TO_END).unwrap();
    assert_eq!(table.len(), END_TO_END.len());
    assert_eq!(table[0].1, 1.5);
    assert!(table[1..].iter().all(|(_, v)| *v == 0.0));
    values.set("no_such_metric", 1.0);
    assert!(values.in_table_order(&END_TO_END).is_err());
    assert!(workloads::setup("no-such-workload", 1).is_err());
}

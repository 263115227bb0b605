//! The metric tables. `BENCHMARK.json` at the repository root lists the same
//! names, units and directions (a harness test compares the two), and every
//! later performance claim is stated in these names.

use std::collections::BTreeMap;

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit, in the benchmark contract's alphabet (`us`, not `µs`).
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end only: the share of the parent's median by which the metric
    /// may worsen before a change counts as a regression.
    pub bound: f64,
}

const fn metric(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

/// A per-layer metric (no bound) that is better lower.
const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    metric(name, unit, "lower", 0.0)
}

/// A per-layer metric (no bound) that is better higher.
const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    metric(name, unit, "higher", 0.0)
}

/// The end-to-end metrics, reported by every workload with tracing off.
///
/// Every bound is the contract's cap of 25 %. Quiet ten-seed sets on the
/// 2-core reference host spread by 1.5–5 % (IQR ÷ median) on the timings,
/// but the host also shifts regime for minutes at a time — one set had half
/// its `sweep-warm` runs 15 % slower, two sets of `serve-mix` 25 minutes
/// apart differed by 19 % in their medians — and `peak_rss_mb` is bimodal
/// (±9 %) wherever more than one thread allocates. A tighter gate would
/// reject innocent changes; gains are judged by paired runs, not by this.
pub const END_TO_END: [MetricDef; 4] = [
    metric("job_s", "s", "lower", 0.25),
    metric("points_per_s", "1/s", "higher", 0.25),
    metric("peak_rss_mb", "MB", "lower", 0.25),
    metric("setup_s", "s", "lower", 0.25),
];

/// The per-layer metrics, reported by every workload's traced pass. A metric
/// reads 0 on a workload that does not exercise its layer.
pub const PER_LAYER: [MetricDef; 85] = [
    lower("workload.loader.load_us", "us"),
    lower("arch.loader.load_us", "us"),
    lower("arch.loader.fingerprint_ns", "ns"),
    lower("core.stack.partition_us", "us"),
    lower("core.stack.stacks", "count"),
    lower("core.backcalc.geometry_us", "us"),
    lower("core.backcalc.analyze_tile_us", "us"),
    lower("core.memlevel.placement_ns", "ns"),
    lower("core.datacopy.copy_cost_ns", "ns"),
    lower("core.evaluate.stack_self_ms", "ms"),
    lower("core.evaluate.tile_type_self_ms", "ms"),
    lower("core.evaluate.self_share", "ratio"),
    lower("core.evaluate.stack_calls", "count"),
    lower("core.evaluate.tile_types", "count"),
    lower("core.evaluate.stack_cold_us", "us"),
    lower("core.evaluate.stack_warm_us", "us"),
    lower("core.bounds.lower_bound_ns", "ns"),
    lower("core.explore.self_ms", "ms"),
    lower("core.fuse.enumerate_us", "us"),
    lower("core.fuse.partition_dp_us", "us"),
    lower("core.fuse.candidates", "count"),
    lower("core.matrix.run_ms", "ms"),
    lower("core.matrix.render_json_ms", "ms"),
    lower("core.matrix.render_md_ms", "ms"),
    lower("core.matrix.cells", "count"),
    lower("core.batch.run_ms", "ms"),
    lower("core.checkpoint.load_ms", "ms"),
    lower("core.checkpoint.bytes_per_cell", "bytes"),
    lower("mapping.search.self_ms", "ms"),
    lower("mapping.search.self_share", "ratio"),
    lower("mapping.search.searches", "count"),
    lower("mapping.search.orderings_evaluated", "count"),
    higher("mapping.search.pruned_bound", "count"),
    higher("mapping.search.pruned_symmetry", "count"),
    higher("mapping.search.prune_share", "ratio"),
    lower("mapping.search.ns_per_ordering", "ns"),
    lower("mapping.search.problem_fast_us", "us"),
    lower("mapping.search.problem_full_us", "us"),
    lower("mapping.cost.evaluate_ns", "ns"),
    higher("mapping.cache.hits", "count"),
    lower("mapping.cache.misses", "count"),
    higher("mapping.cache.canonical_hits", "count"),
    higher("mapping.cache.hit_share", "ratio"),
    lower("mapping.cache.entries", "count"),
    lower("mapping.cache.key_ns", "ns"),
    lower("mapping.cache.hit_ns", "ns"),
    lower("mapping.persist.open_ms", "ms"),
    lower("mapping.persist.load_us_per_entry", "us"),
    lower("mapping.persist.sync_ms", "ms"),
    lower("mapping.persist.compact_ms", "ms"),
    lower("mapping.persist.file_bytes", "bytes"),
    lower("mapping.persist.entries", "count"),
    lower("mapping.pool.search_us_t1", "us"),
    lower("mapping.pool.search_us_tn", "us"),
    higher("mapping.pool.speedup", "ratio"),
    lower("mapping.pool.steals", "count"),
    lower("engine.engine.self_ms", "ms"),
    lower("engine.engine.points_evaluated", "count"),
    higher("engine.engine.points_pruned", "count"),
    lower("engine.engine.dispatch_ns_per_point", "ns"),
    lower("engine.engine.dispatch_ns_per_point_tn", "ns"),
    higher("engine.engine.parallel_efficiency", "ratio"),
    lower("engine.memo.get_ns", "ns"),
    lower("serve.protocol.parse_us", "us"),
    lower("serve.protocol.render_us", "us"),
    lower("serve.protocol.response_bytes", "bytes"),
    lower("serve.server.cold_request_ms", "ms"),
    lower("serve.server.warm_request_ms", "ms"),
    lower("serve.server.memo_request_us", "us"),
    lower("serve.server.restart_ms", "ms"),
    lower("serve.server.roundtrip_floor_us", "us"),
    lower("serve.server.memo_p99_us", "us"),
    lower("serve.server.overhead_ms", "ms"),
    lower("serve.server.computed", "count"),
    higher("serve.server.memo_hits", "count"),
    higher("serve.server.batched", "count"),
    higher("serve.server.coalesce_share", "ratio"),
    lower("serve.server.shutdown_ms", "ms"),
    lower("telemetry.trace_overhead_share", "ratio"),
    lower("telemetry.spans", "count"),
    higher("telemetry.coverage_share", "ratio"),
    lower("model.best_energy_mj", "mJ"),
    lower("model.best_latency_mcycles", "Mcycles"),
    lower("model.dram_mb", "MB"),
    lower("model.result_fnv", "fnv48"),
];

/// Metric values by name, checked against a table when rendered: a name the
/// table lacks is a harness bug, a table entry without a value reads 0.
#[derive(Debug, Clone, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets one value (the last write wins).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// Sets several values.
    pub fn extend(&mut self, values: impl IntoIterator<Item = (&'static str, f64)>) {
        self.0.extend(values);
    }

    /// One value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The values in table order. Fails on a name the table does not have.
    pub fn in_table_order(&self, table: &[MetricDef]) -> Result<Vec<(MetricDef, f64)>, String> {
        if let Some(unknown) = self.0.keys().find(|k| table.iter().all(|m| m.name != **k)) {
            return Err(format!("metric '{unknown}' is not in the metric table"));
        }
        Ok(table
            .iter()
            .map(|def| (*def, self.get(def.name).unwrap_or(0.0)))
            .collect())
    }
}

/// The 48 high bits of a result hash: the most an `f64` metric value carries
/// exactly.
pub fn fnv48(hash: u64) -> f64 {
    (hash >> 16) as f64
}

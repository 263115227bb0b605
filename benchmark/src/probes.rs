//! Per-layer probes: direct timings of the public functions that carry no
//! span of their own, on inputs derived from the workload's own networks,
//! tiles and requests. Probes run after the traced jobs, outside any timed
//! job, and report the median time per call.

use crate::clock::now;
use crate::inputs;
use crate::sample::Samples;
use crate::workloads::serve;
use defines_arch::{Accelerator, Operand};
use defines_core::backcalc::{StackGeometry, TileAnalysis};
use defines_core::datacopy::{copy_cost, DataCopyAction};
use defines_core::memlevel::{determine_placement, PlacementPolicy, PlacementRequest};
use defines_core::stack::partition_into_stacks;
use defines_core::tiling::TileGrid;
use defines_core::{
    run_batch, DfCostModel, DfStrategy, FuseDepth, FusePolicy, OptimizeTarget, OverlapMode, Stack,
    StrategyBounds, TileSize,
};
use defines_engine::{EngineConfig, MemoCache, SweepEngine};
use defines_mapping::temporal::candidate_orderings;
use defines_mapping::{
    CacheStore, LomaMapper, MapperConfig, MappingCache, ProblemKey, SingleLayerProblem,
};
use defines_serve::render_outcome;
use defines_workload::Network;
use serde::Value;
use std::hint::black_box;
use std::path::Path;

/// Caps on how many inputs of a kind a probe visits, so the probe phase
/// stays a few seconds whatever the workload's size.
const MAX_STACKS: usize = 12;
const MAX_PROBLEMS: usize = 12;
const MAX_STACK_EVALS: usize = 24;
/// No-op design points of the engine dispatch probe.
const DISPATCH_POINTS: usize = 20_000;
/// Most cache entries the persistence probe writes and reloads (the
/// matrix's 40 k would take seconds per repetition; the figures of interest
/// are per entry).
const MAX_STORE_ENTRIES: usize = 8192;
/// Repetitions of the file-system probes (each is one sample).
const IO_REPS: usize = 3;

/// What the probes run on.
pub struct ProbeInputs {
    /// Document specs behind `nets` / `accs` (loader probes).
    pub workload_specs: Vec<String>,
    pub accelerator_specs: Vec<String>,
    pub nets: Vec<Network>,
    pub accs: Vec<Accelerator>,
    /// Tile sizes per network.
    pub tiles: Vec<Vec<(u64, u64)>>,
    /// Whether the workload runs the fast mapper preset.
    pub fast_mapper: bool,
    /// Request lines (protocol and batch probes).
    pub requests: Vec<String>,
    /// The mapping cache the workload's most recent job filled.
    pub cache: MappingCache,
}

impl ProbeInputs {
    /// Request lines for a workload that has none of its own: one per
    /// network, against `accelerator`, over the network's last two tile sizes.
    pub fn derived_requests(
        workload_specs: &[&str],
        accelerator: &str,
        tiles: &[Vec<(u64, u64)>],
        fuse: &FusePolicy,
    ) -> Vec<String> {
        workload_specs
            .iter()
            .zip(tiles)
            .map(|(spec, tiles)| {
                let last_two = &tiles[tiles.len().saturating_sub(2)..];
                let axis = |pick: fn(&(u64, u64)) -> u64| {
                    Value::Array(last_two.iter().map(|t| Value::U64(pick(t))).collect())
                };
                Value::Object(vec![
                    ("workload".into(), Value::Str(spec.to_string())),
                    ("accelerator".into(), Value::Str(accelerator.to_string())),
                    ("fuse".into(), Value::Str(fuse.keyword().to_string())),
                    ("tilex".into(), axis(|t| t.0)),
                    ("tiley".into(), axis(|t| t.1)),
                ])
                .to_json()
            })
            .collect()
    }

    /// Inputs of the daemon workload: networks, accelerators and tiles are
    /// the ones its request lines name.
    pub fn for_requests(requests: &[String], cache: MappingCache) -> Result<Self, String> {
        let mut inputs = Self {
            workload_specs: Vec::new(),
            accelerator_specs: Vec::new(),
            nets: Vec::new(),
            accs: Vec::new(),
            tiles: Vec::new(),
            fast_mapper: true,
            requests: requests.to_vec(),
            cache,
        };
        for (request, item) in serve::batch_items(requests)? {
            if !inputs.workload_specs.contains(&request.workload) {
                inputs.workload_specs.push(request.workload);
                inputs.tiles.push(
                    item.tile_grid.unwrap_or_else(|| {
                        defines_core::Explorer::default_tile_grid(&item.network)
                    }),
                );
                inputs.nets.push(item.network);
            }
            if !inputs.accelerator_specs.contains(&request.accelerator) {
                inputs.accelerator_specs.push(request.accelerator);
                inputs.accs.push(item.accelerator);
            }
        }
        Ok(inputs)
    }

    fn mapper_config(&self) -> MapperConfig {
        if self.fast_mapper {
            MapperConfig::fast()
        } else {
            MapperConfig::default()
        }
    }

    fn model<'a>(&self, acc: &'a Accelerator) -> DfCostModel<'a> {
        DfCostModel::new(acc).with_mapper(self.mapper_config())
    }

    /// The fuse-heuristic stacks of every network on the first accelerator,
    /// with the network's index, capped at [`MAX_STACKS`] (round-robin over
    /// the networks so each contributes).
    fn stacks(&self) -> Vec<(usize, Stack)> {
        let per_net: Vec<Vec<Stack>> = self
            .nets
            .iter()
            .map(|net| partition_into_stacks(net, &self.accs[0], &FuseDepth::Auto))
            .collect();
        let deepest = per_net.iter().map(Vec::len).max().unwrap_or(0);
        (0..deepest)
            .flat_map(|depth| {
                per_net
                    .iter()
                    .enumerate()
                    .filter_map(move |(n, stacks)| stacks.get(depth).map(|s| (n, s.clone())))
            })
            .take(MAX_STACKS)
            .collect()
    }

    /// A middle tile size of network `n`'s list.
    fn mid_tile(&self, n: usize) -> TileSize {
        let (tx, ty) = self.tiles[n][self.tiles[n].len() / 2];
        TileSize::new(tx, ty)
    }
}

/// Median seconds per input of a probe: `pass` visits `items` inputs once;
/// each of the `batches` samples times `passes` back-to-back passes (several
/// passes keep the clock reads out of nanosecond-scale measurements).
fn per_item(batches: usize, passes: usize, items: usize, mut pass: impl FnMut()) -> f64 {
    (0..batches)
        .map(|_| {
            let start = now();
            for _ in 0..passes {
                pass();
            }
            start.elapsed().as_secs_f64() / (passes * items.max(1)) as f64
        })
        .collect::<Samples>()
        .median()
}

/// Runs every probe. `scratch` is a directory inside the checkout for the
/// probes that need files.
pub fn run(inputs: &ProbeInputs, scratch: &Path) -> Result<Vec<(&'static str, f64)>, String> {
    let mut out = Vec::new();
    loaders(inputs, &mut out)?;
    let analyses = geometry(inputs, &mut out);
    placement_and_copies(inputs, &analyses, &mut out);
    stack_evaluation(inputs, &mut out);
    bounds(inputs, &mut out);
    mapping(inputs, &mut out);
    engine(&mut out);
    persistence(inputs, scratch, &mut out)?;
    protocol_and_batch(inputs, &mut out)?;
    Ok(out)
}

type Out = Vec<(&'static str, f64)>;

fn loaders(inputs: &ProbeInputs, out: &mut Out) -> Result<(), String> {
    // Loads fail loudly once, outside the timed passes.
    for spec in &inputs.workload_specs {
        inputs::load_workload(spec)?;
    }
    for spec in &inputs.accelerator_specs {
        inputs::load_accelerator(spec)?;
    }
    let load = |specs: &[String], load: &dyn Fn(&str)| {
        per_item(9, 1, specs.len(), || specs.iter().for_each(|s| load(s)))
    };
    out.push((
        "workload.loader.load_us",
        load(&inputs.workload_specs, &|s| {
            black_box(inputs::load_workload(s).ok());
        }) * 1e6,
    ));
    out.push((
        "arch.loader.load_us",
        load(&inputs.accelerator_specs, &|s| {
            black_box(inputs::load_accelerator(s).ok());
        }) * 1e6,
    ));
    out.push((
        "arch.loader.fingerprint_ns",
        per_item(15, 64, inputs.accs.len(), || {
            for acc in &inputs.accs {
                black_box(acc.fingerprint());
            }
        }) * 1e9,
    ));
    Ok(())
}

/// Stack partitioning and back-calculation. Returns the tile analyses it
/// produced: the placement and copy probes derive their inputs from them.
fn geometry(inputs: &ProbeInputs, out: &mut Out) -> Vec<(usize, TileAnalysis)> {
    let acc = &inputs.accs[0];
    out.push((
        "core.stack.partition_us",
        per_item(15, 1, inputs.nets.len(), || {
            for net in &inputs.nets {
                black_box(partition_into_stacks(net, acc, &FuseDepth::Auto));
            }
        }) * 1e6,
    ));
    let stacks = inputs.stacks();
    out.push((
        "core.stack.stacks",
        inputs
            .nets
            .iter()
            .map(|net| partition_into_stacks(net, acc, &FuseDepth::Auto).len())
            .sum::<usize>() as f64,
    ));
    out.push((
        "core.backcalc.geometry_us",
        per_item(15, 1, stacks.len(), || {
            for (n, stack) in &stacks {
                black_box(StackGeometry::new(&inputs.nets[*n], stack));
            }
        }) * 1e6,
    ));

    // First tile and an interior tile of each stack's grid, every mode.
    let geometries: Vec<(usize, StackGeometry<'_>, TileGrid)> = stacks
        .iter()
        .map(|(n, stack)| {
            let net = &inputs.nets[*n];
            let sink = &net.layer(stack.last_layer()).dims;
            let grid = TileGrid::new(sink.ox, sink.oy, inputs.mid_tile(*n));
            (*n, StackGeometry::new(net, stack), grid)
        })
        .collect();
    let calls: Vec<(usize, OverlapMode, u64, u64)> = geometries
        .iter()
        .enumerate()
        .flat_map(|(g, (_, _, grid))| {
            let interior = (1.min(grid.cols() - 1), 1.min(grid.rows() - 1));
            OverlapMode::ALL
                .into_iter()
                .flat_map(move |mode| [(0, 0), interior].map(|(col, row)| (g, mode, col, row)))
        })
        .collect();
    let analyze = |&(g, mode, col, row): &(usize, OverlapMode, u64, u64)| {
        let (n, geometry, grid) = &geometries[g];
        (*n, geometry.analyze_tile(mode, grid, col, row))
    };
    out.push((
        "core.backcalc.analyze_tile_us",
        per_item(15, 1, calls.len(), || {
            for call in &calls {
                black_box(analyze(call));
            }
        }) * 1e6,
    ));
    calls.iter().map(analyze).collect()
}

fn placement_and_copies(inputs: &ProbeInputs, analyses: &[(usize, TileAnalysis)], out: &mut Out) {
    let acc = &inputs.accs[0];
    let policy = PlacementPolicy::default();
    let dram = acc.hierarchy().dram_id();
    // One placement request per computed layer of every analysis, shaped
    // like the ones step 3 of the model issues.
    let mut requests = Vec::new();
    for (n, analysis) in analyses {
        let net = &inputs.nets[*n];
        for rec in analysis
            .layers
            .iter()
            .filter(|r| r.to_compute_w > 0 && r.to_compute_h > 0)
        {
            let layer = net.layer(rec.layer);
            requests.push(PlacementRequest {
                stack_weight_bytes: layer.weight_bytes(),
                layer_has_weights: layer.op.has_weights() && layer.weight_bytes() > 0,
                is_first_tile: analysis.is_first_tile,
                input_bytes: rec.input_bytes,
                output_bytes: rec.output_bytes,
                cache_h_bytes: analysis.cache_h_bytes,
                cache_v_bytes: analysis.cache_v_bytes,
            });
        }
    }
    out.push((
        "core.memlevel.placement_ns",
        per_item(15, 1, requests.len(), || {
            for request in &requests {
                black_box(determine_placement(acc, request, &policy));
            }
        }) * 1e9,
    ));

    // The copy actions step 4 derives from each placement: collect the
    // input from DRAM, and round-trip the overlap caches where they exist.
    let action_sets: Vec<Vec<DataCopyAction>> = requests
        .iter()
        .map(|request| {
            let placement = determine_placement(acc, request, &policy);
            let mut actions = vec![DataCopyAction::new(
                request.input_bytes,
                dram,
                placement.input,
                Operand::Input,
            )];
            for (level, bytes) in [
                (placement.cache_h, request.cache_h_bytes),
                (placement.cache_v, request.cache_v_bytes),
            ] {
                if let Some(level) = level {
                    actions.push(DataCopyAction::new(bytes, dram, level, Operand::Output));
                    actions.push(DataCopyAction::new(
                        bytes,
                        level,
                        placement.input,
                        Operand::Input,
                    ));
                }
            }
            actions
        })
        .collect();
    out.push((
        "core.datacopy.copy_cost_ns",
        per_item(15, 1, action_sets.len(), || {
            for actions in &action_sets {
                black_box(copy_cost(acc, actions));
            }
        }) * 1e9,
    ));
}

/// `evaluate_stack` on a fresh model: the first pass searches every mapping
/// (cold), the second answers all of them from the model's cache (warm).
fn stack_evaluation(inputs: &ProbeInputs, out: &mut Out) {
    let acc = &inputs.accs[0];
    let dram = acc.hierarchy().dram_id();
    let stacks = inputs.stacks();
    let evals: Vec<(usize, &Stack, TileSize, OverlapMode)> = stacks
        .iter()
        .flat_map(|(n, stack)| {
            OverlapMode::ALL
                .into_iter()
                .map(move |mode| (*n, stack, inputs.mid_tile(*n), mode))
        })
        .take(MAX_STACK_EVALS)
        .collect();
    let model = inputs.model(acc);
    let pass = || {
        evals
            .iter()
            .map(|&(n, stack, tile, mode)| {
                let start = now();
                black_box(model.evaluate_stack(&inputs.nets[n], stack, tile, mode, dram, dram));
                start.elapsed().as_secs_f64()
            })
            .collect::<Samples>()
            .median()
    };
    out.push(("core.evaluate.stack_cold_us", pass() * 1e6));
    out.push(("core.evaluate.stack_warm_us", pass() * 1e6));
}

fn bounds(inputs: &ProbeInputs, out: &mut Out) {
    let acc = &inputs.accs[0];
    let points: Vec<(StrategyBounds<'_>, DfStrategy)> = inputs
        .nets
        .iter()
        .enumerate()
        .flat_map(|(n, net)| {
            let tile = inputs.mid_tile(n);
            OverlapMode::ALL.into_iter().map(move |mode| {
                (
                    StrategyBounds::new(net, acc, OptimizeTarget::Energy),
                    DfStrategy::depth_first(tile, mode),
                )
            })
        })
        .collect();
    out.push((
        "core.bounds.lower_bound_ns",
        per_item(9, 1, points.len(), || {
            for (bounds, strategy) in &points {
                black_box(bounds.lower_bound(strategy));
            }
        }) * 1e9,
    ));
}

/// The single-layer mapper on whole layers of the workload's networks: both
/// presets, one fixed ordering, the cache's key and hit paths, and the
/// work-stealing pool at 1 versus `nproc` search threads.
fn mapping(inputs: &ProbeInputs, out: &mut Out) {
    let acc = &inputs.accs[0];
    // Distinct layer shapes, round-robin over the networks.
    let mut problems: Vec<SingleLayerProblem<'_>> = Vec::new();
    let deepest = inputs.nets.iter().map(Network::len).max().unwrap_or(0);
    'fill: for depth in 0..deepest {
        for net in &inputs.nets {
            let Some(id) = net.layer_ids().nth(depth) else {
                continue;
            };
            let problem = SingleLayerProblem::new(acc, net.layer(id));
            if problems
                .iter()
                .all(|p| (p.op, p.dims) != (problem.op, problem.dims))
            {
                problems.push(problem);
                if problems.len() == MAX_PROBLEMS {
                    break 'fill;
                }
            }
        }
    }
    let search = |config: MapperConfig| {
        let mapper = LomaMapper::new(config);
        per_item(7, 1, problems.len(), || {
            for problem in &problems {
                black_box(mapper.optimize_with_stats(problem));
            }
        })
    };
    out.push((
        "mapping.search.problem_fast_us",
        search(MapperConfig::fast()) * 1e6,
    ));
    let full_t1 = search(MapperConfig::default());
    out.push(("mapping.search.problem_full_us", full_t1 * 1e6));

    let steals_before = defines_telemetry::snapshot();
    let full_tn = search(MapperConfig::default().with_search_threads(crate::host::nproc()));
    let steals = defines_telemetry::snapshot()
        .since(&steals_before)
        .get("search.steals")
        .unwrap_or(0);
    out.push(("mapping.pool.search_us_t1", full_t1 * 1e6));
    out.push(("mapping.pool.search_us_tn", full_tn * 1e6));
    out.push(("mapping.pool.speedup", full_t1 / full_tn));
    out.push(("mapping.pool.steals", steals as f64));

    let mapper = LomaMapper::new(inputs.mapper_config());
    let orders: Vec<_> = problems
        .iter()
        .map(|p| candidate_orderings(p, 1).swap_remove(0))
        .collect();
    out.push((
        "mapping.cost.evaluate_ns",
        per_item(15, 8, problems.len(), || {
            for (problem, order) in problems.iter().zip(&orders) {
                black_box(mapper.evaluate_fixed_order(problem, order));
            }
        }) * 1e9,
    ));
    out.push((
        "mapping.cache.key_ns",
        per_item(15, 64, problems.len(), || {
            for problem in &problems {
                black_box(ProblemKey::canonical(problem, &mapper));
            }
        }) * 1e9,
    ));
    // A private cache: the probe must not move the workload's counters.
    let cache = MappingCache::new();
    let fast = LomaMapper::new(MapperConfig::fast());
    for problem in &problems {
        cache.optimize_shared(&fast, problem);
    }
    out.push((
        "mapping.cache.hit_ns",
        per_item(15, 64, problems.len(), || {
            for problem in &problems {
                black_box(cache.optimize_shared(&fast, problem));
            }
        }) * 1e9,
    ));
}

/// The sweep engine's per-point dispatch cost with a no-op evaluator, and
/// the generic memo's lookup.
fn engine(out: &mut Out) {
    let points: Vec<u64> = (0..DISPATCH_POINTS as u64).collect();
    let dispatch = |threads: usize| {
        let engine = SweepEngine::new(EngineConfig::sequential().with_threads(threads));
        per_item(9, 1, points.len(), || {
            black_box(engine.run(
                &points,
                &|p: &u64| *p,
                &|_, c: &u64| *c as f64,
                None::<&fn(&u64) -> f64>,
                |record| {
                    black_box(record);
                },
            ));
        })
    };
    out.push(("engine.engine.dispatch_ns_per_point", dispatch(1) * 1e9));
    out.push((
        "engine.engine.dispatch_ns_per_point_tn",
        dispatch(crate::host::nproc()) * 1e9,
    ));

    let memo: MemoCache<u64, u64> = MemoCache::new();
    for key in 0..1024 {
        memo.insert(key, key);
    }
    out.push((
        "engine.memo.get_ns",
        per_item(15, 8, 1024, || {
            for key in 0..1024u64 {
                black_box(memo.get(&key));
            }
        }) * 1e9,
    ));
}

/// The persistent store on the workload's own cache contents: append
/// (`sync`), compaction, and the load a daemon restart pays (`open`).
fn persistence(inputs: &ProbeInputs, scratch: &Path, out: &mut Out) -> Result<(), String> {
    // Sorted by key, so the capped prefix is the same set on every run.
    let mut entries = inputs.cache.entries();
    entries.truncate(MAX_STORE_ENTRIES);
    let path = scratch.join("probe-store.jsonl");
    let store_err = |e: defines_mapping::StoreError| e.to_string();
    let (mut sync, mut compact, mut open) = (Samples::new(), Samples::new(), Samples::new());
    let mut file_bytes = 0;
    for _ in 0..IO_REPS {
        let _ = std::fs::remove_file(&path);
        let cache = MappingCache::new();
        let mut store = CacheStore::open(&path, cache.clone(), 0).map_err(store_err)?;
        for (key, cost) in &entries {
            cache.preload(key.clone(), cost.clone());
            cache.set_usage(key.clone(), cache.current_epoch());
        }
        let start = now();
        store.sync().map_err(store_err)?;
        sync.push(start.elapsed().as_secs_f64());
        let start = now();
        store.compact_now().map_err(store_err)?;
        compact.push(start.elapsed().as_secs_f64());
        drop(store);
        file_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
        let start = now();
        let store = CacheStore::open(&path, MappingCache::new(), 0).map_err(store_err)?;
        open.push(start.elapsed().as_secs_f64());
        if store.stats().loaded as usize != entries.len() {
            return Err(format!(
                "store reloaded {} of {} entries",
                store.stats().loaded,
                entries.len()
            ));
        }
    }
    let _ = std::fs::remove_file(&path);
    out.push(("mapping.persist.sync_ms", sync.median() * 1e3));
    out.push(("mapping.persist.compact_ms", compact.median() * 1e3));
    out.push(("mapping.persist.open_ms", open.median() * 1e3));
    out.push((
        "mapping.persist.load_us_per_entry",
        open.median() * 1e6 / entries.len().max(1) as f64,
    ));
    out.push(("mapping.persist.file_bytes", file_bytes as f64));
    out.push(("mapping.persist.entries", entries.len() as f64));
    Ok(())
}

/// The wire protocol's parse and render halves, and a cold in-process
/// `run_batch` of the request set (the compute floor under a cold request).
fn protocol_and_batch(inputs: &ProbeInputs, out: &mut Out) -> Result<(), String> {
    let values: Vec<Value> = inputs
        .requests
        .iter()
        .map(|line| serde_json::from_str(line).map_err(|e| format!("bad request line: {e}")))
        .collect::<Result<_, _>>()?;
    out.push((
        "serve.protocol.parse_us",
        per_item(15, 16, values.len(), || {
            for value in &values {
                let request = defines_serve::ScheduleRequest::from_value(value);
                black_box(request.map(|r| r.canonical_key()).ok());
            }
        }) * 1e6,
    ));

    let resolved = serve::batch_items(&inputs.requests)?;
    let items: Vec<_> = resolved.iter().map(|(_, item)| item.clone()).collect();
    let start = now();
    let outcomes = run_batch(
        &items,
        &serve::batch_config(MappingCache::new(), inputs.fast_mapper),
    );
    out.push(("core.batch.run_ms", start.elapsed().as_secs_f64() * 1e3));
    if let Some(error) = outcomes.iter().find_map(|o| o.error.as_deref()) {
        return Err(format!("probe batch failed: {error}"));
    }
    let mut bytes = 0;
    out.push((
        "serve.protocol.render_us",
        per_item(7, 1, resolved.len(), || {
            bytes = 0;
            for ((request, _), outcome) in resolved.iter().zip(&outcomes) {
                bytes += black_box(render_outcome(request, outcome)).len();
            }
        }) * 1e6,
    ));
    out.push((
        "serve.protocol.response_bytes",
        bytes as f64 / resolved.len().max(1) as f64,
    ));
    Ok(())
}

//! Benchmark inputs: the repository's reference documents, read through the
//! program's own loaders, plus the seeded generators behind `--seed`.
//!
//! The program under test only ever sees the generated inputs (networks,
//! accelerators, tile lists, request lines) — never the seed.

use crate::rng::Rng;
use defines_arch::Accelerator;
use defines_core::Explorer;
use defines_workload::Network;
use std::path::{Path, PathBuf};

/// The five depth-first accelerator documents of the case-study matrix.
pub const DF_ACCELERATORS: [&str; 5] = [
    "meta-proto-df",
    "tpu-df",
    "edge-tpu-df",
    "ascend-df",
    "tesla-npu-df",
];

/// The repository root: the harness lives in `<root>/benchmark`.
pub fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits inside the repository")
}

/// Where the harness writes: results, traces and scratch files. Inside the
/// checkout, ignored by git.
pub fn out_dir() -> PathBuf {
    repo_root().join("benchmark/out")
}

/// Path of a reference workload document, relative to the repository root.
pub fn workload_doc(name: &str) -> String {
    format!("workloads/{name}.json")
}

/// Path of a reference accelerator document, relative to the repository root.
pub fn accelerator_doc(name: &str) -> String {
    format!("accelerators/{name}.json")
}

/// Resolves a spec like the CLI does — a `.json` path or a reference-document
/// name — but always against the repository root and always to a file, so
/// every load goes through the loader.
fn doc_path(spec: &str, doc: fn(&str) -> String) -> PathBuf {
    if spec.ends_with(".json") {
        repo_root().join(spec)
    } else {
        repo_root().join(doc(spec))
    }
}

/// Loads a workload by spec.
pub fn load_workload(spec: &str) -> Result<Network, String> {
    defines_workload::from_json_file(doc_path(spec, workload_doc)).map_err(|e| e.to_string())
}

/// Loads an accelerator by spec.
pub fn load_accelerator(spec: &str) -> Result<Accelerator, String> {
    defines_arch::loader::from_json_file(doc_path(spec, accelerator_doc)).map_err(|e| e.to_string())
}

/// Loads several workloads.
pub fn load_workloads(specs: &[&str]) -> Result<Vec<Network>, String> {
    specs.iter().map(|s| load_workload(s)).collect()
}

/// Loads several accelerators.
pub fn load_accelerators(specs: &[&str]) -> Result<Vec<Accelerator>, String> {
    specs.iter().map(|s| load_accelerator(s)).collect()
}

/// The output extent tile sizes are drawn against: the largest output
/// feature map of the network. For the restoration nets that is the sink
/// the default grid is built from; for the classification nets (1×1 sink,
/// degenerate default grid) it is the first layers' maps, so the seeded
/// tiles still exercise real tilings of the early stacks.
fn tile_extent(net: &Network) -> (u64, u64) {
    net.layer_ids()
        .map(|id| {
            let d = &net.layer(id).dims;
            (d.ox, d.oy)
        })
        .max_by_key(|&(w, h)| w * h)
        .expect("non-empty network")
}

/// How many tiles a seeded tile size cuts each axis of the extent into.
const SEEDED_TILES_PER_AXIS: u64 = 4;

/// Draws `count` distinct tile sizes that are on neither the network's
/// default grid nor each other. Every draw cuts the extent into the same
/// 4×4 tile grid — `tx` ranges over exactly the widths with
/// `ceil(w / tx) == 4`, likewise `ty` — so seeds differ in every tile's
/// dimensions (hence in every mapping problem) but not in how many tiles,
/// tile types and signature groups a design point has. The driver compares
/// runs *across* seeds, so a seed that drew a costlier tiling would read as
/// host noise; measured, an unconstrained draw moved `sweep-warm` by ±8 %.
pub fn seeded_tiles(rng: &mut Rng, net: &Network, count: usize) -> Vec<(u64, u64)> {
    let (w, h) = tile_extent(net);
    let grid = Explorer::default_tile_grid(net);
    let band = |extent: u64| {
        let lo = extent.div_ceil(SEEDED_TILES_PER_AXIS).max(2);
        let hi = extent.div_ceil(SEEDED_TILES_PER_AXIS - 1) - 1;
        (lo, hi.max(lo))
    };
    let ((x_lo, x_hi), (y_lo, y_hi)) = (band(w), band(h));
    assert!(
        (x_hi - x_lo + 1) * (y_hi - y_lo + 1) > (grid.len() + count) as u64,
        "extent {w}x{h} too small to draw {count} off-grid tiles"
    );
    let mut tiles: Vec<(u64, u64)> = Vec::with_capacity(count);
    while tiles.len() < count {
        let tile = (rng.range(x_lo, x_hi), rng.range(y_lo, y_hi));
        if !grid.contains(&tile) && !tiles.contains(&tile) {
            tiles.push(tile);
        }
    }
    tiles
}

/// The network's default grid followed by `extra` seeded off-grid tiles.
pub fn grid_with_seeded_tiles(rng: &mut Rng, net: &Network, extra: usize) -> Vec<(u64, u64)> {
    let mut grid = Explorer::default_tile_grid(net);
    grid.extend(seeded_tiles(rng, net, extra));
    grid
}

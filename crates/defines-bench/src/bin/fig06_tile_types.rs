//! Fig. 6: the number of distinct tile types for FSRCNN under different tile
//! sizes and overlap storing modes, and the per-type tile counts for the
//! (60, 72) case used throughout case study 1.
//!
//! Run with: `cargo run --release -p defines-bench --bin fig06_tile_types`

use defines_bench::table;
use defines_core::backcalc::StackGeometry;
use defines_core::stack::Stack;
use defines_core::tiling::TileGrid;
use defines_core::{OverlapMode, TileSize};
use defines_workload::models;
use std::collections::HashMap;

fn main() {
    let net = models::fsrcnn();
    let stack = Stack::new(net.layer_ids().collect());
    let geo = StackGeometry::new(&net, &stack);
    let last = net.layers().last().unwrap();
    let (w, h) = (last.dims.ox, last.dims.oy);

    let tile_sizes = [(60u64, 72u64), (36, 30), (16, 18), (120, 135)];
    let header = ["tile (Tx,Ty)", "mode", "tiles", "tile types"];
    let mut rows = Vec::new();
    for &(tx, ty) in &tile_sizes {
        let grid = TileGrid::new(w, h, TileSize::new(tx, ty));
        for mode in OverlapMode::ALL {
            let mut types: HashMap<_, u64> = HashMap::new();
            for (c, r, _) in grid.iter() {
                *types
                    .entry(geo.analyze_tile(mode, &grid, c, r))
                    .or_default() += 1;
            }
            rows.push(vec![
                format!("({tx}, {ty})"),
                mode.to_string(),
                format!("{}", grid.num_tiles()),
                format!("{}", types.len()),
            ]);
        }
    }
    println!(
        "Fig. 6: tile type count per tile size and overlap storing mode (FSRCNN, 960x540 output)\n"
    );
    println!("{}", table(&header, &rows));

    // Detailed per-type counts for the canonical (60, 72) fully-recompute case
    // (the paper's "9 tile types" example).
    let grid = TileGrid::new(w, h, TileSize::new(60, 72));
    for mode in OverlapMode::ALL {
        let mut types: HashMap<_, u64> = HashMap::new();
        for (c, r, _) in grid.iter() {
            *types
                .entry(geo.analyze_tile(mode, &grid, c, r))
                .or_default() += 1;
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "sorted by count on the next statement"
        )]
        let mut counts: Vec<u64> = types.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        println!(
            "(60, 72) {mode}: {} types with tile counts {:?} (paper: 9 / 6 / 3 types; our type \
             descriptor also distinguishes feature-map-edge clamping, see EXPERIMENTS.md)",
            counts.len(),
            counts
        );
    }
}

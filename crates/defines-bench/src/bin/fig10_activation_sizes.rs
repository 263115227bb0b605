//! Fig. 10: the activation data sizes (I, O and I+O) of every layer for the
//! main tile types of the (60, 72) fully-cached FSRCNN schedule, compared to
//! the LB and GB capacities, explaining the top-memory-level decisions of
//! Fig. 9.
//!
//! Run with: `cargo run --release -p defines-bench --bin fig10_activation_sizes`

use defines_arch::zoo;
use defines_bench::table;
use defines_core::backcalc::StackGeometry;
use defines_core::stack::Stack;
use defines_core::tiling::TileGrid;
use defines_core::{OverlapMode, TileSize};
use defines_workload::models;
use std::collections::HashMap;

fn main() {
    let acc = &zoo::meta_proto_like_df();
    let net = models::fsrcnn();
    let stack = Stack::new(net.layer_ids().collect());
    let geo = StackGeometry::new(&net, &stack);
    let grid = TileGrid::new(960, 540, TileSize::new(60, 72));
    let mode = OverlapMode::FullyCached;

    let lb = acc
        .hierarchy()
        .level_named("LB_IO")
        .unwrap()
        .capacity_bytes()
        .unwrap();
    let gb = acc
        .hierarchy()
        .level_named("GB_IO")
        .unwrap()
        .capacity_bytes()
        .unwrap();

    let mut types: Vec<(defines_core::backcalc::TileAnalysis, u64)> = Vec::new();
    let mut index: HashMap<defines_core::backcalc::TileAnalysis, usize> = HashMap::new();
    for (c, r, _) in grid.iter() {
        let a = geo.analyze_tile(mode, &grid, c, r);
        match index.get(&a) {
            Some(&i) => types[i].1 += 1,
            None => {
                index.insert(a.clone(), types.len());
                types.push((a, 1));
            }
        }
    }
    // Most frequent types last, as in the paper (type 2 and 3 are the regime
    // tiles).
    types.sort_by_key(|t| t.1);

    println!(
        "Fig. 10: per-layer activation data sizes for FSRCNN, tile (60, 72), {mode}\n\
         LB capacity = {} KB, GB capacity = {} KB\n",
        lb / 1024,
        gb / 1024
    );
    let header = [
        "tile type",
        "count",
        "layer",
        "I (KB)",
        "O (KB)",
        "I+O (KB)",
        "fits",
    ];
    let mut rows = Vec::new();
    for (t, (analysis, count)) in types.iter().enumerate() {
        for rec in &analysis.layers {
            if rec.to_compute_w == 0 {
                continue;
            }
            let io = rec.input_bytes + rec.output_bytes;
            let fits = if io <= lb {
                "LB"
            } else if rec.input_bytes <= lb || rec.output_bytes <= lb {
                "LB+GB"
            } else if io <= gb {
                "GB"
            } else {
                "DRAM"
            };
            rows.push(vec![
                format!("{}", t + 1),
                format!("{count}"),
                format!("{}", rec.layer),
                format!("{:.1}", rec.input_bytes as f64 / 1024.0),
                format!("{:.1}", rec.output_bytes as f64 / 1024.0),
                format!("{:.1}", io as f64 / 1024.0),
                fits.to_string(),
            ]);
        }
    }
    println!("{}", table(&header, &rows));
    println!(
        "Expected shape (paper): when I+O fits the LB both use it; when only one of them fits,\n\
         the input is prioritized for the LB and the output is pushed to the GB."
    );
}

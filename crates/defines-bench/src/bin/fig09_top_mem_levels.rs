//! Fig. 9: the top memory level determined for weights, inputs and outputs of
//! every unique (tile type, layer) combination of FSRCNN on the
//! Meta-prototype-like DF architecture with a (60, 72) fully-cached schedule.
//!
//! Run with: `cargo run --release -p defines-bench --bin fig09_top_mem_levels`

use defines_arch::zoo;
use defines_bench::table;
use defines_core::backcalc::StackGeometry;
use defines_core::memlevel::{determine_placement, PlacementPolicy, PlacementRequest};
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
    let dram = acc.hierarchy().dram_id();
    let stack_weights = stack.weight_bytes(&net);

    // Group tiles into types.
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
    types.sort_by_key(|t| t.1);

    println!(
        "Fig. 9: top memory level per operand, layer and tile type\n\
         (FSRCNN on {}, tile (60, 72), {mode})\n",
        acc.name()
    );
    let header = ["tile type", "count", "layer", "W top", "I top", "O top"];
    let mut rows = Vec::new();
    for (t, (analysis, count)) in types.iter().enumerate() {
        for rec in &analysis.layers {
            if rec.to_compute_w == 0 {
                continue;
            }
            let layer = net.layer(rec.layer);
            let request = PlacementRequest {
                stack_weight_bytes: stack_weights,
                layer_has_weights: layer.weight_bytes() > 0,
                is_first_tile: analysis.is_first_tile,
                input_bytes: rec.input_bytes,
                output_bytes: rec.output_bytes,
                cache_h_bytes: analysis.cache_h_bytes,
                cache_v_bytes: analysis.cache_v_bytes,
            };
            let p = determine_placement(acc, &request, &PlacementPolicy::default());
            // The stack's first layer reads the network input from DRAM and the
            // last layer writes the network output back to DRAM, as in the
            // evaluator.
            let input_top = if rec.external_input_bytes > 0 {
                p.input.max(dram)
            } else {
                p.input
            };
            let output_top = if rec.layer == stack.last_layer() {
                p.output.max(dram)
            } else {
                p.output
            };
            rows.push(vec![
                format!("{}", t + 1),
                format!("{count}"),
                format!("{}", rec.layer),
                acc.hierarchy().level(p.weight).name().to_string(),
                acc.hierarchy().level(input_top).name().to_string(),
                acc.hierarchy().level(output_top).name().to_string(),
            ]);
        }
    }
    println!("{}", table(&header, &rows));
    println!(
        "Expected shape (paper): first tile takes weights from DRAM, later tiles from the weight LB;\n\
         every tile's first layer reads its input from DRAM and its last layer writes to DRAM;\n\
         in between, activations use the LB when they fit and the GB otherwise."
    );
}

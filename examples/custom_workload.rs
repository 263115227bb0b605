//! Bring your own network: load a workload from JSON (no Rust code per
//! model), explore it, and export it back.
//!
//! Run with: `cargo run --release --example custom_workload [path.json]`
//!
//! Without an argument a small demonstration network is used; pass a path
//! (e.g. `workloads/resnet18.json`) to explore any workload document.

use defines_arch::zoo;
use defines_core::{DfCostModel, Explorer, OptimizeTarget, OverlapMode};
use defines_workload::{from_json_file, from_json_str, to_json_pretty};

const DEMO: &str = r#"{
  "name": "demo-edge-net",
  "layers": [
    {"name": "stem", "op": "Conv", "inputs": [],
     "k": 16, "c": 3, "ox": 128, "oy": 128,
     "fx": 3, "fy": 3, "padding": [1, 1]},
    {"name": "dw", "op": "DepthwiseConv", "inputs": ["stem"],
     "fx": 3, "fy": 3, "padding": [1, 1]},
    {"name": "pw", "op": "Conv", "inputs": ["dw"], "k": 32},
    {"name": "pool", "op": "Pooling", "inputs": ["pw"],
     "fx": 2, "fy": 2, "stride": [2, 2]},
    {"name": "head", "op": "Conv", "inputs": ["pool"], "k": 8,
     "fx": 3, "fy": 3, "padding": [1, 1]}
  ]
}"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Load the network: from a file if given, else from the inline demo
    //    document. Omitted dims (dw's k/c/ox/oy, pw's c, ...) are inferred.
    let net = match std::env::args().nth(1) {
        Some(path) => from_json_file(&path)?,
        None => from_json_str(DEMO)?,
    };
    println!("loaded '{}' with {} layers:", net.name(), net.len());
    for id in net.layer_ids() {
        let l = net.layer(id);
        println!(
            "  {id} {:<12} {:>4} x {:<4} k={:<4} c={:<4} {}x{}",
            l.name, l.dims.ox, l.dims.oy, l.dims.k, l.dims.c, l.dims.fx, l.dims.fy
        );
    }

    // 2. Explore it exactly like a built-in model.
    let acc = zoo::meta_proto_like_df();
    let model = DfCostModel::new(&acc).with_fast_mapper();
    let explorer = Explorer::new(&model);
    let grid = Explorer::default_tile_grid(&net);
    let best =
        explorer.best_single_strategy(&net, &grid, &OverlapMode::ALL, OptimizeTarget::Energy)?;
    let (single, _) = explorer.baselines(&net)?;
    println!(
        "\nbest strategy: {}  ({:.3} mJ, {:.2}x better than single-layer)",
        best.strategy,
        best.cost.energy_mj(),
        single.energy_pj / best.cost.energy_pj
    );

    // 3. Export the (possibly shape-inferred) network as a fully explicit
    //    document — the canonical form used by workloads/*.json.
    println!("\nfully explicit export:\n{}", to_json_pretty(&net)?);
    Ok(())
}

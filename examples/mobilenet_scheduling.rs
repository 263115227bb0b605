//! Scheduling a weight-dominant workload (MobileNetV1): shows why the best
//! solution mixes depth-first stacks for the early, activation-dominant layers
//! with layer-by-layer processing for the late, weight-dominant layers
//! (case study 2).
//!
//! Run with: `cargo run --release --example mobilenet_scheduling`

use defines_arch::zoo;
use defines_core::{
    DfCostModel, DfStrategy, Explorer, FusePolicy, OptimizeTarget, OverlapMode, TileSize,
};
use defines_workload::analysis::WorkloadSummary;
use defines_workload::models;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let network = models::mobilenet_v1();
    let accelerator = zoo::meta_proto_like_df();
    let summary = WorkloadSummary::of(&network);
    println!(
        "{}: {} layers, {:.1} MB weights, {:.2} MB max feature map (weight dominant: {})",
        network.name(),
        summary.layer_count,
        summary.total_weight_bytes as f64 / (1024.0 * 1024.0),
        summary.max_feature_map_bytes as f64 / (1024.0 * 1024.0),
        summary.is_weight_dominant()
    );

    let model = DfCostModel::new(&accelerator).with_fast_mapper();
    let explorer = Explorer::new(&model);

    let sl = model.evaluate_network(&network, &DfStrategy::single_layer())?;
    let lbl = model.evaluate_network(&network, &DfStrategy::layer_by_layer())?;
    // The strategy that was best for FSRCNN in case study 1 — not a great fit
    // for MobileNetV1.
    let fsrcnn_best = model.evaluate_network(
        &network,
        &DfStrategy::depth_first(TileSize::new(4, 72), OverlapMode::FullyCached),
    )?;
    // Let every stack pick its own tile size and overlap mode.
    let tiles = [(7, 7), (14, 14), (28, 28), (56, 56), (112, 112)];
    let combo = explorer.best_schedule(
        &network,
        &tiles,
        &OverlapMode::ALL,
        OptimizeTarget::Energy,
        &FusePolicy::Auto,
    )?;

    println!(
        "\n{:<38} {:>12} {:>18}",
        "strategy", "energy (mJ)", "latency (Mcycles)"
    );
    for (name, cost) in [
        ("single-layer", &sl),
        ("layer-by-layer", &lbl),
        ("fully-cached 4x72 (FSRCNN's best)", &fsrcnn_best),
        ("best combination (per-stack)", &combo.cost),
    ] {
        println!(
            "{:<38} {:>12.3} {:>18.2}",
            name,
            cost.energy_mj(),
            cost.latency_mcycles()
        );
    }
    println!(
        "\nbest combination gain over single-layer: {:.1}x energy",
        sl.energy_pj / combo.cost.energy_pj
    );
    println!("per-stack choices (tile, mode):");
    for (i, (tile, mode)) in combo.per_stack().iter().enumerate() {
        let stack = &combo.cost.stacks[i];
        println!(
            "  stack {:>2} ({} layers): tile {} | {}",
            i + 1,
            stack.stack.len(),
            tile,
            mode
        );
    }
    Ok(())
}

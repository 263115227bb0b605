//! Fig. 16 (case study 2): five inference strategies compared across the five
//! case-study workloads on the Meta-prototype-like DF architecture:
//! single-layer, layer-by-layer, the fully-cached 4×72 schedule found in case
//! study 1, the best single strategy, and the best per-stack combination.
//!
//! Results are also written to `results/fig16.json`.
//!
//! Run with: `cargo run --release -p defines-bench --bin fig16_case_study2`

use defines_arch::zoo;
use defines_bench::{case_study_tile_grid, ratio, table, write_json};
use defines_core::fixed_fully_cached;
use defines_core::{DfCostModel, DfStrategy, Explorer, FusePolicy, OptimizeTarget, OverlapMode};
use defines_workload::models;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    workload: String,
    strategy: String,
    energy_mj: f64,
    latency_mcycles: f64,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let acc = zoo::meta_proto_like_df();
    let model = DfCostModel::new(&acc).with_fast_mapper();
    let explorer = Explorer::new(&model);

    println!(
        "Fig. 16 (case study 2): strategies across workloads on {}\n",
        acc.name()
    );
    let header = [
        "workload",
        "single-layer",
        "layer-by-layer",
        "fully-cached 4x72",
        "best single",
        "best combination",
        "gain vs SL",
    ];
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for net in models::case_study_workloads() {
        let tiles = case_study_tile_grid(&net);
        let last = net.layers().last().unwrap();
        let sl = model.evaluate_network(&net, &DfStrategy::single_layer())?;
        let lbl = model.evaluate_network(&net, &DfStrategy::layer_by_layer())?;
        // The case-study-1 winner, clamped to the workload's output size.
        let cs1 = {
            let s = fixed_fully_cached(4.min(last.dims.ox), 72.min(last.dims.oy));
            model.evaluate_network(&net, &s)?
        };
        let best_single = explorer.best_single_strategy(
            &net,
            &tiles,
            &OverlapMode::ALL,
            OptimizeTarget::Energy,
        )?;
        let combo = explorer.best_schedule(
            &net,
            &tiles,
            &OverlapMode::ALL,
            OptimizeTarget::Energy,
            &FusePolicy::Auto,
        )?;

        for (name, energy, latency) in [
            ("single-layer", sl.energy_mj(), sl.latency_mcycles()),
            ("layer-by-layer", lbl.energy_mj(), lbl.latency_mcycles()),
            ("fully-cached 4x72", cs1.energy_mj(), cs1.latency_mcycles()),
            (
                "best single",
                best_single.cost.energy_mj(),
                best_single.cost.latency_mcycles(),
            ),
            (
                "best combination",
                combo.cost.energy_mj(),
                combo.cost.latency_mcycles(),
            ),
        ] {
            json_rows.push(Row {
                workload: net.name().to_string(),
                strategy: name.to_string(),
                energy_mj: energy,
                latency_mcycles: latency,
            });
        }

        rows.push(vec![
            net.name().to_string(),
            format!("{:.2} mJ", sl.energy_mj()),
            format!("{:.2} mJ", lbl.energy_mj()),
            format!("{:.2} mJ", cs1.energy_mj()),
            format!(
                "{:.2} mJ ({})",
                best_single.cost.energy_mj(),
                best_single.strategy.tile
            ),
            format!("{:.2} mJ", combo.cost.energy_mj()),
            ratio(sl.energy_pj, combo.cost.energy_pj),
        ]);
    }
    println!("{}", table(&header, &rows));
    println!(
        "Expected shape (paper): ~10x gain over single-layer for the activation-dominant workloads\n\
         (FSRCNN, DMCNN-VD, MCCNN) where the 4x72 schedule is already near-optimal; for MobileNetV1\n\
         and ResNet18 the 4x72 schedule is clearly worse than the best combination, which applies\n\
         depth-first stacks to the early layers and layer-by-layer to the weight-dominant tail\n\
         (~5.7x gain over single-layer for MobileNetV1)."
    );
    write_json("results/fig16.json", &json_rows)?;
    println!("Wrote results/fig16.json");
    Ok(())
}

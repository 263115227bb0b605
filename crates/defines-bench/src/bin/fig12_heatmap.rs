//! Fig. 12: total energy and latency heatmaps for FSRCNN on the
//! Meta-prototype-like DF architecture, sweeping the three overlap storing
//! modes and a 6×6 grid of tile sizes (108 depth-first schedules in total).
//!
//! Results are also written to `results/fig12.json`.
//!
//! Run with: `cargo run --release -p defines-bench --bin fig12_heatmap`

use defines_arch::zoo;
use defines_bench::{heatmap, write_json};
use defines_core::{DfCostModel, DfStrategy, OverlapMode, TileSize};
use defines_workload::models;
use serde::Serialize;

#[derive(Serialize)]
struct Cell {
    mode: String,
    tx: u64,
    ty: u64,
    energy_mj: f64,
    latency_mcycles: f64,
    dram_mb: f64,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let acc = zoo::meta_proto_like_df();
    let net = models::fsrcnn();
    let model = DfCostModel::new(&acc).with_fast_mapper();
    let xs = [1u64, 4, 16, 60, 240, 960];
    let ys = [1u64, 4, 18, 72, 270, 540];
    let mut cells = Vec::new();

    let mut best: Option<(OverlapMode, u64, u64, f64)> = None;
    let mut worst_energy: f64 = 0.0;
    let mut worst_latency: f64 = 0.0;
    let mut best_latency = f64::INFINITY;

    for mode in OverlapMode::ALL {
        let mut energy_rows = Vec::new();
        let mut latency_rows = Vec::new();
        for &ty in &ys {
            let mut energy_row = Vec::new();
            let mut latency_row = Vec::new();
            for &tx in &xs {
                let strategy = DfStrategy::depth_first(TileSize::new(tx, ty), mode);
                let cost = model.evaluate_network(&net, &strategy)?;
                energy_row.push(cost.energy_mj());
                latency_row.push(cost.latency_mcycles());
                worst_energy = worst_energy.max(cost.energy_mj());
                worst_latency = worst_latency.max(cost.latency_mcycles());
                best_latency = best_latency.min(cost.latency_mcycles());
                if best
                    .map(|(_, _, _, e)| cost.energy_mj() < e)
                    .unwrap_or(true)
                {
                    best = Some((mode, tx, ty, cost.energy_mj()));
                }
                cells.push(Cell {
                    mode: mode.to_string(),
                    tx,
                    ty,
                    energy_mj: cost.energy_mj(),
                    latency_mcycles: cost.latency_mcycles(),
                    dram_mb: cost.dram_traffic_bytes(&acc) / (1024.0 * 1024.0),
                });
            }
            energy_rows.push(energy_row);
            latency_rows.push(latency_row);
        }
        println!(
            "{}",
            heatmap(&format!("{mode} - Energy"), &xs, &ys, &energy_rows, "mJ")
        );
        println!(
            "{}",
            heatmap(
                &format!("{mode} - Latency"),
                &xs,
                &ys,
                &latency_rows,
                "Mcycles"
            )
        );
    }

    let (bm, btx, bty, be) = best.expect("at least one cell evaluated");
    println!("Best energy point: {bm} with tile ({btx}, {bty}) -> {be:.2} mJ");
    println!(
        "Energy spread best..worst: {:.2} .. {:.2} mJ ({:.0}x); latency spread: {:.1} .. {:.1} Mcycles ({:.0}x)",
        be,
        worst_energy,
        worst_energy / be,
        best_latency,
        worst_latency,
        worst_latency / best_latency
    );
    println!(
        "Expected shape (paper): best points at intermediate tile sizes, fully-cached <= H-cached <= \
         fully-recompute per tile size, identical values in the (960, 540) LBL corner, and a spread of \
         roughly 26x in energy and 57x in latency."
    );
    write_json("results/fig12.json", &cells)?;
    println!("Wrote results/fig12.json");
    Ok(())
}

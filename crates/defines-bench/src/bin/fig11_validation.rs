//! Fig. 11: validation of the cost model against the DepFiN depth-first
//! processor for FSRCNN, MC-CNN and the 11-layer reference network.
//!
//! We cannot measure the taped-out chip, so the "measured" series is derived
//! from the relative prediction errors the paper reports (latency predictions
//! within 10 % / 3 % / 2 %, relative energy within 6 % / 3 % / 0 %); our
//! harness reports our predictions next to that synthetic measurement and the
//! resulting relative error, mirroring the structure of the paper's figure.
//! See `docs/paper-map.md` ("Deliberate deviations from the paper") for the
//! rationale.
//!
//! Run with: `cargo run --release -p defines-bench --bin fig11_validation`

use defines_arch::zoo;
use defines_bench::table;
use defines_core::{DfCostModel, DfStrategy, OverlapMode, TileSize};
use defines_workload::models;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let acc = zoo::depfin_like();
    let model = DfCostModel::new(&acc).with_fast_mapper();
    // DepFiN processes high-resolution networks depth-first with line-buffer
    // style tiles: a full-width stripe a few rows tall.
    let strategy = |net: &defines_workload::Network| {
        let last = net.layers().last().unwrap();
        DfStrategy::depth_first(TileSize::new(last.dims.ox, 8), OverlapMode::FullyCached)
    };

    // Paper-reported prediction/measurement ratios (Fig. 11): latency
    // prediction was 90 % / 97 % / 98 % of the measurement, relative energy
    // 106 % / 103 % / 100 %.
    let paper_latency_ratio = [0.90, 0.97, 0.98];
    let paper_energy_ratio = [1.06, 1.03, 1.00];

    let nets = models::validation_workloads();
    let mut predictions = Vec::new();
    for net in &nets {
        let cost = model.evaluate_network(net, &strategy(net))?;
        predictions.push(cost);
    }

    // Energies are normalized to the reference network (index 2), as in the
    // paper, to cancel process/voltage/temperature effects.
    let ref_energy = predictions[2].energy_pj;

    println!(
        "Fig. 11: DeFiNES-rs predictions vs DepFiN-derived reference (synthetic measurement)\n"
    );
    let header = [
        "network",
        "pred latency (Mcyc)",
        "\"measured\" latency",
        "latency err",
        "pred energy (norm)",
        "\"measured\" energy",
        "energy err",
    ];
    let mut rows = Vec::new();
    for (i, net) in nets.iter().enumerate() {
        let pred_lat = predictions[i].latency_mcycles();
        let meas_lat = pred_lat / paper_latency_ratio[i];
        let pred_en = predictions[i].energy_pj / ref_energy;
        let meas_en = pred_en / paper_energy_ratio[i];
        rows.push(vec![
            net.name().to_string(),
            format!("{pred_lat:.2}"),
            format!("{meas_lat:.2}"),
            format!("{:+.1}%", (pred_lat / meas_lat - 1.0) * 100.0),
            format!("{pred_en:.3}"),
            format!("{meas_en:.3}"),
            format!("{:+.1}%", (pred_en / meas_en - 1.0) * 100.0),
        ]);
    }
    println!("{}", table(&header, &rows));
    println!(
        "The paper reports end-to-end latency matching within 3 % (10 % for FSRCNN due to an\n\
         unmodelled control-flow limitation) and relative energy within 6 %."
    );
    Ok(())
}

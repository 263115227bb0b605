//! Fig. 17 (case study 3): layer-by-layer versus the best depth-first single
//! strategy versus the best *combination over searched stack partitions*
//! (axis 3 explored by DP, [`FusePolicy::search`]) on all ten accelerator
//! architectures (five baselines and their DF-friendly variants), reported as
//! the geometric mean of energy and latency across the five case-study
//! workloads.
//!
//! Results are also written to `results/fig17.json`.
//!
//! Run with: `cargo run --release -p defines-bench --bin fig17_case_study3`

use defines_arch::zoo;
use defines_bench::{case_study_tile_grid, table, write_json};
use defines_core::{DfCostModel, DfStrategy, Explorer, FusePolicy, OptimizeTarget, OverlapMode};
use defines_workload::models;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    architecture: String,
    schedule: String,
    geomean_energy_mj: f64,
    geomean_latency_mcycles: f64,
}

fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workloads = models::case_study_workloads();
    let header = [
        "architecture",
        "LBL energy (geomean mJ)",
        "best-DF energy (geomean mJ)",
        "searched-partition energy (geomean mJ)",
        "DF gain",
        "LBL latency (geomean Mcyc)",
        "best-DF latency (geomean Mcyc)",
    ];
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let search = FusePolicy::search();

    for acc in zoo::all_case_study_architectures() {
        let model = DfCostModel::new(&acc).with_fast_mapper();
        let explorer = Explorer::new(&model);
        let mut lbl_e = Vec::new();
        let mut lbl_l = Vec::new();
        let mut df_e = Vec::new();
        let mut df_l = Vec::new();
        let mut search_e = Vec::new();
        let mut search_l = Vec::new();
        for net in &workloads {
            let tiles = case_study_tile_grid(net);
            let lbl = model.evaluate_network(net, &DfStrategy::layer_by_layer())?;
            let best = explorer.best_single_strategy(
                net,
                &tiles,
                &OverlapMode::ALL,
                OptimizeTarget::Energy,
            )?;
            let searched = explorer.best_schedule(
                net,
                &tiles,
                &OverlapMode::ALL,
                OptimizeTarget::Energy,
                &search,
            )?;
            lbl_e.push(lbl.energy_mj());
            lbl_l.push(lbl.latency_mcycles());
            df_e.push(best.cost.energy_mj());
            df_l.push(best.cost.latency_mcycles());
            search_e.push(searched.cost.energy_mj());
            search_l.push(searched.cost.latency_mcycles());
        }
        let (ge_lbl, gl_lbl) = (geomean(&lbl_e), geomean(&lbl_l));
        let (ge_df, gl_df) = (geomean(&df_e), geomean(&df_l));
        let (ge_search, gl_search) = (geomean(&search_e), geomean(&search_l));
        let best_df = ge_df.min(ge_search);
        rows.push(vec![
            acc.name().to_string(),
            format!("{ge_lbl:.2}"),
            format!("{ge_df:.2}"),
            format!("{ge_search:.2}"),
            format!("{:.1}x", ge_lbl / best_df),
            format!("{gl_lbl:.1}"),
            format!("{gl_df:.1}"),
        ]);
        json_rows.push(Row {
            architecture: acc.name().to_string(),
            schedule: "LBL".to_string(),
            geomean_energy_mj: ge_lbl,
            geomean_latency_mcycles: gl_lbl,
        });
        json_rows.push(Row {
            architecture: acc.name().to_string(),
            schedule: "best DF".to_string(),
            geomean_energy_mj: ge_df,
            geomean_latency_mcycles: gl_df,
        });
        json_rows.push(Row {
            architecture: acc.name().to_string(),
            schedule: "searched partition".to_string(),
            geomean_energy_mj: ge_search,
            geomean_latency_mcycles: gl_search,
        });
        println!("evaluated {}", acc.name());
    }

    println!(
        "\nFig. 17 (case study 3): LBL vs best DF vs searched stack partition, geometric mean \
         over the 5 workloads\n"
    );
    println!("{}", table(&header, &rows));
    println!(
        "Expected shape (paper): DF outperforms LBL on every architecture except the TPU-like\n\
         baseline (no on-chip weight buffer); the DF-friendly variants benefit the most (up to ~6x\n\
         for TPU-like DF and ~4.3x for Edge-TPU-like DF), and are never much worse than the\n\
         baselines under LBL."
    );
    write_json("results/fig17.json", &json_rows)?;
    println!("Wrote results/fig17.json");
    Ok(())
}

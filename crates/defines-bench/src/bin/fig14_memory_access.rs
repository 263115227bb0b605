//! Fig. 14: memory-access breakdown (in bytes) at every memory level for the
//! diagonal depth-first design points of case study 1, split by the data that
//! causes the accesses: (a) layer activations, (b) layer weights, (c) data
//! copy actions, and (d) the total.
//!
//! Results are also written to `results/fig14.json`.
//!
//! Run with: `cargo run --release -p defines-bench --bin fig14_memory_access`

use defines_arch::zoo;
use defines_bench::{diagonal_tile_sizes, table, write_json};
use defines_core::{DataClass, DfCostModel, DfStrategy, OverlapMode, TileSize};
use defines_mapping::AccessBreakdown;
use defines_workload::models;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    mode: String,
    tx: u64,
    ty: u64,
    class: String,
    level: String,
    gigabytes: f64,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let acc = &zoo::meta_proto_like_df();
    let net = models::fsrcnn();
    let model = DfCostModel::new(acc).with_fast_mapper();

    // Aggregate the per-level traffic into the three groups the paper plots:
    // local buffers (LB, registers), the global buffer, and DRAM.
    let group_of = |level_name: &str| -> &'static str {
        if level_name == "DRAM" {
            "DRAM"
        } else if level_name.starts_with("GB") {
            "GB"
        } else {
            "LB"
        }
    };
    let groups = ["LB", "GB", "DRAM"];

    let mut json_rows = Vec::new();
    for class in [
        DataClass::Activation,
        DataClass::Weight,
        DataClass::DataCopy,
    ] {
        println!(
            "Fig. 14({}) memory access caused by {:?} [GB of traffic]\n",
            match class {
                DataClass::Activation => 'a',
                DataClass::Weight => 'b',
                DataClass::DataCopy => 'c',
            },
            class
        );
        let header = ["mode", "tile (Tx,Ty)", "LB", "GB", "DRAM"];
        let mut rows = Vec::new();
        for mode in OverlapMode::ALL {
            for (tx, ty) in diagonal_tile_sizes() {
                let strategy = DfStrategy::depth_first(TileSize::new(tx, ty), mode);
                let cost = model.evaluate_network(&net, &strategy)?;
                let breakdown: &AccessBreakdown = cost.access_of(class);
                let mut per_group = [0.0f64; 3];
                for (level_id, _op, access) in breakdown.iter() {
                    let name = acc.hierarchy().level(level_id).name();
                    let idx = groups.iter().position(|&g| g == group_of(name)).unwrap();
                    per_group[idx] += access.total_bytes();
                }
                let mut row = vec![mode.to_string(), format!("({tx}, {ty})")];
                for (g, &bytes) in groups.iter().zip(&per_group) {
                    row.push(format!("{:.3}", bytes / 1e9));
                    json_rows.push(Row {
                        mode: mode.to_string(),
                        tx,
                        ty,
                        class: format!("{class:?}"),
                        level: g.to_string(),
                        gigabytes: bytes / 1e9,
                    });
                }
                rows.push(row);
            }
        }
        println!("{}", table(&header, &rows));
    }

    // (d) total memory access.
    println!("Fig. 14(d) total memory access [GB of traffic]\n");
    let header = ["mode", "tile (Tx,Ty)", "LB", "GB", "DRAM"];
    let mut rows = Vec::new();
    for mode in OverlapMode::ALL {
        for (tx, ty) in diagonal_tile_sizes() {
            let strategy = DfStrategy::depth_first(TileSize::new(tx, ty), mode);
            let cost = model.evaluate_network(&net, &strategy)?;
            let mut per_group = [0.0f64; 3];
            for class in DataClass::ALL {
                for (level_id, _op, access) in cost.access_of(class).iter() {
                    let name = acc.hierarchy().level(level_id).name();
                    let idx = groups.iter().position(|&g| g == group_of(name)).unwrap();
                    per_group[idx] += access.total_bytes();
                }
            }
            let mut row = vec![mode.to_string(), format!("({tx}, {ty})")];
            for &bytes in &per_group {
                row.push(format!("{:.3}", bytes / 1e9));
            }
            rows.push(row);
        }
    }
    println!("{}", table(&header, &rows));
    println!(
        "Expected shape (paper): DRAM access is nearly mode-independent and only explodes for the\n\
         largest tiles; LB access at small tiles is ordered recompute > H-cached > fully-cached;\n\
         weight traffic spikes at tile (1,1); data copies matter for small cached tiles and vanish\n\
         for the largest tiles."
    );
    write_json("results/fig14.json", &json_rows)?;
    println!("Wrote results/fig14.json");
    Ok(())
}

//! Fig. 13: MAC operation count for the diagonal depth-first design points of
//! case study 1, per overlap storing mode. Recompute modes perform extra MACs
//! for the overlap regions, especially at small tile sizes.
//!
//! Run with: `cargo run --release -p defines-bench --bin fig13_mac_ops`

use defines_arch::zoo;
use defines_bench::{diagonal_tile_sizes, table};
use defines_core::{DfCostModel, DfStrategy, OverlapMode, TileSize};
use defines_workload::models;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let acc = zoo::meta_proto_like_df();
    let net = models::fsrcnn();
    let model = DfCostModel::new(&acc).with_fast_mapper();
    let lbl_macs: u64 = net.layers().iter().map(|l| l.macs()).sum();

    let header = [
        "tile (Tx,Ty)",
        "fully-recompute",
        "H-cached V-recompute",
        "fully-cached",
    ];
    let mut rows = Vec::new();
    for (tx, ty) in diagonal_tile_sizes() {
        let mut row = vec![format!("({tx}, {ty})")];
        for mode in OverlapMode::ALL {
            let strategy = DfStrategy::depth_first(TileSize::new(tx, ty), mode);
            let cost = model.evaluate_network(&net, &strategy)?;
            row.push(format!(
                "{:.2}e9 ({:.2}x)",
                cost.macs as f64 / 1e9,
                cost.macs as f64 / lbl_macs as f64
            ));
        }
        rows.push(row);
    }
    println!("Fig. 13: MAC operation count per DF strategy (FSRCNN on Meta-proto-like DF)\n");
    println!("{}", table(&header, &rows));
    println!(
        "Layer-by-layer MAC count (no recomputation): {:.2}e9",
        lbl_macs as f64 / 1e9
    );
    println!(
        "Expected shape (paper): fully-cached never recomputes (flat line at the LBL count); the\n\
         recompute modes blow up at small tile sizes, fully-recompute worst of all."
    );
    Ok(())
}

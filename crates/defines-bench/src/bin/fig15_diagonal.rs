//! Fig. 15: total energy and latency of the diagonal design points of case
//! study 1 (the same points as Fig. 13 and Fig. 14).
//!
//! Run with: `cargo run --release -p defines-bench --bin fig15_diagonal`

use defines_arch::zoo;
use defines_bench::{diagonal_tile_sizes, table};
use defines_core::{DfCostModel, DfStrategy, OverlapMode, TileSize};
use defines_workload::models;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let acc = zoo::meta_proto_like_df();
    let net = models::fsrcnn();
    let model = DfCostModel::new(&acc).with_fast_mapper();

    let header = [
        "tile (Tx,Ty)",
        "recompute E (mJ)",
        "H-cached E (mJ)",
        "fully-cached E (mJ)",
        "recompute L (Mcyc)",
        "H-cached L (Mcyc)",
        "fully-cached L (Mcyc)",
    ];
    let mut rows = Vec::new();
    for (tx, ty) in diagonal_tile_sizes() {
        let mut energies = Vec::new();
        let mut latencies = Vec::new();
        for mode in OverlapMode::ALL {
            let strategy = DfStrategy::depth_first(TileSize::new(tx, ty), mode);
            let cost = model.evaluate_network(&net, &strategy)?;
            energies.push(cost.energy_mj());
            latencies.push(cost.latency_mcycles());
        }
        rows.push(vec![
            format!("({tx}, {ty})"),
            format!("{:.2}", energies[0]),
            format!("{:.2}", energies[1]),
            format!("{:.2}", energies[2]),
            format!("{:.1}", latencies[0]),
            format!("{:.1}", latencies[1]),
            format!("{:.1}", latencies[2]),
        ]);
    }
    println!("Fig. 15: total energy and latency of the diagonal design points (FSRCNN on Meta-proto-like DF)\n");
    println!("{}", table(&header, &rows));
    println!(
        "Expected shape (paper): mid-sized tiles minimize both energy and latency; the three modes\n\
         converge at the largest (layer-by-layer) tile."
    );
    Ok(())
}

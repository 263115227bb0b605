//! Ablation: the speed/quality trade-off of the temporal-mapping search
//! budget. The paper artifact trades speed for quality with `loma_lpf_limit`
//! ("setting it to 6 cuts the runtime from 18 hours to 45 minutes while some
//! design points' best found energy increases by a few percent"), a cap on
//! the prime factors LOMA permutes. This mapper permutes whole dimensions, so
//! its knob is a different one: how many of the orderings it samples.
//!
//! The binary evaluates the case-study-1 best region (fully-cached, three tile
//! sizes) of FSRCNN on the Meta-prototype-like DF architecture with mapper
//! budgets from 6 to 720 loop orderings and reports the found energy and the
//! wall-clock time per budget.
//!
//! Run with: `cargo run --release -p defines-bench --bin ablation_mapper`

use defines_bench::table;
use defines_core::{DfCostModel, DfStrategy, OverlapMode, TileSize};
use defines_mapping::MapperConfig;
use defines_workload::models;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let acc = defines_arch::zoo::meta_proto_like_df();
    let net = models::fsrcnn();
    let tiles = [(4u64, 72u64), (16, 18), (60, 72)];
    let budgets = [6usize, 12, 48, 120, 720];

    println!(
        "Mapper-budget ablation: FSRCNN on {}, fully-cached tiles {:?}\n",
        acc.name(),
        tiles
    );
    let header = [
        "orderings",
        "energy (4,72)",
        "energy (16,18)",
        "energy (60,72)",
        "total time (ms)",
    ];
    let mut rows = Vec::new();
    let mut reference: Option<Vec<f64>> = None;
    for &budget in &budgets {
        let model = DfCostModel::new(&acc).with_mapper(MapperConfig {
            max_orderings: budget,
            ..MapperConfig::default()
        });
        #[expect(
            clippy::disallowed_methods,
            reason = "the ablation reports each mapper budget's wall time"
        )]
        let start = Instant::now();
        let energies: Vec<f64> = tiles
            .iter()
            .map(|&(tx, ty)| {
                model
                    .evaluate_network(
                        &net,
                        &DfStrategy::depth_first(TileSize::new(tx, ty), OverlapMode::FullyCached),
                    )
                    .map(|c| c.energy_mj())
                    .expect("evaluation succeeds")
            })
            .collect();
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        if budget == *budgets.last().unwrap() {
            reference = Some(energies.clone());
        }
        rows.push(vec![
            budget.to_string(),
            format!("{:.3}", energies[0]),
            format!("{:.3}", energies[1]),
            format!("{:.3}", energies[2]),
            format!("{elapsed:.0}"),
        ]);
    }
    println!("{}", table(&header, &rows));
    if let Some(reference) = reference {
        println!(
            "Reference (720 orderings): {:.3} / {:.3} / {:.3} mJ. Reduced budgets must stay within a\n\
             few percent of these values, the trade-off the paper reports for its loma_lpf_limit.",
            reference[0], reference[1], reference[2]
        );
    }
    Ok(())
}

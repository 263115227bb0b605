//! Table I(a): the ten case-study accelerator architectures (five baselines
//! and their DF-friendly variants), all normalized to 1024 MACs and at most
//! 2 MB of global buffer.
//!
//! Run with: `cargo run --release -p defines-bench --bin table1_architectures`

use defines_arch::OperandCapacity;
use defines_arch::{zoo, Operand};
use defines_bench::table;

fn main() {
    let header = [
        "Idx",
        "HW architecture",
        "Spatial unrolling (MACs)",
        "on-chip W",
        "on-chip I",
        "on-chip O",
        "levels",
    ];
    let mut rows = Vec::new();
    for (i, acc) in zoo::all_case_study_architectures().into_iter().enumerate() {
        let cap = OperandCapacity::of(&acc);
        let kb = |b: u64| format!("{:.0} KB", b as f64 / 1024.0);
        rows.push(vec![
            format!("{}", i + 1),
            acc.name().to_string(),
            format!(
                "{} ({})",
                acc.pe_array().unrolling(),
                acc.pe_array().total_macs()
            ),
            kb(cap.weight_bytes),
            kb(cap.input_bytes),
            kb(cap.output_bytes),
            format!("{}", acc.hierarchy().len()),
        ]);
    }
    println!("Table I(a): case-study accelerator architectures\n");
    println!("{}", table(&header, &rows));

    println!("Memory hierarchies (innermost -> DRAM):");
    for acc in zoo::all_case_study_architectures() {
        let levels: Vec<String> = acc
            .hierarchy()
            .levels()
            .iter()
            .map(|l| {
                let ops: String = Operand::ALL
                    .iter()
                    .filter(|&&o| l.serves(o))
                    .map(|o| o.to_string())
                    .collect();
                match l.capacity_bytes() {
                    Some(c) => format!("{}[{} {:.0}K]", l.name(), ops, c as f64 / 1024.0),
                    None => format!("{}[{}]", l.name(), ops),
                }
            })
            .collect();
        println!("  {:<22} {}", acc.name(), levels.join(" -> "));
    }
}

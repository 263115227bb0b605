//! Table I(b): the five case-study DNN workloads and their aggregate
//! statistics (average / maximum feature map size, total weights).
//!
//! Run with: `cargo run --release -p defines-bench --bin table1_workloads`

use defines_bench::table;
use defines_workload::models;
use defines_workload::{format_bytes, WorkloadSummary};

fn main() {
    let header = [
        "Idx",
        "Workload",
        "layers",
        "avg feature map",
        "max feature map",
        "total weights",
        "GMACs",
        "dominance",
    ];
    let mut rows = Vec::new();
    for (i, net) in models::case_study_workloads().into_iter().enumerate() {
        let s = WorkloadSummary::of(&net);
        rows.push(vec![
            format!("{}", i + 1),
            net.name().to_string(),
            format!("{}", s.layer_count),
            format_bytes(s.avg_feature_map_bytes),
            format_bytes(s.max_feature_map_bytes),
            format_bytes(s.total_weight_bytes),
            format!("{:.2}", s.total_macs as f64 / 1e9),
            if s.is_activation_dominant() {
                "activation".to_string()
            } else {
                "weight".to_string()
            },
        ]);
    }
    println!("Table I(b): case-study DNN workloads\n");
    println!("{}", table(&header, &rows));
    println!(
        "Paper reference: FSRCNN 10.9/28.5 MB & 15.6 KB, DMCNN-VD 24.1/26.7 MB & 651.3 KB, \
         MCCNN 21.8/29.1 MB & 108.6 KB, MobileNetV1 760 KB/3.8 MB & 4 MB, ResNet18 895 KB/5.9 MB & 11 MB."
    );
}

//! Model zoo: the workloads used by the DeFiNES paper's case studies.
//!
//! The five case-study workloads of Table I(b) are provided, plus the simple
//! reference network used for the DepFiN validation (Section IV):
//!
//! | Constructor | Workload | Character |
//! |---|---|---|
//! | [`fsrcnn`] | FSRCNN super-resolution \[5\] | activation dominant |
//! | [`dmcnn_vd`] | DMCNN-VD demosaicing \[30\] | activation dominant |
//! | [`mccnn`] | MC-CNN fast stereo matching \[33\] | activation dominant |
//! | [`mobilenet_v1`] | MobileNetV1 classification \[10\] | weight dominant |
//! | [`resnet18`] | ResNet18 classification \[8\] | weight dominant |
//! | [`reference_net`] | 11-layer custom reference network (Section IV) | activation dominant |
//!
//! Each network is a committed document under the repository-root
//! `workloads/`, embedded at compile time and parsed by
//! [`loader::from_json_str`] — the path `--workload FILE` takes. The documents
//! are fully explicit (no field is left to shape inference). JSON holds no
//! comments, so the modelling rationale — how each shape was reconstructed
//! from the paper the workload originates from — lives in the rustdoc of the
//! constructor that loads it. Tests in this module pin the aggregate
//! statistics (total weights, maximum feature map) to the regime of
//! Table I(b).

mod classification;
mod restoration;

pub use classification::{mobilenet_v1, resnet18};
pub use restoration::{dmcnn_vd, fsrcnn, mccnn, reference_net};

use crate::loader;
use crate::network::Network;

/// Pairs each name with its document, the repository-root
/// `workloads/<name>.json`, embedded at compile time.
macro_rules! documents {
    ($($name:literal,)*) => {
        [$(($name, include_str!(concat!("../../../../workloads/", $name, ".json")))),*]
    };
}

/// The built-in networks: `--workload` name and embedded document, in the
/// paper's order, the validation reference network last.
const DOCUMENTS: [(&str, &str); 6] = documents![
    "fsrcnn",
    "dmcnn-vd",
    "mccnn",
    "mobilenet-v1",
    "resnet18",
    "reference",
];

/// The `--workload` names of the built-in networks, in the paper's order,
/// the validation reference network last. Each names `workloads/<name>.json`.
pub fn names() -> Vec<&'static str> {
    DOCUMENTS.iter().map(|&(name, _)| name).collect()
}

/// The built-in network with this `--workload` name (`"fsrcnn"`, …), or
/// `None` if [`names`] does not list it.
pub fn by_name(name: &str) -> Option<Network> {
    let &(name, document) = DOCUMENTS.iter().find(|&&(n, _)| n == name)?;
    Some(
        loader::from_json_str(document)
            .unwrap_or_else(|e| panic!("workloads/{name}.json is a valid workload: {e}")),
    )
}

fn builtin(name: &str) -> Network {
    by_name(name).unwrap_or_else(|| panic!("'{name}' is in the model table"))
}

/// All the case-study workloads of Table I(b), in the paper's order.
pub fn case_study_workloads() -> Vec<Network> {
    vec![fsrcnn(), dmcnn_vd(), mccnn(), mobilenet_v1(), resnet18()]
}

/// The workloads used for the DepFiN validation experiment (Fig. 11).
pub fn validation_workloads() -> Vec<Network> {
    vec![fsrcnn(), mccnn(), reference_net()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::WorkloadSummary;

    #[test]
    fn documents_pin_the_builder_integers() {
        // (name, constructor, layers, total weight bytes, max feature-map
        // bytes, total MACs), taken from the Rust builders these documents
        // replaced: only the loader stands between a document and these
        // numbers now.
        type Pin = (&'static str, fn() -> Network, usize, u64, u64, u64);
        #[rustfmt::skip]
        let pins: [Pin; 6] = [
            ("fsrcnn", fsrcnn, 8, 8_432, 29_030_400, 4_371_148_800),
            ("dmcnn-vd", dmcnn_vd, 20, 672_768, 28_311_552, 297_611_034_624),
            ("mccnn", mccnn, 13, 101_696, 29_491_200, 93_723_033_600),
            ("mobilenet-v1", mobilenet_v1, 29, 4_209_088, 802_816, 568_790_528),
            ("resnet18", resnet18, 31, 11_678_912, 802_816, 1_816_657_408),
            ("reference", reference_net, 11, 84_320, 29_491_200, 77_709_312_000),
        ];
        assert_eq!(names(), pins.map(|p| p.0));
        for (name, constructor, layers, weight_bytes, max_fm_bytes, macs) in pins {
            let net = constructor();
            assert_eq!(by_name(name).as_ref(), Some(&net), "{name}");
            let s = WorkloadSummary::of(&net);
            assert_eq!(
                (
                    s.layer_count,
                    s.total_weight_bytes,
                    s.max_feature_map_bytes,
                    s.total_macs
                ),
                (layers, weight_bytes, max_fm_bytes, macs),
                "{name}"
            );
        }
        assert_eq!(by_name("nope"), None);
    }

    #[test]
    fn zoo_is_complete() {
        let nets = case_study_workloads();
        assert_eq!(nets.len(), 5);
        let names: Vec<&str> = nets.iter().map(|n| n.name()).collect();
        assert_eq!(
            names,
            ["FSRCNN", "DMCNN-VD", "MCCNN", "MobileNetV1", "ResNet18"]
        );
        for n in &nets {
            n.validate().unwrap();
        }
    }

    #[test]
    fn validation_set_members() {
        let nets = validation_workloads();
        assert_eq!(nets.len(), 3);
        assert_eq!(nets[2].name(), "ReferenceNet");
    }

    #[test]
    fn fsrcnn_matches_table_1b_regime() {
        let s = WorkloadSummary::of(&fsrcnn());
        // Table I(b): 15.6 KB weights, 28.5 MB max feature map, 10.9 MB average.
        assert!(
            s.total_weight_bytes < 32 * 1024,
            "weights {}",
            s.total_weight_bytes
        );
        assert!(s.max_feature_map_bytes > 20 * 1024 * 1024);
        assert!(s.avg_feature_map_bytes > 5 * 1024 * 1024);
    }

    #[test]
    fn dmcnn_vd_matches_table_1b_regime() {
        let s = WorkloadSummary::of(&dmcnn_vd());
        // Table I(b): 651.3 KB weights, 26.7 MB max feature map.
        assert!(s.total_weight_bytes > 400 * 1024 && s.total_weight_bytes < 1024 * 1024);
        assert!(s.max_feature_map_bytes > 20 * 1024 * 1024);
    }

    #[test]
    fn mccnn_matches_table_1b_regime() {
        let s = WorkloadSummary::of(&mccnn());
        // Table I(b): 108.6 KB weights, 29.1 MB max feature map.
        assert!(s.total_weight_bytes > 64 * 1024 && s.total_weight_bytes < 256 * 1024);
        assert!(s.max_feature_map_bytes > 20 * 1024 * 1024);
    }

    #[test]
    fn mobilenet_matches_table_1b_regime() {
        let s = WorkloadSummary::of(&mobilenet_v1());
        // Table I(b): ~4 MB weights, feature maps well below the weights.
        assert!(s.total_weight_bytes > 3 * 1024 * 1024 && s.total_weight_bytes < 6 * 1024 * 1024);
        assert!(s.max_feature_map_bytes < 4 * 1024 * 1024);
    }

    #[test]
    fn resnet18_matches_table_1b_regime() {
        let s = WorkloadSummary::of(&resnet18());
        // Table I(b): ~11 MB weights.
        assert!(s.total_weight_bytes > 9 * 1024 * 1024 && s.total_weight_bytes < 14 * 1024 * 1024);
        assert!(s.max_feature_map_bytes < 8 * 1024 * 1024);
    }

    #[test]
    fn reference_net_shape() {
        let net = reference_net();
        // 10 layers of K=32 3x3 plus one final K=16 1x1 layer.
        assert_eq!(net.len(), 11);
        assert_eq!(net.layers().last().unwrap().dims.fx, 1);
        assert_eq!(net.layers().last().unwrap().dims.k, 16);
        assert!(net.is_chain());
    }

    #[test]
    fn fsrcnn_final_output_is_960_by_540() {
        let net = fsrcnn();
        let last = net.layers().last().unwrap();
        assert_eq!((last.dims.ox, last.dims.oy), (960, 540));
    }

    #[test]
    fn resnet18_contains_branches() {
        let net = resnet18();
        assert!(!net.is_chain());
        // Residual adds exist.
        assert!(net
            .layers()
            .iter()
            .any(|l| l.op == crate::layer::OpType::Add));
    }

    #[test]
    fn mobilenet_contains_depthwise() {
        let net = mobilenet_v1();
        let dw = net
            .layers()
            .iter()
            .filter(|l| l.op == crate::layer::OpType::DepthwiseConv)
            .count();
        assert_eq!(dw, 13);
    }
}

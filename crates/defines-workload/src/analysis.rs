//! Workload statistics reproducing Table I(b) of the paper.

use crate::layer::OpType;
use crate::network::Network;
use serde::Serialize;

/// Aggregate statistics of a workload.
///
/// These are the quantities listed in Table I(b) of the paper: average and
/// maximum feature-map size, and total weight size, which together indicate
/// whether a workload is *activation-dominant* (FSRCNN, DMCNN-VD, MC-CNN) or
/// *weight-dominant* (MobileNetV1, ResNet18).
///
/// ```
/// use defines_workload::models;
/// use defines_workload::WorkloadSummary;
///
/// let s = WorkloadSummary::of(&models::mobilenet_v1());
/// assert!(s.is_weight_dominant());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct WorkloadSummary {
    /// Number of layers.
    pub layer_count: usize,
    /// Average per-layer output feature-map size in bytes.
    pub avg_feature_map_bytes: u64,
    /// Maximum per-layer output feature-map size in bytes.
    pub max_feature_map_bytes: u64,
    /// Total weight footprint in bytes.
    pub total_weight_bytes: u64,
    /// Total number of MAC operations for one inference.
    pub total_macs: u64,
}

impl WorkloadSummary {
    /// Computes the summary of a network.
    pub fn of(net: &Network) -> Self {
        let mut total_fm = 0u64;
        let mut max_fm = 0u64;
        let mut total_w = 0u64;
        let mut total_macs = 0u64;
        let mut act_layers = 0u64;
        for l in net.layers() {
            let fm = l.output_bytes();
            if l.op != OpType::Add {
                total_fm += fm;
                act_layers += 1;
                max_fm = max_fm.max(fm);
            }
            total_w += l.weight_bytes();
            total_macs += l.macs();
        }
        Self {
            layer_count: net.len(),
            avg_feature_map_bytes: total_fm.checked_div(act_layers).unwrap_or(0),
            max_feature_map_bytes: max_fm,
            total_weight_bytes: total_w,
            total_macs,
        }
    }

    /// A workload is activation-dominant when its average feature map is
    /// larger than its entire weight footprint.
    pub fn is_activation_dominant(&self) -> bool {
        self.avg_feature_map_bytes > self.total_weight_bytes
    }

    /// Convenience negation of [`WorkloadSummary::is_activation_dominant`].
    pub fn is_weight_dominant(&self) -> bool {
        !self.is_activation_dominant()
    }
}

/// Formats a byte count in the mixed KB/MB units used by Table I(b).
///
/// ```
/// assert_eq!(defines_workload::format_bytes(15_976), "15.6 KB");
/// assert_eq!(defines_workload::format_bytes(29_900_000), "28.5 MB");
/// ```
pub fn format_bytes(bytes: u64) -> String {
    const KB: f64 = 1024.0;
    const MB: f64 = 1024.0 * 1024.0;
    let b = bytes as f64;
    if b >= MB {
        format!("{:.1} MB", b / MB)
    } else if b >= KB {
        format!("{:.1} KB", b / KB)
    } else {
        format!("{bytes} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;

    #[test]
    fn activation_dominant_workloads() {
        for net in [models::fsrcnn(), models::dmcnn_vd(), models::mccnn()] {
            let s = WorkloadSummary::of(&net);
            assert!(
                s.is_activation_dominant(),
                "{} should be activation dominant: {s:?}",
                net.name()
            );
        }
    }

    #[test]
    fn weight_dominant_workloads() {
        for net in [models::mobilenet_v1(), models::resnet18()] {
            let s = WorkloadSummary::of(&net);
            assert!(
                s.is_weight_dominant(),
                "{} should be weight dominant: {s:?}",
                net.name()
            );
        }
    }

    #[test]
    fn format_bytes_units() {
        assert_eq!(format_bytes(512), "512 B");
        assert_eq!(format_bytes(2048), "2.0 KB");
        assert!(format_bytes(4 * 1024 * 1024).ends_with("MB"));
    }

    #[test]
    fn summary_totals_are_sums() {
        let net = models::reference_net();
        let s = WorkloadSummary::of(&net);
        let macs: u64 = net.layers().iter().map(|l| l.macs()).sum();
        assert_eq!(s.total_macs, macs);
        assert_eq!(s.layer_count, net.len());
        assert!(s.max_feature_map_bytes >= s.avg_feature_map_bytes);
    }
}

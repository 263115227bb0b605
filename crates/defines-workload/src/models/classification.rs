//! Weight-dominant classification workloads: MobileNetV1 and ResNet18.

use crate::network::Network;

/// MobileNetV1 \[10\] at 224×224×3 input, width multiplier 1.0
/// (`workloads/mobilenet-v1.json`).
///
/// 13 depthwise-separable blocks (depthwise 3×3 + pointwise 1×1) preceded by a
/// strided 3×3 convolution and followed by global average pooling and a
/// fully-connected classifier. Table I(b) regime: ~4 MB of weights, feature
/// maps well under 1 MB on average — weight dominant.
///
/// Modelling choices: the 7×7 global average pooling is a `Pooling` layer
/// with a 7×7 window and stride 7, and the classifier is a 1×1 "convolution"
/// over the pooled 1×1×1024 vector.
pub fn mobilenet_v1() -> Network {
    super::builtin("mobilenet-v1")
}

/// ResNet18 \[8\] at 224×224×3 input (`workloads/resnet18.json`).
///
/// Standard topology: a strided 7×7 stem, a 3×3 max-pool, four stages of two
/// basic residual blocks each (64/128/256/512 channels), global average
/// pooling and a fully-connected classifier. Downsampling stages include the
/// 1×1 projection shortcut, and every residual join is an explicit
/// [`OpType::Add`](crate::layer::OpType::Add) layer with two inputs so the
/// depth-first model sees the branches. Pooling and the classifier are
/// modelled as in [`mobilenet_v1`]. Table I(b) regime: ~11 MB of weights.
pub fn resnet18() -> Network {
    super::builtin("resnet18")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::OpType;

    #[test]
    fn mobilenet_layer_structure() {
        let net = mobilenet_v1();
        // 1 stem + 13*(dw+pw) + pool + fc = 29 layers.
        assert_eq!(net.len(), 29);
        assert!(net.is_chain());
    }

    #[test]
    fn mobilenet_weight_total_close_to_4mb() {
        let total: u64 = mobilenet_v1()
            .layers()
            .iter()
            .map(|l| l.weight_bytes())
            .sum();
        let mb = total as f64 / (1024.0 * 1024.0);
        assert!((3.0..6.0).contains(&mb), "MobileNetV1 weights = {mb:.2} MB");
    }

    #[test]
    fn resnet18_weight_total_close_to_11mb() {
        let total: u64 = resnet18().layers().iter().map(|l| l.weight_bytes()).sum();
        let mb = total as f64 / (1024.0 * 1024.0);
        assert!((9.0..14.0).contains(&mb), "ResNet18 weights = {mb:.2} MB");
    }

    #[test]
    fn resnet18_has_projection_shortcuts() {
        let net = resnet18();
        let shortcuts = net
            .layers()
            .iter()
            .filter(|l| l.name.contains("shortcut"))
            .count();
        assert_eq!(shortcuts, 3);
        // Adds have two predecessors.
        for id in net.layer_ids() {
            if net.layer(id).op == OpType::Add {
                assert_eq!(
                    net.predecessors(id).len(),
                    2,
                    "add layer must join two branches"
                );
            }
        }
    }

    #[test]
    fn resnet18_sinks_and_sources() {
        let net = resnet18();
        assert_eq!(net.source_layers().len(), 1);
        assert_eq!(net.sink_layers().len(), 1);
    }
}

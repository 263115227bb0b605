//! Activation-dominant image-restoration workloads: FSRCNN, DMCNN-VD, MC-CNN
//! and the custom reference network from the validation section.
//!
//! Every layer of these networks is a "same" convolution: the spatial size is
//! preserved through symmetric zero padding of `(f - 1) / 2` per axis, so all
//! layers of a network run at its full output resolution — which is what
//! makes them activation dominant.

use crate::network::Network;

/// FSRCNN super-resolution network \[5\] producing a 960×540 output
/// (`workloads/fsrcnn.json`).
///
/// Eight convolution layers: 5×5 feature extraction (d = 56), 1×1 shrinking
/// (s = 12), four 3×3 mapping layers, 1×1 expanding and a 9×9 reconstruction
/// layer. All layers run at the 960×540 output resolution, which is what makes
/// the workload strongly activation dominant (Table I(b): 15.6 KB of weights
/// versus a 28.5 MB peak feature map).
///
/// The 9×9 stride-3 reconstruction *deconvolution* is modelled as a 3×3
/// convolution on the output grid (`reconstruct_deconv9x9`, `fx = fy = 3`,
/// padding 1): each output pixel of the transposed convolution sees
/// 9 / 3 = 3 effective taps per axis, so the MAC count and data volumes of
/// the deconvolution are preserved.
pub fn fsrcnn() -> Network {
    super::builtin("fsrcnn")
}

/// DMCNN-VD demosaicing network \[30\] (`workloads/dmcnn-vd.json`): a deep
/// stack of twenty 3×3 convolutions running at full image resolution
/// (768×576 here): a 4-channel input, 64 channels throughout, and a
/// 12-channel output layer.
///
/// Table I(b) regime: ~650 KB of weights, ~26 MB peak feature map.
pub fn dmcnn_vd() -> Network {
    super::builtin("dmcnn-vd")
}

/// MC-CNN fast stereo-matching network \[33\] (`workloads/mccnn.json`):
/// twelve 3×3 convolutions with 32 channels at 1280×720, followed by a 1×1
/// similarity layer.
///
/// Table I(b) regime: ~100 KB of weights, ~29 MB peak feature map.
pub fn mccnn() -> Network {
    super::builtin("mccnn")
}

/// The custom reference network of the validation section (Section IV,
/// `workloads/reference.json`): ten 3×3 layers with K = 32 followed by a
/// final 1×1 layer with K = 16, operating on a 1280×720×3 input.
pub fn reference_net() -> Network {
    super::builtin("reference")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fsrcnn_layer_count_and_chain() {
        let net = fsrcnn();
        assert_eq!(net.len(), 8);
        assert!(net.is_chain());
        assert_eq!(net.layers()[0].dims.c, 1);
        assert_eq!(net.layers()[0].dims.k, 56);
    }

    #[test]
    fn fsrcnn_weight_budget_fits_32kb_lb() {
        // The case studies rely on all FSRCNN weights fitting in the
        // Meta-proto-like DF architecture's 32 KB weight local buffer.
        let total: u64 = fsrcnn().layers().iter().map(|l| l.weight_bytes()).sum();
        assert!(total < 32 * 1024, "total weights {total}");
    }

    #[test]
    fn dmcnn_vd_depth() {
        let net = dmcnn_vd();
        assert_eq!(net.len(), 20);
        assert!(net.is_chain());
    }

    #[test]
    fn mccnn_spatial_resolution() {
        let net = mccnn();
        for l in net.layers() {
            assert_eq!((l.dims.ox, l.dims.oy), (1280, 720));
        }
    }

    #[test]
    fn reference_net_channels() {
        let net = reference_net();
        for l in &net.layers()[1..10] {
            assert_eq!(l.dims.k, 32);
            assert_eq!(l.dims.c, 32);
        }
    }
}

//! Single-layer description.

use crate::dims::LayerDims;
use serde::Serialize;
use std::fmt;

/// Identifier of a layer inside a [`crate::Network`].
///
/// Layer ids are assigned by [`crate::Network::add_layer`] in insertion order
/// and are dense (`0..n`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct LayerId(pub usize);

impl fmt::Display for LayerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0 + 1)
    }
}

/// The operator class of a layer.
///
/// The operator class determines how weights are counted and how input
/// channels relate to output channels:
///
/// * [`OpType::Conv`] — dense convolution / fully-connected layer,
///   `K*C*FX*FY` weights.
/// * [`OpType::DepthwiseConv`] — depthwise convolution, one filter per
///   channel: `K*FX*FY` weights and the effective `C` of the MAC loop is 1.
/// * [`OpType::Pooling`] — max/average pooling, no weights, per-channel.
/// * [`OpType::Add`] — element-wise addition of two feature maps (residual
///   connections); no weights, no MACs in the conv sense (modelled as one
///   operation per output element).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum OpType {
    /// Dense convolution (also used for fully-connected layers with
    /// `OX = OY = FX = FY = 1`).
    Conv,
    /// Depthwise convolution.
    DepthwiseConv,
    /// Pooling (max or average).
    Pooling,
    /// Element-wise addition (residual join).
    Add,
}

impl OpType {
    /// Whether the layer has weights that must be stored and moved.
    pub fn has_weights(&self) -> bool {
        matches!(self, OpType::Conv | OpType::DepthwiseConv)
    }
}

impl fmt::Display for OpType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpType::Conv => "Conv",
            OpType::DepthwiseConv => "DwConv",
            OpType::Pooling => "Pool",
            OpType::Add => "Add",
        };
        f.write_str(s)
    }
}

/// A single DNN layer.
///
/// ```
/// use defines_workload::{Layer, LayerDims, OpType};
///
/// let l = Layer::new("conv1", OpType::Conv, LayerDims::conv(32, 3, 112, 112, 3, 3).with_stride(2, 2));
/// assert_eq!(l.weight_elements(), 32 * 3 * 9);
/// assert_eq!(l.macs(), 32 * 3 * 112 * 112 * 9);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Layer {
    /// Human-readable name (unique within a network by convention, not enforced).
    pub name: String,
    /// Operator class.
    pub op: OpType,
    /// Loop dimensions.
    pub dims: LayerDims,
    /// Bits per activation element (inputs and outputs).
    pub act_bits: u32,
    /// Bits per weight element.
    pub weight_bits: u32,
}

impl Layer {
    /// Default activation precision used by the paper's case studies (8 bit).
    pub(crate) const DEFAULT_ACT_BITS: u32 = 8;
    /// Default weight precision used by the paper's case studies (8 bit).
    pub(crate) const DEFAULT_WEIGHT_BITS: u32 = 8;

    /// Creates a layer with default 8-bit activation and weight precision.
    pub fn new(name: impl Into<String>, op: OpType, dims: LayerDims) -> Self {
        Self {
            name: name.into(),
            op,
            dims,
            act_bits: Self::DEFAULT_ACT_BITS,
            weight_bits: Self::DEFAULT_WEIGHT_BITS,
        }
    }

    /// Returns a copy with the given activation precision in bits.
    pub fn with_act_bits(mut self, bits: u32) -> Self {
        self.act_bits = bits;
        self
    }

    /// Returns a copy with the given weight precision in bits.
    pub(crate) fn with_weight_bits(mut self, bits: u32) -> Self {
        self.weight_bits = bits;
        self
    }

    /// Number of weight elements, accounting for the operator class.
    pub fn weight_elements(&self) -> u64 {
        match self.op {
            OpType::Conv => self.dims.weight_elements(),
            OpType::DepthwiseConv => self.dims.k * self.dims.fx * self.dims.fy,
            OpType::Pooling | OpType::Add => 0,
        }
    }

    /// Weight footprint in bytes (rounded up to whole bytes per element).
    pub fn weight_bytes(&self) -> u64 {
        self.weight_elements() * u64::from(self.weight_bits.div_ceil(8))
    }

    /// Number of MAC operations (or per-element ops for pooling/add).
    pub fn macs(&self) -> u64 {
        match self.op {
            OpType::Conv => self.dims.total_macs(),
            // Depthwise convolution: each output channel convolves only its own
            // input channel, so the C loop collapses to 1.
            OpType::DepthwiseConv => {
                self.dims.b
                    * self.dims.k
                    * self.dims.ox
                    * self.dims.oy
                    * self.dims.fx
                    * self.dims.fy
            }
            OpType::Pooling => {
                self.dims.b
                    * self.dims.k
                    * self.dims.ox
                    * self.dims.oy
                    * self.dims.fx
                    * self.dims.fy
            }
            OpType::Add => self.dims.output_elements(),
        }
    }

    /// MAC operations per output pixel: [`Layer::macs`] over `ox·oy`.
    ///
    /// Exact: every operator's [`Layer::macs`] is a product with `ox·oy`
    /// among its factors (for an add, `output_elements` is `b·k·ox·oy`), so
    /// the division leaves no remainder.
    pub fn macs_per_output_pixel(&self) -> u64 {
        let full = self.dims.ox * self.dims.oy;
        if full == 0 {
            return 0;
        }
        self.macs() / full
    }

    /// MAC operations restricted to a `tw`×`th` portion of the output feature
    /// map (used by the depth-first model when evaluating tiles): the
    /// per-pixel count times the region's area, exactly
    /// ([`Layer::macs_per_output_pixel`]).
    pub fn macs_for_output_region(&self, tw: u64, th: u64) -> u64 {
        self.macs_per_output_pixel() * (tw.min(self.dims.ox) * th.min(self.dims.oy))
    }

    /// Number of output activation elements.
    pub(crate) fn output_elements(&self) -> u64 {
        self.dims.output_elements()
    }

    /// Output feature-map footprint in bytes.
    pub fn output_bytes(&self) -> u64 {
        self.output_elements() * u64::from(self.act_bits.div_ceil(8))
    }

    /// Number of input activation elements required to produce the full output.
    pub(crate) fn input_elements(&self) -> u64 {
        match self.op {
            OpType::Conv => self.dims.input_elements(),
            OpType::DepthwiseConv | OpType::Pooling => {
                self.dims.b * self.dims.k * self.dims.input_width() * self.dims.input_height()
            }
            // Add has two inputs of the same size as the output.
            OpType::Add => 2 * self.dims.output_elements(),
        }
    }

    /// Input feature-map footprint in bytes.
    pub fn input_bytes(&self) -> u64 {
        self.input_elements() * u64::from(self.act_bits.div_ceil(8))
    }

    /// The number of input channels the layer consumes.
    ///
    /// For depthwise/pooling layers this equals `K` (per-channel operators);
    /// for dense convolutions it is `C`.
    pub fn input_channels(&self) -> u64 {
        match self.op {
            OpType::Conv => self.dims.c,
            OpType::DepthwiseConv | OpType::Pooling | OpType::Add => self.dims.k,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dims::LayerDims;

    #[test]
    fn conv_weight_count() {
        let l = Layer::new("c", OpType::Conv, LayerDims::conv(64, 32, 56, 56, 3, 3));
        assert_eq!(l.weight_elements(), 64 * 32 * 9);
        assert_eq!(l.weight_bytes(), 64 * 32 * 9);
    }

    #[test]
    fn depthwise_weight_and_mac_count() {
        let l = Layer::new(
            "dw",
            OpType::DepthwiseConv,
            LayerDims::conv(32, 32, 112, 112, 3, 3),
        );
        assert_eq!(l.weight_elements(), 32 * 9);
        assert_eq!(l.macs(), 32 * 112 * 112 * 9);
    }

    #[test]
    fn pooling_has_no_weights() {
        let l = Layer::new(
            "p",
            OpType::Pooling,
            LayerDims::conv(64, 64, 28, 28, 2, 2).with_stride(2, 2),
        );
        assert_eq!(l.weight_elements(), 0);
        assert!(!l.op.has_weights());
        assert_eq!(l.macs(), 64 * 28 * 28 * 4);
    }

    #[test]
    fn add_counts_two_inputs() {
        let l = Layer::new("add", OpType::Add, LayerDims::conv(64, 64, 56, 56, 1, 1));
        assert_eq!(l.input_elements(), 2 * 64 * 56 * 56);
        assert_eq!(l.macs(), 64 * 56 * 56);
    }

    #[test]
    fn tile_macs_scale_with_region() {
        let l = Layer::new("c", OpType::Conv, LayerDims::conv(8, 8, 100, 100, 3, 3));
        assert_eq!(l.macs_for_output_region(100, 100), l.macs());
        assert_eq!(l.macs_for_output_region(50, 100), l.macs() / 2);
        assert_eq!(l.macs_for_output_region(10, 10), l.macs() / 100);
        // Regions larger than the layer clamp to the layer size.
        assert_eq!(l.macs_for_output_region(1000, 1000), l.macs());
    }

    /// Every operator's MAC count has `ox·oy` as a factor, so the per-pixel
    /// count that `macs_for_output_region` scales is exact.
    #[test]
    fn macs_divide_by_the_output_area_for_every_op() {
        let dims = LayerDims::conv(6, 5, 7, 3, 3, 2).with_stride(2, 1);
        for op in [
            OpType::Conv,
            OpType::DepthwiseConv,
            OpType::Pooling,
            OpType::Add,
        ] {
            let l = Layer::new("l", op, dims);
            assert_eq!(l.macs() % (7 * 3), 0, "{op:?}");
            assert_eq!(l.macs_per_output_pixel() * 7 * 3, l.macs(), "{op:?}");
            assert_eq!(
                l.macs_for_output_region(2, 3),
                l.macs_per_output_pixel() * 6
            );
        }
    }

    #[test]
    fn precision_affects_bytes() {
        let l = Layer::new("c", OpType::Conv, LayerDims::conv(4, 4, 8, 8, 1, 1)).with_act_bits(16);
        assert_eq!(l.output_bytes(), 4 * 8 * 8 * 2);
    }

    #[test]
    fn layer_id_display_is_one_based() {
        assert_eq!(LayerId(0).to_string(), "L1");
        assert_eq!(LayerId(7).to_string(), "L8");
    }
}

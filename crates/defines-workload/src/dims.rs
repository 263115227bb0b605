//! Loop-dimension vocabulary shared by the whole framework.
//!
//! DeFiNES (like ZigZag and Timeloop) describes a convolution-style layer by
//! its seven nested loops: batch `B`, output channels `K`, input channels `C`,
//! output spatial dimensions `OX`/`OY` and filter spatial dimensions `FX`/`FY`.

use serde::Serialize;
use std::fmt;

/// One of the seven canonical convolution loop dimensions.
///
/// The spatial unrolling of a PE array and the temporal mapping of a layer are
/// both expressed in terms of these dimensions.
///
/// ```
/// use defines_workload::Dim;
/// assert_eq!(Dim::ALL.len(), 7);
/// assert_eq!(Dim::K.to_string(), "K");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum Dim {
    /// Batch dimension.
    B,
    /// Output-channel dimension.
    K,
    /// Input-channel dimension.
    C,
    /// Output feature-map horizontal dimension.
    OX,
    /// Output feature-map vertical dimension.
    OY,
    /// Filter (weight kernel) horizontal dimension.
    FX,
    /// Filter (weight kernel) vertical dimension.
    FY,
}

impl Dim {
    /// All seven dimensions, in canonical order.
    pub const ALL: [Dim; 7] = [Dim::B, Dim::K, Dim::C, Dim::OX, Dim::OY, Dim::FX, Dim::FY];

    /// The six dimensions that are typically non-trivial for inference
    /// (batch size is one for every workload in the paper).
    pub const SPATIAL_AND_CHANNEL: [Dim; 6] = [Dim::K, Dim::C, Dim::OX, Dim::OY, Dim::FX, Dim::FY];
}

impl fmt::Display for Dim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Dim::B => "B",
            Dim::K => "K",
            Dim::C => "C",
            Dim::OX => "OX",
            Dim::OY => "OY",
            Dim::FX => "FX",
            Dim::FY => "FY",
        };
        f.write_str(s)
    }
}

/// The loop bounds of a single layer, together with stride and padding.
///
/// All sizes are in *elements*; the precision (bits per element) is a property
/// of the layer (see [`crate::Layer`]).
///
/// ```
/// use defines_workload::LayerDims;
///
/// let d = LayerDims::conv(16, 3, 32, 32, 3, 3).with_stride(2, 2);
/// assert_eq!(d.input_width(), 65);
/// assert_eq!(d.total_macs(), 16 * 3 * 32 * 32 * 9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct LayerDims {
    /// Batch size.
    pub b: u64,
    /// Number of output channels.
    pub k: u64,
    /// Number of input channels.
    pub c: u64,
    /// Output feature-map width.
    pub ox: u64,
    /// Output feature-map height.
    pub oy: u64,
    /// Filter width.
    pub fx: u64,
    /// Filter height.
    pub fy: u64,
    /// Horizontal stride.
    pub stride_x: u64,
    /// Vertical stride.
    pub stride_y: u64,
    /// Horizontal padding applied on each side of the input.
    pub pad_x: u64,
    /// Vertical padding applied on each side of the input.
    pub pad_y: u64,
}

impl LayerDims {
    /// Creates convolution-layer dimensions with stride 1 and zero padding.
    pub fn conv(k: u64, c: u64, ox: u64, oy: u64, fx: u64, fy: u64) -> Self {
        Self {
            b: 1,
            k,
            c,
            ox,
            oy,
            fx,
            fy,
            stride_x: 1,
            stride_y: 1,
            pad_x: 0,
            pad_y: 0,
        }
    }

    /// Returns a copy with the given strides.
    pub fn with_stride(mut self, sx: u64, sy: u64) -> Self {
        self.stride_x = sx;
        self.stride_y = sy;
        self
    }

    /// Returns a copy with the given symmetric padding.
    pub fn with_padding(mut self, px: u64, py: u64) -> Self {
        self.pad_x = px;
        self.pad_y = py;
        self
    }

    /// Loop bound of a given dimension.
    pub fn size(&self, dim: Dim) -> u64 {
        match dim {
            Dim::B => self.b,
            Dim::K => self.k,
            Dim::C => self.c,
            Dim::OX => self.ox,
            Dim::OY => self.oy,
            Dim::FX => self.fx,
            Dim::FY => self.fy,
        }
    }

    /// Width of the input region required to compute the full output width,
    /// excluding padding contributions that fall outside the real input.
    pub fn input_width(&self) -> u64 {
        input_extent(self.ox, self.stride_x, self.fx)
    }

    /// Height of the input region required to compute the full output height.
    pub fn input_height(&self) -> u64 {
        input_extent(self.oy, self.stride_y, self.fy)
    }

    /// Total number of multiply-accumulate operations in the layer.
    pub fn total_macs(&self) -> u64 {
        self.b * self.k * self.c * self.ox * self.oy * self.fx * self.fy
    }

    /// Number of output elements.
    pub fn output_elements(&self) -> u64 {
        self.b * self.k * self.ox * self.oy
    }

    /// Number of input elements (of the full required input region).
    pub(crate) fn input_elements(&self) -> u64 {
        self.b * self.c * self.input_width() * self.input_height()
    }

    /// Number of weight elements for a dense convolution.
    pub fn weight_elements(&self) -> u64 {
        self.k * self.c * self.fx * self.fy
    }
}

/// Input extent along one axis for `out` output elements with stride `s` and
/// kernel size `f`: `(out - 1) * s + f`.
///
/// [`LayerDims::input_width`] and [`LayerDims::input_height`] apply it per
/// axis:
///
/// ```
/// use defines_workload::LayerDims;
/// let dims = LayerDims::conv(1, 1, 6, 4, 3, 3).with_stride(1, 2);
/// assert_eq!(dims.input_width(), 8);
/// assert_eq!(dims.input_height(), 9);
/// assert_eq!(LayerDims::conv(1, 1, 0, 0, 3, 3).input_width(), 0);
/// ```
pub(crate) fn input_extent(out: u64, stride: u64, kernel: u64) -> u64 {
    if out == 0 {
        0
    } else {
        (out - 1) * stride + kernel
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dim_display_roundtrip() {
        for d in Dim::ALL {
            assert!(!d.to_string().is_empty());
        }
        assert_eq!(Dim::OX.to_string(), "OX");
    }

    #[test]
    fn conv_dims_defaults() {
        let d = LayerDims::conv(8, 4, 16, 12, 3, 3);
        assert_eq!(d.b, 1);
        assert_eq!(d.stride_x, 1);
        assert_eq!(d.pad_y, 0);
        assert_eq!(d.size(Dim::K), 8);
        assert_eq!(d.size(Dim::OY), 12);
    }

    #[test]
    fn input_extent_edge_cases() {
        assert_eq!(input_extent(1, 1, 1), 1);
        assert_eq!(input_extent(1, 7, 3), 3);
        assert_eq!(input_extent(10, 1, 1), 10);
        assert_eq!(input_extent(0, 2, 5), 0);
    }

    #[test]
    fn mac_and_element_counts() {
        let d = LayerDims::conv(2, 3, 4, 5, 3, 3);
        assert_eq!(d.total_macs(), 2 * 3 * 4 * 5 * 9);
        assert_eq!(d.output_elements(), 2 * 4 * 5);
        assert_eq!(d.weight_elements(), 2 * 3 * 9);
        assert_eq!(d.input_elements(), 3 * 6 * 7);
    }

    #[test]
    fn strided_input_sizes() {
        let d = LayerDims::conv(1, 1, 112, 112, 3, 3).with_stride(2, 2);
        assert_eq!(d.input_width(), 225);
        assert_eq!(d.input_height(), 225);
    }
}

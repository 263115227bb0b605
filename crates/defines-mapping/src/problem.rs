//! The single-layer mapping problem: layer tile + accelerator + operand top
//! memory levels.

use defines_arch::{Accelerator, MemoryLevelId, Operand};
use defines_workload::{Dim, Layer, LayerDims, OpType};
use serde::Serialize;

/// The highest memory level each operand is allowed to use for this problem.
///
/// The depth-first model of `defines-core` lowers these below DRAM whenever a
/// tile's data fits on chip (the paper's "multi-level memory skipping"); for a
/// plain single-layer evaluation they default to the outermost level serving
/// each operand (DRAM).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct OperandTopLevels {
    /// Top level for weights.
    pub weight: MemoryLevelId,
    /// Top level for input activations.
    pub input: MemoryLevelId,
    /// Top level for output activations.
    pub output: MemoryLevelId,
}

impl OperandTopLevels {
    /// All operands fetch from / drain to DRAM (single-layer default).
    pub fn dram(acc: &Accelerator) -> Self {
        let dram = acc.hierarchy().dram_id();
        Self {
            weight: dram,
            input: dram,
            output: dram,
        }
    }

    /// The top level for a given operand.
    pub fn level(&self, operand: Operand) -> MemoryLevelId {
        match operand {
            Operand::Weight => self.weight,
            Operand::Input => self.input,
            Operand::Output => self.output,
        }
    }

    /// Returns a copy with the level of one operand replaced.
    pub fn with_level(mut self, operand: Operand, level: MemoryLevelId) -> Self {
        match operand {
            Operand::Weight => self.weight = level,
            Operand::Input => self.input = level,
            Operand::Output => self.output = level,
        }
        self
    }
}

/// A single-layer (or single layer-tile) mapping and cost problem.
#[derive(Debug, Clone)]
pub struct SingleLayerProblem<'a> {
    /// The accelerator to map onto.
    pub accelerator: &'a Accelerator,
    /// Operator class of the layer.
    pub op: OpType,
    /// Loop dimensions of the (tile of the) layer.
    pub dims: LayerDims,
    /// Bits per activation element.
    pub act_bits: u32,
    /// Bits per weight element.
    pub weight_bits: u32,
    /// Highest memory level each operand may use.
    pub top_levels: OperandTopLevels,
}

impl<'a> SingleLayerProblem<'a> {
    /// Builds a problem for a full layer with all operands backed by DRAM.
    pub fn new(accelerator: &'a Accelerator, layer: &Layer) -> Self {
        Self {
            accelerator,
            op: layer.op,
            dims: layer.dims,
            act_bits: layer.act_bits,
            weight_bits: layer.weight_bits,
            top_levels: OperandTopLevels::dram(accelerator),
        }
    }

    /// Builds a problem for a tile of a layer (`dims` already reduced to the
    /// tile) with explicit operand top levels.
    pub fn for_tile(
        accelerator: &'a Accelerator,
        layer: &Layer,
        dims: LayerDims,
        top_levels: OperandTopLevels,
    ) -> Self {
        Self {
            accelerator,
            op: layer.op,
            dims,
            act_bits: layer.act_bits,
            weight_bits: layer.weight_bits,
            top_levels,
        }
    }

    /// Returns a copy with different operand top levels.
    pub fn with_top_levels(mut self, top_levels: OperandTopLevels) -> Self {
        self.top_levels = top_levels;
        self
    }

    /// The loop dimensions that are *relevant* to an operand — i.e. the
    /// dimensions that index into the operand's data. Irrelevant loops provide
    /// temporal reuse for the operand.
    pub(crate) fn relevant_dims(&self, operand: Operand) -> &'static [Dim] {
        relevant_dims(self.op, operand)
    }

    /// Bytes per element of an operand.
    pub(crate) fn bytes_per_element(&self, operand: Operand) -> u64 {
        let bits = match operand {
            Operand::Weight => self.weight_bits,
            Operand::Input | Operand::Output => self.act_bits,
        };
        u64::from(bits.div_ceil(8))
    }

    /// Total number of MAC operations (or per-element operations for layers
    /// without MACs) of the problem.
    pub(crate) fn total_macs(&self) -> u64 {
        match self.op {
            OpType::Conv => self.dims.total_macs(),
            OpType::DepthwiseConv | OpType::Pooling => {
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

    /// Total weight footprint in bytes (zero for weight-less operators).
    pub(crate) fn weight_footprint_bytes(&self) -> u64 {
        let elements = match self.op {
            OpType::Conv => self.dims.weight_elements(),
            OpType::DepthwiseConv => self.dims.k * self.dims.fx * self.dims.fy,
            OpType::Pooling | OpType::Add => 0,
        };
        elements * self.bytes_per_element(Operand::Weight)
    }

    /// Total input footprint in bytes for the problem's dimensions.
    pub(crate) fn input_footprint_bytes(&self) -> u64 {
        let channels = match self.op {
            OpType::Conv => self.dims.c,
            OpType::DepthwiseConv | OpType::Pooling => self.dims.k,
            OpType::Add => 2 * self.dims.k,
        };
        self.dims.b
            * channels
            * self.dims.input_width()
            * self.dims.input_height()
            * self.bytes_per_element(Operand::Input)
    }

    /// Total output footprint in bytes.
    pub(crate) fn output_footprint_bytes(&self) -> u64 {
        self.dims.output_elements() * self.bytes_per_element(Operand::Output)
    }

    /// Total footprint of an operand in bytes.
    pub(crate) fn footprint_bytes(&self, operand: Operand) -> u64 {
        match operand {
            Operand::Weight => self.weight_footprint_bytes(),
            Operand::Input => self.input_footprint_bytes(),
            Operand::Output => self.output_footprint_bytes(),
        }
    }
}

/// Relevant dimensions per (operator class, operand).
pub(crate) fn relevant_dims(op: OpType, operand: Operand) -> &'static [Dim] {
    match (op, operand) {
        (OpType::Conv, Operand::Weight) => &[Dim::K, Dim::C, Dim::FX, Dim::FY],
        (OpType::Conv, Operand::Input) => &[Dim::B, Dim::C, Dim::OX, Dim::OY, Dim::FX, Dim::FY],
        (OpType::Conv, Operand::Output) => &[Dim::B, Dim::K, Dim::OX, Dim::OY],
        // Depthwise / pooling layers index inputs by the output channel.
        (OpType::DepthwiseConv, Operand::Weight) => &[Dim::K, Dim::FX, Dim::FY],
        (OpType::DepthwiseConv | OpType::Pooling, Operand::Input) => {
            &[Dim::B, Dim::K, Dim::OX, Dim::OY, Dim::FX, Dim::FY]
        }
        (OpType::DepthwiseConv | OpType::Pooling, Operand::Output) => {
            &[Dim::B, Dim::K, Dim::OX, Dim::OY]
        }
        (OpType::Pooling, Operand::Weight) => &[],
        (OpType::Add, Operand::Weight) => &[],
        (OpType::Add, Operand::Input) => &[Dim::B, Dim::K, Dim::OX, Dim::OY],
        (OpType::Add, Operand::Output) => &[Dim::B, Dim::K, Dim::OX, Dim::OY],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use defines_arch::zoo;
    use defines_workload::{Layer, LayerDims};

    fn layer() -> Layer {
        Layer::new("conv", OpType::Conv, LayerDims::conv(32, 16, 56, 56, 3, 3))
    }

    #[test]
    fn default_top_levels_are_dram() {
        let acc = zoo::meta_proto_like();
        let p = SingleLayerProblem::new(&acc, &layer());
        let dram = acc.hierarchy().dram_id();
        assert_eq!(p.top_levels.weight, dram);
        assert_eq!(p.top_levels.level(Operand::Input), dram);
    }

    #[test]
    fn with_level_replaces_one_operand() {
        let acc = zoo::meta_proto_like_df();
        let lb = acc.hierarchy().level_id_named("LB_IO").unwrap();
        let t = OperandTopLevels::dram(&acc).with_level(Operand::Input, lb);
        assert_eq!(t.input, lb);
        assert_eq!(t.weight, acc.hierarchy().dram_id());
    }

    #[test]
    fn footprints_match_layer_helpers() {
        let acc = zoo::meta_proto_like();
        let l = layer();
        let p = SingleLayerProblem::new(&acc, &l);
        assert_eq!(p.weight_footprint_bytes(), l.weight_bytes());
        assert_eq!(p.output_footprint_bytes(), l.output_bytes());
        assert_eq!(p.input_footprint_bytes(), l.input_bytes());
        assert_eq!(p.total_macs(), l.macs());
    }

    #[test]
    fn relevance_tables() {
        assert!(relevant_dims(OpType::Conv, Operand::Weight).contains(&Dim::C));
        assert!(!relevant_dims(OpType::Conv, Operand::Weight).contains(&Dim::OX));
        assert!(!relevant_dims(OpType::Conv, Operand::Output).contains(&Dim::C));
        assert!(relevant_dims(OpType::DepthwiseConv, Operand::Input).contains(&Dim::K));
        assert!(relevant_dims(OpType::Pooling, Operand::Weight).is_empty());
    }

    #[test]
    fn depthwise_footprints() {
        let acc = zoo::meta_proto_like();
        let l = Layer::new(
            "dw",
            OpType::DepthwiseConv,
            LayerDims::conv(32, 32, 56, 56, 3, 3),
        );
        let p = SingleLayerProblem::new(&acc, &l);
        assert_eq!(p.weight_footprint_bytes(), 32 * 9);
        assert_eq!(p.total_macs(), 32 * 56 * 56 * 9);
    }

    #[test]
    fn bytes_per_element_follows_precision() {
        let acc = zoo::meta_proto_like();
        let l = layer().with_act_bits(16);
        let p = SingleLayerProblem::new(&acc, &l);
        assert_eq!(p.bytes_per_element(Operand::Input), 2);
        assert_eq!(p.bytes_per_element(Operand::Weight), 1);
    }
}

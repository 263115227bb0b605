//! Declarative JSON schema for workloads: the serde-backed document types
//! that describe a network as data instead of Rust code.
//!
//! A workload document is a JSON object with a `name` and a topologically
//! ordered list of `layers`. Each layer names its operator, its producers
//! (`inputs`, by layer name — an empty list marks a network input) and its
//! loop dimensions; dimensions that follow from the producers may be omitted
//! and are shape-inferred by the [`loader`](crate::loader):
//!
//! ```json
//! {
//!   "format": "defines-workload-v1",
//!   "name": "my-net",
//!   "layers": [
//!     {"name": "stem", "op": "Conv", "inputs": [],
//!      "k": 16, "c": 3, "ox": 128, "oy": 128, "fx": 3, "fy": 3,
//!      "stride": [1, 1], "padding": [1, 1]},
//!     {"name": "head", "op": "Conv", "inputs": ["stem"], "k": 4}
//!   ]
//! }
//! ```
//!
//! The schema is the bridge in both directions: [`WorkloadDoc::from_network`]
//! exports any in-memory [`Network`] (including the built-in zoo models) as a
//! fully explicit document — every zoo document under `workloads/` is
//! byte-equal to its own export — and the loader turns documents back into
//! validated [`Network`]s. Round-tripping a network through JSON reproduces
//! it exactly.

use crate::layer::{Layer, OpType};
use crate::loader::WorkloadError;
use crate::network::Network;
use serde::{Deserialize, Serialize};

/// The format tag expected in a workload document's optional `format` field.
pub const FORMAT: &str = "defines-workload-v1";

/// A whole workload document: the JSON-facing twin of [`Network`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadDoc {
    /// Format tag ([`FORMAT`]); optional on input, always written on export.
    pub format: Option<String>,
    /// Network name.
    pub name: String,
    /// Layers in topological order (producers before consumers).
    pub layers: Vec<LayerSpec>,
}

/// One layer of a workload document: the JSON-facing twin of [`Layer`].
///
/// Only `name`, `op` and `inputs` are always required. `fx`/`fy` default to
/// 1, `stride` to `[1, 1]`, `padding` to `[0, 0]`, `batch` to 1 and the
/// precisions to 8 bit. The channel and spatial dimensions may be omitted
/// wherever the loader can infer them from the producer layers (see
/// [`crate::loader`] for the exact rules).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerSpec {
    /// Layer name, unique within the document.
    pub name: String,
    /// Operator: `"Conv"`, `"DepthwiseConv"`, `"Pooling"` or `"Add"`
    /// (lower-case and short aliases accepted on input).
    pub op: String,
    /// Names of the producer layers; empty for network-input layers.
    pub inputs: Vec<String>,
    /// Output channels. Required for `Conv`; inferable from the producer for
    /// the per-channel operators.
    pub k: Option<u64>,
    /// Input channels. Inferable from the producer's output channels.
    pub c: Option<u64>,
    /// Output feature-map width. Inferable via the convolution arithmetic.
    pub ox: Option<u64>,
    /// Output feature-map height. Inferable via the convolution arithmetic.
    pub oy: Option<u64>,
    /// Filter width (default 1).
    pub fx: Option<u64>,
    /// Filter height (default 1).
    pub fy: Option<u64>,
    /// `[stride_x, stride_y]` (default `[1, 1]`).
    pub stride: Option<(u64, u64)>,
    /// `[pad_x, pad_y]`, symmetric per axis (default `[0, 0]`).
    pub padding: Option<(u64, u64)>,
    /// Batch size (default 1).
    pub batch: Option<u64>,
    /// Bits per activation element (default 8).
    pub act_bits: Option<u32>,
    /// Bits per weight element (default 8).
    pub weight_bits: Option<u32>,
}

/// The canonical document name of an operator.
pub fn op_name(op: OpType) -> &'static str {
    match op {
        OpType::Conv => "Conv",
        OpType::DepthwiseConv => "DepthwiseConv",
        OpType::Pooling => "Pooling",
        OpType::Add => "Add",
    }
}

/// Parses an operator name. Accepts the canonical names plus common
/// lower-case / abbreviated aliases.
pub fn parse_op(name: &str) -> Option<OpType> {
    match name {
        "Conv" | "conv" => Some(OpType::Conv),
        "DepthwiseConv" | "depthwise_conv" | "dwconv" | "depthwise" => Some(OpType::DepthwiseConv),
        "Pooling" | "pooling" | "pool" => Some(OpType::Pooling),
        "Add" | "add" => Some(OpType::Add),
        _ => None,
    }
}

impl LayerSpec {
    /// A fully explicit spec of an existing layer (no field left to
    /// inference).
    fn from_layer(layer: &Layer, inputs: Vec<String>) -> Self {
        let d = &layer.dims;
        Self {
            name: layer.name.clone(),
            op: op_name(layer.op).to_string(),
            inputs,
            k: Some(d.k),
            c: Some(d.c),
            ox: Some(d.ox),
            oy: Some(d.oy),
            fx: Some(d.fx),
            fy: Some(d.fy),
            stride: Some((d.stride_x, d.stride_y)),
            padding: Some((d.pad_x, d.pad_y)),
            batch: Some(d.b),
            act_bits: Some(layer.act_bits),
            weight_bits: Some(layer.weight_bits),
        }
    }
}

impl WorkloadDoc {
    /// Exports a network as a fully explicit workload document.
    ///
    /// Every dimension is written out (nothing is left to shape inference),
    /// so the document loads back into an identical [`Network`] and remains
    /// valid even if the inference rules evolve.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::Layer`] if two layers share a name: document
    /// edges are by name, so names must be unique to be exportable.
    pub fn from_network(net: &Network) -> Result<Self, WorkloadError> {
        let mut seen = std::collections::BTreeSet::new();
        for layer in net.layers() {
            if !seen.insert(layer.name.as_str()) {
                return Err(WorkloadError::Layer {
                    layer: layer.name.clone(),
                    message: "duplicate layer name: documents reference producers by name, \
                              so layer names must be unique to export"
                        .to_string(),
                });
            }
        }
        let layers = net
            .layer_ids()
            .map(|id| {
                let inputs = net
                    .predecessors(id)
                    .iter()
                    .map(|&p| net.layer(p).name.clone())
                    .collect();
                LayerSpec::from_layer(net.layer(id), inputs)
            })
            .collect();
        Ok(Self {
            format: Some(FORMAT.to_string()),
            name: net.name().to_string(),
            layers,
        })
    }

    /// Renders the document as pretty-printed JSON.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_value(self).to_json_pretty()
    }

    /// Renders the document as compact JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_value(self).to_json()
    }
}

/// Exports a network as pretty-printed workload JSON (the format of the
/// reference files under `workloads/`).
///
/// # Errors
///
/// Returns [`WorkloadError::Layer`] if two layers share a name.
///
/// ```
/// use defines_workload::{models, schema};
///
/// let json = schema::to_json_pretty(&models::fsrcnn()).unwrap();
/// let reloaded = defines_workload::loader::from_json_str(&json).unwrap();
/// assert_eq!(reloaded, models::fsrcnn());
/// ```
pub fn to_json_pretty(net: &Network) -> Result<String, WorkloadError> {
    Ok(WorkloadDoc::from_network(net)?.to_json_pretty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;

    #[test]
    fn op_names_round_trip() {
        for op in [
            OpType::Conv,
            OpType::DepthwiseConv,
            OpType::Pooling,
            OpType::Add,
        ] {
            assert_eq!(parse_op(op_name(op)), Some(op));
        }
        assert_eq!(parse_op("pool"), Some(OpType::Pooling));
        assert_eq!(parse_op("Softmax"), None);
    }

    #[test]
    fn export_is_fully_explicit() {
        let doc = WorkloadDoc::from_network(&models::fsrcnn()).unwrap();
        assert_eq!(doc.format.as_deref(), Some(FORMAT));
        assert_eq!(doc.name, "FSRCNN");
        assert_eq!(doc.layers.len(), 8);
        for spec in &doc.layers {
            assert!(spec.k.is_some() && spec.c.is_some());
            assert!(spec.ox.is_some() && spec.oy.is_some());
            assert!(spec.stride.is_some() && spec.padding.is_some());
        }
        // Chain edges are by producer name.
        assert_eq!(doc.layers[1].inputs, vec!["feature_extract_5x5"]);
    }

    #[test]
    fn export_preserves_branches() {
        let doc = WorkloadDoc::from_network(&models::resnet18()).unwrap();
        let add = doc.layers.iter().find(|l| l.op == "Add").unwrap();
        assert_eq!(add.inputs.len(), 2);
    }

    #[test]
    fn duplicate_names_are_rejected_on_export() {
        use crate::dims::LayerDims;

        let mut net = Network::new("dup");
        let a = net
            .add_layer(
                Layer::new("x", OpType::Conv, LayerDims::conv(4, 3, 8, 8, 3, 3)),
                &[],
            )
            .unwrap();
        net.add_layer(
            Layer::new("x", OpType::Conv, LayerDims::conv(4, 4, 8, 8, 1, 1)),
            &[a],
        )
        .unwrap();
        let err = WorkloadDoc::from_network(&net).unwrap_err();
        assert!(err.to_string().contains("layer 'x'"), "{err}");
    }
}

//! Declarative JSON schema for workloads: a document describes a network as
//! data instead of Rust code.
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
//! Only `name` and `op` are always required (`inputs` defaults to `[]`).
//! `op` is `"Conv"`, `"DepthwiseConv"`, `"Pooling"` or `"Add"` (see
//! [`parse_op`] for the accepted aliases). `fx`/`fy` default to 1, `stride`
//! to `[1, 1]`, `padding` (symmetric per axis) to `[0, 0]`, `batch` to 1 and
//! `act_bits`/`weight_bits` to 8.
//!
//! [`to_json_pretty`] writes any [`Network`] (including the built-in zoo
//! models) as a fully explicit document — every zoo document under
//! `workloads/` is byte-equal to its own export — and the
//! [`loader`](crate::loader) reads documents into validated [`Network`]s.
//! Round-tripping a network through JSON reproduces it exactly.

use crate::layer::OpType;
use crate::loader::WorkloadError;
use crate::network::Network;
use serde::{Serialize, Writer};

/// The format tag expected in a workload document's optional `format` field.
pub(crate) const FORMAT: &str = "defines-workload-v1";

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

/// Exports a network as pretty-printed, fully explicit workload JSON (the
/// format of the reference files under `workloads/`).
///
/// Every dimension is written out (nothing is left to shape inference), so
/// the document loads back into an identical [`Network`] and stays valid even
/// if the inference rules evolve.
///
/// # Errors
///
/// Returns [`WorkloadError::Layer`] if two layers share a name: document
/// edges are by name, so names must be unique to be exportable.
///
/// ```
/// use defines_workload::{models, to_json_pretty};
///
/// let json = to_json_pretty(&models::fsrcnn()).unwrap();
/// let reloaded = defines_workload::from_json_str(&json).unwrap();
/// assert_eq!(reloaded, models::fsrcnn());
/// ```
pub fn to_json_pretty(net: &Network) -> Result<String, WorkloadError> {
    let mut seen = std::collections::BTreeSet::new();
    let mut layers = Vec::with_capacity(net.len());
    for id in net.layer_ids() {
        let layer = net.layer(id);
        if !seen.insert(layer.name.as_str()) {
            return Err(WorkloadError::Layer {
                layer: layer.name.clone(),
                message: "duplicate layer name: documents reference producers by name, \
                          so layer names must be unique to export"
                    .to_string(),
            });
        }
        let inputs = net.predecessors(id).iter();
        let d = &layer.dims;
        layers.push(LayerDoc {
            name: layer.name.clone(),
            op: op_name(layer.op),
            inputs: inputs.map(|&p| net.layer(p).name.clone()).collect(),
            k: d.k,
            c: d.c,
            ox: d.ox,
            oy: d.oy,
            fx: d.fx,
            fy: d.fy,
            stride: [d.stride_x, d.stride_y],
            padding: [d.pad_x, d.pad_y],
            batch: d.b,
            act_bits: layer.act_bits,
            weight_bits: layer.weight_bits,
        });
    }
    let mut out = String::new();
    let w = &mut Writer::pretty(&mut out);
    w.begin_object();
    w.field("format", FORMAT);
    w.field("name", net.name());
    w.field("layers", &layers);
    w.end_object();
    Ok(out)
}

/// One exported layer, every dimension explicit.
#[derive(Serialize)]
struct LayerDoc {
    name: String,
    op: &'static str,
    inputs: Vec<String>,
    k: u64,
    c: u64,
    ox: u64,
    oy: u64,
    fx: u64,
    fy: u64,
    stride: [u64; 2],
    padding: [u64; 2],
    batch: u64,
    act_bits: u32,
    weight_bits: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;
    use serde::Value;

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

    /// The exported document of `net`, parsed back into a JSON value.
    fn export(net: &Network) -> Value {
        serde_json::from_str(&to_json_pretty(net).unwrap()).unwrap()
    }

    fn layers(doc: &Value) -> &[Value] {
        doc.get("layers").and_then(Value::as_array).unwrap()
    }

    #[test]
    fn export_is_fully_explicit() {
        let doc = export(&models::fsrcnn());
        assert_eq!(doc.get("format").and_then(Value::as_str), Some(FORMAT));
        assert_eq!(doc.get("name").and_then(Value::as_str), Some("FSRCNN"));
        assert_eq!(layers(&doc).len(), 8);
        for layer in layers(&doc) {
            for key in ["k", "c", "ox", "oy", "stride", "padding"] {
                assert!(layer.get(key).is_some(), "{key}");
            }
        }
        // Chain edges are by producer name.
        assert_eq!(
            layers(&doc)[1].get("inputs"),
            Some(&Value::Array(vec![Value::Str(
                "feature_extract_5x5".into()
            )]))
        );
    }

    #[test]
    fn export_preserves_branches() {
        let doc = export(&models::resnet18());
        let add = layers(&doc)
            .iter()
            .find(|l| l.get("op").and_then(Value::as_str) == Some("Add"))
            .unwrap();
        assert_eq!(
            add.get("inputs").and_then(Value::as_array).unwrap().len(),
            2
        );
    }

    #[test]
    fn duplicate_names_are_rejected_on_export() {
        use crate::dims::LayerDims;
        use crate::layer::Layer;

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
        let err = to_json_pretty(&net).unwrap_err();
        assert!(err.to_string().contains("layer 'x'"), "{err}");
    }
}

//! JSON workload loader: parses a [`WorkloadDoc`] and turns it into a
//! validated [`Network`], inferring omitted shapes.
//!
//! # Shape inference
//!
//! Layers are processed in document order; every `inputs` entry must name an
//! earlier layer. For a layer with producers, omitted dimensions are derived:
//!
//! * `c` (input channels) — the first producer's output channels `k`. For the
//!   per-channel operators (`DepthwiseConv`, `Pooling`, `Add`) the convention
//!   `c = k` is applied instead.
//! * `k` (output channels) — for per-channel operators only, the producer's
//!   `k` (a dense `Conv` must state its `k`).
//! * `ox` / `oy` — the standard convolution arithmetic
//!   `(producer_extent + 2 * pad - filter) / stride + 1`.
//! * `batch` — the producer's batch size.
//!
//! Network-input layers (empty `inputs`) must state `k`, `c`, `ox` and `oy`
//! explicitly (except `Conv`'s `c`-only inference has nothing to draw from).
//!
//! # Validation
//!
//! Every error names the offending layer: unknown operators, references to
//! undeclared producers, channel mismatches against the producer, spatial
//! regions larger than what the producer (plus padding) supplies, `Add`
//! layers without exactly two congruent inputs, and zero-sized dimensions
//! are all rejected.
//!
//! # Bring your own network
//!
//! ```
//! let json = r#"{
//!   "name": "my-edge-net",
//!   "layers": [
//!     {"name": "stem", "op": "Conv", "inputs": [],
//!      "k": 16, "c": 3, "ox": 128, "oy": 128,
//!      "fx": 3, "fy": 3, "padding": [1, 1]},
//!     {"name": "body", "op": "Conv", "inputs": ["stem"],
//!      "k": 16, "fx": 3, "fy": 3, "padding": [1, 1]},
//!     {"name": "pool", "op": "Pooling", "inputs": ["body"],
//!      "fx": 2, "fy": 2, "stride": [2, 2]},
//!     {"name": "head", "op": "Conv", "inputs": ["pool"], "k": 4}
//!   ]
//! }"#;
//!
//! let net = defines_workload::loader::from_json_str(json).unwrap();
//! assert_eq!(net.len(), 4);
//! // `body` inferred c = 16 (stem's k) and ox/oy = 128 ("same" padding);
//! // `pool` inferred k = c = 16 and ox/oy = 64; `head` runs at 64x64.
//! let head = net.layers().last().unwrap();
//! assert_eq!((head.dims.c, head.dims.ox, head.dims.oy), (16, 64, 64));
//! ```

use crate::dims::{input_extent, LayerDims};
use crate::layer::{Layer, LayerId, OpType};
use crate::network::Network;
use crate::schema::{parse_op, LayerSpec, WorkloadDoc, FORMAT};
use serde::{Fields, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// Errors produced while loading a workload document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadError {
    /// The file could not be read.
    Io {
        /// The path that failed.
        path: String,
        /// The OS error message.
        message: String,
    },
    /// The text is not valid JSON.
    Json(String),
    /// The JSON is valid but the document structure is not (wrong top-level
    /// shape, missing `name`/`layers`, unsupported `format` tag, …).
    Document(String),
    /// A specific layer is invalid; the message explains why.
    Layer {
        /// Name of the offending layer.
        layer: String,
        /// What is wrong with it.
        message: String,
    },
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::Io { path, message } => {
                write!(f, "cannot read workload file '{path}': {message}")
            }
            WorkloadError::Json(message) => write!(f, "invalid workload JSON: {message}"),
            WorkloadError::Document(message) => {
                write!(f, "invalid workload document: {message}")
            }
            WorkloadError::Layer { layer, message } => write!(f, "layer '{layer}': {message}"),
        }
    }
}

impl std::error::Error for WorkloadError {}

impl WorkloadError {
    fn layer(layer: &str, message: impl Into<String>) -> Self {
        WorkloadError::Layer {
            layer: layer.to_string(),
            message: message.into(),
        }
    }
}

/// Loads a workload from JSON text.
///
/// # Errors
///
/// Returns [`WorkloadError::Json`] for malformed JSON,
/// [`WorkloadError::Document`] for structural problems and
/// [`WorkloadError::Layer`] (naming the layer) for per-layer problems.
pub fn from_json_str(json: &str) -> Result<Network, WorkloadError> {
    let value = serde_json::from_str(json).map_err(|e| WorkloadError::Json(e.to_string()))?;
    let doc = document_from_value(&value)?;
    network_from_doc(&doc)
}

/// Loads a workload from a JSON file.
///
/// # Errors
///
/// Returns [`WorkloadError::Io`] when the file cannot be read, otherwise the
/// same errors as [`from_json_str`].
pub fn from_json_file(path: impl AsRef<Path>) -> Result<Network, WorkloadError> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path).map_err(|e| WorkloadError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })?;
    from_json_str(&text)
}

// ---------------------------------------------------------------------------
// JSON value -> WorkloadDoc
// ---------------------------------------------------------------------------

/// The keys a layer object may carry; anything else is a typo worth rejecting.
const LAYER_KEYS: [&str; 14] = [
    "name",
    "op",
    "inputs",
    "k",
    "c",
    "ox",
    "oy",
    "fx",
    "fy",
    "stride",
    "padding",
    "batch",
    "act_bits",
    "weight_bits",
];

/// Extracts a [`WorkloadDoc`] from a parsed JSON value.
///
/// # Errors
///
/// Returns [`WorkloadError::Document`] or [`WorkloadError::Layer`] with a
/// message naming the offending field.
pub fn document_from_value(value: &Value) -> Result<WorkloadDoc, WorkloadError> {
    use WorkloadError::Document;
    let fields = Fields::root(value).map_err(Document)?;
    fields
        .only(&["format", "name", "layers"])
        .map_err(Document)?;
    let format = fields.opt::<&str>("format").map_err(Document)?;
    if let Some(tag) = format.filter(|&tag| tag != FORMAT) {
        return Err(Document(format!(
            "unsupported format tag '{tag}' (this loader reads '{FORMAT}')"
        )));
    }
    let name = fields.req::<&str>("name").map_err(Document)?;
    let layers = fields
        .req::<&[Value]>("layers")
        .map_err(Document)?
        .iter()
        .enumerate()
        .map(|(index, lv)| layer_spec_from_value(lv, index))
        .collect::<Result<_, _>>()?;
    Ok(WorkloadDoc {
        format: format.map(str::to_string),
        name: name.to_string(),
        layers,
    })
}

fn layer_spec_from_value(value: &Value, index: usize) -> Result<LayerSpec, WorkloadError> {
    let anonymous = |m| WorkloadError::layer(&format!("#{index}"), m);
    let fields = Fields::new(value).map_err(anonymous)?;
    let name = fields.req::<&str>("name").map_err(anonymous)?;
    let spec = || -> Result<LayerSpec, String> {
        fields.only(&LAYER_KEYS)?;
        let bits = |key: &str| match fields.opt::<u64>(key)? {
            None => Ok(None),
            Some(bits) => u32::try_from(bits)
                .ok()
                .filter(|&b| b > 0)
                .map(Some)
                .ok_or_else(|| format!("'{key}' must be a positive bit width")),
        };
        Ok(LayerSpec {
            name: name.to_string(),
            op: fields.req::<&str>("op")?.to_string(),
            inputs: fields.opt("inputs")?.unwrap_or_default(),
            k: fields.opt("k")?,
            c: fields.opt("c")?,
            ox: fields.opt("ox")?,
            oy: fields.opt("oy")?,
            fx: fields.opt("fx")?,
            fy: fields.opt("fy")?,
            stride: fields.opt("stride")?,
            padding: fields.opt("padding")?,
            batch: fields.opt("batch")?,
            act_bits: bits("act_bits")?,
            weight_bits: bits("weight_bits")?,
        })
    };
    spec().map_err(|m| WorkloadError::layer(name, m))
}

// ---------------------------------------------------------------------------
// WorkloadDoc -> Network (shape inference + validation)
// ---------------------------------------------------------------------------

/// Builds a validated [`Network`] from a document, applying the module-level
/// shape-inference rules.
///
/// # Errors
///
/// Returns [`WorkloadError::Document`] for an empty document and
/// [`WorkloadError::Layer`] — naming the layer — for everything else.
pub fn network_from_doc(doc: &WorkloadDoc) -> Result<Network, WorkloadError> {
    if doc.layers.is_empty() {
        return Err(WorkloadError::Document(format!(
            "workload '{}' contains no layers",
            doc.name
        )));
    }

    let mut net = Network::new(doc.name.clone());
    let mut by_name: BTreeMap<&str, LayerId> = BTreeMap::new();

    for spec in &doc.layers {
        let name = spec.name.as_str();
        if by_name.contains_key(name) {
            return Err(WorkloadError::layer(name, "duplicate layer name"));
        }

        let op = parse_op(&spec.op).ok_or_else(|| {
            WorkloadError::layer(
                name,
                format!(
                    "unknown op '{}' (expected Conv, DepthwiseConv, Pooling, Add)",
                    spec.op
                ),
            )
        })?;

        // Resolve producer names. Only already-declared layers are legal, so
        // the stored order stays a valid topological order.
        let mut preds = Vec::with_capacity(spec.inputs.len());
        for input in &spec.inputs {
            let id = by_name.get(input.as_str()).copied().ok_or_else(|| {
                WorkloadError::layer(
                    name,
                    format!(
                        "references unknown input layer '{input}' \
                         (producers must be declared before their consumers)"
                    ),
                )
            })?;
            preds.push(id);
        }
        match op {
            OpType::Add if preds.len() != 2 => {
                return Err(WorkloadError::layer(
                    name,
                    format!("Add layers take exactly 2 inputs, got {}", preds.len()),
                ));
            }
            OpType::Conv | OpType::DepthwiseConv | OpType::Pooling if preds.len() > 1 => {
                return Err(WorkloadError::layer(
                    name,
                    format!(
                        "{} layers take at most 1 input, got {}",
                        spec.op,
                        preds.len()
                    ),
                ));
            }
            _ => {}
        }

        let dims = infer_dims(spec, op, &preds, &net)?;
        let mut layer = Layer::new(name, op, dims);
        if let Some(bits) = spec.act_bits {
            layer = layer.with_act_bits(bits);
        }
        if let Some(bits) = spec.weight_bits {
            layer = layer.with_weight_bits(bits);
        }

        let id = net.add_layer(layer, &preds).map_err(|e| {
            // Unreachable in practice: name resolution already guarantees
            // valid predecessor ids. Keep the message anyway.
            WorkloadError::layer(name, e.to_string())
        })?;
        by_name.insert(name, id);
    }

    Ok(net)
}

/// Shape inference and congruence checking for one layer.
fn infer_dims(
    spec: &LayerSpec,
    op: OpType,
    preds: &[LayerId],
    net: &Network,
) -> Result<LayerDims, WorkloadError> {
    let name = spec.name.as_str();
    let producer = preds.first().map(|&p| net.layer(p));
    let (fx, fy) = (spec.fx.unwrap_or(1), spec.fy.unwrap_or(1));
    let (stride_x, stride_y) = spec.stride.unwrap_or((1, 1));
    let (pad_x, pad_y) = spec.padding.unwrap_or((0, 0));
    if fx == 0 || fy == 0 {
        return Err(WorkloadError::layer(name, "filter size must be positive"));
    }
    if stride_x == 0 || stride_y == 0 {
        return Err(WorkloadError::layer(name, "stride must be positive"));
    }

    // Output channels: Conv must say; per-channel ops may inherit.
    let k = match (op, spec.k, producer) {
        (_, Some(k), _) => k,
        (OpType::Conv, None, _) => {
            return Err(WorkloadError::layer(
                name,
                "missing required dimension 'k' (output channels)",
            ));
        }
        (_, None, Some(p)) => p.dims.k,
        (_, None, None) => {
            return Err(WorkloadError::layer(
                name,
                "network-input layer must state 'k' explicitly",
            ));
        }
    };

    // Input channels: Conv reads the producer's k; per-channel ops use c = k.
    let c = match op {
        OpType::Conv => match (spec.c, producer) {
            (Some(c), _) => c,
            (None, Some(p)) => p.dims.k,
            (None, None) => {
                return Err(WorkloadError::layer(
                    name,
                    "network-input layer must state 'c' explicitly",
                ));
            }
        },
        OpType::DepthwiseConv | OpType::Pooling | OpType::Add => spec.c.unwrap_or(k),
    };

    // Spatial extents: explicit, or from the convolution arithmetic.
    let infer_extent = |explicit: Option<u64>,
                        producer_extent: Option<u64>,
                        pad: u64,
                        filter: u64,
                        stride: u64,
                        axis: &str|
     -> Result<u64, WorkloadError> {
        match (explicit, producer_extent) {
            (Some(v), _) => Ok(v),
            (None, Some(pe)) => {
                let available = pe + 2 * pad;
                if available < filter {
                    return Err(WorkloadError::layer(
                        name,
                        format!(
                            "cannot infer '{axis}': the {filter}-wide filter does not fit the \
                             producer's {pe} elements (+{} padding)",
                            2 * pad
                        ),
                    ));
                }
                Ok((available - filter) / stride + 1)
            }
            (None, None) => Err(WorkloadError::layer(
                name,
                format!("network-input layer must state '{axis}' explicitly"),
            )),
        }
    };
    let ox = infer_extent(
        spec.ox,
        producer.map(|p| p.dims.ox),
        pad_x,
        fx,
        stride_x,
        "ox",
    )?;
    let oy = infer_extent(
        spec.oy,
        producer.map(|p| p.dims.oy),
        pad_y,
        fy,
        stride_y,
        "oy",
    )?;

    let b = match (spec.batch, producer) {
        (Some(b), _) => b,
        (None, Some(p)) => p.dims.b,
        (None, None) => 1,
    };

    for (value, what) in [(b, "batch"), (k, "k"), (c, "c"), (ox, "ox"), (oy, "oy")] {
        if value == 0 {
            return Err(WorkloadError::layer(
                name,
                format!("dimension '{what}' must be positive"),
            ));
        }
    }

    let dims = LayerDims {
        b,
        k,
        c,
        ox,
        oy,
        fx,
        fy,
        stride_x,
        stride_y,
        pad_x,
        pad_y,
    };

    check_against_producers(spec, op, &dims, preds, net)?;
    Ok(dims)
}

/// Congruence checks between a layer's dims and what its producers provide.
fn check_against_producers(
    spec: &LayerSpec,
    op: OpType,
    dims: &LayerDims,
    preds: &[LayerId],
    net: &Network,
) -> Result<(), WorkloadError> {
    let name = spec.name.as_str();

    // Per-channel operators keep the repository-wide convention c = k; an
    // explicit contradicting 'c' would silently change the cost model's
    // channel loop, so reject it for all three operators.
    if matches!(op, OpType::DepthwiseConv | OpType::Pooling | OpType::Add) && dims.c != dims.k {
        return Err(WorkloadError::layer(
            name,
            format!(
                "{} layers are per-channel and require c = k, got c={} and k={}",
                spec.op, dims.c, dims.k
            ),
        ));
    }

    if op == OpType::Add {
        // Both operands must match the declared output exactly, including
        // the batch size.
        for &p in preds {
            let pl = net.layer(p);
            if pl.dims.k != dims.k || pl.dims.ox != dims.ox || pl.dims.oy != dims.oy {
                return Err(WorkloadError::layer(
                    name,
                    format!(
                        "Add operands must match: this layer is {}x{}x{} (k x ox x oy) but \
                         input '{}' produces {}x{}x{}",
                        dims.k, dims.ox, dims.oy, pl.name, pl.dims.k, pl.dims.ox, pl.dims.oy
                    ),
                ));
            }
            if pl.dims.b != dims.b {
                return Err(WorkloadError::layer(
                    name,
                    format!(
                        "batch size {} does not match producer '{}' batch size {}",
                        dims.b, pl.name, pl.dims.b
                    ),
                ));
            }
        }
        return Ok(());
    }

    let Some(&p) = preds.first() else {
        return Ok(());
    };
    let pl = net.layer(p);

    // Channel congruence.
    let consumed = match op {
        OpType::Conv => dims.c,
        OpType::DepthwiseConv | OpType::Pooling | OpType::Add => dims.k,
    };
    if consumed != pl.dims.k {
        let what = if op == OpType::Conv {
            format!("input channels c={}", dims.c)
        } else {
            format!("per-channel operator with k={}", dims.k)
        };
        return Err(WorkloadError::layer(
            name,
            format!(
                "{what} does not match producer '{}' output channels k={}",
                pl.name, pl.dims.k
            ),
        ));
    }

    // Spatial feasibility: the producer (plus declared padding) must cover
    // the input region the output demands.
    let need_x = input_extent(dims.ox, dims.stride_x, dims.fx);
    let need_y = input_extent(dims.oy, dims.stride_y, dims.fy);
    let have_x = pl.dims.ox + 2 * dims.pad_x;
    let have_y = pl.dims.oy + 2 * dims.pad_y;
    if need_x > have_x || need_y > have_y {
        return Err(WorkloadError::layer(
            name,
            format!(
                "output {}x{} needs a {need_x}x{need_y} input region but producer '{}' \
                 provides {have_x}x{have_y} (output {}x{} plus padding)",
                dims.ox, dims.oy, pl.name, pl.dims.ox, pl.dims.oy
            ),
        ));
    }

    // Batch congruence.
    if dims.b != pl.dims.b {
        return Err(WorkloadError::layer(
            name,
            format!(
                "batch size {} does not match producer '{}' batch size {}",
                dims.b, pl.name, pl.dims.b
            ),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;
    use crate::schema;

    #[test]
    fn zoo_models_round_trip_through_json() {
        for net in [
            models::fsrcnn(),
            models::dmcnn_vd(),
            models::mccnn(),
            models::mobilenet_v1(),
            models::resnet18(),
            models::reference_net(),
        ] {
            let json = schema::to_json_pretty(&net).unwrap();
            let reloaded = from_json_str(&json).unwrap();
            assert_eq!(reloaded, net, "{} must round-trip", net.name());
        }
    }

    #[test]
    fn shape_inference_fills_channels_and_extents() {
        let json = r#"{
          "name": "inferred",
          "layers": [
            {"name": "a", "op": "Conv", "k": 8, "c": 3, "ox": 32, "oy": 32,
             "fx": 3, "fy": 3, "padding": [1, 1]},
            {"name": "b", "op": "Conv", "inputs": ["a"], "k": 16, "fx": 3, "fy": 3},
            {"name": "p", "op": "Pooling", "inputs": ["b"], "fx": 2, "fy": 2, "stride": [2, 2]},
            {"name": "fc", "op": "Conv", "inputs": ["p"], "k": 10, "fx": 15, "fy": 15}
          ]
        }"#;
        let net = from_json_str(json).unwrap();
        let b = &net.layers()[1];
        assert_eq!((b.dims.c, b.dims.ox, b.dims.oy), (8, 30, 30));
        let p = &net.layers()[2];
        assert_eq!((p.dims.k, p.dims.c, p.dims.ox, p.dims.oy), (16, 16, 15, 15));
        let fc = &net.layers()[3];
        assert_eq!((fc.dims.c, fc.dims.ox, fc.dims.oy), (16, 1, 1));
    }

    #[test]
    fn unknown_op_names_the_layer() {
        let json = r#"{"name": "x", "layers": [
            {"name": "mystery", "op": "Softmax", "k": 4, "c": 4, "ox": 8, "oy": 8}
        ]}"#;
        let err = from_json_str(json).unwrap_err();
        assert_eq!(
            err.to_string(),
            "layer 'mystery': unknown op 'Softmax' (expected Conv, DepthwiseConv, Pooling, Add)"
        );
    }

    #[test]
    fn missing_edge_names_the_layer() {
        let json = r#"{"name": "x", "layers": [
            {"name": "a", "op": "Conv", "k": 4, "c": 3, "ox": 8, "oy": 8},
            {"name": "b", "op": "Conv", "inputs": ["nope"], "k": 4}
        ]}"#;
        let err = from_json_str(json).unwrap_err();
        assert!(
            err.to_string()
                .starts_with("layer 'b': references unknown input layer 'nope'"),
            "{err}"
        );
    }

    #[test]
    fn channel_mismatch_names_the_layer_and_producer() {
        let json = r#"{"name": "x", "layers": [
            {"name": "a", "op": "Conv", "k": 4, "c": 3, "ox": 8, "oy": 8},
            {"name": "b", "op": "Conv", "inputs": ["a"], "k": 4, "c": 7, "ox": 8, "oy": 8}
        ]}"#;
        let err = from_json_str(json).unwrap_err();
        assert_eq!(
            err.to_string(),
            "layer 'b': input channels c=7 does not match producer 'a' output channels k=4"
        );
    }

    #[test]
    fn oversized_spatial_region_is_rejected() {
        let json = r#"{"name": "x", "layers": [
            {"name": "a", "op": "Conv", "k": 4, "c": 3, "ox": 8, "oy": 8},
            {"name": "b", "op": "Conv", "inputs": ["a"], "k": 4, "ox": 16, "oy": 16, "fx": 3, "fy": 3}
        ]}"#;
        let err = from_json_str(json).unwrap_err();
        assert!(err.to_string().contains("layer 'b'"), "{err}");
        assert!(err.to_string().contains("input region"), "{err}");
    }

    #[test]
    fn add_arity_and_congruence_are_checked() {
        let one_input = r#"{"name": "x", "layers": [
            {"name": "a", "op": "Conv", "k": 4, "c": 3, "ox": 8, "oy": 8},
            {"name": "sum", "op": "Add", "inputs": ["a"]}
        ]}"#;
        let err = from_json_str(one_input).unwrap_err();
        assert_eq!(
            err.to_string(),
            "layer 'sum': Add layers take exactly 2 inputs, got 1"
        );

        let mismatched = r#"{"name": "x", "layers": [
            {"name": "a", "op": "Conv", "k": 4, "c": 3, "ox": 8, "oy": 8},
            {"name": "b", "op": "Conv", "inputs": ["a"], "k": 8, "ox": 8, "oy": 8},
            {"name": "sum", "op": "Add", "inputs": ["a", "b"]}
        ]}"#;
        let err = from_json_str(mismatched).unwrap_err();
        assert!(
            err.to_string()
                .contains("layer 'sum': Add operands must match"),
            "{err}"
        );
    }

    #[test]
    fn per_channel_c_must_equal_k() {
        // An explicit contradicting 'c' on any per-channel operator is
        // rejected, not silently fed into the cost model.
        for op in ["Pooling", "DepthwiseConv"] {
            let json = format!(
                r#"{{"name": "x", "layers": [
                    {{"name": "a", "op": "Conv", "k": 4, "c": 3, "ox": 8, "oy": 8}},
                    {{"name": "p", "op": "{op}", "inputs": ["a"], "c": 999}}
                ]}}"#
            );
            let err = from_json_str(&json).unwrap_err();
            assert!(err.to_string().contains("layer 'p'"), "{err}");
            assert!(err.to_string().contains("require c = k"), "{err}");
        }
        let add = r#"{"name": "x", "layers": [
            {"name": "a", "op": "Conv", "k": 4, "c": 3, "ox": 8, "oy": 8},
            {"name": "b", "op": "Conv", "inputs": ["a"], "k": 4, "ox": 8, "oy": 8},
            {"name": "sum", "op": "Add", "inputs": ["a", "b"], "c": 999}
        ]}"#;
        let err = from_json_str(add).unwrap_err();
        assert!(err.to_string().contains("layer 'sum'"), "{err}");
        assert!(err.to_string().contains("require c = k"), "{err}");
    }

    #[test]
    fn add_batch_must_match_producers() {
        let json = r#"{"name": "x", "layers": [
            {"name": "a", "op": "Conv", "k": 4, "c": 3, "ox": 8, "oy": 8},
            {"name": "b", "op": "Conv", "inputs": ["a"], "k": 4, "ox": 8, "oy": 8},
            {"name": "sum", "op": "Add", "inputs": ["a", "b"], "batch": 4}
        ]}"#;
        let err = from_json_str(json).unwrap_err();
        assert!(err.to_string().contains("layer 'sum'"), "{err}");
        assert!(err.to_string().contains("batch size 4"), "{err}");
    }

    #[test]
    fn source_layers_require_explicit_shapes() {
        for (json, needle) in [
            (
                r#"{"name": "x", "layers": [{"name": "a", "op": "Conv", "c": 3, "ox": 8, "oy": 8}]}"#,
                "'k'",
            ),
            (
                r#"{"name": "x", "layers": [{"name": "a", "op": "Conv", "k": 4, "ox": 8, "oy": 8}]}"#,
                "'c'",
            ),
            (
                r#"{"name": "x", "layers": [{"name": "a", "op": "Conv", "k": 4, "c": 3, "oy": 8}]}"#,
                "'ox'",
            ),
        ] {
            let err = from_json_str(json).unwrap_err();
            assert!(err.to_string().contains("layer 'a'"), "{err}");
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[test]
    fn typos_and_structural_problems_are_rejected() {
        assert!(matches!(
            from_json_str("[1, 2]").unwrap_err(),
            WorkloadError::Document(_)
        ));
        assert!(matches!(
            from_json_str("{\"name\": \"x\"}").unwrap_err(),
            WorkloadError::Document(_)
        ));
        assert!(matches!(
            from_json_str("{\"name\": \"x\", \"layers\": []}").unwrap_err(),
            WorkloadError::Document(_)
        ));
        assert!(matches!(
            from_json_str("{nope").unwrap_err(),
            WorkloadError::Json(_)
        ));
        // Unknown per-layer key (probable typo).
        let err = from_json_str(
            r#"{"name": "x", "layers": [
                {"name": "a", "op": "Conv", "k": 4, "c": 3, "ox": 8, "oy": 8, "strides": [2, 2]}
            ]}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("unknown key 'strides'"), "{err}");
        // Wrong format tag.
        let err = from_json_str(r#"{"format": "v999", "name": "x", "layers": []}"#).unwrap_err();
        assert!(err.to_string().contains("unsupported format tag"), "{err}");
    }

    #[test]
    fn duplicate_layer_names_are_rejected() {
        let json = r#"{"name": "x", "layers": [
            {"name": "a", "op": "Conv", "k": 4, "c": 3, "ox": 8, "oy": 8},
            {"name": "a", "op": "Conv", "inputs": ["a"], "k": 4}
        ]}"#;
        let err = from_json_str(json).unwrap_err();
        assert_eq!(err.to_string(), "layer 'a': duplicate layer name");
    }

    #[test]
    fn precisions_and_batch_are_loaded() {
        let json = r#"{"name": "x", "layers": [
            {"name": "a", "op": "Conv", "k": 4, "c": 3, "ox": 8, "oy": 8,
             "batch": 2, "act_bits": 16, "weight_bits": 4}
        ]}"#;
        let net = from_json_str(json).unwrap();
        let a = &net.layers()[0];
        assert_eq!(a.dims.b, 2);
        assert_eq!((a.act_bits, a.weight_bits), (16, 4));
    }
}

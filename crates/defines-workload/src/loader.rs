//! JSON workload loader: reads a workload document (see [`crate::schema`])
//! straight into a validated [`Network`], inferring omitted shapes as it
//! reads.
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
//! are all rejected. So is, on every layer, any number the cost model would
//! overflow: an input region `(out - 1) * stride + filter` or its padded
//! extent, an input, output or weight footprint, or the MAC count that does
//! not fit in a `u64`.
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
//! let net = defines_workload::from_json_str(json).unwrap();
//! assert_eq!(net.len(), 4);
//! // `body` inferred c = 16 (stem's k) and ox/oy = 128 ("same" padding);
//! // `pool` inferred k = c = 16 and ox/oy = 64; `head` runs at 64x64.
//! let head = net.layers().last().unwrap();
//! assert_eq!((head.dims.c, head.dims.ox, head.dims.oy), (16, 64, 64));
//! ```

use crate::dims::LayerDims;
use crate::layer::{Layer, LayerId, OpType};
use crate::network::Network;
use crate::schema::{parse_op, FORMAT};
use serde::{Fields, Items, Tape};
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
    use WorkloadError::Document;
    let mut tape = Tape::new();
    let value = tape
        .parse(json)
        .map_err(|e| WorkloadError::Json(e.to_string()))?;
    let fields = Fields::root(&value).map_err(Document)?;
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
    let layers = fields.req::<Items<'_>>("layers").map_err(Document)?;
    if layers.is_empty() {
        return Err(Document(format!("workload '{name}' contains no layers")));
    }

    let mut net = Network::new(name);
    let mut by_name: BTreeMap<&str, LayerId> = BTreeMap::new();
    for (index, value) in layers.enumerate() {
        let anonymous = |m| WorkloadError::layer(&format!("#{index}"), m);
        let fields = Fields::new(&value).map_err(anonymous)?;
        let name = fields.req::<&str>("name").map_err(anonymous)?;
        if by_name.contains_key(name) {
            return Err(WorkloadError::layer(name, "duplicate layer name"));
        }
        let (layer, preds) =
            read_layer(name, fields, &by_name, &net).map_err(|m| WorkloadError::layer(name, m))?;
        // Unreachable in practice: name resolution already guarantees valid
        // predecessor ids. Keep the message anyway.
        let id = net
            .add_layer(layer, &preds)
            .map_err(|e| WorkloadError::layer(name, e.to_string()))?;
        by_name.insert(name, id);
    }
    Ok(net)
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

/// Reads one layer and resolves its producers among the layers read so far.
fn read_layer(
    name: &str,
    fields: Fields<'_>,
    by_name: &BTreeMap<&str, LayerId>,
    net: &Network,
) -> Result<(Layer, Vec<LayerId>), String> {
    fields.only(&LAYER_KEYS)?;
    let op_name = fields.req::<&str>("op")?;
    let op = parse_op(op_name).ok_or_else(|| {
        format!("unknown op '{op_name}' (expected Conv, DepthwiseConv, Pooling, Add)")
    })?;

    // Only already-declared layers are legal producers, so the stored order
    // stays a valid topological order.
    let inputs = fields.opt::<Vec<String>>("inputs")?.unwrap_or_default();
    let preds = inputs.iter().map(|input| {
        by_name.get(input.as_str()).copied().ok_or_else(|| {
            format!(
                "references unknown input layer '{input}' \
                 (producers must be declared before their consumers)"
            )
        })
    });
    let preds = preds.collect::<Result<Vec<_>, _>>()?;
    match op {
        OpType::Add if preds.len() != 2 => {
            return Err(format!(
                "Add layers take exactly 2 inputs, got {}",
                preds.len()
            ));
        }
        OpType::Conv | OpType::DepthwiseConv | OpType::Pooling if preds.len() > 1 => {
            return Err(format!(
                "{op_name} layers take at most 1 input, got {}",
                preds.len()
            ));
        }
        _ => {}
    }

    let dims = infer_dims(&fields, op, op_name, &preds, net)?;
    let bits = |key: &str| match fields.opt::<u64>(key)? {
        None => Ok(None),
        Some(bits) => u32::try_from(bits)
            .ok()
            .filter(|&b| b > 0)
            .map(Some)
            .ok_or_else(|| format!("'{key}' must be a positive bit width")),
    };
    let mut layer = Layer::new(name, op, dims);
    if let Some(bits) = bits("act_bits")? {
        layer = layer.with_act_bits(bits);
    }
    if let Some(bits) = bits("weight_bits")? {
        layer = layer.with_weight_bits(bits);
    }
    check_counts(&layer)?;
    Ok((layer, preds))
}

/// Shape inference and congruence checking for one layer.
fn infer_dims(
    fields: &Fields<'_>,
    op: OpType,
    op_name: &str,
    preds: &[LayerId],
    net: &Network,
) -> Result<LayerDims, String> {
    let dim = |key: &str| fields.opt::<u64>(key);
    let producer = preds.first().map(|&p| net.layer(p));
    let (fx, fy) = (dim("fx")?.unwrap_or(1), dim("fy")?.unwrap_or(1));
    let (stride_x, stride_y) = fields.opt("stride")?.unwrap_or((1, 1));
    let (pad_x, pad_y) = fields.opt("padding")?.unwrap_or((0, 0));
    if fx == 0 || fy == 0 {
        return Err("filter size must be positive".into());
    }
    if stride_x == 0 || stride_y == 0 {
        return Err("stride must be positive".into());
    }

    // Output channels: Conv must say; per-channel ops may inherit.
    let k = match (op, dim("k")?, producer) {
        (_, Some(k), _) => k,
        (OpType::Conv, None, _) => {
            return Err("missing required dimension 'k' (output channels)".into());
        }
        (_, None, Some(p)) => p.dims.k,
        (_, None, None) => return Err("network-input layer must state 'k' explicitly".into()),
    };

    // Input channels: Conv reads the producer's k; per-channel ops use c = k.
    let c = match (op, dim("c")?, producer) {
        (_, Some(c), _) => c,
        (OpType::Conv, None, Some(p)) => p.dims.k,
        (OpType::Conv, None, None) => {
            return Err("network-input layer must state 'c' explicitly".into());
        }
        (OpType::DepthwiseConv | OpType::Pooling | OpType::Add, None, _) => k,
    };

    // Spatial extents: explicit, or from the convolution arithmetic.
    let extent = |axis: &str, producer_extent: Option<u64>, pad, filter, stride| match (
        dim(axis)?,
        producer_extent,
    ) {
        (Some(v), _) => Ok(v),
        (None, Some(pe)) => {
            let available = padded(pe, pad)?;
            if available < filter {
                return Err(format!(
                    "cannot infer '{axis}': the {filter}-wide filter does not fit the \
                         producer's {pe} elements (+{} padding)",
                    available - pe
                ));
            }
            Ok((available - filter) / stride + 1)
        }
        (None, None) => Err(format!(
            "network-input layer must state '{axis}' explicitly"
        )),
    };
    let ox = extent("ox", producer.map(|p| p.dims.ox), pad_x, fx, stride_x)?;
    let oy = extent("oy", producer.map(|p| p.dims.oy), pad_y, fy, stride_y)?;

    let b = match (dim("batch")?, producer) {
        (Some(b), _) => b,
        (None, Some(p)) => p.dims.b,
        (None, None) => 1,
    };

    for (value, what) in [(b, "batch"), (k, "k"), (c, "c"), (ox, "ox"), (oy, "oy")] {
        if value == 0 {
            return Err(format!("dimension '{what}' must be positive"));
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
    let region = input_region(&dims)?;
    padded(region.0, pad_x)?;
    padded(region.1, pad_y)?;
    check_against_producers(op, op_name, &dims, region, preds, net)?;
    Ok(dims)
}

/// The input region the whole output demands, `(out - 1) * stride + filter`
/// per axis.
fn input_region(dims: &LayerDims) -> Result<(u64, u64), String> {
    let axis = |out: u64, stride: u64, filter: u64| {
        (out - 1)
            .checked_mul(stride)
            .and_then(|n| n.checked_add(filter))
            .ok_or_else(|| {
                format!(
                    "output {}x{} needs an input region that overflows a 64-bit extent",
                    dims.ox, dims.oy
                )
            })
    };
    Ok((
        axis(dims.ox, dims.stride_x, dims.fx)?,
        axis(dims.oy, dims.stride_y, dims.fy)?,
    ))
}

/// Checks that the layer's input, output and weight footprints and its MAC
/// count — the products [`Layer`] multiplies out unchecked — fit in a `u64`.
fn check_counts(layer: &Layer) -> Result<(), String> {
    let d = &layer.dims;
    let (iw, ih) = (d.input_width(), d.input_height());
    let act = u64::from(layer.act_bits.div_ceil(8));
    let weight = u64::from(layer.weight_bits.div_ceil(8));
    let (input, weights, macs): (&[u64], &[u64], &[u64]) = match layer.op {
        OpType::Conv => (
            &[d.b, d.c, iw, ih, act],
            &[d.k, d.c, d.fx, d.fy, weight],
            &[d.b, d.k, d.c, d.ox, d.oy, d.fx, d.fy],
        ),
        OpType::DepthwiseConv => (
            &[d.b, d.k, iw, ih, act],
            &[d.k, d.fx, d.fy, weight],
            &[d.b, d.k, d.ox, d.oy, d.fx, d.fy],
        ),
        OpType::Pooling => (
            &[d.b, d.k, iw, ih, act],
            &[],
            &[d.b, d.k, d.ox, d.oy, d.fx, d.fy],
        ),
        OpType::Add => (
            &[2, d.b, d.k, d.ox, d.oy, act],
            &[],
            &[d.b, d.k, d.ox, d.oy],
        ),
    };
    let output = [d.b, d.k, d.ox, d.oy, act];
    let counts = [
        ("input footprint", "byte count", input),
        ("output footprint", "byte count", &output),
        ("weight footprint", "byte count", weights),
        ("MAC count", "count", macs),
    ];
    for (what, unit, factors) in counts {
        // Every factor is positive, so the fold overflows exactly when the
        // product does, whatever the order.
        if factors
            .iter()
            .try_fold(1u64, |p, &f| p.checked_mul(f))
            .is_none()
        {
            let product: Vec<String> = factors.iter().map(u64::to_string).collect();
            return Err(format!(
                "{what} {} overflows a 64-bit {unit}",
                product.join("x")
            ));
        }
    }
    Ok(())
}

/// `extent + 2 * pad`: a producer's extent with a consumer's padding on both
/// sides.
fn padded(extent: u64, pad: u64) -> Result<u64, String> {
    pad.checked_mul(2)
        .and_then(|both| both.checked_add(extent))
        .ok_or_else(|| format!("padding {pad} overflows a 64-bit extent"))
}

/// Congruence checks between a layer's dims and what its producers provide.
fn check_against_producers(
    op: OpType,
    op_name: &str,
    dims: &LayerDims,
    (need_x, need_y): (u64, u64),
    preds: &[LayerId],
    net: &Network,
) -> Result<(), String> {
    // Per-channel operators keep the repository-wide convention c = k; an
    // explicit contradicting 'c' would silently change the cost model's
    // channel loop, so reject it for all three operators.
    if matches!(op, OpType::DepthwiseConv | OpType::Pooling | OpType::Add) && dims.c != dims.k {
        return Err(format!(
            "{op_name} layers are per-channel and require c = k, got c={} and k={}",
            dims.c, dims.k
        ));
    }

    let batch_mismatch = |pl: &Layer| {
        format!(
            "batch size {} does not match producer '{}' batch size {}",
            dims.b, pl.name, pl.dims.b
        )
    };
    if op == OpType::Add {
        // Both operands must match the declared output exactly, including
        // the batch size.
        for &p in preds {
            let pl = net.layer(p);
            if pl.dims.k != dims.k || pl.dims.ox != dims.ox || pl.dims.oy != dims.oy {
                return Err(format!(
                    "Add operands must match: this layer is {}x{}x{} (k x ox x oy) but \
                     input '{}' produces {}x{}x{}",
                    dims.k, dims.ox, dims.oy, pl.name, pl.dims.k, pl.dims.ox, pl.dims.oy
                ));
            }
            if pl.dims.b != dims.b {
                return Err(batch_mismatch(pl));
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
        return Err(format!(
            "{what} does not match producer '{}' output channels k={}",
            pl.name, pl.dims.k
        ));
    }

    // Spatial feasibility: the producer (plus declared padding) must cover
    // the input region the output demands.
    let have_x = padded(pl.dims.ox, dims.pad_x)?;
    let have_y = padded(pl.dims.oy, dims.pad_y)?;
    if need_x > have_x || need_y > have_y {
        return Err(format!(
            "output {}x{} needs a {need_x}x{need_y} input region but producer '{}' \
             provides {have_x}x{have_y} (output {}x{} plus padding)",
            dims.ox, dims.oy, pl.name, pl.dims.ox, pl.dims.oy
        ));
    }

    // Batch congruence.
    if dims.b != pl.dims.b {
        return Err(batch_mismatch(pl));
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
    fn padding_and_input_regions_that_overflow_are_rejected() {
        // 2 * 2^63 wraps a u64 to 0: inferring 'ox' must not read it as no
        // padding at all.
        let inferred = r#"{"name": "x", "layers": [
            {"name": "a", "op": "Conv", "k": 4, "c": 3, "ox": 8, "oy": 8},
            {"name": "b", "op": "Conv", "inputs": ["a"], "k": 4,
             "padding": [9223372036854775808, 1]}
        ]}"#;
        let err = from_json_str(inferred).unwrap_err();
        assert_eq!(
            err.to_string(),
            "layer 'b': padding 9223372036854775808 overflows a 64-bit extent"
        );
        // An explicit output whose input region (ox - 1) * stride + fx does
        // not fit in 64 bits.
        let explicit = r#"{"name": "x", "layers": [
            {"name": "a", "op": "Conv", "k": 4, "c": 3, "ox": 8, "oy": 8},
            {"name": "b", "op": "Conv", "inputs": ["a"], "k": 4,
             "ox": 9223372036854775807, "oy": 1, "stride": [4, 1]}
        ]}"#;
        let err = from_json_str(explicit).unwrap_err();
        assert!(err.to_string().starts_with("layer 'b': output"), "{err}");
        assert!(err.to_string().contains("overflows"), "{err}");
    }

    /// A one-layer document: a network-input `Conv` with the given extra
    /// fields, so no producer check stands between its numbers and the
    /// cost model.
    fn input_layer(fields: &str) -> String {
        format!(
            r#"{{"name": "x", "layers": [{{"name": "a", "op": "Conv", "inputs": [], {fields}}}]}}"#
        )
    }

    fn load_error(fields: &str) -> String {
        from_json_str(&input_layer(fields)).unwrap_err().to_string()
    }

    #[test]
    fn input_layer_region_that_overflows_is_rejected() {
        assert_eq!(
            load_error(r#""k": 4, "c": 3, "ox": 9223372036854775807, "oy": 1, "stride": [4, 1]"#),
            "layer 'a': output 9223372036854775807x1 needs an input region that overflows \
             a 64-bit extent"
        );
    }

    #[test]
    fn input_layer_padding_that_overflows_is_rejected() {
        assert_eq!(
            load_error(r#""k": 4, "c": 3, "ox": 8, "oy": 8, "padding": [9223372036854775808, 1]"#),
            "layer 'a': padding 9223372036854775808 overflows a 64-bit extent"
        );
    }

    #[test]
    fn input_footprint_that_overflows_is_rejected() {
        // 2^33 channels of 2^16 x 2^16 elements: the output (2^32) fits.
        assert_eq!(
            load_error(r#""k": 1, "c": 8589934592, "ox": 65536, "oy": 65536"#),
            "layer 'a': input footprint 1x8589934592x65536x65536x1 overflows a 64-bit byte count"
        );
    }

    #[test]
    fn output_footprint_that_overflows_is_rejected() {
        assert_eq!(
            load_error(r#""k": 8589934592, "c": 1, "ox": 65536, "oy": 65536"#),
            "layer 'a': output footprint 1x8589934592x65536x65536x1 overflows a 64-bit byte \
             count"
        );
    }

    #[test]
    fn weight_footprint_that_overflows_is_rejected() {
        // 2^32 x 2^32 one-tap filters on a 1x1 output: both activations fit.
        assert_eq!(
            load_error(r#""k": 4294967296, "c": 4294967296, "ox": 1, "oy": 1"#),
            "layer 'a': weight footprint 4294967296x4294967296x1x1x1 overflows a 64-bit byte \
             count"
        );
    }

    #[test]
    fn mac_count_that_overflows_is_rejected() {
        // Every footprint fits (2^44, 2^44, 2^40); the MACs are 2^64.
        assert_eq!(
            load_error(r#""k": 1048576, "c": 1048576, "ox": 4096, "oy": 4096"#),
            "layer 'a': MAC count 1x1048576x1048576x4096x4096x1x1 overflows a 64-bit count"
        );
    }

    /// No committed network comes near the bounds.
    #[test]
    fn checked_counts_accept_every_zoo_layer() {
        for net in [
            models::fsrcnn(),
            models::dmcnn_vd(),
            models::mccnn(),
            models::mobilenet_v1(),
            models::resnet18(),
            models::reference_net(),
        ] {
            for layer in net.layers() {
                assert_eq!(check_counts(layer), Ok(()), "{}", layer.name);
            }
        }
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

//! DNN workload representation for the DeFiNES depth-first scheduling cost model.
//!
//! This crate provides:
//!
//! * [`Layer`] — a single DNN layer (convolution, depthwise convolution,
//!   pooling, fully-connected, element-wise add) described by its loop
//!   dimensions ([`LayerDims`]) and operator attributes,
//! * [`Network`] — a directed acyclic graph of layers with branch support,
//! * a model zoo ([`models`]) containing the five workloads used in the
//!   DeFiNES paper (FSRCNN, DMCNN-VD, MC-CNN, MobileNetV1, ResNet18) plus the
//!   11-layer reference network used for validation, each a committed
//!   document under `workloads/` at the repository root, embedded at
//!   compile time and parsed by [`from_json_str`],
//! * a declarative JSON frontend — [`from_json_str`] / [`from_json_file`]
//!   read documents straight into validated networks with shape inference,
//!   [`to_json_pretty`] exports networks as fully explicit documents,
//! * [`WorkloadSummary`] and [`format_bytes`] — utilities that reproduce the
//!   workload statistics of Table I(b) of the paper (average / maximum
//!   feature-map size and total weight size),
//! * [`Fnv`] — the release-stable hash every fingerprint in the workspace
//!   is computed with (accelerator, mapper, cache key, checkpoint header).
//!
//! # Example
//!
//! ```
//! use defines_workload::models;
//! use defines_workload::WorkloadSummary;
//!
//! let net = models::fsrcnn();
//! let summary = WorkloadSummary::of(&net);
//! // FSRCNN is activation dominant: feature maps are orders of magnitude
//! // larger than its total weight footprint.
//! assert!(summary.max_feature_map_bytes > 100 * summary.total_weight_bytes);
//! ```

mod analysis;
mod dims;
mod fnv;
mod layer;
mod loader;
// catalog namespace: `models::fsrcnn()` names one built-in network
pub mod models;
mod network;
mod schema;

pub use analysis::{format_bytes, WorkloadSummary};
pub use dims::{Dim, LayerDims};
pub use fnv::Fnv;
pub use layer::{Layer, LayerId, OpType};
pub use loader::{from_json_file, from_json_str, WorkloadError};
pub use network::{Network, NetworkError};
pub use schema::{op_name, parse_op, to_json_pretty};

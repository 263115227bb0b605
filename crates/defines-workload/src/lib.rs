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
//!   compile time and parsed by the [`loader`],
//! * a declarative JSON frontend — [`schema`] defines the document types and
//!   exports networks as JSON, [`loader`] parses documents back into
//!   validated networks with shape inference,
//! * [`analysis`] — utilities that reproduce the workload statistics of
//!   Table I(b) of the paper (average / maximum feature-map size and total
//!   weight size).
//!
//! # Example
//!
//! ```
//! use defines_workload::models;
//! use defines_workload::analysis::WorkloadSummary;
//!
//! let net = models::fsrcnn();
//! let summary = WorkloadSummary::of(&net);
//! // FSRCNN is activation dominant: feature maps are orders of magnitude
//! // larger than its total weight footprint.
//! assert!(summary.max_feature_map_bytes > 100 * summary.total_weight_bytes);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analysis;
pub mod dims;
pub mod layer;
pub mod loader;
pub mod models;
pub mod network;
pub mod schema;

pub use dims::{Dim, LayerDims};
pub use layer::{Layer, LayerId, OpType};
pub use loader::{from_json_file, from_json_str, WorkloadError};
pub use network::{Network, NetworkError};
pub use schema::{LayerSpec, WorkloadDoc};

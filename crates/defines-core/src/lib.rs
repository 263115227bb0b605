//! DeFiNES: a unified analytical cost model for layer-by-layer and depth-first
//! (layer-fused / cascaded) scheduling of DNN workloads on accelerators.
//!
//! This crate implements the paper's primary contribution — the six-step
//! depth-first cost model of Section III — on top of the substrates provided
//! by the sibling crates:
//!
//! * `defines-workload` — DNN workloads (layers, DAG, model zoo),
//! * `defines-arch` — accelerators (PE array, memory hierarchy, energy model),
//! * `defines-mapping` — single-layer mapper (LOMA-lite) and cost model
//!   (ZigZag-like).
//!
//! # The depth-first design space
//!
//! A depth-first schedule ([`DfStrategy`]) is a point on three axes:
//!
//! 1. [`TileSize`] — the portion of the stack's final output feature map that
//!    is computed atomically,
//! 2. [`OverlapMode`] — whether the overlapping halo between neighbouring
//!    tiles is recomputed, cached horizontally, or cached in both directions,
//! 3. [`FuseDepth`] — which consecutive layers are fused into each stack.
//!
//! Single-layer and layer-by-layer scheduling are the two extreme points of
//! the space ([`DfStrategy::single_layer`], [`DfStrategy::layer_by_layer`]).
//!
//! `docs/paper-map.md` at the repository root maps every section, equation
//! and figure of the paper to the module and function implementing it.
//!
//! # Example
//!
//! ```
//! use defines_arch::zoo;
//! use defines_core::{DfCostModel, DfStrategy, OverlapMode, TileSize};
//! use defines_workload::models;
//!
//! let net = models::fsrcnn();
//! let acc = zoo::meta_proto_like_df();
//! let model = DfCostModel::new(&acc).with_fast_mapper();
//!
//! let df = DfStrategy::depth_first(TileSize::new(60, 72), OverlapMode::FullyCached);
//! let sl = DfStrategy::single_layer();
//! let df_cost = model.evaluate_network(&net, &df).unwrap();
//! let sl_cost = model.evaluate_network(&net, &sl).unwrap();
//! // Depth-first scheduling crushes single-layer scheduling on FSRCNN.
//! assert!(df_cost.energy_pj < sl_cost.energy_pj);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod backcalc;
pub mod baselines;
pub mod batch;
pub mod bounds;
pub mod checkpoint;
pub mod datacopy;
pub mod evaluate;
pub mod explore;
pub mod fuse;
pub mod geometry;
pub mod matrix;
pub mod memlevel;
pub mod result;
pub mod stack;
pub mod strategy;
pub mod tiling;

pub use batch::{run_batch, BatchConfig, BatchItem, BatchOutcome};
pub use bounds::StrategyBounds;
pub use checkpoint::{Checkpoint, CheckpointHeader};
pub use evaluate::{DfCostModel, EvaluationError, PreparedNetwork};
pub use explore::{
    DfSweepRecord, ExplorationResult, Explorer, OptimizeTarget, ScheduleResult, StackChoice,
};
pub use fuse::FusePolicy;
pub use matrix::{run_matrix, CellOutcome, MatrixConfig, MatrixError, MatrixReport, RankingEntry};
pub use result::{DataClass, NetworkCost, StackCost, TileTypeCost};
pub use stack::{FuseDepth, Stack};
pub use strategy::{BetweenStackMemory, DfStrategy, OverlapMode, TileSize};

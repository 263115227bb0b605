//! Single-layer temporal-mapping search and cost model for DeFiNES.
//!
//! This crate plays the role of LOMA \[29\] (the temporal mapping search
//! engine) and ZigZag \[21\], \[22\] (the single-layer cost model) in the DeFiNES
//! stack: given a layer (or a layer *tile*, when driven by the depth-first
//! model in `defines-core`), an accelerator, and the *top memory level* each
//! operand is allowed to use, it finds a good temporal mapping and reports
//! the per-memory-level access counts, energy and latency.
//!
//! The model follows the standard relevant/irrelevant-loop analysis:
//!
//! * a temporal mapping is an ordered list of loops (innermost → outermost),
//!   each loop being one whole layer dimension after spatial unrolling,
//! * per operand, loops are allocated bottom-up to the memory levels serving
//!   that operand, greedily filling each level's capacity share,
//! * the traffic between two adjacent levels equals the operand's total
//!   footprint times a *refetch factor* derived from the loops that sit above
//!   the lower level's allocation boundary,
//! * outputs additionally pay partial-sum write-back/fetch-back traffic when
//!   reduction loops interrupt accumulation.
//!
//! # Example
//!
//! ```
//! use defines_arch::zoo;
//! use defines_mapping::{LomaMapper, SingleLayerProblem};
//! use defines_workload::{Layer, LayerDims, OpType};
//!
//! let acc = zoo::meta_proto_like_df();
//! let layer = Layer::new("conv", OpType::Conv, LayerDims::conv(32, 16, 56, 56, 3, 3));
//! let problem = SingleLayerProblem::new(&acc, &layer);
//! let cost = LomaMapper::default().optimize(&problem);
//! assert!(cost.energy_pj > 0.0);
//! assert!(cost.latency_cycles >= cost.macs as f64 / 1024.0);
//! ```

mod cache;
mod cost;
mod loma;
mod persist;
mod problem;
mod search;
// named by benchmark/ (frozen until ROADMAP 3(a))
pub mod temporal;

pub use cache::{MappingCache, ProblemKey};
pub use cost::{Access, AccessBreakdown, LayerCost, Objective};
pub use loma::{Budget, LomaMapper, MapperConfig};
pub use persist::{CacheStore, StoreError, StoreStats};
pub use problem::{OperandTopLevels, SingleLayerProblem};
pub use search::SearchStats;

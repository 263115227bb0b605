//! Accelerator architecture model for the DeFiNES depth-first scheduling
//! cost model.
//!
//! An [`Accelerator`] is a [`PeArray`] (a spatially-unrolled MAC array) plus a
//! [`MemoryHierarchy`]: an ordered list of [`MemoryLevel`]s from the innermost
//! registers up to DRAM, where each level serves a subset of the three
//! [`Operand`]s (weights, inputs, outputs), has a capacity, per-access
//! energies and read/write bandwidths.
//!
//! The [`zoo`] module provides the ten architectures of Table I(a) of the
//! paper (five baselines — Meta-prototype, TPU, Edge TPU, Ascend, Tesla NPU —
//! and their manually constructed DF-friendly variants), all normalized to
//! 1024 MACs and at most 2 MB of global buffer, plus a DepFiN-like
//! architecture used for the validation experiment. Each is a committed
//! document under `accelerators/` at the repository root, embedded at
//! compile time and parsed by the [`loader`].
//!
//! SRAM access energies are produced by an analytical CACTI-like fit
//! ([`MemoryLevel::sram`]); see `docs/paper-map.md` ("Deliberate deviations
//! from the paper") for the substitution rationale.
//!
//! Accelerators are also *data*: the [`loader`] reads a declarative JSON
//! document format mirroring the workload frontend straight into validated
//! [`Accelerator`]s, and [`to_json_pretty`] writes one back out.
//! Round trips are exact — a file-loaded accelerator has the same
//! [`Accelerator::fingerprint`] as its in-memory twin, so it shares
//! mapping-cache entries with it.
//!
//! # Example
//!
//! ```
//! use defines_arch::zoo;
//! use defines_arch::Operand;
//!
//! let acc = zoo::meta_proto_like_df();
//! assert_eq!(acc.pe_array().total_macs(), 1024);
//! // The DF variant shares a 64 KB local buffer between inputs and outputs.
//! let lb = acc.hierarchy().level_named("LB_IO").unwrap();
//! assert!(lb.serves(Operand::Input) && lb.serves(Operand::Output));
//! ```

mod accelerator;
mod energy;
// named by benchmark/ (frozen until ROADMAP 3(a))
pub mod loader;
mod memory;
mod operand;
mod pe_array;
mod schema;
// catalog namespace: `zoo::tpu_like_df()` names one built-in accelerator
pub mod zoo;

pub use accelerator::{Accelerator, AcceleratorBuilder, ArchError, OperandCapacity};
pub use memory::{HierarchyError, MemoryHierarchy, MemoryLevel, MemoryLevelId};
pub use operand::Operand;
pub use pe_array::{PeArray, SpatialUnrolling};
pub use schema::{parse_dim, parse_operand, to_json_pretty};

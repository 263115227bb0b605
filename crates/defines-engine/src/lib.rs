//! The DeFiNES exploration engine: generic machinery for sweeping large
//! design spaces fast.
//!
//! DeFiNES' value proposition is *fast* exploration of the depth-first
//! scheduling space; this crate owns the three mechanisms that deliver the
//! speed, decoupled from what is being explored:
//!
//! * [`SweepEngine`] — a work-queue parallel executor that fans design points
//!   out across worker threads and streams [`SweepRecord`]s back in
//!   completion order, with best-so-far tracking,
//! * [`MemoCache`] — a sharded, thread-safe memoization cache with hit/miss
//!   accounting, used by `defines-mapping` to run the LOMA temporal-mapping
//!   search once per *distinct* sub-problem instead of once per design point,
//! * lower-bound pruning — an optional cheap bound `lb(point)`; points whose
//!   bound already exceeds the best evaluated value are skipped without
//!   paying for a full evaluation, without ever changing the best result
//!   (pruning uses a strict comparison, so ties are never pruned).
//!
//! The engine is deliberately generic over points, costs and evaluation
//! closures: `defines-core` instantiates it with `DfStrategy`/`NetworkCost`
//! for the paper's (tile size × overlap mode × fuse depth) space, and the
//! same machinery serves per-stack "best combination" searches and the
//! `defines-cli` sweep binary.
//!
//! Two small primitives also live here because both `defines-core` (matrix
//! checkpoints) and `defines-mapping` (the mapping-cache store) keep files
//! that outlive the process: [`Fnv`], a hash that is stable across Rust
//! releases, and [`journal`], the append-only JSONL file format with its
//! crash contract.
//!
//! # Determinism
//!
//! Records stream in completion order (nondeterministic under threads), but
//! each record carries the index of its design point, so ordered collection
//! ([`SweepEngine::run_collect`]) is deterministic: with a deterministic
//! evaluator it returns bit-identical results regardless of thread count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod engine;
pub mod fnv;
pub mod journal;
pub mod memo;

pub use engine::{EngineConfig, Outcome, SweepEngine, SweepRecord, SweepStats};
pub use fnv::Fnv;
pub use journal::{Journal, JournalError};
pub use memo::{CacheStats, MemoCache};

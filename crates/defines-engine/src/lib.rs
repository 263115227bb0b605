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
//! * [`MemoCache`] — a sharded, thread-safe memoization map that counts
//!   nothing, used by `defines-mapping` to run the LOMA temporal-mapping
//!   search once per *distinct* sub-problem instead of once per design point
//!   (the mapping cache keeps its own hit/miss counts),
//! * lower-bound pruning — an optional cheap bound `lb(point)`, the only
//!   thing that switches pruning on for a run; points whose
//!   bound already exceeds the best evaluated value are skipped without
//!   paying for a full evaluation, without ever changing the best result
//!   (pruning uses a strict comparison, so ties are never pruned). Each
//!   point runs bound → evaluate on one worker, and nothing passes from
//!   the bound to the evaluation: a caller that wants both to share work
//!   keeps it in state they both read (the DeFiNES sweep's stack
//!   geometries memoize their axis classes).
//!
//! The engine is deliberately generic over points, costs and evaluation
//! closures: `defines-core` instantiates it with `DfStrategy`/`NetworkCost`
//! for the paper's (tile size × overlap mode × fuse depth) space, and the
//! same machinery serves per-stack "best combination" searches and the
//! `defines-cli` sweep binary.
//!
//! [`Journal`], the append-only JSONL file format with its crash contract,
//! also lives here because both `defines-core` (matrix checkpoints) and
//! `defines-mapping` (the mapping-cache store) keep files that outlive the
//! process. The keys in those files are fingerprinted with
//! `defines_workload::Fnv`, the workspace's one identity hash; this crate
//! re-exports it only for the benchmark ladder, which names it from here.
//!
//! # Determinism
//!
//! Records stream in completion order (nondeterministic under threads), but
//! each record carries the index of its design point, so ordered collection
//! ([`SweepEngine::run_collect`]) is deterministic: with a deterministic
//! evaluator it returns bit-identical results regardless of thread count.

mod engine;
mod journal;
mod memo;

pub use engine::{panic_error, EngineConfig, Outcome, SweepEngine, SweepRecord, SweepStats};
// `benchmark/` names `defines_engine::Fnv`; in-tree code imports it from
// `defines-workload`.
pub use defines_workload::Fnv;
pub use journal::{Journal, JournalError};
pub use memo::{CacheStats, FxBuildHasher, FxHasher, MemoCache};

//! Memoization of single-layer mapping results across design points.
//!
//! The depth-first design space is hugely redundant from the mapper's point
//! of view: different (tile size, overlap mode, fuse depth) design points
//! decompose into the *same* per-layer tile sub-problems, and the LOMA
//! temporal-mapping search is by far the most expensive part of evaluating
//! one. A [`MappingCache`] keys mapping results by the full sub-problem
//! identity — layer signature (operator, precisions), tile dimensions,
//! operand top levels and the accelerator's structural fingerprint — so each
//! distinct sub-problem is searched once no matter how many design points,
//! sweeps or cost-model instances share the cache.
//!
//! The cache is one table, canonical key → shared cost. A miss runs
//! [`LomaMapper::optimize`] with no lock held (only the insert takes the
//! key's shard lock), and searches share nothing: two threads that miss the
//! same cold key at the same instant both search it, compute the same bits,
//! and the first insert wins. `docs/architecture.md` ("Searches share
//! nothing") records how rare that race is.

use crate::cost::LayerCost;
use crate::loma::LomaMapper;
use crate::problem::{OperandTopLevels, SingleLayerProblem};
use defines_engine::{CacheStats, MemoCache};
use defines_telemetry::{span, Counter};
use defines_workload::{LayerDims, OpType};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Mapping-cache lookups served from an existing entry.
static CACHE_HITS: Counter = Counter::new("mapping.cache.hits");
/// Lookups that ran the mapper (and inserted the result).
static CACHE_MISSES: Counter = Counter::new("mapping.cache.misses");
/// Hits that only exist because of key canonicalization.
static CACHE_CANONICAL_HITS: Counter = Counter::new("mapping.cache.canonical_hits");

/// The memoization key: everything that determines a mapping result.
///
/// Two problems with equal keys are guaranteed to produce bit-identical
/// [`LayerCost`]s under the same [`MapperConfig`](crate::MapperConfig),
/// because the mapper is deterministic in the problem alone.
///
/// [`ProblemKey::canonical`] additionally normalizes the components that
/// provably cannot influence the result, so problems that differ only in
/// those share one cache entry (a *canonical hit*).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProblemKey {
    /// Structural fingerprint of the accelerator
    /// ([`Accelerator::fingerprint`](defines_arch::Accelerator::fingerprint)).
    pub accelerator: u64,
    /// Operator class of the layer.
    pub op: OpType,
    /// Loop dimensions of the (tile of the) layer.
    pub dims: LayerDims,
    /// Bits per activation element.
    pub act_bits: u32,
    /// Bits per weight element.
    pub weight_bits: u32,
    /// Highest memory level each operand may use.
    pub top_levels: OperandTopLevels,
    /// The mapper configuration fingerprint (objective + search width), so
    /// one cache can serve models with different mapper settings.
    pub mapper: u64,
}

impl ProblemKey {
    /// Builds the canonical key for a problem: its full identity with every
    /// component the single-layer model provably ignores normalized away.
    /// Returns the key and whether canonicalization changed anything (i.e.
    /// whether a hit on this key may be a *canonical* hit).
    ///
    /// Normalized components:
    ///
    /// * **padding** — the single-layer cost model never reads `pad_x` /
    ///   `pad_y`: footprints use the un-padded input extent, the resident
    ///   data sizes use stride and kernel only, and the PE utilization uses
    ///   the plain loop bounds. Tiles (padding already zeroed) therefore
    ///   share entries with identically-shaped full layers.
    /// * **weight precision and weight top level for weight-less operators**
    ///   (pooling, add) — a zero weight footprint removes the weight operand
    ///   from allocation, traffic and capacity sharing entirely, so neither
    ///   value can reach the result. This is what makes tile problems that
    ///   differ only in the placement of (non-existent) weights — common in
    ///   pooling/add-heavy sweeps — resolve to one cache entry.
    pub fn canonical(problem: &SingleLayerProblem<'_>, mapper: &LomaMapper) -> (Self, bool) {
        Self::canonical_with_fingerprints(
            problem,
            problem.accelerator.fingerprint(),
            mapper.config_fingerprint(),
        )
    }

    /// [`ProblemKey::canonical`] with the accelerator / mapper fingerprints
    /// supplied by the caller. The fingerprints hash the full architecture
    /// description, so callers that resolve many sub-problems against one
    /// accelerator (the depth-first cost model) compute them once instead of
    /// once per lookup.
    pub fn canonical_with_fingerprints(
        problem: &SingleLayerProblem<'_>,
        accelerator: u64,
        mapper: u64,
    ) -> (Self, bool) {
        let mut key = Self {
            accelerator,
            op: problem.op,
            dims: problem.dims,
            act_bits: problem.act_bits,
            weight_bits: problem.weight_bits,
            top_levels: problem.top_levels,
            mapper,
        };
        let mut changed = false;
        if key.dims.pad_x != 0 || key.dims.pad_y != 0 {
            key.dims.pad_x = 0;
            key.dims.pad_y = 0;
            changed = true;
        }
        if problem.weight_footprint_bytes() == 0 {
            let dram = problem.accelerator.hierarchy().dram_id();
            if key.weight_bits != 0 || key.top_levels.weight != dram {
                key.weight_bits = 0;
                key.top_levels.weight = dram;
                changed = true;
            }
        }
        (key, changed)
    }
}

/// A shared, thread-safe cache of single-layer mapping results.
///
/// Cloning the handle is cheap (`Arc`); all clones share the same entries and
/// statistics. The cache is safe to share across threads, accelerators and
/// mapper configurations — the key disambiguates all of them.
///
/// Entries are stored behind an `Arc`, so the hot path
/// ([`MappingCache::optimize_shared`]) hands out shared references instead of
/// deep-copying the access breakdown on every hit; problems are keyed by
/// their [canonical form](ProblemKey::canonical), with canonical hits counted
/// separately in the [`CacheStats`].
#[derive(Debug, Clone, Default)]
pub struct MappingCache {
    inner: Arc<MemoCache<ProblemKey, Arc<LayerCost>>>,
    /// Last-used epoch tracking for the persistent store's LRU eviction (see
    /// [`crate::persist`]). Disabled by default: when off, the hot lookup
    /// path pays exactly one relaxed atomic load. Epochs advance only at
    /// *batch* boundaries ([`MappingCache::advance_epoch`]), never per
    /// lookup, so every touch within one batch records the same epoch and
    /// the recorded usage is independent of thread interleaving — the
    /// foundation of the store's deterministic eviction order.
    usage: Arc<UsageTracker>,
}

/// See [`MappingCache::usage`].
#[derive(Debug, Default)]
struct UsageTracker {
    enabled: AtomicBool,
    epoch: AtomicU64,
    last_used: Mutex<HashMap<ProblemKey, u64>>,
}

impl UsageTracker {
    /// Locks the last-used map, recovering from poisoning. Sound for the same
    /// reason as `MemoCache`'s shard recovery: every critical section is a
    /// single map operation that cannot be observed half-done, so a panicking
    /// thread leaves the map valid and the poison flag carries no
    /// information.
    fn lock(&self) -> MutexGuard<'_, HashMap<ProblemKey, u64>> {
        self.last_used
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl MappingCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a shared handle to the cached cost for the problem, running
    /// the mapper on a miss. A hit costs one reference-count bump, not a deep
    /// copy of the cost record.
    pub fn optimize_shared(
        &self,
        mapper: &LomaMapper,
        problem: &SingleLayerProblem<'_>,
    ) -> Arc<LayerCost> {
        let (key, canonicalized) = ProblemKey::canonical(problem, mapper);
        self.optimize_shared_keyed(key, canonicalized, mapper, problem)
    }

    /// [`MappingCache::optimize_shared`] with a pre-built canonical key (see
    /// [`ProblemKey::canonical_with_fingerprints`]).
    pub fn optimize_shared_keyed(
        &self,
        key: ProblemKey,
        canonicalized: bool,
        mapper: &LomaMapper,
        problem: &SingleLayerProblem<'_>,
    ) -> Arc<LayerCost> {
        let key_for_usage = self
            .usage
            .enabled
            .load(Ordering::Relaxed)
            .then(|| key.clone());
        let (cost, hit) = self.inner.get_or_insert_with_meta(key, || {
            let _span = span!("mapping.search");
            Arc::new(mapper.optimize(problem))
        });
        if hit {
            CACHE_HITS.incr();
            if canonicalized {
                self.inner.record_canonical_hit();
                CACHE_CANONICAL_HITS.incr();
            }
        } else {
            CACHE_MISSES.incr();
        }
        if let Some(key) = key_for_usage {
            let epoch = self.usage.epoch.load(Ordering::Relaxed);
            self.usage.lock().insert(key, epoch);
        }
        cost
    }

    /// Enables last-used tracking for this cache (and all clones of the
    /// handle). Required before attaching the cache to a persistent store.
    pub fn track_usage(&self) {
        self.usage.enabled.store(true, Ordering::Relaxed);
    }

    /// The current usage epoch.
    pub fn current_epoch(&self) -> u64 {
        self.usage.epoch.load(Ordering::Relaxed)
    }

    /// Sets the usage epoch (used when reloading a persisted store, which
    /// resumes counting after the highest persisted epoch).
    pub fn set_epoch(&self, epoch: u64) {
        self.usage.epoch.store(epoch, Ordering::Relaxed);
    }

    /// Advances the usage epoch by one. Call at batch boundaries only: all
    /// lookups between two calls share one epoch, which is what makes the
    /// recorded usage — and therefore LRU eviction — independent of how
    /// threads interleaved within the batch.
    pub fn advance_epoch(&self) {
        self.usage.epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// The keys touched since tracking began, with the epoch of their most
    /// recent touch, sorted by key. Draining (`clear`) keeps the next
    /// snapshot incremental.
    pub fn drain_usage(&self) -> Vec<(ProblemKey, u64)> {
        let mut guard = self.usage.lock();
        let mut out: Vec<(ProblemKey, u64)> = guard.drain().collect();
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Records a usage epoch for `key` directly (store reload path).
    pub fn set_usage(&self, key: ProblemKey, epoch: u64) {
        self.usage.lock().insert(key, epoch);
    }

    /// Inserts a previously computed cost without touching the hit/miss
    /// counters, returning `true` if the key was absent. Used by the
    /// persistent store to warm the cache from disk.
    pub fn preload(&self, key: ProblemKey, cost: Arc<LayerCost>) -> bool {
        self.inner.insert(key, cost)
    }

    /// The cached cost for `key` without counting a hit or miss — for
    /// persistence bookkeeping that must not distort the lookup statistics.
    pub fn peek(&self, key: &ProblemKey) -> Option<Arc<LayerCost>> {
        self.inner.peek(key)
    }

    /// Removes an entry, returning its cost if it was present. Eviction
    /// bookkeeping: no effect on hit/miss counters.
    pub fn remove(&self, key: &ProblemKey) -> Option<Arc<LayerCost>> {
        self.usage.lock().remove(key);
        self.inner.remove(key)
    }

    /// All entries, sorted by key (deterministic regardless of insertion or
    /// shard order).
    pub fn entries(&self) -> Vec<(ProblemKey, Arc<LayerCost>)> {
        let mut out = self.inner.snapshot();
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Hit/miss statistics accumulated since creation (or the last clear).
    pub fn stats(&self) -> CacheStats {
        self.inner.stats()
    }

    /// Drops all entries and resets the statistics.
    pub fn clear(&self) {
        self.inner.clear();
        self.usage.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loma::MapperConfig;
    use defines_arch::{zoo, Operand};
    use defines_workload::{Layer, LayerDims, OpType};

    fn layer() -> Layer {
        Layer::new("c", OpType::Conv, LayerDims::conv(32, 16, 28, 28, 3, 3))
    }

    #[test]
    fn cache_returns_identical_results() {
        let acc = zoo::meta_proto_like_df();
        let l = layer();
        let problem = SingleLayerProblem::new(&acc, &l);
        let mapper = LomaMapper::new(MapperConfig::fast());
        let cache = MappingCache::new();
        let fresh = mapper.optimize(&problem);
        let first = cache.optimize_shared(&mapper, &problem);
        let second = cache.optimize_shared(&mapper, &problem);
        assert_eq!(*first, fresh);
        assert!(Arc::ptr_eq(&first, &second), "a hit hands out the entry");
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn key_distinguishes_accelerators_and_mappers() {
        let a = zoo::meta_proto_like_df();
        let b = zoo::tpu_like();
        let l = layer();
        let pa = SingleLayerProblem::new(&a, &l);
        let pb = SingleLayerProblem::new(&b, &l);
        let fast = LomaMapper::new(MapperConfig::fast());
        let full = LomaMapper::default();
        let key = |p, m| ProblemKey::canonical(p, m).0;
        assert_ne!(key(&pa, &fast), key(&pb, &fast));
        assert_ne!(key(&pa, &fast), key(&pa, &full));
        assert_eq!(key(&pa, &fast), key(&pa, &fast));
    }

    #[test]
    fn canonical_hits_are_counted_separately() {
        let acc = zoo::meta_proto_like_df();
        let mapper = LomaMapper::new(MapperConfig::fast());
        let cache = MappingCache::new();
        // A weight-less pooling tile whose (irrelevant) weight top level
        // varies across design points: one entry, canonical hits for the
        // variants.
        let pool = Layer::new(
            "pool",
            OpType::Pooling,
            LayerDims::conv(64, 64, 28, 28, 2, 2).with_stride(2, 2),
        );
        let base = SingleLayerProblem::new(&acc, &pool);
        let lb = acc.hierarchy().level_id_named("LB_W").unwrap();
        let moved = base
            .clone()
            .with_top_levels(crate::OperandTopLevels::dram(&acc).with_level(Operand::Weight, lb));
        let a = cache.optimize_shared(&mapper, &base);
        let b = cache.optimize_shared(&mapper, &moved);
        assert_eq!(a, b);
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.canonical_hits, 1);

        // Padding never reaches the single-layer model either.
        let conv = Layer::new("c", OpType::Conv, LayerDims::conv(16, 8, 28, 28, 3, 3));
        let padded = Layer::new(
            "c",
            OpType::Conv,
            LayerDims::conv(16, 8, 28, 28, 3, 3).with_padding(1, 1),
        );
        let plain = cache.optimize_shared(&mapper, &SingleLayerProblem::new(&acc, &conv));
        let with_pad = cache.optimize_shared(&mapper, &SingleLayerProblem::new(&acc, &padded));
        assert_eq!(plain, with_pad);
        assert_eq!(cache.stats().canonical_hits, 2);
    }

    #[test]
    fn shared_handles_share_entries() {
        let acc = zoo::meta_proto_like_df();
        let l = layer();
        let problem = SingleLayerProblem::new(&acc, &l);
        let mapper = LomaMapper::new(MapperConfig::fast());
        let cache = MappingCache::new();
        let clone = cache.clone();
        let _ = cache.optimize_shared(&mapper, &problem);
        let _ = clone.optimize_shared(&mapper, &problem);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(clone.stats().entries, 1);
    }
}

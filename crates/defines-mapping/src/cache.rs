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
//! The cache is one table, canonical key → answer plus the entry's LRU
//! epochs for the persistent store (last use, last write). An answer is
//! *priced* (the shared cost) or, loaded from a v2 store line, *stored*: the
//! winning loops and the degraded flag, priced on the first hit. A miss runs
//! [`LomaMapper::optimize`] with no lock held (only the insert takes the
//! key's shard lock), and searches share nothing: two threads that miss the
//! same cold key at the same instant both search it, compute the same bits,
//! and the first insert wins. `docs/architecture.md` ("Searches share
//! nothing") records how often that happens: at most 0.25 % of a parallel
//! sweep's searches; a parallel fuse-depth search once read 9–14 % and
//! reads at most 0.04 % today.
//!
//! This module owns the table's bookkeeping. It counts every lookup — hits,
//! misses and canonical hits, in [`MappingCache::stats`] and the
//! `mapping.cache.*` counters — and each lookup writes the current usage
//! epoch into its entry under the shard lock it already holds, so the store
//! ([`crate::persist`]) finds what to write in the entries alone.

use crate::cost::{self, LayerCost};
use crate::loma::LomaMapper;
use crate::problem::{OperandTopLevels, SingleLayerProblem};
use crate::temporal::{Loops, TemporalLoop, TemporalMapping};
use defines_engine::{CacheStats, MemoCache};
use defines_telemetry::{span, Counter};
use defines_workload::{LayerDims, OpType};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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
    ///
    /// Benchmark probes and tests only; the program calls
    /// [`ProblemKey::canonical_with_fingerprints`], see ROADMAP 3(a).
    #[doc(hidden)]
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
pub struct MappingCache(Arc<Shared>);

/// What the handles of one [`MappingCache`] share.
#[derive(Debug, Default)]
struct Shared {
    /// The one table: canonical key → answer and LRU state.
    table: MemoCache<ProblemKey, Entry>,
    /// The usage epoch every lookup records in its entry, for the
    /// persistent store's LRU eviction (see [`crate::persist`]); only
    /// [`CacheStore::sync`](crate::CacheStore::sync) advances it, at batch
    /// boundaries.
    epoch: AtomicU64,
    /// Lookups served from an existing entry, repeats the caller answered
    /// itself included ([`MappingCache::count_repeat_hit`]).
    hits: AtomicU64,
    /// Lookups that ran the mapper.
    misses: AtomicU64,
    /// Hits that only exist because of key canonicalization.
    canonical_hits: AtomicU64,
}

/// The epoch of a use or a write that never happened.
pub(crate) const NEVER: u64 = u64::MAX;

/// One mapping: its answer and its LRU state.
#[derive(Debug, Clone)]
pub(crate) struct Entry {
    pub(crate) answer: Answer,
    /// The epoch of the last use ([`NEVER`]: none since a store attached).
    pub(crate) used: u64,
    /// The epoch the store's file last carried for this entry.
    pub(crate) persisted: u64,
}

/// What an entry knows of its mapping. Either form is one pointer, so a
/// computed entry carries a tag for the choice, not the stored form's
/// loops; either clones without the allocator.
#[derive(Debug, Clone)]
pub(crate) enum Answer {
    /// The cost: computed in this process, loaded from a v1 store line, or
    /// priced from a stored answer.
    Priced(Arc<LayerCost>),
    /// A v2 store line's answer — the winning loops, innermost first, and
    /// whether the search that found them exhausted its budget — priced on
    /// the entry's first hit.
    Stored { loops: Arc<Loops>, degraded: bool },
}

impl Answer {
    /// The winning loops, innermost first.
    pub(crate) fn loops(&self) -> &[TemporalLoop] {
        match self {
            Answer::Priced(cost) => cost.mapping.loops(),
            Answer::Stored { loops, .. } => loops,
        }
    }

    /// Whether the search that found the loops exhausted its budget.
    pub(crate) fn degraded(&self) -> bool {
        match self {
            Answer::Priced(cost) => cost.degraded,
            Answer::Stored { degraded, .. } => *degraded,
        }
    }
}

impl Entry {
    /// An entry no lookup has used, listed by the store's file at
    /// `persisted` ([`NEVER`]: not listed).
    pub(crate) fn new(answer: Answer, persisted: u64) -> Self {
        Self {
            answer,
            used: NEVER,
            persisted,
        }
    }

    /// The entry's cost. A stored answer is priced for `problem`, the
    /// problem looked up under this entry's key, and kept priced.
    fn cost(&mut self, problem: &SingleLayerProblem<'_>) -> Arc<LayerCost> {
        match &self.answer {
            Answer::Priced(cost) => cost.clone(),
            Answer::Stored { loops, degraded } => {
                let cost = price(problem, loops, *degraded);
                self.answer = Answer::Priced(cost.clone());
                cost
            }
        }
    }
}

/// The cost of a stored answer. The cost of a search is a function of its
/// loops alone (every reported cost comes from the kernel's `price`), so
/// this is the cost the search returned, bit for bit. Runs once per loaded
/// entry, so it is kept off the hit path.
#[cold]
#[inline(never)]
fn price(problem: &SingleLayerProblem<'_>, loops: &Loops, degraded: bool) -> Arc<LayerCost> {
    let mut cost = cost::evaluate(problem, TemporalMapping::from_loops(loops.to_vec()));
    cost.degraded = degraded;
    Arc::new(cost)
}

impl MappingCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The one table, for the store's bookkeeping.
    pub(crate) fn table(&self) -> &MemoCache<ProblemKey, Entry> {
        &self.0.table
    }

    /// Returns a shared handle to the cached cost for the problem, running
    /// the mapper on a miss. A hit costs one reference-count bump, not a deep
    /// copy of the cost record; the first hit on a stored answer prices its
    /// loops once, under the shard lock, and counts as a hit like any other.
    ///
    /// Benchmark probes and tests only; the program calls
    /// [`MappingCache::optimize_shared_keyed`] with a key from
    /// [`ProblemKey::canonical_with_fingerprints`], see ROADMAP 3(a).
    #[doc(hidden)]
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
        let epoch = self.current_epoch();
        let (cost, hit) = self.0.table.get_or_insert_with_meta(
            key,
            || {
                let _span = span!("mapping.search");
                Entry::new(Answer::Priced(Arc::new(mapper.optimize(problem))), NEVER)
            },
            |_, entry| {
                entry.used = epoch;
                entry.cost(problem)
            },
        );
        if hit {
            // A repeat's hit is counted as this one is.
            self.count_repeat_hit(canonicalized);
        } else {
            self.0.misses.fetch_add(1, Ordering::Relaxed);
            CACHE_MISSES.incr();
        }
        cost
    }

    /// [`MappingCache::optimize_shared_keyed`] for a lookup that repeats
    /// one the caller made earlier in the same batch: it counts no hit, miss
    /// or canonical hit and touches no usage epoch, since the first lookup
    /// did all that. An entry gone in between (a store evicts only between
    /// batches) is looked up again as any lookup is.
    pub fn repeat_shared_keyed(
        &self,
        key: ProblemKey,
        canonicalized: bool,
        mapper: &LomaMapper,
        problem: &SingleLayerProblem<'_>,
    ) -> Arc<LayerCost> {
        match self.0.table.update(&key, |entry| entry.cost(problem)) {
            Some(cost) => cost,
            None => self.optimize_shared_keyed(key, canonicalized, mapper, problem),
        }
    }

    /// Counts a lookup the caller answered itself: it repeats, under a key
    /// already looked up in this cache, a result the caller kept from that
    /// lookup. It counts as the hit the lookup would have been — in
    /// [`CacheStats::hits`], in `mapping.cache.hits`, and as a canonical hit
    /// when `canonicalized` says the key was. Usage tracking needs nothing:
    /// the epoch advances only between batches, and the first lookup already
    /// touched the entry in this one.
    pub fn count_repeat_hit(&self, canonicalized: bool) {
        self.0.hits.fetch_add(1, Ordering::Relaxed);
        CACHE_HITS.incr();
        if canonicalized {
            self.0.canonical_hits.fetch_add(1, Ordering::Relaxed);
            CACHE_CANONICAL_HITS.incr();
        }
    }

    /// Forgets every use and what an earlier store listed: a store attached
    /// now lists only what it loads, and what a lookup uses after it
    /// attached. Required before attaching the cache to a persistent store.
    pub(crate) fn forget_usage(&self) {
        self.0.table.retain(|_, entry| {
            entry.used = NEVER;
            entry.persisted = NEVER;
            true
        });
    }

    /// The current usage epoch.
    pub fn current_epoch(&self) -> u64 {
        self.0.epoch.load(Ordering::Relaxed)
    }

    /// Sets the usage epoch (used when reloading a persisted store, which
    /// resumes counting after the highest persisted epoch).
    pub fn set_epoch(&self, epoch: u64) {
        self.0.epoch.store(epoch, Ordering::Relaxed);
    }

    /// Records a use of `key` at `epoch`, as a lookup in that epoch would.
    /// A key the cache does not hold is ignored.
    pub fn set_usage(&self, key: ProblemKey, epoch: u64) {
        self.0.table.update(&key, |entry| entry.used = epoch);
    }

    /// Inserts a previously computed cost, unused, without touching the
    /// hit/miss counters, returning `true` if the key was absent.
    pub fn preload(&self, key: ProblemKey, cost: Arc<LayerCost>) -> bool {
        self.0
            .table
            .insert(key, Entry::new(Answer::Priced(cost), NEVER))
    }

    /// The priced entries, sorted by key (deterministic regardless of
    /// insertion or shard order). That is every entry of a cache that was
    /// only computed or preloaded; of the entries a v2 store file loaded,
    /// only those a lookup has hit since.
    pub fn entries(&self) -> Vec<(ProblemKey, Arc<LayerCost>)> {
        let mut out = Vec::new();
        self.0.table.retain(|key, entry| {
            if let Answer::Priced(cost) = &entry.answer {
                out.push((key.clone(), cost.clone()));
            }
            true
        });
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Every entry's winning mapping and degraded flag, priced or stored,
    /// sorted by key: what a store line keeps of it. Tests only.
    #[doc(hidden)]
    pub fn mappings(&self) -> Vec<(ProblemKey, TemporalMapping, bool)> {
        let mut out = Vec::new();
        self.0.table.retain(|key, entry| {
            let mapping = TemporalMapping::from_loops(entry.answer.loops().to_vec());
            out.push((key.clone(), mapping, entry.answer.degraded()));
            true
        });
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Hit/miss statistics accumulated since creation.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.0.hits.load(Ordering::Relaxed),
            misses: self.0.misses.load(Ordering::Relaxed),
            canonical_hits: self.0.canonical_hits.load(Ordering::Relaxed),
            entries: self.0.table.len(),
        }
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

    /// Tiny layers, one per `k`: distinct problems that search fast.
    fn small_layers(n: u64) -> Vec<Layer> {
        (1..=n)
            .map(|k| Layer::new("c", OpType::Conv, LayerDims::conv(k, 4, 4, 4, 1, 1)))
            .collect()
    }

    #[test]
    fn since_counts_only_the_second_run() {
        let acc = zoo::meta_proto_like_df();
        let mapper = LomaMapper::new(MapperConfig::fast());
        let layers = small_layers(3);
        let cache = MappingCache::new();
        let run = |layers: &[Layer]| {
            for l in layers {
                cache.optimize_shared(&mapper, &SingleLayerProblem::new(&acc, l));
            }
        };
        run(&layers[..2]);
        run(&layers[..2]);
        let before = cache.stats();
        assert_eq!((before.hits, before.misses), (2, 2));
        run(&layers[1..]);
        let delta = cache.stats().since(&before);
        assert_eq!((delta.hits, delta.misses, delta.canonical_hits), (1, 1, 0));
        // Entries stay absolute: they describe the cache, not the run.
        assert_eq!(delta.entries, 3);
    }

    #[test]
    fn concurrent_lookups_count_each_once() {
        let acc = zoo::meta_proto_like_df();
        let mapper = LomaMapper::new(MapperConfig::fast());
        let layers = small_layers(64);
        let cache = MappingCache::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for l in &layers {
                        cache.optimize_shared(&mapper, &SingleLayerProblem::new(&acc, l));
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 4 * 64);
        assert_eq!(stats.entries, 64);
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

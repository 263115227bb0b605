//! A sharded, thread-safe memoization cache with hit/miss accounting.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Number of independent shards; keys are distributed by hash so concurrent
/// workers rarely contend on the same lock.
const SHARDS: usize = 16;

/// Hit/miss statistics of a [`MemoCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute the value.
    pub misses: u64,
    /// The subset of `hits` that were only found because the caller
    /// *canonicalized* its key first — the raw problem differed from the
    /// cached one but provably maps to the same value (see
    /// [`MemoCache::record_canonical_hit`]). Without canonicalization these
    /// lookups would have been misses, so tracking them separately keeps the
    /// plain hit/miss ratio comparable across cache-key schemes.
    pub canonical_hits: u64,
    /// Distinct entries currently stored.
    pub entries: usize,
}

impl CacheStats {
    /// The counter delta since an earlier snapshot of the same cache:
    /// hits / misses / canonical hits are differenced (so the result
    /// describes one run, not the cache's lifetime), while `entries` stays
    /// the current absolute count. The differences saturate at zero: any
    /// holder of the cache may [`MemoCache::clear`] it between the two
    /// snapshots, which resets the counters below `before`.
    pub fn since(&self, before: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(before.hits),
            misses: self.misses.saturating_sub(before.misses),
            canonical_hits: self.canonical_hits.saturating_sub(before.canonical_hits),
            entries: self.entries,
        }
    }

    /// Fraction of lookups answered from the cache (0 when never queried).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A sharded map from problem keys to computed values.
///
/// `get_or_insert_with` does **not** hold any lock while computing a missing
/// value, so long computations (a temporal-mapping search, say) never
/// serialize other workers. Two threads may race to compute the same key;
/// with a deterministic computation both produce the same value and the
/// second insert is a no-op, so results never depend on the interleaving.
pub struct MemoCache<K, V> {
    shards: Vec<Mutex<HashMap<K, V>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    canonical_hits: AtomicU64,
}

impl<K, V> std::fmt::Debug for MemoCache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoCache")
            .field("hits", &self.hits.load(Ordering::Relaxed))
            .field("misses", &self.misses.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl<K: Hash + Eq, V: Clone> Default for MemoCache<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Hash + Eq, V: Clone> MemoCache<K, V> {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            canonical_hits: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &K) -> &Mutex<HashMap<K, V>> {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % SHARDS]
    }

    /// Locks a shard, recovering from poisoning. Sound because no code path
    /// mutates a shard in a way that can be observed half-done: values are
    /// computed *outside* the lock and inserted with a single `entry()` call,
    /// so a panicking thread can at worst leave the map exactly as it found
    /// it — the poison flag carries no information here. Recovery keeps a
    /// sweep alive after a worker panic (which the engine now catches and
    /// reports as a failed point) instead of cascading `PoisonError` panics
    /// through every other worker sharing the cache.
    fn lock_shard(shard: &Mutex<HashMap<K, V>>) -> MutexGuard<'_, HashMap<K, V>> {
        shard.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns the cached value for `key`, computing and inserting it on a
    /// miss.
    pub fn get_or_insert_with(&self, key: K, compute: impl FnOnce() -> V) -> V {
        self.get_or_insert_with_meta(key, compute).0
    }

    /// Like [`MemoCache::get_or_insert_with`], additionally reporting whether
    /// the lookup was answered from the cache (`true`) or computed (`false`).
    pub fn get_or_insert_with_meta(&self, key: K, compute: impl FnOnce() -> V) -> (V, bool) {
        let shard = self.shard(&key);
        if let Some(hit) = Self::lock_shard(shard).get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (hit.clone(), true);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let value = compute();
        Self::lock_shard(shard)
            .entry(key)
            .or_insert_with(|| value.clone());
        (value, false)
    }

    /// Attributes the most recent hit to key canonicalization: the caller's
    /// raw key differed from the cached canonical one. Callers that
    /// canonicalize keys invoke this after a hit on a canonicalized key so
    /// [`CacheStats::canonical_hits`] counts the lookups that plain raw-key
    /// caching would have missed.
    pub fn record_canonical_hit(&self) {
        self.canonical_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// The cached value for `key`, if present (counts as a hit/miss).
    pub fn get(&self, key: &K) -> Option<V> {
        let found = Self::lock_shard(self.shard(key)).get(key).cloned();
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Inserts `value` for `key` without touching the hit/miss counters,
    /// returning `true` if the key was absent. Used to preload a cache from a
    /// persisted store: preloaded entries must not masquerade as run-time
    /// hits or misses, and an entry computed since the store was read wins
    /// over the stale persisted one.
    pub fn insert(&self, key: K, value: V) -> bool {
        match Self::lock_shard(self.shard(&key)).entry(key) {
            std::collections::hash_map::Entry::Occupied(_) => false,
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(value);
                true
            }
        }
    }

    /// Removes `key`, returning its value if it was present. No effect on the
    /// hit/miss counters (eviction is bookkeeping, not a lookup).
    pub fn remove(&self, key: &K) -> Option<V> {
        Self::lock_shard(self.shard(key)).remove(key)
    }

    /// The cached value for `key` without counting a hit or miss — for
    /// bookkeeping reads (persistence) that must not distort the lookup
    /// statistics.
    pub fn peek(&self, key: &K) -> Option<V> {
        Self::lock_shard(self.shard(key)).get(key).cloned()
    }

    /// All entries, in unspecified (shard) order. Callers that need
    /// determinism must sort; the cache itself has no key ordering.
    pub fn snapshot(&self) -> Vec<(K, V)>
    where
        K: Clone,
    {
        let mut out = Vec::new();
        for shard in &self.shards {
            let guard = Self::lock_shard(shard);
            out.extend(guard.iter().map(|(k, v)| (k.clone(), v.clone())));
        }
        out
    }

    /// Number of distinct entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| Self::lock_shard(s).len()).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all entries and resets the statistics.
    pub fn clear(&self) {
        for shard in &self.shards {
            Self::lock_shard(shard).clear();
        }
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.canonical_hits.store(0, Ordering::Relaxed);
    }

    /// Current hit/miss statistics.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            canonical_hits: self.canonical_hits.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn caches_and_counts() {
        let cache: MemoCache<u64, u64> = MemoCache::new();
        let computed = AtomicUsize::new(0);
        for _ in 0..3 {
            for k in 0..4u64 {
                let v = cache.get_or_insert_with(k, || {
                    computed.fetch_add(1, Ordering::Relaxed);
                    k * 10
                });
                assert_eq!(v, k * 10);
            }
        }
        assert_eq!(computed.load(Ordering::Relaxed), 4);
        let stats = cache.stats();
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.hits, 8);
        assert_eq!(stats.entries, 4);
        assert!((stats.hit_rate() - 8.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn since_reports_per_run_deltas() {
        let cache: MemoCache<u64, u64> = MemoCache::new();
        cache.get_or_insert_with(1, || 10);
        cache.get_or_insert_with(1, || 10);
        let before = cache.stats();
        cache.get_or_insert_with(2, || 20);
        cache.get_or_insert_with(1, || 10);
        cache.record_canonical_hit();
        let delta = cache.stats().since(&before);
        assert_eq!(delta.hits, 1);
        assert_eq!(delta.misses, 1);
        assert_eq!(delta.canonical_hits, 1);
        // Entries stay absolute: they describe the cache, not the run.
        assert_eq!(delta.entries, 2);
    }

    #[test]
    fn since_survives_a_clear_between_snapshots() {
        let cache: MemoCache<u64, u64> = MemoCache::new();
        cache.get_or_insert_with(1, || 10);
        cache.get_or_insert_with(1, || 10);
        cache.get_or_insert_with(1, || 10);
        cache.record_canonical_hit();
        let before = cache.stats();
        cache.clear();
        cache.get_or_insert_with(2, || 20);
        let delta = cache.stats().since(&before);
        assert_eq!((delta.hits, delta.misses, delta.canonical_hits), (0, 0, 0));
        assert_eq!(delta.entries, 1);
    }

    #[test]
    fn clear_resets_everything() {
        let cache: MemoCache<u64, u64> = MemoCache::new();
        cache.get_or_insert_with(1, || 2);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn poisoned_shard_recovers_with_identical_results() {
        use std::sync::atomic::AtomicBool;
        static PANIC_ON_CLONE: AtomicBool = AtomicBool::new(false);
        #[derive(Debug, PartialEq)]
        struct Explosive(u64);
        impl Clone for Explosive {
            fn clone(&self) -> Self {
                if PANIC_ON_CLONE.load(Ordering::Relaxed) {
                    panic!("injected clone panic");
                }
                Explosive(self.0)
            }
        }
        let cache: MemoCache<u64, Explosive> = MemoCache::new();
        cache.get_or_insert_with(7, || Explosive(70));
        // Genuinely poison the shard: the hit path clones the value while the
        // shard guard is held, so a panicking clone unwinds through the lock.
        PANIC_ON_CLONE.store(true, Ordering::Relaxed);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cache.get(&7)));
        assert!(result.is_err(), "clone under the shard lock must panic");
        PANIC_ON_CLONE.store(false, Ordering::Relaxed);
        // The shard recovers with its pre-panic contents intact.
        assert_eq!(cache.get_or_insert_with(7, || Explosive(0)).0, 70);
        assert_eq!(cache.len(), 1);
        for k in 0..32u64 {
            // Touch every shard to prove none propagates PoisonError.
            assert_eq!(cache.get_or_insert_with(k + 100, || Explosive(k)).0, k);
        }
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let cache: MemoCache<u64, u64> = MemoCache::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for k in 0..64u64 {
                        assert_eq!(cache.get_or_insert_with(k, || k + 1), k + 1);
                    }
                });
            }
        });
        assert_eq!(cache.len(), 64);
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 4 * 64);
    }
}

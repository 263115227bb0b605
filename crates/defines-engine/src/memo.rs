//! A sharded, thread-safe memoization cache.
//!
//! The cache counts nothing and keeps no state beside its entries: the
//! caller decides what a lookup counts ([`MemoCache::get_or_insert_with_meta`]
//! says whether it found the key) and reports its counts as [`CacheStats`].
//!
//! # Hashing
//!
//! Keys are hashed with FxHash, the multiplicative word-at-a-time hash rustc
//! uses for its own tables: once to pick the shard and once inside the
//! shard's map. (Storing the hash beside each key to skip the second pass
//! was measured on the mapping cache: no faster, and 8 bytes more per entry.)
//! The hash is in-memory only: it is never written to disk, so keys that
//! outlive the process (the mapping-cache store, matrix checkpoints) stay on
//! the release-stable [`Fnv`](defines_workload::Fnv). Nothing observes the
//! iteration order it induces either: [`MemoCache::retain`] documents its
//! order as unspecified, and the callers that collect entries sort.

use serde::{Serialize, Writer};
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Number of independent shards; keys are distributed by hash so concurrent
/// workers rarely contend on the same lock.
const SHARDS: usize = 16;

/// FxHash: per machine word, rotate the state, xor the word in and multiply.
/// Weak against adversarial keys and unstable across releases of this
/// crate, which is fine for an in-memory table of the program's own keys.
/// It is the workspace's one in-memory hasher: every `HashMap` / `HashSet`
/// of the model's crates names [`FxBuildHasher`] (`tests/workspace_policy.rs`
/// checks it), so no hot path hashes with SipHash.
#[derive(Debug, Default)]
pub struct FxHasher(u64);

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(n.into());
    }

    fn write_u16(&mut self, n: u16) {
        self.add(n.into());
    }

    fn write_u32(&mut self, n: u32) {
        self.add(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Builds [`FxHasher`]s: the hasher of the shards, of the shard choice and of
/// every other in-memory hash table of the program.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// One shard's map.
type Shard<K, V> = HashMap<K, V, FxBuildHasher>;

/// Hit/miss statistics of a cache built on a [`MemoCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute the value.
    pub misses: u64,
    /// The subset of `hits` that were only found because the caller
    /// *canonicalized* its key first — the raw problem differed from the
    /// cached one but provably maps to the same value. Without
    /// canonicalization these lookups would have been misses, so tracking
    /// them separately keeps the plain hit/miss ratio comparable across
    /// cache-key schemes.
    pub canonical_hits: u64,
    /// Distinct entries currently stored.
    pub entries: usize,
}

impl CacheStats {
    /// The counter delta since an earlier snapshot of the same cache:
    /// hits / misses / canonical hits are differenced (so the result
    /// describes one run, not the cache's lifetime), while `entries` stays
    /// the current absolute count. The differences saturate at zero, so a
    /// `before` taken later, or from another cache, cannot underflow.
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

/// The `cache` block of the sweep reports: the counters, then the hit rate.
impl Serialize for CacheStats {
    fn serialize(&self, w: &mut Writer<'_>) {
        w.begin_object();
        w.field("entries", &self.entries);
        w.field("hits", &self.hits);
        w.field("misses", &self.misses);
        w.field("canonical_hits", &self.canonical_hits);
        w.field("hit_rate", &self.hit_rate());
        w.end_object();
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
    shards: Vec<Mutex<Shard<K, V>>>,
}

impl<K, V> std::fmt::Debug for MemoCache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoCache").finish_non_exhaustive()
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
            shards: (0..SHARDS).map(|_| Mutex::default()).collect(),
        }
    }

    /// The shard holding `key`. The shard's map indexes buckets by the low
    /// bits of the same hash and tags them with its top seven, so bits 48–51
    /// are free of both and spread keys over the shards independently.
    fn shard(&self, key: &K) -> &Mutex<Shard<K, V>> {
        let hash = FxBuildHasher::default().hash_one(key);
        &self.shards[(hash >> 48) as usize % SHARDS]
    }

    /// Locks a shard, recovering from poisoning. Sound because no code path
    /// mutates a shard in a way that can be observed half-done: values are
    /// computed *outside* the lock and inserted with a single `entry()` call,
    /// so a panicking thread can at worst leave the map exactly as it found
    /// it — the poison flag carries no information here. Recovery keeps a
    /// sweep alive after a worker panic (which the engine now catches and
    /// reports as a failed point) instead of cascading `PoisonError` panics
    /// through every other worker sharing the cache.
    fn lock_shard(shard: &Mutex<Shard<K, V>>) -> MutexGuard<'_, Shard<K, V>> {
        shard.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns the cached value for `key`, computing and inserting it on a
    /// miss.
    pub fn get_or_insert_with(&self, key: K, compute: impl FnOnce() -> V) -> V {
        self.get_or_insert_with_meta(key, compute, |_, v| v.clone())
            .0
    }

    /// Like [`MemoCache::get_or_insert_with`], but returns what `visit`
    /// makes of the stored value, and whether the lookup was a hit. `visit`
    /// runs once under the shard lock and may update the value in place; on
    /// a miss that lost a race it sees the winner's value.
    pub fn get_or_insert_with_meta<R>(
        &self,
        key: K,
        compute: impl FnOnce() -> V,
        visit: impl FnOnce(&K, &mut V) -> R,
    ) -> (R, bool) {
        let shard = self.shard(&key);
        if let Some(hit) = Self::lock_shard(shard).get_mut(&key) {
            return (visit(&key, hit), true);
        }
        let mut value = compute();
        let mut guard = Self::lock_shard(shard);
        if let Some(raced) = guard.get_mut(&key) {
            return (visit(&key, raced), false);
        }
        let seen = visit(&key, &mut value);
        guard.insert(key, value);
        (seen, false)
    }

    /// The cached value for `key`, if present.
    pub fn get(&self, key: &K) -> Option<V> {
        Self::lock_shard(self.shard(key)).get(key).cloned()
    }

    /// Inserts `value` for `key`, returning `true` if the key was absent:
    /// a value already present (computed since a persisted store was read,
    /// say) wins over the inserted one.
    pub fn insert(&self, key: K, value: V) -> bool {
        match Self::lock_shard(self.shard(&key)).entry(key) {
            std::collections::hash_map::Entry::Occupied(_) => false,
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(value);
                true
            }
        }
    }

    /// Applies `f` to the value of `key`, if present, under the shard lock.
    pub fn update<R>(&self, key: &K, f: impl FnOnce(&mut V) -> R) -> Option<R> {
        Self::lock_shard(self.shard(key)).get_mut(key).map(f)
    }

    /// Visits every entry, shard by shard under its lock, and drops those
    /// for which `keep` returns `false`. The visiting order is unspecified:
    /// callers that collect entries sort them.
    #[expect(
        clippy::disallowed_methods,
        reason = "the order is documented as unspecified; callers that collect sort"
    )]
    pub fn retain(&self, mut keep: impl FnMut(&K, &mut V) -> bool) {
        for shard in &self.shards {
            Self::lock_shard(shard).retain(|k, v| keep(k, v));
        }
    }

    /// Number of distinct entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| Self::lock_shard(s).len()).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn caches_and_counts() {
        let cache: MemoCache<u64, u64> = MemoCache::new();
        assert!(cache.is_empty());
        let computed = AtomicUsize::new(0);
        let mut hits = 0;
        for _ in 0..3 {
            for k in 0..4u64 {
                let (v, hit) = cache.get_or_insert_with_meta(
                    k,
                    || {
                        computed.fetch_add(1, Ordering::Relaxed);
                        k * 10
                    },
                    |_, v| *v,
                );
                assert_eq!(v, k * 10);
                hits += usize::from(hit);
            }
        }
        assert_eq!(computed.load(Ordering::Relaxed), 4);
        assert_eq!(hits, 8);
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn since_reports_per_run_deltas() {
        let before = CacheStats {
            hits: 1,
            misses: 1,
            canonical_hits: 0,
            entries: 1,
        };
        let after = CacheStats {
            hits: 2,
            misses: 2,
            canonical_hits: 1,
            entries: 2,
        };
        let delta = after.since(&before);
        assert_eq!((delta.hits, delta.misses, delta.canonical_hits), (1, 1, 1));
        // Entries stay absolute: they describe the cache, not the run.
        assert_eq!(delta.entries, 2);
        assert!((delta.hit_rate() - 0.5).abs() < 1e-12);
        // Saturating difference, never a panic, when `before` is ahead.
        let back = before.since(&after);
        assert_eq!((back.hits, back.misses, back.canonical_hits), (0, 0, 0));
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

    /// Structured keys — small integers in several fields, like the
    /// mapping cache's layer dimensions — still spread over every shard.
    #[test]
    fn structured_keys_spread_over_every_shard() {
        let cache: MemoCache<(u64, u32, usize), ()> = MemoCache::new();
        for k in 0..16u64 {
            for c in 0..16u32 {
                for level in 0..16usize {
                    cache.insert((k, c, level), ());
                }
            }
        }
        let per_shard: Vec<usize> = cache
            .shards
            .iter()
            .map(|s| MemoCache::<(u64, u32, usize), ()>::lock_shard(s).len())
            .collect();
        let fair = cache.len() / SHARDS;
        assert!(
            per_shard.iter().all(|&n| n > fair / 2 && n < fair * 2),
            "{per_shard:?}"
        );
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
    }
}

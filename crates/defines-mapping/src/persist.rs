//! Persistent, size-bounded disk store for the [`MappingCache`].
//!
//! The store turns the in-memory mapping cache into a service asset that
//! survives restarts: every distinct `(accelerator, problem, mapper)`
//! sub-problem is searched once *per deployment*, not once per process.
//!
//! The file is a [`defines_engine::journal`] — header line, flushed appends,
//! torn-tail tolerance, atomic-rename rewrite; that module states the crash
//! contract. This module owns what the lines *mean*: the header key and
//! version, entry lines (`fp`, `epoch`, `key`, `cost`) and compact `touch`
//! lines, the LRU epochs, and when to sync and compact. Every entry line
//! carries an FNV-1a [`Fnv`] fingerprint of its key, recomputed and verified
//! on load, because the file outlives the process and `DefaultHasher` is not
//! stable across Rust releases.
//!
//! # Eviction determinism
//!
//! The store is LRU-bounded ([`CacheStore::open`]'s `max_entries`), and the
//! eviction order must be a pure function of the *logical* request history —
//! never of thread interleaving or of when the store happened to be synced.
//! Two mechanisms deliver that:
//!
//! 1. usage epochs advance only at batch boundaries
//!    ([`MappingCache::advance_epoch`], called by [`CacheStore::sync`]), so
//!    every lookup within one batch records the same epoch no matter which
//!    worker thread performed it, and
//! 2. ties are broken by the total order on [`ProblemKey`]: eviction removes
//!    the entries with the smallest `(epoch, key)` first.
//!
//! A compacted file lists entries sorted by `(epoch, key)`, so re-compacting
//! a reloaded store byte-reproduces the file regardless of how many
//! append/load cycles happened in between — the property the persistence
//! round-trip tests pin down.

use crate::cache::{MappingCache, ProblemKey};
use crate::cost::{Access, AccessBreakdown, LayerCost};
use crate::problem::OperandTopLevels;
use crate::temporal::{TemporalLoop, TemporalMapping};
use defines_arch::{MemoryLevelId, Operand};
use defines_engine::journal::{f64_field, field, str_field, u64_field};
use defines_engine::{Fnv, Journal, JournalError};
use defines_telemetry::Counter;
use defines_workload::{Dim, LayerDims, OpType};
use serde::{Serialize, Value};
use std::collections::HashMap;
use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// Entries preloaded into the cache from disk at open.
static STORE_LOADED: Counter = Counter::new("mapping.store.loaded");
/// Newly computed entries appended to the file.
static STORE_STORED: Counter = Counter::new("mapping.store.stored");
/// Entries evicted by the size bound.
static STORE_EVICTED: Counter = Counter::new("mapping.store.evicted");
/// Full rewrites of the file (compactions).
static STORE_COMPACTIONS: Counter = Counter::new("mapping.store.compactions");

/// On-disk format version, bound into the header line.
const VERSION: u64 = 1;

/// Header key naming the file format (and guarding against feeding some
/// other JSONL artifact to the store).
const HEADER_KEY: &str = "defines_mapping_cache";

/// An error talking to or parsing the store file.
#[derive(Debug)]
pub struct StoreError(String);

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for StoreError {}

impl From<JournalError> for StoreError {
    fn from(e: JournalError) -> Self {
        StoreError(e.to_string())
    }
}

/// Lifetime statistics of a [`CacheStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Entries preloaded from disk when the store was opened.
    pub loaded: u64,
    /// Newly computed entries appended since open.
    pub stored: u64,
    /// Entries evicted by the size bound since open.
    pub evicted: u64,
    /// File compactions since open.
    pub compactions: u64,
    /// Entries currently tracked (persisted or pending persistence).
    pub entries: usize,
}

/// A disk-backed view of a [`MappingCache`]: load on open, append on sync,
/// LRU-evict at a size bound, compact by atomic rename.
///
/// The store owns the *file*; the cache stays the owner of the entries and
/// remains fully usable (and shareable) on its own. [`CacheStore::sync`] is
/// the only write path and is meant to be called at batch boundaries —
/// between engine runs, not inside them.
#[derive(Debug)]
pub struct CacheStore {
    cache: MappingCache,
    /// Maximum entries kept (0 = unbounded).
    max_entries: usize,
    /// Last-used epoch per tracked key — the store's logical state. The
    /// compacted file is a pure function of this map plus the cache costs.
    epochs: HashMap<ProblemKey, u64>,
    /// The file (always positioned at its end).
    journal: Journal,
    /// Lines appended since the last compaction; when this exceeds the
    /// entry count the log has roughly doubled and gets compacted.
    appended_since_compact: usize,
    stats: StoreStats,
}

/// The serialized name of an operator class (stable file vocabulary —
/// matches the derive encoding of [`OpType`]).
fn op_name(op: OpType) -> &'static str {
    match op {
        OpType::Conv => "Conv",
        OpType::DepthwiseConv => "DepthwiseConv",
        OpType::Pooling => "Pooling",
        OpType::Add => "Add",
    }
}

fn op_from_name(name: &str) -> Result<OpType, String> {
    match name {
        "Conv" => Ok(OpType::Conv),
        "DepthwiseConv" => Ok(OpType::DepthwiseConv),
        "Pooling" => Ok(OpType::Pooling),
        "Add" => Ok(OpType::Add),
        other => Err(format!("unknown operator class '{other}'")),
    }
}

fn dim_from_name(name: &str) -> Result<Dim, String> {
    match name {
        "B" => Ok(Dim::B),
        "K" => Ok(Dim::K),
        "C" => Ok(Dim::C),
        "OX" => Ok(Dim::OX),
        "OY" => Ok(Dim::OY),
        "FX" => Ok(Dim::FX),
        "FY" => Ok(Dim::FY),
        other => Err(format!("unknown dimension '{other}'")),
    }
}

fn operand_from_name(name: &str) -> Result<Operand, String> {
    match name {
        "Weight" => Ok(Operand::Weight),
        "Input" => Ok(Operand::Input),
        "Output" => Ok(Operand::Output),
        other => Err(format!("unknown operand '{other}'")),
    }
}

/// Stable FNV-1a fingerprint of a cache key, written on every entry line
/// and re-verified on load.
pub fn key_fingerprint(key: &ProblemKey) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(key.accelerator);
    h.write(op_name(key.op).as_bytes());
    let d = &key.dims;
    for n in [
        d.b, d.k, d.c, d.ox, d.oy, d.fx, d.fy, d.stride_x, d.stride_y, d.pad_x, d.pad_y,
    ] {
        h.write_u64(n);
    }
    h.write_u64(u64::from(key.act_bits));
    h.write_u64(u64::from(key.weight_bits));
    h.write_u64(key.top_levels.weight.0 as u64);
    h.write_u64(key.top_levels.input.0 as u64);
    h.write_u64(key.top_levels.output.0 as u64);
    h.write_u64(key.mapper);
    h.finish()
}

fn key_to_value(key: &ProblemKey) -> Value {
    Value::Object(vec![
        ("accelerator".into(), Value::U64(key.accelerator)),
        ("op".into(), Value::Str(op_name(key.op).into())),
        ("dims".into(), key.dims.to_value()),
        ("act_bits".into(), Value::U64(u64::from(key.act_bits))),
        ("weight_bits".into(), Value::U64(u64::from(key.weight_bits))),
        ("top_levels".into(), key.top_levels.to_value()),
        ("mapper".into(), Value::U64(key.mapper)),
    ])
}

fn level_field(v: &Value, key: &str) -> Result<MemoryLevelId, String> {
    Ok(MemoryLevelId(u64_field(v, key)? as usize))
}

fn key_from_value(v: &Value) -> Result<ProblemKey, String> {
    let dims = field(v, "dims")?;
    let top = field(v, "top_levels")?;
    Ok(ProblemKey {
        accelerator: u64_field(v, "accelerator")?,
        op: op_from_name(str_field(v, "op")?)?,
        dims: LayerDims {
            b: u64_field(dims, "b")?,
            k: u64_field(dims, "k")?,
            c: u64_field(dims, "c")?,
            ox: u64_field(dims, "ox")?,
            oy: u64_field(dims, "oy")?,
            fx: u64_field(dims, "fx")?,
            fy: u64_field(dims, "fy")?,
            stride_x: u64_field(dims, "stride_x")?,
            stride_y: u64_field(dims, "stride_y")?,
            pad_x: u64_field(dims, "pad_x")?,
            pad_y: u64_field(dims, "pad_y")?,
        },
        act_bits: u64_field(v, "act_bits")? as u32,
        weight_bits: u64_field(v, "weight_bits")? as u32,
        top_levels: OperandTopLevels {
            weight: level_field(top, "weight")?,
            input: level_field(top, "input")?,
            output: level_field(top, "output")?,
        },
        mapper: u64_field(v, "mapper")?,
    })
}

fn cost_from_value(v: &Value) -> Result<LayerCost, String> {
    let accesses = field(v, "accesses").and_then(|a| field(a, "map"))?;
    let entries = accesses
        .as_array()
        .ok_or("'accesses.map' is not an array")?
        .iter()
        .map(|pair| {
            let items = pair.as_array().filter(|p| p.len() == 2);
            let [k, a] = items.ok_or("access entry is not a [key, access] pair")? else {
                return Err("access entry is not a [key, access] pair".to_string());
            };
            let k = k.as_array().filter(|p| p.len() == 2);
            let [level, operand] = k.ok_or("access key is not [level, operand]")? else {
                return Err("access key is not [level, operand]".to_string());
            };
            let level = MemoryLevelId(
                level
                    .as_u64()
                    .ok_or("access key level is not an unsigned integer")? as usize,
            );
            let operand = operand_from_name(
                operand
                    .as_str()
                    .ok_or("access key operand is not a string")?,
            )?;
            Ok((
                (level, operand),
                Access {
                    reads_bytes: f64_field(a, "reads_bytes")?,
                    writes_bytes: f64_field(a, "writes_bytes")?,
                },
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let loops = field(v, "mapping")
        .and_then(|m| field(m, "loops"))?
        .as_array()
        .ok_or("'mapping.loops' is not an array")?
        .iter()
        .map(|l| {
            Ok(TemporalLoop {
                dim: dim_from_name(str_field(l, "dim")?)?,
                size: u64_field(l, "size")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(LayerCost {
        energy_pj: f64_field(v, "energy_pj")?,
        mac_energy_pj: f64_field(v, "mac_energy_pj")?,
        memory_energy_pj: f64_field(v, "memory_energy_pj")?,
        latency_cycles: f64_field(v, "latency_cycles")?,
        compute_cycles: f64_field(v, "compute_cycles")?,
        macs: u64_field(v, "macs")?,
        accesses: AccessBreakdown::from_entries(entries),
        mapping: TemporalMapping::from_loops(loops),
        degraded: field(v, "degraded")?
            .as_bool()
            .ok_or("'degraded' is not a boolean")?,
    })
}

fn header_value() -> Value {
    Value::Object(vec![(HEADER_KEY.into(), Value::U64(VERSION))])
}

fn entry_value(fp: u64, epoch: u64, key: &ProblemKey, cost: &LayerCost) -> Value {
    Value::Object(vec![
        ("fp".into(), Value::U64(fp)),
        ("epoch".into(), Value::U64(epoch)),
        ("key".into(), key_to_value(key)),
        ("cost".into(), cost.to_value()),
    ])
}

impl CacheStore {
    /// Opens (or creates) the store at `path`, preloading every persisted
    /// entry into `cache` and enabling the cache's usage tracking.
    ///
    /// `max_entries` bounds the store (and the cache entries it manages);
    /// `0` means unbounded. A torn final line — the recording process died
    /// mid-append — is dropped and healed by an immediate compaction.
    pub fn open(path: &Path, cache: MappingCache, max_entries: usize) -> Result<Self, StoreError> {
        cache.track_usage();
        let mut store = CacheStore {
            cache,
            max_entries,
            epochs: HashMap::new(),
            journal: Journal::open("store", path)?,
            appended_since_compact: 0,
            stats: StoreStats::default(),
        };
        let Some(torn) = store.load()? else {
            store.journal.append(&header_value())?;
            return Ok(store);
        };
        store.stats.entries = store.epochs.len();
        // lint:allow(unordered-iter, max over values is order-independent)
        let max_epoch = store.epochs.values().copied().max().unwrap_or(0);
        store.cache.set_epoch(max_epoch + 1);
        if torn {
            // Appending after a partial line would corrupt the next record;
            // rewrite the file from the loaded (valid) state instead.
            store.compact()?;
        }
        store.evict_over_bound()?;
        Ok(store)
    }

    /// Streams the file into the cache. Returns `None` for a file without a
    /// header (fresh store), else whether the final line was torn.
    fn load(&mut self) -> Result<Option<bool>, StoreError> {
        // Transient fingerprint index so touch lines can name entries
        // compactly.
        let mut by_fp: HashMap<u64, ProblemKey> = HashMap::new();
        let mut header_seen = false;
        let mut broken_tail = false;
        let path = self.journal.path().to_path_buf();
        let torn = Journal::read("store", &path, |_, v, last| {
            if !header_seen {
                header_seen = true;
                let version = v
                    .get(HEADER_KEY)
                    .and_then(Value::as_u64)
                    .ok_or("not a mapping-cache store header")?;
                if version != VERSION {
                    return Err(format!(
                        "unsupported store version {version} (this build writes {VERSION})"
                    ));
                }
                return Ok(());
            }
            match self.apply_line(&v, &mut by_fp) {
                // A structurally valid JSON line with broken content can
                // also be the torn tail of a larger record that happened to
                // parse (rare but possible when the cut lands inside a
                // string); tolerate it in final position only.
                Err(_) if last => {
                    broken_tail = true;
                    Ok(())
                }
                applied => applied,
            }
        })?;
        Ok(header_seen.then_some(torn || broken_tail))
    }

    fn apply_line(
        &mut self,
        v: &Value,
        by_fp: &mut HashMap<u64, ProblemKey>,
    ) -> Result<(), String> {
        if let Some(touched) = v.get("touch") {
            let epoch = u64_field(v, "epoch")?;
            let fps = touched.as_array().ok_or("'touch' is not an array")?;
            for fp in fps {
                let fp = fp.as_u64().ok_or("touch entry is not a fingerprint")?;
                // Touches of entries this file no longer lists (evicted by a
                // later compaction) are inert, not an error.
                if let Some(key) = by_fp.get(&fp) {
                    self.epochs.insert(key.clone(), epoch);
                }
            }
            return Ok(());
        }
        let fp = u64_field(v, "fp")?;
        let epoch = u64_field(v, "epoch")?;
        let key = key_from_value(field(v, "key")?)?;
        if key_fingerprint(&key) != fp {
            return Err(format!("entry fingerprint {fp:#x} does not match its key"));
        }
        let cost = cost_from_value(field(v, "cost")?)?;
        self.cache.preload(key.clone(), Arc::new(cost));
        self.epochs.insert(key.clone(), epoch);
        by_fp.insert(fp, key);
        self.stats.loaded += 1;
        STORE_LOADED.incr();
        Ok(())
    }

    fn append(&mut self, value: &Value) -> Result<(), StoreError> {
        self.journal.append(value)?;
        self.appended_since_compact += 1;
        Ok(())
    }

    /// Harvests everything the cache touched since the last sync, persists
    /// it, advances the usage epoch, and enforces the size bound.
    ///
    /// Call at batch boundaries only: the epoch advance here is what makes
    /// all lookups *within* a batch indistinguishable to the LRU policy (see
    /// the module docs). New entries are appended in key order; re-touched
    /// entries become one compact `touch` line per epoch.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        let touched = self.cache.drain_usage();
        self.cache.advance_epoch();
        let mut new_entries: Vec<(ProblemKey, u64)> = Vec::new();
        // epoch -> fingerprints re-touched at that epoch. Epochs are few
        // (usually one per sync), so a sorted Vec keyed by epoch keeps the
        // output order deterministic without a tree map.
        let mut retouched: Vec<(u64, Vec<u64>)> = Vec::new();
        for (key, epoch) in touched {
            match self.epochs.get(&key) {
                None => new_entries.push((key, epoch)),
                Some(&known) if known != epoch => {
                    let fp = key_fingerprint(&key);
                    match retouched.binary_search_by_key(&epoch, |&(e, _)| e) {
                        Ok(i) => retouched[i].1.push(fp),
                        Err(i) => retouched.insert(i, (epoch, vec![fp])),
                    }
                    self.epochs.insert(key, epoch);
                }
                Some(_) => {}
            }
        }
        for (key, epoch) in new_entries {
            // A touched key can be absent from the cache only if someone
            // cleared it mid-flight; skipping is the honest response.
            let Some(cost) = self.cache.peek(&key) else {
                continue;
            };
            let fp = key_fingerprint(&key);
            self.append(&entry_value(fp, epoch, &key, &cost))?;
            self.epochs.insert(key, epoch);
            self.stats.stored += 1;
            STORE_STORED.incr();
        }
        for (epoch, mut fps) in retouched {
            fps.sort_unstable();
            fps.dedup();
            self.append(&Value::Object(vec![
                (
                    "touch".into(),
                    Value::Array(fps.into_iter().map(Value::U64).collect()),
                ),
                ("epoch".into(), Value::U64(epoch)),
            ]))?;
        }
        self.stats.entries = self.epochs.len();
        self.evict_over_bound()?;
        // Compact when the log has roughly doubled past the live entry
        // count — amortized O(1) lines per entry.
        if self.appended_since_compact > self.epochs.len().max(16) {
            self.compact()?;
        }
        Ok(())
    }

    /// Evicts least-recently-used entries (smallest `(epoch, key)` first)
    /// until the bound holds, then compacts so the file stops listing them.
    fn evict_over_bound(&mut self) -> Result<(), StoreError> {
        if self.max_entries == 0 || self.epochs.len() <= self.max_entries {
            return Ok(());
        }
        let mut order: Vec<(u64, ProblemKey)> =
            self.epochs.iter().map(|(k, &e)| (e, k.clone())).collect();
        order.sort_unstable();
        let excess = order.len() - self.max_entries;
        for (_, key) in order.into_iter().take(excess) {
            self.cache.remove(&key);
            self.epochs.remove(&key);
            self.stats.evicted += 1;
            STORE_EVICTED.incr();
        }
        self.stats.entries = self.epochs.len();
        self.compact()
    }

    /// Rewrites the file to exactly the live state — header plus one entry
    /// line per key, sorted by `(epoch, key)`.
    fn compact(&mut self) -> Result<(), StoreError> {
        let mut entries: Vec<(u64, ProblemKey)> =
            self.epochs.iter().map(|(k, &e)| (e, k.clone())).collect();
        entries.sort_unstable();
        let cache = &self.cache;
        let lines = entries.iter().filter_map(|(epoch, key)| {
            let cost = cache.peek(key)?;
            Some(entry_value(key_fingerprint(key), *epoch, key, &cost))
        });
        self.journal
            .rewrite(std::iter::once(header_value()).chain(lines))?;
        self.appended_since_compact = 0;
        self.stats.compactions += 1;
        STORE_COMPACTIONS.incr();
        Ok(())
    }

    /// Forces a compaction now (tests and orderly shutdown).
    pub fn compact_now(&mut self) -> Result<(), StoreError> {
        self.compact()
    }

    /// The store's lifetime statistics.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// The cache this store persists (cheap clone of the shared handle).
    pub fn cache(&self) -> MappingCache {
        self.cache.clone()
    }

    /// The file the store persists to.
    pub fn path(&self) -> &Path {
        self.journal.path()
    }
}

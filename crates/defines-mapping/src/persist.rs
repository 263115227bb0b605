//! Persistent, size-bounded disk store for the [`MappingCache`].
//!
//! The store turns the in-memory mapping cache into a service asset that
//! survives restarts: every distinct `(accelerator, problem, mapper)`
//! sub-problem is searched once *per deployment*, not once per process.
//!
//! The file is a [`defines_engine::Journal`] — header line, flushed appends,
//! torn-tail tolerance, atomic-rename rewrite; that module states the crash
//! contract. This module owns what the lines *mean*: the header key and
//! version, entry lines and compact `touch` lines, the LRU epochs, and when
//! to sync and compact. Every entry line carries an [`Fnv`] fingerprint of
//! its key, recomputed and verified on load; the key's accelerator and
//! mapper fingerprints are [`Fnv`] hashes too, so a line means the same to
//! every build. Lines written while those two were `DefaultHasher` hashes
//! still load but never hit (they are recomputed on demand): a line holds
//! the old hash, not the accelerator, so it cannot be re-keyed.
//!
//! # Format versions
//!
//! A version 2 entry line stores the answer, not its cost, and holds no
//! float:
//!
//! ```text
//! {"fp":…,"epoch":3,"key":[accelerator,op,b,k,c,ox,oy,fx,fy,stride_x,stride_y,pad_x,pad_y,act_bits,weight_bits,weight_top,input_top,output_top,mapper],"loops":[["OX",4],["K",2]]}
//! ```
//!
//! `op` numbers the operator class (`Conv`, `DepthwiseConv`, `Pooling`,
//! `Add` from 0), the loops run innermost first, and `"degraded":true` is
//! added when the search exhausted its budget. Such an entry loads
//! *stored*, and the first lookup that hits it prices its loops
//! ([`MappingCache::optimize_shared_keyed`]). A version 1 entry line holds
//! the whole cost (`"key"` as an object, `"cost"`) and loads priced. Every
//! line this build writes is version 2: a version 1 file is read as it is,
//! and the first sync with anything to write rewrites it whole.
//!
//! # Eviction determinism
//!
//! The store is LRU-bounded ([`CacheStore::open`]'s `max_entries`), and the
//! eviction order must be a pure function of the *logical* request history —
//! never of thread interleaving or of when the store happened to be synced.
//! The LRU state lives in the cache entries themselves: each carries the
//! epoch of its last use and the epoch its line last carried in the file,
//! and nothing else records what changed. [`CacheStore::sync`] walks the
//! table once and writes each entry whose last use is not the epoch its
//! line carries: an entry line if the file does not list it yet, else its
//! fingerprint in that epoch's `touch` line. Two rules make the order
//! deterministic:
//!
//! 1. the usage epoch advances only at batch boundaries (once per
//!    [`CacheStore::sync`]), so every lookup within one batch records the
//!    same epoch no matter which worker thread performed it, and
//! 2. ties are broken by the total order on [`ProblemKey`]: eviction removes
//!    the entries with the smallest `(epoch, key)` first.
//!
//! A compacted file lists entries sorted by `(epoch, key)`, so re-compacting
//! a reloaded store byte-reproduces the file regardless of how many
//! append/load cycles happened in between — the property the persistence
//! round-trip tests pin down.

use crate::cache::{Answer, Entry, MappingCache, ProblemKey, NEVER};
use crate::cost::{Access, AccessBreakdown, LayerCost};
use crate::problem::OperandTopLevels;
use crate::temporal::{Loops, TemporalLoop, TemporalMapping};
use defines_arch::{parse_dim, parse_operand};
use defines_arch::{MemoryLevelId, Operand};
use defines_engine::{FxBuildHasher, Journal, JournalError};
use defines_telemetry::Counter;
use defines_workload::{op_name, parse_op, Fnv};
use defines_workload::{Dim, LayerDims, OpType};
use serde::{Fields, FromField, Items, Serialize, ValueRef, Writer};
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

/// On-disk format version, bound into the header line: the one this build
/// writes.
const VERSION: u64 = 2;

/// The version whose entry lines carry the whole cost; still read.
const V1: u64 = 1;

/// The operator classes, numbered in a version 2 key by their index here.
const OPS: [OpType; 4] = [
    OpType::Conv,
    OpType::DepthwiseConv,
    OpType::Pooling,
    OpType::Add,
];

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
    /// Entries the file currently lists.
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
    /// The file (always positioned at its end).
    journal: Journal,
    /// Lines appended since the last compaction, starting at open from the
    /// loaded file's lines beyond its live entries; when this exceeds the
    /// entry count the log has roughly doubled and gets compacted.
    appended_since_compact: usize,
    /// Whether the file is still version 1: it takes no line of this
    /// build's, so the next sync that has one rewrites the file instead.
    v1: bool,
    stats: StoreStats,
}

/// Reads a name through one of the loaders' vocabularies (operator,
/// dimension, operand), naming what it expected when the name is unknown.
fn parse_name<T>(what: &str, name: &str, parse: fn(&str) -> Option<T>) -> Result<T, String> {
    parse(name).ok_or_else(|| format!("unknown {what} '{name}'"))
}

/// Stable FNV-1a fingerprint of a cache key, written on every entry line
/// and re-verified on load.
pub(crate) fn key_fingerprint(key: &ProblemKey) -> u64 {
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

/// One line of the store file, written straight into the journal's line
/// buffer.
enum Line<'a> {
    /// `{"defines_mapping_cache": VERSION}`.
    Header,
    /// One cache entry with its last-used epoch (the line also carries the
    /// key's fingerprint).
    Entry(u64, &'a ProblemKey, &'a Answer),
    /// The entries (by fingerprint) re-used at `epoch`.
    Touch { fps: &'a [u64], epoch: u64 },
}

impl Serialize for Line<'_> {
    fn serialize(&self, w: &mut Writer<'_>) {
        w.begin_object();
        match *self {
            Line::Header => w.field(HEADER_KEY, &VERSION),
            Line::Entry(epoch, key, answer) => {
                w.field("fp", &key_fingerprint(key));
                w.field("epoch", &epoch);
                w.field("key", &key_numbers(key));
                w.key("loops");
                w.begin_array();
                for l in answer.loops() {
                    w.item(&(l.dim, l.size));
                }
                w.end_array();
                if answer.degraded() {
                    w.field("degraded", &true);
                }
            }
            Line::Touch { fps, epoch } => {
                w.field("touch", fps);
                w.field("epoch", &epoch);
            }
        }
        w.end_object();
    }
}

/// The numbers of a version 2 key, in their fixed order.
fn key_numbers(key: &ProblemKey) -> [u64; KEY_NUMBERS] {
    let d = &key.dims;
    let top = &key.top_levels;
    [
        key.accelerator,
        OPS.iter()
            .position(|&op| op == key.op)
            .expect("OPS lists every operator class") as u64,
        d.b,
        d.k,
        d.c,
        d.ox,
        d.oy,
        d.fx,
        d.fy,
        d.stride_x,
        d.stride_y,
        d.pad_x,
        d.pad_y,
        u64::from(key.act_bits),
        u64::from(key.weight_bits),
        top.weight.0 as u64,
        top.input.0 as u64,
        top.output.0 as u64,
        key.mapper,
    ]
}

/// How many numbers a version 2 key holds.
const KEY_NUMBERS: usize = 19;

/// Reads a version 2 key: [`key_numbers`] back.
fn read_key(key: Items<'_>) -> Result<ProblemKey, String> {
    if key.len() != KEY_NUMBERS {
        return Err(format!(
            "'key' must hold {KEY_NUMBERS} numbers, found {}",
            key.len()
        ));
    }
    let mut n = [0u64; KEY_NUMBERS];
    for (slot, item) in n.iter_mut().zip(key) {
        *slot = item
            .as_u64()
            .ok_or("'key' must hold non-negative integers")?;
    }
    let bits = |n: u64| u32::try_from(n).map_err(|_| format!("element width {n} out of range"));
    let level = |n: u64| MemoryLevelId(n as usize);
    Ok(ProblemKey {
        accelerator: n[0],
        op: *usize::try_from(n[1])
            .ok()
            .and_then(|code| OPS.get(code))
            .ok_or_else(|| format!("unknown operator class code {}", n[1]))?,
        dims: LayerDims {
            b: n[2],
            k: n[3],
            c: n[4],
            ox: n[5],
            oy: n[6],
            fx: n[7],
            fy: n[8],
            stride_x: n[9],
            stride_y: n[10],
            pad_x: n[11],
            pad_y: n[12],
        },
        act_bits: bits(n[13])?,
        weight_bits: bits(n[14])?,
        top_levels: OperandTopLevels {
            weight: level(n[15]),
            input: level(n[16]),
            output: level(n[17]),
        },
        mapper: n[18],
    })
}

/// Reads a version 2 entry's answer: its `[dim, size]` loops and its
/// degraded flag. Each loop must be one a search of `key` can return: a
/// dimension other than batch, not repeated, with a trip count from 2 to
/// the dimension's size.
fn read_answer(line: &Fields<'_>, key: &ProblemKey) -> Result<Answer, String> {
    let mut loops = Loops::EMPTY;
    for item in line.req::<Items<'_>>("loops")? {
        let (dim, size) = item.as_pair().ok_or("a loop is not a [dim, size] pair")?;
        let l = TemporalLoop {
            dim: parse_name(
                "dimension",
                dim.as_str().ok_or("a loop's dimension is not a string")?,
                parse_dim,
            )?,
            size: size
                .as_u64()
                .ok_or("a loop's size is not a non-negative integer")?,
        };
        let fits = l.dim != Dim::B
            && (2..=key.dims.size(l.dim)).contains(&l.size)
            && loops.iter().all(|other| other.dim != l.dim);
        if !fits {
            return Err(format!("loop [{}, {}] does not fit its key", l.dim, l.size));
        }
        loops.push(l);
    }
    let degraded = line.opt("degraded")?.unwrap_or(false);
    Ok(Answer::Stored {
        loops: Arc::new(loops),
        degraded,
    })
}

/// Reads a version 1 key, an object.
fn read_key_v1(key: Fields<'_>) -> Result<ProblemKey, String> {
    let dims = key.req::<Fields<'_>>("dims")?;
    let top = key.req::<Fields<'_>>("top_levels")?;
    let level = |operand| top.req(operand).map(|id: u64| MemoryLevelId(id as usize));
    Ok(ProblemKey {
        accelerator: key.req("accelerator")?,
        op: parse_name("operator class", key.req("op")?, parse_op)?,
        dims: LayerDims {
            b: dims.req("b")?,
            k: dims.req("k")?,
            c: dims.req("c")?,
            ox: dims.req("ox")?,
            oy: dims.req("oy")?,
            fx: dims.req("fx")?,
            fy: dims.req("fy")?,
            stride_x: dims.req("stride_x")?,
            stride_y: dims.req("stride_y")?,
            pad_x: dims.req("pad_x")?,
            pad_y: dims.req("pad_y")?,
        },
        act_bits: key.req::<u64>("act_bits")? as u32,
        weight_bits: key.req::<u64>("weight_bits")? as u32,
        top_levels: OperandTopLevels {
            weight: level("weight")?,
            input: level("input")?,
            output: level("output")?,
        },
        mapper: key.req("mapper")?,
    })
}

fn read_access(pair: ValueRef<'_>) -> Result<((MemoryLevelId, Operand), Access), String> {
    let (k, a) = pair
        .as_pair()
        .ok_or("access entry is not a [key, access] pair")?;
    let (level, operand) = k.as_pair().ok_or("access key is not [level, operand]")?;
    let level = MemoryLevelId(
        level
            .as_u64()
            .ok_or("access key level is not an unsigned integer")? as usize,
    );
    let operand = parse_name(
        "operand",
        operand
            .as_str()
            .ok_or("access key operand is not a string")?,
        parse_operand,
    )?;
    let a = Fields::new(&a)?;
    let access = Access {
        reads_bytes: a.req("reads_bytes")?,
        writes_bytes: a.req("writes_bytes")?,
    };
    Ok(((level, operand), access))
}

fn read_loop(l: ValueRef<'_>) -> Result<TemporalLoop, String> {
    let l = Fields::new(&l)?;
    Ok(TemporalLoop {
        dim: parse_name("dimension", l.req("dim")?, parse_dim)?,
        size: l.req("size")?,
    })
}

/// Reads every item of `items`, into a `Vec` allocated once at its final
/// size.
fn read_all<T>(
    items: Items<'_>,
    read: impl Fn(ValueRef<'_>) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        out.push(read(item)?);
    }
    Ok(out)
}

fn read_cost(cost: Fields<'_>) -> Result<LayerCost, String> {
    let accesses = cost.req::<Fields<'_>>("accesses")?.req("map")?;
    let loops = cost.req::<Fields<'_>>("mapping")?.req("loops")?;
    Ok(LayerCost {
        energy_pj: cost.req("energy_pj")?,
        mac_energy_pj: cost.req("mac_energy_pj")?,
        memory_energy_pj: cost.req("memory_energy_pj")?,
        latency_cycles: cost.req("latency_cycles")?,
        compute_cycles: cost.req("compute_cycles")?,
        macs: cost.req("macs")?,
        accesses: AccessBreakdown::from_entries(read_all(accesses, read_access)?),
        mapping: TemporalMapping::from_loops(read_all(loops, read_loop)?),
        degraded: cost.req("degraded")?,
    })
}

impl CacheStore {
    /// Opens (or creates) the store at `path`, preloading every persisted
    /// entry into `cache`.
    ///
    /// `max_entries` bounds the store (and the cache entries it manages);
    /// `0` means unbounded. A torn final line — the recording process died
    /// mid-append — is dropped and healed by an immediate compaction.
    /// Entries the cache held before are not listed until a lookup touches
    /// them.
    pub fn open(path: &Path, cache: MappingCache, max_entries: usize) -> Result<Self, StoreError> {
        cache.forget_usage();
        let mut store = CacheStore {
            cache,
            max_entries,
            journal: Journal::open("store", path)?,
            appended_since_compact: 0,
            v1: false,
            stats: StoreStats::default(),
        };
        let Some((lines, torn)) = store.load()? else {
            store.journal.append(&Line::Header)?;
            return Ok(store);
        };
        // One counting pass: the listed entries and the latest epoch.
        let (mut listed, mut latest) = (0, 0);
        store.cache.table().retain(|_, entry| {
            if entry.persisted != NEVER {
                listed += 1;
                latest = latest.max(entry.persisted);
            }
            true
        });
        store.stats.entries = listed;
        // The loaded file's lines beyond its live entries count toward the
        // doubling rule, so it bounds the file across restarts too.
        store.appended_since_compact = lines.saturating_sub(listed);
        store.cache.set_epoch(latest + 1);
        if torn {
            // Appending after a partial line would corrupt the next record;
            // rewrite the file from the loaded (valid) state instead.
            store.compact()?;
        }
        store.evict_over_bound()?;
        Ok(store)
    }

    /// The entries the file lists, with their epochs, sorted by
    /// `(epoch, key)`: the order of eviction and of a compacted file.
    fn live(&self) -> Vec<(u64, ProblemKey, Answer)> {
        let mut live = Vec::with_capacity(self.stats.entries);
        self.cache.table().retain(|key, entry| {
            if entry.persisted != NEVER {
                live.push((entry.persisted, key.clone(), entry.answer.clone()));
            }
            true
        });
        live.sort_unstable_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        live
    }

    /// Streams the file into the cache. Returns `None` for a file without a
    /// header (fresh store), else the count of lines applied after the
    /// header and whether the final line was torn.
    fn load(&mut self) -> Result<Option<(usize, bool)>, StoreError> {
        // Transient fingerprint index so touch lines can name entries
        // compactly; built at the first touch line (a compacted file has
        // none).
        let mut by_fp: Option<HashMap<u64, ProblemKey, FxBuildHasher>> = None;
        let mut header_seen = false;
        let mut broken_tail = false;
        let mut lines = 0;
        let path = self.journal.path().to_path_buf();
        let torn = Journal::read("store", &path, |_, v, last| {
            if !header_seen {
                header_seen = true;
                let version = Fields::root(&v)
                    .ok()
                    .and_then(|header| header.get(HEADER_KEY))
                    .and_then(|version| version.as_u64())
                    .ok_or("not a mapping-cache store header")?;
                if version != VERSION && version != V1 {
                    return Err(format!(
                        "unsupported store version {version} (this build writes {VERSION})"
                    ));
                }
                self.v1 = version == V1;
                return Ok(());
            }
            match self.apply_line(v, &mut by_fp) {
                // A structurally valid JSON line with broken content can
                // also be the torn tail of a larger record that happened to
                // parse (rare but possible when the cut lands inside a
                // string); tolerate it in final position only.
                Err(_) if last => {
                    broken_tail = true;
                    Ok(())
                }
                applied => {
                    lines += 1;
                    applied
                }
            }
        })?;
        Ok(header_seen.then_some((lines, torn || broken_tail)))
    }

    fn apply_line(
        &mut self,
        v: ValueRef<'_>,
        by_fp: &mut Option<HashMap<u64, ProblemKey, FxBuildHasher>>,
    ) -> Result<(), String> {
        let line = Fields::root(&v)?;
        let table = self.cache.table();
        if let Some(touched) = line.get("touch") {
            let epoch = line.req("epoch")?;
            let fps = Items::read("touch", touched)?;
            let by_fp = by_fp.get_or_insert_with(|| {
                let live = self.live().into_iter();
                live.map(|(_, key, _)| (key_fingerprint(&key), key))
                    .collect()
            });
            for fp in fps {
                let fp = fp.as_u64().ok_or("touch entry is not a fingerprint")?;
                // Touches of entries this file no longer lists (evicted by a
                // later compaction) are inert, not an error.
                if let Some(key) = by_fp.get(&fp) {
                    table.update(key, |entry| entry.persisted = epoch);
                }
            }
            return Ok(());
        }
        let fp = line.req("fp")?;
        let epoch = line.req("epoch")?;
        let (key, answer) = if self.v1 {
            let key = read_key_v1(line.req("key")?)?;
            let cost = read_cost(line.req("cost")?)?;
            (key, Answer::Priced(Arc::new(cost)))
        } else {
            let key = read_key(line.req("key")?)?;
            let answer = read_answer(&line, &key)?;
            (key, answer)
        };
        if key_fingerprint(&key) != fp {
            return Err(format!("entry fingerprint {fp:#x} does not match its key"));
        }
        if let Some(by_fp) = by_fp {
            by_fp.insert(fp, key.clone());
        }
        // An answer the cache already holds wins over the persisted one.
        if table.update(&key, |e| e.persisted = epoch).is_none() {
            table.insert(key, Entry::new(answer, epoch));
        }
        self.stats.loaded += 1;
        STORE_LOADED.incr();
        Ok(())
    }

    /// Persists every entry used since its line was last written, advances
    /// the usage epoch, and enforces the size bound.
    ///
    /// Call at batch boundaries only: the epoch advance here is what makes
    /// all lookups *within* a batch indistinguishable to the LRU policy (see
    /// the module docs). New entries are appended in key order; re-used
    /// entries become one compact `touch` line per epoch. A sync's lines go
    /// out in one write ([`Journal::append_all`]); to a version 1 file they
    /// are held back for the sync's rewrite.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        let appended = self.appended_since_compact;
        // One pass over the table: an entry used at an epoch its line does
        // not carry is marked written at that use, and is new to the file
        // or re-used.
        let mut fresh: Vec<(u64, ProblemKey, Answer)> = Vec::new();
        let mut reused: Vec<(u64, u64)> = Vec::new();
        self.cache.table().retain(|key, entry| {
            if entry.used != NEVER && entry.used != entry.persisted {
                if std::mem::replace(&mut entry.persisted, entry.used) == NEVER {
                    fresh.push((entry.used, key.clone(), entry.answer.clone()));
                } else {
                    reused.push((entry.used, key_fingerprint(key)));
                }
            }
            true
        });
        self.cache.set_epoch(self.cache.current_epoch() + 1);
        fresh.sort_unstable_by(|a, b| a.1.cmp(&b.1));
        if !fresh.is_empty() {
            STORE_STORED.add(fresh.len() as u64);
        }
        self.stats.stored += fresh.len() as u64;
        self.stats.entries += fresh.len();
        // Epoch -> the fingerprints re-used at it, epochs ascending.
        reused.sort_unstable();
        reused.dedup();
        let mut retouched: Vec<(u64, Vec<u64>)> = Vec::new();
        for (epoch, fp) in reused {
            match retouched.last_mut() {
                Some((last, fps)) if *last == epoch => fps.push(fp),
                _ => retouched.push((epoch, vec![fp])),
            }
        }
        if !self.v1 {
            let entries = fresh
                .iter()
                .map(|(epoch, key, answer)| Line::Entry(*epoch, key, answer));
            let touches = retouched
                .iter()
                .map(|(epoch, fps)| Line::Touch { fps, epoch: *epoch });
            self.journal.append_all(entries.chain(touches))?;
        }
        self.appended_since_compact += fresh.len() + retouched.len();
        self.evict_over_bound()?;
        // Compact when the log has roughly doubled past the live entry
        // count — amortized O(1) lines per entry — or when a version 1 file
        // held lines back.
        let held_back = self.v1 && self.appended_since_compact > appended;
        if held_back || self.appended_since_compact > self.stats.entries.max(16) {
            self.compact()?;
        }
        Ok(())
    }

    /// Evicts least-recently-used entries (smallest `(epoch, key)` first)
    /// until the bound holds, then compacts so the file stops listing them.
    fn evict_over_bound(&mut self) -> Result<(), StoreError> {
        if self.max_entries == 0 || self.stats.entries <= self.max_entries {
            return Ok(());
        }
        let live = self.live();
        let excess = live.len().saturating_sub(self.max_entries);
        if let Some((epoch, key, _)) = live[..excess].last() {
            let last = (*epoch, key);
            self.cache
                .table()
                .retain(|key, entry| entry.persisted == NEVER || (entry.persisted, key) > last);
        }
        self.stats.evicted += excess as u64;
        STORE_EVICTED.add(excess as u64);
        self.stats.entries = live.len() - excess;
        self.compact()
    }

    /// Rewrites the file to exactly the live state — header plus one entry
    /// line per key, sorted by `(epoch, key)` — in version 2.
    fn compact(&mut self) -> Result<(), StoreError> {
        let live = self.live();
        let lines = live
            .iter()
            .map(|(epoch, key, answer)| Line::Entry(*epoch, key, answer));
        self.journal
            .rewrite(std::iter::once(Line::Header).chain(lines))?;
        self.appended_since_compact = 0;
        self.v1 = false;
        self.stats.compactions += 1;
        STORE_COMPACTIONS.incr();
        Ok(())
    }

    /// Forces a compaction now, whatever the doubling rule says.
    pub fn compact_now(&mut self) -> Result<(), StoreError> {
        self.compact()
    }

    /// The store's lifetime statistics.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }
}

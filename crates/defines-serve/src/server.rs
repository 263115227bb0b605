//! The scheduling daemon: a `std::net` TCP server that coalesces concurrent
//! schedule requests into flattened engine batches over one warm, optionally
//! disk-backed [`MappingCache`].
//!
//! # Lifecycle
//!
//! [`Server::bind`] opens the listener and (when configured) the persistent
//! [`CacheStore`], preloading every persisted mapping entry.
//! [`Server::run`] then starts:
//!
//! * a small pool of **connection workers** (`std::net` + threads, no async
//!   runtime) — each connection carries one request line and gets one
//!   response line,
//! * one **scheduler thread** — it drains everything queued since the
//!   previous batch into a single [`run_batch`] call (the cell runner the
//!   matrix also runs on), publishes the rendered responses, and syncs the
//!   cache store.
//!
//! Identical requests coalesce at two levels: a response memo answers exact
//! repeats without touching the engine, and requests equal to one already
//! queued or in flight wait for that computation instead of enqueueing a
//! twin. Distinct requests arriving together share one engine spin-up and
//! one warm cache.
//!
//! # Determinism
//!
//! A daemon answer is bit-identical to a standalone run of the same request:
//! [`run_batch`] forces each item's inner search sequential and scrubs
//! run-relative stats, responses contain no timestamps, and the shared cache
//! only ever returns what the search would recompute. Cold, warm (memo),
//! and restarted-from-disk answers are therefore the same bytes — the
//! invariant the cross-process harness pins down.
//!
//! # Crash safety
//!
//! The store is synced after every batch and is a
//! [`defines_engine::journal`]: a kill between batches loses nothing, a kill
//! mid-append loses at most one entry (healed as a torn tail on the next
//! open), and compaction is an atomic rename. The response memo is
//! process-local and simply refills.

use crate::protocol::{render_error, render_outcome, ScheduleRequest};
use defines_core::{run_batch, BatchConfig, BatchItem};
use defines_engine::EngineConfig;
use defines_mapping::{Budget, CacheStore, MappingCache};
use serde::Value;
use std::collections::HashMap;
use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Resolves workload / accelerator specs to concrete objects. Injected by
/// the binary (the CLI resolver knows builtin names *and* file paths) so
/// this crate stays independent of the CLI.
pub trait Resolver: Send + Sync {
    /// Resolves a workload spec.
    fn workload(&self, spec: &str) -> Result<defines_workload::Network, String>;
    /// Resolves an accelerator spec.
    fn accelerator(&self, spec: &str) -> Result<defines_arch::Accelerator, String>;
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address (`"127.0.0.1:0"` picks a free port).
    pub addr: String,
    /// Connection-handler threads.
    pub workers: usize,
    /// Outer engine threads per batch (0 = the engine's parallel default).
    pub engine_threads: usize,
    /// Use the fast mapper preset.
    pub fast_mapper: bool,
    /// The mapper's deterministic search budget.
    pub budget: Budget,
    /// Persistent cache file; `None` serves from memory only.
    pub cache_file: Option<PathBuf>,
    /// LRU bound on persisted cache entries (0 = unbounded).
    pub max_entries: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            engine_threads: 0,
            fast_mapper: false,
            budget: Budget::default(),
            cache_file: None,
            max_entries: 0,
        }
    }
}

/// Errors starting or running the daemon.
#[derive(Debug)]
pub struct ServeError(String);

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ServeError {}

/// Per-daemon accounting behind the `stats` command (per daemon, not
/// process-global telemetry counters: those would mix several in-process
/// servers, e.g. under `cargo test`). The identity
/// `requests == memo_hits + batched + computed` always holds.
#[derive(Debug, Default)]
struct ServeCounters {
    requests: AtomicU64,
    batched: AtomicU64,
    memo_hits: AtomicU64,
    computed: AtomicU64,
    cache_loads: AtomicU64,
    evictions: AtomicU64,
}

impl ServeCounters {
    fn incr(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// The coalescing hub shared by connection workers and the scheduler.
#[derive(Default)]
struct Hub {
    state: Mutex<HubState>,
    /// Wakes the scheduler when requests are queued (or shutdown starts).
    kick: Condvar,
    /// Wakes waiting connections when responses are published.
    ready: Condvar,
}

#[derive(Default)]
struct HubState {
    /// Distinct requests awaiting the next batch, in arrival order.
    queue: Vec<(String, ScheduleRequest)>,
    /// Canonical keys the scheduler is currently computing.
    inflight: Vec<String>,
    /// Response memo: canonical key → rendered response line. Grows for the
    /// process lifetime (responses are small; the expensive state is the
    /// mapping cache, which is what the store bounds).
    responses: HashMap<String, String>,
    shutdown: bool,
}

impl Hub {
    /// Locks the hub state, recovering from poisoning: every critical
    /// section is a handful of map/queue operations that cannot be observed
    /// half-done, so the flag carries no information and recovery keeps the
    /// daemon alive after a worker panic.
    fn lock(&self) -> MutexGuard<'_, HubState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

struct ServerInner {
    config: ServerConfig,
    resolver: Box<dyn Resolver>,
    hub: Hub,
    cache: MappingCache,
    store: Mutex<Option<CacheStore>>,
    counters: ServeCounters,
    local_addr: SocketAddr,
}

/// A bound daemon, ready to [`run`](Server::run).
pub struct Server {
    listener: TcpListener,
    inner: Arc<ServerInner>,
}

impl Server {
    /// Binds the listener, opens the persistent store (when configured) and
    /// preloads the cache. Also enables telemetry metrics: a daemon's
    /// counters are part of its contract (`stats` command).
    pub fn bind(config: ServerConfig, resolver: Box<dyn Resolver>) -> Result<Server, ServeError> {
        defines_telemetry::set_metrics(true);
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| ServeError(format!("cannot bind '{}': {e}", config.addr)))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| ServeError(format!("cannot read local address: {e}")))?;
        let cache = MappingCache::new();
        let counters = ServeCounters::default();
        let store = match &config.cache_file {
            Some(path) => {
                let store = CacheStore::open(path, cache.clone(), config.max_entries)
                    .map_err(|e| ServeError(e.to_string()))?;
                let loaded = store.stats().loaded;
                counters.cache_loads.store(loaded, Ordering::Relaxed);
                Some(store)
            }
            None => None,
        };
        Ok(Server {
            listener,
            inner: Arc::new(ServerInner {
                config,
                resolver,
                hub: Hub::default(),
                cache,
                store: Mutex::new(store),
                counters,
                local_addr,
            }),
        })
    }

    /// The bound address (read the port from here when binding to `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.local_addr
    }

    /// Serves until a `shutdown` command arrives, then syncs the store one
    /// final time and returns.
    pub fn run(self) -> Result<(), ServeError> {
        let scheduler = {
            let inner = Arc::clone(&self.inner);
            std::thread::Builder::new()
                .name("serve-scheduler".into())
                .spawn(move || scheduler_loop(&inner))
                .map_err(|e| ServeError(format!("cannot spawn scheduler: {e}")))?
        };
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let mut workers = Vec::with_capacity(self.inner.config.workers.max(1));
        for i in 0..self.inner.config.workers.max(1) {
            let inner = Arc::clone(&self.inner);
            let rx = Arc::clone(&rx);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("serve-conn-{i}"))
                    .spawn(move || loop {
                        // Holding the receiver lock across `recv` serializes
                        // *dispatch* only; handling runs after the guard
                        // drops. Workers exit when the accept loop drops the
                        // sender.
                        let stream = {
                            let guard = rx.lock().unwrap_or_else(PoisonError::into_inner);
                            guard.recv()
                        };
                        match stream {
                            Ok(stream) => handle_connection(&inner, stream),
                            Err(_) => break,
                        }
                    })
                    .map_err(|e| ServeError(format!("cannot spawn worker: {e}")))?,
            );
        }
        for stream in self.listener.incoming() {
            if self.inner.hub.lock().shutdown {
                break;
            }
            match stream {
                Ok(stream) => {
                    // A send can only fail if every worker died; surface that
                    // instead of spinning on a dead pool.
                    if tx.send(stream).is_err() {
                        return Err(ServeError("connection workers are gone".into()));
                    }
                }
                Err(_) => continue,
            }
        }
        drop(tx);
        for worker in workers {
            let _ = worker.join();
        }
        let _ = scheduler.join();
        // Final persistence pass: everything computed is already synced per
        // batch; this compacts so the next start loads a minimal file.
        if let Some(store) = self
            .inner
            .store
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_mut()
        {
            store.sync().map_err(|e| ServeError(e.to_string()))?;
            store.compact_now().map_err(|e| ServeError(e.to_string()))?;
        }
        Ok(())
    }
}

/// The scheduler: drain → resolve → one flattened engine run → publish →
/// sync.
fn scheduler_loop(inner: &ServerInner) {
    loop {
        let batch: Vec<(String, ScheduleRequest)> = {
            let mut st = inner.hub.lock();
            while st.queue.is_empty() && !st.shutdown {
                st = inner
                    .hub
                    .kick
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            if st.queue.is_empty() {
                break;
            }
            let mut batch = std::mem::take(&mut st.queue);
            // Deterministic batch composition (arrival order is racy; the
            // *results* are order-independent either way, this just keeps
            // telemetry and store epochs tidy).
            batch.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            st.inflight.extend(batch.iter().map(|(k, _)| k.clone()));
            batch
        };

        let mut rendered: Vec<(String, String)> = Vec::with_capacity(batch.len());
        let mut items: Vec<BatchItem> = Vec::new();
        let mut item_keys: Vec<(String, ScheduleRequest)> = Vec::new();
        for (key, request) in batch {
            let resolved = inner
                .resolver
                .accelerator(&request.accelerator)
                .and_then(|acc| Ok((acc, inner.resolver.workload(&request.workload)?)));
            match resolved {
                Ok((acc, net)) => {
                    items.push(request.to_batch_item(acc, net));
                    item_keys.push((key, request));
                }
                Err(why) => rendered.push((key, render_error(&why))),
            }
        }

        if !items.is_empty() {
            let engine = if inner.config.engine_threads > 0 {
                EngineConfig::parallel().with_threads(inner.config.engine_threads)
            } else {
                EngineConfig::parallel()
            };
            let config = BatchConfig {
                engine,
                cache: inner.cache.clone(),
                fast_mapper: inner.config.fast_mapper,
                budget: inner.config.budget,
            };
            let outcomes = run_batch(&items, &config);
            inner
                .counters
                .computed
                .fetch_add(outcomes.len() as u64, Ordering::Relaxed);
            for ((key, request), outcome) in item_keys.into_iter().zip(&outcomes) {
                rendered.push((key, render_outcome(&request, outcome)));
            }
            // Persist the batch before publishing: a kill after clients see
            // the answer can then only lose work that is already
            // recomputable from the synced cache.
            let mut store = inner.store.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(store) = store.as_mut() {
                let before = store.stats().evicted;
                if let Err(e) = store.sync() {
                    // Persistence failure degrades the daemon to in-memory
                    // serving; answers stay correct.
                    eprintln!("warning: cache store sync failed: {e}");
                }
                let evicted = store.stats().evicted - before;
                inner
                    .counters
                    .evictions
                    .fetch_add(evicted, Ordering::Relaxed);
            } else {
                // No store: still advance the LRU epoch per batch so an
                // attached store in a future run sees consistent epochs.
                inner.cache.advance_epoch();
            }
        }

        let mut st = inner.hub.lock();
        for (key, response) in rendered {
            st.inflight.retain(|k| k != &key);
            st.responses.insert(key, response);
        }
        inner.hub.ready.notify_all();
    }
}

/// Reads the single request line, answers it, closes the connection.
fn handle_connection(inner: &ServerInner, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(60)));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    });
    let mut line = String::new();
    if reader.read_line(&mut line).is_err() || line.trim().is_empty() {
        return;
    }
    let response = answer(inner, line.trim());
    let mut stream = stream;
    let _ = stream
        .write_all(response.as_bytes())
        .and_then(|()| stream.write_all(b"\n"))
        .and_then(|()| stream.flush());
}

/// Computes the response line for one request line.
fn answer(inner: &ServerInner, line: &str) -> String {
    let value = match serde_json::from_str(line) {
        Ok(v) => v,
        Err(e) => return render_error(&format!("invalid JSON: {e}")),
    };
    if let Some(cmd) = value.get("cmd").and_then(Value::as_str) {
        return match cmd {
            "ping" => Value::Object(vec![
                ("ok".into(), Value::Bool(true)),
                ("pong".into(), Value::Bool(true)),
            ])
            .to_json(),
            "stats" => stats_response(inner),
            "shutdown" => {
                let mut st = inner.hub.lock();
                st.shutdown = true;
                inner.hub.kick.notify_all();
                inner.hub.ready.notify_all();
                drop(st);
                // Unblock the accept loop so `run` can observe the flag.
                let _ = TcpStream::connect(inner.local_addr);
                Value::Object(vec![
                    ("ok".into(), Value::Bool(true)),
                    ("shutdown".into(), Value::Bool(true)),
                ])
                .to_json()
            }
            other => render_error(&format!("unknown command '{other}'")),
        };
    }
    let request = match ScheduleRequest::from_value(&value) {
        Ok(r) => r,
        Err(why) => return render_error(&why),
    };
    ServeCounters::incr(&inner.counters.requests);
    let key = request.canonical_key();
    let mut st = inner.hub.lock();
    if let Some(response) = st.responses.get(&key) {
        ServeCounters::incr(&inner.counters.memo_hits);
        return response.clone();
    }
    if st.shutdown {
        return render_error("server is shutting down");
    }
    let queued = st.inflight.iter().any(|k| k == &key) || st.queue.iter().any(|(k, _)| k == &key);
    if queued {
        ServeCounters::incr(&inner.counters.batched);
    } else {
        st.queue.push((key.clone(), request));
        inner.hub.kick.notify_one();
    }
    loop {
        st = inner
            .hub
            .ready
            .wait(st)
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(response) = st.responses.get(&key) {
            return response.clone();
        }
        if st.shutdown {
            return render_error("server is shutting down");
        }
    }
}

/// The `stats` command: per-daemon serve counters, mapping-cache stats, and
/// (when persistent) store stats.
fn stats_response(inner: &ServerInner) -> String {
    let c = &inner.counters;
    let serve = Value::Object(vec![
        (
            "requests".into(),
            Value::U64(c.requests.load(Ordering::Relaxed)),
        ),
        (
            "batched".into(),
            Value::U64(c.batched.load(Ordering::Relaxed)),
        ),
        (
            "memo_hits".into(),
            Value::U64(c.memo_hits.load(Ordering::Relaxed)),
        ),
        (
            "computed".into(),
            Value::U64(c.computed.load(Ordering::Relaxed)),
        ),
        (
            "cache_loads".into(),
            Value::U64(c.cache_loads.load(Ordering::Relaxed)),
        ),
        (
            "evictions".into(),
            Value::U64(c.evictions.load(Ordering::Relaxed)),
        ),
    ]);
    let cache = inner.cache.stats();
    let cache = Value::Object(vec![
        ("hits".into(), Value::U64(cache.hits)),
        ("misses".into(), Value::U64(cache.misses)),
        ("canonical_hits".into(), Value::U64(cache.canonical_hits)),
        ("entries".into(), Value::U64(cache.entries as u64)),
    ]);
    let store = match inner
        .store
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .as_ref()
    {
        Some(store) => {
            let s = store.stats();
            Value::Object(vec![
                ("loaded".into(), Value::U64(s.loaded)),
                ("stored".into(), Value::U64(s.stored)),
                ("evicted".into(), Value::U64(s.evicted)),
                ("compactions".into(), Value::U64(s.compactions)),
                ("entries".into(), Value::U64(s.entries as u64)),
            ])
        }
        None => Value::Null,
    };
    Value::Object(vec![
        ("ok".into(), Value::Bool(true)),
        (
            "stats".into(),
            Value::Object(vec![
                ("serve".into(), serve),
                ("cache".into(), cache),
                ("store".into(), store),
            ]),
        ),
    ])
    .to_json()
}

/// Sends one request line to a daemon and returns its response line — the
/// client side of the protocol, shared by the `defines-request` CLI and the
/// test harnesses.
pub fn send_line(addr: &str, line: &str) -> Result<String, String> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("cannot connect to '{addr}': {e}"))?;
    stream
        .write_all(line.as_bytes())
        .and_then(|()| stream.write_all(b"\n"))
        .and_then(|()| stream.flush())
        .map_err(|e| format!("cannot send request: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    reader
        .read_line(&mut response)
        .map_err(|e| format!("cannot read response: {e}"))?;
    let response = response.trim_end_matches('\n').to_string();
    if response.is_empty() {
        return Err("server closed the connection without a response".into());
    }
    Ok(response)
}

//! `serve-mix`: the daemon's four lifecycles in one script, against an
//! in-process `Server` over real TCP.
//!
//! One round, on a fresh cache file:
//! bind → the distinct requests one at a time (*cold*) → the same requests
//! replayed in seeded order (*memo*) → a two-connection burst of duplicate
//! fresh requests (*coalescing*) → `stats` round trips → `shutdown` →
//! re-bind on the same file (*restart*) → the distinct requests once more
//! (*warm*: response memo empty, zero mapping misses) → `shutdown`.
//!
//! Every response is compared byte for byte against an in-process oracle
//! (`run_batch` + `render_outcome`) computed in set-up.

use super::{hash_str, JobOutput, ModelFigures, Workload};
use crate::clock::{now, timed};
use crate::inputs;
use crate::probes::ProbeInputs;
use crate::rng::Rng;
use crate::sample::Samples;
use defines_core::{run_batch, BatchConfig, BatchItem};
use defines_engine::{EngineConfig, Fnv};
use defines_mapping::MappingCache;
use defines_serve::{render_outcome, send_line, Resolver, ScheduleRequest, Server, ServerConfig};
use defines_telemetry::span;
use serde::Value;
use std::path::PathBuf;
use std::sync::Barrier;
use std::thread::JoinHandle;

/// Distinct requests per round.
pub const DISTINCT: usize = 16;
/// How often the distinct set is replayed against the response memo: 1024
/// memo requests a round, the fewest that leave ten samples beyond p99.
pub const REPLAYS: usize = 64;
/// Fresh requests of the coalescing burst; each is sent by both connections.
pub const BURST_DISTINCT: usize = 4;
const BURST_CONNECTIONS: usize = 2;
/// `stats` round trips per round: the wire + dispatch floor of a request.
const FLOOR_ROUNDTRIPS: usize = 20;

/// Requests one round sends (commands excluded).
pub const REQUESTS_PER_ROUND: usize =
    DISTINCT + DISTINCT * REPLAYS + BURST_DISTINCT * BURST_CONNECTIONS + DISTINCT;

const WORKERS: usize = 2;
const ENGINE_THREADS: usize = 1;

const NETS: [&str; 5] = ["fsrcnn", "mccnn", "dmcnn-vd", "mobilenet-v1", "resnet18"];
const TARGETS: [&str; 3] = ["energy", "latency", "edp"];

/// The daemon's resolver: every spec goes through the document loaders (the
/// CLI's resolver answers zoo names from built-in constructors; the
/// benchmark reads the reference documents instead, so the loaders sit on
/// the request path).
pub struct DocResolver;

impl Resolver for DocResolver {
    fn workload(&self, spec: &str) -> Result<defines_workload::Network, String> {
        let _span = span!("bench.workload.load");
        inputs::load_workload(spec)
    }

    fn accelerator(&self, spec: &str) -> Result<defines_arch::Accelerator, String> {
        let _span = span!("bench.arch.load");
        inputs::load_accelerator(spec)
    }
}

/// The fixed pool the request set is drawn from: every network on four of
/// the five accelerators (rotating which one is left out), every fourth
/// pair with single-layer stacks instead of the fuse heuristic. Network-major:
/// the first [`DISTINCT`] entries are the four smaller networks, the last
/// [`BURST_DISTINCT`] are ResNet18's.
fn request_pool() -> Vec<(&'static str, &'static str, &'static str)> {
    let mut pool = Vec::with_capacity(DISTINCT + BURST_DISTINCT);
    for (n, &net) in NETS.iter().enumerate() {
        for (a, &acc) in inputs::DF_ACCELERATORS.iter().enumerate() {
            if a != n {
                let fuse = if pool.len() % 4 == 3 {
                    "single"
                } else {
                    "auto"
                };
                pool.push((net, acc, fuse));
            }
        }
    }
    pool
}

/// Draws the round's request lines: the first [`DISTINCT`] pool entries in
/// seeded order are the distinct set, the remaining ones the burst; each
/// request gets seeded tile lists and a seeded target, and searches all three
/// overlap modes. The pool, the split and the shape of the tile grids
/// ([`inputs::seeded_tiles`]) are fixed, so a round costs about the same
/// under every seed. Exactly one distinct request names its workload by
/// document path instead of by name.
pub fn seeded_requests(rng: &mut Rng) -> Result<Vec<String>, String> {
    let mut pool = request_pool();
    rng.shuffle(&mut pool[..DISTINCT]);
    let path_named = rng.range(0, DISTINCT as u64 - 1) as usize;
    pool.iter()
        .enumerate()
        .map(|(i, &(net, acc, fuse))| {
            let network = inputs::load_workload(net)?;
            let tiles = inputs::seeded_tiles(rng, &network, 2);
            let workload = if i == path_named {
                inputs::workload_doc(net)
            } else {
                net.to_string()
            };
            let target = TARGETS[rng.range(0, TARGETS.len() as u64 - 1) as usize];
            let axis = |values: [u64; 2]| Value::Array(values.map(Value::U64).to_vec());
            Ok(Value::Object(vec![
                ("workload".into(), Value::Str(workload)),
                ("accelerator".into(), Value::Str(acc.to_string())),
                ("target".into(), Value::Str(target.to_string())),
                ("fuse".into(), Value::Str(fuse.to_string())),
                ("tilex".into(), axis([tiles[0].0, tiles[1].0])),
                ("tiley".into(), axis([tiles[0].1, tiles[1].1])),
            ])
            .to_json())
        })
        .collect()
}

/// Parses a request line the harness generated itself.
pub fn parse_request(line: &str) -> Result<ScheduleRequest, String> {
    let value = serde_json::from_str(line).map_err(|e| format!("bad request line: {e}"))?;
    ScheduleRequest::from_value(&value)
}

/// Resolves request lines into batch items through [`DocResolver`].
pub fn batch_items(lines: &[String]) -> Result<Vec<(ScheduleRequest, BatchItem)>, String> {
    lines
        .iter()
        .map(|line| {
            let request = parse_request(line)?;
            let acc = DocResolver.accelerator(&request.accelerator)?;
            let net = DocResolver.workload(&request.workload)?;
            let item = request.to_batch_item(acc, net);
            Ok((request, item))
        })
        .collect()
}

/// The batch configuration equivalent to the benchmark daemon's.
pub fn batch_config(cache: MappingCache, fast_mapper: bool) -> BatchConfig {
    BatchConfig {
        engine: EngineConfig::parallel().with_threads(ENGINE_THREADS),
        cache,
        fast_mapper,
        ..BatchConfig::default()
    }
}

/// A daemon running on its own thread.
struct Daemon {
    addr: String,
    thread: JoinHandle<Result<(), String>>,
}

impl Daemon {
    fn start(cache_file: PathBuf) -> Result<Self, String> {
        let server = Server::bind(
            ServerConfig {
                workers: WORKERS,
                engine_threads: ENGINE_THREADS,
                fast_mapper: true,
                cache_file: Some(cache_file),
                ..ServerConfig::default()
            },
            Box::new(DocResolver),
        )
        .map_err(|e| e.to_string())?;
        let addr = server.local_addr().to_string();
        let thread = std::thread::Builder::new()
            .name("bench-daemon".into())
            .spawn(move || server.run().map_err(|e| e.to_string()))
            .map_err(|e| format!("cannot spawn daemon thread: {e}"))?;
        Ok(Self { addr, thread })
    }

    /// One request, timed from connect to last byte. Returns whether it
    /// failed — an I/O error or a response that is not byte-identical to
    /// `expected` — and the seconds it took.
    fn ask(&self, line: &str, expected: &str) -> (bool, f64) {
        let _span = span!("bench.serve.request");
        let (response, seconds) = timed(|| send_line(&self.addr, line));
        (response.as_deref() != Ok(expected), seconds)
    }

    /// The daemon's `stats` object.
    fn stats(&self) -> Result<Value, String> {
        let response = send_line(&self.addr, r#"{"cmd":"stats"}"#)?;
        let value = serde_json::from_str(&response).map_err(|e| format!("bad stats: {e}"))?;
        value
            .get("stats")
            .cloned()
            .ok_or_else(|| format!("stats response without stats: {response}"))
    }

    /// Sends `shutdown` and waits for `Server::run` to return (final sync
    /// and compaction included). Returns the seconds that took.
    fn shutdown(self) -> Result<f64, String> {
        let _span = span!("bench.serve.shutdown");
        let (result, seconds) = timed(|| {
            send_line(&self.addr, r#"{"cmd":"shutdown"}"#)?;
            self.thread
                .join()
                .map_err(|_| "daemon thread panicked".to_string())?
        });
        result.map(|()| seconds)
    }
}

fn counter(stats: &Value, group: &str, name: &str) -> Result<u64, String> {
    stats
        .get(group)
        .and_then(|g| g.get(name))
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("stats lacks {group}.{name}"))
}

pub struct ServeMix {
    requests: Vec<String>,
    burst: Vec<String>,
    /// Indices into `requests`, `DISTINCT * REPLAYS` long, seeded order.
    replay: Vec<usize>,
    /// Expected response per request / burst request.
    oracle: Vec<String>,
    burst_oracle: Vec<String>,
    /// Simulated figures and hash of the oracle responses (what a correct
    /// round delivers).
    model: ModelFigures,
    result_fnv: u64,
    /// Seconds the cold in-process `run_batch` of the distinct set took in
    /// set-up: the compute floor under the cold phase. What the daemon adds
    /// per request on top (wire, protocol, resolve, store sync) is
    /// `serve.server.overhead_ms`.
    batch_run_s: f64,
    /// The oracle's mapping cache: the entries a round's daemon ends up with
    /// (probe input only).
    cache: MappingCache,
    /// Scratch directory for cache files, inside the checkout.
    dir: PathBuf,
    rounds: u64,
}

impl ServeMix {
    pub fn setup(seed: u64) -> Result<Self, String> {
        let root = Rng::new(seed);
        let mut all = seeded_requests(&mut root.fork("requests"))?;
        let burst = all.split_off(DISTINCT);
        let requests = all;
        let mut replay: Vec<usize> = (0..DISTINCT * REPLAYS).map(|i| i % DISTINCT).collect();
        root.fork("replay-order").shuffle(&mut replay);

        // The standalone oracle: one cold batch for the distinct set, then
        // the burst on the same cache — the order the daemon computes in.
        let cache = MappingCache::new();
        let config = batch_config(cache.clone(), true);
        let mut model = ModelFigures::default();
        let mut hash = Fnv::new();
        let mut batch_run_s = 0.0;
        let mut answer = |lines: &[String], timed_run: bool| -> Result<Vec<String>, String> {
            let resolved = batch_items(lines)?;
            let items: Vec<BatchItem> = resolved.iter().map(|(_, item)| item.clone()).collect();
            let (outcomes, seconds) = timed(|| {
                let _span = span!("bench.batch.run_batch");
                run_batch(&items, &config)
            });
            if timed_run {
                batch_run_s = seconds;
            }
            resolved
                .iter()
                .zip(&outcomes)
                .map(|((request, item), outcome)| {
                    let schedule = outcome.schedule.as_ref().ok_or_else(|| {
                        format!(
                            "oracle request failed: {}",
                            outcome.error.as_deref().unwrap_or("no result")
                        )
                    })?;
                    model.add(&schedule.cost, &item.accelerator);
                    let response = render_outcome(request, outcome);
                    hash_str(&mut hash, &response);
                    Ok(response)
                })
                .collect()
        };
        let oracle = answer(&requests, true)?;
        let burst_oracle = answer(&burst, false)?;

        let dir = inputs::out_dir().join(format!("serve-{}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(Self {
            requests,
            burst,
            replay,
            oracle,
            burst_oracle,
            model,
            result_fnv: hash.finish(),
            batch_run_s,
            cache,
            dir,
            rounds: 0,
        })
    }

    fn round(&mut self) -> Result<JobOutput, String> {
        self.rounds += 1;
        let cache_file = self.dir.join(format!("round-{}.jsonl", self.rounds));
        let mut failed = 0u64;
        let mut check: Option<String> = None;
        let mut flag = |what: String| {
            check.get_or_insert(what);
        };
        let mut cold = Samples::new();
        let mut memo = Samples::new();
        let mut warm = Samples::new();
        let mut floor = Samples::new();

        // ---- first life: cold, memo, burst ----
        let daemon = Daemon::start(cache_file.clone())?;
        for (line, expected) in self.requests.iter().zip(&self.oracle) {
            let (bad, seconds) = daemon.ask(line, expected);
            cold.push(seconds);
            failed += u64::from(bad);
        }
        for &i in &self.replay {
            let (bad, seconds) = daemon.ask(&self.requests[i], &self.oracle[i]);
            memo.push(seconds);
            failed += u64::from(bad);
        }
        let before_burst = daemon.stats()?;
        let barrier = Barrier::new(BURST_CONNECTIONS);
        failed += std::thread::scope(|scope| {
            let connections: Vec<_> = (0..BURST_CONNECTIONS)
                .map(|_| {
                    scope.spawn(|| {
                        let mut failed = 0;
                        for (line, expected) in self.burst.iter().zip(&self.burst_oracle) {
                            // Both connections send each duplicate together.
                            barrier.wait();
                            failed += u64::from(daemon.ask(line, expected).0);
                        }
                        failed
                    })
                })
                .collect();
            connections
                .into_iter()
                .map(|c| {
                    c.join()
                        .map_err(|_| "burst connection panicked".to_string())
                })
                .sum::<Result<u64, String>>()
        })?;
        for _ in 0..FLOOR_ROUNDTRIPS {
            let (stats, seconds) = timed(|| daemon.stats());
            stats?;
            floor.push(seconds);
        }
        let stats = daemon.stats()?;
        let serve = |name: &str| counter(&stats, "serve", name);
        let (requests, memo_hits, batched, computed) = (
            serve("requests")?,
            serve("memo_hits")?,
            serve("batched")?,
            serve("computed")?,
        );
        if requests != memo_hits + batched + computed {
            flag(format!(
                "stats identity broken: {requests} requests != {memo_hits} memo hits + \
                 {batched} batched + {computed} computed"
            ));
        }
        let sent = (DISTINCT + DISTINCT * REPLAYS + BURST_DISTINCT * BURST_CONNECTIONS) as u64;
        if requests != sent {
            flag(format!(
                "daemon counted {requests} requests, {sent} were sent"
            ));
        }
        let burst_computed = computed - counter(&before_burst, "serve", "computed")?;
        let burst_sent = (BURST_DISTINCT * BURST_CONNECTIONS) as f64;
        let coalesce_share = 1.0 - burst_computed as f64 / burst_sent;
        let first_shutdown_s = daemon.shutdown()?;

        // ---- second life: restart from the persisted file, warm ----
        let restart_start = now();
        let daemon = {
            let _span = span!("bench.serve.restart");
            Daemon::start(cache_file.clone())?
        };
        let restart_s = restart_start.elapsed().as_secs_f64();
        for (line, expected) in self.requests.iter().zip(&self.oracle) {
            let (bad, seconds) = daemon.ask(line, expected);
            warm.push(seconds);
            failed += u64::from(bad);
        }
        let stats = daemon.stats()?;
        let misses = counter(&stats, "cache", "misses")?;
        if misses != 0 {
            flag(format!(
                "{misses} mapping searches after restart; the persisted cache must answer all"
            ));
        }
        let second_shutdown_s = daemon.shutdown()?;
        std::fs::remove_file(&cache_file)
            .map_err(|e| format!("cannot remove {}: {e}", cache_file.display()))?;

        let memo_summary = memo.summary().expect("memo phase sent requests");
        let memo_p99 = match memo_summary.tail {
            Some((99.0, value)) => value,
            _ => return Err(format!("{} memo samples give no p99", memo_summary.n)),
        };
        Ok(JobOutput {
            attempted: REQUESTS_PER_ROUND as u64,
            failed,
            points: REQUESTS_PER_ROUND as u64,
            result_fnv: self.result_fnv,
            model: self.model,
            layer: vec![
                ("serve.server.cold_request_ms", cold.median() * 1e3),
                ("serve.server.warm_request_ms", warm.median() * 1e3),
                ("serve.server.memo_request_us", memo_summary.median * 1e6),
                ("serve.server.restart_ms", restart_s * 1e3),
                ("serve.server.memo_p99_us", memo_p99 * 1e6),
                ("serve.server.roundtrip_floor_us", floor.median() * 1e6),
                (
                    "serve.server.overhead_ms",
                    (cold.values().iter().sum::<f64>() - self.batch_run_s) * 1e3 / DISTINCT as f64,
                ),
                ("serve.server.computed", computed as f64),
                ("serve.server.memo_hits", memo_hits as f64),
                ("serve.server.batched", batched as f64),
                ("serve.server.coalesce_share", coalesce_share),
                (
                    "serve.server.shutdown_ms",
                    (first_shutdown_s + second_shutdown_s) / 2.0 * 1e3,
                ),
            ],
            check_failure: check.or_else(|| {
                (failed > 0).then(|| {
                    format!("{failed} daemon requests failed or differ from the standalone oracle")
                })
            }),
        })
    }
}

impl Workload for ServeMix {
    fn e2e_threads(&self) -> usize {
        ENGINE_THREADS
    }

    fn job(&mut self, _threads: usize) -> Result<JobOutput, String> {
        self.round()
    }

    fn probe_inputs(&self) -> Result<ProbeInputs, String> {
        ProbeInputs::for_requests(&self.requests, self.cache.clone())
    }
}

impl Drop for ServeMix {
    fn drop(&mut self) {
        // Best effort: the directory only ever holds this process's files.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

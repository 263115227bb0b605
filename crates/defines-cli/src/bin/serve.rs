//! `serve` — the DeFiNES scheduling daemon: accepts line-delimited JSON
//! schedule requests over TCP, coalesces concurrent requests into one
//! flattened engine run, and answers from a warm (optionally disk-backed,
//! LRU-bounded) mapping cache.
//!
//! ```text
//! cargo run --release --bin serve -- --cache-file /tmp/defines-cache.jsonl
//! ```
//!
//! The daemon prints `listening on HOST:PORT` once ready (flushed, so
//! harnesses can scrape the port when binding to `:0`). Query it with
//! `defines-request`, or raw:
//!
//! ```text
//! printf '%s\n' '{"workload":"fsrcnn","accelerator":"meta-proto-df"}' | nc HOST PORT
//! ```
//!
//! Responses are bit-identical to standalone runs of the same request
//! (`defines-request --standalone`) — cold, warm, or after a restart from
//! the persisted cache.

use clap::{Arg, ArgAction, Command};
use defines_cli::{parse_budget, resolve_accelerator, resolve_workload};
use defines_serve::{Resolver, Server, ServerConfig};
use std::io::Write;

/// The daemon's resolver: builtin zoo names and JSON file paths, exactly
/// like the `sweep` and `matrix` flags.
struct CliResolver;

impl Resolver for CliResolver {
    fn workload(&self, spec: &str) -> Result<defines_workload::Network, String> {
        resolve_workload(spec).map(|(net, _)| net)
    }

    fn accelerator(&self, spec: &str) -> Result<defines_arch::Accelerator, String> {
        resolve_accelerator(spec).map(|(acc, _)| acc)
    }
}

fn main() {
    let matches = Command::new("serve")
        .about(
            "DeFiNES scheduling daemon: batches concurrent TCP schedule requests into \
             shared-cache engine runs; optionally persists the mapping cache to disk.",
        )
        .version(env!("CARGO_PKG_VERSION"))
        .arg(
            Arg::new("addr")
                .long("addr")
                .value_name("HOST:PORT")
                .default_value("127.0.0.1:7878")
                .help("Listen address (use port 0 to let the OS pick; the chosen port is printed)"),
        )
        .arg(
            Arg::new("workers")
                .long("workers")
                .value_name("N")
                .default_value("4")
                .help("Connection-handler threads"),
        )
        .arg(
            Arg::new("threads")
                .long("threads")
                .value_name("N")
                .default_value("0")
                .help("Outer engine worker threads per batch (0 = one per core)"),
        )
        .arg(
            Arg::new("full-mapper")
                .long("full-mapper")
                .action(ArgAction::SetTrue)
                .help(
                    "Search every temporal-mapping ordering (pruned, exact) instead of \
                     sampling 48",
                ),
        )
        .arg(
            Arg::new("budget")
                .long("budget")
                .value_name("ORD[,DP]")
                .help("Deterministic search budget per request (0 = unlimited)"),
        )
        .arg(
            Arg::new("cache-file")
                .long("cache-file")
                .value_name("PATH")
                .help(
                    "Persist the mapping cache to this JSONL file: entries are reloaded \
                     at startup and synced after every batch",
                ),
        )
        .arg(
            Arg::new("max-entries")
                .long("max-entries")
                .value_name("N")
                .default_value("0")
                .help(
                    "LRU bound on persisted cache entries (0 = unbounded); least recently \
                     used mappings are evicted deterministically",
                ),
        )
        .get_matches();

    if let Err(message) = run(&matches) {
        eprintln!("error: {message}");
        std::process::exit(1);
    }
}

fn run(matches: &clap::ArgMatches) -> Result<(), String> {
    let workers: usize = matches
        .value_of("workers")
        .unwrap()
        .parse()
        .ok()
        .filter(|&n| n >= 1)
        .ok_or_else(|| "--workers expects a positive integer".to_string())?;
    let engine_threads: usize = matches
        .value_of("threads")
        .unwrap()
        .parse()
        .map_err(|_| "--threads expects a non-negative integer".to_string())?;
    let budget = match matches.value_of("budget") {
        Some(spec) => parse_budget(spec)?,
        None => defines_mapping::Budget::unlimited(),
    };
    let max_entries: usize = matches
        .value_of("max-entries")
        .unwrap()
        .parse()
        .map_err(|_| "--max-entries expects a non-negative integer".to_string())?;
    let config = ServerConfig {
        addr: matches.value_of("addr").unwrap().to_string(),
        workers,
        engine_threads,
        fast_mapper: !matches.get_flag("full-mapper"),
        budget,
        cache_file: matches.value_of("cache-file").map(Into::into),
        max_entries,
    };
    let cache_note = match &config.cache_file {
        Some(path) => format!("cache file {}", path.display()),
        None => "in-memory cache".to_string(),
    };
    let server = Server::bind(config, Box::new(CliResolver)).map_err(|e| e.to_string())?;
    // Flushed so a spawning harness can scrape the port before any request.
    println!("listening on {}", server.local_addr());
    println!("{cache_note} | {workers} connection workers | send {{\"cmd\":\"shutdown\"}} to stop");
    std::io::stdout().flush().ok();
    server.run().map_err(|e| e.to_string())
}

//! `matrix` — run the DeFiNES case-study grid: every `{accelerator} ×
//! {workload} × {fuse policy}` cell in one flattened engine run sharing one
//! mapping cache, with a Fig.-13-style accelerator ranking.
//!
//! ```text
//! cargo run --release --bin matrix -- \
//!     --accelerators meta-proto-df,tpu-df,edge-tpu-df,ascend-df,tesla-npu-df \
//!     --workloads fsrcnn,mobilenet-v1 --fuse auto,single \
//!     --json matrix.json --markdown matrix.md
//! ```
//!
//! Each axis entry is a zoo name or a path to a JSON file (workloads:
//! `defines_workload::loader`; accelerators: `defines_arch::loader`), so the
//! paper's five-architecture comparison extends to bring-your-own hardware
//! without touching Rust. Cells stream as they complete; the ranking table,
//! the per-cell grid and the engine/cache statistics are printed at the end,
//! and `--json` / `--markdown` dump the full report.

use clap::{Arg, ArgAction, Command};
use defines_arch::zoo;
use defines_cli::{
    parse_budget, parse_deadline, parse_modes, resolve_accelerator, resolve_workload, tile_grid,
};
use defines_core::{run_matrix, MatrixConfig};
use defines_core::{FusePolicy, OptimizeTarget};
use defines_engine::EngineConfig;
use defines_workload::models;

fn main() {
    let matches = Command::new("matrix")
        .about(
            "DeFiNES case-study matrix: evaluates every (accelerator x workload x fuse \
             policy) cell in one shared-cache engine run and ranks the accelerators.",
        )
        .version(env!("CARGO_PKG_VERSION"))
        .arg(
            Arg::new("accelerators")
                .long("accelerators")
                .value_name("LIST")
                .default_value("meta-proto-df,tpu-df,edge-tpu-df,ascend-df,tesla-npu-df")
                .help(format!(
                    "Comma-separated accelerators (zoo names or JSON paths). Zoo: {}",
                    zoo::names().join(", ")
                )),
        )
        .arg(
            Arg::new("workloads")
                .long("workloads")
                .value_name("LIST")
                .default_value("fsrcnn,dmcnn-vd,mccnn,mobilenet-v1,resnet18")
                .help(format!(
                    "Comma-separated workloads (zoo names or JSON paths). Zoo: {}",
                    models::names().join(", ")
                )),
        )
        .arg(
            Arg::new("fuse")
                .long("fuse")
                .value_name("LIST")
                .default_value("auto")
                .help("Comma-separated fuse policies: auto, full, single, search"),
        )
        .arg(
            Arg::new("dfmode")
                .long("dfmode")
                .value_name("DIGITS")
                .default_value("123")
                .help("Overlap modes: 1 fully-recompute, 2 H-cached V-recompute, 3 fully-cached"),
        )
        .arg(Arg::new("tilex").long("tilex").value_name("LIST").help(
            "Comma-separated tile widths applied to every cell (with --tiley; omit \
                     both for each workload's default grid)",
        ))
        .arg(
            Arg::new("tiley")
                .long("tiley")
                .value_name("LIST")
                .help("Comma-separated tile heights"),
        )
        .arg(
            Arg::new("target")
                .long("target")
                .value_name("NAME")
                .default_value("energy")
                .help("Optimization target: energy, latency, edp, dram, activation"),
        )
        .arg(
            Arg::new("threads")
                .long("threads")
                .value_name("N")
                .default_value("0")
                .help("Outer engine worker threads, one cell per worker (0 = one per core)"),
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
                .help(
                    "Deterministic search budget per cell: max candidate orderings per \
                     mapping search, optionally followed by max DP relaxation steps \
                     (0 = unlimited). Budget-capped cells are flagged degraded",
                ),
        )
        .arg(
            Arg::new("deadline")
                .long("deadline")
                .value_name("SECS")
                .help(
                    "Wall-clock limit in seconds, checked between cells: cells starting \
                     after it expires are marked failed; completed cells are unaffected \
                     (rerun with --resume to finish them)",
                ),
        )
        .arg(
            Arg::new("checkpoint")
                .long("checkpoint")
                .value_name("FILE")
                .help(
                    "Append each finished cell to a JSONL checkpoint; if FILE already \
                     has cells from the same grid, they are skipped and the run resumes",
                ),
        )
        .arg(Arg::new("resume").long("resume").value_name("FILE").help(
            "Resume from an existing checkpoint (like --checkpoint, but errors \
                     if FILE is missing or empty instead of starting fresh)",
        ))
        .arg(
            Arg::new("json")
                .long("json")
                .value_name("PATH")
                .help("Write the full matrix report (cells, ranking, stats) as JSON"),
        )
        .arg(
            Arg::new("markdown")
                .long("markdown")
                .value_name("PATH")
                .help("Write the report as a markdown document (ranking + cell tables)"),
        )
        .arg(Arg::new("trace").long("trace").value_name("PATH").help(
            "Record pipeline spans and write a Chrome trace-event JSON file \
                     (open in Perfetto or chrome://tracing)",
        ))
        .arg(
            Arg::new("quiet")
                .long("quiet")
                .short('q')
                .action(ArgAction::SetTrue)
                .help("Suppress per-cell streaming output"),
        )
        .get_matches();

    if let Err(message) = run(&matches) {
        eprintln!("error: {message}");
        std::process::exit(1);
    }
}

/// Splits a comma-separated axis list into trimmed, non-empty entries.
fn split_axis(flag: &str, input: &str) -> Result<Vec<String>, String> {
    let entries: Vec<String> = input
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    if entries.is_empty() {
        return Err(format!("{flag} needs at least one entry"));
    }
    Ok(entries)
}

fn run(matches: &clap::ArgMatches) -> Result<(), String> {
    let mut accelerators = Vec::new();
    for spec in split_axis("--accelerators", matches.value_of("accelerators").unwrap())? {
        let (acc, _) = resolve_accelerator(&spec)?;
        accelerators.push(acc);
    }
    let mut workloads = Vec::new();
    for spec in split_axis("--workloads", matches.value_of("workloads").unwrap())? {
        let (net, _) = resolve_workload(&spec)?;
        workloads.push(net);
    }
    let mut policies: Vec<FusePolicy> = Vec::new();
    for spec in split_axis("--fuse", matches.value_of("fuse").unwrap())? {
        policies.push(FusePolicy::from_keyword(&spec)?);
    }
    let modes = parse_modes(matches.value_of("dfmode").unwrap())?;
    let target = OptimizeTarget::from_keyword(matches.value_of("target").unwrap())?;
    let threads: usize = matches
        .value_of("threads")
        .unwrap()
        .parse()
        .map_err(|_| "--threads expects a non-negative integer".to_string())?;
    let quiet = matches.get_flag("quiet");
    let trace_path = matches.value_of("trace");
    // The matrix report's metrics section is sourced from the telemetry
    // snapshot, so counters are always on here (their cost is a relaxed
    // atomic add); span tracing stays opt-in via --trace.
    defines_telemetry::set_metrics(true);
    if trace_path.is_some() {
        defines_telemetry::set_tracing(true);
    }

    // --tilex/--tiley apply the same explicit grid to every cell; omitted,
    // each workload gets its own default case-study grid inside the runner.
    let explicit_grid = match (matches.value_of("tilex"), matches.value_of("tiley")) {
        (None, None) => None,
        (tilex, tiley) => Some(tile_grid(&workloads[0], tilex, tiley)?),
    };

    let budget = match matches.value_of("budget") {
        Some(spec) => parse_budget(spec)?,
        None => defines_mapping::Budget::unlimited(),
    };
    let deadline = matches
        .value_of("deadline")
        .map(parse_deadline)
        .transpose()?;
    let checkpoint = match (matches.value_of("checkpoint"), matches.value_of("resume")) {
        (Some(_), Some(_)) => {
            return Err(
                "--checkpoint and --resume cannot be combined (both name the \
                        same file; --resume just insists it already exists)"
                    .into(),
            )
        }
        (Some(path), None) => Some(std::path::PathBuf::from(path)),
        (None, Some(path)) => {
            // --resume demands an existing, non-empty checkpoint: a typo'd
            // path silently starting a fresh run would be a footgun.
            let is_populated = std::fs::metadata(path)
                .map(|m| m.len() > 0)
                .unwrap_or(false);
            if !is_populated {
                return Err(format!(
                    "nothing to resume: '{path}' is missing or empty (use --checkpoint \
                     to start a new checkpointed run)"
                ));
            }
            Some(std::path::PathBuf::from(path))
        }
        (None, None) => None,
    };

    let mut engine = EngineConfig::parallel();
    if threads > 0 {
        engine = engine.with_threads(threads);
    }
    let config = MatrixConfig {
        engine,
        fast_mapper: !matches.get_flag("full-mapper"),
        budget,
        deadline,
        checkpoint,
        ..MatrixConfig::default()
    };

    let total = accelerators.len() * workloads.len() * policies.len();
    println!(
        "matrix: {} accelerators x {} workloads x {} fuse policies = {total} cells | \
         target: {target} | {} outer threads, shared mapping cache",
        accelerators.len(),
        workloads.len(),
        policies.len(),
        config.engine.threads,
    );

    let width = total.to_string().len();
    let mut done = 0usize;
    let report = run_matrix(
        &accelerators,
        &workloads,
        &policies,
        explicit_grid.as_deref(),
        &modes,
        target,
        &config,
        |cell| {
            done += 1;
            if let Some(error) = &cell.error {
                // Failures stream even under --quiet: a silently dropped
                // cell would misreport the matrix as complete.
                eprintln!("[{done:>width$}/{total}] {}  FAILED: {error}", cell.label);
            } else if !quiet {
                println!(
                    "[{done:>width$}/{total}] {}  {target} {:.4e}  ({} stacks){}",
                    cell.label,
                    cell.value,
                    cell.stacks.len(),
                    if cell.degraded {
                        "  [budget-degraded]"
                    } else {
                        ""
                    },
                );
            }
        },
    )
    .map_err(|e| e.to_string())?;

    println!("\nranking ({target}, best strategy per workload):");
    for entry in &report.ranking {
        if entry.total_value == f64::MAX {
            println!(
                "  {:>2}. {:<22} starved (a workload had no successful cell)",
                entry.rank, entry.accelerator,
            );
        } else {
            println!(
                "  {:>2}. {:<22} total {:.4e}  ({:.3}x of best)",
                entry.rank, entry.accelerator, entry.total_value, entry.ratio_to_best,
            );
        }
    }
    println!(
        "\nengine          : {} cells in {:.1} ms on {} threads (inner searches: {} design \
         points)",
        report.stats.evaluated,
        report.stats.elapsed.as_secs_f64() * 1e3,
        report.stats.threads,
        report.inner_stats.evaluated,
    );
    if let Some(cache) = &report.stats.cache {
        println!(
            "mapping cache   : {} sub-problems, {} hits / {} misses ({:.1}% hit rate, {} \
             canonical)",
            cache.entries,
            cache.hits,
            cache.misses,
            cache.hit_rate() * 100.0,
            cache.canonical_hits,
        );
    }

    if let Some(metrics) = report
        .metrics
        .get("search.orderings_evaluated")
        .zip(report.metrics.get("search.pruned_bound"))
    {
        println!(
            "mapping search  : {} orderings evaluated, {} pruned by bound, {} by symmetry, \
             {} nodes",
            metrics.0,
            metrics.1,
            report.metrics.get("search.pruned_symmetry").unwrap_or(0),
            report.metrics.get("search.nodes").unwrap_or(0),
        );
    }

    // Fault-tolerance counters, printed only when something actually
    // happened — a clean run stays visually identical to one without the
    // fault machinery.
    let fault = |name: &str| report.metrics.get(name).unwrap_or(0);
    let (failed, resumed, panics, budget_hits) = (
        fault("fault.cells_failed"),
        fault("fault.cells_resumed"),
        fault("fault.caught_panics"),
        fault("fault.budget_exhausted"),
    );
    if failed + resumed + panics + budget_hits > 0 {
        println!(
            "faults          : {failed} cells failed, {resumed} resumed from checkpoint, \
             {panics} panics caught, {budget_hits} budget exhaustions",
        );
    }

    if let Some(path) = trace_path {
        let events = defines_telemetry::drain_events();
        let trace = defines_telemetry::chrome_trace(&events);
        std::fs::write(path, trace.to_json()).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("trace           : {} spans written to {path}", events.len());
    }

    if let Some(path) = matches.value_of("json") {
        std::fs::write(path, serde::to_json_pretty(&report))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote JSON report to {path}");
    }
    if let Some(path) = matches.value_of("markdown") {
        std::fs::write(path, report.to_markdown())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote markdown report to {path}");
    }

    // Partial failure must be visible to scripts: the reports above are
    // complete (failed cells carry their error), but the exit code says the
    // grid is not — completed cells are checkpointed, so a --resume rerun
    // only retries the failures.
    if report.stats.failed > 0 {
        eprintln!(
            "warning: {} of {} cells failed (see FAILED lines above); rerun with \
             --resume to retry them",
            report.stats.failed,
            report.cells.len(),
        );
        std::process::exit(2);
    }
    Ok(())
}

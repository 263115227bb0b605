//! `sweep` — explore the depth-first scheduling space from the command line.
//!
//! Mirrors the upstream DeFiNES artifact's interface and runs on the
//! parallel exploration engine with mapping memoization and lower-bound
//! pruning:
//!
//! ```text
//! cargo run --release --bin sweep -- \
//!     --workload fsrcnn --accelerator meta-proto-df --dfmode 123 --tilex 60 --tiley 72
//! ```
//!
//! Omitting `--tilex`/`--tiley` sweeps the default case-study tile grid.
//! Results stream as they complete; the best strategy, the single-layer /
//! layer-by-layer baselines and the engine statistics are printed at the
//! end, and `--json PATH` dumps everything machine-readable.

use clap::{Arg, ArgAction, Command};
use defines_arch::zoo;
use defines_cli::{parse_budget, parse_modes, resolve_accelerator, resolve_workload, tile_grid};
use defines_core::{CellStack, DfCostModel, Explorer, FusePolicy, OptimizeTarget, ScheduleResult};
use defines_engine::{EngineConfig, Outcome};
use defines_workload::{models, Network};
use serde::{Serialize, Writer};

fn main() {
    let matches = Command::new("sweep")
        .about(
            "DeFiNES depth-first scheduling sweep: evaluates (tile size x overlap mode) design \
             points on the parallel exploration engine and reports the best strategy.",
        )
        .version(env!("CARGO_PKG_VERSION"))
        .arg(
            Arg::new("workload")
                .long("workload")
                .value_name("NAME|FILE")
                .default_value("fsrcnn")
                .help(format!(
                    "Workload: {}; or a path to a workload JSON file",
                    models::names().join(", ")
                )),
        )
        .arg(
            Arg::new("accelerator")
                .long("accelerator")
                .value_name("NAME|FILE")
                .default_value("meta-proto-df")
                .help(format!(
                    "Accelerator: {}; or a path to an accelerator JSON file",
                    zoo::names().join(", ")
                )),
        )
        .arg(
            Arg::new("dfmode")
                .long("dfmode")
                .value_name("DIGITS")
                .default_value("123")
                .help("Overlap modes: 1 fully-recompute, 2 H-cached V-recompute, 3 fully-cached"),
        )
        .arg(
            Arg::new("tilex")
                .long("tilex")
                .value_name("LIST")
                .help("Comma-separated tile widths (with --tiley; omit both for the default grid)"),
        )
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
            Arg::new("fuse")
                .long("fuse")
                .value_name("POLICY")
                .default_value("auto")
                .help(
                    "Fuse depth (axis 3): auto (weight-budget heuristic), full (one stack), \
                     single (one layer per stack), search (DP over stack partitions)",
                ),
        )
        .arg(
            Arg::new("threads")
                .long("threads")
                .value_name("N")
                .default_value("0")
                .help("Engine worker threads (0 = one per core)"),
        )
        .arg(
            Arg::new("budget")
                .long("budget")
                .value_name("ORD[,DP]")
                .help(
                    "Deterministic search budget: max candidate orderings per mapping \
                     search, optionally followed by max DP relaxation steps (0 = \
                     unlimited). Budget-capped results are flagged degraded",
                ),
        )
        .arg(
            Arg::new("no-prune")
                .long("no-prune")
                .action(ArgAction::SetTrue)
                .help("Disable lower-bound pruning (evaluate every design point)"),
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
            Arg::new("json")
                .long("json")
                .value_name("PATH")
                .help("Write the sweep records, best strategy and statistics as JSON"),
        )
        .arg(Arg::new("trace").long("trace").value_name("PATH").help(
            "Record pipeline spans and write a Chrome trace-event JSON file \
                     (open in Perfetto or chrome://tracing)",
        ))
        .arg(
            Arg::new("profile")
                .long("profile")
                .action(ArgAction::SetTrue)
                .help("Print a per-phase wall-time breakdown and a metrics snapshot"),
        )
        .arg(
            Arg::new("quiet")
                .long("quiet")
                .short('q')
                .action(ArgAction::SetTrue)
                .help("Suppress per-point streaming output"),
        )
        .get_matches();

    if let Err(message) = run(&matches) {
        eprintln!("error: {message}");
        std::process::exit(1);
    }
}

/// One `records` entry of the JSON report: a sweep record without its cost.
/// Each outcome keeps its own key (`value`, `lower_bound` or `error`).
struct RecordRow {
    index: usize,
    strategy: String,
    outcome: Outcome<()>,
}

impl Serialize for RecordRow {
    fn serialize(&self, w: &mut Writer<'_>) {
        w.begin_object();
        w.field("index", &self.index);
        w.field("strategy", &self.strategy);
        match &self.outcome {
            Outcome::Evaluated { value, .. } => w.field("value", value),
            Outcome::Pruned { lower_bound } => w.field("lower_bound", lower_bound),
            Outcome::Failed { error } => w.field("error", error),
        }
        w.field("pruned", &matches!(self.outcome, Outcome::Pruned { .. }));
        w.end_object();
    }
}

/// Writes the report's `schedule` section: the chosen partition and
/// per-stack strategy choices.
fn write_schedule(w: &mut Writer<'_>, net: &Network, schedule: &ScheduleResult) {
    w.begin_object();
    w.field("policy", schedule.policy.keyword());
    w.field("candidates", &schedule.candidates);
    w.field("degraded", &schedule.degraded);
    w.key("partition");
    w.begin_array();
    for choice in &schedule.choices {
        w.item(&CellStack::new(net, choice));
    }
    w.end_array();
    w.field("energy_pj", &schedule.cost.energy_pj);
    w.field("latency_cycles", &schedule.cost.latency_cycles);
    w.field("stats", &schedule.stats);
    w.end_object();
}

/// Prints the chosen partition and per-stack choices, one line per stack.
fn print_schedule(net: &Network, schedule: &ScheduleResult, target: defines_core::OptimizeTarget) {
    println!(
        "fuse schedule   : {} | {} stacks from {} candidates",
        schedule.policy,
        schedule.choices.len(),
        schedule.candidates
    );
    for (i, choice) in schedule.choices.iter().enumerate() {
        let first = net.layer(choice.stack.first_layer()).name.as_str();
        let last = net.layer(choice.stack.last_layer()).name.as_str();
        let span = if choice.stack.len() == 1 {
            first.to_string()
        } else {
            format!("{first}..{last} ({} layers)", choice.stack.len())
        };
        println!(
            "  stack {:>2}: {span}  | tile {} | {} | {target} {:.4e}",
            i + 1,
            choice.tile,
            choice.mode,
            choice.value
        );
    }
}

fn run(matches: &clap::ArgMatches) -> Result<(), String> {
    let (net, workload_source) = resolve_workload(matches.value_of("workload").unwrap())?;
    let (acc, accelerator_source) = resolve_accelerator(matches.value_of("accelerator").unwrap())?;
    let modes = parse_modes(matches.value_of("dfmode").unwrap())?;
    let grid = tile_grid(&net, matches.value_of("tilex"), matches.value_of("tiley"))?;
    let target = OptimizeTarget::from_keyword(matches.value_of("target").unwrap())?;
    let policy = FusePolicy::from_keyword(matches.value_of("fuse").unwrap())?;
    let threads: usize = matches
        .value_of("threads")
        .unwrap()
        .parse()
        .map_err(|_| "--threads expects a non-negative integer".to_string())?;
    let quiet = matches.get_flag("quiet");
    let trace_path = matches.value_of("trace");
    let profile = matches.get_flag("profile");
    // Tracing and metrics stay off (one relaxed atomic load per probe)
    // unless asked for, so an un-flagged sweep is bit-identical to the
    // uninstrumented binary.
    if trace_path.is_some() || profile {
        defines_telemetry::set_tracing(true);
        defines_telemetry::set_metrics(true);
    }
    let metrics_before = defines_telemetry::snapshot();

    let mut model = DfCostModel::new(&acc);
    if !matches.get_flag("full-mapper") {
        model = model.with_fast_mapper();
    }
    if let Some(spec) = matches.value_of("budget") {
        model = model.with_search_budget(parse_budget(spec)?);
    }

    let mut config = EngineConfig::parallel();
    if threads > 0 {
        config = config.with_threads(threads);
    }
    let prune = !matches.get_flag("no-prune");
    let mut explorer = Explorer::new(&model)
        .with_engine_config(config)
        .with_pruning(prune);
    if let Some(fuse) = policy.fixed_fuse_depth() {
        explorer = explorer.with_fuse_depth(fuse);
    }

    // The per-point (tile x mode) sweep fixes the fuse partition per point,
    // so it only makes sense for the fixed-partition policies; `--fuse
    // search` replaces it with the partition search below.
    let run_sweep = policy != FusePolicy::Search;
    let total = grid.len() * modes.len();
    let mut records: Vec<RecordRow> = Vec::new();
    // The best evaluated record, tracked in-stream: minimal value, ties
    // broken by submission index — the same arg-min `best_single_strategy`
    // computes, without re-running the sweep (a pruned point can never beat
    // or tie an evaluated one).
    let mut best: Option<(f64, usize, defines_core::DfSweepRecord)> = None;
    let mut sweep_stats = None;
    if run_sweep {
        println!(
            "sweeping {total} design points ({} tiles x {} modes) of {} on {} | target: {target} \
             | {} | {} engine threads, pruning {}",
            grid.len(),
            modes.len(),
            net.name(),
            acc.name(),
            explorer.fuse_depth(),
            explorer.engine_config().threads,
            if prune { "on" } else { "off" },
        );

        let width = total.to_string().len();
        let mut done = 0usize;
        let stats = explorer
            .sweep_streaming(&net, &grid, &modes, target, |record| {
                done += 1;
                let outcome = match &record.outcome {
                    Outcome::Evaluated { value, .. } => {
                        let better = match &best {
                            None => true,
                            Some((bv, bi, _)) => {
                                *value < *bv || (*value == *bv && record.index < *bi)
                            }
                        };
                        if better {
                            best = Some((*value, record.index, record.clone()));
                        }
                        if !quiet {
                            println!(
                                "[{done:>width$}/{total}] {}  {target} {value:.4e}{}",
                                record.point,
                                if record.is_best_so_far {
                                    "  <- best so far"
                                } else {
                                    ""
                                },
                            );
                        }
                        Outcome::Evaluated {
                            cost: (),
                            value: *value,
                        }
                    }
                    Outcome::Pruned { lower_bound } => {
                        if !quiet {
                            println!(
                                "[{done:>width$}/{total}] {}  pruned (lower bound \
                                 {lower_bound:.4e})",
                                record.point,
                            );
                        }
                        Outcome::Pruned {
                            lower_bound: *lower_bound,
                        }
                    }
                    Outcome::Failed { error } => {
                        // Failures stream even under --quiet: a silently
                        // dropped point would misreport the sweep as complete.
                        eprintln!("[{done:>width$}/{total}] {}  FAILED: {error}", record.point,);
                        Outcome::Failed {
                            error: error.clone(),
                        }
                    }
                };
                records.push(RecordRow {
                    index: record.index,
                    strategy: record.point.to_string(),
                    outcome,
                });
            })
            .map_err(|e| e.to_string())?;
        sweep_stats = Some(stats);
    } else {
        println!(
            "searching stack partitions of {} on {} | target: {target} | {} | {} engine threads",
            net.name(),
            acc.name(),
            policy,
            explorer.engine_config().threads,
        );
    }

    // The schedule search over the requested fuse policy: for the fixed
    // policies this picks the best (tile, mode) per stack of the fixed
    // partition; for `search` it additionally searches the partition itself.
    let schedule = explorer
        .best_schedule(&net, &grid, &modes, target, &policy)
        .map_err(|e| e.to_string())?;
    let schedule_value = schedule.value(target, &acc);

    let (sl, lbl) = explorer.baselines(&net).map_err(|e| e.to_string())?;
    let (sl_value, lbl_value) = (target.value(&sl, &acc), target.value(&lbl, &acc));

    println!();
    if let Some((best_value, _, best)) = &best {
        let best_cost = best.cost().expect("tracked best is always evaluated");
        println!("best strategy   : {}", best.point);
        println!(
            "  {target}: {best_value:.4e}  (energy {:.3} mJ, latency {:.3} Mcycles)",
            best_cost.energy_mj(),
            best_cost.latency_mcycles()
        );
    }
    print_schedule(&net, &schedule, target);
    println!(
        "  {target}: {schedule_value:.4e}  (energy {:.3} mJ, latency {:.3} Mcycles)",
        schedule.cost.energy_mj(),
        schedule.cost.latency_mcycles()
    );
    if schedule.degraded {
        println!(
            "  note: search budget exhausted — this schedule is the best found \
             within --budget, not a proven optimum"
        );
    }
    // Ratios are reported against the best result on screen: the searched
    // schedule, or the best swept single strategy when that is stronger
    // (possible under the fixed policies, whose combination search routes
    // feature maps between stacks through DRAM).
    let reference = best
        .as_ref()
        .map_or(schedule_value, |(v, _, _)| v.min(schedule_value));
    println!(
        "single-layer    : {target} {sl_value:.4e}  ({:.2}x of best)",
        sl_value / reference
    );
    println!(
        "layer-by-layer  : {target} {lbl_value:.4e}  ({:.2}x of best)",
        lbl_value / reference
    );
    let engine_stats = sweep_stats.as_ref().unwrap_or(&schedule.stats);
    let cache = model.mapping_cache().stats();
    println!(
        "engine          : {} evaluated, {} pruned{} in {:.1} ms on {} threads ({:.0} points/s)",
        engine_stats.evaluated,
        engine_stats.pruned,
        if engine_stats.failed > 0 {
            format!(", {} failed", engine_stats.failed)
        } else {
            String::new()
        },
        engine_stats.elapsed.as_secs_f64() * 1e3,
        engine_stats.threads,
        engine_stats.points_per_second(),
    );
    println!(
        "mapping cache   : {} sub-problems, {} hits / {} misses ({:.1}% hit rate, {} canonical)",
        cache.entries,
        cache.hits,
        cache.misses,
        cache.hit_rate() * 100.0,
        cache.canonical_hits,
    );

    // Export telemetry after every engine run has finished (the scoped
    // worker threads have exited, so the drain sees all their spans).
    let mut profile_json = None;
    if trace_path.is_some() || profile {
        let events = defines_telemetry::drain_events();
        let metrics = defines_telemetry::snapshot().since(&metrics_before);
        if let Some(path) = trace_path {
            let trace = defines_telemetry::chrome_trace(&events);
            std::fs::write(path, trace.to_json())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("trace           : {} spans written to {path}", events.len());
        }
        let breakdown = defines_telemetry::PhaseBreakdown::from_events(&events);
        if profile {
            println!("\n## Phase breakdown\n");
            print!("{}", breakdown.to_markdown());
            println!("\n## Metrics\n");
            for metric in &metrics.values {
                println!("| `{}` | {} |", metric.name, metric.value);
            }
        }
        profile_json = Some((breakdown, metrics));
    }

    if let Some(path) = matches.value_of("json") {
        let mut out = String::new();
        let w = &mut Writer::pretty(&mut out);
        w.begin_object();
        w.field("workload", net.name());
        w.field("workload_source", workload_source.as_str());
        w.field("accelerator", acc.name());
        w.field("accelerator_source", accelerator_source.as_str());
        w.field("target", &target.to_string());
        w.field("fuse", schedule.policy.keyword());
        if let Some((value, _, best)) = &best {
            let cost = best.cost().expect("tracked best is always evaluated");
            w.key("best");
            w.begin_object();
            w.field("strategy", &best.point.to_string());
            w.field("value", value);
            w.field("energy_pj", &cost.energy_pj);
            w.field("latency_cycles", &cost.latency_cycles);
            w.end_object();
        }
        w.key("schedule");
        write_schedule(w, &net, &schedule);
        w.field("single_layer_value", &sl_value);
        w.field("layer_by_layer_value", &lbl_value);
        w.field("stats", engine_stats);
        w.field("cache", &cache);
        w.field("records", &records);
        if let Some((breakdown, metrics)) = &profile_json {
            w.key("profile");
            w.begin_object();
            w.field("breakdown", breakdown);
            w.field("metrics", metrics);
            w.end_object();
        }
        w.end_object();
        std::fs::write(path, out).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote JSON report to {path}");
    }
    Ok(())
}

//! `defines-request` — client for the `serve` daemon, with a `--standalone`
//! mode that computes the same request locally (one single-item batch) so
//! harnesses can byte-compare daemon answers against ground truth.
//!
//! ```text
//! # Ask the daemon:
//! defines-request --addr 127.0.0.1:7878 --workload fsrcnn \
//!     --accelerator meta-proto-df --dfmode 3 --tilex 60 --tiley 72
//!
//! # Same request, no daemon (must print the same bytes):
//! defines-request --standalone --workload fsrcnn \
//!     --accelerator meta-proto-df --dfmode 3 --tilex 60 --tiley 72
//!
//! # Daemon management:
//! defines-request --addr 127.0.0.1:7878 --stats
//! defines-request --addr 127.0.0.1:7878 --shutdown
//! ```
//!
//! The response line is printed to stdout verbatim; the exit code is 0 only
//! for `"ok": true` responses.

use clap::{Arg, ArgAction, Command};
use defines_cli::{parse_budget, parse_tile_axis, resolve_accelerator, resolve_workload};
use defines_core::{run_batch, BatchConfig};
use defines_serve::{render_outcome, send_line, ScheduleRequest};
use serde::{Fields, Tape};

fn main() {
    let matches = Command::new("defines-request")
        .about(
            "Client for the DeFiNES scheduling daemon; --standalone computes the request \
             locally for byte-comparison against daemon answers.",
        )
        .version(env!("CARGO_PKG_VERSION"))
        .arg(
            Arg::new("addr")
                .long("addr")
                .value_name("HOST:PORT")
                .default_value("127.0.0.1:7878")
                .help("Daemon address (ignored with --standalone)"),
        )
        .arg(
            Arg::new("workload")
                .long("workload")
                .value_name("SPEC")
                .help("Workload: a zoo name or a workload JSON path"),
        )
        .arg(
            Arg::new("accelerator")
                .long("accelerator")
                .value_name("SPEC")
                .help("Accelerator: a zoo name or an accelerator JSON path"),
        )
        .arg(
            Arg::new("dfmode")
                .long("dfmode")
                .value_name("DIGITS")
                .default_value("123")
                .help("Overlap modes: 1 fully-recompute, 2 H-cached V-recompute, 3 fully-cached"),
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
                .value_name("NAME")
                .default_value("auto")
                .help("Fuse policy: auto, full, single, search"),
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
            Arg::new("standalone")
                .long("standalone")
                .action(ArgAction::SetTrue)
                .help("Compute locally instead of asking a daemon (same response bytes)"),
        )
        .arg(
            Arg::new("full-mapper")
                .long("full-mapper")
                .action(ArgAction::SetTrue)
                .help("Standalone mode: search every temporal-mapping ordering (pruned, exact)"),
        )
        .arg(
            Arg::new("budget")
                .long("budget")
                .value_name("ORD[,DP]")
                .help("Standalone mode: deterministic search budget (0 = unlimited)"),
        )
        .arg(
            Arg::new("stats")
                .long("stats")
                .action(ArgAction::SetTrue)
                .help("Ask the daemon for its serve/cache/store statistics"),
        )
        .arg(
            Arg::new("ping")
                .long("ping")
                .action(ArgAction::SetTrue)
                .help("Check the daemon is alive"),
        )
        .arg(
            Arg::new("shutdown")
                .long("shutdown")
                .action(ArgAction::SetTrue)
                .help("Ask the daemon to persist its cache and exit"),
        )
        .get_matches();

    match run(&matches) {
        Ok(response) => {
            println!("{response}");
            let mut tape = Tape::new();
            let ok = tape
                .parse(&response)
                .ok()
                .and_then(|v| Fields::root(&v).ok()?.get("ok")?.as_bool())
                .unwrap_or(false);
            if !ok {
                std::process::exit(1);
            }
        }
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(1);
        }
    }
}

fn run(matches: &clap::ArgMatches) -> Result<String, String> {
    let addr = matches.value_of("addr").unwrap();
    for (flag, cmd) in [
        ("ping", "ping"),
        ("stats", "stats"),
        ("shutdown", "shutdown"),
    ] {
        if matches.get_flag(flag) {
            return send_line(addr, &format!(r#"{{"cmd":"{cmd}"}}"#));
        }
    }

    let workload = matches
        .value_of("workload")
        .ok_or("--workload is required for schedule requests")?;
    let accelerator = matches
        .value_of("accelerator")
        .ok_or("--accelerator is required for schedule requests")?;
    let tile_axis = |flag: &str| -> Result<Vec<u64>, String> {
        matches
            .value_of(flag)
            .map(|list| parse_tile_axis(&format!("--{flag}"), list))
            .transpose()
            .map(Option::unwrap_or_default)
    };
    // The protocol's own constructor: the client validates and
    // canonicalizes exactly like the daemon, so both paths send/answer the
    // same canonical request. An omitted tile axis is empty (the default
    // grid).
    let request = ScheduleRequest::new(
        workload,
        accelerator,
        matches.value_of("dfmode").unwrap(),
        matches.value_of("target").unwrap(),
        matches.value_of("fuse").unwrap(),
        tile_axis("tilex")?,
        tile_axis("tiley")?,
    )?;

    if !matches.get_flag("standalone") {
        return send_line(addr, &request.canonical_key());
    }

    // Standalone ground truth: the same single-item batch shape the daemon
    // runs, over a cold cache.
    let (acc, _) = resolve_accelerator(&request.accelerator)?;
    let (net, _) = resolve_workload(&request.workload)?;
    let budget = match matches.value_of("budget") {
        Some(spec) => parse_budget(spec)?,
        None => defines_mapping::Budget::unlimited(),
    };
    let config = BatchConfig {
        fast_mapper: !matches.get_flag("full-mapper"),
        budget,
        ..BatchConfig::default()
    };
    let items = vec![request.to_batch_item(acc, net)];
    let outcomes = run_batch(&items, &config);
    Ok(render_outcome(&request, &outcomes[0]))
}

//! `benchmark run` / `benchmark aa` — see `README.md`.

use defines_benchmark::metrics::END_TO_END;
use defines_benchmark::runner::{self, RunArgs};
use defines_benchmark::workloads::WORKLOADS;
use defines_benchmark::{inputs, report, spec};
use serde::Value;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str =
    "usage: benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--e2e]
       benchmark aa  [--workload NAME] [--seed N] [--seconds S]

run  with --workload and --trace: one pass of one workload in this process;
     the last stdout line is the result as one JSON object.
     otherwise: every workload (or the named one), each pass in a fresh child
     process — end to end first, then traced (--e2e skips it) — and
     benchmark/out/run.json.
aa   the end-to-end pass twice per workload; prints how far the two disagree
     against each metric's bound.";

struct Cli {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    e2e_only: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or("missing command")?;
    let mut cli = Cli {
        command,
        workload: None,
        seed: spec::pinned_seed(),
        seconds: spec::run_seconds(),
        trace: None,
        e2e_only: false,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload '{name}' (expected one of: {})",
                        WORKLOADS.join(", ")
                    ));
                }
                cli.workload = Some(name);
            }
            "--seed" => {
                cli.seed = value()?
                    .parse()
                    .map_err(|_| "--seed expects a non-negative integer".to_string())?;
            }
            "--seconds" => {
                cli.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds expects a positive number")?;
            }
            "--trace" => {
                cli.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                });
            }
            "--e2e" => cli.e2e_only = true,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(why) => {
            eprintln!("error: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (cli.command.as_str(), &cli.workload, cli.trace) {
        ("run", Some(workload), Some(trace)) => single_pass(RunArgs {
            workload: workload.clone(),
            seed: cli.seed,
            seconds: cli.seconds,
            trace,
        }),
        ("run", _, _) => run_all(&cli),
        ("aa", _, _) => aa(&cli),
        (other, _, _) => Err(format!("unknown command '{other}'\n{USAGE}")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("error: {why}");
            ExitCode::FAILURE
        }
    }
}

/// One pass in this process. Returns whether every check held.
fn single_pass(args: RunArgs) -> Result<bool, String> {
    std::fs::create_dir_all(inputs::out_dir())
        .map_err(|e| format!("cannot create {}: {e}", inputs::out_dir().display()))?;
    let result = if args.trace {
        runner::traced(&args)?
    } else {
        runner::end_to_end(&args)?
    };
    report::print_pass(&args, &result);
    println!("{}", report::result_value(&result).to_json());
    Ok(result.correct)
}

/// Runs one pass in a fresh child process of this binary, passing its
/// human-readable lines through, and returns its result object. A fresh
/// process per pass keeps `peak_rss_mb` and the process-global telemetry
/// switches (`Server::bind` turns metrics on for good) per workload.
fn child_pass(workload: &str, cli: &Cli, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let output = Command::new(exe)
        .args(["run", "--workload", workload])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child pass: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    lines.iter().for_each(|line| println!("{line}"));
    serde_json::from_str(last)
        .ok()
        .filter(|v: &Value| v.get("metrics").is_some())
        .ok_or_else(|| {
            format!(
                "{workload} pass printed no result (exit {:?}): {last}",
                output.status.code()
            )
        })
}

fn selected(cli: &Cli) -> Vec<&str> {
    match &cli.workload {
        Some(name) => vec![name.as_str()],
        None => WORKLOADS.to_vec(),
    }
}

fn is_correct(result: &Value) -> bool {
    result.get("correct").and_then(Value::as_bool) == Some(true)
}

/// `run` without `--trace`: both passes of every selected workload, then
/// `benchmark/out/run.json`.
fn run_all(cli: &Cli) -> Result<bool, String> {
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for workload in selected(cli) {
        let mut passes = vec![("end_to_end".to_string(), child_pass(workload, cli, false)?)];
        if !cli.e2e_only {
            passes.push(("per_layer".to_string(), child_pass(workload, cli, true)?));
        }
        all_correct &= passes.iter().all(|(_, result)| is_correct(result));
        workloads.push((workload.to_string(), Value::Object(passes)));
    }
    let path = inputs::out_dir().join("run.json");
    let document = Value::Object(vec![
        (
            "header".into(),
            Value::Object(report::header(cli.seed, cli.seconds)),
        ),
        ("workloads".into(), Value::Object(workloads)),
    ]);
    std::fs::write(&path, document.to_json_pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("# wrote {}", path.display());
    if !all_correct {
        println!("# FAILED: at least one check did not hold (see CHECK FAILED lines)");
    }
    Ok(all_correct)
}

/// `aa`: the end-to-end pass twice on the same code; every metric's relative
/// difference against its bound. The two runs should agree within bounds —
/// if they do not, the benchmark (not the program) needs fixing.
fn aa(cli: &Cli) -> Result<bool, String> {
    let mut within = true;
    for workload in selected(cli) {
        let first = child_pass(workload, cli, false)?;
        let second = child_pass(workload, cli, false)?;
        within &= is_correct(&first) && is_correct(&second);
        for def in END_TO_END {
            let value = |result: &Value| {
                result
                    .get("metrics")
                    .and_then(|m| m.get(def.name))
                    .and_then(|m| m.get("value"))
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("{workload} result lacks {}", def.name))
            };
            let (a, b) = (value(&first)?, value(&second)?);
            let difference = (b - a).abs() / a.abs();
            let ok = difference <= def.bound;
            within &= ok;
            println!(
                "aa {workload} {} {a} vs {b} {}: differs {:.2}% (bound {:.0}%) {}",
                def.name,
                def.unit,
                difference * 100.0,
                def.bound * 100.0,
                if ok { "ok" } else { "OUTSIDE BOUND" }
            );
        }
    }
    Ok(within)
}

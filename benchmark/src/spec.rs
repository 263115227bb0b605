//! The two committed documents the harness checks itself against:
//! `BENCHMARK.json` (the contract: command, run length, metric tables) and
//! `benchmark/baseline.json` (pinned result hashes and the first baseline).
//! Both are compiled in, so the binary carries the contract it was built
//! with wherever it runs.

use serde::Value;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
const BASELINE_JSON: &str = include_str!("../baseline.json");

fn parse(name: &str, text: &str) -> Value {
    serde_json::from_str(text).unwrap_or_else(|e| panic!("{name} is not valid JSON: {e}"))
}

/// `BENCHMARK.json`, parsed.
pub fn benchmark() -> Value {
    parse("BENCHMARK.json", BENCHMARK_JSON)
}

/// `benchmark/baseline.json`, parsed.
pub fn baseline() -> Value {
    parse("benchmark/baseline.json", BASELINE_JSON)
}

/// How long one run measures: `run_seconds` of `BENCHMARK.json`, the
/// default of `--seconds`.
pub fn run_seconds() -> f64 {
    benchmark()
        .get("run_seconds")
        .and_then(Value::as_f64)
        .expect("BENCHMARK.json has a numeric run_seconds")
}

/// The default `--seed`: the one the result hashes are pinned at.
pub fn pinned_seed() -> u64 {
    baseline()
        .get("seed")
        .and_then(Value::as_u64)
        .expect("baseline.json has a seed")
}

/// The pinned `model.result_fnv` of a workload, if `seed` is the pinned one
/// (at any other seed a run can only check itself for consistency).
pub fn result_fnv(workload: &str, seed: u64) -> Option<u64> {
    if seed != pinned_seed() {
        return None;
    }
    let hex = baseline()
        .get("result_fnv")?
        .get(workload)?
        .as_str()?
        .to_string();
    Some(u64::from_str_radix(&hex, 16).expect("pinned result_fnv is 16 hex digits"))
}

//! Output: the human-readable lines, the driver's final JSON line, and the
//! header naming the host and the commit the numbers belong to.

use crate::host;
use crate::inputs;
use crate::runner::{RunArgs, RunResult};
use crate::workloads;
use serde::Value;

/// The commit of the checkout, or `unknown` outside a git repository (the
/// driver's checkout is not one).
pub fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(inputs::repo_root())
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The header: everything needed to tell two result sets apart.
pub fn header(seed: u64, seconds: f64) -> Vec<(String, Value)> {
    vec![
        ("commit".into(), Value::Str(git_commit())),
        ("nproc".into(), Value::U64(host::nproc() as u64)),
        (
            "parallel_threads".into(),
            Value::U64(workloads::parallel_threads() as u64),
        ),
        ("seed".into(), Value::U64(seed)),
        ("seconds".into(), Value::F64(seconds)),
    ]
}

/// Prints one pass: a header line, one line per metric
/// (`workload metric value unit`), the sample summaries behind the timings,
/// and any failed check.
pub fn print_pass(args: &RunArgs, result: &RunResult) {
    let header: Vec<String> = header(args.seed, args.seconds)
        .iter()
        .map(|(k, v)| format!("{k}={}", v.to_json().trim_matches('"')))
        .collect();
    println!(
        "# {} {} {}",
        args.workload,
        if args.trace { "traced" } else { "end-to-end" },
        header.join(" ")
    );
    for (def, value) in &result.metrics {
        println!("{} {} {} {}", args.workload, def.name, value, def.unit);
    }
    for (name, s) in &result.summaries {
        let tail = s
            .tail
            .map_or(String::new(), |(p, v)| format!(" p{p}={v:.6}"));
        println!(
            "# {} {name}: n={} min={:.6} q1={:.6} median={:.6} q3={:.6} max={:.6}{tail}",
            args.workload, s.n, s.min, s.q1, s.median, s.q3, s.max
        );
    }
    println!("# {} result_fnv={:016x}", args.workload, result.result_fnv);
    for failure in &result.failures {
        println!("# {} CHECK FAILED: {failure}", args.workload);
    }
}

/// The driver's result object: exactly `correct`, `attempted`, `failed` and
/// `metrics` (name → value + unit).
pub fn result_value(result: &RunResult) -> Value {
    Value::Object(vec![
        ("correct".into(), Value::Bool(result.correct)),
        ("attempted".into(), Value::U64(result.attempted)),
        ("failed".into(), Value::U64(result.failed)),
        (
            "metrics".into(),
            Value::Object(
                result
                    .metrics
                    .iter()
                    .map(|(def, value)| {
                        (
                            def.name.to_string(),
                            Value::Object(vec![
                                ("value".into(), Value::F64(*value)),
                                ("unit".into(), Value::Str(def.unit.to_string())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

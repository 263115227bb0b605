//! Black-box tests of the binaries' error behaviour: malformed input must
//! print a named error on stderr and exit nonzero — never a panic backtrace
//! — and the matrix checkpoint flags must round-trip through the binary.

use std::path::PathBuf;
use std::process::{Command, Output};

fn sweep() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sweep"))
}

fn matrix() -> Command {
    Command::new(env!("CARGO_BIN_EXE_matrix"))
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

/// Asserts the command failed cleanly: nonzero exit, an `error:`-prefixed
/// message containing `needle`, and no panic machinery in sight.
fn assert_clean_failure(mut cmd: Command, needle: &str) {
    let output = cmd.output().expect("binary runs");
    let err = stderr(&output);
    assert!(
        !output.status.success(),
        "expected nonzero exit, got success; stderr: {err}"
    );
    assert!(
        err.contains("error:"),
        "stderr must carry the error: prefix: {err}"
    );
    assert!(
        err.contains(needle),
        "stderr must name the cause ({needle}): {err}"
    );
    for forbidden in ["panicked at", "RUST_BACKTRACE", "unwrap"] {
        assert!(
            !err.contains(forbidden),
            "stderr must not show panic machinery ({forbidden}): {err}"
        );
    }
}

#[test]
fn unknown_names_fail_cleanly() {
    assert_clean_failure(
        {
            let mut c = sweep();
            c.args(["--workload", "nope"]);
            c
        },
        "unknown workload",
    );
    assert_clean_failure(
        {
            let mut c = sweep();
            c.args(["--accelerator", "nope"]);
            c
        },
        "unknown accelerator",
    );
    assert_clean_failure(
        {
            let mut c = matrix();
            c.args(["--workloads", "fsrcnn,nope"]);
            c
        },
        "unknown workload",
    );
}

#[test]
fn malformed_flags_fail_cleanly() {
    assert_clean_failure(
        {
            let mut c = sweep();
            c.args(["--dfmode", "7"]);
            c
        },
        "--dfmode",
    );
    assert_clean_failure(
        {
            let mut c = sweep();
            c.args(["--budget", "lots"]);
            c
        },
        "--budget",
    );
    assert_clean_failure(
        {
            let mut c = matrix();
            c.args(["--deadline", "-3"]);
            c
        },
        "--deadline",
    );
    assert_clean_failure(
        {
            let mut c = sweep();
            c.args(["--tilex", "60"]);
            c
        },
        "--tiley",
    );
}

/// The inner search is sequential; the flag that once fanned it out is gone
/// from every binary, not silently accepted.
#[test]
fn removed_search_threads_flag_is_rejected_by_every_binary() {
    for exe in [
        env!("CARGO_BIN_EXE_sweep"),
        env!("CARGO_BIN_EXE_matrix"),
        env!("CARGO_BIN_EXE_serve"),
        env!("CARGO_BIN_EXE_defines-request"),
    ] {
        let mut cmd = Command::new(exe);
        cmd.args(["--search-threads", "4"]);
        assert_clean_failure(cmd, "unknown flag '--search-threads'");
    }
}

#[test]
fn malformed_workload_file_fails_cleanly() {
    let dir = std::env::temp_dir().join(format!("defines-cli-errors-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("broken.json");
    std::fs::write(&path, "{\"layers\": [").unwrap();
    assert_clean_failure(
        {
            let mut c = sweep();
            c.args(["--workload", path.to_str().unwrap()]);
            c
        },
        "workload",
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn checkpoint_flag_misuse_fails_cleanly() {
    assert_clean_failure(
        {
            let mut c = matrix();
            c.args(["--checkpoint", "a.jsonl", "--resume", "a.jsonl"]);
            c
        },
        "cannot be combined",
    );
    assert_clean_failure(
        {
            let mut c = matrix();
            c.args(["--resume", "definitely-missing-dir/nothing.jsonl"]);
            c
        },
        "nothing to resume",
    );
}

/// End-to-end checkpoint round-trip through the binary: an interrupted-style
/// rerun with `--resume` skips every completed cell and still exits cleanly.
#[test]
fn matrix_checkpoint_resumes_through_the_binary() {
    let path: PathBuf = std::env::temp_dir().join(format!(
        "defines-cli-checkpoint-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let grid = [
        "--accelerators",
        "meta-proto-df",
        "--workloads",
        "fsrcnn",
        "--fuse",
        "single",
        "--dfmode",
        "1",
        "--tilex",
        "32",
        "--tiley",
        "32",
    ];

    let mut first = matrix();
    first
        .args(grid)
        .args(["--checkpoint", path.to_str().unwrap()]);
    let output = first.output().expect("binary runs");
    assert!(output.status.success(), "stderr: {}", stderr(&output));
    assert!(path.is_file(), "checkpoint file written");

    let mut second = matrix();
    second.args(grid).args(["--resume", path.to_str().unwrap()]);
    let output = second.output().expect("binary runs");
    assert!(output.status.success(), "stderr: {}", stderr(&output));
    let out = stdout(&output);
    assert!(
        out.contains("1 resumed from checkpoint"),
        "resume must skip the completed cell: {out}"
    );

    // A different grid against the same file is refused, not clobbered.
    let mut clash = matrix();
    clash
        .args(grid)
        .args(["--target", "latency", "--resume", path.to_str().unwrap()]);
    let output = clash.output().expect("binary runs");
    assert!(!output.status.success());
    assert!(
        stderr(&output).contains("checkpoint does not match this run"),
        "stderr: {}",
        stderr(&output)
    );
    let _ = std::fs::remove_file(&path);
}

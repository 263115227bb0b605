//! Fault-injection campaign against the matrix runner: an injected per-cell
//! panic must become exactly one failed cell — siblings bit-identical, the
//! checkpoint uncorrupted, and a clean resume completing the grid; and a kill
//! at any of the checkpoint journal's own sites, in a first run or in a
//! resume, must cost nothing but the re-run of the cells it lost.
#![cfg(feature = "failpoints")]

use defines_core::FusePolicy;
use defines_core::OptimizeTarget;
use defines_core::OverlapMode;
use defines_core::{run_matrix, MatrixConfig, MatrixReport};
use defines_engine::EngineConfig;
use defines_telemetry::fault;
use defines_workload::{Layer, LayerDims, Network, OpType};

fn tiny_net() -> Network {
    let mut net = Network::new("tiny");
    let a = net
        .add_layer(
            Layer::new("a", OpType::Conv, LayerDims::conv(8, 3, 32, 32, 3, 3)),
            &[],
        )
        .unwrap();
    net.add_layer(
        Layer::new("b", OpType::Conv, LayerDims::conv(8, 8, 30, 30, 3, 3)),
        &[a],
    )
    .unwrap();
    net
}

fn run(checkpoint: Option<std::path::PathBuf>) -> Result<MatrixReport, defines_core::MatrixError> {
    let accelerators = [
        defines_arch::zoo::meta_proto_like_df(),
        defines_arch::zoo::tpu_like_df(),
    ];
    let config = MatrixConfig {
        // Sequential outer engine: cells execute in submission order, so an
        // armed failpoint hits a *deterministic* cell.
        engine: EngineConfig::sequential(),
        checkpoint,
        ..MatrixConfig::default()
    };
    run_matrix(
        &accelerators,
        &[tiny_net()],
        &[FusePolicy::Auto, FusePolicy::SingleLayerStacks],
        Some(&[(8, 8), (30, 30)]),
        &OverlapMode::ALL,
        OptimizeTarget::Energy,
        &config,
        |_| {},
    )
}

/// One test function: the fault registry is process-global, so concurrent
/// test threads would race each other's armed sites.
#[test]
fn injected_cell_panic_fails_one_cell_and_resume_completes_the_grid() {
    let baseline = run(None).unwrap();
    assert_eq!(baseline.cells.len(), 4);
    assert!(baseline.cells.iter().all(|c| c.error.is_none()));

    let path = std::env::temp_dir().join(format!(
        "defines-failpoint-matrix-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);

    // Campaign: fire inside the second cell's evaluation.
    let guard = fault::arm("matrix.cell", 2);
    let report = run(Some(path.clone())).unwrap();
    drop(guard);
    assert_eq!(report.stats.failed, 1);
    let failed: Vec<usize> = (0..4)
        .filter(|&i| report.cells[i].error.is_some())
        .collect();
    assert_eq!(failed, vec![1], "exactly the second cell fails");
    assert_eq!(
        report.cells[1].error.as_deref(),
        Some("failpoint matrix.cell fired")
    );
    assert!(report.cells[1].value.is_nan());
    // Every sibling is bit-identical to the fault-free run.
    for i in [0, 2, 3] {
        assert_eq!(
            serde::to_json(&report.cells[i]),
            serde::to_json(&baseline.cells[i]),
            "sibling cell {i} must be unaffected by the injected panic"
        );
    }

    // The failed cell was not checkpointed; the three good ones were.
    let ckpt = defines_core::checkpoint::load(&path).unwrap();
    assert_eq!(ckpt.cells.len(), 3);
    assert!(!ckpt.torn_tail);

    // Resume with nothing armed: only the failed cell re-runs, and the
    // report's deterministic slice matches the fault-free baseline.
    let resumed = run(Some(path.clone())).unwrap();
    assert_eq!(resumed.stats.points, 1);
    let slice = |r: &MatrixReport| serde::to_json(&(&r.cells, &r.ranking, &r.inner_stats));
    assert_eq!(slice(&resumed), slice(&baseline));
    let _ = std::fs::remove_file(&path);

    // Campaign: kill the run at each journal site (the panic escapes
    // `run_matrix`, like the process dying there) — in a first checkpointed
    // run, and in a resume of a half-recorded file with a torn third cell.
    let recorded = {
        run(Some(path.clone())).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1 + 4, "header + one line per cell");
        format!(
            "{}\n{}\n{}\n{}",
            lines[0],
            lines[1],
            lines[2],
            &lines[3][..lines[3].len() / 2]
        )
    };
    let tmp = path.with_file_name(format!(
        "{}.tmp",
        path.file_name().unwrap().to_str().unwrap()
    ));
    let mut injections = 0u64;
    for site in [
        "journal.append",
        "journal.rewrite.begin",
        "journal.rewrite.mid",
        "journal.rewrite.rename",
    ] {
        for fire_at in [1u64, 2, 3] {
            for resuming in [false, true] {
                let what = format!("{site}@{fire_at} (resuming: {resuming})");
                let _ = std::fs::remove_file(&path);
                if resuming {
                    std::fs::write(&path, &recorded).unwrap();
                }
                let guard = fault::arm(site, fire_at);
                let killed = std::panic::catch_unwind(|| run(Some(path.clone()))).is_err();
                let fired = fault::hits(site) >= fire_at;
                drop(guard);
                assert_eq!(killed, fired, "{what}");
                injections += u64::from(fired);

                let healed = run(Some(path.clone())).unwrap_or_else(|e| panic!("{what}: {e}"));
                assert_eq!(slice(&healed), slice(&baseline), "{what}");
                assert!(!tmp.exists(), "{what}: stale .tmp left behind");
                let ckpt = defines_core::checkpoint::load(&path).unwrap();
                assert_eq!(ckpt.cells.len(), 4, "{what}");
                assert!(!ckpt.torn_tail, "{what}");
            }
        }
    }
    assert!(
        injections >= 8,
        "campaign only injected {injections} kills — sites are not being exercised"
    );
    let _ = std::fs::remove_file(&path);
}

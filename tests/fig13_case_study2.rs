//! Integration tests for the declarative accelerator frontend and the
//! case-study matrix runner (DeFiNES §V case study 2, Fig. 13–16): the zoo
//! documents under `accelerators/` are exactly what the exporter writes and
//! round-trip with bit-identical fingerprints, a file-loaded accelerator
//! shares the mapping cache with its built-in twin, and the matrix runner
//! names every `(accelerator, workload, fuse policy)` cell of one
//! shared-cache engine run.

use defines_arch::{loader, schema, zoo};
use defines_core::matrix::{run_matrix, MatrixConfig};
use defines_core::{
    DfCostModel, DfStrategy, Explorer, FusePolicy, OptimizeTarget, OverlapMode, TileSize,
};
use defines_mapping::MappingCache;
use defines_workload::models;
use std::path::PathBuf;

/// Absolute path of a reference file under the repository-root
/// `accelerators/`.
fn accelerator_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../accelerators")
        .join(file)
}

#[test]
fn reference_files_are_regenerable() {
    // Each zoo document is exactly what the exporter writes for the
    // accelerator it loads to — the exporter's end-to-end byte check. The
    // embedded document is `accelerators/<name>.json` as compiled.
    for name in zoo::names() {
        let acc = zoo::by_name(name).unwrap();
        let exported = schema::to_json_pretty(&acc).unwrap() + "\n";
        let document = std::fs::read_to_string(accelerator_path(&format!("{name}.json"))).unwrap();
        assert_eq!(
            document, exported,
            "accelerators/{name}.json is not in exporter form"
        );
    }
}

#[test]
fn every_zoo_accelerator_round_trips_with_identical_fingerprint() {
    // The in-memory export/load round trip is exact for the whole zoo,
    // including the infinite register bandwidths that JSON cannot represent
    // directly (they travel as null).
    for name in zoo::names() {
        let acc = zoo::by_name(name).unwrap();
        let json = schema::to_json_pretty(&acc).unwrap();
        let reloaded = loader::from_json_str(&json).unwrap();
        assert_eq!(reloaded, acc, "{}", acc.name());
        assert_eq!(reloaded.fingerprint(), acc.fingerprint(), "{}", acc.name());
    }
}

#[test]
fn mapping_cache_is_shared_across_file_loaded_and_builtin_accelerators() {
    // The memo key fingerprints the accelerator — not its provenance — so a
    // file-loaded twin re-uses every mapping the builtin evaluation
    // produced, while a *different* architecture does not.
    let builtin = zoo::meta_proto_like_df();
    let loaded = loader::from_json_file(accelerator_path("meta-proto-df.json")).unwrap();
    let other = zoo::tpu_like_df();
    let net = models::fsrcnn();
    let cache = MappingCache::new();
    let strategy = DfStrategy::depth_first(TileSize::new(60, 72), OverlapMode::FullyCached);

    let model_builtin = DfCostModel::new(&builtin)
        .with_fast_mapper()
        .with_shared_cache(cache.clone());
    let cost_builtin = model_builtin.evaluate_network(&net, &strategy).unwrap();
    let misses_after_builtin = cache.stats().misses;
    assert!(misses_after_builtin > 0);

    let model_loaded = DfCostModel::new(&loaded)
        .with_fast_mapper()
        .with_shared_cache(cache.clone());
    let cost_loaded = model_loaded.evaluate_network(&net, &strategy).unwrap();
    assert_eq!(cost_builtin, cost_loaded);
    assert_eq!(
        cache.stats().misses,
        misses_after_builtin,
        "the file-loaded twin must be answered entirely from the shared cache"
    );

    // A different architecture keys a different sub-problem space: its
    // evaluation must add misses, not silently reuse foreign mappings.
    let model_other = DfCostModel::new(&other)
        .with_fast_mapper()
        .with_shared_cache(cache.clone());
    model_other.evaluate_network(&net, &strategy).unwrap();
    assert!(
        cache.stats().misses > misses_after_builtin,
        "a different fingerprint must not hit the twin's cache entries"
    );
}

#[test]
fn matrix_runs_the_case_study_grid_in_one_shared_cache_run() {
    // A small §V-case-study-2 grid: two DF architectures (one of them
    // file-loaded) × FSRCNN × two fuse policies, one flattened engine run.
    let accelerators = [
        zoo::meta_proto_like_df(),
        loader::from_json_file(accelerator_path("tpu-df.json")).unwrap(),
    ];
    let workloads = [models::fsrcnn()];
    let policies = [FusePolicy::Auto, FusePolicy::SingleLayerStacks];
    let config = MatrixConfig::default();
    let report = run_matrix(
        &accelerators,
        &workloads,
        &policies,
        Some(&[(60, 72), (960, 540)]),
        &OverlapMode::ALL,
        OptimizeTarget::Energy,
        &config,
        |_| {},
    )
    .unwrap();

    // One outer engine run, one point per cell.
    assert_eq!(report.stats.points, 4);
    assert_eq!(report.stats.evaluated, 4);
    assert_eq!(report.cells.len(), 4);

    // Every (accelerator, workload, policy) cell is named in the report.
    for acc in ["Meta-proto-like DF", "TPU-like DF"] {
        for policy in ["auto", "single"] {
            let cell = report
                .cell(acc, "FSRCNN", policy)
                .unwrap_or_else(|| panic!("missing cell {acc}/{policy}"));
            assert!(cell.energy_pj > 0.0);
            assert!(!cell.stacks.is_empty());
        }
    }
    let json = serde::Serialize::to_value(&report).to_json();
    for needle in [
        "\"accelerator\":\"Meta-proto-like DF\"",
        "\"accelerator\":\"TPU-like DF\"",
        "\"workload\":\"FSRCNN\"",
        "\"fuse\":\"auto\"",
        "\"fuse\":\"single\"",
    ] {
        assert!(json.contains(needle), "JSON report must contain {needle}");
    }

    // The shared cache served cells across policies of the same accelerator.
    let cache = report.stats.cache.as_ref().unwrap();
    assert!(cache.hits > 0);

    // The markdown report has a ranking row per accelerator.
    let md = report.to_markdown();
    for (rank, _) in report.ranking.iter().enumerate() {
        assert!(
            md.contains(&format!("| {} | ", rank + 1)),
            "ranking row {} missing:\n{md}",
            rank + 1
        );
    }
    for acc in ["Meta-proto-like DF", "TPU-like DF"] {
        assert!(md.contains(acc), "{md}");
    }

    // The auto policy can only match or beat single-layer stacks per
    // accelerator (its candidate set is a superset per stack choice on the
    // same grid for FSRCNN, whose auto partition is one full stack).
    for acc in ["Meta-proto-like DF", "TPU-like DF"] {
        let auto = report.cell(acc, "FSRCNN", "auto").unwrap();
        let single = report.cell(acc, "FSRCNN", "single").unwrap();
        assert!(
            auto.value <= single.value * 1.01,
            "{acc}: auto {} vs single {}",
            auto.value,
            single.value
        );
    }
}

#[test]
fn matrix_cells_match_standalone_schedule_searches() {
    // Each matrix cell must cost exactly what a standalone
    // `Explorer::best_schedule` of the same (accelerator, workload, policy)
    // finds — the flattening is an execution detail, not a semantic change.
    let acc = zoo::edge_tpu_like_df();
    let net = models::fsrcnn();
    let tiles = [(60, 72), (240, 270)];
    let policy = FusePolicy::Auto;

    let report = run_matrix(
        std::slice::from_ref(&acc),
        std::slice::from_ref(&net),
        std::slice::from_ref(&policy),
        Some(&tiles),
        &OverlapMode::ALL,
        OptimizeTarget::Energy,
        &MatrixConfig::default(),
        |_| {},
    )
    .unwrap();
    let cell = &report.cells[0];

    let model = DfCostModel::new(&acc).with_fast_mapper();
    let standalone = Explorer::new(&model)
        .best_schedule(
            &net,
            &tiles,
            &OverlapMode::ALL,
            OptimizeTarget::Energy,
            &policy,
        )
        .unwrap();
    assert_eq!(cell.energy_pj, standalone.cost.energy_pj);
    assert_eq!(cell.latency_cycles, standalone.cost.latency_cycles);
    assert_eq!(cell.stacks.len(), standalone.choices.len());
}

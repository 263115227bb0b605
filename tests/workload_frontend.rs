//! Integration tests for the JSON workload frontend: the zoo documents under
//! `workloads/` are exactly what the exporter writes, every document on disk
//! is a zoo entry, the mapping memo cache is shared between a file-loaded
//! network and its built-in twin, and malformed documents fail with errors
//! that name the offending layer.

use defines_arch::zoo;
use defines_core::{DfCostModel, Explorer, OptimizeTarget, OverlapMode};
use defines_mapping::MappingCache;
use defines_workload::{loader, models, schema};
use std::path::{Path, PathBuf};

/// Absolute path of a reference file under the repository-root `workloads/`.
fn workload_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../workloads")
        .join(file)
}

#[test]
fn reference_files_are_regenerable() {
    // Each zoo document is exactly what the exporter writes for the network
    // it loads to — the exporter's end-to-end byte check. The embedded
    // document is `workloads/<name>.json` as compiled.
    for name in models::names() {
        let net = models::by_name(name).unwrap();
        let exported = schema::to_json_pretty(&net).unwrap() + "\n";
        let document = std::fs::read_to_string(workload_path(&format!("{name}.json"))).unwrap();
        assert_eq!(
            document, exported,
            "workloads/{name}.json is not in exporter form"
        );
    }
}

#[test]
fn every_reference_document_is_in_the_zoo_table() {
    // `include_str!` makes every zoo entry's document exist at compile time;
    // this is the other direction: no document on disk is left out of the
    // name tables.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for (dir, names) in [
        ("workloads", models::names()),
        ("accelerators", zoo::names()),
    ] {
        let mut on_disk: Vec<String> = std::fs::read_dir(root.join(dir))
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
            .map(|path| path.file_stem().unwrap().to_string_lossy().into_owned())
            .collect();
        on_disk.sort();
        let mut listed = names;
        listed.sort_unstable();
        assert_eq!(on_disk, listed, "{dir}/*.json vs its zoo name table");
    }
}

#[test]
fn mapping_cache_is_shared_across_file_loaded_and_builtin_models() {
    // The memo key fingerprints the op (operator, precisions, tile dims, top
    // levels, accelerator) — not the layer or network name — so a file-loaded
    // twin of a zoo model re-uses every mapping the zoo evaluation produced.
    let loaded = loader::from_json_file(workload_path("fsrcnn.json")).unwrap();
    let builtin = models::fsrcnn();
    let acc = zoo::meta_proto_like_df();
    let cache = MappingCache::new();

    let model = DfCostModel::new(&acc)
        .with_fast_mapper()
        .with_shared_cache(cache.clone());
    let strategy = defines_core::DfStrategy::depth_first(
        defines_core::TileSize::new(60, 72),
        OverlapMode::FullyCached,
    );

    let cost_builtin = model.evaluate_network(&builtin, &strategy).unwrap();
    let misses_after_builtin = cache.stats().misses;

    let cost_loaded = model.evaluate_network(&loaded, &strategy).unwrap();
    let stats = cache.stats();

    assert_eq!(cost_builtin, cost_loaded);
    assert_eq!(
        stats.misses, misses_after_builtin,
        "file-loaded evaluation must be answered entirely from the shared cache"
    );
    assert!(stats.hits > 0);
}

#[test]
fn engine_stats_are_labelled_with_the_workload_name() {
    let loaded = loader::from_json_file(workload_path("fsrcnn.json")).unwrap();
    let acc = zoo::meta_proto_like_df();
    let model = DfCostModel::new(&acc).with_fast_mapper();
    let stats = Explorer::new(&model)
        .sweep_streaming(
            &loaded,
            &[(60, 72)],
            &[OverlapMode::FullyCached],
            OptimizeTarget::Energy,
            |_| {},
        )
        .unwrap();
    assert_eq!(stats.label, "FSRCNN");
}

#[test]
fn malformed_documents_name_the_offending_layer() {
    // Missing edge: consumer references a producer that is never declared.
    let missing_edge = r#"{"name": "broken", "layers": [
        {"name": "in", "op": "Conv", "k": 8, "c": 3, "ox": 32, "oy": 32},
        {"name": "out", "op": "Conv", "inputs": ["hidden"], "k": 8}
    ]}"#;
    let err = loader::from_json_str(missing_edge).unwrap_err();
    assert!(err.to_string().contains("layer 'out'"), "{err}");
    assert!(
        err.to_string().contains("unknown input layer 'hidden'"),
        "{err}"
    );

    // Dim mismatch: declared input channels disagree with the producer.
    let dim_mismatch = r#"{"name": "broken", "layers": [
        {"name": "in", "op": "Conv", "k": 8, "c": 3, "ox": 32, "oy": 32},
        {"name": "out", "op": "Conv", "inputs": ["in"], "k": 8, "c": 16, "ox": 32, "oy": 32}
    ]}"#;
    let err = loader::from_json_str(dim_mismatch).unwrap_err();
    assert_eq!(
        err.to_string(),
        "layer 'out': input channels c=16 does not match producer 'in' output channels k=8"
    );

    // Unknown op.
    let unknown_op = r#"{"name": "broken", "layers": [
        {"name": "norm", "op": "BatchNorm", "k": 8, "c": 8, "ox": 32, "oy": 32}
    ]}"#;
    let err = loader::from_json_str(unknown_op).unwrap_err();
    assert_eq!(
        err.to_string(),
        "layer 'norm': unknown op 'BatchNorm' (expected Conv, DepthwiseConv, Pooling, Add)"
    );
}

#[test]
fn hand_written_network_sweeps_end_to_end() {
    // A compact bring-your-own-network document: shape inference fills the
    // channel/spatial dimensions, and the loaded network runs through the
    // full exploration stack.
    let json = r#"{
      "name": "tiny-edge-net",
      "layers": [
        {"name": "stem", "op": "Conv", "k": 8, "c": 3, "ox": 48, "oy": 48,
         "fx": 3, "fy": 3, "padding": [1, 1]},
        {"name": "dw", "op": "DepthwiseConv", "inputs": ["stem"],
         "fx": 3, "fy": 3, "padding": [1, 1]},
        {"name": "pw", "op": "Conv", "inputs": ["dw"], "k": 16},
        {"name": "head", "op": "Conv", "inputs": ["pw"], "k": 4, "fx": 3, "fy": 3}
      ]
    }"#;
    let net = loader::from_json_str(json).unwrap();
    assert_eq!(net.len(), 4);

    let acc = zoo::meta_proto_like_df();
    let model = DfCostModel::new(&acc).with_fast_mapper();
    let best = Explorer::new(&model)
        .best_single_strategy(
            &net,
            &[(8, 8), (48, 48)],
            &OverlapMode::ALL,
            OptimizeTarget::Energy,
        )
        .unwrap();
    assert!(best.cost.energy_pj > 0.0);
    assert!(best.cost.latency_cycles > 0.0);

    // And it round-trips through the exporter like any zoo model.
    let reloaded = loader::from_json_str(&schema::to_json_pretty(&net).unwrap()).unwrap();
    assert_eq!(reloaded, net);
}

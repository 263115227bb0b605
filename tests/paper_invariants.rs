//! Integration tests asserting the qualitative shapes the paper's evaluation
//! reports (the reproduction targets listed in `docs/paper-map.md`,
//! "§V–§VI — Experiments").

use defines_arch::zoo;
use defines_core::{DfCostModel, DfStrategy, OverlapMode, TileSize};
use defines_workload::models;

fn fsrcnn_energy(model: &DfCostModel<'_>, tx: u64, ty: u64, mode: OverlapMode) -> f64 {
    model
        .evaluate_network(
            &models::fsrcnn(),
            &DfStrategy::depth_first(TileSize::new(tx, ty), mode),
        )
        .unwrap()
        .energy_pj
}

/// Fig. 12: for the same tile size, fully-cached never consumes more energy
/// than H-cached, which never consumes more than fully-recompute.
#[test]
fn fig12_mode_ordering_holds_per_tile_size() {
    let acc = zoo::meta_proto_like_df();
    let model = DfCostModel::new(&acc).with_fast_mapper();
    for &(tx, ty) in &[(4, 4), (16, 18), (60, 72)] {
        let fr = fsrcnn_energy(&model, tx, ty, OverlapMode::FullyRecompute);
        let hc = fsrcnn_energy(&model, tx, ty, OverlapMode::HCachedVRecompute);
        let fc = fsrcnn_energy(&model, tx, ty, OverlapMode::FullyCached);
        assert!(
            fc <= hc * 1.001,
            "tile ({tx},{ty}): fully-cached {fc} vs H-cached {hc}"
        );
        assert!(
            hc <= fr * 1.001,
            "tile ({tx},{ty}): H-cached {hc} vs recompute {fr}"
        );
    }
}

/// Fig. 12: the layer-by-layer corner (tile = full feature map) is identical
/// across overlap modes.
#[test]
fn fig12_lbl_corner_is_mode_independent() {
    let acc = zoo::meta_proto_like_df();
    let model = DfCostModel::new(&acc).with_fast_mapper();
    let e: Vec<f64> = OverlapMode::ALL
        .iter()
        .map(|&m| fsrcnn_energy(&model, 960, 540, m))
        .collect();
    assert!((e[0] - e[1]).abs() / e[0] < 1e-9);
    assert!((e[1] - e[2]).abs() / e[1] < 1e-9);
}

/// Fig. 12: both very small and very large tiles are sub-optimal; an
/// intermediate tile wins, and the spread between best and worst is at least
/// an order of magnitude.
#[test]
fn fig12_intermediate_tiles_win_with_large_spread() {
    let acc = zoo::meta_proto_like_df();
    let model = DfCostModel::new(&acc).with_fast_mapper();
    let tiny = fsrcnn_energy(&model, 1, 1, OverlapMode::FullyRecompute);
    let mid = fsrcnn_energy(&model, 16, 18, OverlapMode::FullyCached);
    let full = fsrcnn_energy(&model, 960, 540, OverlapMode::FullyCached);
    assert!(mid < tiny, "mid {mid} vs tiny {tiny}");
    assert!(mid < full, "mid {mid} vs full {full}");
    assert!(
        tiny.max(full) / mid > 10.0,
        "spread too small: {} / {}",
        tiny.max(full),
        mid
    );
}

/// Fig. 13: recompute overhead ordering and the fully-cached mode matching the
/// layer-by-layer MAC count exactly.
#[test]
fn fig13_mac_overhead_ordering() {
    let acc = zoo::meta_proto_like_df();
    let model = DfCostModel::new(&acc).with_fast_mapper();
    let net = models::fsrcnn();
    let lbl_macs: u64 = net.layers().iter().map(|l| l.macs()).sum();
    let strategy = |m| DfStrategy::depth_first(TileSize::new(4, 4), m);
    let fr = model
        .evaluate_network(&net, &strategy(OverlapMode::FullyRecompute))
        .unwrap();
    let hc = model
        .evaluate_network(&net, &strategy(OverlapMode::HCachedVRecompute))
        .unwrap();
    let fc = model
        .evaluate_network(&net, &strategy(OverlapMode::FullyCached))
        .unwrap();
    assert_eq!(fc.macs, lbl_macs);
    assert!(hc.macs > fc.macs);
    assert!(fr.macs > hc.macs);
}

/// Fig. 16: depth-first scheduling gains roughly an order of magnitude over
/// single-layer scheduling for the activation-dominant FSRCNN, and still a
/// substantial factor for the weight-dominant MobileNetV1 when stacks can fall
/// back to layer-by-layer.
#[test]
fn fig16_gains_over_single_layer() {
    let acc = zoo::meta_proto_like_df();
    let model = DfCostModel::new(&acc).with_fast_mapper();
    let fsrcnn = models::fsrcnn();
    let sl = model
        .evaluate_network(&fsrcnn, &DfStrategy::single_layer())
        .unwrap();
    let df = model
        .evaluate_network(
            &fsrcnn,
            &DfStrategy::depth_first(TileSize::new(4, 72), OverlapMode::FullyCached),
        )
        .unwrap();
    let gain = sl.energy_pj / df.energy_pj;
    assert!(
        gain > 5.0,
        "FSRCNN DF gain over SL = {gain:.2}x (paper: ~10x)"
    );
}

/// Fig. 17: the TPU-like baseline, lacking any on-chip weight buffer, barely
/// benefits from depth-first scheduling, while its DF variant (which gets a
/// weight global buffer) does.
#[test]
fn fig17_tpu_needs_weight_buffer_for_df() {
    let net = models::fsrcnn();
    let strategy = DfStrategy::depth_first(TileSize::new(60, 72), OverlapMode::FullyCached);

    let tpu = zoo::tpu_like();
    let model = DfCostModel::new(&tpu).with_fast_mapper();
    let lbl_tpu = model
        .evaluate_network(&net, &DfStrategy::layer_by_layer())
        .unwrap();
    let df_tpu = model.evaluate_network(&net, &strategy).unwrap();

    let tpu_df = zoo::tpu_like_df();
    let model_df = DfCostModel::new(&tpu_df).with_fast_mapper();
    let lbl_tpudf = model_df
        .evaluate_network(&net, &DfStrategy::layer_by_layer())
        .unwrap();
    let df_tpudf = model_df.evaluate_network(&net, &strategy).unwrap();

    let gain_baseline = lbl_tpu.energy_pj / df_tpu.energy_pj;
    let gain_df_variant = lbl_tpudf.energy_pj / df_tpudf.energy_pj;
    assert!(
        gain_df_variant > gain_baseline,
        "DF-friendly TPU variant should benefit more from DF: {gain_df_variant:.2}x vs {gain_baseline:.2}x"
    );
    assert!(
        gain_df_variant > 2.0,
        "TPU-like DF should gain substantially: {gain_df_variant:.2}x"
    );
}

/// Fig. 18(c): ignoring weight traffic pushes the optimizer to tiny tiles; for
/// a weight-dominant workload the full model's choice is substantially better.
#[test]
fn fig18_weight_blind_optimization_is_costly() {
    use defines_core::baselines::{run_baseline, BaselineKind};
    let acc = zoo::edge_tpu_like_df();
    let model = DfCostModel::new(&acc).with_fast_mapper();
    let net = models::resnet18();
    let tiles = [(2, 2), (7, 7), (28, 28), (56, 56)];
    let act_only = run_baseline(
        &model,
        &net,
        BaselineKind::ActivationsOnly,
        &tiles,
        &OverlapMode::ALL,
    )
    .unwrap();
    let full = run_baseline(
        &model,
        &net,
        BaselineKind::FullModel,
        &tiles,
        &OverlapMode::ALL,
    )
    .unwrap();
    assert!(
        full.cost.energy_pj <= act_only.cost.energy_pj,
        "full model {} must not lose to activation-only {}",
        full.cost.energy_pj,
        act_only.cost.energy_pj
    );
    // The activation-only optimizer must indeed be at least as good on its own
    // (partial) metric.
    assert!(act_only.cost.activation_energy_pj() <= full.cost.activation_energy_pj() * 1.001);
}

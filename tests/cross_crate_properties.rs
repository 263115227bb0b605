//! Property-based integration tests spanning the workload, architecture,
//! mapping and core crates.

use defines_arch::{zoo, Operand};
use defines_core::backcalc::{tile_types, StackGeometry};
use defines_core::stack::Stack;
use defines_core::tiling::TileGrid;
use defines_core::{DfCostModel, DfStrategy};
use defines_core::{OverlapMode, TileSize};
use defines_mapping::{LomaMapper, MapperConfig, SingleLayerProblem};
use defines_workload::{Layer, LayerDims, Network, OpType};
use proptest::prelude::*;
use std::collections::HashMap;

fn arb_layer_dims() -> impl Strategy<Value = LayerDims> {
    arb_layer_dims_upto(96)
}

/// Conv dims with output sides in `4..=max_side`.
fn arb_layer_dims_upto(max_side: u64) -> impl Strategy<Value = LayerDims> {
    (
        1u64..=64,       // k
        1u64..=32,       // c
        4u64..=max_side, // ox
        4u64..=max_side, // oy
        prop::sample::select(vec![1u64, 3, 5]),
        prop::sample::select(vec![1u64, 2]),
    )
        .prop_map(|(k, c, ox, oy, f, s)| {
            LayerDims::conv(k, c, ox, oy, f, f)
                .with_stride(s, s)
                .with_padding((f - 1) / 2, (f - 1) / 2)
        })
}

/// What follows the first layer of a generated stack.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// A same-padded convolution.
    Conv,
    /// A same-padded 3x3 convolution with stride 2.
    Strided,
    /// A same-padded depthwise convolution.
    Depthwise,
    /// Two same-padded convolutions whose output is added back to the first
    /// layer's (the first layer's output has two readers; near the far
    /// edges the cached modes leave the first convolution idle along one
    /// axis).
    Residual,
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    prop::sample::select(vec![
        Shape::Conv,
        Shape::Strided,
        Shape::Depthwise,
        Shape::Residual,
    ])
}

/// A stack of a first layer `d1` and the layers `shape` appends. Every pixel
/// of every feature map is read by some output pixel, so fully-cached
/// computes each layer's output exactly once.
fn stack_net(d1: LayerDims, shape: Shape, k2: u64, f2: u64) -> Network {
    let mut net = Network::new("prop");
    let a = net
        .add_layer(Layer::new("a", OpType::Conv, d1), &[])
        .unwrap();
    let same = |k, c, f: u64, s: u64| {
        LayerDims::conv(k, c, d1.ox.div_ceil(s), d1.oy.div_ceil(s), f, f)
            .with_stride(s, s)
            .with_padding((f - 1) / 2, (f - 1) / 2)
    };
    let (op, d2) = match shape {
        Shape::Conv => (OpType::Conv, same(k2, d1.k, f2, 1)),
        Shape::Strided => (OpType::Conv, same(k2, d1.k, 3, 2)),
        Shape::Depthwise => (OpType::DepthwiseConv, same(d1.k, d1.k, f2, 1)),
        Shape::Residual => (OpType::Conv, same(d1.k, d1.k, f2, 1)),
    };
    let b = net.add_layer(Layer::new("b", op, d2), &[a]).unwrap();
    if let Shape::Residual = shape {
        let c = net
            .add_layer(Layer::new("c", OpType::Conv, d2), &[b])
            .unwrap();
        net.add_layer(
            Layer::new("add", OpType::Add, same(d1.k, d1.k, 1, 1)),
            &[c, a],
        )
        .unwrap();
    }
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The single-layer cost model never reports negative or non-finite costs,
    /// and DRAM weight reads cover at least the weight footprint once.
    #[test]
    fn single_layer_cost_is_sane(dims in arb_layer_dims()) {
        let acc = zoo::meta_proto_like_df();
        let layer = Layer::new("l", OpType::Conv, dims);
        let problem = SingleLayerProblem::new(&acc, &layer);
        let cost = LomaMapper::new(MapperConfig::fast()).optimize(&problem);
        prop_assert!(cost.energy_pj.is_finite() && cost.energy_pj > 0.0);
        prop_assert!(cost.latency_cycles.is_finite() && cost.latency_cycles > 0.0);
        prop_assert!(cost.latency_cycles + 1e-9 >= cost.compute_cycles);
        let dram = acc.hierarchy().dram_id();
        let w = cost.accesses.get(dram, Operand::Weight);
        prop_assert!(w.reads_bytes + 1e-9 >= layer.weight_bytes() as f64);
    }

    /// For any generated stack (plain, strided, depthwise or residual) and
    /// any tile size, the tile grid covers the output exactly and the
    /// fully-cached analysis never recomputes: the summed MACs equal the
    /// workload MACs.
    #[test]
    fn fully_cached_never_recomputes(
        d1 in arb_layer_dims(),
        shape in arb_shape(),
        k2 in 1u64..=32,
        f2 in prop::sample::select(vec![1u64, 3]),
        tx in 1u64..=32,
        ty in 1u64..=32,
    ) {
        let net = stack_net(d1, shape, k2, f2);
        let stack = Stack::new(net.layer_ids().collect());
        let geo = StackGeometry::new(&net, &stack);
        let last = net.layers().last().unwrap();
        let grid = TileGrid::new(last.dims.ox, last.dims.oy, TileSize::new(tx, ty));
        let covered: u64 = grid.iter().map(|(_, _, r)| r.area()).sum();
        prop_assert_eq!(covered, last.dims.ox * last.dims.oy);

        let expected: u64 = net.layers().iter().map(|l| l.macs()).sum();
        let mut cached_total = 0u64;
        let mut recompute_total = 0u64;
        for (c, r, _) in grid.iter() {
            cached_total += geo.analyze_tile(OverlapMode::FullyCached, &grid, c, r).total_macs();
            recompute_total += geo.analyze_tile(OverlapMode::FullyRecompute, &grid, c, r).total_macs();
        }
        prop_assert_eq!(cached_total, expected);
        prop_assert!(recompute_total >= expected);
    }

    /// Input accounting is consistent for every tile and mode: fresh + cached
    /// parts always equal the total input bytes and never exceed the
    /// feature-map sizes involved.
    #[test]
    fn input_accounting_is_consistent(
        d1 in arb_layer_dims(),
        shape in arb_shape(),
        tx in 1u64..=24,
        ty in 1u64..=24,
        mode in prop::sample::select(OverlapMode::ALL.to_vec()),
    ) {
        let net = stack_net(d1, shape, 16, 3);
        let stack = Stack::new(net.layer_ids().collect());
        let geo = StackGeometry::new(&net, &stack);
        let last = net.layers().last().unwrap();
        let grid = TileGrid::new(last.dims.ox, last.dims.oy, TileSize::new(tx, ty));
        for (c, r, _) in grid.iter().take(12) {
            let a = geo.analyze_tile(mode, &grid, c, r);
            for rec in &a.layers {
                prop_assert_eq!(
                    rec.input_bytes,
                    rec.fresh_input_bytes + rec.cached_h_input_bytes + rec.cached_v_input_bytes
                );
                prop_assert!(rec.external_input_bytes <= rec.fresh_input_bytes);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Steps 1–2 against the ungrouped oracle: every tile of the grid through
    /// the 2-D `analyze_tile`, grouped by equality, is exactly the multiset
    /// of `tile_types` — which checks both the edge-signature grouping and
    /// the per-axis composition (with its fallback on residual stacks).
    #[test]
    fn tile_types_match_the_tile_by_tile_oracle(
        d1 in arb_layer_dims_upto(40),
        shape in arb_shape(),
        k2 in 1u64..=8,
        f2 in prop::sample::select(vec![1u64, 3]),
        tx in 1u64..=12,
        ty in 1u64..=12,
    ) {
        let net = stack_net(d1, shape, k2, f2);
        let stack = Stack::new(net.layer_ids().collect());
        let geo = StackGeometry::new(&net, &stack);
        let last = net.layers().last().unwrap();
        let tile = TileSize::new(tx, ty);
        let grid = TileGrid::new(last.dims.ox, last.dims.oy, tile);
        for mode in OverlapMode::ALL {
            let mut oracle: HashMap<_, u64> = HashMap::new();
            for (c, r, _) in grid.iter() {
                *oracle.entry(geo.analyze_tile(mode, &grid, c, r)).or_default() += 1;
            }
            let types = tile_types(&geo, tile, mode);
            prop_assert_eq!(types.len(), oracle.len());
            for (analysis, count) in &types {
                prop_assert_eq!(oracle.get(analysis), Some(count));
            }
        }
    }
}

/// A bandwidth entry of a generated level: omitted (the kind's default),
/// `null` (unlimited) or a number.
fn arb_bandwidths() -> impl Strategy<Value = &'static str> {
    prop::sample::select(vec![
        "",
        r#", "read_bw_bytes_per_cycle": null"#,
        r#", "read_bw_bytes_per_cycle": null, "write_bw_bytes_per_cycle": null"#,
        r#", "write_bw_bytes_per_cycle": 8.0"#,
    ])
}

/// Accelerator documents that lean on the loader: energies and bandwidths
/// left to the kind defaults or given as `null`, the DRAM level omitted or
/// spelled out, and operand and dimension names in lower case.
fn arb_accelerator_doc() -> impl Strategy<Value = String> {
    (
        (2u64..=32, 1u64..=16, 1u64..=8),
        prop::sample::select(vec![("K", "C", "OX"), ("k", "c", "ox")]),
        prop::sample::select(vec!["", r#", "mac_energy_pj": 0.25"#]),
        (1u64..=4096, 1024u64..=262_144, 262_144u64..=4_194_304),
        (arb_bandwidths(), arb_bandwidths(), arb_bandwidths()),
        prop::sample::select(vec![("w", "i", "o"), ("weight", "input", "output")]),
        prop::sample::select(vec!["", r#", "read_energy_pj_per_byte": 0.5"#]),
        prop::sample::select(vec![
            "",
            r#", {"name": "DRAM", "kind": "dram", "operands": ["w", "i", "o"]}"#,
        ]),
    )
        .prop_map(
            |((k, c, ox), (dk, dc, dox), mac, (reg, lb, gb), (bw1, bw2, bw3), (w, i, o), e, dram)| {
                format!(
                    r#"{{"name": "generated",
                      "pe_array": {{"unroll": {{"{dk}": {k}, "{dc}": {c}, "{dox}": {ox}}}{mac}}},
                      "levels": [
                        {{"name": "W_reg", "kind": "register", "capacity_bytes": {reg},
                          "operands": ["{w}"]{bw1}}},
                        {{"name": "LB", "capacity_bytes": {lb}, "operands": ["{i}", "{o}"]{bw2}{e}}},
                        {{"name": "GB", "kind": "sram", "capacity_bytes": {gb},
                          "operands": ["{w}", "{i}", "{o}"]{bw3}}}{dram}
                      ]}}"#
                )
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Exporting a generated stack (plain, strided, depthwise or residual)
    /// and loading the document back gives the same network.
    #[test]
    fn generated_networks_round_trip_through_json(
        d1 in arb_layer_dims(),
        shape in arb_shape(),
        k2 in 1u64..=32,
        f2 in prop::sample::select(vec![1u64, 3]),
    ) {
        let net = stack_net(d1, shape, k2, f2);
        let json = defines_workload::to_json_pretty(&net).unwrap();
        prop_assert_eq!(defines_workload::from_json_str(&json).unwrap(), net);
    }

    /// An accelerator loaded from a document that relies on the loader's
    /// defaults and spellings exports to a fully explicit document that
    /// loads back into the same accelerator, fingerprint included.
    #[test]
    fn generated_accelerators_round_trip_through_json(doc in arb_accelerator_doc()) {
        let acc = defines_arch::loader::from_json_str(&doc).unwrap();
        let json = defines_arch::to_json_pretty(&acc).unwrap();
        let reloaded = defines_arch::loader::from_json_str(&json).unwrap();
        prop_assert_eq!(reloaded.fingerprint(), acc.fingerprint());
        prop_assert_eq!(reloaded, acc);
    }
}

/// Non-proptest cross-crate check: the depth-first model's energy equals the
/// sum of its per-stack energies, and per-stack energies equal the weighted
/// sum of their tile types.
#[test]
fn cost_additivity_across_levels_of_aggregation() {
    let acc = zoo::meta_proto_like_df();
    let model = DfCostModel::new(&acc).with_fast_mapper();
    let net = defines_workload::models::mobilenet_v1();
    let cost = model
        .evaluate_network(
            &net,
            &DfStrategy::depth_first(TileSize::new(28, 28), OverlapMode::FullyCached),
        )
        .unwrap();
    let stack_sum: f64 = cost.stacks.iter().map(|s| s.energy_pj).sum();
    assert!((stack_sum - cost.energy_pj).abs() / cost.energy_pj < 1e-9);
    for stack in &cost.stacks {
        let type_sum: f64 = stack
            .tile_types
            .iter()
            .map(|t| t.energy_pj * t.count as f64)
            .sum();
        assert!((type_sum - stack.energy_pj).abs() / stack.energy_pj.max(1.0) < 1e-9);
    }
}

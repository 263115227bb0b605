//! The single-layer cost model against the brute-force loop-nest interpreter
//! of `support/loop_nest.rs`, which shares no code with it.
//!
//! On tiny problems over every committed accelerator document (capacities
//! shrunk, so that tiny tiles still spill between levels) and over an
//! accelerator whose capacity shares shrink outward, the bytes the model
//! reports at every (level, operand) must equal the interpreter's integer
//! counts exactly: for a random loop ordering through
//! [`LomaMapper::evaluate_fixed_order`], and for the ordering the search
//! picks through [`LomaMapper::optimize`].

#[path = "support/loop_nest.rs"]
mod loop_nest;

use defines_arch::{
    loader, Accelerator, AcceleratorBuilder, MemoryLevel, MemoryLevelId, Operand, SpatialUnrolling,
};
use defines_mapping::temporal::candidate_orderings;
use defines_mapping::{LayerCost, LomaMapper, OperandTopLevels, SingleLayerProblem};
use defines_workload::{Dim, Layer, LayerDims, OpType};
use proptest::prelude::*;
use std::path::Path;
use std::sync::OnceLock;

/// The committed accelerator documents, in file-name order, then the
/// shrinking-shares accelerator.
fn accelerators() -> &'static [Accelerator] {
    static ACCELERATORS: OnceLock<Vec<Accelerator>> = OnceLock::new();
    ACCELERATORS.get_or_init(|| {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../accelerators");
        let mut paths: Vec<_> = std::fs::read_dir(&dir)
            .expect("accelerators/ is readable")
            .map(|entry| entry.expect("directory entry").path())
            .filter(|path| path.extension().is_some_and(|e| e == "json"))
            .collect();
        paths.sort();
        assert!(paths.len() >= 10, "expected the committed zoo in {dir:?}");
        let mut accs: Vec<Accelerator> = paths
            .iter()
            .map(|path| loader::from_json_file(path).expect("valid accelerator document"))
            .collect();
        accs.push(
            loader::from_json_str(include_str!("support/shrinking-shares.json"))
                .expect("valid accelerator"),
        );
        accs
    })
}

/// `acc` shrunk so that its largest bounded level holds `largest` bytes,
/// every other bounded level in proportion (at least 1 byte).
fn shrunk(acc: &Accelerator, largest: u64) -> Accelerator {
    let levels = acc.hierarchy().levels();
    let max = levels
        .iter()
        .filter_map(|l| l.capacity_bytes())
        .max()
        .unwrap_or(1);
    let pe = acc.pe_array();
    let mut builder =
        AcceleratorBuilder::new(acc.name()).pe_array(pe.unrolling().clone(), pe.mac_energy_pj());
    for level in levels {
        let capacity = level
            .capacity_bytes()
            .map(|c| (u128::from(c) * u128::from(largest) / u128::from(max)).max(1) as u64);
        builder = builder.add_level(MemoryLevel::new(
            level.name(),
            capacity,
            level.read_energy_pj_per_byte(),
            level.write_energy_pj_per_byte(),
            level.read_bw_bytes_per_cycle(),
            level.write_bw_bytes_per_cycle(),
            level.operands(),
        ));
    }
    builder
        .build()
        .expect("shrinking keeps the hierarchy valid")
}

/// A tiny layer on `acc`: each of K, C, OX, OY, FX, FY runs `trips` whole
/// trips of its unrolling, the last one cut short by `cut` lanes, so that
/// the walk stays below 1024 × 16 iterations on every committed array.
fn tiny_dims(acc: &Accelerator, op: OpType, trips: [u64; 6], cut: [u64; 6], s: u64) -> LayerDims {
    let unrolling = acc.pe_array().unrolling();
    let mut trips = trips;
    while trips.iter().product::<u64>() > 16 {
        *trips.iter_mut().max().expect("six dims") -= 1;
    }
    let size: [u64; 6] = std::array::from_fn(|i| {
        let u = unrolling.factor([Dim::K, Dim::C, Dim::OX, Dim::OY, Dim::FX, Dim::FY][i]);
        trips[i] * u - cut[i] % u
    });
    let [k, mut c, ox, oy, mut fx, mut fy] = size;
    if op != OpType::Conv {
        c = 1;
    }
    if op == OpType::Add {
        (fx, fy) = (1, 1);
    }
    LayerDims::conv(k, c, ox, oy, fx, fy).with_stride(s, s)
}

/// Asserts that the model's bytes equal the interpreter's counts at every
/// (level, operand), with no tolerance.
fn assert_exact(acc: &Accelerator, problem: &SingleLayerProblem<'_>, cost: &LayerCost) {
    let order: Vec<Dim> = cost.mapping.loops().iter().map(|l| l.dim).collect();
    let counts = loop_nest::count(problem, &order);
    let scale = counts.scale as f64;
    // One line per (level, operand): the model's bytes in units of
    // `1 / scale`, which are exact integers when the model is right.
    let line = |level: usize, operand: Operand, reads: f64, writes: f64| {
        let name = acc.hierarchy().levels()[level].name();
        format!("{name}/{operand}: {reads} r {writes} w")
    };
    let model: Vec<String> = cost
        .accesses
        .iter()
        .map(|(level, operand, a)| {
            line(
                level.0,
                operand,
                a.reads_bytes * scale,
                a.writes_bytes * scale,
            )
        })
        .collect();
    let oracle: Vec<String> = counts
        .traffic
        .iter()
        .map(|(&(level, operand), &(reads, writes))| {
            line(level, operand, reads as f64, writes as f64)
        })
        .collect();
    assert_eq!(
        model,
        oracle,
        "model vs loop nest (×{scale}) on {} {:?} {:?}, order {}",
        acc.name(),
        problem.op,
        problem.dims,
        cost.mapping
    );
}

/// A tiny problem drawn from the generated parameters: an accelerator from
/// [`accelerators`], shrunk so that its largest level holds `largest` bytes;
/// a layer from [`tiny_dims`]; and operand top
/// levels that stay at DRAM about half the time and otherwise may be any
/// level, one that does not serve the operand included.
fn tiny_problem(
    acc_pick: usize,
    largest: u64,
    op: OpType,
    trips: [u64; 6],
    cut: [u64; 6],
    s: u64,
    tops: (usize, usize, usize),
) -> (Accelerator, Layer, OperandTopLevels) {
    let committed = accelerators();
    let acc = shrunk(&committed[acc_pick % committed.len()], largest);
    let n_levels = acc.hierarchy().levels().len();
    let top = |pick: usize| MemoryLevelId(pick.min(n_levels - 1));
    let tops = OperandTopLevels::dram(&acc)
        .with_level(Operand::Weight, top(tops.0))
        .with_level(Operand::Input, top(tops.1))
        .with_level(Operand::Output, top(tops.2));
    let layer = Layer::new("l", op, tiny_dims(&acc, op, trips, cut, s));
    (acc, layer, tops)
}

fn arb_op() -> impl Strategy<Value = OpType> {
    prop::sample::select(vec![
        OpType::Conv,
        OpType::DepthwiseConv,
        OpType::Pooling,
        OpType::Add,
    ])
}

/// Capacities from a few bytes to 256 KiB, log-uniform, so that level
/// boundaries fall inside the tiny problems' tiles; half of them powers of
/// two, which tile sizes often hit exactly.
fn arb_capacity() -> impl Strategy<Value = u64> {
    let jittered = prop::sample::select(vec![false, true]);
    (2u32..=17, 0u64..1 << 17, jittered).prop_map(|(log, jitter, jittered)| {
        (1 << log) + if jittered { jitter % (1 << log) } else { 0 }
    })
}

fn arb_six(range: std::ops::RangeInclusive<u64>) -> impl Strategy<Value = [u64; 6]> {
    let r = || range.clone();
    (r(), r(), r(), r(), r(), r()).prop_map(|(a, b, c, d, e, f)| [a, b, c, d, e, f])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A fixed ordering, priced through `evaluate_fixed_order`.
    #[test]
    fn fixed_order_traffic_equals_loop_nest_counts(
        acc_pick in 0usize..64,
        largest in arb_capacity(),
        op in arb_op(),
        trips in arb_six(1..=3),
        cut in arb_six(0..=63),
        s in 1u64..=3,
        tops in (0usize..16, 0usize..16, 0usize..16),
        pick in 0usize..720,
    ) {
        let (acc, layer, tops) = tiny_problem(acc_pick, largest, op, trips, cut, s, tops);
        let problem = SingleLayerProblem::new(&acc, &layer).with_top_levels(tops);
        let orders = candidate_orderings(&problem, 0);
        let order = &orders[pick % orders.len()];
        let cost = LomaMapper::default().evaluate_fixed_order(&problem, order);
        assert_exact(&acc, &problem, &cost);
    }

    /// The searched ordering, priced from the search's winning leaf.
    #[test]
    fn searched_order_traffic_equals_loop_nest_counts(
        acc_pick in 0usize..64,
        largest in arb_capacity(),
        op in arb_op(),
        trips in arb_six(1..=3),
        cut in arb_six(0..=63),
        s in 1u64..=3,
        tops in (0usize..16, 0usize..16, 0usize..16),
    ) {
        let (acc, layer, tops) = tiny_problem(acc_pick, largest, op, trips, cut, s, tops);
        let problem = SingleLayerProblem::new(&acc, &layer).with_top_levels(tops);
        assert_exact(&acc, &problem, &LomaMapper::default().optimize(&problem));
    }
}

/// The interpreter itself, on a nest small enough to count by hand:
/// `for ox in 0..3 { for c in 0..2 { for k in 0..2 { O[k][ox] += W[k][c] * I[c][ox] } } }`
/// on one PE with a one-byte register per operand.
#[test]
fn hand_counted_nest() {
    let acc = AcceleratorBuilder::new("one PE")
        .pe_array(SpatialUnrolling::default(), 0.1)
        .add_level(MemoryLevel::register("W_reg", 1, [Operand::Weight]))
        .add_level(MemoryLevel::register("I_reg", 1, [Operand::Input]))
        .add_level(MemoryLevel::register("O_reg", 1, [Operand::Output]))
        .build()
        .expect("valid accelerator");
    let layer = Layer::new("l", OpType::Conv, LayerDims::conv(2, 2, 3, 1, 1, 1));
    let problem = SingleLayerProblem::new(&acc, &layer);
    let counts = loop_nest::count(&problem, &[Dim::K, Dim::C, Dim::OX]);
    assert_eq!(counts.scale, 1);
    let (dram, w, i, o) = (3, Operand::Weight, Operand::Input, Operand::Output);
    let expected = [
        // Every MAC reads its weight; the register holds one, which changes
        // every MAC: 12 fills (refetch 3 of the 4 weights).
        ((0, w), (12, 12)),
        // K leaves the input in place: 6 fills, one pass.
        ((1, i), (12, 6)),
        // Every MAC reads and writes its partial sum; the register holds one
        // output, so each is drained after every MAC (12 up) and fetched back
        // for its second channel (6 down: refetch 2).
        ((2, o), (24, 18)),
        ((dram, w), (12, 0)),
        ((dram, i), (6, 0)),
        ((dram, o), (6, 12)),
    ];
    assert_eq!(counts.traffic, expected.into_iter().collect());
    let cost = LomaMapper::default().evaluate_fixed_order(&problem, &[Dim::K, Dim::C, Dim::OX]);
    assert_exact(&acc, &problem, &cost);
}

//! Proves that pricing a tile type allocates a fixed number of times,
//! however many layers the stack fuses: placement, copy pricing and traffic
//! accumulation (steps 3–6) run on fixed-size state, and only the tile
//! type's result is allocated.
//!
//! Lives in its own integration-test binary because it installs a counting
//! `#[global_allocator]`; keeping it isolated means the counter only sees
//! this file's allocations.

use defines_arch::zoo;
use defines_core::backcalc::{tile_types, StackGeometry};
use defines_core::{DfCostModel, OverlapMode, Stack, TileSize};
use defines_workload::{models, Network};

#[path = "support/counting_allocator.rs"]
mod counting_allocator;

use counting_allocator::{fewest_allocations, CountingAllocator};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations per tile type of a warm `evaluate_stack` call, less those of
/// its steps 1–2 (building the stack geometry and finding the tile types):
/// what pricing the tile types (steps 3–6) allocates.
fn pricing_allocations_per_tile_type(model: &DfCostModel<'_>, net: &Network, stack: &Stack) -> f64 {
    let dram = model.accelerator().hierarchy().dram_id();
    let (tile, mode) = (TileSize::new(60, 72), OverlapMode::FullyCached);
    let evaluate = || model.evaluate_stack(net, stack, tile, mode, dram, dram);
    // Fill the mapping cache; every later call only hits it.
    let types = evaluate().tile_types.len();
    let whole = fewest_allocations(evaluate);
    let steps_1_2 = fewest_allocations(|| {
        let geometry = StackGeometry::new(net, stack);
        tile_types(&geometry, tile, mode)
    });
    (whole - steps_1_2) as f64 / types as f64
}

// One test function, deliberately: the allocation counter is process-global,
// so a sibling test thread would count its allocations against this one.
#[test]
fn pricing_allocations_per_tile_type_do_not_grow_with_stack_depth() {
    let acc = zoo::meta_proto_like_df();
    let model = DfCostModel::new(&acc).with_fast_mapper();
    let net = models::fsrcnn();
    // FSRCNN's eight layers fused, and its last layer alone: one output
    // grid, so the same tile sizes.
    let deep = Stack::new(net.layer_ids().collect());
    let shallow = Stack::new(vec![deep.last_layer()]);
    let deep_per_type = pricing_allocations_per_tile_type(&model, &net, &deep);
    let shallow_per_type = pricing_allocations_per_tile_type(&model, &net, &shallow);
    // A tile type's result is three exact-size breakdowns, and an empty one
    // allocates nothing, so the two may differ by up to three; everything
    // else is per stack. Any per-layer allocation would add at least seven
    // (one per extra layer) to every tile type of the deep stack.
    assert!(
        deep_per_type <= shallow_per_type + 3.0,
        "{} layers: {deep_per_type} allocations per tile type; 1 layer: {shallow_per_type}",
        deep.len()
    );
}

//! Proves that pricing a stack candidate for its value allocates nothing of
//! its own: once the thread's scratch has grown and the mapping cache is
//! warm, `DfCostModel::evaluate_stack_value` allocates exactly what its steps
//! 1–2 allocate (the stack geometry and the tile types), however many tile
//! types and layers the stack has.
//!
//! Lives in its own integration-test binary because it installs a counting
//! `#[global_allocator]`; keeping it isolated means the counter only sees
//! this file's allocations.

use defines_arch::zoo;
use defines_core::backcalc::{tile_types, StackGeometry};
use defines_core::{DfCostModel, OverlapMode, Stack, TileSize};
use defines_workload::models;

#[path = "support/counting_allocator.rs"]
mod counting_allocator;

use counting_allocator::{fewest_allocations, CountingAllocator};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

// One test function, deliberately: the allocation counter is process-global,
// so a sibling test thread would count its allocations against this one.
#[test]
fn a_warm_stack_value_allocates_only_its_tile_types() {
    let acc = zoo::meta_proto_like_df();
    let dram = acc.hierarchy().dram_id();
    let model = DfCostModel::new(&acc).with_fast_mapper();
    let net = models::fsrcnn();
    // FSRCNN's eight layers fused, its first four, and its last layer alone.
    let deep = Stack::new(net.layer_ids().collect());
    let head = Stack::new(net.layer_ids().take(4).collect());
    let last = Stack::new(vec![deep.last_layer()]);
    let mut most_types = 0;
    for stack in [&deep, &head, &last] {
        for tile in [TileSize::new(60, 72), TileSize::new(16, 16)] {
            for mode in OverlapMode::ALL {
                let value = || model.evaluate_stack_value(&net, stack, tile, mode, dram, dram);
                // Fill the mapping cache and grow the thread's scratch.
                value();
                let steps_1_2 = || {
                    let geometry = StackGeometry::new(&net, stack);
                    tile_types(&geometry, tile, mode)
                };
                let types = steps_1_2().len();
                most_types = most_types.max(types);
                let whole = fewest_allocations(value);
                let back_calculation = fewest_allocations(steps_1_2);
                assert_eq!(
                    whole,
                    back_calculation,
                    "{} layers, {tile}, {mode}: {types} tile types",
                    stack.len()
                );
            }
        }
    }
    assert!(
        most_types >= 9,
        "some stack has many tile types: {most_types}"
    );
}

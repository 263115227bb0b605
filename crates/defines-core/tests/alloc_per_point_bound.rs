//! Proves that a sweep point's bound allocates nothing, however many tile
//! types the point has: once each stack's axis classes are in its
//! geometry's memo, counting the point's MACs from them
//! (`backcalc::stack_macs`, summed over the stacks) looks them up and
//! composes no tile type, so a 1×1 tile on DMCNN-VD — over a thousand tile
//! types — costs what a whole-map tile costs.
//!
//! Lives in its own integration-test binary because it installs a counting
//! `#[global_allocator]`; keeping it isolated means the counter only sees
//! this file's allocations.

use defines_arch::zoo;
use defines_core::backcalc::{stack_macs, tile_types, StackGeometry};
use defines_core::stack::partition_into_stacks;
use defines_core::{FuseDepth, OverlapMode, TileSize};
use defines_workload::models;

#[path = "support/counting_allocator.rs"]
mod counting_allocator;

use counting_allocator::{fewest_allocations, CountingAllocator};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations of a warm point's bound.
const BOUND: u64 = 0;

// One test function, deliberately: the allocation counter is process-global,
// so a sibling test thread would count its allocations against this one.
#[test]
fn a_warm_point_bounds_without_allocating() {
    let acc = zoo::meta_proto_like_df();
    let mut most_types = 0;
    for net in [models::dmcnn_vd(), models::fsrcnn()] {
        let stacks = partition_into_stacks(&net, &acc, &FuseDepth::Auto);
        let geometries: Vec<StackGeometry<'_>> = stacks
            .iter()
            .map(|stack| StackGeometry::new(&net, stack))
            .collect();
        for tile in [TileSize::new(1, 1), TileSize::new(960, 540)] {
            for mode in OverlapMode::ALL {
                // The sweep's bound: the point's MAC count.
                let point_macs = || -> u64 {
                    geometries
                        .iter()
                        .map(|geometry| stack_macs(geometry, tile, mode))
                        .sum()
                };
                // Fill the geometries' memos.
                let macs = point_macs();
                let types: usize = geometries
                    .iter()
                    .map(|geometry| tile_types(geometry, tile, mode).len())
                    .sum();
                most_types = most_types.max(types);
                assert!(macs > 0);
                assert_eq!(
                    fewest_allocations(point_macs),
                    BOUND,
                    "{} {tile} {mode}: {types} tile types",
                    net.name()
                );
            }
        }
    }
    assert!(
        most_types >= 1000,
        "some point has many tile types: {most_types}"
    );
}

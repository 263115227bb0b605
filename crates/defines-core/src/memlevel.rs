//! Step 3 of the depth-first cost model: determining the top memory level for
//! every kind of data handled by a layer-tile combination.
//!
//! Data is placed by priority (Fig. 5, step 3): weights, then the current
//! layer's inputs, then its outputs, then the horizontal-overlap cache, then
//! the vertical-overlap cache. Higher-priority data is assigned to lower,
//! cheaper memory levels; each placement reserves capacity that is no longer
//! available to lower-priority data.

use defines_arch::{Accelerator, MemoryLevelId, Operand};
use serde::Serialize;

/// The memory levels assigned to all data classes of one layer-tile
/// combination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct DataPlacement {
    /// Top level for the layer's weights.
    pub weight: MemoryLevelId,
    /// Top level for the layer's input activations.
    pub input: MemoryLevelId,
    /// Top level for the layer's output activations.
    pub output: MemoryLevelId,
    /// Level holding the horizontal-overlap cache (if any is needed).
    pub cache_h: Option<MemoryLevelId>,
    /// Level holding the vertical-overlap cache (if any is needed).
    pub cache_v: Option<MemoryLevelId>,
}

/// The data sizes that drive a placement decision for one layer-tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct PlacementRequest {
    /// Total weight bytes of the whole fused stack (weights stay resident for
    /// all tiles of the stack).
    pub stack_weight_bytes: u64,
    /// Whether the layer has weights at all.
    pub layer_has_weights: bool,
    /// Whether this is the first tile of the stack (weights still have to be
    /// fetched from DRAM).
    pub is_first_tile: bool,
    /// Input bytes of the current layer-tile.
    pub input_bytes: u64,
    /// Output bytes of the current layer-tile.
    pub output_bytes: u64,
    /// Horizontal-overlap cache bytes kept alive for the stack.
    pub cache_h_bytes: u64,
    /// Vertical-overlap cache bytes kept alive for the stack.
    pub cache_v_bytes: u64,
}

/// Placement policy knobs. The defaults model DeFiNES; turning off
/// `multi_level_skipping` reproduces the "DRAM-only skipping" baseline of
/// Fig. 18(b), where activations may skip DRAM but always live in the highest
/// on-chip memory rather than the lowest one they fit in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct PlacementPolicy {
    /// When true (DeFiNES), data is placed in the *lowest* level it fits in.
    /// When false, on-chip data is placed in the *highest* on-chip level.
    pub multi_level_skipping: bool,
}

impl Default for PlacementPolicy {
    fn default() -> Self {
        Self {
            multi_level_skipping: true,
        }
    }
}

/// At most one reservation per data class: weights, inputs, outputs and the
/// two overlap caches.
const MAX_RESERVATIONS: usize = 5;

/// Remaining capacity tracker over the memory hierarchy: the levels that
/// hold a reservation, each with the capacity it has left. A level absent
/// from the list still has its full capacity.
#[derive(Debug, Clone)]
struct CapacityTracker<'a> {
    acc: &'a Accelerator,
    reserved: [(MemoryLevelId, u64); MAX_RESERVATIONS],
    len: usize,
}

impl<'a> CapacityTracker<'a> {
    fn new(acc: &'a Accelerator) -> Self {
        Self {
            acc,
            reserved: [(MemoryLevelId(0), 0); MAX_RESERVATIONS],
            len: 0,
        }
    }

    /// The capacity level `id` has left.
    fn remaining(&self, id: MemoryLevelId) -> u64 {
        match self.reserved[..self.len]
            .iter()
            .find(|&&(level, _)| level == id)
        {
            Some(&(_, left)) => left,
            None => self
                .acc
                .hierarchy()
                .level(id)
                .capacity_bytes()
                .unwrap_or(u64::MAX),
        }
    }

    /// The lowest level serving `operand` whose remaining capacity can hold
    /// `bytes`, reserving the space. Falls back to DRAM.
    fn place_lowest(&mut self, operand: Operand, bytes: u64) -> MemoryLevelId {
        let hierarchy = self.acc.hierarchy();
        for (id, _) in hierarchy.levels_for(operand) {
            if self.remaining(id) >= bytes {
                self.reserve(id, bytes);
                return id;
            }
        }
        hierarchy.dram_id()
    }

    /// The highest on-chip level serving `operand` that can hold `bytes`
    /// (DRAM-only-skipping baseline), or DRAM when nothing fits.
    fn place_highest_on_chip(&mut self, operand: Operand, bytes: u64) -> MemoryLevelId {
        let hierarchy = self.acc.hierarchy();
        let candidate = hierarchy
            .levels_for(operand)
            .filter(|(id, l)| !l.is_dram() && self.remaining(*id) >= bytes)
            .map(|(id, _)| id)
            .last();
        match candidate {
            Some(id) => {
                self.reserve(id, bytes);
                id
            }
            None => hierarchy.dram_id(),
        }
    }

    /// Reserves capacity at a level. Callers check the remaining capacity
    /// before placing ([`CapacityTracker::place_lowest`],
    /// [`CapacityTracker::place_highest_on_chip`]), so an over-reservation is
    /// a placement accounting bug — the debug assertion surfaces it instead
    /// of letting `saturating_sub` silently clamp the books to zero.
    ///
    /// # Panics
    ///
    /// Panics on a sixth distinct level: [`determine_placement`] places at
    /// most [`MAX_RESERVATIONS`] data classes.
    fn reserve(&mut self, id: MemoryLevelId, bytes: u64) {
        let r = self.remaining(id);
        debug_assert!(
            bytes <= r,
            "over-reservation at memory level {id:?}: {bytes} bytes requested, {r} remaining"
        );
        let left = r.saturating_sub(bytes);
        match self.reserved[..self.len]
            .iter_mut()
            .find(|(level, _)| *level == id)
        {
            Some(slot) => slot.1 = left,
            None => {
                self.reserved[self.len] = (id, left);
                self.len += 1;
            }
        }
    }
}

/// Determines the top memory level for every data class of one layer-tile
/// combination (step 3 of the model).
pub fn determine_placement(
    acc: &Accelerator,
    request: &PlacementRequest,
    policy: &PlacementPolicy,
) -> DataPlacement {
    let dram = acc.hierarchy().dram_id();
    let mut tracker = CapacityTracker::new(acc);

    // 1. Weights (highest priority). The stack's full weight set stays
    //    resident across tiles; the first tile still has to stream it from
    //    DRAM.
    let weight_home = if request.stack_weight_bytes > 0 {
        tracker.place_lowest(Operand::Weight, request.stack_weight_bytes)
    } else {
        dram
    };
    let weight = if !request.layer_has_weights || request.is_first_tile {
        dram
    } else {
        weight_home
    };

    // 2. Current layer's inputs.
    let input = if policy.multi_level_skipping {
        tracker.place_lowest(Operand::Input, request.input_bytes)
    } else {
        tracker.place_highest_on_chip(Operand::Input, request.input_bytes)
    };

    // 3. Current layer's outputs.
    let output = if policy.multi_level_skipping {
        tracker.place_lowest(Operand::Output, request.output_bytes)
    } else {
        tracker.place_highest_on_chip(Operand::Output, request.output_bytes)
    };

    // 4./5. Overlap caches (activation data).
    let cache_h = if request.cache_h_bytes > 0 {
        Some(tracker.place_lowest(Operand::Input, request.cache_h_bytes))
    } else {
        None
    };
    let cache_v = if request.cache_v_bytes > 0 {
        Some(tracker.place_lowest(Operand::Input, request.cache_v_bytes))
    } else {
        None
    };

    DataPlacement {
        weight,
        input,
        output,
        cache_h,
        cache_v,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use defines_arch::zoo;
    use proptest::prelude::*;

    fn meta_df() -> defines_arch::Accelerator {
        zoo::meta_proto_like_df()
    }

    fn lb_io(acc: &defines_arch::Accelerator) -> MemoryLevelId {
        acc.hierarchy().level_id_named("LB_IO").unwrap()
    }

    fn gb_io(acc: &defines_arch::Accelerator) -> MemoryLevelId {
        acc.hierarchy().level_id_named("GB_IO").unwrap()
    }

    #[test]
    fn small_activations_land_in_lb() {
        let acc = meta_df();
        let req = PlacementRequest {
            stack_weight_bytes: 12 * 1024,
            layer_has_weights: true,
            is_first_tile: false,
            input_bytes: 8 * 1024,
            output_bytes: 16 * 1024,
            ..Default::default()
        };
        let p = determine_placement(&acc, &req, &PlacementPolicy::default());
        assert_eq!(p.input, lb_io(&acc));
        assert_eq!(p.output, lb_io(&acc));
        // Non-first tile: weights served from the weight LB.
        assert_eq!(acc.hierarchy().level(p.weight).name(), "LB_W");
    }

    #[test]
    fn first_tile_weights_come_from_dram() {
        let acc = meta_df();
        let req = PlacementRequest {
            stack_weight_bytes: 12 * 1024,
            layer_has_weights: true,
            is_first_tile: true,
            input_bytes: 1024,
            output_bytes: 1024,
            ..Default::default()
        };
        let p = determine_placement(&acc, &req, &PlacementPolicy::default());
        assert!(acc.hierarchy().level(p.weight).is_dram());
    }

    #[test]
    fn input_prioritized_over_output_when_lb_is_tight() {
        // Fig. 10: when I+O no longer fit the LB but I alone does, I keeps the
        // LB and O is pushed to the GB.
        let acc = meta_df();
        let req = PlacementRequest {
            stack_weight_bytes: 12 * 1024,
            layer_has_weights: true,
            is_first_tile: false,
            input_bytes: 40 * 1024,
            output_bytes: 40 * 1024,
            ..Default::default()
        };
        let p = determine_placement(&acc, &req, &PlacementPolicy::default());
        assert_eq!(p.input, lb_io(&acc));
        assert_eq!(p.output, gb_io(&acc));
    }

    #[test]
    fn huge_activations_fall_back_to_dram() {
        let acc = meta_df();
        let req = PlacementRequest {
            input_bytes: 30 * 1024 * 1024,
            output_bytes: 30 * 1024 * 1024,
            ..Default::default()
        };
        let p = determine_placement(&acc, &req, &PlacementPolicy::default());
        assert!(acc.hierarchy().level(p.input).is_dram());
        assert!(acc.hierarchy().level(p.output).is_dram());
    }

    #[test]
    fn caches_are_placed_after_activations() {
        let acc = meta_df();
        let req = PlacementRequest {
            stack_weight_bytes: 12 * 1024,
            layer_has_weights: true,
            is_first_tile: false,
            input_bytes: 30 * 1024,
            output_bytes: 30 * 1024,
            cache_h_bytes: 20 * 1024,
            cache_v_bytes: 3 * 1024 * 1024,
        };
        let p = determine_placement(&acc, &req, &PlacementPolicy::default());
        // I and O fill the 64 KB LB, so the H cache is pushed to the GB and
        // the oversized V cache to DRAM.
        assert_eq!(p.cache_h, Some(gb_io(&acc)));
        assert_eq!(p.cache_v, Some(acc.hierarchy().dram_id()));
        assert_eq!(p.input, lb_io(&acc));
    }

    #[test]
    fn disabling_multi_level_skipping_uses_highest_on_chip_level() {
        let acc = meta_df();
        let req = PlacementRequest {
            input_bytes: 8 * 1024,
            output_bytes: 8 * 1024,
            ..Default::default()
        };
        let policy = PlacementPolicy {
            multi_level_skipping: false,
        };
        let p = determine_placement(&acc, &req, &policy);
        // Even though the data would fit the LB, it is kept in the GB.
        assert_eq!(p.input, gb_io(&acc));
        assert_eq!(p.output, gb_io(&acc));
    }

    #[test]
    fn weightless_layers_do_not_reserve_weight_space() {
        let acc = meta_df();
        let req = PlacementRequest {
            stack_weight_bytes: 0,
            layer_has_weights: false,
            input_bytes: 1024,
            output_bytes: 1024,
            ..Default::default()
        };
        let p = determine_placement(&acc, &req, &PlacementPolicy::default());
        assert!(acc.hierarchy().level(p.weight).is_dram());
        assert_eq!(p.cache_h, None);
        assert_eq!(p.cache_v, None);
    }

    /// The path the old `saturating_sub` silently masked: reserving more than
    /// a level's remaining capacity is an accounting bug and must be caught
    /// (in debug builds) rather than clamped to zero.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "over-reservation")]
    fn over_reservation_is_a_debug_assertion() {
        let acc = meta_df();
        let lb = lb_io(&acc);
        let capacity = acc.hierarchy().level(lb).capacity_bytes().unwrap();
        let mut tracker = CapacityTracker::new(&acc);
        // First reservation drains the level; the second would have been
        // silently saturated to zero before and now trips the assertion.
        tracker.reserve(lb, capacity);
        tracker.reserve(lb, 1);
    }

    /// The guarded placement entry points never over-reserve: draining a
    /// level through `place_lowest` pushes later data upward instead of
    /// tripping the reservation assertion.
    #[test]
    fn guarded_placement_never_over_reserves() {
        let acc = meta_df();
        let lb = lb_io(&acc);
        let capacity = acc.hierarchy().level(lb).capacity_bytes().unwrap();
        let mut tracker = CapacityTracker::new(&acc);
        assert_eq!(tracker.place_lowest(Operand::Input, capacity), lb);
        // The LB is now full: the same request lands one level higher
        // without touching the LB's (exhausted) books.
        let next = tracker.place_lowest(Operand::Input, capacity);
        assert_ne!(next, lb);
        assert_eq!(tracker.remaining(lb), 0);
    }

    #[test]
    fn tpu_like_weights_always_stream_from_dram() {
        let acc = zoo::tpu_like();
        let req = PlacementRequest {
            stack_weight_bytes: 500 * 1024,
            layer_has_weights: true,
            is_first_tile: false,
            input_bytes: 10 * 1024,
            output_bytes: 10 * 1024,
            ..Default::default()
        };
        let p = determine_placement(&acc, &req, &PlacementPolicy::default());
        assert!(acc.hierarchy().level(p.weight).is_dram());
    }

    /// Reference placement: a `BTreeMap` of every level's remaining
    /// capacity, the plain form the fixed-size tracker is checked against.
    mod reference {
        use super::super::{DataPlacement, PlacementPolicy, PlacementRequest};
        use defines_arch::{Accelerator, MemoryLevelId, Operand};
        use std::collections::BTreeMap;

        struct CapacityTracker<'a> {
            acc: &'a Accelerator,
            remaining: BTreeMap<MemoryLevelId, u64>,
        }

        impl<'a> CapacityTracker<'a> {
            fn new(acc: &'a Accelerator) -> Self {
                let remaining = acc
                    .hierarchy()
                    .levels()
                    .iter()
                    .enumerate()
                    .map(|(i, l)| (MemoryLevelId(i), l.capacity_bytes().unwrap_or(u64::MAX)))
                    .collect();
                Self { acc, remaining }
            }

            fn place_lowest(&mut self, operand: Operand, bytes: u64) -> MemoryLevelId {
                let dram = self.acc.hierarchy().dram_id();
                let candidates: Vec<MemoryLevelId> = self
                    .acc
                    .hierarchy()
                    .levels_for(operand)
                    .map(|(id, _)| id)
                    .collect();
                for id in candidates {
                    if self.remaining[&id] >= bytes {
                        self.reserve(id, bytes);
                        return id;
                    }
                }
                dram
            }

            fn place_highest_on_chip(&mut self, operand: Operand, bytes: u64) -> MemoryLevelId {
                let dram = self.acc.hierarchy().dram_id();
                let candidate = self
                    .acc
                    .hierarchy()
                    .levels_for(operand)
                    .filter(|(id, l)| !l.is_dram() && self.remaining[id] >= bytes)
                    .map(|(id, _)| id)
                    .last();
                match candidate {
                    Some(id) => {
                        self.reserve(id, bytes);
                        id
                    }
                    None => dram,
                }
            }

            fn reserve(&mut self, id: MemoryLevelId, bytes: u64) {
                if let Some(r) = self.remaining.get_mut(&id) {
                    *r = r.saturating_sub(bytes);
                }
            }
        }

        pub(super) fn determine_placement(
            acc: &Accelerator,
            request: &PlacementRequest,
            policy: &PlacementPolicy,
        ) -> DataPlacement {
            let dram = acc.hierarchy().dram_id();
            let mut tracker = CapacityTracker::new(acc);
            let weight_home = if request.stack_weight_bytes > 0 {
                tracker.place_lowest(Operand::Weight, request.stack_weight_bytes)
            } else {
                dram
            };
            let weight = if !request.layer_has_weights || request.is_first_tile {
                dram
            } else {
                weight_home
            };
            let input = if policy.multi_level_skipping {
                tracker.place_lowest(Operand::Input, request.input_bytes)
            } else {
                tracker.place_highest_on_chip(Operand::Input, request.input_bytes)
            };
            let output = if policy.multi_level_skipping {
                tracker.place_lowest(Operand::Output, request.output_bytes)
            } else {
                tracker.place_highest_on_chip(Operand::Output, request.output_bytes)
            };
            let cache_h = (request.cache_h_bytes > 0)
                .then(|| tracker.place_lowest(Operand::Input, request.cache_h_bytes));
            let cache_v = (request.cache_v_bytes > 0)
                .then(|| tracker.place_lowest(Operand::Input, request.cache_v_bytes));
            DataPlacement {
                weight,
                input,
                output,
                cache_h,
                cache_v,
            }
        }
    }

    /// A byte count spread over every scale from nothing to 256 MiB, so
    /// requests land below, across and above every level's capacity.
    fn bytes() -> impl Strategy<Value = u64> {
        (0u32..=28, 0u64..1 << 28).prop_map(|(bits, v)| v >> (28 - bits))
    }

    /// A request size for `acc`: `bytes` itself, or for `kind` 2 and 3 the
    /// whole or half capacity of an on-chip level picked by `bytes`, so
    /// that exact fits and exactly drained levels come up.
    fn size(acc: &Accelerator, (kind, bytes): (u8, u64)) -> u64 {
        let on_chip = acc.hierarchy().len() as u64 - 1;
        let capacity = || {
            acc.hierarchy()
                .level(MemoryLevelId((bytes % on_chip) as usize))
                .capacity_bytes()
                .unwrap_or(bytes)
        };
        match kind {
            2 => capacity(),
            3 => capacity() / 2,
            _ => bytes,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The fixed-size tracker places every request where the `BTreeMap`
        /// tracker did, on every committed accelerator under both policies.
        #[test]
        fn placement_matches_the_btreemap_reference(
            sizes in (
                (0u8..4, bytes()),
                (0u8..4, bytes()),
                (0u8..4, bytes()),
                (0u8..4, bytes()),
                (0u8..4, bytes()),
            ),
            flags in (0u8..2, 0u8..2),
        ) {
            for name in zoo::names() {
                let acc = zoo::by_name(name).unwrap();
                let request = PlacementRequest {
                    stack_weight_bytes: size(&acc, sizes.0),
                    layer_has_weights: flags.0 == 1,
                    is_first_tile: flags.1 == 1,
                    input_bytes: size(&acc, sizes.1),
                    output_bytes: size(&acc, sizes.2),
                    cache_h_bytes: size(&acc, sizes.3),
                    cache_v_bytes: size(&acc, sizes.4),
                };
                for multi_level_skipping in [true, false] {
                    let policy = PlacementPolicy { multi_level_skipping };
                    prop_assert_eq!(
                        determine_placement(&acc, &request, &policy),
                        reference::determine_placement(&acc, &request, &policy),
                        "{} {:?} {:?}", name, policy, request
                    );
                }
            }
        }
    }
}

//! Processing-element array and spatial unrolling.

use defines_workload::{Dim, LayerDims};
use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt;

/// The spatial unrolling of a PE array: which loop dimensions are parallelized
/// and by how much.
///
/// In the paper's Table I(a) notation, `K 32 | C 2 | OX 4 | OY 4` means 32
/// output channels, 2 input channels and a 4×4 output pixel patch are computed
/// in parallel every cycle (1024 MACs total).
///
/// ```
/// use defines_arch::SpatialUnrolling;
/// use defines_workload::Dim;
///
/// let u = SpatialUnrolling::from_pairs([(Dim::K, 32), (Dim::C, 2), (Dim::OX, 4), (Dim::OY, 4)]);
/// assert_eq!(u.total(), 1024);
/// assert_eq!(u.factor(Dim::K), 32);
/// assert_eq!(u.factor(Dim::FY), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize)]
pub struct SpatialUnrolling {
    factors: BTreeMap<Dim, u64>,
}

impl SpatialUnrolling {
    /// Creates an unrolling from `(dimension, factor)` pairs. Factors of 1 are
    /// dropped.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (Dim, u64)>) -> Self {
        let factors = pairs.into_iter().filter(|&(_, f)| f > 1).collect();
        Self { factors }
    }

    /// The unrolling factor for a dimension (1 when not unrolled).
    pub fn factor(&self, dim: Dim) -> u64 {
        self.factors.get(&dim).copied().unwrap_or(1)
    }

    /// The total degree of parallelism (product of all factors).
    pub fn total(&self) -> u64 {
        self.factors.values().product()
    }

    /// Iterates over `(dimension, factor)` pairs with factor > 1.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Dim, u64)> + '_ {
        self.factors.iter().map(|(&d, &f)| (d, f))
    }

    /// The spatial utilization of the array for a layer: the fraction of MACs
    /// doing useful work each cycle, accounting for loop bounds that are
    /// smaller than or not divisible by the unrolling factors.
    ///
    /// For every unrolled dimension `d` with factor `u` and layer bound `n`,
    /// the per-dimension utilization is `n / (u * ceil(n / u))`; the total is
    /// the product over dimensions.
    pub(crate) fn utilization(&self, dims: &LayerDims) -> f64 {
        let mut util = 1.0;
        for (dim, factor) in self.iter() {
            let n = dims.size(dim).max(1);
            let ceil = n.div_ceil(factor);
            util *= n as f64 / (factor * ceil) as f64;
        }
        util
    }

    /// Spatial data-reuse factor for an operand class: how many MACs share one
    /// fetched element of that operand per cycle. This equals the product of
    /// the unrolling factors of dimensions *irrelevant* to the operand.
    pub fn spatial_reuse(&self, relevant: &[Dim]) -> u64 {
        self.iter()
            .filter(|(d, _)| !relevant.contains(d))
            .map(|(_, f)| f)
            .product::<u64>()
            .max(1)
    }
}

impl fmt::Display for SpatialUnrolling {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.iter().map(|(d, u)| format!("{d} {u}")).collect();
        f.write_str(&parts.join(" | "))
    }
}

/// A MAC array with a fixed spatial unrolling.
///
/// ```
/// use defines_arch::{AcceleratorBuilder, MemoryLevel, Operand, SpatialUnrolling};
/// use defines_workload::Dim;
///
/// let acc = AcceleratorBuilder::new("demo")
///     .pe_array(SpatialUnrolling::from_pairs([(Dim::K, 32), (Dim::C, 32)]), 0.5)
///     .add_level(MemoryLevel::sram("LB", 64 * 1024, Operand::ALL))
///     .build()
///     .unwrap();
/// assert_eq!(acc.pe_array().total_macs(), 1024);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PeArray {
    unrolling: SpatialUnrolling,
    mac_energy_pj: f64,
}

impl PeArray {
    /// Creates a PE array with the given unrolling and per-MAC energy in pJ.
    pub(crate) fn new(unrolling: SpatialUnrolling, mac_energy_pj: f64) -> Self {
        Self {
            unrolling,
            mac_energy_pj,
        }
    }

    /// The spatial unrolling.
    pub fn unrolling(&self) -> &SpatialUnrolling {
        &self.unrolling
    }

    /// The number of MAC units.
    pub fn total_macs(&self) -> u64 {
        self.unrolling.total()
    }

    /// The energy of one MAC operation in pJ.
    pub fn mac_energy_pj(&self) -> f64 {
        self.mac_energy_pj
    }

    /// Ideal compute cycles for `macs` MAC operations on a layer with the
    /// given dimensions, accounting for spatial under-utilization.
    pub fn compute_cycles(&self, macs: u64, dims: &LayerDims) -> f64 {
        let util = self.unrolling.utilization(dims).max(1e-9);
        macs as f64 / (self.total_macs() as f64 * util)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta_unroll() -> SpatialUnrolling {
        SpatialUnrolling::from_pairs([(Dim::K, 32), (Dim::C, 2), (Dim::OX, 4), (Dim::OY, 4)])
    }

    #[test]
    fn total_and_factor() {
        let u = meta_unroll();
        assert_eq!(u.total(), 1024);
        assert_eq!(u.factor(Dim::OX), 4);
        assert_eq!(u.factor(Dim::B), 1);
    }

    #[test]
    fn utilization_full_when_divisible() {
        let u = meta_unroll();
        let dims = LayerDims::conv(64, 4, 8, 8, 3, 3);
        assert!((u.utilization(&dims) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn utilization_drops_for_tiny_tiles() {
        let u = meta_unroll();
        // A 1x1 output tile wastes the OX4 x OY4 unrolling: utilization 1/16.
        let dims = LayerDims::conv(64, 4, 1, 1, 3, 3);
        let util = u.utilization(&dims);
        assert!((util - 1.0 / 16.0).abs() < 1e-12, "util = {util}");
    }

    #[test]
    fn utilization_handles_non_divisible_bounds() {
        let u = SpatialUnrolling::from_pairs([(Dim::K, 32)]);
        let dims = LayerDims::conv(56, 1, 8, 8, 3, 3);
        // 56 over unroll 32 needs 2 passes of 32 slots: 56/64.
        assert!((u.utilization(&dims) - 56.0 / 64.0).abs() < 1e-12);
    }

    #[test]
    fn spatial_reuse_by_operand() {
        let u = meta_unroll();
        // Weights are irrelevant to OX, OY: reuse 16.
        assert_eq!(u.spatial_reuse(&[Dim::K, Dim::C, Dim::FX, Dim::FY]), 16);
        // Outputs are irrelevant to C, FX, FY: reuse 2.
        assert_eq!(u.spatial_reuse(&[Dim::K, Dim::OX, Dim::OY, Dim::B]), 2);
        // Inputs are irrelevant to K: reuse 32.
        assert_eq!(
            u.spatial_reuse(&[Dim::C, Dim::OX, Dim::OY, Dim::FX, Dim::FY, Dim::B]),
            32
        );
    }

    #[test]
    fn compute_cycles_scale_inverse_with_utilization() {
        let pe = PeArray::new(meta_unroll(), 0.5);
        let full = LayerDims::conv(32, 2, 4, 4, 1, 1);
        let macs = full.total_macs();
        assert!((pe.compute_cycles(macs, &full) - 1.0).abs() < 1e-9);
        let tiny = LayerDims::conv(32, 2, 1, 1, 1, 1);
        assert!(pe.compute_cycles(tiny.total_macs(), &tiny) > 0.99);
    }

    #[test]
    fn display_format() {
        // Dimensions render in canonical (B, K, C, OX, OY, FX, FY) order.
        assert_eq!(meta_unroll().to_string(), "K 32 | C 2 | OX 4 | OY 4");
    }
}

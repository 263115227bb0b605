//! The cost of a single layer-tile under a temporal mapping: the
//! per-(level, operand) access breakdown, energy and latency. The arithmetic
//! that fills them lives in [`crate::search`], the one place a mapping is
//! priced.

use crate::problem::SingleLayerProblem;
use crate::search::Kernel;
use crate::temporal::TemporalMapping;
use defines_arch::{MemoryLevelId, Operand};
use serde::{Serialize, Writer};

/// Read/write traffic at one memory level attributable to one operand, in
/// bytes.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct Access {
    /// Bytes read from the level.
    pub reads_bytes: f64,
    /// Bytes written to the level.
    pub writes_bytes: f64,
}

impl Access {
    /// Total traffic (reads + writes).
    pub fn total_bytes(&self) -> f64 {
        self.reads_bytes + self.writes_bytes
    }
}

/// Per-(memory level, operand) access breakdown.
///
/// Internally a `Vec` of entries kept sorted by `(level, operand)` — the
/// entry count is bounded by `levels × 3`, where binary search plus a short
/// memmove beats a node-allocating tree map by a wide margin on the cost
/// model's hot accumulation paths. Iteration order (and therefore every
/// float-summation order built on it) is identical to the previous
/// `BTreeMap`-backed representation, as is the serialized form.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AccessBreakdown {
    map: Vec<((MemoryLevelId, Operand), Access)>,
}

impl Serialize for AccessBreakdown {
    fn serialize(&self, w: &mut Writer<'_>) {
        // Matches the derived (BTreeMap-backed) encoding: a `map` field whose
        // non-string keys render as an array of `[key, value]` pairs.
        w.begin_object();
        w.field("map", &self.map);
        w.end_object();
    }
}

impl AccessBreakdown {
    /// Creates an empty breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds a breakdown from explicit entries — the deserialization path
    /// of the persistent mapping-cache store. Entries are re-sorted by
    /// `(level, operand)` so the invariant the accessors rely on holds even
    /// if the input order drifted.
    pub fn from_entries(entries: Vec<((MemoryLevelId, Operand), Access)>) -> Self {
        let mut map = entries;
        map.sort_unstable_by_key(|&(k, _)| k);
        Self { map }
    }

    /// The slot for a key, inserted zeroed if absent.
    fn slot(&mut self, key: (MemoryLevelId, Operand)) -> &mut Access {
        match self.map.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => &mut self.map[i].1,
            Err(i) => {
                self.map.insert(i, (key, Access::default()));
                &mut self.map[i].1
            }
        }
    }

    /// Adds reads at a level for an operand.
    pub fn add_reads(&mut self, level: MemoryLevelId, operand: Operand, bytes: f64) {
        self.slot((level, operand)).reads_bytes += bytes;
    }

    /// Adds writes at a level for an operand.
    pub fn add_writes(&mut self, level: MemoryLevelId, operand: Operand, bytes: f64) {
        self.slot((level, operand)).writes_bytes += bytes;
    }

    /// The access record for a (level, operand) pair.
    pub fn get(&self, level: MemoryLevelId, operand: Operand) -> Access {
        match self
            .map
            .binary_search_by_key(&(level, operand), |&(k, _)| k)
        {
            Ok(i) => self.map[i].1,
            Err(_) => Access::default(),
        }
    }

    /// Iterates over all `(level, operand, access)` entries in
    /// `(level, operand)` order.
    pub fn iter(&self) -> impl Iterator<Item = (MemoryLevelId, Operand, Access)> + '_ {
        self.map.iter().map(|&((l, o), a)| (l, o, a))
    }

    /// Total traffic at a level across operands.
    pub fn level_total(&self, level: MemoryLevelId) -> Access {
        let mut acc = Access::default();
        for &((l, _), a) in &self.map {
            if l == level {
                acc.reads_bytes += a.reads_bytes;
                acc.writes_bytes += a.writes_bytes;
            }
        }
        acc
    }

    /// Total traffic of one operand across levels.
    pub fn operand_total(&self, operand: Operand) -> Access {
        let mut acc = Access::default();
        for &((_, o), a) in &self.map {
            if o == operand {
                acc.reads_bytes += a.reads_bytes;
                acc.writes_bytes += a.writes_bytes;
            }
        }
        acc
    }

    /// Merges another breakdown into this one.
    pub fn merge(&mut self, other: &AccessBreakdown) {
        for &(k, a) in &other.map {
            let e = self.slot(k);
            e.reads_bytes += a.reads_bytes;
            e.writes_bytes += a.writes_bytes;
        }
    }

    /// Merges `other` scaled by `factor`, without materializing the scaled
    /// intermediate — bit-identical to `merge(&other.scaled(factor))`.
    pub fn merge_scaled(&mut self, other: &AccessBreakdown, factor: f64) {
        for &(k, a) in &other.map {
            let e = self.slot(k);
            e.reads_bytes += a.reads_bytes * factor;
            e.writes_bytes += a.writes_bytes * factor;
        }
    }

    /// Scales all traffic by a factor: the reference [`Self::merge_scaled`]
    /// is tested against.
    #[cfg(test)]
    pub(crate) fn scaled(&self, factor: f64) -> AccessBreakdown {
        let map = self
            .map
            .iter()
            .map(|&(k, a)| {
                (
                    k,
                    Access {
                        reads_bytes: a.reads_bytes * factor,
                        writes_bytes: a.writes_bytes * factor,
                    },
                )
            })
            .collect();
        AccessBreakdown { map }
    }
}

/// What the mapper should minimize.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub enum Objective {
    /// Minimize total energy (the paper's default for the case studies).
    #[default]
    Energy,
    /// Minimize latency in cycles.
    Latency,
    /// Minimize the energy-delay product.
    Edp,
    /// Minimize DRAM traffic (the target used by several SotA frameworks in
    /// Table II; exposed to reproduce Fig. 18).
    DramAccess,
}

/// The evaluated cost of one layer (or layer-tile).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LayerCost {
    /// Total energy in pJ (MAC + memory).
    pub energy_pj: f64,
    /// Energy spent in MAC operations, in pJ.
    pub mac_energy_pj: f64,
    /// Energy spent in memory accesses, in pJ.
    pub memory_energy_pj: f64,
    /// Latency in cycles (compute / bandwidth bound, whichever dominates).
    pub latency_cycles: f64,
    /// Ideal compute cycles (no memory stalls).
    pub compute_cycles: f64,
    /// Number of MAC operations performed.
    pub macs: u64,
    /// Per-level, per-operand access breakdown.
    pub accesses: AccessBreakdown,
    /// The temporal mapping this cost was evaluated for.
    pub mapping: TemporalMapping,
    /// Whether the search that produced this cost exhausted its work budget
    /// ([`crate::Budget`]): the cost is then the exact optimum of the
    /// in-budget candidate window only. Evaluating a *fixed* mapping never
    /// degrades.
    pub degraded: bool,
}

impl LayerCost {
    /// Energy-delay product (pJ · cycles).
    pub(crate) fn edp(&self) -> f64 {
        self.energy_pj * self.latency_cycles
    }

    /// Total DRAM traffic in bytes.
    pub(crate) fn dram_bytes(&self, dram: MemoryLevelId) -> f64 {
        self.accesses.level_total(dram).total_bytes()
    }

    /// The scalar value of an objective for this cost.
    pub(crate) fn objective_value(&self, objective: Objective, dram: MemoryLevelId) -> f64 {
        match objective {
            Objective::Energy => self.energy_pj,
            Objective::Latency => self.latency_cycles,
            Objective::Edp => self.edp(),
            Objective::DramAccess => self.dram_bytes(dram),
        }
    }
}

/// Evaluates the cost of a problem under a specific temporal mapping, through
/// the search kernel's arithmetic (see [`crate::search`]).
pub(crate) fn evaluate(problem: &SingleLayerProblem<'_>, mapping: TemporalMapping) -> LayerCost {
    Kernel::new(problem).evaluate(mapping)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temporal::candidate_orderings;
    use defines_arch::zoo;
    use defines_workload::{Dim, Layer, LayerDims, OpType};

    fn cost_for(dims: LayerDims, order: &[Dim]) -> (defines_arch::Accelerator, LayerCost) {
        let acc = zoo::meta_proto_like_df();
        let layer = Layer::new("c", OpType::Conv, dims);
        let p = SingleLayerProblem::new(&acc, &layer);
        let m = TemporalMapping::from_order(&p, order);
        let c = evaluate(&p, m);
        (acc, c)
    }

    #[test]
    fn energy_components_are_consistent() {
        let (_, c) = cost_for(
            LayerDims::conv(64, 16, 32, 32, 3, 3),
            &Dim::SPATIAL_AND_CHANNEL,
        );
        assert!(c.energy_pj > 0.0);
        assert!((c.energy_pj - (c.mac_energy_pj + c.memory_energy_pj)).abs() < 1e-6);
        assert!(c.latency_cycles >= c.compute_cycles);
        assert_eq!(c.macs, 64 * 16 * 32 * 32 * 9);
    }

    #[test]
    fn output_drain_reaches_top_level_exactly_once_for_output_stationary_order() {
        // With all reduction loops innermost, outputs are fully accumulated
        // before moving up: the DRAM sees exactly the output footprint.
        let acc = zoo::meta_proto_like_df();
        let layer = Layer::new("c", OpType::Conv, LayerDims::conv(64, 16, 32, 32, 3, 3));
        let p = SingleLayerProblem::new(&acc, &layer);
        let m =
            TemporalMapping::from_order(&p, &[Dim::C, Dim::FX, Dim::FY, Dim::K, Dim::OX, Dim::OY]);
        let c = evaluate(&p, m);
        let dram = acc.hierarchy().dram_id();
        let o_at_dram = c.accesses.get(dram, Operand::Output);
        assert!((o_at_dram.writes_bytes - (64.0 * 32.0 * 32.0)).abs() < 1e-6);
        assert_eq!(o_at_dram.reads_bytes, 0.0);
    }

    #[test]
    fn weight_dram_reads_at_least_footprint() {
        let (acc, c) = cost_for(
            LayerDims::conv(64, 16, 32, 32, 3, 3),
            &Dim::SPATIAL_AND_CHANNEL,
        );
        let dram = acc.hierarchy().dram_id();
        let w = c.accesses.get(dram, Operand::Weight);
        assert!(w.reads_bytes >= (64 * 16 * 9) as f64);
    }

    #[test]
    fn mapping_choice_changes_cost() {
        let orders = [
            [Dim::K, Dim::C, Dim::FX, Dim::FY, Dim::OX, Dim::OY],
            [Dim::OX, Dim::OY, Dim::K, Dim::C, Dim::FX, Dim::FY],
        ];
        let dims = LayerDims::conv(128, 64, 56, 56, 3, 3);
        let (_, a) = cost_for(dims, &orders[0]);
        let (_, b) = cost_for(dims, &orders[1]);
        assert_ne!(a.energy_pj, b.energy_pj);
    }

    #[test]
    fn breakdown_merge_and_scale() {
        let (_, c) = cost_for(
            LayerDims::conv(16, 8, 16, 16, 3, 3),
            &Dim::SPATIAL_AND_CHANNEL,
        );
        let mut merged = AccessBreakdown::new();
        merged.merge(&c.accesses);
        merged.merge(&c.accesses);
        let doubled = c.accesses.scaled(2.0);
        for (l, o, a) in doubled.iter() {
            let m = merged.get(l, o);
            assert!((m.reads_bytes - a.reads_bytes).abs() < 1e-9);
            assert!((m.writes_bytes - a.writes_bytes).abs() < 1e-9);
        }
    }

    #[test]
    fn objective_values() {
        let (acc, c) = cost_for(
            LayerDims::conv(16, 8, 16, 16, 3, 3),
            &Dim::SPATIAL_AND_CHANNEL,
        );
        let dram = acc.hierarchy().dram_id();
        assert_eq!(c.objective_value(Objective::Energy, dram), c.energy_pj);
        assert_eq!(
            c.objective_value(Objective::Latency, dram),
            c.latency_cycles
        );
        assert_eq!(c.objective_value(Objective::Edp, dram), c.edp());
        assert!(c.objective_value(Objective::DramAccess, dram) > 0.0);
    }

    #[test]
    fn pooling_layer_has_no_weight_traffic() {
        let acc = zoo::meta_proto_like_df();
        let layer = Layer::new(
            "pool",
            OpType::Pooling,
            LayerDims::conv(64, 64, 28, 28, 2, 2).with_stride(2, 2),
        );
        let p = SingleLayerProblem::new(&acc, &layer);
        let m = TemporalMapping::from_order(&p, &Dim::SPATIAL_AND_CHANNEL);
        let c = evaluate(&p, m);
        assert_eq!(c.accesses.operand_total(Operand::Weight).total_bytes(), 0.0);
        assert!(c.accesses.operand_total(Operand::Input).total_bytes() > 0.0);
    }

    #[test]
    fn all_orderings_produce_positive_finite_costs() {
        let acc = zoo::edge_tpu_like_df();
        let layer = Layer::new("c", OpType::Conv, LayerDims::conv(24, 12, 20, 20, 3, 3));
        let p = SingleLayerProblem::new(&acc, &layer);
        for order in candidate_orderings(&p, 64) {
            let m = TemporalMapping::from_order(&p, &order);
            let c = evaluate(&p, m);
            assert!(c.energy_pj.is_finite() && c.energy_pj > 0.0);
            assert!(c.latency_cycles.is_finite() && c.latency_cycles > 0.0);
        }
    }
}

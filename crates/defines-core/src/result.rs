//! Cost-result structures: per tile type, per stack, and per network.

use crate::backcalc::TileAnalysis;
use crate::explore::OptimizeTarget;
use crate::stack::Stack;
use defines_arch::{Accelerator, MemoryLevelId, Operand};
use defines_mapping::{Access, AccessBreakdown};
use serde::Serialize;

/// The class a memory access belongs to, used for the Fig.-14-style
/// breakdowns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum DataClass {
    /// Accesses caused by the layers' input/output activations.
    Activation,
    /// Accesses caused by the layers' weights.
    Weight,
    /// Accesses caused by data copy actions.
    DataCopy,
}

impl DataClass {
    /// All data classes.
    pub const ALL: [DataClass; 3] = [
        DataClass::Activation,
        DataClass::Weight,
        DataClass::DataCopy,
    ];
}

/// Summary of where the energy of an evaluation went.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub(crate) struct EnergySummary {
    /// Energy of the MAC operations, in pJ.
    pub mac_pj: f64,
    /// Energy of DRAM accesses, in pJ.
    pub dram_pj: f64,
    /// Energy of on-chip memory accesses, in pJ.
    pub on_chip_pj: f64,
    /// Memory energy attributable to weights, in pJ.
    pub weight_memory_pj: f64,
    /// Memory energy attributable to activations (including overlap caches and
    /// data copies), in pJ.
    pub activation_memory_pj: f64,
    /// Energy of the data copy actions alone, in pJ.
    pub copy_pj: f64,
}

impl EnergySummary {
    /// Total energy in pJ.
    #[cfg(test)]
    pub(crate) fn total_pj(&self) -> f64 {
        self.mac_pj + self.dram_pj + self.on_chip_pj
    }

    /// Adds another summary to this one.
    pub(crate) fn accumulate(&mut self, other: &EnergySummary) {
        self.mac_pj += other.mac_pj;
        self.dram_pj += other.dram_pj;
        self.on_chip_pj += other.on_chip_pj;
        self.weight_memory_pj += other.weight_memory_pj;
        self.activation_memory_pj += other.activation_memory_pj;
        self.copy_pj += other.copy_pj;
    }

    /// Scales the summary by a factor (used when replicating tile types).
    pub(crate) fn scaled(&self, f: f64) -> EnergySummary {
        EnergySummary {
            mac_pj: self.mac_pj * f,
            dram_pj: self.dram_pj * f,
            on_chip_pj: self.on_chip_pj * f,
            weight_memory_pj: self.weight_memory_pj * f,
            activation_memory_pj: self.activation_memory_pj * f,
            copy_pj: self.copy_pj * f,
        }
    }
}

/// Builds an [`EnergySummary`] from the MAC energy and the traffic of each
/// data class — activations, weights, copies: `(level, operand, access)`
/// entries in `(level, operand)` order — pricing each access with the
/// accelerator's memory-level costs.
pub(crate) fn energy_summary<I>(acc: &Accelerator, mac_pj: f64, classes: [I; 3]) -> EnergySummary
where
    I: IntoIterator<Item = (MemoryLevelId, Operand, Access)>,
{
    let hierarchy = acc.hierarchy();
    let mut s = EnergySummary {
        mac_pj,
        ..Default::default()
    };
    for (class, traffic) in DataClass::ALL.into_iter().zip(classes) {
        for (level_id, _operand, access) in traffic {
            let level = hierarchy.level(level_id);
            let e = access.reads_bytes * level.read_energy_pj_per_byte()
                + access.writes_bytes * level.write_energy_pj_per_byte();
            if level.is_dram() {
                s.dram_pj += e;
            } else {
                s.on_chip_pj += e;
            }
            match class {
                DataClass::Weight => s.weight_memory_pj += e,
                DataClass::Activation => s.activation_memory_pj += e,
                DataClass::DataCopy => {
                    s.activation_memory_pj += e;
                    s.copy_pj += e;
                }
            }
        }
    }
    s
}

/// The cost of one tile *type* (a set of identical tiles evaluated once).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TileTypeCost {
    /// The back-calculation result describing the tile type.
    pub analysis: TileAnalysis,
    /// How many tiles of this type the stack contains.
    pub count: u64,
    /// Energy of **one** tile of this type, in pJ.
    pub energy_pj: f64,
    /// Latency of one tile of this type, in cycles.
    pub latency_cycles: f64,
    /// MAC operations of one tile of this type.
    pub macs: u64,
    /// Access breakdown of one tile: activations (I/O) of the layers.
    pub activation_access: AccessBreakdown,
    /// Access breakdown of one tile: weights.
    pub weight_access: AccessBreakdown,
    /// Access breakdown of one tile: data copy actions.
    pub copy_access: AccessBreakdown,
    /// Energy summary of one tile.
    pub(crate) energy_summary: EnergySummary,
    /// Whether any single-layer mapping search inside this tile type ran out
    /// of its deterministic work budget and returned a best-so-far mapping
    /// (see [`defines_mapping::Budget`]). `false` under unlimited budgets.
    pub degraded: bool,
}

/// The cost of one stack of fused layers across all its tiles.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StackCost {
    /// The stack.
    pub stack: Stack,
    /// Number of tiles the stack's output was partitioned into.
    pub num_tiles: u64,
    /// The unique tile types and their per-tile costs.
    pub tile_types: Vec<TileTypeCost>,
    /// Total energy of the stack, in pJ.
    pub energy_pj: f64,
    /// Total latency of the stack, in cycles.
    pub latency_cycles: f64,
    /// Total MAC operations.
    pub macs: u64,
    /// Aggregated activation accesses.
    pub activation_access: AccessBreakdown,
    /// Aggregated weight accesses.
    pub weight_access: AccessBreakdown,
    /// Aggregated data-copy accesses.
    pub copy_access: AccessBreakdown,
    /// Aggregated energy summary.
    pub(crate) energy_summary: EnergySummary,
    /// Whether any tile type of this stack is budget-degraded (OR over
    /// [`TileTypeCost::degraded`]): the reported cost is exact for the
    /// mappings that were searched, but a larger budget might find better
    /// mappings.
    pub degraded: bool,
}

impl StackCost {
    /// Number of distinct tile types (a proxy for code/control complexity,
    /// Fig. 6).
    #[cfg(test)]
    pub(crate) fn tile_type_count(&self) -> usize {
        self.tile_types.len()
    }
}

/// What one stack candidate costs, as far as an [`OptimizeTarget`] reads
/// it: the value path's result, which a schedule search keeps per candidate
/// instead of a [`StackCost`]. Each sum runs in the order of the
/// [`StackCost`]'s, so [`StackValue::value`] equals
/// [`OptimizeTarget::stack_value`] of the same candidate's [`StackCost`],
/// bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StackValue {
    /// Total energy of the stack, in pJ.
    pub energy_pj: f64,
    /// Total latency of the stack, in cycles.
    pub latency_cycles: f64,
    /// Total MAC operations.
    pub macs: u64,
    /// Whether any tile type of the stack is budget-degraded, as
    /// [`StackCost::degraded`].
    pub degraded: bool,
    /// Memory energy caused by activations (including data copies), in pJ.
    pub(crate) activation_memory_pj: f64,
    /// DRAM traffic per data class ([`DataClass::ALL`] order) and operand
    /// ([`Operand::ALL`] order). A slot no tile touched reads zero: adding
    /// it to a sum that starts at `+0.0` changes no bit.
    pub(crate) dram_traffic: [[Access; 3]; 3],
}

impl StackValue {
    /// The scalar value of `target` for this stack.
    pub fn value(&self, target: OptimizeTarget) -> f64 {
        match target {
            OptimizeTarget::Energy => self.energy_pj,
            OptimizeTarget::Latency => self.latency_cycles,
            OptimizeTarget::Edp => self.energy_pj * self.latency_cycles,
            OptimizeTarget::DramAccess => {
                // `AccessBreakdown::level_total` per class, then the sum.
                let [activation, weight, copy] = self.dram_traffic.map(|operands| {
                    let mut total = Access::default();
                    for access in operands {
                        total.reads_bytes += access.reads_bytes;
                        total.writes_bytes += access.writes_bytes;
                    }
                    total.total_bytes()
                });
                activation + weight + copy
            }
            OptimizeTarget::ActivationEnergy => self.activation_memory_pj,
        }
    }
}

/// The cost of a full network under one scheduling strategy.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct NetworkCost {
    /// Per-stack results.
    pub stacks: Vec<StackCost>,
    /// Total energy, in pJ.
    pub energy_pj: f64,
    /// Total latency, in cycles.
    pub latency_cycles: f64,
    /// Total MAC operations.
    pub macs: u64,
    /// Aggregated activation accesses.
    pub activation_access: AccessBreakdown,
    /// Aggregated weight accesses.
    pub weight_access: AccessBreakdown,
    /// Aggregated data-copy accesses.
    pub copy_access: AccessBreakdown,
    /// Aggregated energy summary.
    pub(crate) energy_summary: EnergySummary,
    /// Whether any stack is budget-degraded (OR over
    /// [`StackCost::degraded`]).
    pub degraded: bool,
}

impl NetworkCost {
    /// Builds the network cost by summing stack costs.
    pub(crate) fn from_stacks(stacks: Vec<StackCost>) -> Self {
        let mut energy = 0.0;
        let mut latency = 0.0;
        let mut macs = 0;
        let mut activation = AccessBreakdown::new();
        let mut weight = AccessBreakdown::new();
        let mut copy = AccessBreakdown::new();
        let mut summary = EnergySummary::default();
        let mut degraded = false;
        for s in &stacks {
            energy += s.energy_pj;
            latency += s.latency_cycles;
            macs += s.macs;
            activation.merge(&s.activation_access);
            weight.merge(&s.weight_access);
            copy.merge(&s.copy_access);
            summary.accumulate(&s.energy_summary);
            degraded |= s.degraded;
        }
        Self {
            stacks,
            energy_pj: energy,
            latency_cycles: latency,
            macs,
            activation_access: activation,
            weight_access: weight,
            copy_access: copy,
            energy_summary: summary,
            degraded,
        }
    }

    /// Energy in millijoules (the unit used by the paper's figures).
    pub fn energy_mj(&self) -> f64 {
        self.energy_pj * 1e-9
    }

    /// Latency in millions of cycles (the unit used by the paper's figures).
    pub fn latency_mcycles(&self) -> f64 {
        self.latency_cycles * 1e-6
    }

    /// Energy-delay product in pJ · cycles.
    pub fn edp(&self) -> f64 {
        self.energy_pj * self.latency_cycles
    }

    /// Total accesses of one data class.
    pub fn access_of(&self, class: DataClass) -> &AccessBreakdown {
        match class {
            DataClass::Activation => &self.activation_access,
            DataClass::Weight => &self.weight_access,
            DataClass::DataCopy => &self.copy_access,
        }
    }

    /// Total bytes moved at a given memory level, across all data classes.
    pub(crate) fn level_traffic_bytes(&self, level: MemoryLevelId) -> f64 {
        DataClass::ALL
            .iter()
            .map(|&c| self.access_of(c).level_total(level).total_bytes())
            .sum()
    }

    /// Total DRAM traffic in bytes.
    pub fn dram_traffic_bytes(&self, acc: &Accelerator) -> f64 {
        self.level_traffic_bytes(acc.hierarchy().dram_id())
    }

    /// Total traffic of one operand across all levels and data classes.
    #[cfg(test)]
    pub(crate) fn operand_traffic_bytes(&self, operand: defines_arch::Operand) -> f64 {
        DataClass::ALL
            .iter()
            .map(|&c| self.access_of(c).operand_total(operand).total_bytes())
            .sum()
    }

    /// Memory energy caused by activations (including data copies), in pJ —
    /// the quantity an "activation-only" optimizer would see (Fig. 18(c)).
    pub fn activation_energy_pj(&self) -> f64 {
        self.energy_summary.activation_memory_pj
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use defines_arch::zoo;

    fn dummy_breakdown(
        level: MemoryLevelId,
        operand: Operand,
        reads: f64,
        writes: f64,
    ) -> AccessBreakdown {
        let mut b = AccessBreakdown::new();
        b.add_reads(level, operand, reads);
        b.add_writes(level, operand, writes);
        b
    }

    #[test]
    fn energy_summary_splits_dram_and_on_chip() {
        let acc = zoo::meta_proto_like_df();
        let dram = acc.hierarchy().dram_id();
        let lb = acc.hierarchy().level_id_named("LB_IO").unwrap();
        let act = dummy_breakdown(lb, Operand::Input, 1000.0, 0.0);
        let w = dummy_breakdown(dram, Operand::Weight, 1000.0, 0.0);
        let copies = AccessBreakdown::new();
        let s = energy_summary(&acc, 10.0, [act.iter(), w.iter(), copies.iter()]);
        assert!(s.dram_pj > s.on_chip_pj, "DRAM must dominate: {s:?}");
        assert!(s.weight_memory_pj > 0.0);
        assert!(s.activation_memory_pj > 0.0);
        assert_eq!(s.copy_pj, 0.0);
        assert!((s.total_pj() - (10.0 + s.dram_pj + s.on_chip_pj)).abs() < 1e-9);
    }

    #[test]
    fn summary_accumulate_and_scale() {
        let a = EnergySummary {
            mac_pj: 1.0,
            dram_pj: 2.0,
            on_chip_pj: 3.0,
            weight_memory_pj: 1.5,
            activation_memory_pj: 3.5,
            copy_pj: 0.5,
        };
        let mut b = a;
        b.accumulate(&a);
        assert_eq!(b.total_pj(), 2.0 * a.total_pj());
        let c = a.scaled(3.0);
        assert_eq!(c.mac_pj, 3.0);
        assert_eq!(c.copy_pj, 1.5);
    }

    #[test]
    fn network_cost_sums_stacks() {
        let stack = Stack::new(vec![defines_workload::LayerId(0)]);
        let make = |e: f64, l: f64| StackCost {
            stack: stack.clone(),
            num_tiles: 1,
            tile_types: vec![],
            energy_pj: e,
            latency_cycles: l,
            macs: 100,
            activation_access: AccessBreakdown::new(),
            weight_access: AccessBreakdown::new(),
            copy_access: AccessBreakdown::new(),
            energy_summary: EnergySummary {
                mac_pj: e,
                ..Default::default()
            },
            degraded: false,
        };
        let net = NetworkCost::from_stacks(vec![make(10.0, 5.0), make(20.0, 7.0)]);
        assert_eq!(net.energy_pj, 30.0);
        assert_eq!(net.latency_cycles, 12.0);
        assert_eq!(net.macs, 200);
        assert_eq!(net.edp(), 30.0 * 12.0);
        assert!((net.energy_mj() - 30.0e-9).abs() < 1e-18);
    }
}

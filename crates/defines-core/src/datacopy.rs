//! Step 4 of the depth-first cost model: data copy actions and their cost.
//!
//! A *data copy action* moves a given number of bytes from one memory level to
//! another — for instance collecting cached overlap data from the global
//! buffer into the local buffer that was chosen as the input's top memory
//! level, or pushing a freshly computed tile output into the overlap cache.
//! The cost model accounts the read at the source, the write at the
//! destination, and the cycles the transfers occupy on each memory port
//! (concurrent copies that hit the same port serialize).

use defines_arch::{Accelerator, MemoryLevelId, Operand};
use serde::Serialize;

/// One data copy action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct DataCopyAction {
    /// Number of bytes to move.
    pub bytes: u64,
    /// Source memory level.
    pub from: MemoryLevelId,
    /// Destination memory level.
    pub to: MemoryLevelId,
    /// The operand class the moved data belongs to (used for reporting).
    pub operand: Operand,
}

impl DataCopyAction {
    /// Creates a copy action. Actions with `from == to` or zero bytes are
    /// meaningful no-ops; [`copy_cost`] skips them.
    pub fn new(bytes: u64, from: MemoryLevelId, to: MemoryLevelId, operand: Operand) -> Self {
        Self {
            bytes,
            from,
            to,
            operand,
        }
    }

    /// Whether the action actually moves data.
    pub(crate) fn is_noop(&self) -> bool {
        self.bytes == 0 || self.from == self.to
    }
}

/// The most actions one bundle may move data with: step 4 issues two input
/// collections plus a store and a collect per overlap cache.
pub(crate) const MAX_COPY_ACTIONS: usize = 6;

/// Byte sums keyed by `K`, in order of first appearance. Each moving action
/// adds at most one key, so [`MAX_COPY_ACTIONS`] slots always suffice.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Sums<K> {
    entries: [(K, f64); MAX_COPY_ACTIONS],
    len: usize,
}

impl<K: Copy + PartialEq> Sums<K> {
    fn new(blank: K) -> Self {
        Self {
            entries: [(blank, 0.0); MAX_COPY_ACTIONS],
            len: 0,
        }
    }

    /// Adds `bytes` to `key`'s sum, which starts at zero.
    fn add(&mut self, key: K, bytes: f64) {
        let i = match self.entries[..self.len].iter().position(|&(k, _)| k == key) {
            Some(i) => i,
            None => {
                self.entries[self.len] = (key, 0.0);
                self.len += 1;
                self.len - 1
            }
        };
        self.entries[i].1 += bytes;
    }

    fn iter(&self) -> impl Iterator<Item = (K, f64)> + '_ {
        self.entries[..self.len].iter().copied()
    }
}

/// The evaluated cost of a bundle of data copy actions.
#[derive(Debug, Clone, PartialEq)]
pub struct DataCopyCost {
    /// Total energy in pJ.
    pub energy_pj: f64,
    /// Cycles the copies occupy, assuming copies run in parallel but serialize
    /// on shared memory ports.
    pub latency_cycles: f64,
    reads: Sums<(MemoryLevelId, Operand)>,
    writes: Sums<(MemoryLevelId, Operand)>,
}

impl DataCopyCost {
    /// Bytes the copies read, summed per (source level, operand), in order
    /// of first appearance in the bundle.
    pub(crate) fn reads(&self) -> impl Iterator<Item = (MemoryLevelId, Operand, f64)> + '_ {
        self.reads
            .iter()
            .map(|((level, operand), bytes)| (level, operand, bytes))
    }

    /// Bytes the copies write, summed per (destination level, operand), in
    /// order of first appearance in the bundle.
    pub(crate) fn writes(&self) -> impl Iterator<Item = (MemoryLevelId, Operand, f64)> + '_ {
        self.writes
            .iter()
            .map(|((level, operand), bytes)| (level, operand, bytes))
    }
}

/// Evaluates the cost of a bundle of data copy actions that can conceptually
/// run in parallel (step 4's "data copy action cost model").
///
/// # Panics
///
/// Panics if more than `MAX_COPY_ACTIONS` of the actions move data.
pub fn copy_cost(acc: &Accelerator, actions: &[DataCopyAction]) -> DataCopyCost {
    let hierarchy = acc.hierarchy();
    let blank = (MemoryLevelId(0), Operand::Input);
    let mut energy = 0.0;
    let mut reads = Sums::new(blank);
    let mut writes = Sums::new(blank);
    // Bytes read / written per level, to model port contention.
    let mut read_ports = Sums::new(MemoryLevelId(0));
    let mut write_ports = Sums::new(MemoryLevelId(0));

    for action in actions.iter().filter(|a| !a.is_noop()) {
        let bytes = action.bytes as f64;
        let from = hierarchy.level(action.from);
        let to = hierarchy.level(action.to);
        energy += bytes * (from.read_energy_pj_per_byte() + to.write_energy_pj_per_byte());
        reads.add((action.from, action.operand), bytes);
        writes.add((action.to, action.operand), bytes);
        read_ports.add(action.from, bytes);
        write_ports.add(action.to, bytes);
    }

    // The slowest port bounds the bundle; `max` is order-independent.
    let mut latency: f64 = 0.0;
    for (level, bytes) in read_ports.iter() {
        let bw = hierarchy.level(level).read_bw_bytes_per_cycle();
        if bw.is_finite() && bw > 0.0 {
            latency = latency.max(bytes / bw);
        }
    }
    for (level, bytes) in write_ports.iter() {
        let bw = hierarchy.level(level).write_bw_bytes_per_cycle();
        if bw.is_finite() && bw > 0.0 {
            latency = latency.max(bytes / bw);
        }
    }

    DataCopyCost {
        energy_pj: energy,
        latency_cycles: latency,
        reads,
        writes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use defines_arch::zoo;
    use defines_mapping::AccessBreakdown;
    use proptest::prelude::*;

    #[test]
    fn noop_actions_cost_nothing() {
        let acc = zoo::meta_proto_like_df();
        let lb = acc.hierarchy().level_id_named("LB_IO").unwrap();
        let cost = copy_cost(
            &acc,
            &[
                DataCopyAction::new(0, lb, acc.hierarchy().dram_id(), Operand::Input),
                DataCopyAction::new(1024, lb, lb, Operand::Input),
            ],
        );
        assert_eq!(cost.energy_pj, 0.0);
        assert_eq!(cost.latency_cycles, 0.0);
    }

    #[test]
    fn copy_energy_is_read_plus_write() {
        let acc = zoo::meta_proto_like_df();
        let h = acc.hierarchy();
        let gb = h.level_id_named("GB_IO").unwrap();
        let lb = h.level_id_named("LB_IO").unwrap();
        let cost = copy_cost(&acc, &[DataCopyAction::new(1000, gb, lb, Operand::Input)]);
        let expected = 1000.0
            * (h.level(gb).read_energy_pj_per_byte() + h.level(lb).write_energy_pj_per_byte());
        assert!((cost.energy_pj - expected).abs() < 1e-9);
        assert!(cost.latency_cycles > 0.0);
        assert_eq!(
            cost.reads().collect::<Vec<_>>(),
            [(gb, Operand::Input, 1000.0)]
        );
        assert_eq!(
            cost.writes().collect::<Vec<_>>(),
            [(lb, Operand::Input, 1000.0)]
        );
    }

    #[test]
    fn parallel_copies_serialize_on_shared_ports() {
        let acc = zoo::meta_proto_like_df();
        let h = acc.hierarchy();
        let gb = h.level_id_named("GB_IO").unwrap();
        let lb = h.level_id_named("LB_IO").unwrap();
        let dram = h.dram_id();
        // Two copies read from the GB: they contend for the GB read port.
        let two = copy_cost(
            &acc,
            &[
                DataCopyAction::new(4096, gb, lb, Operand::Input),
                DataCopyAction::new(4096, gb, dram, Operand::Output),
            ],
        );
        let one = copy_cost(&acc, &[DataCopyAction::new(4096, gb, lb, Operand::Input)]);
        assert!(two.latency_cycles >= 2.0 * one.latency_cycles - 1e-9);
    }

    #[test]
    fn dram_bandwidth_dominates_latency() {
        let acc = zoo::meta_proto_like_df();
        let h = acc.hierarchy();
        let lb = h.level_id_named("LB_IO").unwrap();
        let dram = h.dram_id();
        let cost = copy_cost(&acc, &[DataCopyAction::new(8000, dram, lb, Operand::Input)]);
        // DRAM provides 8 B/cycle, so 8000 bytes take 1000 cycles.
        assert!((cost.latency_cycles - 1000.0).abs() < 1e-9);
    }

    /// Reference pricing: port contention in two `BTreeMap`s and traffic in
    /// an [`AccessBreakdown`], the plain form the fixed arrays are checked
    /// against.
    fn reference_copy_cost(
        acc: &Accelerator,
        actions: &[DataCopyAction],
    ) -> (f64, f64, AccessBreakdown) {
        use std::collections::BTreeMap;
        let hierarchy = acc.hierarchy();
        let mut energy = 0.0;
        let mut accesses = AccessBreakdown::new();
        let mut read_bytes: BTreeMap<MemoryLevelId, f64> = BTreeMap::new();
        let mut write_bytes: BTreeMap<MemoryLevelId, f64> = BTreeMap::new();
        for action in actions {
            if action.is_noop() {
                continue;
            }
            let bytes = action.bytes as f64;
            let from = hierarchy.level(action.from);
            let to = hierarchy.level(action.to);
            energy += bytes * (from.read_energy_pj_per_byte() + to.write_energy_pj_per_byte());
            accesses.add_reads(action.from, action.operand, bytes);
            accesses.add_writes(action.to, action.operand, bytes);
            *read_bytes.entry(action.from).or_default() += bytes;
            *write_bytes.entry(action.to).or_default() += bytes;
        }
        let mut latency: f64 = 0.0;
        for (level, bytes) in &read_bytes {
            let bw = hierarchy.level(*level).read_bw_bytes_per_cycle();
            if bw.is_finite() && bw > 0.0 {
                latency = latency.max(bytes / bw);
            }
        }
        for (level, bytes) in &write_bytes {
            let bw = hierarchy.level(*level).write_bw_bytes_per_cycle();
            if bw.is_finite() && bw > 0.0 {
                latency = latency.max(bytes / bw);
            }
        }
        (energy, latency, accesses)
    }

    /// One random action: a byte count (zero included), two level indices
    /// folded onto the hierarchy (equal ones included) and an operand.
    fn action() -> impl Strategy<Value = (u64, usize, usize, usize)> {
        (
            (0u32..=24, 0u64..1 << 24).prop_map(|(bits, v)| v >> (24 - bits)),
            0usize..16,
            0usize..16,
            0usize..3,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The fixed-array pricing returns the reference's energy, latency
        /// and traffic to the bit, on every committed accelerator, for
        /// bundles of up to six actions including no-ops.
        #[test]
        fn copy_cost_matches_the_btreemap_reference(
            raw in (action(), action(), action(), action(), action(), action()),
            len in 0usize..=MAX_COPY_ACTIONS,
        ) {
            let raw = [raw.0, raw.1, raw.2, raw.3, raw.4, raw.5];
            for name in zoo::names() {
                let acc = zoo::by_name(name).unwrap();
                let levels = acc.hierarchy().len();
                let actions: Vec<DataCopyAction> = raw[..len]
                    .iter()
                    .map(|&(bytes, from, to, operand)| {
                        DataCopyAction::new(
                            bytes,
                            MemoryLevelId(from % levels),
                            MemoryLevelId(to % levels),
                            Operand::ALL[operand],
                        )
                    })
                    .collect();
                let cost = copy_cost(&acc, &actions);
                let (energy, latency, accesses) = reference_copy_cost(&acc, &actions);
                prop_assert_eq!(cost.energy_pj.to_bits(), energy.to_bits(), "{}", name);
                prop_assert_eq!(cost.latency_cycles.to_bits(), latency.to_bits(), "{}", name);
                let mut traffic = AccessBreakdown::new();
                for (level, operand, bytes) in cost.reads() {
                    traffic.add_reads(level, operand, bytes);
                }
                for (level, operand, bytes) in cost.writes() {
                    traffic.add_writes(level, operand, bytes);
                }
                let bits = |bd: &AccessBreakdown| {
                    bd.iter()
                        .map(|(l, o, a)| (l, o, a.reads_bytes.to_bits(), a.writes_bytes.to_bits()))
                        .collect::<Vec<_>>()
                };
                prop_assert_eq!(bits(&traffic), bits(&accesses), "{}", name);
            }
        }
    }
}

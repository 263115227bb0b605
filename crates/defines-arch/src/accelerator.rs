//! The complete accelerator description.

use crate::memory::{HierarchyError, MemoryHierarchy, MemoryLevel};
use crate::operand::Operand;
use crate::pe_array::{PeArray, SpatialUnrolling};
use defines_workload::Fnv;
use serde::Serialize;
use std::fmt;

/// Errors produced while building an [`Accelerator`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArchError {
    /// The memory hierarchy is invalid.
    Hierarchy(HierarchyError),
    /// No PE array was specified.
    MissingPeArray,
}

impl fmt::Display for ArchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArchError::Hierarchy(e) => write!(f, "invalid memory hierarchy: {e}"),
            ArchError::MissingPeArray => write!(f, "accelerator has no PE array"),
        }
    }
}

impl std::error::Error for ArchError {}

impl From<HierarchyError> for ArchError {
    fn from(e: HierarchyError) -> Self {
        ArchError::Hierarchy(e)
    }
}

/// A DNN accelerator: PE array + memory hierarchy.
///
/// ```
/// use defines_arch::{AcceleratorBuilder, MemoryLevel, Operand, SpatialUnrolling};
/// use defines_workload::Dim;
///
/// let acc = AcceleratorBuilder::new("my-accel")
///     .pe_array(SpatialUnrolling::from_pairs([(Dim::K, 16), (Dim::C, 16)]), 0.5)
///     .add_level(MemoryLevel::sram("LB", 64 * 1024, Operand::ALL))
///     .add_level(MemoryLevel::sram("GB", 1024 * 1024, Operand::ALL))
///     .build()?;
/// assert_eq!(acc.pe_array().total_macs(), 256);
/// assert_eq!(acc.hierarchy().len(), 3); // LB, GB, DRAM (added automatically)
/// # Ok::<(), defines_arch::ArchError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Accelerator {
    name: String,
    pe_array: PeArray,
    hierarchy: MemoryHierarchy,
}

impl Accelerator {
    /// The accelerator's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The PE array.
    pub fn pe_array(&self) -> &PeArray {
        &self.pe_array
    }

    /// The memory hierarchy.
    pub fn hierarchy(&self) -> &MemoryHierarchy {
        &self.hierarchy
    }

    /// A stable structural fingerprint of the accelerator: the name, the PE
    /// array and every memory level's parameters are hashed with [`Fnv`], so
    /// the value is the same for every build of the tool. Two accelerators
    /// with the same fingerprint behave identically under the cost model, so
    /// the fingerprint can key cross-accelerator memoization caches (the
    /// mapping cache of `defines-mapping`, its disk store and the matrix
    /// checkpoint header).
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        let write_str = |h: &mut Fnv, s: &str| {
            h.write_u64(s.len() as u64);
            h.write(s.as_bytes());
        };
        write_str(&mut h, &self.name);
        for (dim, factor) in self.pe_array.unrolling().iter() {
            h.write_u64(dim as u64);
            h.write_u64(factor);
        }
        h.write_u64(self.pe_array.mac_energy_pj().to_bits());
        for level in self.hierarchy.levels() {
            write_str(&mut h, level.name());
            let capacity = level.capacity_bytes();
            h.write_u64(u64::from(capacity.is_some()));
            h.write_u64(capacity.unwrap_or(0));
            h.write_u64(level.read_energy_pj_per_byte().to_bits());
            h.write_u64(level.write_energy_pj_per_byte().to_bits());
            h.write_u64(level.read_bw_bytes_per_cycle().to_bits());
            h.write_u64(level.write_bw_bytes_per_cycle().to_bits());
            h.write_u64(u64::from(level.is_dram()));
            for operand in Operand::ALL {
                h.write_u64(u64::from(level.serves(operand)));
            }
        }
        h.finish()
    }
}

/// Builder for [`Accelerator`].
///
/// Levels are added innermost-first; the DRAM level is appended automatically
/// by [`AcceleratorBuilder::build`] unless one was added explicitly.
#[derive(Debug, Clone)]
pub struct AcceleratorBuilder {
    name: String,
    pe_array: Option<PeArray>,
    levels: Vec<MemoryLevel>,
}

impl AcceleratorBuilder {
    /// Starts building an accelerator with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            pe_array: None,
            levels: Vec::new(),
        }
    }

    /// Sets the PE array from a spatial unrolling and per-MAC energy (pJ).
    pub fn pe_array(mut self, unrolling: SpatialUnrolling, mac_energy_pj: f64) -> Self {
        self.pe_array = Some(PeArray::new(unrolling, mac_energy_pj));
        self
    }

    /// Adds a memory level (innermost levels first).
    pub fn add_level(mut self, level: MemoryLevel) -> Self {
        self.levels.push(level);
        self
    }

    /// Finalizes the accelerator.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::MissingPeArray`] if no PE array was set, or a
    /// hierarchy validation error (every operand must be served and the
    /// outermost level must be DRAM — appended automatically when absent).
    pub fn build(self) -> Result<Accelerator, ArchError> {
        let pe_array = self.pe_array.ok_or(ArchError::MissingPeArray)?;
        let mut levels = self.levels;
        if levels.last().map(|l| !l.is_dram()).unwrap_or(true) {
            levels.push(MemoryLevel::dram());
        }
        let hierarchy = MemoryHierarchy::new(levels)?;
        Ok(Accelerator {
            name: self.name,
            pe_array,
            hierarchy,
        })
    }
}

/// Convenience description of how much on-chip capacity each operand can use,
/// useful for reporting (Table I(a)-style summaries).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct OperandCapacity {
    /// Total on-chip bytes in levels serving weights.
    pub weight_bytes: u64,
    /// Total on-chip bytes in levels serving inputs.
    pub input_bytes: u64,
    /// Total on-chip bytes in levels serving outputs.
    pub output_bytes: u64,
}

impl OperandCapacity {
    /// Computes the per-operand on-chip capacity of an accelerator.
    pub fn of(acc: &Accelerator) -> Self {
        let sum = |op: Operand| -> u64 {
            acc.hierarchy()
                .levels_for(op)
                .filter_map(|(_, l)| l.capacity_bytes())
                .sum()
        };
        Self {
            weight_bytes: sum(Operand::Weight),
            input_bytes: sum(Operand::Input),
            output_bytes: sum(Operand::Output),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use defines_workload::Dim;

    #[test]
    fn builder_appends_dram() {
        let acc = AcceleratorBuilder::new("a")
            .pe_array(SpatialUnrolling::from_pairs([(Dim::K, 8)]), 0.5)
            .add_level(MemoryLevel::sram("LB", 1024, Operand::ALL))
            .build()
            .unwrap();
        assert!(acc.hierarchy().levels().last().unwrap().is_dram());
        assert_eq!(acc.name(), "a");
    }

    #[test]
    fn builder_requires_pe_array() {
        let err = AcceleratorBuilder::new("a")
            .add_level(MemoryLevel::sram("LB", 1024, Operand::ALL))
            .build()
            .unwrap_err();
        assert_eq!(err, ArchError::MissingPeArray);
    }

    #[test]
    fn builder_propagates_hierarchy_errors() {
        // Only weights served on chip is fine (DRAM serves everything), but a
        // hierarchy where DRAM is placed first then another level follows is not.
        let err = AcceleratorBuilder::new("a")
            .pe_array(SpatialUnrolling::from_pairs([(Dim::K, 8)]), 0.5)
            .add_level(MemoryLevel::dram())
            .add_level(MemoryLevel::sram("LB", 1024, Operand::ALL))
            .build()
            .unwrap_err();
        assert!(matches!(err, ArchError::Hierarchy(_)));
    }

    #[test]
    fn operand_capacity_summary() {
        let acc = AcceleratorBuilder::new("a")
            .pe_array(SpatialUnrolling::from_pairs([(Dim::K, 8)]), 0.5)
            .add_level(MemoryLevel::sram("LB_W", 64 * 1024, [Operand::Weight]))
            .add_level(MemoryLevel::sram(
                "LB_IO",
                32 * 1024,
                [Operand::Input, Operand::Output],
            ))
            .build()
            .unwrap();
        let cap = OperandCapacity::of(&acc);
        assert_eq!(cap.weight_bytes, 64 * 1024);
        assert_eq!(cap.input_bytes, 32 * 1024);
        assert_eq!(cap.output_bytes, 32 * 1024);
    }

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        let build = |name: &str, mac_pj: f64| {
            AcceleratorBuilder::new(name)
                .pe_array(SpatialUnrolling::from_pairs([(Dim::K, 8)]), mac_pj)
                .add_level(MemoryLevel::sram("LB", 1024, Operand::ALL))
                .build()
                .unwrap()
        };
        let a = build("a", 0.5);
        assert_eq!(a.fingerprint(), build("a", 0.5).fingerprint());
        assert_ne!(a.fingerprint(), build("a", 0.6).fingerprint());
        // The name is part of the identity.
        assert_ne!(a.fingerprint(), build("b", 0.5).fingerprint());
    }

    /// The fingerprint keys persisted stores and checkpoint headers, so its
    /// value must not depend on the toolchain: pinned as a literal.
    #[test]
    fn fingerprint_is_pinned() {
        assert_eq!(
            crate::zoo::meta_proto_like_df().fingerprint(),
            10_449_326_031_983_051_547
        );
    }
}

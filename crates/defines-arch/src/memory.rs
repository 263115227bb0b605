//! Memory levels and the memory hierarchy.

use crate::operand::Operand;
use serde::{Serialize, Writer};
use std::fmt;

/// Index of a memory level inside a [`MemoryHierarchy`].
///
/// Level `0` is the innermost (cheapest) level; the highest index is DRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct MemoryLevelId(pub usize);

impl fmt::Display for MemoryLevelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "M{}", self.0)
    }
}

/// One memory level: a register file, scratchpad SRAM or DRAM.
///
/// ```
/// use defines_arch::{MemoryLevel, Operand};
///
/// let lb = MemoryLevel::sram("LB_W", 64 * 1024, [Operand::Weight]);
/// assert!(lb.serves(Operand::Weight));
/// assert!(!lb.serves(Operand::Input));
/// assert!(lb.capacity_bytes().is_some());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MemoryLevel {
    name: String,
    /// `None` means effectively unbounded (DRAM).
    capacity_bytes: Option<u64>,
    read_energy_pj_per_byte: f64,
    write_energy_pj_per_byte: f64,
    read_bw_bytes_per_cycle: f64,
    write_bw_bytes_per_cycle: f64,
    operands: OperandSet,
}

/// A set of operands, one bit per [`Operand::ALL`] index, so that
/// [`MemoryLevel::serves`] — asked on every placement and mapping set-up — is
/// one AND.
#[derive(Clone, Copy, PartialEq, Eq)]
struct OperandSet(u8);

impl OperandSet {
    fn contains(self, operand: Operand) -> bool {
        self.0 & (1 << operand as u8) != 0
    }

    /// The members, in W / I / O order.
    fn iter(self) -> impl Iterator<Item = Operand> {
        Operand::ALL.into_iter().filter(move |&o| self.contains(o))
    }
}

impl FromIterator<Operand> for OperandSet {
    fn from_iter<I: IntoIterator<Item = Operand>>(operands: I) -> Self {
        Self(operands.into_iter().fold(0, |set, o| set | (1 << o as u8)))
    }
}

/// Printed as the ordered set it stands for.
impl fmt::Debug for OperandSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Written as the ordered set it stands for: an array in W / I / O order.
impl Serialize for OperandSet {
    fn serialize(&self, w: &mut Writer<'_>) {
        w.begin_array();
        for operand in self.iter() {
            w.item(&operand);
        }
        w.end_array();
    }
}

impl MemoryLevel {
    /// Creates a fully-specified memory level.
    #[allow(
        clippy::too_many_arguments,
        reason = "one argument per field of the level, named at the call site"
    )]
    pub fn new(
        name: impl Into<String>,
        capacity_bytes: Option<u64>,
        read_energy_pj_per_byte: f64,
        write_energy_pj_per_byte: f64,
        read_bw_bytes_per_cycle: f64,
        write_bw_bytes_per_cycle: f64,
        operands: impl IntoIterator<Item = Operand>,
    ) -> Self {
        Self {
            name: name.into(),
            capacity_bytes,
            read_energy_pj_per_byte,
            write_energy_pj_per_byte,
            read_bw_bytes_per_cycle,
            write_bw_bytes_per_cycle,
            operands: operands.into_iter().collect(),
        }
    }

    /// Creates an on-chip SRAM level with CACTI-like default energy and
    /// bandwidth derived from its capacity.
    pub fn sram(
        name: impl Into<String>,
        capacity_bytes: u64,
        operands: impl IntoIterator<Item = Operand>,
    ) -> Self {
        let e = crate::energy::sram_energy_pj_per_byte(capacity_bytes);
        let bw = crate::energy::sram_bytes_per_cycle(capacity_bytes);
        Self::new(name, Some(capacity_bytes), e, e, bw, bw, operands)
    }

    /// Creates a register-file level with the given total capacity.
    pub fn register(
        name: impl Into<String>,
        capacity_bytes: u64,
        operands: impl IntoIterator<Item = Operand>,
    ) -> Self {
        let e = crate::energy::REGISTER_ENERGY_PJ_PER_BYTE;
        // Register files are wide enough never to bottleneck the PE array.
        Self::new(
            name,
            Some(capacity_bytes),
            e,
            e,
            f64::INFINITY,
            f64::INFINITY,
            operands,
        )
    }

    /// Creates the DRAM level (unbounded capacity, serves every operand).
    pub(crate) fn dram() -> Self {
        Self::new(
            "DRAM",
            None,
            crate::energy::DRAM_ENERGY_PJ_PER_BYTE,
            crate::energy::DRAM_ENERGY_PJ_PER_BYTE,
            crate::energy::DRAM_BYTES_PER_CYCLE,
            crate::energy::DRAM_BYTES_PER_CYCLE,
            Operand::ALL,
        )
    }

    /// The level's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Capacity in bytes, or `None` for unbounded (DRAM).
    pub fn capacity_bytes(&self) -> Option<u64> {
        self.capacity_bytes
    }

    /// Read energy in pJ per byte.
    pub fn read_energy_pj_per_byte(&self) -> f64 {
        self.read_energy_pj_per_byte
    }

    /// Write energy in pJ per byte.
    pub fn write_energy_pj_per_byte(&self) -> f64 {
        self.write_energy_pj_per_byte
    }

    /// Read bandwidth in bytes per cycle.
    pub fn read_bw_bytes_per_cycle(&self) -> f64 {
        self.read_bw_bytes_per_cycle
    }

    /// Write bandwidth in bytes per cycle.
    pub fn write_bw_bytes_per_cycle(&self) -> f64 {
        self.write_bw_bytes_per_cycle
    }

    /// Whether the level is DRAM (unbounded off-chip memory).
    pub fn is_dram(&self) -> bool {
        self.capacity_bytes.is_none()
    }

    /// Whether this level stores the given operand.
    pub fn serves(&self, operand: Operand) -> bool {
        self.operands.contains(operand)
    }

    /// The operands served by this level, in W / I / O order.
    pub fn operands(&self) -> impl Iterator<Item = Operand> + '_ {
        self.operands.iter()
    }

    /// Number of operands sharing this level.
    pub fn shared_by(&self) -> usize {
        self.operands.0.count_ones() as usize
    }
}

/// An ordered memory hierarchy, from innermost registers (index 0) to DRAM
/// (last index).
///
/// [`AcceleratorBuilder::build`](crate::AcceleratorBuilder::build) validates
/// one and appends the DRAM level:
///
/// ```
/// use defines_arch::{AcceleratorBuilder, MemoryLevel, Operand, SpatialUnrolling};
/// use defines_workload::Dim;
///
/// let acc = AcceleratorBuilder::new("demo")
///     .pe_array(SpatialUnrolling::from_pairs([(Dim::K, 8)]), 0.5)
///     .add_level(MemoryLevel::register("W_reg", 1024, [Operand::Weight]))
///     .add_level(MemoryLevel::sram("LB", 64 * 1024, Operand::ALL))
///     .build()
///     .unwrap();
/// let h = acc.hierarchy();
/// assert_eq!(h.len(), 3);
/// assert_eq!(h.levels_for(Operand::Input).count(), 2);
/// assert!(h.level(h.dram_id()).is_dram());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MemoryHierarchy {
    levels: Vec<MemoryLevel>,
}

/// Errors produced while building a [`MemoryHierarchy`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HierarchyError {
    /// The hierarchy has no levels.
    Empty,
    /// The outermost level must be DRAM (unbounded).
    MissingDram,
    /// An operand is not served by any level.
    OperandNotServed(Operand),
    /// A bounded level appears above DRAM.
    BoundedAboveDram(String),
    /// More levels than [`MemoryHierarchy::MAX_LEVELS`].
    TooDeep(usize),
}

impl fmt::Display for HierarchyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HierarchyError::Empty => write!(f, "memory hierarchy has no levels"),
            HierarchyError::MissingDram => write!(f, "outermost memory level must be DRAM"),
            HierarchyError::OperandNotServed(o) => {
                write!(f, "operand {o} is not served by any memory level")
            }
            HierarchyError::BoundedAboveDram(n) => {
                write!(f, "level {n} appears after DRAM in the hierarchy")
            }
            HierarchyError::TooDeep(n) => write!(
                f,
                "memory hierarchy has {n} levels, more than the {} supported",
                MemoryHierarchy::MAX_LEVELS
            ),
        }
    }
}

impl std::error::Error for HierarchyError {}

impl MemoryHierarchy {
    /// The most levels (DRAM included) a hierarchy may have, so that the
    /// mapping cost kernel keeps its per-level state in fixed-size arrays.
    /// The deepest zoo hierarchy has 9.
    pub const MAX_LEVELS: usize = 16;

    /// Builds a hierarchy from levels ordered innermost → outermost.
    ///
    /// # Errors
    ///
    /// Returns an error if the hierarchy is empty or deeper than
    /// [`MemoryHierarchy::MAX_LEVELS`], does not end with DRAM, contains a
    /// level after DRAM, or leaves some operand unserved.
    pub(crate) fn new(levels: Vec<MemoryLevel>) -> Result<Self, HierarchyError> {
        if levels.is_empty() {
            return Err(HierarchyError::Empty);
        }
        if levels.len() > Self::MAX_LEVELS {
            return Err(HierarchyError::TooDeep(levels.len()));
        }
        let last = levels.last().expect("non-empty");
        if !last.is_dram() {
            return Err(HierarchyError::MissingDram);
        }
        for level in &levels[..levels.len() - 1] {
            if level.is_dram() {
                return Err(HierarchyError::BoundedAboveDram(level.name().to_string()));
            }
        }
        for op in Operand::ALL {
            if !levels.iter().any(|l| l.serves(op)) {
                return Err(HierarchyError::OperandNotServed(op));
            }
        }
        Ok(Self { levels })
    }

    /// Number of levels (including DRAM).
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// Whether the hierarchy has no levels. Always `false` for a constructed
    /// hierarchy; provided for API completeness.
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// All levels, innermost first.
    pub fn levels(&self) -> &[MemoryLevel] {
        &self.levels
    }

    /// Access a level by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn level(&self, id: MemoryLevelId) -> &MemoryLevel {
        &self.levels[id.0]
    }

    /// The id of the DRAM level.
    pub fn dram_id(&self) -> MemoryLevelId {
        MemoryLevelId(self.levels.len() - 1)
    }

    /// Finds a level by name.
    pub fn level_named(&self, name: &str) -> Option<&MemoryLevel> {
        self.levels.iter().find(|l| l.name() == name)
    }

    /// Finds a level id by name.
    pub fn level_id_named(&self, name: &str) -> Option<MemoryLevelId> {
        self.levels
            .iter()
            .position(|l| l.name() == name)
            .map(MemoryLevelId)
    }

    /// Iterates over the levels (with ids) that serve a given operand,
    /// innermost first.
    pub fn levels_for(
        &self,
        operand: Operand,
    ) -> impl Iterator<Item = (MemoryLevelId, &MemoryLevel)> {
        self.levels
            .iter()
            .enumerate()
            .filter(move |(_, l)| l.serves(operand))
            .map(|(i, l)| (MemoryLevelId(i), l))
    }

    /// The lowest level serving `operand` whose capacity share can hold
    /// `bytes` bytes, searching from `floor` upward (inclusive). Falls back to
    /// DRAM, which always fits.
    ///
    /// The *capacity share* of a level divides its capacity by the number of
    /// operands it serves; this mirrors DeFiNES' conservative treatment of
    /// shared memories when deciding whether data "fits" a level.
    pub fn lowest_fitting(
        &self,
        operand: Operand,
        bytes: u64,
        floor: MemoryLevelId,
    ) -> MemoryLevelId {
        for (id, level) in self.levels_for(operand) {
            if id < floor {
                continue;
            }
            let share = match level.capacity_bytes() {
                None => return id,
                Some(c) => c / level.shared_by() as u64,
            };
            if bytes <= share {
                return id;
            }
        }
        self.dram_id()
    }

    /// Total on-chip capacity in bytes (all levels except DRAM).
    #[cfg(test)]
    pub(crate) fn total_on_chip_bytes(&self) -> u64 {
        self.levels.iter().filter_map(|l| l.capacity_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple() -> MemoryHierarchy {
        MemoryHierarchy::new(vec![
            MemoryLevel::register("reg_w", 1024, [Operand::Weight]),
            MemoryLevel::register("reg_o", 2048, [Operand::Output]),
            MemoryLevel::sram("LB_W", 64 * 1024, [Operand::Weight]),
            MemoryLevel::sram("LB_IO", 64 * 1024, [Operand::Input, Operand::Output]),
            MemoryLevel::sram("GB", 2 * 1024 * 1024, Operand::ALL),
            MemoryLevel::dram(),
        ])
        .unwrap()
    }

    #[test]
    fn construction_and_lookup() {
        let h = simple();
        assert_eq!(h.len(), 6);
        assert_eq!(h.dram_id(), MemoryLevelId(5));
        assert!(h.level_named("LB_W").is_some());
        assert!(h.level_named("nope").is_none());
        assert_eq!(h.level_id_named("GB"), Some(MemoryLevelId(4)));
    }

    #[test]
    fn levels_for_operand_ordering() {
        let h = simple();
        let w: Vec<_> = h.levels_for(Operand::Weight).map(|(id, _)| id.0).collect();
        assert_eq!(w, vec![0, 2, 4, 5]);
    }

    #[test]
    fn lowest_fitting_respects_share_and_floor() {
        let h = simple();
        // 40 KB of inputs: LB_IO is shared by I and O so its share is 32 KB;
        // the data lands in the GB instead.
        let id = h.lowest_fitting(Operand::Input, 40 * 1024, MemoryLevelId(0));
        assert_eq!(h.level(id).name(), "GB");
        // 16 KB fits the LB_IO share.
        let id = h.lowest_fitting(Operand::Input, 16 * 1024, MemoryLevelId(0));
        assert_eq!(h.level(id).name(), "LB_IO");
        // With a floor above LB_IO the same data is pushed to the GB.
        let id = h.lowest_fitting(Operand::Input, 16 * 1024, MemoryLevelId(4));
        assert_eq!(h.level(id).name(), "GB");
        // Huge data always ends up in DRAM.
        let id = h.lowest_fitting(Operand::Input, u64::MAX / 4, MemoryLevelId(0));
        assert!(h.level(id).is_dram());
    }

    #[test]
    fn validation_errors() {
        assert_eq!(
            MemoryHierarchy::new(vec![]).unwrap_err(),
            HierarchyError::Empty
        );
        let no_dram = MemoryHierarchy::new(vec![MemoryLevel::sram("LB", 1024, Operand::ALL)]);
        assert_eq!(no_dram.unwrap_err(), HierarchyError::MissingDram);
        let missing_op = MemoryHierarchy::new(vec![
            MemoryLevel::sram("LB", 1024, [Operand::Weight]),
            MemoryLevel::new(
                "DRAM",
                None,
                1.0,
                1.0,
                8.0,
                8.0,
                [Operand::Weight, Operand::Input],
            ),
        ]);
        assert_eq!(
            missing_op.unwrap_err(),
            HierarchyError::OperandNotServed(Operand::Output)
        );
        let dram_in_middle = MemoryHierarchy::new(vec![MemoryLevel::dram(), MemoryLevel::dram()]);
        assert!(matches!(
            dram_in_middle.unwrap_err(),
            HierarchyError::BoundedAboveDram(_)
        ));
        let deep = |n| {
            let mut levels = vec![MemoryLevel::register("r", 64, Operand::ALL); n - 1];
            levels.push(MemoryLevel::dram());
            MemoryHierarchy::new(levels)
        };
        assert!(deep(MemoryHierarchy::MAX_LEVELS).is_ok());
        assert_eq!(
            deep(MemoryHierarchy::MAX_LEVELS + 1).unwrap_err(),
            HierarchyError::TooDeep(MemoryHierarchy::MAX_LEVELS + 1)
        );
    }

    #[test]
    fn fits_and_capacity() {
        let h = simple();
        assert_eq!(
            h.total_on_chip_bytes(),
            1024 + 2048 + 64 * 1024 + 64 * 1024 + 2 * 1024 * 1024
        );
    }
}

//! Declarative JSON schema for accelerators: the document types that describe
//! a hardware platform as data instead of Rust code — the hardware twin of
//! the `defines-workload` workload schema.
//!
//! An accelerator document is a JSON object with a `name`, a `pe_array`
//! (spatial unrolling factors plus the per-MAC energy) and a `levels` array
//! describing the memory hierarchy innermost-first. Each level names the
//! operands it serves (`"W"`, `"I"`, `"O"`); energies and bandwidths may be
//! omitted and default to the CACTI-like fit of [`crate::energy`] (see
//! [`crate::loader`] for the exact rules):
//!
//! ```json
//! {
//!   "format": "defines-accelerator-v1",
//!   "name": "my-edge-npu",
//!   "pe_array": {"unroll": {"K": 16, "C": 8, "OX": 4}, "mac_energy_pj": 0.1},
//!   "levels": [
//!     {"name": "LB_W",  "kind": "sram", "capacity_bytes": 65536,  "operands": ["W"]},
//!     {"name": "LB_IO", "kind": "sram", "capacity_bytes": 65536,  "operands": ["I", "O"]},
//!     {"name": "GB",    "kind": "sram", "capacity_bytes": 2097152, "operands": ["W", "I", "O"]}
//!   ]
//! }
//! ```
//!
//! The schema is the bridge in both directions:
//! [`AcceleratorDoc::from_accelerator`] exports any in-memory [`Accelerator`]
//! (including the Table I(a) zoo) as a fully explicit document — every zoo
//! document under `accelerators/` is byte-equal to its own export — and the
//! [`loader`](crate::loader) turns documents back into validated
//! [`Accelerator`]s. Round-tripping an accelerator through JSON reproduces it
//! exactly, *including* its [`Accelerator::fingerprint`], so file-loaded
//! hardware shares mapping-cache entries with its built-in twin.

use crate::accelerator::Accelerator;
use crate::loader::AcceleratorDocError;
use crate::memory::MemoryLevel;
use crate::operand::Operand;
use defines_workload::Dim;
use serde::{Serialize, Value};

/// The format tag expected in an accelerator document's optional `format`
/// field.
pub const FORMAT: &str = "defines-accelerator-v1";

/// A whole accelerator document: the JSON-facing twin of [`Accelerator`].
#[derive(Debug, Clone, PartialEq)]
pub struct AcceleratorDoc {
    /// Format tag ([`FORMAT`]); optional on input, always written on export.
    pub format: Option<String>,
    /// Accelerator name. Part of the [`Accelerator::fingerprint`], so two
    /// documents differing only in name key separate mapping-cache spaces.
    pub name: String,
    /// The PE array specification.
    pub pe_array: PeArraySpec,
    /// Memory levels, innermost first. The outermost DRAM level may be
    /// omitted; the loader appends the default DRAM automatically (mirroring
    /// [`crate::AcceleratorBuilder::build`]).
    pub levels: Vec<LevelSpec>,
}

/// The PE-array part of an accelerator document: the JSON-facing twin of
/// [`crate::PeArray`].
#[derive(Debug, Clone, PartialEq)]
pub struct PeArraySpec {
    /// Spatial unrolling factors as `(dimension name, factor)` pairs, in the
    /// order they should serialize (canonical B, K, C, OX, OY, FX, FY order
    /// on export). Factors must be ≥ 1; at least one factor > 1 is required
    /// (a factor-free array would be a zero-size PE array).
    pub unroll: Vec<(String, u64)>,
    /// Energy of one MAC operation in pJ. Defaults to
    /// [`crate::energy::MAC_ENERGY_PJ`] when omitted.
    pub mac_energy_pj: Option<f64>,
}

/// One memory level of an accelerator document: the JSON-facing twin of
/// [`MemoryLevel`].
///
/// Only `name` and `operands` are always required. `kind` selects the
/// defaults applied to omitted fields (`"sram"` — the default for
/// capacity-bounded levels, `"register"`, `"dram"`); explicit
/// energies/bandwidths always win over the defaults. In the `Option<f64>`
/// bandwidth fields, `None` means *use the kind's default* and
/// `Some(f64::INFINITY)` (JSON `null`) means *never a bottleneck* — the
/// convention register files use.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelSpec {
    /// Level name, unique within the document.
    pub name: String,
    /// Level kind: `"sram"`, `"register"` or `"dram"`. Defaults to `"sram"`
    /// when a capacity is given and `"dram"` when it is not.
    pub kind: Option<String>,
    /// Capacity in bytes. `None` means unbounded, which makes the level DRAM.
    pub capacity_bytes: Option<u64>,
    /// The operands the level serves: `"W"`, `"I"`, `"O"` (long names
    /// `weight` / `input` / `output` accepted on input).
    pub operands: Vec<String>,
    /// Read energy in pJ per byte; defaults from the kind when omitted.
    pub read_energy_pj_per_byte: Option<f64>,
    /// Write energy in pJ per byte; defaults from the kind when omitted.
    pub write_energy_pj_per_byte: Option<f64>,
    /// Read bandwidth in bytes per cycle; `Some(f64::INFINITY)` (JSON
    /// `null`) means unlimited, `None` defaults from the kind.
    pub read_bw_bytes_per_cycle: Option<f64>,
    /// Write bandwidth in bytes per cycle; same conventions as the read
    /// bandwidth.
    pub write_bw_bytes_per_cycle: Option<f64>,
}

/// The canonical document name of an operand (`"W"`, `"I"`, `"O"`).
pub fn operand_name(op: Operand) -> &'static str {
    match op {
        Operand::Weight => "W",
        Operand::Input => "I",
        Operand::Output => "O",
    }
}

/// Parses an operand name. Accepts the canonical single letters plus the
/// long lower-case names.
pub fn parse_operand(name: &str) -> Option<Operand> {
    match name {
        "W" | "w" | "weight" | "weights" | "Weight" => Some(Operand::Weight),
        "I" | "i" | "input" | "inputs" | "Input" => Some(Operand::Input),
        "O" | "o" | "output" | "outputs" | "Output" => Some(Operand::Output),
        _ => None,
    }
}

/// Parses a loop-dimension name (`"K"`, `"C"`, `"OX"`, …; lower case
/// accepted).
pub fn parse_dim(name: &str) -> Option<Dim> {
    match name {
        "B" | "b" => Some(Dim::B),
        "K" | "k" => Some(Dim::K),
        "C" | "c" => Some(Dim::C),
        "OX" | "ox" => Some(Dim::OX),
        "OY" | "oy" => Some(Dim::OY),
        "FX" | "fx" => Some(Dim::FX),
        "FY" | "fy" => Some(Dim::FY),
        _ => None,
    }
}

impl LevelSpec {
    /// A fully explicit spec of an existing memory level (no field left to
    /// the kind defaults, so the document reloads bit-identically even if
    /// the default energy fit evolves).
    fn from_level(level: &MemoryLevel) -> Self {
        Self {
            name: level.name().to_string(),
            kind: None,
            capacity_bytes: level.capacity_bytes(),
            operands: level.operands().map(|o| operand_name(o).into()).collect(),
            read_energy_pj_per_byte: Some(level.read_energy_pj_per_byte()),
            write_energy_pj_per_byte: Some(level.write_energy_pj_per_byte()),
            read_bw_bytes_per_cycle: Some(level.read_bw_bytes_per_cycle()),
            write_bw_bytes_per_cycle: Some(level.write_bw_bytes_per_cycle()),
        }
    }
}

impl AcceleratorDoc {
    /// Exports an accelerator as a fully explicit document.
    ///
    /// Every energy and bandwidth is written out (nothing is left to the
    /// kind defaults), so the document loads back into an identical
    /// [`Accelerator`] — same [`Accelerator::fingerprint`] — and remains
    /// valid even if the default energy fit evolves.
    ///
    /// # Errors
    ///
    /// Returns [`AcceleratorDocError::Level`] if two levels share a name:
    /// validation errors reference levels by name, so names must be unique
    /// to be exportable.
    pub fn from_accelerator(acc: &Accelerator) -> Result<Self, AcceleratorDocError> {
        let mut seen = std::collections::BTreeSet::new();
        for level in acc.hierarchy().levels() {
            if !seen.insert(level.name()) {
                return Err(AcceleratorDocError::Level {
                    level: level.name().to_string(),
                    message: "duplicate level name: documents reference levels by name, \
                              so level names must be unique to export"
                        .to_string(),
                });
            }
        }
        let unroll = Dim::ALL
            .iter()
            .filter_map(|&dim| {
                let factor = acc.pe_array().unrolling().factor(dim);
                (factor > 1).then(|| (dim.to_string(), factor))
            })
            .collect();
        Ok(Self {
            format: Some(FORMAT.to_string()),
            name: acc.name().to_string(),
            pe_array: PeArraySpec {
                unroll,
                mac_energy_pj: Some(acc.pe_array().mac_energy_pj()),
            },
            levels: acc
                .hierarchy()
                .levels()
                .iter()
                .map(LevelSpec::from_level)
                .collect(),
        })
    }

    /// Renders the document as pretty-printed JSON.
    pub fn to_json_pretty(&self) -> String {
        self.to_value().to_json_pretty()
    }

    /// Renders the document as compact JSON.
    pub fn to_json(&self) -> String {
        self.to_value().to_json()
    }
}

/// A finite bandwidth serializes as a number; the non-finite "unlimited"
/// convention serializes as JSON `null` (and parses back to
/// `f64::INFINITY`), keeping register-file levels exactly round-trippable.
fn bw_value(bw: f64) -> Value {
    if bw.is_finite() {
        Value::F64(bw)
    } else {
        Value::Null
    }
}

impl Serialize for LevelSpec {
    fn to_value(&self) -> Value {
        let mut fields = vec![("name".to_string(), Value::Str(self.name.clone()))];
        if let Some(kind) = &self.kind {
            fields.push(("kind".to_string(), Value::Str(kind.clone())));
        }
        fields.push((
            "capacity_bytes".to_string(),
            match self.capacity_bytes {
                Some(c) => Value::U64(c),
                None => Value::Null,
            },
        ));
        fields.push((
            "operands".to_string(),
            Value::Array(
                self.operands
                    .iter()
                    .map(|o| Value::Str(o.clone()))
                    .collect(),
            ),
        ));
        for (key, value) in [
            ("read_energy_pj_per_byte", self.read_energy_pj_per_byte),
            ("write_energy_pj_per_byte", self.write_energy_pj_per_byte),
        ] {
            if let Some(e) = value {
                fields.push((key.to_string(), Value::F64(e)));
            }
        }
        // A `None` bandwidth means "use the kind's default": like the energy
        // fields, the key must be *omitted* — writing null would flip the
        // meaning to "unlimited" on reload.
        for (key, value) in [
            ("read_bw_bytes_per_cycle", self.read_bw_bytes_per_cycle),
            ("write_bw_bytes_per_cycle", self.write_bw_bytes_per_cycle),
        ] {
            if let Some(bw) = value {
                fields.push((key.to_string(), bw_value(bw)));
            }
        }
        Value::Object(fields)
    }
}

impl Serialize for PeArraySpec {
    fn to_value(&self) -> Value {
        let unroll = Value::Object(
            self.unroll
                .iter()
                .map(|(dim, factor)| (dim.clone(), Value::U64(*factor)))
                .collect(),
        );
        let mut fields = vec![("unroll".to_string(), unroll)];
        if let Some(e) = self.mac_energy_pj {
            fields.push(("mac_energy_pj".to_string(), Value::F64(e)));
        }
        Value::Object(fields)
    }
}

impl Serialize for AcceleratorDoc {
    fn to_value(&self) -> Value {
        let mut fields = Vec::with_capacity(4);
        if let Some(format) = &self.format {
            fields.push(("format".to_string(), Value::Str(format.clone())));
        }
        fields.push(("name".to_string(), Value::Str(self.name.clone())));
        fields.push(("pe_array".to_string(), self.pe_array.to_value()));
        fields.push((
            "levels".to_string(),
            Value::Array(self.levels.iter().map(Serialize::to_value).collect()),
        ));
        Value::Object(fields)
    }
}

/// Exports an accelerator as pretty-printed accelerator JSON (the format of
/// the reference files under `accelerators/`).
///
/// # Errors
///
/// Returns [`AcceleratorDocError::Level`] if two levels share a name.
///
/// ```
/// use defines_arch::{schema, zoo};
///
/// let json = schema::to_json_pretty(&zoo::meta_proto_like_df()).unwrap();
/// let reloaded = defines_arch::loader::from_json_str(&json).unwrap();
/// assert_eq!(reloaded, zoo::meta_proto_like_df());
/// assert_eq!(
///     reloaded.fingerprint(),
///     zoo::meta_proto_like_df().fingerprint()
/// );
/// ```
pub fn to_json_pretty(acc: &Accelerator) -> Result<String, AcceleratorDocError> {
    Ok(AcceleratorDoc::from_accelerator(acc)?.to_json_pretty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    #[test]
    fn operand_names_round_trip() {
        for op in Operand::ALL {
            assert_eq!(parse_operand(operand_name(op)), Some(op));
        }
        assert_eq!(parse_operand("weight"), Some(Operand::Weight));
        assert_eq!(parse_operand("X"), None);
    }

    #[test]
    fn dim_names_round_trip() {
        for dim in Dim::ALL {
            assert_eq!(parse_dim(&dim.to_string()), Some(dim));
            assert_eq!(parse_dim(&dim.to_string().to_lowercase()), Some(dim));
        }
        assert_eq!(parse_dim("KK"), None);
    }

    #[test]
    fn export_is_fully_explicit() {
        let doc = AcceleratorDoc::from_accelerator(&zoo::meta_proto_like()).unwrap();
        assert_eq!(doc.format.as_deref(), Some(FORMAT));
        assert_eq!(doc.name, "Meta-proto-like");
        assert_eq!(
            doc.pe_array.unroll,
            vec![
                ("K".to_string(), 32),
                ("C".to_string(), 2),
                ("OX".to_string(), 4),
                ("OY".to_string(), 4)
            ]
        );
        assert!(doc.pe_array.mac_energy_pj.is_some());
        // Every level carries explicit energies and bandwidths; the last is
        // the DRAM level with unbounded capacity.
        for level in &doc.levels {
            assert!(level.read_energy_pj_per_byte.is_some(), "{}", level.name);
            assert!(level.write_energy_pj_per_byte.is_some(), "{}", level.name);
            assert!(level.read_bw_bytes_per_cycle.is_some(), "{}", level.name);
            assert!(!level.operands.is_empty(), "{}", level.name);
        }
        assert_eq!(doc.levels.last().unwrap().capacity_bytes, None);
    }

    #[test]
    fn infinite_bandwidth_serializes_as_null() {
        // Register files use f64::INFINITY bandwidth; JSON has no infinity,
        // so the writer emits null and the loader reads null back as
        // unlimited. The fingerprint hashes the f64 bits, so this mapping
        // must be exact.
        let doc = AcceleratorDoc::from_accelerator(&zoo::meta_proto_like()).unwrap();
        let json = doc.to_json_pretty();
        assert!(json.contains("\"read_bw_bytes_per_cycle\": null"), "{json}");
    }

    #[test]
    fn non_explicit_documents_round_trip_through_reserialization() {
        // A document relying on kind defaults (no energies/bandwidths) must
        // survive parse → to_json → parse unchanged: an omitted bandwidth
        // means "kind default" and must stay omitted, never become the
        // null that means "unlimited".
        let json = r#"{
          "name": "defaults",
          "pe_array": {"unroll": {"K": 8, "C": 8}},
          "levels": [
            {"name": "W_reg", "kind": "register", "capacity_bytes": 1024, "operands": ["W"]},
            {"name": "LB", "capacity_bytes": 65536, "operands": ["W", "I", "O"]}
          ]
        }"#;
        let value = serde_json::from_str(json).unwrap();
        let doc = crate::loader::document_from_value(&value).unwrap();
        let direct = crate::loader::accelerator_from_doc(&doc).unwrap();
        let reserialized = crate::loader::from_json_str(&doc.to_json_pretty()).unwrap();
        assert_eq!(reserialized, direct);
        assert_eq!(reserialized.fingerprint(), direct.fingerprint());
        // The SRAM level kept its finite default bandwidth.
        let lb = reserialized.hierarchy().level_named("LB").unwrap();
        assert!(lb.read_bw_bytes_per_cycle().is_finite());
        // Neither level stated a bandwidth, so no bandwidth key is written.
        assert!(!doc.to_json_pretty().contains("bw_bytes_per_cycle"));
    }

    #[test]
    fn duplicate_level_names_are_rejected_on_export() {
        use crate::accelerator::AcceleratorBuilder;
        use crate::pe_array::SpatialUnrolling;

        let acc = AcceleratorBuilder::new("dup")
            .pe_array(SpatialUnrolling::from_pairs([(Dim::K, 8)]), 0.5)
            .add_level(MemoryLevel::sram("LB", 1024, Operand::ALL))
            .add_level(MemoryLevel::sram("LB", 2048, Operand::ALL))
            .build()
            .unwrap();
        let err = AcceleratorDoc::from_accelerator(&acc).unwrap_err();
        assert!(err.to_string().contains("level 'LB'"), "{err}");
    }
}

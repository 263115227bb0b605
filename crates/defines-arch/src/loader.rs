//! JSON accelerator loader: parses an [`AcceleratorDoc`] and turns it into a
//! validated [`Accelerator`], applying per-kind defaults to omitted fields.
//!
//! # Defaults
//!
//! Levels are processed in document order (innermost first). Each level's
//! `kind` — `"sram"`, `"register"` or `"dram"` — selects the defaults applied
//! to omitted energies and bandwidths:
//!
//! * `"sram"` (the default whenever a `capacity_bytes` is given) — the
//!   CACTI-like fit of [`crate::energy`]: energy from
//!   [`sram_energy_pj_per_byte`](crate::energy::sram_energy_pj_per_byte),
//!   bandwidth from
//!   [`sram_bytes_per_cycle`](crate::energy::sram_bytes_per_cycle).
//! * `"register"` — [`REGISTER_ENERGY_PJ_PER_BYTE`] and unlimited bandwidth
//!   (register files are wide enough never to bottleneck the PE array).
//! * `"dram"` (the default when `capacity_bytes` is absent or `null`) —
//!   [`DRAM_ENERGY_PJ_PER_BYTE`] and [`DRAM_BYTES_PER_CYCLE`], unbounded
//!   capacity.
//!
//! A bandwidth given as JSON `null` means *unlimited* (internally
//! `f64::INFINITY`); omitting the key means *use the kind's default*. The
//! outermost DRAM level may be omitted entirely — the default DRAM is
//! appended automatically, mirroring [`AcceleratorBuilder::build`]. The
//! per-MAC energy defaults to [`MAC_ENERGY_PJ`](crate::energy::MAC_ENERGY_PJ).
//!
//! # Validation
//!
//! Every error names the offending level or field: unknown operand links,
//! unknown unrolling dimensions, zero unrolling factors (a zero-size PE
//! array), zero capacities, negative energies, missing memory levels,
//! operands served by no level, and typo'd keys are all rejected.
//!
//! # Bring your own hardware
//!
//! ```
//! let json = r#"{
//!   "name": "my-edge-npu",
//!   "pe_array": {"unroll": {"K": 16, "C": 8, "OX": 4}},
//!   "levels": [
//!     {"name": "LB_W",  "capacity_bytes": 65536,   "operands": ["W"]},
//!     {"name": "LB_IO", "capacity_bytes": 65536,   "operands": ["I", "O"]},
//!     {"name": "GB",    "capacity_bytes": 2097152, "operands": ["W", "I", "O"]}
//!   ]
//! }"#;
//!
//! let acc = defines_arch::loader::from_json_str(json).unwrap();
//! assert_eq!(acc.pe_array().total_macs(), 512);
//! // The DRAM level was appended automatically; energies and bandwidths
//! // default to the CACTI-like fit.
//! assert_eq!(acc.hierarchy().len(), 4);
//! assert!(acc.hierarchy().levels().last().unwrap().is_dram());
//! ```

use crate::accelerator::{Accelerator, AcceleratorBuilder, ArchError};
use crate::energy::{DRAM_BYTES_PER_CYCLE, DRAM_ENERGY_PJ_PER_BYTE, REGISTER_ENERGY_PJ_PER_BYTE};
use crate::memory::MemoryLevel;
use crate::pe_array::SpatialUnrolling;
use crate::schema::{parse_dim, parse_operand, AcceleratorDoc, LevelSpec, PeArraySpec, FORMAT};
use serde::{Fields, FromField, Value};
use std::fmt;
use std::path::Path;

/// Errors produced while loading an accelerator document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AcceleratorDocError {
    /// The file could not be read.
    Io {
        /// The path that failed.
        path: String,
        /// The OS error message.
        message: String,
    },
    /// The text is not valid JSON.
    Json(String),
    /// The JSON is valid but the document structure is not (wrong top-level
    /// shape, missing `name`/`pe_array`/`levels`, invalid PE array,
    /// unsupported `format` tag, hierarchy-wide problems, …).
    Document(String),
    /// A specific memory level is invalid; the message explains why.
    Level {
        /// Name of the offending level.
        level: String,
        /// What is wrong with it.
        message: String,
    },
}

impl fmt::Display for AcceleratorDocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AcceleratorDocError::Io { path, message } => {
                write!(f, "cannot read accelerator file '{path}': {message}")
            }
            AcceleratorDocError::Json(message) => {
                write!(f, "invalid accelerator JSON: {message}")
            }
            AcceleratorDocError::Document(message) => {
                write!(f, "invalid accelerator document: {message}")
            }
            AcceleratorDocError::Level { level, message } => {
                write!(f, "level '{level}': {message}")
            }
        }
    }
}

impl std::error::Error for AcceleratorDocError {}

impl AcceleratorDocError {
    fn level(level: &str, message: impl Into<String>) -> Self {
        AcceleratorDocError::Level {
            level: level.to_string(),
            message: message.into(),
        }
    }
}

/// Loads an accelerator from JSON text.
///
/// # Errors
///
/// Returns [`AcceleratorDocError::Json`] for malformed JSON,
/// [`AcceleratorDocError::Document`] for structural problems and
/// [`AcceleratorDocError::Level`] (naming the level) for per-level problems.
pub fn from_json_str(json: &str) -> Result<Accelerator, AcceleratorDocError> {
    let value = serde_json::from_str(json).map_err(|e| AcceleratorDocError::Json(e.to_string()))?;
    let doc = document_from_value(&value)?;
    accelerator_from_doc(&doc)
}

/// Loads an accelerator from a JSON file.
///
/// # Errors
///
/// Returns [`AcceleratorDocError::Io`] when the file cannot be read,
/// otherwise the same errors as [`from_json_str`].
pub fn from_json_file(path: impl AsRef<Path>) -> Result<Accelerator, AcceleratorDocError> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path).map_err(|e| AcceleratorDocError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })?;
    from_json_str(&text)
}

// ---------------------------------------------------------------------------
// JSON value -> AcceleratorDoc
// ---------------------------------------------------------------------------

/// The keys a level object may carry; anything else is a typo worth
/// rejecting.
const LEVEL_KEYS: [&str; 8] = [
    "name",
    "kind",
    "capacity_bytes",
    "operands",
    "read_energy_pj_per_byte",
    "write_energy_pj_per_byte",
    "read_bw_bytes_per_cycle",
    "write_bw_bytes_per_cycle",
];

/// Extracts an [`AcceleratorDoc`] from a parsed JSON value.
///
/// # Errors
///
/// Returns [`AcceleratorDocError::Document`] or
/// [`AcceleratorDocError::Level`] with a message naming the offending field.
pub fn document_from_value(value: &Value) -> Result<AcceleratorDoc, AcceleratorDocError> {
    use AcceleratorDocError::Document;
    let fields = Fields::root(value).map_err(Document)?;
    fields
        .only(&["format", "name", "pe_array", "levels"])
        .map_err(Document)?;
    let format = fields.opt::<&str>("format").map_err(Document)?;
    if let Some(tag) = format.filter(|&tag| tag != FORMAT) {
        return Err(Document(format!(
            "unsupported format tag '{tag}' (this loader reads '{FORMAT}')"
        )));
    }
    let name = fields.req::<&str>("name").map_err(Document)?;
    let pe_array = pe_array_from_fields(fields.req("pe_array").map_err(Document)?)
        .map_err(|m| Document(format!("pe_array: {m}")))?;
    let levels: &[Value] = fields.opt("levels").map_err(Document)?.ok_or_else(|| {
        Document("missing 'levels' array (an accelerator needs at least one memory level)".into())
    })?;
    let levels = levels
        .iter()
        .enumerate()
        .map(|(index, lv)| level_spec_from_value(lv, index))
        .collect::<Result<_, _>>()?;
    Ok(AcceleratorDoc {
        format: format.map(str::to_string),
        name: name.to_string(),
        pe_array,
        levels,
    })
}

fn pe_array_from_fields(fields: Fields<'_>) -> Result<PeArraySpec, String> {
    fields.only(&["unroll", "mac_energy_pj"])?;
    let unroll = fields
        .req::<Fields<'_>>("unroll")?
        .entries()
        .iter()
        .map(|(dim, factor)| Ok((dim.clone(), u64::read(dim, factor)?)))
        .collect::<Result<_, String>>()?;
    Ok(PeArraySpec {
        unroll,
        mac_energy_pj: fields.opt("mac_energy_pj")?,
    })
}

fn level_spec_from_value(value: &Value, index: usize) -> Result<LevelSpec, AcceleratorDocError> {
    let anonymous = |m| AcceleratorDocError::level(&format!("#{index}"), m);
    let fields = Fields::new(value).map_err(anonymous)?;
    let name = fields.req::<&str>("name").map_err(anonymous)?;
    let spec = || -> Result<LevelSpec, String> {
        fields.only(&LEVEL_KEYS)?;
        // JSON null means unlimited; a missing key means the kind default.
        let bandwidth = |key: &str| match fields.get(key) {
            Some(Value::Null) => Ok(Some(f64::INFINITY)),
            Some(v) => f64::read(key, v).map(Some),
            None => Ok(None),
        };
        Ok(LevelSpec {
            name: name.to_string(),
            kind: fields.opt::<&str>("kind")?.map(str::to_string),
            capacity_bytes: fields.opt("capacity_bytes")?,
            operands: fields.req("operands")?,
            read_energy_pj_per_byte: fields.opt("read_energy_pj_per_byte")?,
            write_energy_pj_per_byte: fields.opt("write_energy_pj_per_byte")?,
            read_bw_bytes_per_cycle: bandwidth("read_bw_bytes_per_cycle")?,
            write_bw_bytes_per_cycle: bandwidth("write_bw_bytes_per_cycle")?,
        })
    };
    spec().map_err(|m| AcceleratorDocError::level(name, m))
}

// ---------------------------------------------------------------------------
// AcceleratorDoc -> Accelerator (defaults + validation)
// ---------------------------------------------------------------------------

/// The level kinds a document may name, selecting defaults for omitted
/// energies and bandwidths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LevelKind {
    Sram,
    Register,
    Dram,
}

/// Builds a validated [`Accelerator`] from a document, applying the
/// module-level defaults.
///
/// # Errors
///
/// Returns [`AcceleratorDocError::Document`] for PE-array and hierarchy-wide
/// problems and [`AcceleratorDocError::Level`] — naming the level — for
/// everything else.
pub fn accelerator_from_doc(doc: &AcceleratorDoc) -> Result<Accelerator, AcceleratorDocError> {
    let unrolling = unrolling_from_spec(&doc.pe_array)?;
    let mac_energy = match doc.pe_array.mac_energy_pj {
        None => crate::energy::MAC_ENERGY_PJ,
        Some(e) if e.is_finite() && e > 0.0 => e,
        Some(e) => {
            return Err(AcceleratorDocError::Document(format!(
                "pe_array: 'mac_energy_pj' must be a positive finite number, got {e}"
            )));
        }
    };

    if doc.levels.is_empty() {
        return Err(AcceleratorDocError::Document(format!(
            "accelerator '{}' has no memory levels (at least one on-chip level \
             is required; DRAM is appended automatically)",
            doc.name
        )));
    }

    let mut builder = AcceleratorBuilder::new(doc.name.clone()).pe_array(unrolling, mac_energy);
    let mut seen = std::collections::BTreeSet::new();
    for spec in &doc.levels {
        if !seen.insert(spec.name.as_str()) {
            return Err(AcceleratorDocError::level(
                &spec.name,
                "duplicate level name",
            ));
        }
        builder = builder.add_level(level_from_spec(spec)?);
    }

    builder.build().map_err(|e| match e {
        // Both cases name the structural problem; the PE array was set above,
        // so MissingPeArray is unreachable.
        ArchError::Hierarchy(h) => AcceleratorDocError::Document(h.to_string()),
        ArchError::MissingPeArray => AcceleratorDocError::Document(e.to_string()),
    })
}

fn unrolling_from_spec(spec: &PeArraySpec) -> Result<SpatialUnrolling, AcceleratorDocError> {
    if spec.unroll.is_empty() {
        return Err(AcceleratorDocError::Document(
            "pe_array: 'unroll' is empty — a zero-size PE array cannot compute anything \
             (give at least one dimension a factor > 1)"
                .to_string(),
        ));
    }
    let mut pairs = Vec::with_capacity(spec.unroll.len());
    let mut seen = std::collections::BTreeSet::new();
    for (dim_name, factor) in &spec.unroll {
        let dim = parse_dim(dim_name).ok_or_else(|| {
            AcceleratorDocError::Document(format!(
                "pe_array: unknown unrolling dimension '{dim_name}' \
                 (expected B, K, C, OX, OY, FX, FY)"
            ))
        })?;
        // JSON keys "K" and "k" are distinct, so duplicate-dimension entries
        // can reach here; silently letting the last one win would mis-size
        // the PE array.
        if !seen.insert(dim) {
            return Err(AcceleratorDocError::Document(format!(
                "pe_array: unrolling dimension '{dim_name}' is given more than once"
            )));
        }
        if *factor == 0 {
            return Err(AcceleratorDocError::Document(format!(
                "pe_array: unrolling factor for '{dim_name}' is 0 — a zero-size PE array \
                 cannot compute anything"
            )));
        }
        pairs.push((dim, *factor));
    }
    let unrolling = SpatialUnrolling::from_pairs(pairs);
    if unrolling.total() <= 1 {
        return Err(AcceleratorDocError::Document(
            "pe_array: all unrolling factors are 1 — a zero-size PE array cannot \
             compute anything (give at least one dimension a factor > 1)"
                .to_string(),
        ));
    }
    Ok(unrolling)
}

fn level_from_spec(spec: &LevelSpec) -> Result<MemoryLevel, AcceleratorDocError> {
    let name = spec.name.as_str();

    let kind = match spec.kind.as_deref() {
        None => {
            if spec.capacity_bytes.is_some() {
                LevelKind::Sram
            } else {
                LevelKind::Dram
            }
        }
        Some("sram") => LevelKind::Sram,
        Some("register") => LevelKind::Register,
        Some("dram") => LevelKind::Dram,
        Some(other) => {
            return Err(AcceleratorDocError::level(
                name,
                format!("unknown kind '{other}' (expected sram, register, dram)"),
            ));
        }
    };

    let capacity = match (kind, spec.capacity_bytes) {
        (LevelKind::Dram, None) => None,
        (LevelKind::Dram, Some(c)) => {
            return Err(AcceleratorDocError::level(
                name,
                format!(
                    "dram levels are unbounded: remove 'capacity_bytes' ({c}) or \
                     change the kind"
                ),
            ));
        }
        (LevelKind::Sram | LevelKind::Register, None) => {
            return Err(AcceleratorDocError::level(
                name,
                "missing 'capacity_bytes' (only dram levels are unbounded)",
            ));
        }
        (LevelKind::Sram | LevelKind::Register, Some(0)) => {
            return Err(AcceleratorDocError::level(
                name,
                "'capacity_bytes' must be positive",
            ));
        }
        (LevelKind::Sram | LevelKind::Register, Some(c)) => Some(c),
    };

    if spec.operands.is_empty() {
        return Err(AcceleratorDocError::level(
            name,
            "serves no operands (list at least one of W, I, O)",
        ));
    }
    let mut operands = Vec::with_capacity(spec.operands.len());
    for op_name in &spec.operands {
        let op = parse_operand(op_name).ok_or_else(|| {
            AcceleratorDocError::level(
                name,
                format!("unknown operand '{op_name}' (expected W, I, O)"),
            )
        })?;
        operands.push(op);
    }

    let (default_energy, default_bw) = match kind {
        LevelKind::Sram => {
            let c = capacity.expect("sram capacity checked above");
            (
                crate::energy::sram_energy_pj_per_byte(c),
                crate::energy::sram_bytes_per_cycle(c),
            )
        }
        LevelKind::Register => (REGISTER_ENERGY_PJ_PER_BYTE, f64::INFINITY),
        LevelKind::Dram => (DRAM_ENERGY_PJ_PER_BYTE, DRAM_BYTES_PER_CYCLE),
    };

    let energy = |explicit: Option<f64>, key: &str| -> Result<f64, AcceleratorDocError> {
        match explicit {
            None => Ok(default_energy),
            Some(e) if e.is_finite() && e >= 0.0 => Ok(e),
            Some(e) => Err(AcceleratorDocError::level(
                name,
                format!("'{key}' must be a non-negative finite number, got {e}"),
            )),
        }
    };
    let bandwidth = |explicit: Option<f64>, key: &str| -> Result<f64, AcceleratorDocError> {
        match explicit {
            None => Ok(default_bw),
            Some(bw) if bw > 0.0 => Ok(bw), // f64::INFINITY (JSON null) is legal
            Some(bw) => Err(AcceleratorDocError::level(
                name,
                format!("'{key}' must be positive (or null for unlimited), got {bw}"),
            )),
        }
    };

    Ok(MemoryLevel::new(
        name,
        capacity,
        energy(spec.read_energy_pj_per_byte, "read_energy_pj_per_byte")?,
        energy(spec.write_energy_pj_per_byte, "write_energy_pj_per_byte")?,
        bandwidth(spec.read_bw_bytes_per_cycle, "read_bw_bytes_per_cycle")?,
        bandwidth(spec.write_bw_bytes_per_cycle, "write_bw_bytes_per_cycle")?,
        operands,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema;
    use crate::zoo;

    /// All eleven zoo accelerators (Table I(a) plus DepFiN-like).
    fn zoo_accelerators() -> Vec<Accelerator> {
        let mut accs = zoo::all_case_study_architectures();
        accs.push(zoo::depfin_like());
        accs
    }

    #[test]
    fn zoo_accelerators_round_trip_through_json() {
        for acc in zoo_accelerators() {
            let json = schema::to_json_pretty(&acc).unwrap();
            let reloaded = from_json_str(&json).unwrap_or_else(|e| panic!("{}: {e}", acc.name()));
            assert_eq!(reloaded, acc, "{} must round-trip", acc.name());
            assert_eq!(
                reloaded.fingerprint(),
                acc.fingerprint(),
                "{} fingerprint must be bit-identical after the round trip",
                acc.name()
            );
        }
    }

    #[test]
    fn defaults_fill_energies_and_bandwidths() {
        let json = r#"{
          "name": "defaults",
          "pe_array": {"unroll": {"K": 8, "C": 8}},
          "levels": [
            {"name": "W_reg", "kind": "register", "capacity_bytes": 1024, "operands": ["W"]},
            {"name": "LB", "capacity_bytes": 65536, "operands": ["W", "I", "O"]}
          ]
        }"#;
        let acc = from_json_str(json).unwrap();
        assert_eq!(acc.pe_array().total_macs(), 64);
        assert!(
            (acc.pe_array().mac_energy_pj() - crate::energy::MAC_ENERGY_PJ).abs() < 1e-12,
            "MAC energy defaults"
        );
        let reg = acc.hierarchy().level_named("W_reg").unwrap();
        assert_eq!(reg.read_energy_pj_per_byte(), REGISTER_ENERGY_PJ_PER_BYTE);
        assert!(reg.read_bw_bytes_per_cycle().is_infinite());
        let lb = acc.hierarchy().level_named("LB").unwrap();
        assert_eq!(
            lb.read_energy_pj_per_byte(),
            crate::energy::sram_energy_pj_per_byte(65536)
        );
        assert_eq!(
            lb.read_bw_bytes_per_cycle(),
            crate::energy::sram_bytes_per_cycle(65536)
        );
        // The DRAM level was appended automatically with DRAM defaults.
        let dram = acc.hierarchy().levels().last().unwrap();
        assert!(dram.is_dram());
        assert_eq!(dram.read_energy_pj_per_byte(), DRAM_ENERGY_PJ_PER_BYTE);
    }

    #[test]
    fn explicit_null_bandwidth_means_unlimited() {
        let json = r#"{
          "name": "x",
          "pe_array": {"unroll": {"K": 8}},
          "levels": [
            {"name": "LB", "capacity_bytes": 1024, "operands": ["W", "I", "O"],
             "read_bw_bytes_per_cycle": null, "write_bw_bytes_per_cycle": 16.0}
          ]
        }"#;
        let acc = from_json_str(json).unwrap();
        let lb = acc.hierarchy().level_named("LB").unwrap();
        assert!(lb.read_bw_bytes_per_cycle().is_infinite());
        assert_eq!(lb.write_bw_bytes_per_cycle(), 16.0);
    }

    #[test]
    fn unknown_operand_names_the_level_and_operand() {
        let json = r#"{
          "name": "x",
          "pe_array": {"unroll": {"K": 8}},
          "levels": [
            {"name": "LB_W", "capacity_bytes": 1024, "operands": ["W", "X"]}
          ]
        }"#;
        let err = from_json_str(json).unwrap_err();
        assert_eq!(
            err.to_string(),
            "level 'LB_W': unknown operand 'X' (expected W, I, O)"
        );
    }

    #[test]
    fn missing_memory_levels_are_rejected() {
        // No 'levels' key at all.
        let err = from_json_str(r#"{"name": "x", "pe_array": {"unroll": {"K": 8}}}"#).unwrap_err();
        assert!(err.to_string().contains("missing 'levels'"), "{err}");
        // An empty 'levels' array.
        let err = from_json_str(r#"{"name": "x", "pe_array": {"unroll": {"K": 8}}, "levels": []}"#)
            .unwrap_err();
        assert!(err.to_string().contains("has no memory levels"), "{err}");
    }

    #[test]
    fn zero_size_pe_arrays_are_rejected() {
        // Explicit zero factor.
        let err = from_json_str(
            r#"{"name": "x", "pe_array": {"unroll": {"K": 0}}, "levels": [
                {"name": "LB", "capacity_bytes": 1024, "operands": ["W", "I", "O"]}]}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("factor for 'K' is 0"), "{err}");
        // Empty unroll object.
        let err = from_json_str(
            r#"{"name": "x", "pe_array": {"unroll": {}}, "levels": [
                {"name": "LB", "capacity_bytes": 1024, "operands": ["W", "I", "O"]}]}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("'unroll' is empty"), "{err}");
        // All factors 1 degenerate to a single MAC, which the document format
        // treats as a zero-size array too.
        let err = from_json_str(
            r#"{"name": "x", "pe_array": {"unroll": {"K": 1}}, "levels": [
                {"name": "LB", "capacity_bytes": 1024, "operands": ["W", "I", "O"]}]}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("factors are 1"), "{err}");
    }

    #[test]
    fn typod_keys_are_rejected() {
        // Top level.
        let err = from_json_str(r#"{"name": "x", "pe_arra": {"unroll": {"K": 8}}, "levels": []}"#)
            .unwrap_err();
        assert!(
            err.to_string().contains("unknown top-level key 'pe_arra'"),
            "{err}"
        );
        // Per level, naming the level.
        let err = from_json_str(
            r#"{"name": "x", "pe_array": {"unroll": {"K": 8}}, "levels": [
                {"name": "LB", "capacity": 1024, "operands": ["W", "I", "O"]}]}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("level 'LB'"), "{err}");
        assert!(err.to_string().contains("unknown key 'capacity'"), "{err}");
        // Inside pe_array.
        let err =
            from_json_str(r#"{"name": "x", "pe_array": {"unrolling": {"K": 8}}, "levels": []}"#)
                .unwrap_err();
        assert!(
            err.to_string()
                .contains("pe_array: unknown key 'unrolling'"),
            "{err}"
        );
    }

    #[test]
    fn unknown_unroll_dimension_is_rejected() {
        let err = from_json_str(
            r#"{"name": "x", "pe_array": {"unroll": {"KK": 8}}, "levels": [
                {"name": "LB", "capacity_bytes": 1024, "operands": ["W", "I", "O"]}]}"#,
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("unknown unrolling dimension 'KK'"),
            "{err}"
        );
    }

    #[test]
    fn duplicate_unroll_dimensions_are_rejected() {
        // "K" and "k" are distinct JSON keys that alias to the same loop
        // dimension; letting the last one win would silently shrink the PE
        // array from 16 to 8 MACs.
        let err = from_json_str(
            r#"{"name": "x", "pe_array": {"unroll": {"K": 16, "k": 8}}, "levels": [
                {"name": "LB", "capacity_bytes": 1024, "operands": ["W", "I", "O"]}]}"#,
        )
        .unwrap_err();
        assert!(
            err.to_string()
                .contains("unrolling dimension 'k' is given more than once"),
            "{err}"
        );
    }

    #[test]
    fn capacity_and_kind_consistency() {
        // Zero capacity.
        let err = from_json_str(
            r#"{"name": "x", "pe_array": {"unroll": {"K": 8}}, "levels": [
                {"name": "LB", "capacity_bytes": 0, "operands": ["W", "I", "O"]}]}"#,
        )
        .unwrap_err();
        assert_eq!(
            err.to_string(),
            "level 'LB': 'capacity_bytes' must be positive"
        );
        // A bounded dram.
        let err = from_json_str(
            r#"{"name": "x", "pe_array": {"unroll": {"K": 8}}, "levels": [
                {"name": "D", "kind": "dram", "capacity_bytes": 64, "operands": ["W", "I", "O"]}]}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("level 'D'"), "{err}");
        assert!(err.to_string().contains("unbounded"), "{err}");
        // An sram without capacity.
        let err = from_json_str(
            r#"{"name": "x", "pe_array": {"unroll": {"K": 8}}, "levels": [
                {"name": "LB", "kind": "sram", "operands": ["W", "I", "O"]}]}"#,
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("missing 'capacity_bytes'"),
            "{err}"
        );
        // An unknown kind.
        let err = from_json_str(
            r#"{"name": "x", "pe_array": {"unroll": {"K": 8}}, "levels": [
                {"name": "LB", "kind": "flash", "capacity_bytes": 64, "operands": ["W"]}]}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("unknown kind 'flash'"), "{err}");
    }

    #[test]
    fn hierarchy_problems_surface_as_document_errors() {
        // Inputs are never served on chip and the auto-appended DRAM serves
        // everything, so this *is* valid; but a mid-hierarchy DRAM is not.
        let err = from_json_str(
            r#"{"name": "x", "pe_array": {"unroll": {"K": 8}}, "levels": [
                {"name": "D", "kind": "dram", "operands": ["W", "I", "O"]},
                {"name": "LB", "capacity_bytes": 1024, "operands": ["W", "I", "O"]}]}"#,
        )
        .unwrap_err();
        assert!(matches!(err, AcceleratorDocError::Document(_)), "{err}");
        assert!(err.to_string().contains("after DRAM"), "{err}");
    }

    #[test]
    fn duplicate_level_names_are_rejected() {
        let err = from_json_str(
            r#"{"name": "x", "pe_array": {"unroll": {"K": 8}}, "levels": [
                {"name": "LB", "capacity_bytes": 1024, "operands": ["W"]},
                {"name": "LB", "capacity_bytes": 2048, "operands": ["I", "O"]}]}"#,
        )
        .unwrap_err();
        assert_eq!(err.to_string(), "level 'LB': duplicate level name");
    }

    #[test]
    fn empty_operands_and_structural_problems_are_rejected() {
        let err = from_json_str(
            r#"{"name": "x", "pe_array": {"unroll": {"K": 8}}, "levels": [
                {"name": "LB", "capacity_bytes": 1024, "operands": []}]}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("serves no operands"), "{err}");
        assert!(matches!(
            from_json_str("[1, 2]").unwrap_err(),
            AcceleratorDocError::Document(_)
        ));
        assert!(matches!(
            from_json_str("{nope").unwrap_err(),
            AcceleratorDocError::Json(_)
        ));
        let err = from_json_str(
            r#"{"format": "v999", "name": "x", "pe_array": {"unroll": {"K": 8}}, "levels": []}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("unsupported format tag"), "{err}");
        let err = from_json_file("missing-dir/nope.json").unwrap_err();
        assert!(matches!(err, AcceleratorDocError::Io { .. }), "{err}");
    }

    #[test]
    fn negative_energy_and_bandwidth_are_rejected() {
        let err = from_json_str(
            r#"{"name": "x", "pe_array": {"unroll": {"K": 8}}, "levels": [
                {"name": "LB", "capacity_bytes": 1024, "operands": ["W", "I", "O"],
                 "read_energy_pj_per_byte": -1.0}]}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("level 'LB'"), "{err}");
        assert!(err.to_string().contains("non-negative"), "{err}");
        let err = from_json_str(
            r#"{"name": "x", "pe_array": {"unroll": {"K": 8}}, "levels": [
                {"name": "LB", "capacity_bytes": 1024, "operands": ["W", "I", "O"],
                 "write_bw_bytes_per_cycle": 0.0}]}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("must be positive"), "{err}");
        let err = accelerator_from_doc(&AcceleratorDoc {
            format: None,
            name: "x".into(),
            pe_array: PeArraySpec {
                unroll: vec![("K".into(), 8)],
                mac_energy_pj: Some(-0.5),
            },
            levels: vec![LevelSpec {
                name: "LB".into(),
                kind: None,
                capacity_bytes: Some(1024),
                operands: vec!["W".into(), "I".into(), "O".into()],
                read_energy_pj_per_byte: None,
                write_energy_pj_per_byte: None,
                read_bw_bytes_per_cycle: None,
                write_bw_bytes_per_cycle: None,
            }],
        })
        .unwrap_err();
        assert!(err.to_string().contains("mac_energy_pj"), "{err}");
    }
}

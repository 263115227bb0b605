//! JSON accelerator loader: reads an accelerator document (the format
//! [`to_json_pretty`](crate::to_json_pretty) writes) straight into a
//! validated [`Accelerator`], applying per-kind defaults to omitted fields as
//! it reads.
//!
//! # Defaults
//!
//! Levels are processed in document order (innermost first). Each level's
//! `kind` — `"sram"`, `"register"` or `"dram"` — selects the defaults applied
//! to omitted energies and bandwidths:
//!
//! * `"sram"` (the default whenever a `capacity_bytes` is given) — the
//!   CACTI-like fit of [`MemoryLevel::sram`](crate::MemoryLevel::sram):
//!   energy `0.1 + 0.15·sqrt(KB)` pJ/B, bandwidth 32 B/cycle up to 256 KB
//!   and 64 B/cycle above.
//! * `"register"` — 0.02 pJ/B and unlimited bandwidth (register files are
//!   wide enough never to bottleneck the PE array).
//! * `"dram"` (the default when `capacity_bytes` is absent or `null`) —
//!   100 pJ/B and 8 B/cycle, unbounded capacity.
//!
//! A bandwidth given as JSON `null` means *unlimited* (internally
//! `f64::INFINITY`); omitting the key means *use the kind's default*. The
//! outermost DRAM level may be omitted entirely — the default DRAM is
//! appended automatically, mirroring [`AcceleratorBuilder::build`]. The
//! per-MAC energy defaults to 0.1 pJ.
//!
//! # Validation
//!
//! Every error names the offending level or field: unknown operand links,
//! unknown unrolling dimensions, zero unrolling factors (a zero-size PE
//! array), zero capacities, negative energies, missing memory levels, more
//! levels than [`MemoryHierarchy::MAX_LEVELS`](crate::MemoryHierarchy::MAX_LEVELS),
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
use crate::schema::{parse_dim, parse_operand, FORMAT};
use serde::{Fields, FromField, Items, Tape};
use std::collections::BTreeSet;
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
/// [`AcceleratorDocError::Document`] for structural, PE-array and
/// hierarchy-wide problems and [`AcceleratorDocError::Level`] (naming the
/// level) for per-level problems.
pub fn from_json_str(json: &str) -> Result<Accelerator, AcceleratorDocError> {
    use AcceleratorDocError::Document;
    let mut tape = Tape::new();
    let value = tape
        .parse(json)
        .map_err(|e| AcceleratorDocError::Json(e.to_string()))?;
    let fields = Fields::root(&value).map_err(Document)?;
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
    let (unrolling, mac_energy) = pe_array(fields.req("pe_array").map_err(Document)?)
        .map_err(|m| Document(format!("pe_array: {m}")))?;
    let levels: Items<'_> = fields.opt("levels").map_err(Document)?.ok_or_else(|| {
        Document("missing 'levels' array (an accelerator needs at least one memory level)".into())
    })?;
    if levels.is_empty() {
        return Err(Document(format!(
            "accelerator '{name}' has no memory levels (at least one on-chip level \
             is required; DRAM is appended automatically)"
        )));
    }

    let mut builder = AcceleratorBuilder::new(name).pe_array(unrolling, mac_energy);
    let mut seen = BTreeSet::new();
    for (index, value) in levels.enumerate() {
        let anonymous = |m| AcceleratorDocError::level(&format!("#{index}"), m);
        let fields = Fields::new(&value).map_err(anonymous)?;
        let name = fields.req::<&str>("name").map_err(anonymous)?;
        if !seen.insert(name) {
            return Err(AcceleratorDocError::level(name, "duplicate level name"));
        }
        let level = memory_level(name, fields).map_err(|m| AcceleratorDocError::level(name, m))?;
        builder = builder.add_level(level);
    }

    builder.build().map_err(|e| match e {
        // Both cases name the structural problem; the PE array was set above,
        // so MissingPeArray is unreachable.
        ArchError::Hierarchy(h) => Document(h.to_string()),
        ArchError::MissingPeArray => Document(e.to_string()),
    })
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

/// Reads the `pe_array` object: the spatial unrolling and the per-MAC energy.
fn pe_array(fields: Fields<'_>) -> Result<(SpatialUnrolling, f64), String> {
    fields.only(&["unroll", "mac_energy_pj"])?;
    let unroll: Vec<_> = fields.req::<Fields<'_>>("unroll")?.entries().collect();
    if unroll.is_empty() {
        return Err(
            "'unroll' is empty — a zero-size PE array cannot compute anything \
             (give at least one dimension a factor > 1)"
                .into(),
        );
    }
    let mut pairs = Vec::with_capacity(unroll.len());
    let mut total = 1u64;
    for (dim_name, factor) in unroll {
        let factor = u64::read(dim_name, factor)?;
        let dim = parse_dim(dim_name).ok_or_else(|| {
            format!("unknown unrolling dimension '{dim_name}' (expected B, K, C, OX, OY, FX, FY)")
        })?;
        // JSON keys "K" and "k" are distinct, so duplicate-dimension entries
        // can reach here; silently letting the last one win would mis-size
        // the PE array.
        if pairs.iter().any(|&(seen, _)| seen == dim) {
            return Err(format!(
                "unrolling dimension '{dim_name}' is given more than once"
            ));
        }
        if factor == 0 {
            return Err(format!(
                "unrolling factor for '{dim_name}' is 0 — a zero-size PE array cannot \
                 compute anything"
            ));
        }
        total = total.checked_mul(factor).ok_or_else(|| {
            format!("the unrolling factors overflow a 64-bit MAC count at '{dim_name}'")
        })?;
        pairs.push((dim, factor));
    }
    if total == 1 {
        return Err("all unrolling factors are 1 — a zero-size PE array cannot \
                    compute anything (give at least one dimension a factor > 1)"
            .into());
    }
    let mac_energy = match fields.opt::<f64>("mac_energy_pj")? {
        None => crate::energy::MAC_ENERGY_PJ,
        Some(e) if e.is_finite() && e > 0.0 => e,
        Some(e) => {
            return Err(format!(
                "'mac_energy_pj' must be a positive finite number, got {e}"
            ))
        }
    };
    Ok((SpatialUnrolling::from_pairs(pairs), mac_energy))
}

/// Reads one memory level, applying the module-level kind defaults.
fn memory_level(name: &str, fields: Fields<'_>) -> Result<MemoryLevel, String> {
    fields.only(&LEVEL_KEYS)?;
    let kind = fields.opt::<&str>("kind")?;
    let capacity = fields.opt::<u64>("capacity_bytes")?;
    let kind = kind.unwrap_or(if capacity.is_some() { "sram" } else { "dram" });
    let (capacity, default_energy, default_bw) = match (kind, capacity) {
        ("dram", None) => (None, DRAM_ENERGY_PJ_PER_BYTE, DRAM_BYTES_PER_CYCLE),
        ("dram", Some(c)) => {
            return Err(format!(
                "dram levels are unbounded: remove 'capacity_bytes' ({c}) or change the kind"
            ));
        }
        ("sram" | "register", None) => {
            return Err("missing 'capacity_bytes' (only dram levels are unbounded)".into());
        }
        ("sram" | "register", Some(0)) => return Err("'capacity_bytes' must be positive".into()),
        ("register", Some(c)) => (Some(c), REGISTER_ENERGY_PJ_PER_BYTE, f64::INFINITY),
        ("sram", Some(c)) => (
            Some(c),
            crate::energy::sram_energy_pj_per_byte(c),
            crate::energy::sram_bytes_per_cycle(c),
        ),
        (other, _) => {
            return Err(format!(
                "unknown kind '{other}' (expected sram, register, dram)"
            ))
        }
    };

    let operands = fields.req::<Vec<String>>("operands")?;
    if operands.is_empty() {
        return Err("serves no operands (list at least one of W, I, O)".into());
    }
    let operands = operands.iter().map(|op| {
        parse_operand(op).ok_or_else(|| format!("unknown operand '{op}' (expected W, I, O)"))
    });
    let operands = operands.collect::<Result<Vec<_>, _>>()?;

    let energy = |key: &str| match fields.opt::<f64>(key)? {
        None => Ok(default_energy),
        Some(e) if e.is_finite() && e >= 0.0 => Ok(e),
        Some(e) => Err(format!(
            "'{key}' must be a non-negative finite number, got {e}"
        )),
    };
    // A missing key means the kind's default; JSON null means unlimited.
    let bandwidth = |key: &str| match fields.get(key) {
        None => Ok(default_bw),
        Some(v) if v.is_null() => Ok(f64::INFINITY),
        Some(v) => match f64::read(key, v)? {
            bw if bw > 0.0 => Ok(bw),
            bw => Err(format!(
                "'{key}' must be positive (or null for unlimited), got {bw}"
            )),
        },
    };
    Ok(MemoryLevel::new(
        name,
        capacity,
        energy("read_energy_pj_per_byte")?,
        energy("write_energy_pj_per_byte")?,
        bandwidth("read_bw_bytes_per_cycle")?,
        bandwidth("write_bw_bytes_per_cycle")?,
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
    fn hierarchies_deeper_than_the_bound_are_rejected() {
        let document = |on_chip: usize| {
            let levels: Vec<String> = (0..on_chip)
                .map(|i| {
                    format!(
                        r#"{{"name": "L{i}", "capacity_bytes": 1024, "operands": ["W", "I", "O"]}}"#
                    )
                })
                .collect();
            format!(
                r#"{{"name": "x", "pe_array": {{"unroll": {{"K": 8}}}}, "levels": [{}]}}"#,
                levels.join(", ")
            )
        };
        // DRAM is appended to the on-chip levels.
        let deepest = crate::MemoryHierarchy::MAX_LEVELS - 1;
        assert!(from_json_str(&document(deepest)).is_ok());
        let err = from_json_str(&document(deepest + 1)).unwrap_err();
        assert!(
            err.to_string().contains("17 levels, more than the 16"),
            "{err}"
        );
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
    fn unrolling_factors_whose_product_overflows_are_rejected() {
        // 2^32 * 2^32 wraps a u64 to 0; the PE array must be rejected for
        // its size, not mistaken for an all-ones array.
        let err = from_json_str(
            r#"{"name": "x", "pe_array": {"unroll": {"K": 4294967296, "C": 4294967296}},
                "levels": [{"name": "LB", "capacity_bytes": 1024, "operands": ["W", "I", "O"]}]}"#,
        )
        .unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid accelerator document: pe_array: the unrolling factors overflow a 64-bit \
             MAC count at 'C'"
        );
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
        let err = from_json_str(
            r#"{"name": "x", "pe_array": {"unroll": {"K": 8}, "mac_energy_pj": -0.5}, "levels": [
                {"name": "LB", "capacity_bytes": 1024, "operands": ["W", "I", "O"]}]}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("mac_energy_pj"), "{err}");
    }
}

//! Declarative JSON schema for accelerators: a document describes a hardware
//! platform as data instead of Rust code — the hardware twin of the
//! `defines-workload` workload schema.
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
//! The `format` tag is optional. Unrolling factors must be ≥ 1 with at least
//! one > 1; dimension names accept lower case ([`parse_dim`]). A level needs
//! only `name` (unique) and `operands` (long names such as `"weight"` are
//! accepted, see [`parse_operand`]); `kind` (`"sram"`, `"register"` or
//! `"dram"`) selects the defaults for omitted energies and bandwidths, and a
//! level without `capacity_bytes` is DRAM. The outermost DRAM level may be
//! omitted: the loader appends the default one.
//!
//! [`to_json_pretty`] writes any [`Accelerator`] (including the Table I(a)
//! zoo) as a fully explicit document — every zoo document under
//! `accelerators/` is byte-equal to its own export — and the
//! [`loader`](crate::loader) reads documents into validated [`Accelerator`]s.
//! Round-tripping an accelerator through JSON reproduces it exactly,
//! *including* its [`Accelerator::fingerprint`], so file-loaded hardware
//! shares mapping-cache entries with its built-in twin.

use crate::accelerator::Accelerator;
use crate::loader::AcceleratorDocError;
use crate::operand::Operand;
use defines_workload::Dim;
use serde::{Serialize, Writer};

/// The format tag expected in an accelerator document's optional `format`
/// field.
pub(crate) const FORMAT: &str = "defines-accelerator-v1";

/// The canonical document name of an operand (`"W"`, `"I"`, `"O"`).
pub(crate) fn operand_name(op: Operand) -> &'static str {
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

/// Exports an accelerator as pretty-printed, fully explicit accelerator JSON
/// (the format of the reference files under `accelerators/`).
///
/// Every energy and bandwidth is written out (nothing is left to the kind
/// defaults), so the document loads back into an identical [`Accelerator`] —
/// same [`Accelerator::fingerprint`] — and stays valid even if the default
/// energy fit evolves. An unlimited (infinite) bandwidth is written as JSON
/// `null`, which the loader reads back as unlimited.
///
/// # Errors
///
/// Returns [`AcceleratorDocError::Level`] if two levels share a name:
/// validation errors reference levels by name, so names must be unique to be
/// exportable.
///
/// ```
/// use defines_arch::{to_json_pretty, zoo};
///
/// let json = to_json_pretty(&zoo::meta_proto_like_df()).unwrap();
/// let reloaded = defines_arch::loader::from_json_str(&json).unwrap();
/// assert_eq!(reloaded, zoo::meta_proto_like_df());
/// assert_eq!(
///     reloaded.fingerprint(),
///     zoo::meta_proto_like_df().fingerprint()
/// );
/// ```
pub fn to_json_pretty(acc: &Accelerator) -> Result<String, AcceleratorDocError> {
    let mut seen = std::collections::BTreeSet::new();
    let mut levels = Vec::with_capacity(acc.hierarchy().len());
    for level in acc.hierarchy().levels() {
        if !seen.insert(level.name()) {
            return Err(AcceleratorDocError::Level {
                level: level.name().to_string(),
                message: "duplicate level name: documents reference levels by name, \
                          so level names must be unique to export"
                    .to_string(),
            });
        }
        levels.push(LevelDoc {
            name: level.name().to_string(),
            capacity_bytes: level.capacity_bytes(),
            operands: level.operands().map(operand_name).collect(),
            read_energy_pj_per_byte: level.read_energy_pj_per_byte(),
            write_energy_pj_per_byte: level.write_energy_pj_per_byte(),
            read_bw_bytes_per_cycle: level.read_bw_bytes_per_cycle(),
            write_bw_bytes_per_cycle: level.write_bw_bytes_per_cycle(),
        });
    }
    let mut out = String::new();
    let w = &mut Writer::pretty(&mut out);
    w.begin_object();
    w.field("format", FORMAT);
    w.field("name", acc.name());
    w.key("pe_array");
    w.begin_object();
    w.key("unroll");
    w.begin_object();
    // Canonical B, K, C, OX, OY, FX, FY order; factors of 1 are left out.
    for (dim, factor) in acc.pe_array().unrolling().iter() {
        w.field(&dim.to_string(), &factor);
    }
    w.end_object();
    w.field("mac_energy_pj", &acc.pe_array().mac_energy_pj());
    w.end_object();
    w.field("levels", &levels);
    w.end_object();
    Ok(out)
}

/// One exported memory level. An unlimited capacity is written as `null`,
/// and so is a non-finite (unlimited) bandwidth.
#[derive(Serialize)]
struct LevelDoc {
    name: String,
    capacity_bytes: Option<u64>,
    operands: Vec<&'static str>,
    read_energy_pj_per_byte: f64,
    write_energy_pj_per_byte: f64,
    read_bw_bytes_per_cycle: f64,
    write_bw_bytes_per_cycle: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;
    use serde::Value;

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
        let json = to_json_pretty(&zoo::meta_proto_like()).unwrap();
        let doc = serde_json::from_str(&json).unwrap();
        assert_eq!(doc.get("format").and_then(Value::as_str), Some(FORMAT));
        assert_eq!(
            doc.get("name").and_then(Value::as_str),
            Some("Meta-proto-like")
        );
        let pe_array = doc.get("pe_array").unwrap();
        let unroll = pe_array.get("unroll").and_then(Value::as_object).unwrap();
        assert_eq!(
            unroll,
            [
                ("K".to_string(), Value::U64(32)),
                ("C".to_string(), Value::U64(2)),
                ("OX".to_string(), Value::U64(4)),
                ("OY".to_string(), Value::U64(4))
            ]
        );
        assert!(pe_array.get("mac_energy_pj").is_some());
        // Every level carries explicit energies and bandwidths; the last is
        // the DRAM level with unbounded capacity.
        let levels = doc.get("levels").and_then(Value::as_array).unwrap();
        for level in levels {
            let name = level.get("name").and_then(Value::as_str).unwrap();
            assert!(level.get("read_energy_pj_per_byte").is_some(), "{name}");
            assert!(level.get("write_energy_pj_per_byte").is_some(), "{name}");
            assert!(level.get("read_bw_bytes_per_cycle").is_some(), "{name}");
            let operands = level.get("operands").and_then(Value::as_array);
            assert!(!operands.unwrap().is_empty(), "{name}");
        }
        let dram = levels.last().unwrap();
        assert_eq!(dram.get("capacity_bytes"), Some(&Value::Null));
    }

    #[test]
    fn infinite_bandwidth_serializes_as_null() {
        // Register files use f64::INFINITY bandwidth; JSON has no infinity,
        // so the writer emits null and the loader reads null back as
        // unlimited. The fingerprint hashes the f64 bits, so this mapping
        // must be exact.
        let json = to_json_pretty(&zoo::meta_proto_like()).unwrap();
        assert!(json.contains("\"read_bw_bytes_per_cycle\": null"), "{json}");
    }

    #[test]
    fn duplicate_level_names_are_rejected_on_export() {
        use crate::accelerator::AcceleratorBuilder;
        use crate::memory::MemoryLevel;
        use crate::pe_array::SpatialUnrolling;

        let acc = AcceleratorBuilder::new("dup")
            .pe_array(SpatialUnrolling::from_pairs([(Dim::K, 8)]), 0.5)
            .add_level(MemoryLevel::sram("LB", 1024, Operand::ALL))
            .add_level(MemoryLevel::sram("LB", 2048, Operand::ALL))
            .build()
            .unwrap();
        let err = to_json_pretty(&acc).unwrap_err();
        assert!(err.to_string().contains("level 'LB'"), "{err}");
    }
}

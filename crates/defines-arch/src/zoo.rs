//! Accelerator zoo: the ten architectures of Table I(a) plus a DepFiN-like
//! validation architecture.
//!
//! Each architecture is a committed document under the repository-root
//! `accelerators/`, embedded at compile time and parsed by
//! [`loader::from_json_str`] — the path `--accelerator FILE` takes, so a zoo
//! accelerator and its file-loaded twin are one value with one
//! [`Accelerator::fingerprint`]. The documents are fully explicit: every SRAM
//! energy and bandwidth is written out as the CACTI-like fit of
//! [`crate::energy`] prices the level's capacity, and every register and DRAM
//! cost as the [`crate::energy`] constants. JSON holds no comments, so the
//! modelling rationale lives in the rustdoc of the constructor that loads
//! each document.
//!
//! All case-study architectures are normalized as in the paper: 1024 MACs and
//! at most 2 MB of global buffer, keeping each design's spatial unrolling and
//! local-buffer structure. Every baseline has a manually constructed
//! *DF-friendly* variant (same spatial unrolling, same total on-chip capacity,
//! but inputs and outputs share a lower-level memory and weights get an
//! on-chip global buffer).

use crate::accelerator::Accelerator;
use crate::loader;
use crate::operand::Operand;

/// Pairs each name with its document, the repository-root
/// `accelerators/<name>.json`, embedded at compile time.
macro_rules! documents {
    ($($name:literal,)*) => {
        [$(($name, include_str!(concat!("../../../accelerators/", $name, ".json")))),*]
    };
}

/// The built-in architectures: `--accelerator` name and embedded document,
/// in Table I(a) index order, DepFiN-like last.
const DOCUMENTS: [(&str, &str); 11] = documents![
    "meta-proto",
    "meta-proto-df",
    "tpu",
    "tpu-df",
    "edge-tpu",
    "edge-tpu-df",
    "ascend",
    "ascend-df",
    "tesla-npu",
    "tesla-npu-df",
    "depfin",
];

/// The `--accelerator` names of the built-in architectures, in Table I(a)
/// index order, DepFiN-like last. Each names `accelerators/<name>.json`.
pub fn names() -> Vec<&'static str> {
    DOCUMENTS.iter().map(|&(name, _)| name).collect()
}

/// The built-in architecture with this `--accelerator` name
/// (`"meta-proto-df"`, …), or `None` if [`names`] does not list it.
pub fn by_name(name: &str) -> Option<Accelerator> {
    let &(name, document) = DOCUMENTS.iter().find(|&&(n, _)| n == name)?;
    Some(
        loader::from_json_str(document)
            .unwrap_or_else(|e| panic!("accelerators/{name}.json is a valid accelerator: {e}")),
    )
}

fn builtin(name: &str) -> Accelerator {
    by_name(name).unwrap_or_else(|| panic!("'{name}' is in the zoo table"))
}

/// Idx 1 — Meta-prototype-like baseline (`meta-proto`): `K 32 | C 2 | OX 4 |
/// OY 4`, per-operand local buffers (W 64 KB, I 32 KB), 2 MB of global buffer
/// split between weights and activations.
pub fn meta_proto_like() -> Accelerator {
    builtin("meta-proto")
}

/// Idx 2 — Meta-prototype-like DF variant (`meta-proto-df`): inputs and
/// outputs share a 64 KB local buffer, weights keep a 32 KB local buffer;
/// global buffers unchanged. The 96 KB of local buffer is the baseline's,
/// re-split (64 + 32 → 32 + 64).
pub fn meta_proto_like_df() -> Accelerator {
    builtin("meta-proto-df")
}

/// Idx 3 — TPU-like baseline (`tpu`): `K 32 | C 32` systolic array, weights
/// stream from DRAM (no on-chip weight buffer), a 2 MB unified activation
/// buffer.
pub fn tpu_like() -> Accelerator {
    builtin("tpu")
}

/// Idx 4 — TPU-like DF variant (`tpu-df`): a 64 KB shared I/O local buffer
/// is carved out and half of the global buffer is reassigned to weights. The
/// weight registers halve (4 → 2 KB) and the local buffer is added on top,
/// so the total on-chip capacity grows by 3 % — inside the "unchanged
/// within rounding" budget the paper's guideline allows.
pub fn tpu_like_df() -> Accelerator {
    builtin("tpu-df")
}

/// Idx 5 — Edge-TPU-like baseline (`edge-tpu`): `K 8 | C 8 | OX 4 | OY 4`,
/// 32 KB weight local buffer, 2 MB unified activation global buffer.
pub fn edge_tpu_like() -> Accelerator {
    builtin("edge-tpu")
}

/// Idx 6 — Edge-TPU-like DF variant (`edge-tpu-df`): the 32 KB local buffer
/// is split between weights (16 KB) and shared activations (16 KB); half the
/// global buffer goes to weights. Total on-chip capacity is exactly the
/// baseline's.
pub fn edge_tpu_like_df() -> Accelerator {
    builtin("edge-tpu-df")
}

/// Idx 7 — Ascend-like baseline (`ascend`): `K 16 | C 16 | OX 2 | OY 2`,
/// per-operand local buffers (W 64 KB, I 64 KB, O 256 KB) and a split global
/// buffer.
pub fn ascend_like() -> Accelerator {
    builtin("ascend")
}

/// Idx 8 — Ascend-like DF variant (`ascend-df`): a shared 64 KB I/O local
/// buffer backed by a 256 KB second-level shared activation buffer — the
/// baseline's input and output local buffers re-assigned, so total on-chip
/// capacity is exactly the baseline's.
pub fn ascend_like_df() -> Accelerator {
    builtin("ascend-df")
}

/// Idx 9 — Tesla-NPU-like baseline (`tesla-npu`): `K 32 | OX 8 | OY 4`, tiny
/// 1 KB weight and input local buffers, split global buffer.
pub fn tesla_npu_like() -> Accelerator {
    builtin("tesla-npu")
}

/// Idx 10 — Tesla-NPU-like DF variant (`tesla-npu-df`): adds a 64 KB / 64 KB
/// second-level local buffer for weights and shared activations, shrinking
/// the activation global buffer from 1 MB to 896 KB (= 1 MB − 128 KB, not a
/// power-of-two macro) so the 128 KB added below it keeps the total on-chip
/// capacity exactly the baseline's.
pub fn tesla_npu_like_df() -> Accelerator {
    builtin("tesla-npu-df")
}

/// A DepFiN-like depth-first CNN processor (`depfin`) used for the
/// validation experiment (Section IV): `K 16 | C 4 | OX 16`, a line-buffer
/// oriented design with a large (256 KB) shared activation local buffer and
/// on-chip weight buffers (64 KB local, 512 KB global).
pub fn depfin_like() -> Accelerator {
    builtin("depfin")
}

/// The five baseline architectures, in Table I(a) order (indices 1, 3, 5, 7, 9).
pub fn baseline_architectures() -> Vec<Accelerator> {
    vec![
        meta_proto_like(),
        tpu_like(),
        edge_tpu_like(),
        ascend_like(),
        tesla_npu_like(),
    ]
}

/// The five DF-friendly variants, in Table I(a) order (indices 2, 4, 6, 8, 10).
pub fn df_architectures() -> Vec<Accelerator> {
    vec![
        meta_proto_like_df(),
        tpu_like_df(),
        edge_tpu_like_df(),
        ascend_like_df(),
        tesla_npu_like_df(),
    ]
}

/// All ten case-study architectures in Table I(a) index order
/// (baseline, DF, baseline, DF, …).
pub fn all_case_study_architectures() -> Vec<Accelerator> {
    let mut v = Vec::with_capacity(10);
    for (b, d) in baseline_architectures().into_iter().zip(df_architectures()) {
        v.push(b);
        v.push(d);
    }
    v
}

/// True when the accelerator has at least one on-chip memory level dedicated
/// to or shared with weights (the TPU-like baseline does not, which is why it
/// benefits so little from depth-first scheduling in case study 3).
pub fn has_on_chip_weight_buffer(acc: &Accelerator) -> bool {
    acc.hierarchy()
        .levels_for(Operand::Weight)
        .any(|(_, l)| !l.is_dram() && l.capacity_bytes().unwrap_or(0) >= 16 * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operand::Operand::{Input, Output};
    use defines_workload::Dim;

    #[test]
    fn documents_pin_the_builder_integers() {
        // (name, constructor, levels incl. DRAM, MACs, on-chip bytes), taken
        // from the Rust builders these documents replaced: only the loader
        // stands between a document and these numbers now.
        type Pin = (&'static str, fn() -> Accelerator, usize, u64, u64);
        let pins: [Pin; 11] = [
            ("meta-proto", meta_proto_like, 7, 1024, 2_198_528),
            ("meta-proto-df", meta_proto_like_df, 7, 1024, 2_198_528),
            ("tpu", tpu_like, 4, 1024, 2_134_016),
            ("tpu-df", tpu_like_df, 6, 1024, 2_197_504),
            ("edge-tpu", edge_tpu_like, 5, 1024, 2_132_992),
            ("edge-tpu-df", edge_tpu_like_df, 7, 1024, 2_132_992),
            ("ascend", ascend_like, 8, 1024, 2_493_440),
            ("ascend-df", ascend_like_df, 8, 1024, 2_493_440),
            ("tesla-npu", tesla_npu_like, 7, 1024, 2_104_320),
            ("tesla-npu-df", tesla_npu_like_df, 9, 1024, 2_104_320),
            ("depfin", depfin_like, 7, 1024, 1_905_664),
        ];
        assert_eq!(names(), pins.map(|p| p.0));
        for (name, constructor, levels, macs, on_chip) in pins {
            let acc = constructor();
            assert_eq!(by_name(name).as_ref(), Some(&acc), "{name}");
            assert_eq!(
                (
                    acc.hierarchy().len(),
                    acc.pe_array().total_macs(),
                    acc.hierarchy().total_on_chip_bytes()
                ),
                (levels, macs, on_chip),
                "{name}"
            );
        }
        assert_eq!(by_name("nope"), None);
    }

    #[test]
    fn all_architectures_have_1024_macs() {
        for acc in all_case_study_architectures() {
            assert_eq!(acc.pe_array().total_macs(), 1024, "{}", acc.name());
        }
        assert_eq!(depfin_like().pe_array().total_macs(), 1024);
    }

    #[test]
    fn global_buffers_capped_at_2mb() {
        for acc in all_case_study_architectures() {
            let gb_total: u64 = acc
                .hierarchy()
                .levels()
                .iter()
                .filter(|l| l.name().starts_with("GB"))
                .filter_map(|l| l.capacity_bytes())
                .sum();
            assert!(gb_total <= 2 << 20, "{}: GB total {gb_total}", acc.name());
        }
    }

    #[test]
    fn zoo_has_ten_case_study_architectures() {
        let all = all_case_study_architectures();
        assert_eq!(all.len(), 10);
        // Alternating baseline / DF naming.
        for (i, acc) in all.iter().enumerate() {
            if i % 2 == 1 {
                assert!(acc.name().ends_with("DF"), "{}", acc.name());
            } else {
                assert!(!acc.name().ends_with("DF"), "{}", acc.name());
            }
        }
    }

    #[test]
    fn df_variants_keep_total_on_chip_capacity() {
        // Guideline 2 of the paper: total on-chip memory capacity is unchanged
        // between a baseline and its DF variant (within the small rounding the
        // paper itself applies, e.g. Tesla-NPU 1 MB -> 896 KB + 128 KB of LB2).
        for (b, d) in baseline_architectures().into_iter().zip(df_architectures()) {
            let cb = b.hierarchy().total_on_chip_bytes() as f64;
            let cd = d.hierarchy().total_on_chip_bytes() as f64;
            let ratio = cd / cb;
            assert!(
                (0.9..=1.1).contains(&ratio),
                "{} vs {}: {cb} vs {cd}",
                b.name(),
                d.name()
            );
        }
    }

    #[test]
    fn df_variants_share_io_in_a_local_buffer() {
        for acc in df_architectures() {
            let has_shared_io_lb = acc.hierarchy().levels().iter().any(|l| {
                !l.is_dram()
                    && l.serves(Input)
                    && l.serves(Output)
                    && l.capacity_bytes().unwrap_or(0) <= 256 * 1024
            });
            assert!(
                has_shared_io_lb,
                "{} lacks a shared I/O local buffer",
                acc.name()
            );
        }
    }

    #[test]
    fn tpu_like_has_no_weight_buffer_but_df_variant_does() {
        assert!(!has_on_chip_weight_buffer(&tpu_like()));
        assert!(has_on_chip_weight_buffer(&tpu_like_df()));
        assert!(has_on_chip_weight_buffer(&meta_proto_like()));
    }

    #[test]
    fn spatial_unrollings_match_table_1a() {
        let meta = meta_proto_like();
        assert_eq!(meta.pe_array().unrolling().factor(Dim::K), 32);
        assert_eq!(meta.pe_array().unrolling().factor(Dim::C), 2);
        assert_eq!(meta.pe_array().unrolling().factor(Dim::OX), 4);
        let tpu = tpu_like();
        assert_eq!(tpu.pe_array().unrolling().factor(Dim::C), 32);
        let tesla = tesla_npu_like();
        assert_eq!(tesla.pe_array().unrolling().factor(Dim::OX), 8);
        assert_eq!(tesla.pe_array().unrolling().factor(Dim::C), 1);
    }

    #[test]
    fn df_variant_keeps_spatial_unrolling() {
        for (b, d) in baseline_architectures().into_iter().zip(df_architectures()) {
            assert_eq!(
                b.pe_array().unrolling(),
                d.pe_array().unrolling(),
                "{} vs {}",
                b.name(),
                d.name()
            );
        }
    }

    #[test]
    fn depfin_is_df_friendly() {
        let acc = depfin_like();
        assert!(has_on_chip_weight_buffer(&acc));
        let lb = acc.hierarchy().level_named("LB_IO").unwrap();
        assert!(lb.serves(Input) && lb.serves(Output));
    }
}

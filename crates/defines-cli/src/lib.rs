//! Shared plumbing for the DeFiNES command-line tools: name → object lookup
//! for workloads and accelerators, and parsers for the sweep flags
//! (`--dfmode` digits, tile-size lists).
//!
//! The flag names mirror the upstream DeFiNES artifact's interface
//! (`--workload`, `--accelerator`, `--dfmode`, `--tilex`, `--tiley`).
//! `--workload` accepts either a built-in zoo name ([`models::names`]) or a path
//! to a workload JSON file (see `defines_workload::loader`); anything ending
//! in `.json` or containing a path separator is treated as a file, so
//! arbitrary networks can be swept without touching Rust code:
//!
//! ```text
//! cargo run --release --bin sweep -- --workload workloads/fsrcnn.json
//! cargo run --release --bin sweep -- --workload my-custom-net.json
//! ```

use defines_arch::{zoo, Accelerator};
use defines_core::{Explorer, OverlapMode};
use defines_mapping::Budget;
use defines_workload::{models, Network};
use std::time::Duration;

/// Where a resolved workload or accelerator came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// A built-in zoo name ([`models::names`], [`zoo::names`]).
    Builtin,
    /// A JSON file.
    File,
}

impl Source {
    /// The source as a short machine-readable string (`"builtin"`/`"file"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            Source::Builtin => "builtin",
            Source::File => "file",
        }
    }
}

/// Whether a CLI spec looks like a file path rather than a zoo name: it ends
/// in `.json`, contains a path separator, or names an existing file.
fn looks_like_path(spec: &str) -> bool {
    spec.ends_with(".json")
        || spec.contains('/')
        || spec.contains(std::path::MAIN_SEPARATOR)
        || std::path::Path::new(spec).is_file()
}

/// Looks a workload up by its `--workload` name.
///
/// # Errors
///
/// Returns a message listing the valid names for an unknown workload.
pub(crate) fn workload_by_name(name: &str) -> Result<Network, String> {
    models::by_name(name).ok_or_else(|| {
        format!(
            "unknown workload '{name}' (expected one of: {}; or a path to a \
             workload JSON file)",
            models::names().join(", ")
        )
    })
}

/// Resolves the `--workload` flag: a built-in zoo name, or a path to a
/// workload JSON file. A spec is treated as a file when it ends in `.json`,
/// contains a path separator, or names an existing file — so
/// `--workload workloads/fsrcnn.json` and `--workload resnet18` both work.
///
/// # Errors
///
/// Returns the loader's error (naming the offending layer where applicable)
/// for files, or the unknown-name message for zoo lookups.
pub fn resolve_workload(spec: &str) -> Result<(Network, Source), String> {
    if looks_like_path(spec) {
        let net = defines_workload::from_json_file(spec).map_err(|e| e.to_string())?;
        Ok((net, Source::File))
    } else {
        workload_by_name(spec).map(|net| (net, Source::Builtin))
    }
}

/// Looks an accelerator up by its `--accelerator` name.
///
/// # Errors
///
/// Returns a message listing the valid names for an unknown accelerator.
pub(crate) fn accelerator_by_name(name: &str) -> Result<Accelerator, String> {
    zoo::by_name(name).ok_or_else(|| {
        format!(
            "unknown accelerator '{name}' (expected one of: {}; or a path to an \
             accelerator JSON file)",
            zoo::names().join(", ")
        )
    })
}

/// Resolves the `--accelerator` flag: a built-in zoo name, or a path to an
/// accelerator JSON file (see `defines_arch::loader`). A spec is treated as a
/// file when it ends in `.json`, contains a path separator, or names an
/// existing file — so `--accelerator accelerators/tpu-df.json` and
/// `--accelerator tpu-df` both work, and a file-loaded twin of a zoo
/// architecture shares its mapping-cache fingerprint.
///
/// # Errors
///
/// Returns the loader's error (naming the offending level where applicable)
/// for files, or the unknown-name message — listing the valid zoo names and
/// noting that `.json` paths are accepted — for zoo lookups.
pub fn resolve_accelerator(spec: &str) -> Result<(Accelerator, Source), String> {
    if looks_like_path(spec) {
        let acc = defines_arch::loader::from_json_file(spec).map_err(|e| e.to_string())?;
        Ok((acc, Source::File))
    } else {
        accelerator_by_name(spec).map(|acc| (acc, Source::Builtin))
    }
}

/// Parses the `--dfmode` digit string: each digit selects one overlap
/// storing mode (`1` fully-recompute, `2` H-cached V-recompute, `3`
/// fully-cached), in the paper's order. `123` selects all three. The
/// vocabulary itself is [`OverlapMode::parse_digits`]; this names the flag in
/// the error.
///
/// # Errors
///
/// Returns a message for empty input or characters outside `1`-`3`.
pub fn parse_modes(dfmode: &str) -> Result<Vec<OverlapMode>, String> {
    OverlapMode::parse_digits(dfmode).map_err(|why| format!("--dfmode: {why}"))
}

/// Parses a comma-separated list of positive tile extents (`"60"` or
/// `"1,4,60"`).
///
/// # Errors
///
/// Returns a message for empty, zero or non-numeric entries.
pub fn parse_tile_axis(flag: &str, input: &str) -> Result<Vec<u64>, String> {
    let mut out = Vec::new();
    for part in input.split(',') {
        let v: u64 = part
            .trim()
            .parse()
            .map_err(|_| format!("invalid {flag} entry '{part}': expected a positive integer"))?;
        if v == 0 {
            return Err(format!("{flag} entries must be positive"));
        }
        out.push(v);
    }
    if out.is_empty() {
        return Err(format!("{flag} needs at least one entry"));
    }
    Ok(out)
}

/// The tile grid of a sweep: the cross product of the `--tilex` / `--tiley`
/// lists, or the explorer's default grid when both are omitted.
///
/// # Errors
///
/// Returns a parse error, or an error if only one axis is given.
pub fn tile_grid(
    net: &Network,
    tilex: Option<&str>,
    tiley: Option<&str>,
) -> Result<Vec<(u64, u64)>, String> {
    match (tilex, tiley) {
        (None, None) => Ok(Explorer::default_tile_grid(net)),
        (Some(xs), Some(ys)) => {
            let xs = parse_tile_axis("--tilex", xs)?;
            let ys = parse_tile_axis("--tiley", ys)?;
            let mut grid = Vec::with_capacity(xs.len() * ys.len());
            for &ty in &ys {
                for &tx in &xs {
                    grid.push((tx, ty));
                }
            }
            Ok(grid)
        }
        _ => Err(
            "--tilex and --tiley must be given together (or both omitted for the default grid)"
                .into(),
        ),
    }
}

/// Parses the `--budget` deterministic search budget: `ORDERINGS` or
/// `ORDERINGS,DP_NODES`. The first number caps candidate orderings per
/// temporal-mapping search, the second caps relaxation steps per
/// fusion-partition DP; `0` means unlimited for either. Budgets are counted
/// in deterministic work units, so a budgeted run is bit-identical at any
/// thread count; results that hit a cap are flagged `degraded`.
///
/// # Errors
///
/// Returns a message for non-numeric entries or more than two fields.
pub fn parse_budget(input: &str) -> Result<Budget, String> {
    let parts: Vec<&str> = input.split(',').collect();
    if parts.is_empty() || parts.len() > 2 {
        return Err("--budget expects ORDERINGS or ORDERINGS,DP_NODES (0 = unlimited)".into());
    }
    let parse = |part: &str| -> Result<u64, String> {
        part.trim().parse().map_err(|_| {
            format!("invalid --budget entry '{part}': expected a non-negative integer")
        })
    };
    Ok(Budget {
        max_orderings: parse(parts[0])?,
        max_dp_nodes: if parts.len() == 2 {
            parse(parts[1])?
        } else {
            0
        },
    })
}

/// Parses the `--deadline` wall-clock limit, in (possibly fractional)
/// seconds. The deadline is checked between cells, never inside a search:
/// cells that start after it expires are marked failed, completed cells stay
/// bit-identical.
///
/// # Errors
///
/// Returns a message for non-numeric, non-finite or non-positive input.
pub fn parse_deadline(input: &str) -> Result<Duration, String> {
    let secs: f64 = input
        .trim()
        .parse()
        .map_err(|_| format!("invalid --deadline '{input}': expected seconds (e.g. 30 or 0.5)"))?;
    if !secs.is_finite() || secs <= 0.0 {
        return Err("--deadline must be a positive number of seconds".into());
    }
    Ok(Duration::from_secs_f64(secs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use defines_core::{FusePolicy, OptimizeTarget};

    #[test]
    fn every_listed_workload_and_accelerator_resolves() {
        for w in models::names() {
            assert!(workload_by_name(w).is_ok(), "{w}");
        }
        for a in zoo::names() {
            assert!(accelerator_by_name(a).is_ok(), "{a}");
        }
        assert!(workload_by_name("nope").is_err());
        assert!(accelerator_by_name("nope").is_err());
    }

    #[test]
    fn dfmode_digits_map_to_modes() {
        assert_eq!(parse_modes("123").unwrap(), OverlapMode::ALL.to_vec());
        assert_eq!(parse_modes("3").unwrap(), vec![OverlapMode::FullyCached]);
        assert_eq!(
            parse_modes("331").unwrap(),
            vec![OverlapMode::FullyCached, OverlapMode::FullyRecompute]
        );
        assert!(parse_modes("4").is_err());
        assert!(parse_modes("").is_err());
    }

    #[test]
    fn tile_grids_cross_lists() {
        let net = defines_workload::models::fsrcnn();
        let grid = tile_grid(&net, Some("1,60"), Some("72")).unwrap();
        assert_eq!(grid, vec![(1, 72), (60, 72)]);
        assert_eq!(tile_grid(&net, None, None).unwrap().len(), 36);
        assert!(tile_grid(&net, Some("60"), None).is_err());
        assert!(tile_grid(&net, Some("0"), Some("1")).is_err());
        assert!(tile_grid(&net, Some("x"), Some("1")).is_err());
    }

    #[test]
    fn resolve_workload_distinguishes_names_and_paths() {
        let (net, source) = resolve_workload("fsrcnn").unwrap();
        assert_eq!(net.name(), "FSRCNN");
        assert_eq!(source, Source::Builtin);

        // A JSON file with the exported FSRCNN loads to the same network.
        let json = defines_workload::to_json_pretty(&net).unwrap();
        let dir = std::env::temp_dir().join(format!("defines-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fsrcnn.json");
        std::fs::write(&path, json).unwrap();
        let (loaded, source) = resolve_workload(path.to_str().unwrap()).unwrap();
        assert_eq!(source, Source::File);
        assert_eq!(loaded, net);

        // Missing files and bad zoo names both produce useful messages.
        let err = resolve_workload("missing-dir/nope.json").unwrap_err();
        assert!(err.contains("cannot read workload file"), "{err}");
        let err = resolve_workload("nope").unwrap_err();
        assert!(err.contains("unknown workload"), "{err}");
        assert_eq!(Source::File.as_str(), "file");
    }

    #[test]
    fn resolve_accelerator_distinguishes_names_and_paths() {
        let (acc, source) = resolve_accelerator("meta-proto-df").unwrap();
        assert_eq!(acc.name(), "Meta-proto-like DF");
        assert_eq!(source, Source::Builtin);

        // A JSON file with the exported architecture loads to the same
        // accelerator, including its fingerprint. The path is per-process so
        // concurrent test runs never read each other's half-written files.
        let json = defines_arch::to_json_pretty(&acc).unwrap();
        let dir = std::env::temp_dir().join(format!("defines-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("meta-proto-df.json");
        std::fs::write(&path, json).unwrap();
        let (loaded, source) = resolve_accelerator(path.to_str().unwrap()).unwrap();
        assert_eq!(source, Source::File);
        assert_eq!(loaded, acc);
        assert_eq!(loaded.fingerprint(), acc.fingerprint());
        assert_eq!(Source::File.as_str(), "file");

        // Missing files produce the loader's Io message.
        let err = resolve_accelerator("missing-dir/nope.json").unwrap_err();
        assert!(err.contains("cannot read accelerator file"), "{err}");
    }

    #[test]
    fn unknown_accelerator_error_lists_names_and_mentions_json() {
        let err = accelerator_by_name("nope").unwrap_err();
        for name in zoo::names() {
            assert!(err.contains(name), "error must list '{name}': {err}");
        }
        assert!(err.contains("JSON"), "{err}");
        let err = resolve_accelerator("nope").unwrap_err();
        assert!(err.contains("unknown accelerator"), "{err}");
        assert!(err.contains("JSON"), "{err}");
    }

    #[test]
    fn targets_parse() {
        assert_eq!(
            OptimizeTarget::from_keyword("energy").unwrap(),
            OptimizeTarget::Energy
        );
        assert_eq!(
            OptimizeTarget::from_keyword("edp").unwrap(),
            OptimizeTarget::Edp
        );
        assert!(OptimizeTarget::from_keyword("speed").is_err());
    }

    #[test]
    fn budgets_parse() {
        assert_eq!(parse_budget("5000").unwrap(), Budget::orderings(5000));
        assert_eq!(
            parse_budget("5000,200").unwrap(),
            Budget {
                max_orderings: 5000,
                max_dp_nodes: 200
            }
        );
        assert_eq!(parse_budget("0").unwrap(), Budget::unlimited());
        assert_eq!(parse_budget(" 10 , 20 ").unwrap().max_dp_nodes, 20);
        assert!(parse_budget("x").is_err());
        assert!(parse_budget("1,2,3").is_err());
        assert!(parse_budget("-1").is_err());
    }

    #[test]
    fn deadlines_parse() {
        assert_eq!(parse_deadline("30").unwrap(), Duration::from_secs(30));
        assert_eq!(parse_deadline("0.5").unwrap(), Duration::from_millis(500));
        assert!(parse_deadline("0").is_err());
        assert!(parse_deadline("-2").is_err());
        assert!(parse_deadline("inf").is_err());
        assert!(parse_deadline("soon").is_err());
    }

    #[test]
    fn fuse_policies_parse() {
        assert_eq!(FusePolicy::from_keyword("auto").unwrap(), FusePolicy::Auto);
        assert_eq!(
            FusePolicy::from_keyword("full").unwrap(),
            FusePolicy::FullNetwork
        );
        assert_eq!(
            FusePolicy::from_keyword("single").unwrap(),
            FusePolicy::SingleLayerStacks
        );
        assert_eq!(
            FusePolicy::from_keyword("search").unwrap(),
            FusePolicy::search()
        );
        let err = FusePolicy::from_keyword("deep").unwrap_err();
        assert!(err.contains("auto, full, single, search"), "{err}");
    }
}

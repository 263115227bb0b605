//! Append-only JSONL checkpoints for matrix runs: kill a long
//! `{accelerator} × {workload} × {fuse policy}` grid at any point and resume
//! it without re-evaluating the finished cells.
//!
//! # File format
//!
//! The file is a [`defines_engine::journal`]; that module states the crash
//! contract (flushed appends, torn tail, atomic rewrite). The header line
//! binds the checkpoint to one exact run configuration: the format version,
//! the optimization target, every axis (accelerator names *and* structural
//! fingerprints, workload names, fuse labels), and a `grid_fingerprint`
//! hashing everything else that shapes cell results (tile grids, overlap
//! modes, mapper configuration — which itself covers the search budget).
//! Every further line is one completed [`CellOutcome`], appended the moment
//! the cell finishes, in completion order.
//!
//! # Resume semantics
//!
//! Cells are keyed by `(accelerator fingerprint, workload, fuse label)` —
//! *not* by grid position, so completion order and thread count never
//! matter. [`run_matrix`](crate::matrix::run_matrix) skips every keyed cell
//! found in the checkpoint and splices the recorded outcomes into the
//! report; because per-cell statistics carry no wall-clock time (the runner
//! zeroes it — see `run_matrix`), the resumed report's cells, ranking and
//! inner statistics are **byte-identical** to the uninterrupted run's.
//!
//! Two kinds of damage are tolerated by design:
//!
//! * a **torn tail** — the process died mid-append, leaving a partial last
//!   line. The loader drops it (flagged in [`Checkpoint::torn_tail`]), the
//!   resume rewrites the file without it, and the cell simply re-runs;
//! * **failed cells are never recorded** — a cell marked
//!   [`CellOutcome::error`] (panic, injected fault, missed deadline) is not
//!   appended, so resuming retries it instead of pinning the failure.
//!
//! Any other mismatch — a different grid, target, or a corrupt interior
//! line — is a hard [`MatrixError::Checkpoint`]: silently mixing two
//! configurations in one report would be worse than re-running.

use crate::explore::OptimizeTarget;
use crate::matrix::{CellOutcome, CellStack, MatrixError};
use defines_engine::journal::{f64_field, field, str_field, u64_field};
use defines_engine::{Journal, JournalError, SweepStats};
use serde::{Serialize, Value};
use std::path::Path;
use std::time::Duration;

/// Format version written to (and required of) the header line.
const VERSION: u64 = 1;

/// The header line binding a checkpoint to one run configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointHeader {
    /// The optimization target (display form, e.g. `"energy"`).
    pub target: String,
    /// The accelerator axis: `(name, structural fingerprint)` per entry, in
    /// submission order.
    pub accelerators: Vec<(String, u64)>,
    /// The workload axis, in submission order.
    pub workloads: Vec<String>,
    /// The fuse-policy axis labels, in submission order.
    pub policies: Vec<String>,
    /// FNV-1a hash over everything else that shapes cell results: tile
    /// grids, overlap modes, policy parameters, and each accelerator's
    /// mapper configuration fingerprint (which covers the search budget).
    pub grid_fingerprint: u64,
}

/// A loaded checkpoint: the validated header plus the raw cell values
/// (converted to [`CellOutcome`]s by the matrix runner, which owns the axis
/// context needed to reconstruct the fuse policies).
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// The header line.
    pub header: CheckpointHeader,
    /// One raw JSON value per recorded cell line, in file (completion)
    /// order.
    pub cells: Vec<Value>,
    /// Whether the file ended in a partial line (the recording process died
    /// mid-append). The partial line is dropped; its cell re-runs.
    pub torn_tail: bool,
}

// Deterministic FNV-1a over a byte stream — used instead of
// `DefaultHasher` because checkpoints outlive the process and
// `DefaultHasher`'s algorithm is not guaranteed stable across Rust
// releases. The implementation lives in `defines-engine` so the
// mapping-cache store shares the exact same fingerprint algorithm.
pub(crate) use defines_engine::Fnv;

impl CheckpointHeader {
    pub(crate) fn to_value(&self) -> Value {
        Value::Object(vec![
            ("defines_matrix_checkpoint".into(), Value::U64(VERSION)),
            ("target".into(), Value::Str(self.target.clone())),
            (
                "accelerators".into(),
                Value::Array(
                    self.accelerators
                        .iter()
                        .map(|(name, fp)| {
                            Value::Array(vec![Value::Str(name.clone()), Value::U64(*fp)])
                        })
                        .collect(),
                ),
            ),
            ("workloads".into(), self.workloads.to_value()),
            ("policies".into(), self.policies.to_value()),
            ("grid_fingerprint".into(), Value::U64(self.grid_fingerprint)),
        ])
    }

    fn from_value(v: &Value) -> Result<Self, String> {
        let version = u64_field(v, "defines_matrix_checkpoint")?;
        if version != VERSION {
            return Err(format!(
                "unsupported checkpoint version {version} (this build writes {VERSION})"
            ));
        }
        let accelerators = field(v, "accelerators")?
            .as_array()
            .ok_or("'accelerators' is not an array")?
            .iter()
            .map(|entry| {
                let pair = entry.as_array().filter(|p| p.len() == 2);
                match pair {
                    Some([name, fp]) => match (name.as_str(), fp.as_u64()) {
                        (Some(name), Some(fp)) => Ok((name.to_string(), fp)),
                        _ => Err("accelerator entry is not [name, fingerprint]".to_string()),
                    },
                    _ => Err("accelerator entry is not [name, fingerprint]".to_string()),
                }
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(CheckpointHeader {
            target: str_field(v, "target")?.to_string(),
            accelerators,
            workloads: string_array(field(v, "workloads")?, "workloads")?,
            policies: string_array(field(v, "policies")?, "policies")?,
            grid_fingerprint: u64_field(v, "grid_fingerprint")?,
        })
    }

    /// Checks that `self` (loaded from a file) describes the same run as
    /// `current` (built from the live arguments), field by field so the
    /// error names what drifted.
    pub fn validate_against(&self, current: &CheckpointHeader) -> Result<(), MatrixError> {
        let mismatch = |what: &str| {
            Err(MatrixError::Checkpoint(format!(
                "checkpoint does not match this run: {what} differs \
                 (delete the file or rerun with the original arguments)"
            )))
        };
        if self.target != current.target {
            return mismatch("the optimization target");
        }
        if self.accelerators != current.accelerators {
            return mismatch("the accelerator axis");
        }
        if self.workloads != current.workloads {
            return mismatch("the workload axis");
        }
        if self.policies != current.policies {
            return mismatch("the fuse-policy axis");
        }
        if self.grid_fingerprint != current.grid_fingerprint {
            return mismatch("the grid configuration (tile grid, modes, or mapper settings)");
        }
        Ok(())
    }
}

fn string_array(v: &Value, what: &str) -> Result<Vec<String>, String> {
    v.as_array()
        .ok_or_else(|| format!("'{what}' is not an array"))?
        .iter()
        .map(|item| {
            item.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("'{what}' entry is not a string"))
        })
        .collect()
}

/// Reconstructs a recorded cell. The fuse *policy object* is not parseable
/// from its display form, so it is resolved from the current run's axis via
/// the cell's `fuse` label — the header validation already guaranteed the
/// axes match.
pub(crate) fn cell_from_value(
    v: &Value,
    policies: &[crate::fuse::FusePolicy],
    policy_names: &[String],
) -> Result<CellOutcome, String> {
    let fuse = str_field(v, "fuse")?.to_string();
    let pi = policy_names
        .iter()
        .position(|name| *name == fuse)
        .ok_or_else(|| format!("cell fuse label '{fuse}' is not on the policy axis"))?;
    let stacks = field(v, "stacks")?
        .as_array()
        .ok_or("'stacks' is not an array")?
        .iter()
        .map(|s| {
            Ok(CellStack {
                layers: string_array(field(s, "layers")?, "layers")?,
                tile: str_field(s, "tile")?.to_string(),
                mode: str_field(s, "mode")?.to_string(),
                value: f64_field(s, "value")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let stats = field(v, "stats")?;
    let stats = SweepStats {
        label: str_field(stats, "label")?.to_string(),
        points: u64_field(stats, "points")? as usize,
        evaluated: u64_field(stats, "evaluated")? as usize,
        pruned: u64_field(stats, "pruned")? as usize,
        failed: u64_field(stats, "failed")? as usize,
        threads: u64_field(stats, "threads")? as usize,
        // Recorded cells always carry zero elapsed time (the runner zeroes
        // it for reproducibility); parse it anyway so the round-trip stays
        // honest if that ever changes.
        elapsed: Duration::from_secs_f64(f64_field(stats, "elapsed_ms")? / 1e3),
        cache: None,
    };
    if !field(v, "error")?.is_null() {
        return Err("checkpoint contains a failed cell (failed cells are never recorded)".into());
    }
    Ok(CellOutcome {
        accelerator: str_field(v, "accelerator")?.to_string(),
        fingerprint: u64_field(v, "fingerprint")?,
        workload: str_field(v, "workload")?.to_string(),
        policy: policies[pi].clone(),
        fuse,
        label: str_field(v, "label")?.to_string(),
        value: f64_field(v, "value")?,
        energy_pj: f64_field(v, "energy_pj")?,
        latency_cycles: f64_field(v, "latency_cycles")?,
        edp: f64_field(v, "edp")?,
        candidates: u64_field(v, "candidates")? as usize,
        degraded: field(v, "degraded")?
            .as_bool()
            .ok_or("'degraded' is not a boolean")?,
        error: None,
        stacks,
        stats,
    })
}

impl From<JournalError> for MatrixError {
    fn from(e: JournalError) -> Self {
        MatrixError::Checkpoint(e.to_string())
    }
}

/// Loads and parses a checkpoint file. The header is validated structurally
/// here; matching it against the live run is the caller's
/// [`CheckpointHeader::validate_against`].
pub fn load(path: &Path) -> Result<Checkpoint, MatrixError> {
    let mut header = None;
    let mut cells = Vec::new();
    let torn_tail = Journal::read("checkpoint", path, |_, value, _| {
        if header.is_none() {
            header = Some(CheckpointHeader::from_value(&value)?);
        } else {
            cells.push(value);
        }
        Ok(())
    })?;
    let header = header.ok_or_else(|| {
        MatrixError::Checkpoint(format!("checkpoint '{}' is empty", path.display()))
    })?;
    Ok(Checkpoint {
        header,
        cells,
        torn_tail,
    })
}

/// Builds the header for a live run (also the fingerprint the loaded header
/// is validated against).
#[allow(clippy::too_many_arguments)]
pub(crate) fn live_header(
    target: OptimizeTarget,
    accelerators: &[(String, u64)],
    workloads: &[String],
    policies: &[crate::fuse::FusePolicy],
    policy_names: &[String],
    grids: &[&[(u64, u64)]],
    modes: &[crate::strategy::OverlapMode],
    mapper_fingerprint: u64,
) -> CheckpointHeader {
    let mut h = Fnv::new();
    for grid in grids {
        h.write_u64(grid.len() as u64);
        for &(w, hh) in *grid {
            h.write_u64(w);
            h.write_u64(hh);
        }
    }
    h.write_u64(modes.len() as u64);
    for mode in modes {
        h.write(mode.to_string().as_bytes());
    }
    // Policy *parameters* (two Search policies may share an axis label
    // prefix yet differ in span/budget — the display form carries both).
    for policy in policies {
        h.write(policy.to_string().as_bytes());
    }
    h.write_u64(mapper_fingerprint);
    CheckpointHeader {
        target: target.to_string(),
        accelerators: accelerators.to_vec(),
        workloads: workloads.to_vec(),
        policies: policy_names.to_vec(),
        grid_fingerprint: h.finish(),
    }
}

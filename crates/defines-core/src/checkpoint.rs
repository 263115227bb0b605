//! Append-only JSONL checkpoints for matrix runs: kill a long
//! `{accelerator} × {workload} × {fuse policy}` grid at any point and resume
//! it without re-evaluating the finished cells.
//!
//! # File format
//!
//! The file is a [`defines_engine::Journal`]; that type states the crash
//! contract (flushed appends, torn tail, atomic rewrite). The header line
//! binds the checkpoint to one exact run configuration: the format version,
//! the optimization target, every axis (accelerator names *and* structural
//! fingerprints, workload names, fuse keywords), and a `grid_fingerprint`
//! hashing everything else that shapes cell results (tile grids, overlap
//! modes, mapper configuration — which itself covers the search budget).
//! Every further line is one completed [`CellOutcome`], appended the moment
//! the cell finishes, in completion order.
//! Every number in the header is an [`Fnv`] hash, so a checkpoint resumes
//! under any build; version 1 headers, whose accelerator fingerprints were
//! `DefaultHasher` hashes, are refused as an unsupported version.
//!
//! # Resume semantics
//!
//! Cells are keyed by `(accelerator fingerprint, workload, fuse keyword)` —
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
use crate::fuse::FusePolicy;
use crate::matrix::{CellOutcome, CellStack, MatrixError};
use defines_engine::{Journal, JournalError, SweepStats};
use defines_workload::Fnv;
use serde::{Fields, Items, Serialize, ValueRef, Writer};
use std::path::Path;
use std::time::Duration;

/// Format version written to (and required of) the header line.
const VERSION: u64 = 2;

/// The header line binding a checkpoint to one run configuration.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CheckpointHeader {
    /// The optimization target (display form, e.g. `"energy"`).
    pub target: String,
    /// The accelerator axis: `(name, structural fingerprint)` per entry, in
    /// submission order.
    pub accelerators: Vec<(String, u64)>,
    /// The workload axis, in submission order.
    pub workloads: Vec<String>,
    /// The fuse-policy axis keywords, in submission order.
    pub policies: Vec<String>,
    /// FNV-1a hash over everything else that shapes cell results: tile
    /// grids, overlap modes, the policies' display forms, and each
    /// accelerator's mapper configuration fingerprint (which covers the
    /// search budget).
    pub grid_fingerprint: u64,
}

/// A loaded checkpoint: the validated header plus the recorded cells (placed
/// on their grid slots by the matrix runner).
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// The header line.
    pub(crate) header: CheckpointHeader,
    /// One recorded cell per line, in file (completion) order.
    pub cells: Vec<CellOutcome>,
    /// Whether the file ended in a partial line (the recording process died
    /// mid-append). The partial line is dropped; its cell re-runs.
    pub torn_tail: bool,
}

impl Serialize for CheckpointHeader {
    fn serialize(&self, w: &mut Writer<'_>) {
        w.begin_object();
        w.field("defines_matrix_checkpoint", &VERSION);
        w.field("target", &self.target);
        w.field("accelerators", &self.accelerators);
        w.field("workloads", &self.workloads);
        w.field("policies", &self.policies);
        w.field("grid_fingerprint", &self.grid_fingerprint);
        w.end_object();
    }
}

impl CheckpointHeader {
    fn read(v: &ValueRef<'_>) -> Result<Self, String> {
        let header = Fields::root(v)?;
        let version = header.req::<u64>("defines_matrix_checkpoint")?;
        if version != VERSION {
            return Err(format!(
                "unsupported checkpoint version {version} (this build writes {VERSION})"
            ));
        }
        let accelerators = header
            .req::<Items<'_>>("accelerators")?
            .map(|entry| {
                let (name, fp) = entry.as_pair()?;
                Some((name.as_str()?.to_string(), fp.as_u64()?))
            })
            .collect::<Option<Vec<_>>>()
            .ok_or("accelerator entry is not [name, fingerprint]")?;
        Ok(CheckpointHeader {
            target: header.req::<&str>("target")?.to_string(),
            accelerators,
            workloads: header.req("workloads")?,
            policies: header.req("policies")?,
            grid_fingerprint: header.req("grid_fingerprint")?,
        })
    }

    /// Checks that `self` (loaded from a file) describes the same run as
    /// `current` (built from the live arguments), field by field so the
    /// error names what drifted.
    pub(crate) fn validate_against(&self, current: &CheckpointHeader) -> Result<(), MatrixError> {
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

/// Reconstructs a recorded cell; its fuse policy is read back from the
/// recorded keyword.
fn read_cell(v: &ValueRef<'_>) -> Result<CellOutcome, String> {
    let cell = Fields::root(v)?;
    let policy = FusePolicy::from_keyword(cell.req("fuse")?)?;
    let stacks = cell
        .req::<Items<'_>>("stacks")?
        .map(|s| {
            let s = Fields::new(&s)?;
            Ok(CellStack {
                layers: s.req("layers")?,
                tile: s.req::<&str>("tile")?.to_string(),
                mode: s.req::<&str>("mode")?.to_string(),
                value: s.req("value")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let stats = cell.req::<Fields<'_>>("stats")?;
    let count = |key| stats.req::<u64>(key).map(|n| n as usize);
    let stats = SweepStats {
        label: stats.req::<&str>("label")?.to_string(),
        points: count("points")?,
        evaluated: count("evaluated")?,
        pruned: count("pruned")?,
        failed: count("failed")?,
        threads: count("threads")?,
        // Recorded cells always carry zero elapsed time (the runner zeroes
        // it for reproducibility); parse it anyway so the round-trip stays
        // honest if that ever changes.
        elapsed: Duration::from_secs_f64(stats.req::<f64>("elapsed_ms")? / 1e3),
        cache: None,
    };
    if cell.opt::<&str>("error")?.is_some() {
        return Err("checkpoint contains a failed cell (failed cells are never recorded)".into());
    }
    Ok(CellOutcome {
        accelerator: cell.req::<&str>("accelerator")?.to_string(),
        fingerprint: cell.req("fingerprint")?,
        workload: cell.req::<&str>("workload")?.to_string(),
        policy,
        label: cell.req::<&str>("label")?.to_string(),
        value: cell.req("value")?,
        energy_pj: cell.req("energy_pj")?,
        latency_cycles: cell.req("latency_cycles")?,
        edp: cell.req("edp")?,
        candidates: cell.req::<u64>("candidates")? as usize,
        degraded: cell.req("degraded")?,
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
/// `CheckpointHeader::validate_against`. A cell line that does not read
/// back fails the load with an error naming the file, the line and the
/// field.
pub fn load(path: &Path) -> Result<Checkpoint, MatrixError> {
    let mut header = None;
    let mut cells = Vec::new();
    let torn_tail = Journal::read("checkpoint", path, |_, value, _| {
        if header.is_none() {
            header = Some(CheckpointHeader::read(&value)?);
        } else {
            cells.push(read_cell(&value)?);
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
#[allow(
    clippy::too_many_arguments,
    reason = "every run parameter the header fingerprints is an argument"
)]
pub(crate) fn live_header(
    target: OptimizeTarget,
    accelerators: &[(String, u64)],
    workloads: &[String],
    policies: &[FusePolicy],
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
    // The policies' display forms; existing headers fingerprint them too.
    for policy in policies {
        h.write(policy.to_string().as_bytes());
    }
    h.write_u64(mapper_fingerprint);
    CheckpointHeader {
        target: target.to_string(),
        accelerators: accelerators.to_vec(),
        workloads: workloads.to_vec(),
        policies: policies.iter().map(|p| p.keyword().into()).collect(),
        grid_fingerprint: h.finish(),
    }
}

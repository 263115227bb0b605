//! The five workloads. Each owns its inputs (built once per set-up from the
//! reference documents and the seed) and runs one *job* — the unit whose wall
//! time is `job_s` — as often as the runner asks.

mod explore;
mod matrix;
pub mod serve;

pub use explore::schedule_fnv;

use crate::probes::ProbeInputs;
use defines_core::NetworkCost;
use defines_engine::Fnv;
use std::path::Path;

/// The workload names, in ladder order. Final: every later performance claim
/// is stated against these.
pub const WORKLOADS: [&str; 5] = [
    "sweep-cold",
    "sweep-warm",
    "fuse-search",
    "matrix-fullmap",
    "serve-mix",
];

/// Simulated figures of a job's results: exact, host-independent, and never
/// allowed to move in a performance change.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ModelFigures {
    /// Energy of the chosen schedules, summed over the job's result items, mJ.
    pub energy_mj: f64,
    /// Latency of the chosen schedules, summed, Mcycles.
    pub latency_mcycles: f64,
    /// DRAM traffic of the chosen schedules, summed, MB (0 where the result
    /// type carries no traffic figure: matrix cells).
    pub dram_mb: f64,
}

impl ModelFigures {
    /// Adds one chosen schedule's cost.
    pub fn add(&mut self, cost: &NetworkCost, acc: &defines_arch::Accelerator) {
        self.energy_mj += cost.energy_mj();
        self.latency_mcycles += cost.latency_mcycles();
        self.dram_mb += cost.dram_traffic_bytes(acc) / 1e6;
    }
}

/// What one job reports back to the runner.
#[derive(Debug, Clone, Default)]
pub struct JobOutput {
    /// Operations attempted (design points, matrix cells, requests).
    pub attempted: u64,
    /// Operations that failed (failed records, cells with an error,
    /// responses that are not `ok` or differ from the oracle, I/O errors).
    pub failed: u64,
    /// Work items submitted, the numerator of `points_per_s`: design points
    /// (evaluated + pruned) for the exploration workloads, requests for
    /// `serve-mix`. A constant of the workload, independent of the seed.
    pub points: u64,
    /// FNV-1a over the deterministic slice of the results.
    pub result_fnv: u64,
    /// Simulated figures of the results.
    pub model: ModelFigures,
    /// Per-layer figures only the job itself can observe (render timings,
    /// request latencies, daemon counters), by per-layer metric name.
    pub layer: Vec<(&'static str, f64)>,
    /// A failed correctness check, if any (the job still returns so the
    /// runner can report it as `correct: false` rather than crash).
    pub check_failure: Option<String>,
}

/// One of the five workloads, set up and ready to run jobs.
pub trait Workload {
    /// Outer engine threads of the end-to-end pass.
    fn e2e_threads(&self) -> usize;

    /// Runs one job on `threads` outer engine threads. `Err` is a harness
    /// or I/O failure; a wrong result is reported through
    /// [`JobOutput::check_failure`].
    fn job(&mut self, threads: usize) -> Result<JobOutput, String>;

    /// The inputs the per-layer probes run on, derived from this workload's
    /// own networks, tiles and requests.
    fn probe_inputs(&self) -> Result<ProbeInputs, String>;

    /// Per-layer figures only this workload can probe (none by default).
    /// `scratch` is a directory inside the checkout.
    fn layer_probes(&mut self, _scratch: &Path) -> Result<Vec<(&'static str, f64)>, String> {
        Ok(Vec::new())
    }
}

/// Sets a workload up from the reference documents and the seed.
pub fn setup(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "sweep-cold" => Box::new(explore::Sweep::setup(seed, false)?),
        "sweep-warm" => Box::new(explore::Sweep::setup(seed, true)?),
        "fuse-search" => Box::new(explore::FuseSearch::setup(seed)?),
        "matrix-fullmap" => Box::new(matrix::MatrixFullmap::setup(seed)?),
        "serve-mix" => Box::new(serve::ServeMix::setup(seed)?),
        other => {
            return Err(format!(
                "unknown workload '{other}' (expected one of: {})",
                WORKLOADS.join(", ")
            ))
        }
    })
}

/// `min(nproc, 4)`: the outer thread count of the parallel workload.
pub fn parallel_threads() -> usize {
    crate::host::nproc().min(4)
}

/// Folds an `f64` into a result hash by bit pattern, so "equal" means
/// bit-identical.
pub(crate) fn hash_f64(h: &mut Fnv, x: f64) {
    h.write_u64(x.to_bits());
}

/// Folds a string into a result hash, length-prefixed so adjacent strings
/// cannot alias.
pub(crate) fn hash_str(h: &mut Fnv, s: &str) {
    h.write_u64(s.len() as u64);
    h.write(s.as_bytes());
}

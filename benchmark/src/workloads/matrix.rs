//! `matrix-fullmap`: the case-study matrix with the full (720-ordering)
//! mapper — the only workload where the temporal-mapping search does most of
//! the work, and the only one on the parallel outer engine with
//! cross-accelerator canonical sharing.

use super::{hash_f64, hash_str, JobOutput, Workload};
use crate::clock::timed;
use crate::inputs;
use crate::probes::ProbeInputs;
use crate::sample::Samples;
use defines_arch::Accelerator;
use defines_core::{
    run_matrix, FusePolicy, MatrixConfig, MatrixReport, OptimizeTarget, OverlapMode,
};
use defines_engine::{EngineConfig, Fnv};
use defines_mapping::MappingCache;
use defines_telemetry::span;
use defines_workload::Network;
use serde::Serialize;
use std::path::{Path, PathBuf};

const NETS: [&str; 4] = ["fsrcnn", "mccnn", "mobilenet-v1", "resnet18"];

pub struct MatrixFullmap {
    accs: Vec<Accelerator>,
    nets: Vec<Network>,
    /// The cache the most recent job filled (probe input only).
    cache: MappingCache,
}

impl MatrixFullmap {
    /// The grid is the fixed case-study matrix: the seed draws nothing here.
    /// (Seeding the order of the axes was tried; it changes which thread
    /// gets the heavy cells last and moved `job_s` by ±7 % across seeds.)
    pub fn setup(_seed: u64) -> Result<Self, String> {
        Ok(Self {
            accs: inputs::load_accelerators(&inputs::DF_ACCELERATORS)?,
            nets: inputs::load_workloads(&NETS)?,
            cache: MappingCache::new(),
        })
    }

    /// One `run_matrix` over the grid on a fresh cache.
    pub fn run(
        &mut self,
        threads: usize,
        checkpoint: Option<PathBuf>,
    ) -> Result<MatrixReport, String> {
        self.cache = MappingCache::new();
        let config = MatrixConfig {
            engine: EngineConfig::parallel().with_threads(threads),
            cache: self.cache.clone(),
            fast_mapper: false,
            checkpoint,
            ..MatrixConfig::default()
        };
        let _span = span!("bench.matrix.run_matrix");
        run_matrix(
            &self.accs,
            &self.nets,
            &[FusePolicy::Auto],
            None,
            &OverlapMode::ALL,
            OptimizeTarget::Energy,
            &config,
            |_| {},
        )
        .map_err(|e| format!("run_matrix failed: {e}"))
    }
}

impl Workload for MatrixFullmap {
    fn e2e_threads(&self) -> usize {
        super::parallel_threads()
    }

    fn job(&mut self, threads: usize) -> Result<JobOutput, String> {
        let report = self.run(threads, None)?;
        // The job ends where the CLI's does: both reports rendered.
        let (json, json_s) = timed(|| {
            let _span = span!("bench.matrix.render_json");
            report.to_value().to_json_pretty()
        });
        let (markdown, md_s) = timed(|| {
            let _span = span!("bench.matrix.render_md");
            report.to_markdown()
        });
        std::hint::black_box((json, markdown));

        let mut out = JobOutput {
            attempted: report.cells.len() as u64,
            failed: report.cells.iter().filter(|c| c.error.is_some()).count() as u64,
            points: report.inner_stats.points as u64,
            result_fnv: report_fnv(&report),
            ..JobOutput::default()
        };
        for cell in report.cells.iter().filter(|c| c.error.is_none()) {
            out.model.energy_mj += cell.energy_pj / 1e9;
            out.model.latency_mcycles += cell.latency_cycles / 1e6;
        }
        out.layer = vec![
            ("core.matrix.render_json_ms", json_s * 1e3),
            ("core.matrix.render_md_ms", md_s * 1e3),
            ("core.matrix.cells", report.cells.len() as f64),
        ];
        Ok(out)
    }

    /// A checkpointed run of the grid: what the journal costs on disk and
    /// what resuming from it would pay to read it back.
    fn layer_probes(&mut self, scratch: &Path) -> Result<Vec<(&'static str, f64)>, String> {
        let path = scratch.join("matrix.ckpt.jsonl");
        let _ = std::fs::remove_file(&path);
        let report = self.run(self.e2e_threads(), Some(path.clone()))?;
        let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
        let load = (0..5)
            .map(|_| {
                let (loaded, seconds) = timed(|| defines_core::checkpoint::load(&path));
                loaded.map(|_| seconds).map_err(|e| e.to_string())
            })
            .collect::<Result<Samples, String>>()?;
        std::fs::remove_file(&path).map_err(|e| format!("cannot remove checkpoint: {e}"))?;
        Ok(vec![
            ("core.checkpoint.load_ms", load.median() * 1e3),
            (
                "core.checkpoint.bytes_per_cell",
                bytes as f64 / report.cells.len() as f64,
            ),
        ])
    }

    fn probe_inputs(&self) -> Result<ProbeInputs, String> {
        let tiles: Vec<Vec<(u64, u64)>> = self
            .nets
            .iter()
            .map(defines_core::Explorer::default_tile_grid)
            .collect();
        Ok(ProbeInputs {
            workload_specs: NETS.iter().map(|s| s.to_string()).collect(),
            accelerator_specs: inputs::DF_ACCELERATORS
                .iter()
                .map(|s| s.to_string())
                .collect(),
            nets: self.nets.clone(),
            accs: self.accs.clone(),
            fast_mapper: false,
            requests: ProbeInputs::derived_requests(
                &NETS,
                inputs::DF_ACCELERATORS[0],
                &tiles,
                &FusePolicy::Auto,
            ),
            tiles,
            cache: self.cache.clone(),
        })
    }
}

/// FNV over the deterministic slice of a matrix report: every cell's values
/// and chosen stacks plus the ranking. Statistics, metrics and the
/// toolchain-dependent accelerator fingerprint stay out.
pub fn report_fnv(report: &MatrixReport) -> u64 {
    let mut h = Fnv::new();
    for cell in &report.cells {
        hash_str(&mut h, &cell.label);
        hash_f64(&mut h, cell.value);
        hash_f64(&mut h, cell.energy_pj);
        hash_f64(&mut h, cell.latency_cycles);
        h.write_u64(cell.candidates as u64);
        h.write_u64(u64::from(cell.degraded));
        hash_str(&mut h, cell.error.as_deref().unwrap_or(""));
        h.write_u64(cell.stacks.len() as u64);
        for stack in &cell.stacks {
            h.write_u64(stack.layers.len() as u64);
            for layer in &stack.layers {
                hash_str(&mut h, layer);
            }
            hash_str(&mut h, &stack.tile);
            hash_str(&mut h, &stack.mode);
            hash_f64(&mut h, stack.value);
        }
    }
    for entry in &report.ranking {
        h.write_u64(entry.rank as u64);
        hash_str(&mut h, &entry.accelerator);
        hash_f64(&mut h, entry.total_value);
        for &cell in &entry.best_cells {
            h.write_u64(cell as u64);
        }
    }
    h.finish()
}

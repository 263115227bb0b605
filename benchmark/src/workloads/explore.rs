//! The three single-accelerator exploration workloads: `sweep-cold`,
//! `sweep-warm` (the CLI `sweep` path, case study 1 / Fig. 12) and
//! `fuse-search` (`best_schedule` with the fuse-depth search).

use super::{hash_f64, hash_str, JobOutput, Workload};
use crate::inputs;
use crate::probes::ProbeInputs;
use crate::rng::Rng;
use defines_arch::Accelerator;
use defines_core::{DfCostModel, Explorer, FusePolicy, OptimizeTarget, OverlapMode};
use defines_engine::{Fnv, Outcome};
use defines_mapping::MappingCache;
use defines_telemetry::span;
use defines_workload::Network;

/// The accelerator of the single-accelerator workloads (the paper's
/// case-study-1 architecture).
const ACCELERATOR: &str = "meta-proto-df";

/// Seeded off-grid tile sizes added to each network's default grid.
const SWEEP_SEEDED_TILES: usize = 6;
const FUSE_SEEDED_TILES: usize = 2;

const SWEEP_NETS: [&str; 3] = ["fsrcnn", "mccnn", "dmcnn-vd"];
/// One restoration net plus the two classification nets: depthwise and
/// residual layers, 1×1 sinks, many more fuse candidates.
const FUSE_NETS: [&str; 3] = ["fsrcnn", "mobilenet-v1", "resnet18"];

/// Inputs shared by the exploration workloads.
struct Inputs {
    specs: &'static [&'static str],
    acc: Accelerator,
    nets: Vec<Network>,
    /// Tile sizes per network.
    tiles: Vec<Vec<(u64, u64)>>,
}

impl Inputs {
    fn load(
        specs: &'static [&'static str],
        seed: u64,
        seeded_tiles: usize,
    ) -> Result<Self, String> {
        let acc = inputs::load_accelerator(ACCELERATOR)?;
        let nets = inputs::load_workloads(specs)?;
        let mut rng = Rng::new(seed).fork("tiles");
        let tiles = nets
            .iter()
            .map(|net| inputs::grid_with_seeded_tiles(&mut rng, net, seeded_tiles))
            .collect();
        Ok(Self {
            specs,
            acc,
            nets,
            tiles,
        })
    }

    fn probe_inputs(&self, fuse: FusePolicy, cache: &MappingCache) -> ProbeInputs {
        ProbeInputs {
            workload_specs: self.specs.iter().map(|s| s.to_string()).collect(),
            accelerator_specs: vec![ACCELERATOR.to_string()],
            nets: self.nets.clone(),
            accs: vec![self.acc.clone()],
            tiles: self.tiles.clone(),
            fast_mapper: true,
            requests: ProbeInputs::derived_requests(self.specs, ACCELERATOR, &self.tiles, &fuse),
            cache: cache.clone(),
        }
    }
}

/// `sweep-cold` / `sweep-warm`: `Explorer::sweep_streaming` over every
/// (tile, mode) point of three networks, pruning on, fast mapper, fuse auto.
pub struct Sweep {
    inputs: Inputs,
    /// `sweep-warm`: the cache filled in set-up, shared by every job.
    /// `sweep-cold`: the cache the most recent job filled (probe input only;
    /// each job starts from a fresh one).
    cache: MappingCache,
    warm: bool,
}

impl Sweep {
    pub fn setup(seed: u64, warm: bool) -> Result<Self, String> {
        let inputs = Inputs::load(&SWEEP_NETS, seed, SWEEP_SEEDED_TILES)?;
        let sweep = Self {
            inputs,
            cache: MappingCache::new(),
            warm,
        };
        if warm {
            // Fill without pruning: every point's mappings become resident,
            // so "zero misses" holds whatever the pruning order of a job.
            sweep.run(1, false)?;
        }
        Ok(sweep)
    }

    fn run(&self, threads: usize, prune: bool) -> Result<JobOutput, String> {
        let Inputs {
            acc, nets, tiles, ..
        } = &self.inputs;
        let model = DfCostModel::new(acc)
            .with_fast_mapper()
            .with_shared_cache(self.cache.clone());
        let explorer = Explorer::new(&model)
            .with_threads(threads)
            .with_pruning(prune);
        let mut out = JobOutput::default();
        let mut hash = Fnv::new();
        let mut misses = 0;
        for (net, tiles) in nets.iter().zip(tiles) {
            // (index, evaluated?, value-or-bound bits): records stream in
            // completion order, the hash wants submission order.
            let mut slice: Vec<(usize, u8, u64)> = Vec::with_capacity(tiles.len() * 3);
            let mut best: Option<(f64, usize, defines_core::NetworkCost)> = None;
            let stats = {
                let _span = span!("bench.explore.sweep_streaming");
                explorer
                    .sweep_streaming(
                        net,
                        tiles,
                        &OverlapMode::ALL,
                        OptimizeTarget::Energy,
                        |record| match record.outcome {
                            Outcome::Evaluated { cost, value } => {
                                slice.push((record.index, 0, value.to_bits()));
                                let better = best.as_ref().is_none_or(|(v, i, _)| {
                                    value < *v || (value == *v && record.index < *i)
                                });
                                if better {
                                    best = Some((value, record.index, cost));
                                }
                            }
                            Outcome::Pruned { lower_bound } => {
                                slice.push((record.index, 1, lower_bound.to_bits()));
                            }
                            Outcome::Failed { .. } => slice.push((record.index, 2, 0)),
                        },
                    )
                    .map_err(|e| format!("sweep of {} failed: {e}", net.name()))?
            };
            slice.sort_unstable();
            hash_str(&mut hash, net.name());
            for (index, tag, bits) in slice {
                hash.write_u64(index as u64);
                hash.write_u64(u64::from(tag));
                hash.write_u64(bits);
            }
            let (value, _, cost) = best.ok_or("sweep evaluated no point")?;
            hash_f64(&mut hash, value);
            out.model.add(&cost, acc);
            out.attempted += stats.points as u64;
            out.failed += stats.failed as u64;
            out.points += stats.points as u64;
            misses += stats.cache.map_or(0, |c| c.misses);
        }
        out.result_fnv = hash.finish();
        if self.warm && prune && misses != 0 {
            out.check_failure = Some(format!(
                "sweep-warm ran {misses} mapping searches; the cache filled in set-up must answer all"
            ));
        }
        Ok(out)
    }
}

impl Workload for Sweep {
    fn e2e_threads(&self) -> usize {
        1
    }

    fn job(&mut self, threads: usize) -> Result<JobOutput, String> {
        if !self.warm {
            self.cache = MappingCache::new();
        }
        self.run(threads, true)
    }

    fn probe_inputs(&self) -> Result<ProbeInputs, String> {
        Ok(self.inputs.probe_inputs(FusePolicy::Auto, &self.cache))
    }
}

/// `fuse-search`: `Explorer::best_schedule` with `FusePolicy::search()` on a
/// fresh cache — thousands of small per-stack evaluations whose candidates
/// repeat identical (stack, tile, mode) triples.
pub struct FuseSearch {
    inputs: Inputs,
    /// The cache the most recent job filled (probe input only).
    cache: MappingCache,
}

impl FuseSearch {
    pub fn setup(seed: u64) -> Result<Self, String> {
        Ok(Self {
            inputs: Inputs::load(&FUSE_NETS, seed, FUSE_SEEDED_TILES)?,
            cache: MappingCache::new(),
        })
    }
}

impl Workload for FuseSearch {
    fn e2e_threads(&self) -> usize {
        1
    }

    fn job(&mut self, threads: usize) -> Result<JobOutput, String> {
        self.cache = MappingCache::new();
        let Inputs {
            acc, nets, tiles, ..
        } = &self.inputs;
        let model = DfCostModel::new(acc)
            .with_fast_mapper()
            .with_shared_cache(self.cache.clone());
        let explorer = Explorer::new(&model).with_threads(threads);
        let policy = FusePolicy::search();
        let mut out = JobOutput::default();
        let mut hash = Fnv::new();
        for (net, tiles) in nets.iter().zip(tiles) {
            let schedule = {
                let _span = span!("bench.explore.best_schedule");
                explorer
                    .best_schedule(
                        net,
                        tiles,
                        &OverlapMode::ALL,
                        OptimizeTarget::Energy,
                        &policy,
                    )
                    .map_err(|e| format!("schedule search of {} failed: {e}", net.name()))?
            };
            hash_str(&mut hash, net.name());
            hash.write_u64(schedule_fnv(&schedule));
            out.model.add(&schedule.cost, acc);
            out.attempted += schedule.stats.points as u64;
            out.failed += schedule.stats.failed as u64;
            out.points += schedule.stats.points as u64;
        }
        out.result_fnv = hash.finish();
        Ok(out)
    }

    fn probe_inputs(&self) -> Result<ProbeInputs, String> {
        Ok(self.inputs.probe_inputs(FusePolicy::search(), &self.cache))
    }
}

/// FNV over the deterministic part of a schedule: the chosen partition, each
/// stack's (tile, mode, value) and the totals. Run-relative statistics
/// (elapsed time, cache deltas) stay out.
pub fn schedule_fnv(schedule: &defines_core::ScheduleResult) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(schedule.candidates as u64);
    h.write_u64(schedule.choices.len() as u64);
    for choice in &schedule.choices {
        h.write_u64(choice.stack.layers.len() as u64);
        for layer in &choice.stack.layers {
            h.write_u64(layer.0 as u64);
        }
        hash_str(&mut h, &choice.tile.to_string());
        hash_str(&mut h, &choice.mode.to_string());
        hash_f64(&mut h, choice.value);
    }
    hash_f64(&mut h, schedule.cost.energy_pj);
    hash_f64(&mut h, schedule.cost.latency_cycles);
    h.write_u64(schedule.cost.macs);
    h.write_u64(u64::from(schedule.degraded));
    h.finish()
}

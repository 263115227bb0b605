//! Steps 1–2 of the depth-first cost model: identifying the distinct tile
//! types of a stack and back-calculating, for every tile and every layer, the
//! region that must be computed, the input data it needs, and how much of
//! that input comes from the horizontal / vertical overlap caches.
//!
//! [`StackGeometry::analyze_tile`] is the 2-D reference for one tile.
//! [`tile_types`] produces the same analyses for a whole tile grid one axis
//! at a time:
//!
//! * it back-calculates every column class and every row class once in
//!   1-D. A class's pass depends only on the axis, the tile extent along it
//!   and whether the mode caches along it, so the geometry keeps each
//!   axis's classes it has built: every point of a sweep and every
//!   candidate of a schedule search that share a stack's geometry share
//!   them, and each is built once per run;
//! * it composes the 2-D analysis of each distinct (column pass, row pass,
//!   first-tile) combination from the two with integer products.
//!
//! [`stack_macs`] counts the MACs of the composed types without composing
//! them: a layer's MACs are its per-pixel count times a column length times
//! a row length, so their sum over the grid factorizes per axis. The
//! exploration engine's bound reads only that count, so only the points it
//! evaluates are composed.

use crate::geometry::{project_to_input, Rect};
use crate::stack::Stack;
use crate::strategy::{OverlapMode, TileSize};
use crate::tiling::TileGrid;
use defines_engine::FxBuildHasher;
use defines_telemetry::span;
use defines_workload::{LayerDims, LayerId, Network};
use serde::Serialize;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Identifier of a feature map relative to a stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub(crate) enum FmId {
    /// The output feature map of a layer inside the stack.
    Internal(LayerId),
    /// A feature map entering the stack from outside: the output of an
    /// earlier layer (`Some`) or the network input (`None`).
    External(Option<LayerId>),
}

/// Static shape information of a feature map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub(crate) struct FmDims {
    /// Width in pixels.
    pub width: u64,
    /// Height in pixels.
    pub height: u64,
    /// Number of channels.
    pub channels: u64,
    /// Bytes per element.
    pub bytes_per_element: u64,
}

impl FmDims {
    /// Total size of the feature map in bytes.
    pub(crate) fn total_bytes(&self) -> u64 {
        self.width * self.height * self.channels * self.bytes_per_element
    }
}

/// Data volumes handled by one layer for one tile.
///
/// All quantities are in bytes except `to_compute_w/h` (pixels) and `macs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct LayerTileInfo {
    /// The layer.
    pub layer: LayerId,
    /// Width of the output region this layer must compute for the tile.
    pub to_compute_w: u64,
    /// Height of the output region this layer must compute for the tile.
    pub to_compute_h: u64,
    /// Total input bytes the layer reads for this tile (all sources).
    pub input_bytes: u64,
    /// Input bytes freshly produced by the previous layer of the same tile
    /// (or freshly fetched for the stack's first layer).
    pub fresh_input_bytes: u64,
    /// Portion of the fresh input that comes from outside the stack (the
    /// between-stack memory, typically DRAM).
    pub external_input_bytes: u64,
    /// Input bytes served by the horizontal overlap cache.
    pub cached_h_input_bytes: u64,
    /// Input bytes served by the vertical overlap cache.
    pub cached_v_input_bytes: u64,
    /// Output bytes produced (the to-compute region).
    pub output_bytes: u64,
    /// MAC operations needed for the to-compute region.
    pub macs: u64,
}

impl LayerTileInfo {
    /// The record of a layer that computes nothing for the tile.
    fn idle(layer: LayerId) -> Self {
        Self {
            layer,
            to_compute_w: 0,
            to_compute_h: 0,
            input_bytes: 0,
            fresh_input_bytes: 0,
            external_input_bytes: 0,
            cached_h_input_bytes: 0,
            cached_v_input_bytes: 0,
            output_bytes: 0,
            macs: 0,
        }
    }
}

/// The complete back-calculation result for one tile: one record per layer of
/// the stack (in topological order) plus stack-wide cache requirements.
///
/// Two tiles with equal `TileAnalysis` values are the same *tile type* (step 1
/// of the model) and need to be evaluated only once.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub struct TileAnalysis {
    /// Per-layer data volumes, in stack order.
    pub layers: Vec<LayerTileInfo>,
    /// Whether this is the first tile processed in the stack (its weights must
    /// come from DRAM).
    pub is_first_tile: bool,
    /// Bytes of horizontal-overlap cache the stack must keep live while this
    /// tile is processed.
    pub cache_h_bytes: u64,
    /// Bytes of vertical-overlap cache (line buffers) the stack must keep
    /// live.
    pub cache_v_bytes: u64,
}

impl TileAnalysis {
    /// Total MAC operations of the tile across all layers.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(|l| l.macs).sum()
    }
}

/// The distinct tile types of one stack under one (tile size, overlap mode):
/// each analysis with the number of tiles sharing it, in first-occurrence
/// order ([`tile_types`]).
pub(crate) type TileTypes = Vec<(TileAnalysis, u64)>;

/// Pre-computed structural information of a stack used to analyze its tiles.
///
/// All per-layer back-calculation invariants — resolved layer references,
/// every feature map's shape, each layer's input feature maps as dense
/// indices, and the facts the per-tile-type pricing re-uses (weights,
/// in-stack predecessors, the stack's weight footprint) — are derived once
/// here, so the per-tile analysis works on flat arrays instead of rebuilding
/// keyed maps for every tile type.
#[derive(Debug)]
pub struct StackGeometry<'a> {
    net: &'a Network,
    stack: &'a Stack,
    /// Every feature map touched by the stack with its shape, sorted by
    /// [`FmId`] (the iteration order all per-feature-map accumulations use).
    fms: Vec<(FmId, FmDims)>,
    /// Per stack layer (in stack order): the resolved layer, the dense index
    /// of its own output feature map, and the dense indices of its inputs.
    layers: Vec<StackLayer<'a>>,
    /// Number of input edges (one per (layer, input feature map) pair).
    edge_count: usize,
    /// The edges into feature maps read by more than one edge of the stack:
    /// the only ones whose per-axis liveness can disagree in a way that
    /// changes a producer's needed region (see [`tile_types`]).
    shared_edges: Vec<usize>,
    /// [`StackGeometry::max_halo`], computed once.
    halo: (u64, u64),
    /// Total weight bytes of the stack's layers.
    weight_bytes: u64,
    /// The axis classes built so far ([`StackGeometry::axis`]). Engine
    /// threads share the geometry, so a lock guards the list; it is held
    /// only for a lookup or an insert.
    axes: Mutex<Vec<(AxisKey, Arc<AxisClasses>)>>,
}

/// Per-layer invariants of a stack, resolved once at geometry construction.
#[derive(Debug)]
pub(crate) struct StackLayer<'a> {
    pub(crate) layer: &'a defines_workload::Layer,
    /// Whether the layer carries weights that must be placed.
    pub(crate) has_weights: bool,
    /// Stack positions of the layer's in-stack predecessors.
    pub(crate) pred_positions: Vec<usize>,
    /// Dense index (into [`StackGeometry::fms`]) of the layer's own output.
    own_fm: usize,
    /// Dense indices of the layer's input feature maps, in predecessor order.
    inputs: Vec<usize>,
    /// Index of the layer's first input edge; its inputs are the edges
    /// `first_edge..first_edge + inputs.len()`.
    first_edge: usize,
}

impl StackLayer<'_> {
    /// The layer's input edges with their feature-map indices.
    fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (self.first_edge..).zip(self.inputs.iter().copied())
    }
}

impl<'a> StackGeometry<'a> {
    /// The stack this geometry was built for.
    pub(crate) fn stack(&self) -> &'a Stack {
        self.stack
    }

    /// Builds the geometry helper for one stack of a network.
    pub fn new(net: &'a Network, stack: &'a Stack) -> Self {
        let mut inputs_of: BTreeMap<LayerId, Vec<FmId>> = BTreeMap::new();
        let mut fm_dims: BTreeMap<FmId, FmDims> = BTreeMap::new();
        for &lid in &stack.layers {
            let layer = net.layer(lid);
            let preds = net.predecessors(lid);
            let fms: Vec<FmId> = if preds.is_empty() {
                vec![FmId::External(None)]
            } else {
                preds
                    .iter()
                    .map(|&p| {
                        if stack.contains(p) {
                            FmId::Internal(p)
                        } else {
                            FmId::External(Some(p))
                        }
                    })
                    .collect()
            };
            for &fm in &fms {
                fm_dims.entry(fm).or_insert_with(|| match fm {
                    FmId::Internal(p) | FmId::External(Some(p)) => {
                        let pl = net.layer(p);
                        FmDims {
                            width: pl.dims.ox,
                            height: pl.dims.oy,
                            channels: pl.dims.k,
                            bytes_per_element: u64::from(pl.act_bits.div_ceil(8)),
                        }
                    }
                    FmId::External(None) => FmDims {
                        width: layer.dims.input_width(),
                        height: layer.dims.input_height(),
                        channels: layer.input_channels(),
                        bytes_per_element: u64::from(layer.act_bits.div_ceil(8)),
                    },
                });
            }
            inputs_of.insert(lid, fms);
            // The layer's own output feature map.
            fm_dims.entry(FmId::Internal(lid)).or_insert(FmDims {
                width: layer.dims.ox,
                height: layer.dims.oy,
                channels: layer.dims.k,
                bytes_per_element: u64::from(layer.act_bits.div_ceil(8)),
            });
        }
        // Flatten into dense, FmId-sorted arrays (BTreeMap iteration is
        // sorted, which fixes the accumulation order every tile analysis
        // inherits).
        let fms: Vec<(FmId, FmDims)> = fm_dims.into_iter().collect();
        let index = |fm: FmId| -> usize {
            fms.binary_search_by_key(&fm, |&(id, _)| id)
                .expect("every referenced feature map was collected")
        };
        let mut edges = 0;
        let layers: Vec<StackLayer<'a>> = stack
            .layers
            .iter()
            .map(|&lid| {
                let layer = net.layer(lid);
                let inputs: Vec<usize> = inputs_of[&lid].iter().map(|&fm| index(fm)).collect();
                let first_edge = edges;
                edges += inputs.len();
                StackLayer {
                    layer,
                    has_weights: layer.op.has_weights() && layer.weight_bytes() > 0,
                    pred_positions: net
                        .predecessors(lid)
                        .iter()
                        .filter_map(|p| stack.layers.iter().position(|s| s == p))
                        .collect(),
                    own_fm: index(FmId::Internal(lid)),
                    inputs,
                    first_edge,
                }
            })
            .collect();
        let mut readers = vec![0usize; fms.len()];
        for sl in &layers {
            for &fi in &sl.inputs {
                readers[fi] += 1;
            }
        }
        let shared_edges = layers
            .iter()
            .flat_map(StackLayer::edges)
            .filter(|&(_, fi)| readers[fi] > 1)
            .map(|(e, _)| e)
            .collect();
        let mut halo = (0u64, 0u64);
        for sl in layers.iter().rev() {
            let d = &sl.layer.dims;
            halo.0 = halo.0 * d.stride_x + (d.fx - 1) + d.pad_x;
            halo.1 = halo.1 * d.stride_y + (d.fy - 1) + d.pad_y;
        }
        Self {
            net,
            stack,
            fms,
            layers,
            edge_count: edges,
            shared_edges,
            halo,
            weight_bytes: stack.weight_bytes(net),
            axes: Mutex::new(Vec::new()),
        }
    }

    /// Per-layer invariants, in stack order.
    pub(crate) fn stack_layers(&self) -> &[StackLayer<'a>] {
        &self.layers
    }

    /// Total weight bytes of the stack's layers.
    pub(crate) fn weight_bytes(&self) -> u64 {
        self.weight_bytes
    }

    /// The shape of a feature map.
    pub(crate) fn fm_dims(&self, fm: FmId) -> FmDims {
        self.fms[self
            .fms
            .binary_search_by_key(&fm, |&(id, _)| id)
            .expect("unknown feature map")]
        .1
    }

    /// The external feature maps feeding the stack.
    pub(crate) fn external_inputs(&self) -> Vec<FmId> {
        self.fms
            .iter()
            .map(|&(id, _)| id)
            .filter(|fm| matches!(fm, FmId::External(_)))
            .collect()
    }

    /// The cumulative halo of the stack: how far (in pixels of the earliest
    /// feature map) the needed region of a tile extends beyond the tile's own
    /// footprint. Used to bound how many tile columns / rows near a feature-map
    /// edge can behave differently from interior tiles.
    #[cfg(test)]
    pub(crate) fn max_halo(&self) -> (u64, u64) {
        self.halo
    }

    /// Analyzes one tile of the stack under the given overlap-storing mode.
    ///
    /// This is step 2 of the model for one tile, in 2-D: the to-compute region
    /// of every layer is back-calculated from the tile, trimmed by the data
    /// that the left neighbour (H-cached modes) and the row above
    /// (fully-cached mode) have already produced, and the sizes of fresh /
    /// cached input data are accounted. It is the reference [`tile_types`] is
    /// tested against, and that function's fallback for the tile types it
    /// cannot compose per axis.
    pub fn analyze_tile(
        &self,
        mode: OverlapMode,
        grid: &TileGrid,
        col: u64,
        row: u64,
    ) -> TileAnalysis {
        let n_fms = self.fms.len();
        let tile_rect = grid.tile_rect(col, row);
        // The last column of every feature map the left neighbour needed, and
        // the last row the tile above needed: the data a caching mode kept.
        let edges = |axis: Axis, tile_end: i64| {
            let mut edges = Vec::new();
            self.axis_edges(axis, tile_end, &mut edges);
            edges
        };
        let left_edges = (mode.caches_horizontal() && col > 0)
            .then(|| edges(Axis::X, grid.tile_rect(col - 1, row).x1));
        let above_edges = (mode.caches_vertical() && row > 0)
            .then(|| edges(Axis::Y, grid.tile_rect(col, row - 1).y1));

        // Needed region of every feature map (union over consumers) and its
        // "core" (stride-only) size used for cache-capacity estimation, as
        // dense per-feature-map slots.
        let mut needed: Vec<Option<Rect>> = vec![None; n_fms];
        let mut core: Vec<Option<(u64, u64)>> = vec![None; n_fms];
        let sink_pos = self.layers.len() - 1;
        let mut records_rev: Vec<LayerTileInfo> = Vec::with_capacity(self.stack.len());

        for (pos, sl) in self.layers.iter().enumerate().rev() {
            let layer = sl.layer;
            let lid = self.stack.layers[pos];
            let mut tc = if pos == sink_pos {
                tile_rect
            } else {
                needed[sl.own_fm].unwrap_or_else(Rect::empty)
            };
            let mut tc_core = if pos == sink_pos {
                (tile_rect.width(), tile_rect.height())
            } else {
                core[sl.own_fm].unwrap_or((0, 0))
            };
            // Trim the to-compute region by what neighbouring tiles already
            // produced (and cached) of this layer's output feature map.
            if let Some(x1) = left_edges.as_ref().and_then(|e| e[sl.own_fm]) {
                tc = tc.trim_left_through(x1);
            }
            if let Some(y1) = above_edges.as_ref().and_then(|e| e[sl.own_fm]) {
                tc = tc.trim_top_through(y1);
            }
            if tc.is_empty() {
                records_rev.push(LayerTileInfo::idle(lid));
                continue;
            }
            tc_core = (tc_core.0.min(tc.width()), tc_core.1.min(tc.height()));

            let d = &layer.dims;
            let mut input_bytes = 0u64;
            let mut fresh = 0u64;
            let mut external = 0u64;
            let mut cached_h = 0u64;
            let mut cached_v = 0u64;

            for &fi in &sl.inputs {
                let (fm, fd) = self.fms[fi];
                let in_rect = project_to_input(
                    &tc,
                    (d.stride_x, d.stride_y),
                    (d.fx, d.fy),
                    (d.pad_x, d.pad_y),
                )
                .clamp_to(fd.width, fd.height);
                if in_rect.is_empty() {
                    continue;
                }
                // Accumulate the needed region of the producer (union of the
                // outermost edges across branches, Fig. 8).
                needed[fi] = Some(match needed[fi] {
                    Some(r) => r.union_bbox(&in_rect),
                    None => in_rect,
                });
                let in_core = (
                    (tc_core.0 * d.stride_x).min(fd.width),
                    (tc_core.1 * d.stride_y).min(fd.height),
                );
                core[fi] = Some(match core[fi] {
                    Some(c) => (c.0.max(in_core.0), c.1.max(in_core.1)),
                    None => in_core,
                });

                let per_pixel = fd.channels * fd.bytes_per_element;
                let area = in_rect.area();
                // Split the needed input into vertically cached rows, then
                // horizontally cached columns, then fresh data.
                let va = left_above_split(&in_rect, above_edges.as_ref().and_then(|e| e[fi]));
                let ha =
                    left_above_split_h(&in_rect, left_edges.as_ref().and_then(|e| e[fi]), va.0);
                let v_area = va.1;
                let h_area = ha;
                let fresh_area = area - v_area - h_area;
                input_bytes += area * per_pixel;
                cached_v += v_area * per_pixel;
                cached_h += h_area * per_pixel;
                fresh += fresh_area * per_pixel;
                if matches!(fm, FmId::External(_)) {
                    external += fresh_area * per_pixel;
                }
            }

            let output_bytes = tc.area() * d.k * u64::from(layer.act_bits.div_ceil(8));
            let macs = layer.macs_for_output_region(tc.width(), tc.height());
            records_rev.push(LayerTileInfo {
                layer: lid,
                to_compute_w: tc.width(),
                to_compute_h: tc.height(),
                input_bytes,
                fresh_input_bytes: fresh,
                external_input_bytes: external,
                cached_h_input_bytes: cached_h,
                cached_v_input_bytes: cached_v,
                output_bytes,
                macs,
            });
        }

        records_rev.reverse();

        // Stack-wide cache capacity requirements (Fig. 7): the horizontal
        // cache keeps the kernel-growth halo of every consumed feature map for
        // the tiles of the current row; the vertical cache keeps full-width
        // line buffers of the vertical halo. `fms` is FmId-sorted, preserving
        // the accumulation order of the map-based implementation.
        let mut cache_h_bytes = 0u64;
        let mut cache_v_bytes = 0u64;
        for (fi, &(_, fd)) in self.fms.iter().enumerate() {
            let Some(rect) = needed[fi] else { continue };
            let (cw, ch) = core[fi].unwrap_or((rect.width(), rect.height()));
            let per_pixel = fd.channels * fd.bytes_per_element;
            if mode.caches_horizontal() {
                let halo_w = rect.width().saturating_sub(cw);
                cache_h_bytes += halo_w * rect.height() * per_pixel;
            }
            if mode.caches_vertical() {
                let halo_h = rect.height().saturating_sub(ch);
                cache_v_bytes += halo_h * fd.width * per_pixel;
            }
        }

        TileAnalysis {
            layers: records_rev,
            is_first_tile: col == 0 && row == 0,
            cache_h_bytes,
            cache_v_bytes,
        }
    }

    /// The last index, along `axis`, of every feature map's region needed to
    /// produce the output tile ending at `tile_end` there, into `edges`. The
    /// edges are independent of the overlap-storing mode (caching only trims
    /// regions on the left / top), which is what makes per-tile analysis
    /// independent of the processing history.
    fn axis_edges(&self, axis: Axis, tile_end: i64, edges: &mut Vec<Option<i64>>) {
        edges.clear();
        edges.resize(self.fms.len(), None);
        let sink_pos = self.layers.len() - 1;
        for (pos, sl) in self.layers.iter().enumerate().rev() {
            let end = if pos == sink_pos {
                tile_end
            } else {
                match edges[sl.own_fm] {
                    Some(e) => e,
                    None => continue,
                }
            };
            let (s, f, p) = axis.window(&sl.layer.dims);
            for &fi in &sl.inputs {
                let e = (end * s - p + f - 1).min(axis.extent(&self.fms[fi].1) - 1);
                edges[fi] = Some(edges[fi].map_or(e, |old| old.max(e)));
            }
        }
    }

    /// [`StackGeometry::analyze_tile`] along one axis for the tile spanning
    /// `tile` there, written into `out` (zeroed, laid out as
    /// [`PassShape`] says). `prev_end` is the last index of the previous tile
    /// on this axis when the mode caches its overlap (its data is trimmed
    /// away).
    fn axis_pass(
        &self,
        axis: Axis,
        tile: (i64, i64),
        prev_end: Option<i64>,
        scratch: &mut PassScratch,
        out: &mut [u64],
    ) {
        let PassScratch { prev, needed } = scratch;
        prev.clear();
        if let Some(end) = prev_end {
            self.axis_edges(axis, end, prev);
        }
        let cached_end = |fi: usize| prev.get(fi).copied().flatten();
        needed.clear();
        needed.resize(self.fms.len(), None);
        let (layers, rest) = out.split_at_mut(self.layers.len());
        let (edges, fms) = rest.split_at_mut(2 * self.edge_count);
        let (edges, fms) = (edges.as_chunks_mut::<2>().0, fms.as_chunks_mut::<2>().0);
        let sink_pos = self.layers.len() - 1;
        for (pos, sl) in self.layers.iter().enumerate().rev() {
            // A feature map's core extent accumulates in its slot while its
            // readers are visited.
            let (mut tc, tc_core) = if pos == sink_pos {
                (Some(tile), span_len(Some(tile)))
            } else {
                (needed[sl.own_fm], fms[sl.own_fm][1])
            };
            if let Some(end) = cached_end(sl.own_fm) {
                tc = tc.and_then(|(lo, hi)| nonempty(lo.max(end + 1), hi));
            }
            let Some((lo, hi)) = tc else { continue };
            layers[pos] = span_len(tc);
            let tc_core = tc_core.min(span_len(tc));
            let (s, f, p) = axis.window(&sl.layer.dims);
            for (e, fi) in sl.edges() {
                let n = axis.extent(&self.fms[fi].1);
                let Some((ilo, ihi)) =
                    nonempty((lo * s - p).max(0), (hi * s - p + f - 1).min(n - 1))
                else {
                    continue;
                };
                needed[fi] = Some(match needed[fi] {
                    Some((a, b)) => (a.min(ilo), b.max(ihi)),
                    None => (ilo, ihi),
                });
                fms[fi][1] = fms[fi][1].max((tc_core * s as u64).min(n as u64));
                let cached = cached_end(fi).map_or(0, |end| (end.min(ihi) - ilo + 1).max(0) as u64);
                edges[e] = [(ihi - ilo + 1) as u64, cached];
            }
        }
        for (slot, &interval) in fms.iter_mut().zip(needed.iter()) {
            slot[0] = span_len(interval);
        }
    }

    /// The layout of this stack's passes.
    fn pass_shape(&self) -> PassShape {
        PassShape {
            layers: self.layers.len(),
            edges: self.edge_count,
            fms: self.fms.len(),
        }
    }

    /// The signature classes of one axis of the grid laid over the stack's
    /// output, with tiles `size` long on it, and their passes when the mode
    /// caches along that axis (`cached`) or not. Signatures are clamped at
    /// the stack's halo in tiles plus two, so a tile whose regions can reach
    /// a feature-map edge never shares a class with an interior one.
    fn axis_classes(&self, axis: Axis, size: u64, cached: bool) -> AxisClasses {
        let sink = &self.net.layer(self.stack.last_layer()).dims;
        let (extent, halo) = match axis {
            Axis::X => (sink.ox, self.halo.0),
            Axis::Y => (sink.oy, self.halo.1),
        };
        let span = |i: u64| {
            let start = i * size;
            (start as i64, (start + size - 1).min(extent - 1) as i64)
        };
        let (tiles, clamp) = (extent.div_ceil(size), halo / size + 2);
        let shape = self.pass_shape();
        let len = shape.len();
        let mut passes: Vec<u64> = Vec::new();
        let mut extent_sums = vec![0; self.layers.len()];
        let mut scratch = PassScratch::default();
        let class_pass = signature_classes(tiles, clamp)
            .map(|(first, count)| {
                let prev_end = (cached && first > 0).then(|| span(first - 1).1);
                let start = passes.len();
                passes.resize(start + len, 0);
                self.axis_pass(
                    axis,
                    span(first),
                    prev_end,
                    &mut scratch,
                    &mut passes[start..],
                );
                let (built, new) = passes.split_at(start);
                let id = match built.chunks_exact(len).position(|pass| pass == new) {
                    Some(id) => {
                        passes.truncate(start);
                        id
                    }
                    None => start / len,
                };
                // A pass starts with its per-layer extents.
                for (sum, &extent) in extent_sums.iter_mut().zip(&passes[id * len..]) {
                    *sum += count * extent;
                }
                u32::try_from(id).expect("fewer passes than u32::MAX")
            })
            .collect();
        passes.shrink_to_fit();
        AxisClasses {
            tiles,
            clamp,
            class_pass,
            extent_sums,
            passes,
            shape,
        }
    }

    /// [`StackGeometry::axis_classes`] through the geometry's memo, keyed by
    /// everything that function reads besides the geometry.
    fn axis(&self, axis: Axis, size: u64, cached: bool) -> Arc<AxisClasses> {
        let key = (axis, size, cached);
        let lookup = |memo: &[(AxisKey, Arc<AxisClasses>)]| {
            memo.iter()
                .find(|(k, _)| *k == key)
                .map(|(_, classes)| Arc::clone(classes))
        };
        if let Some(classes) = lookup(&self.axes()) {
            return classes;
        }
        // Built outside the lock. An entry is a pure function of its key,
        // so a thread racing on the same key builds an equal value; the
        // first one inserted is kept.
        let built = Arc::new(self.axis_classes(axis, size, cached));
        let mut memo = self.axes();
        lookup(&memo).unwrap_or_else(|| {
            memo.push((key, Arc::clone(&built)));
            built
        })
    }

    /// The memo of built axis classes, locked. Every update is one push of
    /// a complete entry, so a lock poisoned by a panicking thread still
    /// guards a valid list.
    fn axes(&self) -> MutexGuard<'_, Vec<(AxisKey, Arc<AxisClasses>)>> {
        self.axes.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether the tile with column pass `x` and row pass `y` composes
    /// exactly: a feature map read by several edges needs the bounding box
    /// of the regions of the edges live in 2-D, which factorizes per axis
    /// only if each such edge is live on both axes or on neither.
    fn composes(&self, x: AxisPass<'_>, y: AxisPass<'_>) -> bool {
        self.shared_edges
            .iter()
            .all(|&e| (x.edges[e][0] > 0) == (y.edges[e][0] > 0))
    }

    /// Whether every (column pass, row pass) pair of `cols` × `rows`
    /// composes ([`StackGeometry::composes`]).
    fn all_compose(&self, cols: &AxisClasses, rows: &AxisClasses) -> bool {
        self.shared_edges.is_empty()
            || cols
                .passes()
                .all(|x| rows.passes().all(|y| self.composes(x, y)))
    }

    /// The 2-D analysis of a tile from its column and row passes: every area
    /// is a product of a column length and a row length.
    fn compose(
        &self,
        x: AxisPass<'_>,
        y: AxisPass<'_>,
        mode: OverlapMode,
        is_first_tile: bool,
    ) -> TileAnalysis {
        let layers = self
            .layers
            .iter()
            .zip(&self.stack.layers)
            .enumerate()
            .map(|(pos, (sl, &lid))| {
                let (w, h) = (x.layers[pos], y.layers[pos]);
                if w == 0 || h == 0 {
                    return LayerTileInfo::idle(lid);
                }
                let mut info = LayerTileInfo::idle(lid);
                for (e, fi) in sl.edges() {
                    let ([in_w, cached_cols], [in_h, cached_rows]) = (x.edges[e], y.edges[e]);
                    if in_w == 0 || in_h == 0 {
                        continue;
                    }
                    let (fm, fd) = self.fms[fi];
                    let per_pixel = fd.channels * fd.bytes_per_element;
                    // The split of `analyze_tile`: vertically cached rows
                    // first, then horizontally cached columns, then fresh.
                    let area = in_w * in_h;
                    let v_area = cached_rows * in_w;
                    let h_area = cached_cols * (in_h - cached_rows);
                    let fresh_area = area - v_area - h_area;
                    info.input_bytes += area * per_pixel;
                    info.cached_v_input_bytes += v_area * per_pixel;
                    info.cached_h_input_bytes += h_area * per_pixel;
                    info.fresh_input_bytes += fresh_area * per_pixel;
                    if matches!(fm, FmId::External(_)) {
                        info.external_input_bytes += fresh_area * per_pixel;
                    }
                }
                let layer = sl.layer;
                info.to_compute_w = w;
                info.to_compute_h = h;
                info.output_bytes = w * h * layer.dims.k * u64::from(layer.act_bits.div_ceil(8));
                info.macs = layer.macs_for_output_region(w, h);
                info
            })
            .collect();

        let mut cache_h_bytes = 0u64;
        let mut cache_v_bytes = 0u64;
        for (fi, &(_, fd)) in self.fms.iter().enumerate() {
            let ([needed_w, core_w], [needed_h, core_h]) = (x.fms[fi], y.fms[fi]);
            if needed_w == 0 || needed_h == 0 {
                continue;
            }
            let per_pixel = fd.channels * fd.bytes_per_element;
            if mode.caches_horizontal() {
                cache_h_bytes += needed_w.saturating_sub(core_w) * needed_h * per_pixel;
            }
            if mode.caches_vertical() {
                cache_v_bytes += needed_h.saturating_sub(core_h) * fd.width * per_pixel;
            }
        }

        TileAnalysis {
            layers,
            is_first_tile,
            cache_h_bytes,
            cache_v_bytes,
        }
    }
}

/// Steps 1–2 of the cost model for one stack: the distinct tile types of the
/// grid `tile` lays over the stack's output, each with its tile count.
///
/// This is the one step 1–2 function of the evaluation paths that take a
/// stack and a (tile, mode) pair. Each axis's classes come from (or are
/// added to) the geometry's memo.
///
/// Tiles are grouped by a conservative geometric signature (distance to the
/// feature-map edges in tile units, clamped at the stack's halo), which
/// factorizes per axis. The 2-D analysis of a group is composed from its
/// column and row passes, once per distinct (column pass, row pass,
/// first-tile) combination. A group whose passes do not compose exactly — an
/// edge into a feature map with several readers is live on one axis and
/// dead on the other, so the readers' bounding box does not factorize —
/// falls back to [`StackGeometry::analyze_tile`] on its representative tile.
/// Groups are visited in signature order and equal analyses merged into
/// their first occurrence, so the list — values, counts and order — is what
/// analyzing one representative tile per group and deduplicating would give.
pub fn tile_types(geometry: &StackGeometry<'_>, tile: TileSize, mode: OverlapMode) -> TileTypes {
    let _span = span!("backcalc.tile_types");
    merge_equal(grouped_types(geometry, &stack_axes(geometry, tile, mode)))
}

/// The column and row classes of the grid `tile` lays over the stack's
/// output, with their 1-D passes under `mode`, from (or added to) the
/// geometry's memo.
fn stack_axes(geometry: &StackGeometry<'_>, tile: TileSize, mode: OverlapMode) -> StackAxes {
    let sink = &geometry.net.layer(geometry.stack.last_layer()).dims;
    let grid = TileGrid::new(sink.ox, sink.oy, tile);
    let (tx, ty) = grid.tile_size();
    StackAxes {
        grid,
        mode,
        cols: geometry.axis(Axis::X, tx, mode.caches_horizontal()),
        rows: geometry.axis(Axis::Y, ty, mode.caches_vertical()),
    }
}

/// The MACs of a stack's tile types, `Σ analysis.total_macs() × count` over
/// [`tile_types`], without composing them.
///
/// A layer of a composed type computes a `w × h` region, `w` from the
/// column pass and `h` from the row pass, and its MACs are
/// [`Layer::macs_per_output_pixel`](defines_workload::Layer::macs_per_output_pixel)
/// times `w·h` exactly. Summed over every (column class, row class) pair
/// with its `count_x · count_y` tiles, a layer's MACs are therefore its
/// per-pixel count times `Σ count_x·w` times `Σ count_y·h`, each axis's sum
/// kept with its classes. Merging equal types moves no MAC, so the identity
/// is exact in integers. A stack with a pair that does not compose sums its
/// types instead. The axis classes are looked up in the geometry's memo as
/// [`tile_types`] looks them up.
pub fn stack_macs(geometry: &StackGeometry<'_>, tile: TileSize, mode: OverlapMode) -> u64 {
    let axes = stack_axes(geometry, tile, mode);
    if !geometry.all_compose(&axes.cols, &axes.rows) {
        return grouped_types(geometry, &axes)
            .iter()
            .map(|(analysis, count)| analysis.total_macs() * count)
            .sum();
    }
    geometry
        .layers
        .iter()
        .zip(axes.cols.extent_sums.iter().zip(&axes.rows.extent_sums))
        .map(|(sl, (&w, &h))| sl.layer.macs_per_output_pixel() * w * h)
        .sum()
}

/// [`tile_types`] before equal analyses are merged: one entry per
/// distinct composed (column pass, row pass, first-tile) key and per
/// fallback group, in signature order.
fn grouped_types(geometry: &StackGeometry<'_>, axes: &StackAxes) -> TileTypes {
    let StackAxes {
        grid,
        mode,
        cols,
        rows,
    } = axes;
    // Type index of each composed (column pass, row pass, first-tile) key.
    let row_passes = rows.pass_count();
    let mut composed: Vec<Option<usize>> = vec![None; cols.pass_count() * row_passes * 2];
    let mut types: TileTypes = Vec::new();
    for (col, col_count, xp) in cols.classes() {
        let x = cols.pass(xp);
        for (row, row_count, yp) in rows.classes() {
            let count = col_count * row_count;
            // `(0, 0)` is the only tile whose classes both start at zero, so
            // the first-tile marker never splits a group.
            let first = col == 0 && row == 0;
            let y = rows.pass(yp);
            if !geometry.composes(x, y) {
                types.push((geometry.analyze_tile(*mode, grid, col, row), count));
                continue;
            }
            let key = (xp * row_passes + yp) * 2 + usize::from(first);
            match composed[key] {
                Some(i) => types[i].1 += count,
                None => {
                    composed[key] = Some(types.len());
                    types.push((geometry.compose(x, y, *mode, first), count));
                }
            }
        }
    }
    types
}

/// One axis of the tile grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Axis {
    X,
    Y,
}

impl Axis {
    /// A layer's (stride, kernel, padding) along the axis.
    fn window(self, d: &LayerDims) -> (i64, i64, i64) {
        let (s, f, p) = match self {
            Axis::X => (d.stride_x, d.fx, d.pad_x),
            Axis::Y => (d.stride_y, d.fy, d.pad_y),
        };
        (s as i64, f as i64, p as i64)
    }

    /// A feature map's extent along the axis.
    fn extent(self, fd: &FmDims) -> i64 {
        match self {
            Axis::X => fd.width as i64,
            Axis::Y => fd.height as i64,
        }
    }
}

/// What identifies a [`StackGeometry`]'s axis classes: the axis, the
/// (clamped) tile extent along it, and whether the mode caches its overlap
/// along it.
type AxisKey = (Axis, u64, bool);

/// The word layout of one [`AxisPass`] in [`AxisClasses::passes`]: one word
/// per stack layer, then two per input edge, then two per feature map.
#[derive(Debug, Clone, Copy)]
struct PassShape {
    layers: usize,
    edges: usize,
    fms: usize,
}

impl PassShape {
    /// Words per pass.
    fn len(self) -> usize {
        self.layers + 2 * self.edges + 2 * self.fms
    }

    /// The pass stored in `words`.
    fn view(self, words: &[u64]) -> AxisPass<'_> {
        let (layers, rest) = words.split_at(self.layers);
        let (edges, fms) = rest.split_at(2 * self.edges);
        AxisPass {
            layers,
            edges: edges.as_chunks::<2>().0,
            fms: fms.as_chunks::<2>().0,
        }
    }
}

/// One tile back-calculated along one axis: the length every region of
/// [`StackGeometry::analyze_tile`] has along it, `0` meaning empty.
#[derive(Debug, Clone, Copy)]
struct AxisPass<'p> {
    /// Per stack layer: the region it computes.
    layers: &'p [u64],
    /// Per input edge: the region it reads, and the part of that region the
    /// overlap cache of the previous tile on this axis serves.
    edges: &'p [[u64; 2]],
    /// Per feature map: its needed region and that region's core
    /// (stride-only) part, for the cache capacities.
    fms: &'p [[u64; 2]],
}

/// The buffers [`StackGeometry::axis_pass`] reuses across the classes of
/// one axis.
#[derive(Debug, Default)]
struct PassScratch {
    /// The previous tile's edges ([`StackGeometry::axis_edges`]), empty when
    /// the mode does not cache along the axis.
    prev: Vec<Option<i64>>,
    /// Per feature map: the interval the tile needs of it.
    needed: Vec<Option<(i64, i64)>>,
}

/// The signature classes of one axis and their distinct passes.
#[derive(Debug)]
struct AxisClasses {
    /// Tiles on the axis and the signature clamp, which fix the classes
    /// ([`signature_classes`]).
    tiles: u64,
    clamp: u64,
    /// Per class, in signature order: the index of its pass.
    class_pass: Vec<u32>,
    /// Per stack layer: the sum over the classes of tile count × the
    /// layer's extent, the axis's factor of its MACs ([`stack_macs`]).
    extent_sums: Vec<u64>,
    /// Every distinct pass, `shape.len()` words each, in first-use order.
    passes: Vec<u64>,
    shape: PassShape,
}

impl AxisClasses {
    /// Per class, in signature order: (first tile, tile count, pass index).
    fn classes(&self) -> impl Iterator<Item = (u64, u64, usize)> + '_ {
        signature_classes(self.tiles, self.clamp)
            .zip(&self.class_pass)
            .map(|((first, count), &pass)| (first, count, pass as usize))
    }

    /// The number of distinct passes.
    fn pass_count(&self) -> usize {
        self.passes.len() / self.shape.len()
    }

    /// The pass with index `id`.
    fn pass(&self, id: usize) -> AxisPass<'_> {
        let len = self.shape.len();
        self.shape.view(&self.passes[id * len..(id + 1) * len])
    }

    /// Every distinct pass, in index order.
    fn passes(&self) -> impl Iterator<Item = AxisPass<'_>> + '_ {
        self.passes
            .chunks_exact(self.shape.len())
            .map(|words| self.shape.view(words))
    }
}

/// Steps 1–2 of one stack under one (tile size, overlap mode), one axis at
/// a time ([`stack_axes`]): the column and the row classes, shared with the
/// geometry's memo. [`tile_types`] composes the tile types from them and
/// [`stack_macs`] counts their MACs without composing.
#[derive(Debug)]
struct StackAxes {
    grid: TileGrid,
    mode: OverlapMode,
    cols: Arc<AxisClasses>,
    rows: Arc<AxisClasses>,
}

/// The tiles of one axis grouped by signature — (tiles to the near edge,
/// tiles to the far edge), each clamped at `clamp` — in signature order, as
/// (first tile, tile count) per class. Tiles closer than `clamp` to an edge
/// have a signature of their own; the rest share `(clamp, clamp)`, which
/// sorts last.
fn signature_classes(tiles: u64, clamp: u64) -> impl Iterator<Item = (u64, u64)> {
    let near = tiles.min(clamp);
    let far = tiles.saturating_sub(clamp).max(near);
    (0..near)
        .map(|i| (i, 1))
        // Signature (clamp, tiles - 1 - i): ascending with descending `i`.
        .chain((far..tiles).rev().map(|i| (i, 1)))
        .chain((far > near).then_some((near, far - near)))
}

/// Merges entries with equal analyses into the first one, summing their
/// counts. Distinct passes can compose to equal analyses: a layer idle on
/// one axis hides its values on the other.
fn merge_equal(mut types: TileTypes) -> TileTypes {
    let owner: Vec<usize> = {
        let mut first_of: HashMap<&TileAnalysis, usize, FxBuildHasher> =
            HashMap::with_capacity_and_hasher(types.len(), FxBuildHasher::default());
        types
            .iter()
            .enumerate()
            .map(|(i, (analysis, _))| *first_of.entry(analysis).or_insert(i))
            .collect()
    };
    if owner.iter().enumerate().all(|(i, &o)| i == o) {
        return types;
    }
    for (i, &o) in owner.iter().enumerate() {
        if o != i {
            let count = types[i].1;
            types[o].1 += count;
        }
    }
    let mut i = 0;
    types.retain(|_| {
        i += 1;
        owner[i - 1] == i - 1
    });
    types
}

/// The inclusive interval `lo..=hi`, `None` when empty.
fn nonempty(lo: i64, hi: i64) -> Option<(i64, i64)> {
    (lo <= hi).then_some((lo, hi))
}

/// Length of an inclusive interval (0 when empty).
fn span_len(interval: Option<(i64, i64)>) -> u64 {
    interval.map_or(0, |(lo, hi)| (hi - lo + 1) as u64)
}

/// Returns `(v_rows, v_area)`: the number of rows of `rect` at or above the
/// vertically-cached edge `y1` and their area.
fn left_above_split(rect: &Rect, cached_y1: Option<i64>) -> (u64, u64) {
    match cached_y1 {
        None => (0, 0),
        Some(y1) => {
            let rows = (y1.min(rect.y1) - rect.y0 + 1).max(0) as u64;
            (rows, rows * rect.width())
        }
    }
}

/// Area of the horizontally-cached part of `rect`: columns at or left of the
/// cached edge `x1`, excluding the `v_rows` rows already counted as vertically
/// cached.
fn left_above_split_h(rect: &Rect, cached_x1: Option<i64>, v_rows: u64) -> u64 {
    match cached_x1 {
        None => 0,
        Some(x1) => {
            let cols = (x1.min(rect.x1) - rect.x0 + 1).max(0) as u64;
            cols * (rect.height() - v_rows)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use defines_workload::{models, Layer, LayerDims, OpType};

    fn three_layer_net() -> Network {
        // The workload of Fig. 2(a): three 3x3 convolutions, output 4x4.
        let mut net = Network::new("fig2");
        let l1 = net
            .add_layer(
                Layer::new("l1", OpType::Conv, LayerDims::conv(3, 1, 8, 8, 3, 3)),
                &[],
            )
            .unwrap();
        let l2 = net
            .add_layer(
                Layer::new("l2", OpType::Conv, LayerDims::conv(6, 3, 6, 6, 3, 3)),
                &[l1],
            )
            .unwrap();
        let _l3 = net
            .add_layer(
                Layer::new("l3", OpType::Conv, LayerDims::conv(9, 6, 4, 4, 3, 3)),
                &[l2],
            )
            .unwrap();
        net
    }

    fn full_stack(net: &Network) -> Stack {
        Stack::new(net.layer_ids().collect())
    }

    #[test]
    fn lbl_tile_computes_full_layers() {
        let net = three_layer_net();
        let stack = full_stack(&net);
        let geo = StackGeometry::new(&net, &stack);
        let grid = TileGrid::new(4, 4, TileSize::full());
        let a = geo.analyze_tile(OverlapMode::FullyRecompute, &grid, 0, 0);
        assert!(a.is_first_tile);
        assert_eq!(a.layers.len(), 3);
        // Every layer computes its complete output feature map.
        assert_eq!((a.layers[0].to_compute_w, a.layers[0].to_compute_h), (8, 8));
        assert_eq!((a.layers[1].to_compute_w, a.layers[1].to_compute_h), (6, 6));
        assert_eq!((a.layers[2].to_compute_w, a.layers[2].to_compute_h), (4, 4));
        // No caches are involved for a single tile.
        assert_eq!(a.layers[0].cached_h_input_bytes, 0);
        assert_eq!(a.cache_v_bytes, 0);
        // The first layer's input is external (the 10x10 network input).
        assert_eq!(
            a.layers[0].external_input_bytes,
            a.layers[0].fresh_input_bytes
        );
        assert_eq!(a.layers[0].input_bytes, 10 * 10);
    }

    #[test]
    fn recompute_grows_tiles_backwards() {
        // Fig. 2(c): a 2x2 output tile needs 4x4 of layer-2 output and 6x6 of
        // layer-1 output when recomputing overlaps.
        let net = three_layer_net();
        let stack = full_stack(&net);
        let geo = StackGeometry::new(&net, &stack);
        let grid = TileGrid::new(4, 4, TileSize::new(2, 2));
        let a = geo.analyze_tile(OverlapMode::FullyRecompute, &grid, 0, 0);
        assert_eq!((a.layers[2].to_compute_w, a.layers[2].to_compute_h), (2, 2));
        assert_eq!((a.layers[1].to_compute_w, a.layers[1].to_compute_h), (4, 4));
        assert_eq!((a.layers[0].to_compute_w, a.layers[0].to_compute_h), (6, 6));
    }

    #[test]
    fn fully_cached_regime_tile_computes_only_new_data() {
        // Fig. 3(c): in fully-cached mode a regime tile (not in the first row
        // or column) computes a region of the tile's own size in every layer.
        let net = three_layer_net();
        let stack = full_stack(&net);
        let geo = StackGeometry::new(&net, &stack);
        let grid = TileGrid::new(4, 4, TileSize::new(2, 2));
        let a = geo.analyze_tile(OverlapMode::FullyCached, &grid, 1, 1);
        for rec in &a.layers {
            assert_eq!((rec.to_compute_w, rec.to_compute_h), (2, 2), "{rec:?}");
        }
        assert!(!a.is_first_tile);
        // It reads from both caches.
        assert!(a.layers[0].cached_h_input_bytes > 0);
        assert!(a.layers[0].cached_v_input_bytes > 0);
    }

    #[test]
    fn h_cached_regime_tile_recomputes_vertically() {
        let net = three_layer_net();
        let stack = full_stack(&net);
        let geo = StackGeometry::new(&net, &stack);
        let grid = TileGrid::new(4, 4, TileSize::new(2, 2));
        // Second tile of the first row: horizontal cache available, nothing
        // vertical to reuse.
        let a = geo.analyze_tile(OverlapMode::HCachedVRecompute, &grid, 1, 0);
        // Width stays at the tile width, height grows backwards.
        assert_eq!((a.layers[2].to_compute_w, a.layers[2].to_compute_h), (2, 2));
        assert_eq!((a.layers[1].to_compute_w, a.layers[1].to_compute_h), (2, 4));
        assert_eq!((a.layers[0].to_compute_w, a.layers[0].to_compute_h), (2, 6));
        assert!(a.layers[0].cached_h_input_bytes > 0);
        assert_eq!(a.layers[0].cached_v_input_bytes, 0);
    }

    #[test]
    fn mac_count_ordering_between_modes() {
        // Recompute performs at least as many MACs as H-cached, which performs
        // at least as many as fully-cached (Fig. 13).
        let net = models::fsrcnn();
        let stack = full_stack(&net);
        let geo = StackGeometry::new(&net, &stack);
        let grid = TileGrid::new(960, 540, TileSize::new(60, 72));
        let mut totals = Vec::new();
        for mode in OverlapMode::ALL {
            let mut total = 0u64;
            for (c, r, _) in grid.iter() {
                total += geo.analyze_tile(mode, &grid, c, r).total_macs();
            }
            totals.push(total);
        }
        assert!(
            totals[0] >= totals[1],
            "recompute {} >= h-cached {}",
            totals[0],
            totals[1]
        );
        assert!(
            totals[1] >= totals[2],
            "h-cached {} >= fully-cached {}",
            totals[1],
            totals[2]
        );
        // Fully cached does not recompute anything: its MAC count equals the
        // layer-by-layer MAC count.
        let lbl: u64 = net.layers().iter().map(|l| l.macs()).sum();
        assert_eq!(totals[2], lbl);
    }

    #[test]
    fn computed_plus_cached_covers_needed_input() {
        let net = three_layer_net();
        let stack = full_stack(&net);
        let geo = StackGeometry::new(&net, &stack);
        let grid = TileGrid::new(4, 4, TileSize::new(2, 2));
        for mode in OverlapMode::ALL {
            for (c, r, _) in grid.iter() {
                let a = geo.analyze_tile(mode, &grid, c, r);
                for rec in &a.layers {
                    assert_eq!(
                        rec.input_bytes,
                        rec.fresh_input_bytes + rec.cached_h_input_bytes + rec.cached_v_input_bytes,
                        "{mode} tile ({c},{r}) {rec:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn tile_type_count_stays_small() {
        // Fig. 6: only a handful of unique tile types exist for FSRCNN with a
        // (60, 72) tile, so evaluating one representative per type keeps the
        // model fast. Fully-recompute yields exactly the paper's 9 types
        // (3 horizontal × 3 vertical edge classes); the cached modes stay in
        // the same ballpark (our type descriptor is finer-grained than the
        // paper's, see EXPERIMENTS.md).
        let net = models::fsrcnn();
        let stack = full_stack(&net);
        let geo = StackGeometry::new(&net, &stack);
        let grid = TileGrid::new(960, 540, TileSize::new(60, 72));
        let mut counts = Vec::new();
        for mode in OverlapMode::ALL {
            let mut set = std::collections::HashSet::new();
            for (c, r, _) in grid.iter() {
                set.insert(geo.analyze_tile(mode, &grid, c, r));
            }
            counts.push(set.len());
        }
        assert_eq!(counts[0], 9, "fully-recompute tile types");
        for (i, &c) in counts.iter().enumerate() {
            assert!((3..=12).contains(&c), "mode {i}: {c} types");
        }
    }

    #[test]
    fn external_inputs_and_halo() {
        let net = three_layer_net();
        let stack = full_stack(&net);
        let geo = StackGeometry::new(&net, &stack);
        assert_eq!(geo.external_inputs(), vec![FmId::External(None)]);
        // Three 3x3 stride-1 layers: halo of 6 pixels in each direction.
        assert_eq!(geo.max_halo(), (6, 6));
        let fd = geo.fm_dims(FmId::External(None));
        assert_eq!((fd.width, fd.height, fd.channels), (10, 10, 1));
    }

    #[test]
    fn fully_cached_caches_require_line_buffers() {
        let net = models::fsrcnn();
        let stack = full_stack(&net);
        let geo = StackGeometry::new(&net, &stack);
        let grid = TileGrid::new(960, 540, TileSize::new(60, 72));
        let fc = geo.analyze_tile(OverlapMode::FullyCached, &grid, 1, 1);
        let hc = geo.analyze_tile(OverlapMode::HCachedVRecompute, &grid, 1, 1);
        // The vertical cache spans the full feature-map width, so it dwarfs
        // the horizontal cache.
        assert!(fc.cache_v_bytes > fc.cache_h_bytes);
        assert_eq!(hc.cache_v_bytes, 0);
        assert!(hc.cache_h_bytes > 0);
    }

    /// Builds a network from `(name, op, dims, predecessor indices)`.
    fn net_of(layers: &[(&str, OpType, LayerDims, &[usize])]) -> Network {
        let mut net = Network::new("oracle");
        for &(name, op, dims, preds) in layers {
            let preds: Vec<LayerId> = preds.iter().map(|&p| LayerId(p)).collect();
            net.add_layer(Layer::new(name, op, dims), &preds).unwrap();
        }
        net
    }

    /// Tile sizes exercising single-pixel, non-square, non-dividing and
    /// whole-feature-map tiles.
    const ORACLE_TILES: [(u64, u64); 7] =
        [(1, 1), (2, 3), (3, 2), (4, 4), (5, 7), (1, 6), (64, 64)];

    /// The ungrouped oracle: every tile of the grid through the 2-D
    /// `analyze_tile`, grouped by equality.
    fn tile_by_tile(
        geo: &StackGeometry<'_>,
        tile: TileSize,
        mode: OverlapMode,
    ) -> HashMap<TileAnalysis, u64> {
        let sink = &geo.net.layer(geo.stack.last_layer()).dims;
        let grid = TileGrid::new(sink.ox, sink.oy, tile);
        let mut counts = HashMap::new();
        for (c, r, _) in grid.iter() {
            *counts
                .entry(geo.analyze_tile(mode, &grid, c, r))
                .or_default() += 1;
        }
        counts
    }

    /// Asserts `tile_types` equals the oracle's multiset for every oracle
    /// tile size and mode on the whole-network stack, and returns how many
    /// (column pass, row pass) pairs had to fall back to `analyze_tile`.
    fn assert_matches_oracle(net: &Network) -> usize {
        let stack = full_stack(net);
        let geo = StackGeometry::new(net, &stack);
        let mut fallbacks = 0;
        for (tx, ty) in ORACLE_TILES {
            let tile = TileSize::new(tx, ty);
            for mode in OverlapMode::ALL {
                let types = tile_types(&geo, tile, mode);
                let oracle = tile_by_tile(&geo, tile, mode);
                assert_eq!(types.len(), oracle.len(), "{tile:?} {mode}: type count");
                for (analysis, count) in &types {
                    assert_eq!(oracle.get(analysis), Some(count), "{tile:?} {mode}");
                }
                let axes = stack_axes(&geo, tile, mode);
                for x in axes.cols.passes() {
                    fallbacks += axes.rows.passes().filter(|&y| !geo.composes(x, y)).count();
                }
            }
        }
        fallbacks
    }

    fn chain_3x3() -> Network {
        net_of(&[
            ("a", OpType::Conv, LayerDims::conv(4, 2, 12, 9, 3, 3), &[]),
            ("b", OpType::Conv, LayerDims::conv(3, 4, 10, 7, 3, 3), &[0]),
            ("c", OpType::Conv, LayerDims::conv(2, 3, 8, 5, 3, 3), &[1]),
        ])
    }

    fn stride_2() -> Network {
        net_of(&[
            (
                "a",
                OpType::Conv,
                LayerDims::conv(4, 2, 14, 11, 3, 3).with_padding(1, 1),
                &[],
            ),
            (
                "b",
                OpType::Conv,
                LayerDims::conv(3, 4, 7, 6, 3, 3)
                    .with_stride(2, 2)
                    .with_padding(1, 1),
                &[0],
            ),
            (
                "c",
                OpType::Conv,
                LayerDims::conv(2, 3, 7, 3, 1, 3)
                    .with_stride(1, 2)
                    .with_padding(0, 1),
                &[1],
            ),
        ])
    }

    fn depthwise() -> Network {
        net_of(&[
            ("a", OpType::Conv, LayerDims::conv(4, 2, 11, 10, 1, 1), &[]),
            (
                "dw",
                OpType::DepthwiseConv,
                LayerDims::conv(4, 4, 11, 10, 3, 5).with_padding(1, 2),
                &[0],
            ),
            (
                "pw",
                OpType::Conv,
                LayerDims::conv(6, 4, 11, 10, 1, 1),
                &[1],
            ),
        ])
    }

    fn chain_1x1() -> Network {
        net_of(&[
            ("a", OpType::Conv, LayerDims::conv(4, 2, 9, 13, 1, 1), &[]),
            ("b", OpType::Conv, LayerDims::conv(3, 4, 9, 13, 1, 1), &[0]),
        ])
    }

    /// A residual block `p → a → c → add(c, p)`: near the right (bottom)
    /// edge the cached modes leave `a` nothing to compute along x (y), while
    /// it still computes along the other axis. Its edge into `p`'s output —
    /// which `add` reads too — is then live on one axis only, the one case
    /// the per-axis composition hands to `analyze_tile`.
    fn residual_add() -> Network {
        let same = |k, c| LayerDims::conv(k, c, 9, 7, 3, 3).with_padding(1, 1);
        net_of(&[
            ("p", OpType::Conv, LayerDims::conv(4, 2, 9, 7, 1, 1), &[]),
            ("a", OpType::Conv, same(4, 4), &[0]),
            ("c", OpType::Conv, same(4, 4), &[1]),
            (
                "add",
                OpType::Add,
                LayerDims::conv(4, 4, 9, 7, 1, 1),
                &[2, 0],
            ),
        ])
    }

    #[test]
    fn tile_types_match_the_tile_by_tile_oracle_on_a_3x3_chain() {
        assert_eq!(assert_matches_oracle(&chain_3x3()), 0);
    }

    #[test]
    fn tile_types_match_the_tile_by_tile_oracle_with_stride_2() {
        assert_eq!(assert_matches_oracle(&stride_2()), 0);
    }

    #[test]
    fn tile_types_match_the_tile_by_tile_oracle_with_depthwise() {
        assert_eq!(assert_matches_oracle(&depthwise()), 0);
    }

    #[test]
    fn tile_types_match_the_tile_by_tile_oracle_on_a_1x1_chain() {
        assert_eq!(assert_matches_oracle(&chain_1x1()), 0);
    }

    #[test]
    fn tile_types_match_the_tile_by_tile_oracle_on_a_residual_add() {
        assert!(
            assert_matches_oracle(&residual_add()) > 0,
            "the fallback must be exercised"
        );
    }

    /// `Σ analysis.total_macs() × count` over a stack's `tile_types`.
    fn summed_macs(geo: &StackGeometry<'_>, tile: TileSize, mode: OverlapMode) -> u64 {
        tile_types(geo, tile, mode)
            .iter()
            .map(|(analysis, count)| analysis.total_macs() * count)
            .sum()
    }

    /// `stack_macs` counts what summing the composed types counts, on the
    /// oracle stacks (the residual add through its fallback) for every
    /// oracle tile and mode.
    #[test]
    fn stack_macs_equal_the_summed_tile_types_on_the_oracle_stacks() {
        let mut fallback_stacks = 0;
        for net in [
            chain_3x3(),
            stride_2(),
            depthwise(),
            chain_1x1(),
            residual_add(),
        ] {
            let stack = full_stack(&net);
            let geo = StackGeometry::new(&net, &stack);
            for (tx, ty) in ORACLE_TILES {
                let tile = TileSize::new(tx, ty);
                for mode in OverlapMode::ALL {
                    let axes = stack_axes(&geo, tile, mode);
                    fallback_stacks += usize::from(!geo.all_compose(&axes.cols, &axes.rows));
                    assert_eq!(
                        stack_macs(&geo, tile, mode),
                        summed_macs(&geo, tile, mode),
                        "{} {tile:?} {mode}",
                        net.name()
                    );
                }
            }
        }
        assert!(fallback_stacks > 0, "the fallback must be exercised");
    }

    /// The same identity on every stack the automatic partition cuts from
    /// the six zoo networks, over each network's default tile grid.
    #[test]
    fn stack_macs_equal_the_summed_tile_types_on_the_zoo_stacks() {
        let acc = defines_arch::zoo::meta_proto_like_df();
        let mut stacks_checked = 0;
        for name in models::names() {
            let net = models::by_name(name).expect("zoo net");
            let grid = crate::Explorer::default_tile_grid(&net);
            let stacks = crate::stack::partition_into_stacks(&net, &acc, &crate::FuseDepth::Auto);
            for stack in &stacks {
                let geo = StackGeometry::new(&net, stack);
                for &(tx, ty) in &grid {
                    let tile = TileSize::new(tx, ty);
                    for mode in OverlapMode::ALL {
                        assert_eq!(
                            stack_macs(&geo, tile, mode),
                            summed_macs(&geo, tile, mode),
                            "{name} {stack:?} {tile:?} {mode}"
                        );
                    }
                }
                stacks_checked += 1;
            }
        }
        assert!(stacks_checked >= 6, "{stacks_checked} stacks");
    }

    /// A geometry's memo changes no answer: on one geometry, tile sizes and
    /// modes interleaved in a seeded order (repeats included) give every
    /// `tile_types` list — values, counts and order — that a fresh geometry
    /// gives.
    #[test]
    fn the_axis_memo_answers_what_a_fresh_geometry_answers() {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = |bound: usize| {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % bound as u64) as usize
        };
        for net in [chain_3x3(), stride_2(), residual_add(), models::fsrcnn()] {
            let stack = full_stack(&net);
            let shared = StackGeometry::new(&net, &stack);
            for _ in 0..60 {
                let (tx, ty) = ORACLE_TILES[next(ORACLE_TILES.len())];
                let tile = TileSize::new(tx, ty);
                let mode = OverlapMode::ALL[next(OverlapMode::ALL.len())];
                let fresh = StackGeometry::new(&net, &stack);
                assert_eq!(
                    tile_types(&shared, tile, mode),
                    tile_types(&fresh, tile, mode),
                    "{} {tile:?} {mode}",
                    net.name()
                );
            }
            // Keys that differ only in what the mode caches stay apart.
            assert!(shared.axes().len() > ORACLE_TILES.len(), "{}", net.name());
        }
    }

    /// `merge_equal`'s reference: a pairwise `==` scan that folds every
    /// entry into the first equal one.
    fn merge_pairwise(types: TileTypes) -> TileTypes {
        let mut merged: TileTypes = Vec::new();
        for (analysis, count) in types {
            match merged.iter_mut().find(|(first, _)| *first == analysis) {
                Some((_, total)) => *total += count,
                None => merged.push((analysis, count)),
            }
        }
        merged
    }

    /// The hashed merge keeps what the pairwise scan keeps — the same
    /// owners, counts and order — on every stack, tile and mode of the
    /// oracle tests above, some of which do merge.
    #[test]
    fn merge_equal_matches_a_pairwise_scan() {
        let mut merges = 0;
        for net in [
            chain_3x3(),
            stride_2(),
            depthwise(),
            chain_1x1(),
            residual_add(),
        ] {
            let stack = full_stack(&net);
            let geo = StackGeometry::new(&net, &stack);
            for (tx, ty) in ORACLE_TILES {
                let tile = TileSize::new(tx, ty);
                for mode in OverlapMode::ALL {
                    let grouped = grouped_types(&geo, &stack_axes(&geo, tile, mode));
                    let expected = merge_pairwise(grouped.clone());
                    merges += grouped.len() - expected.len();
                    assert_eq!(merge_equal(grouped), expected, "{tile:?} {mode}");
                }
            }
        }
        assert!(merges > 0, "no case merges: the check is vacuous");
    }

    /// The closed-form axis classes equal grouping every tile by its
    /// clamped (near, far) edge distances in a sorted map.
    #[test]
    fn signature_classes_match_a_sorted_grouping() {
        for tiles in 1..40u64 {
            for clamp in 0..12u64 {
                let mut grouped: BTreeMap<(u64, u64), (u64, u64)> = BTreeMap::new();
                for i in 0..tiles {
                    let sig = (i.min(clamp), (tiles - 1 - i).min(clamp));
                    grouped.entry(sig).or_insert((i, 0)).1 += 1;
                }
                let expected: Vec<(u64, u64)> = grouped.into_values().collect();
                assert_eq!(
                    signature_classes(tiles, clamp).collect::<Vec<_>>(),
                    expected,
                    "{tiles} tiles, clamp {clamp}"
                );
            }
        }
    }
}

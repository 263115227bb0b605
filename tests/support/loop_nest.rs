//! A brute-force loop-nest interpreter: the reference the single-layer cost
//! model of `defines-mapping` is checked against. It shares no code with the
//! model.
//!
//! Given a tiny problem and a loop ordering, [`count`] walks every iteration
//! of the nest — every temporal iteration times every lane of the PE array —
//! and records which operand elements each iteration touches. From those
//! records it derives its own greedy allocation of loops to memory levels,
//! counting distinct element coordinates against each level's capacity
//! share, then replays the walk at every level boundary and counts the reads
//! and writes of every (level, operand) as integers.
//!
//! Where the cost model simplifies what a loop nest literally does, the
//! interpreter applies the model's rule on purpose, so that the comparison
//! stays exact. Each rule is listed under "Deliberate deviations" in
//! `docs/paper-map.md`:
//!
//! * **Padded trip counts.** A dimension that does not divide its unrolling
//!   still runs whole trips on every lane. Tile sizes count the padded
//!   elements those lanes address; traffic moves only real elements.
//! * **Bounding-box input windows.** An input tile occupies the bounding box
//!   of the pixels its windows read, including the columns (rows) that a
//!   stride larger than FX (FY) skips.
//! * **Input passes without halos.** Input tiles are told apart by window
//!   position and filter tap, and every pass over them moves the input's real
//!   bounding box once: the overlap of neighbouring tiles is not moved again,
//!   as if the level kept it like a line buffer.
//! * **Nominal broadcast at the PE array.** Every real MAC reads each operand
//!   once (and reads and writes its partial sum), and the lanes of unrolled
//!   dimensions that do not address the operand share one access. The PE
//!   array is charged the real MACs divided by that full broadcast width,
//!   even where padding leaves a broadcast group partly idle, so its counts
//!   can be fractional: all counts are kept in units of `1 / scale` bytes.
//! * **One summand per addition.** The tiles and refills of an add layer
//!   count both summands, but the PE array is charged one input read per
//!   addition.

use defines_arch::Operand;
use defines_mapping::SingleLayerProblem;
use defines_workload::{Dim, OpType};
use std::collections::{BTreeMap, BTreeSet};

/// The dimensions of the nest, in value-array order (batch is always 1).
const DIMS: [Dim; 6] = [Dim::K, Dim::C, Dim::OX, Dim::OY, Dim::FX, Dim::FY];

/// An element coordinate: `[summand, channel, x, y]` for activations,
/// `[k, c, fx, fy]` for weights.
type Element = [u64; 4];

/// Integer traffic per (memory level index, operand).
#[derive(Debug)]
pub(crate) struct Counts {
    /// Every count is in units of `1 / scale` bytes.
    pub scale: u64,
    /// `(reads, writes)` per (level index, operand), for every level an
    /// operand may use.
    pub traffic: BTreeMap<(usize, Operand), (u64, u64)>,
}

/// The elements of `operand` that one iteration touches, given the values of
/// [`DIMS`]. `None` marks an unused second slot.
fn elements(
    op: OpType,
    operand: Operand,
    v: &[u64; 6],
    stride: (u64, u64),
) -> [Option<Element>; 2] {
    let [k, c, ox, oy, fx, fy] = *v;
    let (ix, iy) = (ox * stride.0 + fx, oy * stride.1 + fy);
    match (operand, op) {
        (Operand::Weight, OpType::Conv) => [Some([k, c, fx, fy]), None],
        (Operand::Weight, OpType::DepthwiseConv) => [Some([k, 0, fx, fy]), None],
        (Operand::Weight, OpType::Pooling | OpType::Add) => [None, None],
        (Operand::Input, OpType::Conv) => [Some([0, c, ix, iy]), None],
        (Operand::Input, OpType::DepthwiseConv | OpType::Pooling) => [Some([0, k, ix, iy]), None],
        (Operand::Input, OpType::Add) => [Some([0, k, ix, iy]), Some([1, k, ix, iy])],
        (Operand::Output, _) => [Some([0, k, ox, oy]), None],
    }
}

/// The elements one operand's iterations touched, each identified by its
/// position in the dense box `[0, extent)` of element coordinates.
struct Touched {
    operand: Operand,
    bytes: u64,
    extent: Element,
    /// Per element id: whether a real (unpadded) iteration touched it.
    real: Vec<bool>,
    /// Per temporal iteration: the sorted, deduplicated element ids.
    by_rank: Vec<Vec<u32>>,
    /// Whether a change of each dimension's value changes the elements.
    addressed_by: [bool; 6],
}

impl Touched {
    fn id(&self, e: Element) -> u32 {
        let [_, b, c, d] = self.extent;
        (((e[0] * b + e[1]) * c + e[2]) * d + e[3]) as u32
    }

    fn element(&self, id: u32) -> Element {
        let [_, b, c, d] = self.extent;
        let id = u64::from(id);
        [id / (b * c * d), id / (c * d) % b, id / d % c, id % d]
    }

    /// The elements of the tile holding temporal ranks `[from, to)`.
    fn tile(&self, from: u64, to: u64) -> Vec<u32> {
        let mut ids: Vec<u32> = (from..to)
            .flat_map(|r| self.by_rank[r as usize].iter().copied())
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Bytes a level needs to hold `tile`: every element for weights and
    /// outputs, the bounding box of each channel's pixels for inputs.
    fn footprint(&self, tile: &[u32]) -> u64 {
        let elements = if self.operand == Operand::Input {
            let mut channels = BTreeSet::new();
            let (mut x, mut y) = ((u64::MAX, 0), (u64::MAX, 0));
            for &id in tile {
                let [s, c, ix, iy] = self.element(id);
                channels.insert((s, c));
                x = (x.0.min(ix), x.1.max(ix));
                y = (y.0.min(iy), y.1.max(iy));
            }
            channels.len() as u64 * (x.1 + 1 - x.0) * (y.1 + 1 - y.0)
        } else {
            tile.len() as u64
        };
        elements * self.bytes
    }

    /// Bytes of `tile` that exist in the layer.
    fn real_bytes(&self, tile: &[u32]) -> u64 {
        tile.iter().filter(|&&id| self.real[id as usize]).count() as u64 * self.bytes
    }
}

/// Counts the traffic of `problem` under the loop ordering `order`
/// (innermost first) by walking the loop nest.
///
/// # Panics
///
/// If the problem has a batch, a channel loop on a layer whose MACs do not
/// reduce over channels, or filter taps on an add layer; if `order` misses
/// or repeats a dimension that needs a temporal loop; or if an input's tile
/// sequence is not a whole number of passes.
pub(crate) fn count(problem: &SingleLayerProblem<'_>, order: &[Dim]) -> Counts {
    let d = problem.dims;
    assert_eq!(d.b, 1, "the interpreter has no batch loop");
    if problem.op != OpType::Conv {
        assert_eq!(d.c, 1, "only convolutions reduce over C");
    }
    if problem.op == OpType::Add {
        assert_eq!((d.fx, d.fy), (1, 1), "an addition has no filter taps");
    }
    let size = [d.k, d.c, d.ox, d.oy, d.fx, d.fy];
    let stride = (d.stride_x, d.stride_y);
    let unrolling = problem.accelerator.pe_array().unrolling();
    let lanes = DIMS.map(|dim| unrolling.factor(dim));
    let position = |dim: Dim| DIMS.iter().position(|&x| x == dim).expect("modelled dim");

    // Temporal loops, innermost first: `(dimension position, trips)`.
    let loops: Vec<(usize, u64)> = order
        .iter()
        .map(|&dim| position(dim))
        .map(|i| (i, size[i].div_ceil(lanes[i])))
        .filter(|&(_, trips)| trips > 1)
        .collect();
    for i in 0..6 {
        let placed = loops.iter().filter(|&&(j, _)| j == i).count();
        let needed = usize::from(size[i] > lanes[i]);
        assert_eq!(placed, needed, "{} must be one loop of the order", DIMS[i]);
    }
    // `span[b]`: temporal iterations of the loops below boundary `b`.
    let mut span = vec![1u64];
    for &(_, trips) in &loops {
        span.push(span.last().unwrap() * trips);
    }
    let total = *span.last().unwrap();
    let index = |rank: u64, l: usize| (rank / span[l]) % loops[l].1;

    let activation_bytes = u64::from(problem.act_bits.div_ceil(8));
    // The last padded iteration touches the largest coordinates.
    let last: [u64; 6] = std::array::from_fn(|i| lanes[i] * size[i].div_ceil(lanes[i]) - 1);
    let mut touched: Vec<Touched> = Operand::ALL
        .into_iter()
        .filter(|&operand| elements(problem.op, operand, &last, stride)[0].is_some())
        .map(|operand| {
            let mut extent = [1; 4];
            for e in elements(problem.op, operand, &last, stride)
                .into_iter()
                .flatten()
            {
                extent = std::array::from_fn(|j| extent[j].max(e[j] + 1));
            }
            Touched {
                operand,
                bytes: match operand {
                    Operand::Weight => u64::from(problem.weight_bits.div_ceil(8)),
                    Operand::Input | Operand::Output => activation_bytes,
                },
                extent,
                real: vec![false; extent.iter().product::<u64>() as usize],
                by_rank: Vec::with_capacity(total as usize),
                addressed_by: std::array::from_fn(|i| {
                    let mut step = [0; 6];
                    step[i] = 1;
                    elements(problem.op, operand, &[0; 6], stride)
                        != elements(problem.op, operand, &step, stride)
                }),
            }
        })
        .collect();

    // The walk: every temporal iteration, every lane.
    let mut real_macs = 0u64;
    for rank in 0..total {
        let mut base = [0u64; 6];
        for (l, &(i, _)) in loops.iter().enumerate() {
            base[i] = index(rank, l) * lanes[i];
        }
        for t in &mut touched {
            t.by_rank.push(Vec::new());
        }
        let mut lane = [0u64; 6];
        loop {
            let v: [u64; 6] = std::array::from_fn(|i| base[i] + lane[i]);
            let real = (0..6).all(|i| v[i] < size[i]);
            real_macs += u64::from(real);
            for t in &mut touched {
                for e in elements(problem.op, t.operand, &v, stride)
                    .into_iter()
                    .flatten()
                {
                    let id = t.id(e);
                    t.real[id as usize] |= real;
                    t.by_rank[rank as usize].push(id);
                }
            }
            // Next lane, odometer style.
            let Some(i) = (0..6).find(|&i| lane[i] + 1 < lanes[i]) else {
                break;
            };
            lane[i] += 1;
            lane[..i].fill(0);
        }
        for t in &mut touched {
            let ids = &mut t.by_rank[rank as usize];
            ids.sort_unstable();
            ids.dedup();
        }
    }

    // The memory levels each operand may use, innermost first, and how many
    // operands share each level.
    let hierarchy = problem.accelerator.hierarchy();
    let usable: Vec<Vec<usize>> = touched
        .iter()
        .map(|t| {
            let top = problem.top_levels.level(t.operand).0;
            let mut levels: Vec<usize> = (0..=top)
                .filter(|&l| hierarchy.levels()[l].serves(t.operand))
                .collect();
            if levels.last() != Some(&top) {
                levels.push(top);
            }
            levels
        })
        .collect();
    let share = |level: usize| {
        let sharers = usable.iter().filter(|u| u.contains(&level)).count() as u64;
        hierarchy.levels()[level]
            .capacity_bytes()
            .map_or(u64::MAX, |c| c / sharers)
    };

    // The broadcast width of each operand at the PE array, and a scale that
    // makes every PE-array count an integer.
    let width = |t: &Touched| -> u64 {
        (0..6)
            .filter(|&i| !t.addressed_by[i])
            .map(|i| lanes[i])
            .product()
    };
    let scale = touched.iter().map(width).fold(1, lcm);

    let mut traffic = BTreeMap::new();
    for (t, levels) in touched.iter().zip(&usable) {
        for &level in levels {
            traffic.insert((level, t.operand), (0, 0));
        }
        // The PE array: real MACs over the broadcast width, in 1/scale bytes.
        let pe = real_macs * t.bytes * scale / width(t);
        let pe_writes = if t.operand == Operand::Output { pe } else { 0 };
        traffic.insert((levels[0], t.operand), (pe, pe_writes));
        // Adds bytes read from and written to a level.
        let mut add = |level: usize, reads: u64, writes: u64| {
            let slot: &mut (u64, u64) = traffic.get_mut(&(level, t.operand)).expect("usable");
            slot.0 += reads * scale;
            slot.1 += writes * scale;
        };

        // The greedy allocation: each level keeps as many innermost loops as
        // its share holds, starting from the boundary of the level below.
        let mut boundary = 0;
        let mut boundaries = Vec::new();
        for &level in &levels[..levels.len() - 1] {
            while boundary < loops.len()
                && t.footprint(&t.tile(0, span[boundary + 1])) <= share(level)
            {
                boundary += 1;
            }
            boundaries.push(boundary);
        }

        // Replay the tiles at every boundary: the child level holds one tile
        // of the loops below it, the parent serves every change of tile.
        for (w, &b) in boundaries.iter().enumerate() {
            let (child, parent) = (levels[w], levels[w + 1]);
            let tiles = (0..total / span[b]).map(|j| t.tile(j * span[b], (j + 1) * span[b]));
            match t.operand {
                Operand::Weight => {
                    let mut held = None;
                    for tile in tiles {
                        if held.as_ref() != Some(&tile) {
                            let moved = t.real_bytes(&tile);
                            add(child, 0, moved);
                            add(parent, moved, 0);
                            held = Some(tile);
                        }
                    }
                }
                Operand::Output => {
                    // A finished tile's partial sums drain up; a tile drained
                    // before is fetched back down to continue accumulating.
                    let mut held: Option<Vec<u32>> = None;
                    let mut visited = BTreeSet::new();
                    for tile in tiles {
                        if held.as_ref() == Some(&tile) {
                            continue;
                        }
                        if let Some(done) = held.take() {
                            let up = t.real_bytes(&done);
                            add(child, up, 0);
                            add(parent, 0, up);
                        }
                        if !visited.insert(tile.clone()) {
                            let down = t.real_bytes(&tile);
                            add(parent, down, 0);
                            add(child, 0, down);
                        }
                        held = Some(tile);
                    }
                    let up = t.real_bytes(&held.expect("at least one tile"));
                    add(child, up, 0);
                    add(parent, 0, up);
                }
                Operand::Input => {
                    // Tiles told apart by the loop indices that address the
                    // input; each pass over them moves the real bounding box.
                    let (mut runs, mut distinct, mut last) = (0u64, BTreeSet::new(), None);
                    for j in 0..total / span[b] {
                        let key: Vec<u64> = (b..loops.len())
                            .filter(|&l| t.addressed_by[loops[l].0])
                            .map(|l| index(j * span[b], l))
                            .collect();
                        if last.as_ref() != Some(&key) {
                            runs += 1;
                            distinct.insert(key.clone());
                            last = Some(key);
                        }
                    }
                    let per_pass = distinct.len() as u64;
                    assert_eq!(runs % per_pass, 0, "input tiles are not whole passes");
                    let mut real = t.tile(0, total);
                    real.retain(|&id| t.real[id as usize]);
                    let moved = runs / per_pass * t.footprint(&real);
                    add(child, 0, moved);
                    add(parent, moved, 0);
                }
            }
        }
    }
    Counts { scale, traffic }
}

fn lcm(a: u64, b: u64) -> u64 {
    let gcd = |mut x: u64, mut y: u64| {
        while y != 0 {
            (x, y) = (y, x % y);
        }
        x
    };
    a / gcd(a, b) * b
}

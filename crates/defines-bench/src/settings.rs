//! Canonical experiment settings shared by the figure/table binaries.

use defines_workload::Network;

/// The diagonal design points of Fig. 13–15.
pub fn diagonal_tile_sizes() -> Vec<(u64, u64)> {
    vec![(1, 1), (4, 4), (16, 18), (60, 72), (240, 270), (960, 540)]
}

/// A reduced tile grid used when sweeping many workload/architecture
/// combinations (case studies 2 and 3): a handful of representative points
/// per axis, derived from the workload's *largest* feature map so the grid is
/// meaningful for every stack (classification networks end in 1×1 layers, but
/// their early stacks are tiled over large feature maps).
pub fn case_study_tile_grid(net: &Network) -> Vec<(u64, u64)> {
    let (w, h) = net
        .layers()
        .iter()
        .map(|l| (l.dims.ox, l.dims.oy))
        .max_by_key(|&(x, y)| x * y)
        .expect("non-empty network");
    let fractions = [(16, 16), (8, 8), (8, 4), (4, 8), (4, 4), (2, 2), (1, 1)];
    let mut grid: Vec<(u64, u64)> = fractions
        .iter()
        .map(|&(dx, dy)| ((w / dx).max(1), (h / dy).max(1)))
        .collect();
    grid.push((4.min(w), (h / 8).max(1)));
    grid.push(((w / 8).max(1), 4.min(h)));
    grid.sort_unstable();
    grid.dedup();
    grid
}

#[cfg(test)]
mod tests {
    use super::*;
    use defines_workload::models;

    #[test]
    fn diagonal_matches_fig13() {
        assert_eq!(diagonal_tile_sizes().len(), 6);
    }

    #[test]
    fn case_study_grid_follows_largest_feature_map() {
        let net = models::mobilenet_v1();
        let g = case_study_tile_grid(&net);
        // MobileNetV1's largest feature map is 112x112; the grid must offer
        // meaningful tiles even though the network ends in 1x1 layers.
        assert!(g.iter().all(|&(tx, ty)| tx <= 112 && ty <= 112));
        assert!(g.iter().any(|&(tx, ty)| tx >= 28 && ty >= 28));
        assert!(!g.is_empty());
    }
}

//! Step 1 of the depth-first cost model: tiling the stack's output feature
//! map into a grid of tiles.

use crate::strategy::TileSize;
use serde::Serialize;

use crate::geometry::Rect;

/// The grid of tiles covering a stack's final output feature map.
///
/// The tile size does not need to divide the feature-map size: tiles in the
/// last column / row are smaller (Fig. 6 of the paper).
///
/// ```
/// use defines_core::{tiling::TileGrid, TileSize};
/// let grid = TileGrid::new(960, 540, TileSize::new(60, 72));
/// assert_eq!(grid.cols(), 16);
/// assert_eq!(grid.rows(), 8); // 540 / 72 = 7.5 -> 8 rows, last one partial
/// assert_eq!(grid.num_tiles(), 128);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct TileGrid {
    width: u64,
    height: u64,
    tx: u64,
    ty: u64,
}

impl TileGrid {
    /// Creates the tile grid for a `width`×`height` output feature map.
    pub fn new(width: u64, height: u64, tile: TileSize) -> Self {
        let (tx, ty) = tile.clamped(width, height);
        Self {
            width,
            height,
            tx: tx.max(1),
            ty: ty.max(1),
        }
    }

    /// Number of tile columns.
    pub fn cols(&self) -> u64 {
        self.width.div_ceil(self.tx)
    }

    /// Number of tile rows.
    pub fn rows(&self) -> u64 {
        self.height.div_ceil(self.ty)
    }

    /// Total number of tiles.
    pub fn num_tiles(&self) -> u64 {
        self.cols() * self.rows()
    }

    /// The effective (clamped) tile size.
    pub(crate) fn tile_size(&self) -> (u64, u64) {
        (self.tx, self.ty)
    }

    /// The output-feature-map region of the tile at (`col`, `row`).
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are outside the grid.
    pub(crate) fn tile_rect(&self, col: u64, row: u64) -> Rect {
        assert!(
            col < self.cols() && row < self.rows(),
            "tile index out of range"
        );
        let x0 = col * self.tx;
        let y0 = row * self.ty;
        let x1 = (x0 + self.tx - 1).min(self.width - 1);
        let y1 = (y0 + self.ty - 1).min(self.height - 1);
        Rect::new(x0 as i64, x1 as i64, y0 as i64, y1 as i64)
    }

    /// Iterates over all tiles in processing order: left-to-right, then
    /// top-to-bottom (the order assumed throughout the paper).
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64, Rect)> + '_ {
        (0..self.rows()).flat_map(move |row| {
            (0..self.cols()).map(move |col| (col, row, self.tile_rect(col, row)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_division() {
        let g = TileGrid::new(960, 540, TileSize::new(240, 270));
        assert_eq!((g.cols(), g.rows()), (4, 2));
        assert_eq!(g.tile_rect(0, 0), Rect::new(0, 239, 0, 269));
        assert_eq!(g.tile_rect(3, 1), Rect::new(720, 959, 270, 539));
    }

    #[test]
    fn partial_last_row() {
        let g = TileGrid::new(960, 540, TileSize::new(60, 72));
        assert_eq!(g.num_tiles(), 16 * 8);
        // Last row is 540 - 7*72 = 36 rows tall.
        let last = g.tile_rect(0, 7);
        assert_eq!(last.height(), 36);
        assert_eq!(last.width(), 60);
    }

    #[test]
    fn full_tile_is_single() {
        let g = TileGrid::new(960, 540, TileSize::full());
        assert_eq!(g.num_tiles(), 1);
        assert_eq!(g.tile_rect(0, 0).area(), 960 * 540);
    }

    #[test]
    fn grid_covers_feature_map_exactly() {
        let g = TileGrid::new(97, 41, TileSize::new(16, 18));
        let total: u64 = g.iter().map(|(_, _, r)| r.area()).sum();
        assert_eq!(total, 97 * 41);
        // Tiles are disjoint by construction (strided origin).
        assert_eq!(g.iter().count() as u64, g.num_tiles());
    }

    #[test]
    fn oversized_tile_clamps() {
        let g = TileGrid::new(20, 10, TileSize::new(1000, 1000));
        assert_eq!(g.num_tiles(), 1);
        assert_eq!(g.tile_size(), (20, 10));
    }

    #[test]
    fn processing_order_is_row_major() {
        let g = TileGrid::new(8, 8, TileSize::new(4, 4));
        let order: Vec<(u64, u64)> = g.iter().map(|(c, r, _)| (c, r)).collect();
        assert_eq!(order, vec![(0, 0), (1, 0), (0, 1), (1, 1)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_tile_panics() {
        let g = TileGrid::new(8, 8, TileSize::new(4, 4));
        let _ = g.tile_rect(2, 0);
    }
}

//! Rectangle arithmetic on feature-map regions.
//!
//! All regions are inclusive integer rectangles in the coordinate space of one
//! feature map. Back-calculation (Section III, step 2) projects an output
//! region of a layer to the input region it requires, and trims regions by
//! what neighbouring tiles have already computed.

use serde::Serialize;

/// An inclusive, possibly empty, axis-aligned rectangle.
///
/// `x1 < x0` (or `y1 < y0`) denotes the empty rectangle.
///
/// ```
/// use defines_core::{tiling::TileGrid, TileSize};
/// // The first 10×5 tile of a 960×540 feature map.
/// let grid = TileGrid::new(960, 540, TileSize::new(10, 5));
/// let (_, _, r) = grid.iter().next().unwrap();
/// assert_eq!((r.x0, r.x1, r.y0, r.y1), (0, 9, 0, 4));
/// assert_eq!(r.area(), 50);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct Rect {
    /// Leftmost column (inclusive).
    pub x0: i64,
    /// Rightmost column (inclusive).
    pub x1: i64,
    /// Topmost row (inclusive).
    pub y0: i64,
    /// Bottommost row (inclusive).
    pub y1: i64,
}

impl Rect {
    /// Creates a rectangle from inclusive bounds.
    pub(crate) fn new(x0: i64, x1: i64, y0: i64, y1: i64) -> Self {
        Self { x0, x1, y0, y1 }
    }

    /// The canonical empty rectangle.
    pub(crate) fn empty() -> Self {
        Self {
            x0: 0,
            x1: -1,
            y0: 0,
            y1: -1,
        }
    }

    /// Whether the rectangle contains no cells.
    pub(crate) fn is_empty(&self) -> bool {
        self.x1 < self.x0 || self.y1 < self.y0
    }

    /// Width in cells (0 when empty).
    pub(crate) fn width(&self) -> u64 {
        if self.is_empty() {
            0
        } else {
            (self.x1 - self.x0 + 1) as u64
        }
    }

    /// Height in cells (0 when empty).
    pub(crate) fn height(&self) -> u64 {
        if self.is_empty() {
            0
        } else {
            (self.y1 - self.y0 + 1) as u64
        }
    }

    /// Number of cells.
    pub fn area(&self) -> u64 {
        self.width() * self.height()
    }

    /// Bounding box of two rectangles (the paper's branch handling combines
    /// the outermost edges of the per-branch regions, Fig. 8).
    pub(crate) fn union_bbox(&self, other: &Rect) -> Rect {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        Rect {
            x0: self.x0.min(other.x0),
            x1: self.x1.max(other.x1),
            y0: self.y0.min(other.y0),
            y1: self.y1.max(other.y1),
        }
    }

    /// Clamps the rectangle to `[0, w-1] × [0, h-1]`.
    pub(crate) fn clamp_to(&self, w: u64, h: u64) -> Rect {
        let r = Rect {
            x0: self.x0.max(0),
            x1: self.x1.min(w as i64 - 1),
            y0: self.y0.max(0),
            y1: self.y1.min(h as i64 - 1),
        };
        if r.is_empty() {
            Rect::empty()
        } else {
            r
        }
    }

    /// Removes the columns left of (and including) `x` — data already computed
    /// by the tile to the left in a cached mode.
    pub(crate) fn trim_left_through(&self, x: i64) -> Rect {
        let r = Rect {
            x0: self.x0.max(x + 1),
            ..*self
        };
        if r.is_empty() {
            Rect::empty()
        } else {
            r
        }
    }

    /// Removes the rows above (and including) `y` — data already computed by
    /// the tile row above in fully-cached mode.
    pub(crate) fn trim_top_through(&self, y: i64) -> Rect {
        let r = Rect {
            y0: self.y0.max(y + 1),
            ..*self
        };
        if r.is_empty() {
            Rect::empty()
        } else {
            r
        }
    }
}

/// Projects an output-space region to the input-space region required to
/// compute it, for a layer with the given stride, kernel size and padding.
///
/// `in = [out.x0 * sx - px, out.x1 * sx - px + fx - 1]` (same along y), before
/// clamping to the input feature map.
pub(crate) fn project_to_input(
    out: &Rect,
    stride: (u64, u64),
    kernel: (u64, u64),
    pad: (u64, u64),
) -> Rect {
    if out.is_empty() {
        return Rect::empty();
    }
    let (sx, sy) = (stride.0 as i64, stride.1 as i64);
    let (fx, fy) = (kernel.0 as i64, kernel.1 as i64);
    let (px, py) = (pad.0 as i64, pad.1 as i64);
    Rect {
        x0: out.x0 * sx - px,
        x1: out.x1 * sx - px + fx - 1,
        y0: out.y0 * sy - py,
        y1: out.y1 * sy - py + fy - 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_dimensions() {
        let r = Rect::new(2, 5, 3, 3);
        assert_eq!(r.width(), 4);
        assert_eq!(r.height(), 1);
        assert_eq!(r.area(), 4);
        assert!(!r.is_empty());
        assert!(Rect::empty().is_empty());
        assert_eq!(Rect::empty().area(), 0);
    }

    #[test]
    fn intersection_and_union() {
        let a = Rect::new(0, 9, 0, 9);
        let b = Rect::new(5, 14, -3, 4);
        let u = a.union_bbox(&b);
        assert_eq!(u, Rect::new(0, 14, -3, 9));
        assert_eq!(Rect::empty().union_bbox(&a), a);
    }

    #[test]
    fn clamping() {
        let r = Rect::new(-2, 12, -1, 8).clamp_to(10, 8);
        assert_eq!(r, Rect::new(0, 9, 0, 7));
        let gone = Rect::new(20, 25, 0, 1).clamp_to(10, 8);
        assert!(gone.is_empty());
    }

    #[test]
    fn trims() {
        let r = Rect::new(0, 9, 0, 9);
        assert_eq!(r.trim_left_through(3), Rect::new(4, 9, 0, 9));
        assert_eq!(r.trim_top_through(9), Rect::empty());
        assert_eq!(r.trim_left_through(-1), r);
    }

    #[test]
    fn projection_unit_stride() {
        // A 3x3 kernel with stride 1: a 4x4 output tile needs a 6x6 input.
        let out = Rect::new(0, 3, 0, 3);
        let inp = project_to_input(&out, (1, 1), (3, 3), (0, 0));
        assert_eq!(inp, Rect::new(0, 5, 0, 5));
        assert_eq!(inp.width(), 6);
    }

    #[test]
    fn projection_stride_and_padding() {
        let out = Rect::new(0, 111, 0, 111);
        let inp = project_to_input(&out, (2, 2), (3, 3), (1, 1));
        assert_eq!(inp.x0, -1);
        assert_eq!(inp.x1, 223);
        // After clamping to a 224-wide input everything is in range.
        let clamped = inp.clamp_to(224, 224);
        assert_eq!(clamped.width(), 224);
    }

    #[test]
    fn projection_1x1_is_identity() {
        let out = Rect::new(7, 20, 3, 9);
        assert_eq!(project_to_input(&out, (1, 1), (1, 1), (0, 0)), out);
    }

    #[test]
    fn projection_of_empty_is_empty() {
        assert!(project_to_input(&Rect::empty(), (1, 1), (3, 3), (0, 0)).is_empty());
    }
}

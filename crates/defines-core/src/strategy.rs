//! Depth-first scheduling strategies: the three axes of the design space.

use crate::stack::FuseDepth;
use serde::Serialize;
use std::fmt;

/// Axis 2 of the design space: what to do with the data overlap between
/// neighbouring tiles (Fig. 3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum OverlapMode {
    /// Recompute the overlapping features for every tile.
    FullyRecompute,
    /// Cache the horizontal overlap (columns needed by the tile to the right),
    /// recompute the vertical overlap.
    HCachedVRecompute,
    /// Cache both the horizontal and the vertical overlap.
    FullyCached,
}

impl OverlapMode {
    /// All three overlap storing modes, in the paper's order.
    pub const ALL: [OverlapMode; 3] = [
        OverlapMode::FullyRecompute,
        OverlapMode::HCachedVRecompute,
        OverlapMode::FullyCached,
    ];

    /// The mode's digit in the `dfmode` vocabulary of the CLI flags and the
    /// daemon's request field (`1`, `2`, `3`, in the paper's order).
    pub fn digit(&self) -> char {
        match self {
            OverlapMode::FullyRecompute => '1',
            OverlapMode::HCachedVRecompute => '2',
            OverlapMode::FullyCached => '3',
        }
    }

    /// Parses a `dfmode` digit string — the inverse of [`OverlapMode::digit`]:
    /// each digit selects one mode, repeats are dropped, order is kept
    /// (`"123"` selects all three).
    ///
    /// # Errors
    ///
    /// Returns a message for empty input or characters outside `1`-`3`; the
    /// caller prefixes its flag or field name.
    pub fn parse_digits(dfmode: &str) -> Result<Vec<OverlapMode>, String> {
        if dfmode.is_empty() {
            return Err("needs at least one digit out of 1, 2, 3".into());
        }
        let mut modes = Vec::new();
        for c in dfmode.chars() {
            let mode = match c {
                '1' => OverlapMode::FullyRecompute,
                '2' => OverlapMode::HCachedVRecompute,
                '3' => OverlapMode::FullyCached,
                other => {
                    return Err(format!(
                        "invalid digit '{other}' (1 = fully-recompute, 2 = H-cached \
                         V-recompute, 3 = fully-cached)"
                    ))
                }
            };
            if !modes.contains(&mode) {
                modes.push(mode);
            }
        }
        Ok(modes)
    }

    /// Whether the horizontal overlap is cached.
    pub(crate) fn caches_horizontal(&self) -> bool {
        matches!(
            self,
            OverlapMode::HCachedVRecompute | OverlapMode::FullyCached
        )
    }

    /// Whether the vertical overlap is cached.
    pub(crate) fn caches_vertical(&self) -> bool {
        matches!(self, OverlapMode::FullyCached)
    }
}

impl fmt::Display for OverlapMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OverlapMode::FullyRecompute => "fully-recompute",
            OverlapMode::HCachedVRecompute => "H-cached V-recompute",
            OverlapMode::FullyCached => "fully-cached",
        };
        f.write_str(s)
    }
}

/// Axis 1 of the design space: the tile size of the stack's final output
/// feature map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct TileSize {
    /// Tile width (along OX). `u64::MAX` means "the whole feature map".
    pub tx: u64,
    /// Tile height (along OY). `u64::MAX` means "the whole feature map".
    pub ty: u64,
}

impl TileSize {
    /// Creates a tile size.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(tx: u64, ty: u64) -> Self {
        assert!(tx > 0 && ty > 0, "tile dimensions must be positive");
        Self { tx, ty }
    }

    /// The tile that covers the entire output feature map (turning the
    /// schedule into layer-by-layer processing, Section II).
    pub fn full() -> Self {
        Self {
            tx: u64::MAX,
            ty: u64::MAX,
        }
    }

    /// Whether this tile covers the whole feature map regardless of its size.
    pub(crate) fn is_full(&self) -> bool {
        self.tx == u64::MAX && self.ty == u64::MAX
    }

    /// The effective tile size for a feature map of `w`×`h` pixels.
    pub(crate) fn clamped(&self, w: u64, h: u64) -> (u64, u64) {
        (self.tx.min(w), self.ty.min(h))
    }
}

impl fmt::Display for TileSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_full() {
            f.write_str("(full)")
        } else {
            write!(f, "({}, {})", self.tx, self.ty)
        }
    }
}

/// Where feature maps are passed between consecutive stacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize)]
pub(crate) enum BetweenStackMemory {
    /// The lowest memory level in which the full feature map fits (the
    /// layer-by-layer behaviour of Fig. 1(b)).
    #[default]
    LowestFitting,
    /// Always through DRAM (the single-layer behaviour of Fig. 1(a)).
    Dram,
}

/// A complete depth-first scheduling strategy: one point in the design space
/// of Section II.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub struct DfStrategy {
    /// Axis 1: tile size of the stack's final output.
    pub tile: TileSize,
    /// Axis 2: overlap storing mode.
    pub mode: OverlapMode,
    /// Axis 3: fuse depth (how layers are grouped into stacks).
    pub fuse: FuseDepth,
    /// How feature maps travel between stacks.
    pub(crate) between_stacks: BetweenStackMemory,
}

impl DfStrategy {
    /// A depth-first strategy with the given tile size and overlap mode; the
    /// fuse depth is determined automatically (layers are added to a stack
    /// while the stack's weights fit the top on-chip weight memory).
    pub fn depth_first(tile: TileSize, mode: OverlapMode) -> Self {
        Self {
            tile,
            mode,
            fuse: FuseDepth::Auto,
            between_stacks: BetweenStackMemory::LowestFitting,
        }
    }

    /// The single-layer (SL) extreme point: every layer is its own stack and
    /// all feature maps travel through DRAM.
    pub fn single_layer() -> Self {
        Self {
            tile: TileSize::full(),
            mode: OverlapMode::FullyRecompute,
            fuse: FuseDepth::SingleLayerStacks,
            between_stacks: BetweenStackMemory::Dram,
        }
    }

    /// The layer-by-layer (LBL) extreme point: one tile covering the whole
    /// feature map, intermediate feature maps passed in the lowest memory
    /// level they fit in.
    pub fn layer_by_layer() -> Self {
        Self {
            tile: TileSize::full(),
            mode: OverlapMode::FullyRecompute,
            fuse: FuseDepth::FullNetwork,
            between_stacks: BetweenStackMemory::LowestFitting,
        }
    }

    /// Returns a copy with a manually specified fuse depth.
    pub(crate) fn with_fuse(mut self, fuse: FuseDepth) -> Self {
        self.fuse = fuse;
        self
    }
}

impl fmt::Display for DfStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tile {} | {} | {}", self.tile, self.mode, self.fuse)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_mode_capabilities() {
        assert!(!OverlapMode::FullyRecompute.caches_horizontal());
        assert!(OverlapMode::HCachedVRecompute.caches_horizontal());
        assert!(!OverlapMode::HCachedVRecompute.caches_vertical());
        assert!(OverlapMode::FullyCached.caches_vertical());
        assert_eq!(OverlapMode::ALL.len(), 3);
    }

    #[test]
    fn tile_size_clamping() {
        let t = TileSize::new(60, 72);
        assert_eq!(t.clamped(960, 540), (60, 72));
        assert_eq!(t.clamped(32, 32), (32, 32));
        assert!(TileSize::full().is_full());
        assert_eq!(TileSize::full().clamped(960, 540), (960, 540));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_tile_rejected() {
        let _ = TileSize::new(0, 4);
    }

    #[test]
    fn canonical_strategies() {
        let sl = DfStrategy::single_layer();
        assert!(sl.tile.is_full());
        assert_eq!(sl.fuse, FuseDepth::SingleLayerStacks);
        assert_eq!(sl.between_stacks, BetweenStackMemory::Dram);
        let lbl = DfStrategy::layer_by_layer();
        assert_eq!(lbl.between_stacks, BetweenStackMemory::LowestFitting);
        let df = DfStrategy::depth_first(TileSize::new(4, 72), OverlapMode::FullyCached);
        assert_eq!(df.fuse, FuseDepth::Auto);
        assert!(df.to_string().contains("fully-cached"));
    }
}

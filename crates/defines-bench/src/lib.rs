//! Shared helpers for the DeFiNES experiment harness.
//!
//! Each figure and table of the paper's evaluation has a dedicated binary in
//! `src/bin/` (see `docs/paper-map.md`, "§V–§VI — Experiments", for the full
//! index); this library provides the plumbing they share: canonical
//! experiment settings, simple table / heatmap printing, and JSON result
//! dumps.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod report;
pub mod settings;

pub use report::{heatmap, ratio, table, write_json};
pub use settings::{case_study_tile_grid, diagonal_tile_sizes, fig12_tile_grid, ExperimentContext};

//! # kagen-geometry
//!
//! Spatial infrastructure for the geometric generators (RGG, RDG, RHG):
//!
//! * [`point`] — fixed-dimension points in the unit cube / torus;
//! * [`morton`] — Z-order (Morton) curves for locality-aware chunk
//!   assignment (§5.1 / \[35\]), re-exported from `kagen_util`;
//! * [`grid`] — power-of-two cell grids over `[0,1)^d` with neighbor
//!   iteration (periodic or clamped);
//! * [`counts`] — the 2^d-ary *count-splitting tree*: recursive binomial
//!   partitioning of `n` points over the grid with subtree-seeded PRNGs, so
//!   any PE can derive the content of any cell without communication;
//! * [`cell_points`] — deterministic per-cell point generation;
//! * [`cell_stream`] — what a PE holds of the cells: [`GridCells`], the
//!   one per-PE cell source of RGG and RDG (the id prefix of every cell
//!   of the PE's Morton range from one walk of the count tree, a halo
//!   cell by one memoised descent, each tree node drawn at most once),
//!   and the wrapped-run slot store the hyperbolic generators keep their
//!   cells in;
//! * [`hyperbolic`] — the hyperbolic plane toolbox of §7 (radial sampling,
//!   distance, Δθ bounds, trig-free adjacency via precomputation, annuli).

pub mod cell_points;
pub mod cell_stream;
pub mod counts;
pub mod grid;
pub mod hyperbolic;
pub mod point;

pub use cell_stream::{FrontierStats, GridCells};
pub use counts::CountTree;
pub use grid::{CellBox, CellGrid};
pub use kagen_util::morton;
pub use point::Point;

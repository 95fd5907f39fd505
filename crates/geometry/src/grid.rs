//! Power-of-two cell grids over the unit cube.

use crate::morton;

/// An axis-aligned box `(lo, hi)`.
pub type CellBox<const D: usize> = ([f64; D], [f64; D]);

/// A uniform grid with `2^levels` cells per dimension over `[0,1)^d`.
///
/// Cells are addressed either by integer coordinates or by Morton code
/// (their rank in Z-order); chunks of the spatial generators are aligned
/// Morton ranges of cells.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CellGrid<const D: usize> {
    levels: u32,
}

impl<const D: usize> CellGrid<D> {
    /// Grid with `2^levels` cells per dimension.
    pub fn new(levels: u32) -> Self {
        assert!(D == 2 || D == 3, "grids implemented for D in {{2,3}}");
        let max = if D == 2 { 31 } else { 20 };
        assert!(levels <= max, "levels {levels} exceeds Morton capacity");
        CellGrid { levels }
    }

    /// Refinement depth.
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// Cells per dimension.
    #[inline]
    pub fn cells_per_dim(&self) -> u64 {
        1u64 << self.levels
    }

    /// Total number of cells.
    #[inline]
    pub fn num_cells(&self) -> u64 {
        1u64 << (self.levels * D as u32)
    }

    /// Side length of a cell.
    #[inline]
    pub fn cell_side(&self) -> f64 {
        1.0 / self.cells_per_dim() as f64
    }

    /// Integer coordinates of the cell containing a point in `[0,1)^d`.
    #[inline]
    pub fn cell_of(&self, p: &[f64; D]) -> [u64; D] {
        let g = self.cells_per_dim();
        let mut c = [0u64; D];
        for i in 0..D {
            debug_assert!((0.0..1.0).contains(&p[i]), "point outside unit cube");
            c[i] = ((p[i] * g as f64) as u64).min(g - 1);
        }
        c
    }

    /// Morton rank of a cell.
    #[inline]
    pub fn morton_of(&self, coords: [u64; D]) -> u64 {
        morton::encode::<D>(coords)
    }

    /// Integer coordinates from a Morton rank.
    #[inline]
    pub fn coords_of(&self, code: u64) -> [u64; D] {
        morton::decode::<D>(code)
    }

    /// Axis-aligned bounds `[lo, hi)` of a cell.
    #[inline]
    pub fn cell_bounds(&self, coords: [u64; D]) -> CellBox<D> {
        let side = self.cell_side();
        let mut lo = [0.0; D];
        let mut hi = [0.0; D];
        for i in 0..D {
            lo[i] = coords[i] as f64 * side;
            hi[i] = lo[i] + side;
        }
        (lo, hi)
    }

    /// Visit the 3^d neighborhood of a cell (including itself).
    ///
    /// With `wrap = true` coordinates wrap around (torus; RDG model); with
    /// `wrap = false` out-of-cube neighbors are skipped (RGG model). The
    /// callback receives the neighbor's coordinates and, when wrapping, the
    /// integer offset vector that was applied (−1, 0 or 1 per axis) so
    /// callers can translate replica points.
    pub fn for_neighbors(
        &self,
        coords: [u64; D],
        wrap: bool,
        f: &mut impl FnMut([u64; D], [i8; D]),
    ) {
        let g = self.cells_per_dim() as i64;
        let mut deltas = [[-1i64, 0, 1]; D];
        let _ = &mut deltas;
        // Iterate the 3^D offsets via counting.
        let total = 3usize.pow(D as u32);
        for idx in 0..total {
            let mut rem = idx;
            let mut ncoords = [0u64; D];
            let mut offs = [0i8; D];
            let mut valid = true;
            for i in 0..D {
                let d = (rem % 3) as i64 - 1;
                rem /= 3;
                let raw = coords[i] as i64 + d;
                if wrap {
                    let (wrapped, off) = if raw < 0 {
                        (raw + g, -1i8)
                    } else if raw >= g {
                        (raw - g, 1i8)
                    } else {
                        (raw, 0i8)
                    };
                    ncoords[i] = wrapped as u64;
                    offs[i] = off;
                } else {
                    if raw < 0 || raw >= g {
                        valid = false;
                        break;
                    }
                    ncoords[i] = raw as u64;
                }
            }
            if valid {
                f(ncoords, offs);
            }
        }
    }
}

/// Pick the deepest grid whose cell side is at least `min_side`, capped at
/// `max_levels`. This realizes the paper's "cell side length
/// max(r, n^{-1/d})" rule: the grid refines only while cells stay larger
/// than the interaction radius.
pub fn levels_for_min_side(min_side: f64, max_levels: u32) -> u32 {
    let mut levels = 0u32;
    while levels < max_levels && 1.0 / (1u64 << (levels + 1)) as f64 >= min_side {
        levels += 1;
    }
    levels
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_of_boundaries() {
        let g: CellGrid<2> = CellGrid::new(2); // 4x4
        assert_eq!(g.cell_of(&[0.0, 0.0]), [0, 0]);
        assert_eq!(g.cell_of(&[0.26, 0.74]), [1, 2]);
        assert_eq!(g.cell_of(&[0.999_999, 0.999_999]), [3, 3]);
    }

    #[test]
    fn bounds_cover_cell() {
        let g: CellGrid<3> = CellGrid::new(3);
        let (lo, hi) = g.cell_bounds([1, 2, 7]);
        assert_eq!(lo[0], 0.125);
        assert_eq!(hi[0], 0.25);
        assert_eq!(lo[2], 0.875);
        assert_eq!(hi[2], 1.0);
    }

    #[test]
    fn neighbor_count_interior() {
        let g: CellGrid<2> = CellGrid::new(3);
        let mut count = 0;
        g.for_neighbors([4, 4], false, &mut |_, _| count += 1);
        assert_eq!(count, 9);
        let g3: CellGrid<3> = CellGrid::new(3);
        let mut count3 = 0;
        g3.for_neighbors([4, 4, 4], false, &mut |_, _| count3 += 1);
        assert_eq!(count3, 27);
    }

    #[test]
    fn neighbor_count_corner_clamped() {
        let g: CellGrid<2> = CellGrid::new(3);
        let mut count = 0;
        g.for_neighbors([0, 0], false, &mut |_, _| count += 1);
        assert_eq!(count, 4);
    }

    #[test]
    fn neighbor_wrap_offsets() {
        let g: CellGrid<2> = CellGrid::new(2); // 4x4
        let mut seen = Vec::new();
        g.for_neighbors([0, 3], true, &mut |c, o| seen.push((c, o)));
        assert_eq!(seen.len(), 9, "torus always has 3^d neighbors");
        // The neighbor "left and up" wraps both axes.
        assert!(seen.contains(&([3, 0], [-1i8, 1i8])));
        // The identity offset is present.
        assert!(seen.contains(&([0, 3], [0i8, 0i8])));
    }

    #[test]
    fn levels_for_min_side_rule() {
        // side >= r: for r = 0.1 the deepest grid is 8 cells/dim (side 0.125).
        assert_eq!(levels_for_min_side(0.1, 30), 3);
        // r > 0.5: a single cell.
        assert_eq!(levels_for_min_side(0.6, 30), 0);
        // Cap respected.
        assert_eq!(levels_for_min_side(1e-12, 5), 5);
    }

    #[test]
    fn morton_roundtrip_via_grid() {
        let g: CellGrid<2> = CellGrid::new(4);
        for code in 0..g.num_cells() {
            assert_eq!(g.morton_of(g.coords_of(code)), code);
        }
    }
}

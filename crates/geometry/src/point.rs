//! Fixed-dimension points in the unit cube `[0,1)^d`.

use crate::grid::CellBox;

/// A point in `d`-dimensional space.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Point<const D: usize>(pub [f64; D]);

impl<const D: usize> Point<D> {
    /// Coordinate accessor.
    #[inline]
    pub fn coord(&self, i: usize) -> f64 {
        self.0[i]
    }

    /// Squared Euclidean distance.
    #[inline]
    pub fn dist2(&self, other: &Self) -> f64 {
        let mut acc = 0.0;
        for i in 0..D {
            let d = self.0[i] - other.0[i];
            acc += d * d;
        }
        acc
    }

    /// Squared distance to the closed box `[lo, hi]`: per axis the gap
    /// `max(lo − x, x − hi, 0)`, squared and summed in [`Self::dist2`]'s
    /// axis order. No branch depends on the coordinates.
    ///
    /// **Lower bound, bit for bit.** For every `q` with `lo ≤ q ≤ hi`
    /// componentwise, `self.box_dist2(&(lo, hi)) <= self.dist2(&q)` holds
    /// in floating point, not only in the reals. Per axis with `x < lo ≤
    /// q` (the case `x > hi` is its mirror): `q − x ≥ lo − x > 0` in the
    /// reals, and rounding to nearest is monotone, so `fl(lo − x) ≤
    /// fl(q − x)`; the other two candidates of the `max` are ≤ 0, so the
    /// gap is `fl(lo − x)`. `dist2` forms `fl(x − q)`, and rounding is
    /// symmetric, `fl(x − q) = −fl(q − x)`, so its square is `fl(fl(q −
    /// x)²)`. With `lo ≤ x ≤ hi` the gap is 0. Squaring a non-negative
    /// number and adding non-negative numbers are monotone under rounding
    /// too, and both sums start at 0.0 and add the axes in the same
    /// order with separate multiplies and adds (no `mul_add` on one side
    /// only), so the bound survives every step. A grid cell's box has
    /// exact edges `k · 2^−L`, and every point generated in it lies in the
    /// closed box (`lo + side · u` with `0 ≤ u < 1` rounds into `[lo,
    /// hi]`), so `box_dist2 > r²` proves that no point of the cell is
    /// within `r`.
    #[inline]
    pub fn box_dist2(&self, (lo, hi): &CellBox<D>) -> f64 {
        let mut acc = 0.0;
        for i in 0..D {
            let x = self.0[i];
            let gap = (lo[i] - x).max(x - hi[i]).max(0.0);
            acc += gap * gap;
        }
        acc
    }

    /// Euclidean distance.
    #[inline]
    pub fn dist(&self, other: &Self) -> f64 {
        self.dist2(other).sqrt()
    }

    /// Translate by an integer offset vector (replica copies for periodic
    /// triangulations).
    #[inline]
    pub fn offset(&self, o: [i8; D]) -> Self {
        let mut c = self.0;
        for i in 0..D {
            c[i] += o[i] as f64;
        }
        Point(c)
    }
}

/// 2D shorthand.
pub type Point2 = Point<2>;
/// 3D shorthand.
pub type Point3 = Point<3>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euclidean_distance() {
        let a = Point([0.0, 0.0]);
        let b = Point([3.0, 4.0]);
        assert!((a.dist(&b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn offset_replicas() {
        let p = Point([0.25, 0.75]);
        let q = p.offset([-1, 1]);
        assert_eq!(q.0, [-0.75, 1.75]);
    }
}

//! The RGG pair kernel's row bound is exact: for a point `p` anywhere in
//! its grid cell and any `q` in the closed box of that cell or of an
//! adjacent one, `p.box_dist2(box) <= p.dist2(q)` holds bit for bit in
//! floating point. `q` sits on the box faces (`lo`, `hi`), one ulp inside
//! them (`next_up(lo)`, `next_down(hi)`) or anywhere between, per axis,
//! at every grid depth the generators use (up to 2^24 cells per side in
//! 2-D, 2^16 in 3-D).

use kagen_repro::geometry::{CellGrid, Point};
use kagen_repro::util::{Mt64, Rng64};
use proptest::prelude::*;

/// A coordinate of the closed interval `[lo, hi]`: a face, one ulp
/// inside a face, or uniform in between, by `pick`.
fn coordinate(lo: f64, hi: f64, pick: u64, u: f64) -> f64 {
    match pick % 5 {
        0 => lo,
        1 => hi,
        2 => lo.next_up(),
        3 => hi.next_down(),
        _ => lo + (hi - lo) * u,
    }
}

fn bound_holds<const D: usize>(levels: u32, seed: u64) {
    let grid = CellGrid::<D>::new(levels);
    let mut rng = Mt64::new(seed);
    let g = grid.cells_per_dim();
    let cell: [u64; D] = std::array::from_fn(|_| rng.next_u64() % g);
    let own = grid.cell_bounds(cell);
    let p = Point(std::array::from_fn(|i| {
        coordinate(own.0[i], own.1[i], rng.next_u64(), rng.next_f64())
    }));
    assert_eq!(p.box_dist2(&own), 0.0, "p lies in its own box");
    // Every neighbour the grid has, p's own cell included.
    grid.for_neighbors(cell, false, &mut |ncoords, _| {
        let bounds = grid.cell_bounds(ncoords);
        let bound = p.box_dist2(&bounds);
        for _ in 0..16 {
            let q = Point(std::array::from_fn(|i| {
                coordinate(bounds.0[i], bounds.1[i], rng.next_u64(), rng.next_f64())
            }));
            let exact = p.dist2(&q);
            assert!(
                bound <= exact,
                "box_dist2 {bound:e} > dist2 {exact:e}: p {p:?} q {q:?} box {bounds:?}"
            );
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    #[test]
    fn box_bound_is_exact_2d(levels in 0u32..=24, seed in any::<u64>()) {
        bound_holds::<2>(levels, seed);
    }

    #[test]
    fn box_bound_is_exact_3d(levels in 0u32..=16, seed in any::<u64>()) {
        bound_holds::<3>(levels, seed);
    }
}

/// The bound is tight where it must be: a point on a face shared with
/// the neighbour is at box distance 0 from it, and one ulp away on the
/// far side of an empty gap it is positive.
#[test]
fn box_bound_touches_shared_faces() {
    let grid = CellGrid::<2>::new(3);
    let right = grid.cell_bounds([4, 2]);
    let on_face = Point([0.5, 0.3]);
    assert_eq!(on_face.box_dist2(&right), 0.0);
    let inside_left = Point([0.5f64.next_down(), 0.3]);
    assert!(inside_left.box_dist2(&right) > 0.0);
    let q = Point([0.5, 0.3]);
    assert_eq!(inside_left.box_dist2(&right), inside_left.dist2(&q));
}

//! Random geometric graphs in 2D and 3D (§5).
//!
//! `n` points uniform in `[0,1)^d`; vertices are adjacent iff their
//! Euclidean distance is at most `r`. The grid of cells with side
//! `max(r, n^{-1/d})` restricts candidate pairs to the 3^d neighborhood.
//!
//! Distribution: cells are ordered by Morton rank and grouped into
//! `2^(d·b)` chunks (aligned Morton ranges — i.e. sub-squares/cubes of
//! cells, assigned Z-order as in §5.1). A PE generates its own cells plus
//! the one-cell-deep *halo* around its chunk by recomputation; no
//! communication, and the recomputed points are bit-identical to their
//! owners' copies because the per-cell PRNG is seeded by the cell id.
//!
//! Vertex ids are global Morton-prefix sums over cell counts. A PE's
//! [`GridCells`] holds them for its own cells and derives a halo cell's
//! with one count-tree descent; every cell a PE touches is generated
//! once.
//!
//! Pairs: a centre cell meets itself and each neighbour through one
//! branch-free kernel, [`cell_pairs`], so the pair test is written once.

use crate::streaming::{BatchEmit, Batcher};
use crate::{Generator, PeGraph};
use kagen_geometry::cell_stream::record_held;
use kagen_geometry::grid::levels_for_min_side;
use kagen_geometry::{CellBox, FrontierStats, GridCells, Point};
use std::collections::BTreeMap;

/// Shared implementation for both dimensions.
#[derive(Clone, Debug)]
pub struct Rgg<const D: usize> {
    n: u64,
    radius: f64,
    seed: u64,
    chunk_levels: u32,
}

/// 2D random geometric graph.
pub type Rgg2d = Rgg<2>;
/// 3D random geometric graph.
pub type Rgg3d = Rgg<3>;

impl<const D: usize> Rgg<D> {
    /// `n` points, connection radius `radius`.
    pub fn new(n: u64, radius: f64) -> Self {
        assert!(D == 2 || D == 3);
        assert!(n >= 1);
        assert!(radius > 0.0 && radius < 1.0, "radius must be in (0,1)");
        Rgg {
            n,
            radius,
            seed: 1,
            chunk_levels: 2, // 2^(2·2)=16 chunks in 2D, 64 in 3D
        }
    }

    /// The usual connectivity-threshold radius
    /// `0.55 · (ln n / n)^{1/d} / P^{1/d}` scaled for `pes` (§8.4).
    pub fn threshold_radius(n: u64, pes: u64) -> f64 {
        let nf = (n as f64).max(2.0);
        0.55 * (nf.ln() / nf).powf(1.0 / D as f64) / (pes as f64).powf(1.0 / D as f64)
    }

    /// Set the instance seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Request ~`chunks` logical PEs; rounded down to a power of `2^d`
    /// and capped so every chunk contains at least one cell.
    pub fn with_chunks(mut self, chunks: usize) -> Self {
        self.chunk_levels = GridCells::<D>::chunk_levels(chunks);
        self
    }

    /// Refinement of the cell grid: side `max(r, n^{-1/d})`, snapped to
    /// powers of two.
    fn grid_levels(&self) -> u32 {
        let natural = (self.n as f64).powf(-1.0 / D as f64);
        let min_side = self.radius.max(natural);
        let max_levels: u32 = if D == 2 { 24 } else { 16 };
        levels_for_min_side(min_side, max_levels)
    }

    /// PE `pe`'s cell source.
    fn cells(&self, pe: usize) -> GridCells<D> {
        GridCells::new(self.seed, self.n, self.grid_levels(), self.chunk_levels, pe)
    }

    /// The streaming core: sweep the PE's cells in Morton order and
    /// enumerate candidate pairs over each centre cell's 3^d
    /// neighborhood. A neighbor's points are generated the first time a
    /// centre asks for them and held — a cell of the PE's range until it
    /// has been the centre (no later centre references it: its pairs
    /// with larger Morton neighbors are processed there and then), a
    /// halo cell to the end of the PE. What is held is the sweep's
    /// frontier plus the halo ring, O(chunk perimeter) cells — never the
    /// chunk, never the PE's edges.
    ///
    /// Stream order: within-cell pairs first, then the 3^d neighbors in
    /// enumeration order; local–local cell pairs are processed once (at
    /// the smaller Morton rank), local–halo pairs always (the neighbor
    /// PE emits its own copy; merge deduplicates). Each cell pair is
    /// one [`cell_pairs`] call, which reports rows in ascending centre
    /// index and hits in ascending candidate index. The returned
    /// accounting is what the memory-regression tests read and what the
    /// `geo.*` metrics record ([`record_held`]).
    pub fn stream_cells(&self, pe: usize, emit: &mut impl FnMut(u64, u64)) -> FrontierStats {
        let mut source = self.cells(pe);
        let grid = *source.grid();
        let r2 = self.radius * self.radius;
        // Generated cells a later centre references: first id and points.
        let mut held: BTreeMap<u64, (u64, Vec<Point<D>>)> = BTreeMap::new();
        let mut held_points = 0u64;
        for cell in source.range() {
            let mut pts = held.remove(&cell).map_or(Vec::new(), |(_, pts)| pts);
            let (first, count) = source.cell(cell);
            if count == 0 {
                continue;
            }
            if pts.is_empty() {
                source.points(cell, &mut pts);
            } else {
                held_points -= count;
            }
            cell_pairs(&pts, None, r2, |w| {
                for j in w.hits() {
                    emit(first + w.row as u64, first + j as u64);
                }
            });
            grid.for_neighbors(grid.coords_of(cell), false, &mut |ncoords, _| {
                let ncell = grid.morton_of(ncoords);
                if ncell == cell || (source.contains(ncell) && ncell < cell) {
                    return;
                }
                let (nfirst, npts) = held.entry(ncell).or_insert_with(|| {
                    let mut npts = Vec::new();
                    let (nfirst, count) = source.points(ncell, &mut npts);
                    held_points += count;
                    (nfirst, npts)
                });
                let bounds = grid.cell_bounds(ncoords);
                cell_pairs(&pts, Some((npts, &bounds)), r2, |w| {
                    for j in w.hits() {
                        emit(first + w.row as u64, *nfirst + j as u64);
                    }
                });
            });
            source.note_held(held_points + pts.len() as u64);
        }
        let stats = source.stats();
        record_held(stats);
        stats
    }
}

/// Candidates per hit mask: the bits of one `u64`.
const WORD: usize = 64;

/// One row of the pair kernel over up to 64 consecutive candidates:
/// bit `b` of `mask` is set iff candidate `first + b` lies within `r`
/// of centre point `row`.
#[derive(Clone, Copy, Debug)]
struct HitWord {
    /// Index of the centre point.
    row: usize,
    /// Index of the word's first candidate.
    first: usize,
    /// One hit bit per candidate.
    mask: u64,
}

impl HitWord {
    /// The candidates hit, in ascending order.
    #[inline]
    fn hits(self) -> impl Iterator<Item = usize> {
        set_bits(self.mask, self.first)
    }
}

/// The indices of the set bits of `mask`, ascending, offset by `first`.
#[inline]
fn set_bits(mut mask: u64, first: usize) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if mask == 0 {
            return None;
        }
        let lane = mask.trailing_zeros() as usize;
        mask &= mask - 1;
        Some(first + lane)
    })
}

/// Bit `b` of the result is `test(&items[b])`, for up to [`WORD`]
/// items; no branch depends on a test.
#[inline]
fn lane_mask<T>(items: &[T], test: impl Fn(&T) -> bool) -> u64 {
    let mut mask = 0;
    for (lane, x) in items.iter().enumerate() {
        mask |= u64::from(test(x)) << lane;
    }
    mask
}

/// The RGG pair kernel of [`Rgg::stream_cells`]: every pair of a centre
/// cell's points with a candidate cell's points, reported to `f` as
/// [`HitWord`]s — rows in ascending centre
/// index, words in ascending candidate index. With `other = None` the
/// candidates of row `i` are the centre's own points `j > i`; with
/// `Some((points, bounds))` they are `points`, the cell whose closed box
/// is `bounds`.
///
/// Two things keep mispredicted branches out of it, and neither moves a
/// pair or its order:
///
/// * **Hit masks.** A row tests up to 64 candidates into a `u64`
///   (one `dist2 <= r2` per lane, no branch on the outcome) and its
///   hits are walked as set bits in ascending j.
/// * **Exact row bound.** Against another cell, centre point `p` is a
///   row only if [`Point::box_dist2`] from `p` to the cell's box is at
///   most `r2`. Those rows are themselves a bit mask, one box test per
///   centre point, walked in ascending i: a row that is skipped costs no
///   branch. The bound is exact, not a heuristic: `box_dist2(p, C) <=
///   p.dist2(q)` bit for bit for every `q` the box holds (the proof is
///   at [`Point::box_dist2`]), and every point of a cell lies in its
///   closed box, so every skipped row holds only pairs that
///   `dist2 <= r2` rejects.
///
/// Within a cell the box distance is 0 and every row is tested.
fn cell_pairs<const D: usize>(
    centre: &[Point<D>],
    other: Option<(&[Point<D>], &CellBox<D>)>,
    r2: f64,
    mut f: impl FnMut(HitWord),
) {
    let mut row = |i: usize, candidates: &[Point<D>], first: usize| {
        let p = &centre[i];
        for (w, word) in candidates.chunks(WORD).enumerate() {
            f(HitWord {
                row: i,
                first: first + w * WORD,
                mask: lane_mask(word, |q| p.dist2(q) <= r2),
            });
        }
    };
    match other {
        None => {
            for i in 0..centre.len() {
                row(i, &centre[i + 1..], i + 1);
            }
        }
        Some((points, bounds)) => {
            for (w, word) in centre.chunks(WORD).enumerate() {
                let rows = lane_mask(word, |p| p.box_dist2(bounds) <= r2);
                for i in set_bits(rows, w * WORD) {
                    row(i, points, 0);
                }
            }
        }
    }
}

impl<const D: usize> Generator for Rgg<D> {
    fn num_vertices(&self) -> u64 {
        self.n
    }

    fn num_chunks(&self) -> usize {
        GridCells::<D>::num_chunks(self.grid_levels(), self.chunk_levels)
    }

    fn directed(&self) -> bool {
        false
    }

    /// The Morton sweep of [`Rgg::stream_cells`]: memory is the sweep
    /// frontier and the halo ring.
    fn stream_pe_batched(&self, pe: usize, buf: &mut Vec<(u64, u64)>, emit: &mut BatchEmit) {
        Batcher::run(buf, emit, |b| {
            self.stream_cells(pe, &mut |u, v| b.push(u, v));
        });
    }

    fn pe_vertices(&self, pe: usize) -> PeGraph {
        let mut source = self.cells(pe);
        let mut out = PeGraph {
            pe,
            vertex_begin: source.first_id(),
            vertex_end: source.end_id(),
            ..PeGraph::default()
        };
        // Coordinates of local vertices, ids from the source's prefixes.
        let mut pts = Vec::new();
        for cell in source.range() {
            pts.clear();
            let (first, _) = source.points(cell, &mut pts);
            for (id, p) in (first..).zip(&pts) {
                match D {
                    2 => out.coords2.push((id, [p.0[0], p.0[1]])),
                    3 => out.coords3.push((id, [p.0[0], p.0[1], p.0[2]])),
                    _ => unreachable!(),
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate_parallel, generate_undirected};
    use kagen_geometry::CellGrid;

    /// Brute-force reference: all-pairs distance check over the actual
    /// point set (reconstructed from the generator's own coordinates).
    fn brute_force(parts: &[PeGraph], n: u64, r: f64) -> Vec<(u64, u64)> {
        let mut pts: Vec<(u64, Vec<f64>)> = Vec::new();
        for p in parts {
            for &(id, c) in &p.coords2 {
                pts.push((id, c.to_vec()));
            }
            for &(id, c) in &p.coords3 {
                pts.push((id, c.to_vec()));
            }
        }
        pts.sort_by_key(|x| x.0);
        pts.dedup_by_key(|x| x.0);
        assert_eq!(pts.len() as u64, n, "every vertex must have coordinates");
        let mut edges = Vec::new();
        for i in 0..pts.len() {
            for j in (i + 1)..pts.len() {
                let d2: f64 = pts[i]
                    .1
                    .iter()
                    .zip(&pts[j].1)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum();
                if d2 <= r * r {
                    edges.push((pts[i].0, pts[j].0));
                }
            }
        }
        edges.sort_unstable();
        edges
    }

    #[test]
    fn matches_brute_force_2d() {
        let gen = Rgg2d::new(400, 0.08).with_seed(3).with_chunks(16);
        let parts = generate_parallel(&gen, 0);
        let merged = generate_undirected(&gen);
        let reference = brute_force(&parts, 400, 0.08);
        assert_eq!(merged.edges, reference);
        // Side 0.125: r/side 0.5, 0.99 and 1.0 (the box bound at its
        // tightest).
        box_bound_rows::<2>(&[
            (100, 0.0625, 0.5),
            (400, 0.99 / 8.0, 0.99),
            (400, 0.125, 1.0),
        ]);
    }

    #[test]
    fn matches_brute_force_3d() {
        let gen = Rgg3d::new(300, 0.15).with_seed(5).with_chunks(8);
        let parts = generate_parallel(&gen, 0);
        let merged = generate_undirected(&gen);
        let reference = brute_force(&parts, 300, 0.15);
        assert_eq!(merged.edges, reference);
        // Side 0.25.
        box_bound_rows::<3>(&[(300, 0.125, 0.5), (300, 0.99 / 4.0, 0.99), (300, 0.25, 1.0)]);
    }

    /// `(n, r, r / cell side)` rows against the brute force at chunks 1
    /// and 16; the ratio is asserted so a row keeps testing what it
    /// names.
    fn box_bound_rows<const D: usize>(rows: &[(u64, f64, f64)]) {
        for &(n, r, ratio) in rows {
            for chunks in [1, 16] {
                let gen = Rgg::<D>::new(n, r).with_seed(9).with_chunks(chunks);
                assert_eq!(r / CellGrid::<D>::new(gen.grid_levels()).cell_side(), ratio);
                let reference = brute_force(&generate_parallel(&gen, 0), n, r);
                assert_eq!(
                    generate_undirected(&gen).edges,
                    reference,
                    "n={n} r={r} c={chunks}"
                );
            }
        }
    }

    #[test]
    fn chunk_invariance() {
        // The instance (vertex ids AND edges) is identical for any chunking.
        let a = generate_undirected(&Rgg2d::new(500, 0.05).with_seed(7).with_chunks(1));
        let b = generate_undirected(&Rgg2d::new(500, 0.05).with_seed(7).with_chunks(16));
        let c = generate_undirected(&Rgg2d::new(500, 0.05).with_seed(7).with_chunks(64));
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn vertex_ids_partition_range() {
        let gen = Rgg2d::new(1000, 0.03).with_seed(1).with_chunks(16);
        let parts = generate_parallel(&gen, 0);
        let mut ranges: Vec<(u64, u64)> = parts
            .iter()
            .map(|p| (p.vertex_begin, p.vertex_end))
            .collect();
        ranges.sort_unstable();
        assert_eq!(ranges[0].0, 0);
        assert_eq!(ranges.last().unwrap().1, 1000);
        for w in ranges.windows(2) {
            assert_eq!(w[0].1, w[1].0, "gaps/overlap in id ranges");
        }
    }

    #[test]
    fn expected_edge_count_2d() {
        // E[m] ≈ n²·π·r²/2 (interior approximation; generous tolerance for
        // the boundary deficit).
        let n = 4000u64;
        let r = 0.02;
        let el = generate_undirected(&Rgg2d::new(n, r).with_seed(11));
        let expect = (n as f64) * (n as f64) * std::f64::consts::PI * r * r / 2.0;
        let got = el.edges.len() as f64;
        assert!(
            got > 0.75 * expect && got < 1.1 * expect,
            "edges {got} vs expected {expect}"
        );
    }

    #[test]
    fn halo_recomputation_bit_identical() {
        // A vertex emitted with coordinates by its owner must induce the
        // same cross edges on the neighboring PE.
        let gen = Rgg2d::new(600, 0.09).with_seed(13).with_chunks(16);
        let parts = generate_parallel(&gen, 0);
        // Each cross edge (u local to A, v local to B) must appear in both
        // A's and B's output.
        use std::collections::HashSet;
        let owner = |id: u64| {
            parts
                .iter()
                .position(|p| (p.vertex_begin..p.vertex_end).contains(&id))
                .unwrap()
        };
        let sets: Vec<HashSet<(u64, u64)>> = parts
            .iter()
            .map(|p| p.edges.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect())
            .collect();
        for (pe, set) in sets.iter().enumerate() {
            for &(u, v) in set {
                let (ou, ov) = (owner(u), owner(v));
                if ou != ov {
                    let other = if ou == pe { ov } else { ou };
                    assert!(
                        sets[other].contains(&(u, v)),
                        "cross edge ({u},{v}) missing from PE {other}"
                    );
                }
            }
        }
    }

    #[test]
    fn isolated_regime() {
        // Tiny radius: few or no edges, but everything still consistent.
        let el = generate_undirected(&Rgg2d::new(100, 0.001).with_seed(2));
        assert!(el.edges.len() < 5);
        assert!(!el.has_out_of_range());
    }

    #[test]
    fn large_radius_regime() {
        // Radius close to the cube diagonal: nearly complete graph.
        let n = 60u64;
        let el = generate_undirected(&Rgg2d::new(n, 0.9).with_seed(4));
        let complete = n * (n - 1) / 2;
        assert!(
            el.edges.len() as u64 > complete * 8 / 10,
            "{} of {complete}",
            el.edges.len()
        );
    }
}

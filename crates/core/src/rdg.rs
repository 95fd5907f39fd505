//! Random Delaunay graphs in 2D and 3D (§6).
//!
//! Points are sampled uniformly in the unit cube with the same cell/count
//! infrastructure as the RGG generator, with cell side ≈ ((d+1)/n)^{1/d}
//! (the mean (d+1)-th-nearest-neighbor distance, \[37\]). The output graph is
//! the Delaunay triangulation of the point set on the *d-torus* (§2.1.4
//! periodic boundary conditions), realized by triangulating
//! integer-offset replicas of wrapped halo cells.
//!
//! Each PE triangulates a box of cells — its whole chunk when
//! materializing, an aligned block of at most `BLOCK` cells per side at a
//! time when streaming — plus a halo of surrounding cell rings; the halo
//! grows until (a) no box point lies in a simplex touching the
//! artificial super-vertices and (b) every simplex containing a box
//! point has its circumsphere strictly inside box+halo
//! (`certified_box`). Both conditions certify the box's simplices
//! against the full periodic point set, so the union over PEs is exactly
//! the global periodic Delaunay graph. A halo cell's points are
//! recomputed from `(seed, cell)` for every box that needs them — the
//! paper's trade — and no point outlives its box; where a cell's ids
//! start is the PE's [`GridCells`]' business (held for its own cells,
//! one count-tree descent for a cell of another PE).

use crate::streaming::{BatchEmit, Batcher};
use crate::{Generator, PeGraph};
use kagen_delaunay::Mesh;
use kagen_geometry::grid::levels_for_min_side;
use kagen_geometry::{FrontierStats, GridCells, Point};
use kagen_obs::Counter;

/// Points handed to a triangulation, summed over certification attempts —
/// against the edges emitted, the work a box's halo and its retries add.
static GEO_DELAUNAY_INSERTS: Counter = Counter::new("geo.delaunay_inserts");
/// Triangulations built (one per certification attempt).
static GEO_DELAUNAY_ATTEMPTS: Counter = Counter::new("geo.delaunay_attempts");

/// Cells, as a power of two, of the blocks [`Rdg::stream_cells`]
/// triangulates: `BLOCK_BITS / D` bits per side, i.e. 16 × 16 cells in
/// 2-D and 8 × 8 × 8 in 3-D. A block of side B pays for a halo of
/// (B + 2h)^D − B^D cells, each recomputed, so CPU time falls with B
/// while the working set grows with B^D. Measured on one core before the
/// count-tree prefixes of a PE's own cells were held (a halo cell then
/// cost two tree descents besides its points), `kagen stream -c 1`, CPU
/// seconds / most points held:
///
/// | side | rdg2d n = 200 000, 3 per cell | rdg2d n = 40 000, 10 | rdg3d n = 64 000, 16 |
/// |-----:|------------------------------:|---------------------:|---------------------:|
/// |    4 |                  4.03 /   338 |        0.150 /   638 |       1.85 /   8 191 |
/// |    8 |                  1.96 /   619 |        0.096 / 1 437 |       1.40 /  27 301 |
/// |   16 |                  1.09 / 1 519 |        0.069 / 3 930 |       1.05 / 124 881 |
/// |   32 |                  0.65 / 4 426 |        0.061 / 12 594 |         (whole grid) |
/// |   64 |                  0.49 / 14 945 |        (whole grid) |                      |
///
/// Each doubling buys less than the one before and costs 3–4× the
/// points (in 3-D, 77 MB of process at 16 against 20 at 8): these sides
/// keep a block with its halo at a few thousand points in 2-D and a few
/// ten thousand in 3-D, whatever n/P is.
const BLOCK_BITS: u32 = 9;

/// Shared implementation for both dimensions.
#[derive(Clone, Debug)]
pub struct Rdg<const D: usize> {
    n: u64,
    seed: u64,
    chunk_levels: u32,
}

/// 2D random Delaunay graph (planar triangulation on the torus).
pub type Rdg2d = Rdg<2>;
/// 3D random Delaunay graph (tetrahedral mesh on the torus).
pub type Rdg3d = Rdg<3>;

impl<const D: usize> Rdg<D> {
    /// `n` points uniform on the unit d-torus.
    pub fn new(n: u64) -> Self {
        assert!(D == 2 || D == 3);
        assert!(n >= D as u64 + 2, "need at least d+2 points");
        Rdg {
            n,
            seed: 1,
            chunk_levels: 1,
        }
    }

    /// Set the instance seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Request ~`chunks` logical PEs (rounded down to a power of 2^d,
    /// capped by the grid refinement).
    pub fn with_chunks(mut self, chunks: usize) -> Self {
        self.chunk_levels = GridCells::<D>::chunk_levels(chunks);
        self
    }

    /// Refinement of the cell grid: side ≈ ((d+1)/n)^{1/d} (§6), snapped
    /// to powers of two.
    fn grid_levels(&self) -> u32 {
        let c = ((D as f64 + 1.0) / self.n as f64).powf(1.0 / D as f64);
        levels_for_min_side(c, if D == 2 { 24 } else { 16 })
    }

    /// PE `pe`'s cell source.
    fn cells(&self, pe: usize) -> GridCells<D> {
        GridCells::new(self.seed, self.n, self.grid_levels(), self.chunk_levels, pe)
    }

    /// Append the points (translated by an integer replica offset) and
    /// global ids of one wrapped cell.
    fn cell_with_offset(
        source: &mut GridCells<D>,
        wrapped: [u64; D],
        offset: [i64; D],
        out_pts: &mut Vec<Point<D>>,
        out_ids: &mut Vec<u64>,
    ) {
        let start = out_pts.len();
        let (first, count) = source.points(source.grid().morton_of(wrapped), out_pts);
        for p in &mut out_pts[start..] {
            for (x, o) in p.0.iter_mut().zip(offset) {
                *x += o as f64;
            }
        }
        out_ids.extend(first..first + count);
    }

    /// Block-by-block streaming (§6 over the cell cursor): the PE's
    /// Morton range is cut into aligned cubes of at most `2^BLOCK_BITS`
    /// cells, each goes through `certified_box`, and of a block's edges
    /// the stream keeps those it *owns*: the normalized edge `(x, y)`
    /// belongs to `x` if `x` is PE-local, else to `y`. Ownership is a pure
    /// function of the ids, so each edge with a local endpoint is emitted
    /// exactly once per PE without any cross-block dedup state. A block's
    /// edges leave ordered by (owner's cell, x, y) — cell by cell in
    /// Morton order, sorted within a cell, whatever the block size.
    /// Memory is one block with its halo, never the chunk. Returns the
    /// cells generated (block and halo), the count-tree nodes drawn and
    /// the most points one block held with its halo; no point is held
    /// between blocks.
    pub fn stream_cells(&self, pe: usize, emit: &mut impl FnMut(u64, u64)) -> FrontierStats {
        let max_side_bits = BLOCK_BITS / D as u32;
        Self::blocks(&mut self.cells(pe), max_side_bits, &mut |_, _| {}, emit)
    }

    /// The one engine: [`Self::stream_cells`] with blocks of at most
    /// `2^max_side_bits` cells per side, handing every non-empty cell's
    /// first id and points to `on_cell` as it is generated.
    fn blocks(
        source: &mut GridCells<D>,
        max_side_bits: u32,
        on_cell: &mut impl FnMut(u64, &[Point<D>]),
        emit: &mut impl FnMut(u64, u64),
    ) -> FrontierStats {
        let pe_ids = source.first_id()..source.end_id();
        // The range is a cube of cells; a block is one of at most the cap.
        let range_bits = (source.range().end - source.range().start).ilog2();
        let block_bits = (range_bits / D as u32).min(max_side_bits);
        let block_cells = 1u64 << (D as u32 * block_bits);
        // The block's points, their ids and their cells; then its halo's.
        let (mut pts, mut ids, mut cells) = (Vec::new(), Vec::new(), Vec::new());
        let mut owned = Vec::new();

        for cell in source.range() {
            let (first, count) = source.points(cell, &mut pts);
            if count > 0 {
                ids.extend(first..first + count);
                cells.resize(pts.len(), cell);
                on_cell(first, &pts[pts.len() - count as usize..]);
            }
            if (cell + 1) % block_cells != 0 {
                continue;
            }
            let Some(&block_first) = ids.first() else {
                continue;
            };
            let block_ids = block_first..block_first + ids.len() as u64;
            let origin = source.grid().coords_of(cell + 1 - block_cells);
            let (width, pts, ids) = (1 << block_bits, &mut pts, &mut ids);
            let edges = match D {
                2 => Self::certified_box::<3>(source, origin, width, pts, ids),
                _ => Self::certified_box::<4>(source, origin, width, pts, ids),
            };
            owned.extend(edges.into_iter().filter_map(|(x, y)| {
                let owner = if pe_ids.contains(&x) { x } else { y };
                let at = block_ids.contains(&owner).then(|| owner - block_first)?;
                Some((cells[at as usize], x, y))
            }));
            owned.sort_unstable();
            owned.dedup();
            for (_, x, y) in owned.drain(..) {
                emit(x, y);
            }
            pts.clear();
            ids.clear();
            cells.clear();
        }
        source.stats()
    }

    /// The one triangulate-and-certify routine (§6) behind both
    /// [`Rdg::stream_cells`] (box = a block of cells) and `generate_pe`
    /// (box = the chunk). The box is the cube of `width` cells per
    /// dimension at cell coordinate `origin`; its points and their global
    /// ids arrive in `pts`/`ids`. Ring `h` = 1, 2, … of surrounding cells
    /// — wrapped on the torus, and translated by the integer replica
    /// offset the wrap crossed, so rings may grow past one torus period —
    /// is appended, and inserted into the one triangulation, until box +
    /// halo certifies the box's simplices against the full periodic point
    /// set (`certified_edges`).
    ///
    /// Returns every Delaunay edge with an endpoint in the box as a
    /// normalized global-id pair (a point meeting its own replica is
    /// dropped), unsorted and possibly repeated through replicas. `K` is
    /// `D + 1`, the vertices of a simplex.
    fn certified_box<const K: usize>(
        source: &mut GridCells<D>,
        origin: [u64; D],
        width: i64,
        pts: &mut Vec<Point<D>>,
        ids: &mut Vec<u64>,
    ) -> Vec<(u64, u64)> {
        let g = source.grid().cells_per_dim() as i64;
        let side = source.grid().cell_side();
        let n_box = pts.len();
        // Box + `h` rings, in cells and in coordinates.
        let cells = |h: i64| {
            let lo = origin.map(|x| x as i64 - h);
            (lo, origin.map(|x| x as i64 + width - 1 + h))
        };
        let region = |h: i64| {
            let (lo, hi) = cells(h);
            (
                lo.map(|x| x as f64 * side),
                hi.map(|x| (x + 1) as f64 * side),
            )
        };
        let (lo, hi) = region(MAX_HALO);
        let mut dt = Mesh::<D, K>::with_bounds(lo, hi);
        let mut ring: Vec<[f64; D]> = Vec::new();
        for h in 1..=MAX_HALO {
            // Ring h: cells at Chebyshev distance exactly h around the box.
            let (lo, hi) = cells(h);
            enumerate_ring::<D>(&lo, &hi, &mut |raw| {
                let wrapped = raw.map(|x| x.rem_euclid(g) as u64);
                let offset = raw.map(|x| x.div_euclid(g));
                Self::cell_with_offset(source, wrapped, offset, pts, ids);
            });
            ring.clear();
            ring.extend(pts[dt.num_points()..].iter().map(|p| p.0));
            dt.extend(&ring);
            GEO_DELAUNAY_ATTEMPTS.incr();
            GEO_DELAUNAY_INSERTS.add(ring.len() as u64);
            let (lo, hi) = region(h);
            if let Some(edges) = certified_edges(&dt, n_box, &lo, &hi) {
                source.note_held(pts.len() as u64);
                return edges
                    .into_iter()
                    .map(|(a, b)| (ids[a as usize], ids[b as usize]))
                    .filter(|(x, y)| x != y)
                    .map(|(x, y)| (x.min(y), x.max(y)))
                    .collect();
            }
        }
        panic!("RDG halo exceeded {MAX_HALO} rings — degenerate point set");
    }
}

impl<const D: usize> Generator for Rdg<D> {
    fn num_vertices(&self) -> u64 {
        self.n
    }

    fn num_chunks(&self) -> usize {
        GridCells::<D>::num_chunks(self.grid_levels(), self.chunk_levels)
    }

    fn directed(&self) -> bool {
        false
    }

    /// Block-by-block triangulation ([`Rdg::stream_cells`]): memory is
    /// one block of cells plus its certified halo. The stream is ordered
    /// cell-by-cell (sorted within a cell); as a set it equals
    /// `generate_pe`'s sorted list.
    fn stream_pe_batched(&self, pe: usize, buf: &mut Vec<(u64, u64)>, emit: &mut BatchEmit) {
        Batcher::run(buf, emit, |b| {
            self.stream_cells(pe, &mut |u, v| b.push(u, v));
        });
    }

    /// The same engine with the chunk as its one block — `generate_pe`
    /// holds the chunk's edges anyway, and a block pays for its halo —
    /// collected and sorted: every edge incident to the chunk's vertices,
    /// once. Ids are global Morton prefix sums.
    fn generate_pe(&self, pe: usize) -> PeGraph {
        let mut out = PeGraph {
            pe,
            ..PeGraph::default()
        };
        let (mut coords2, mut coords3) = (Vec::new(), Vec::new());
        let mut on_cell = |first: u64, pts: &[Point<D>]| {
            for (id, p) in (first..).zip(pts) {
                match D {
                    2 => coords2.push((id, [p.0[0], p.0[1]])),
                    3 => coords3.push((id, [p.0[0], p.0[1], p.0[2]])),
                    _ => unreachable!(),
                }
            }
        };
        let mut source = self.cells(pe);
        (out.vertex_begin, out.vertex_end) = (source.first_id(), source.end_id());
        Self::blocks(&mut source, u32::MAX, &mut on_cell, &mut |u, v| {
            out.edges.push((u, v))
        });
        out.edges.sort_unstable();
        (out.coords2, out.coords3) = (coords2, coords3);
        out
    }
}

/// Halo rings `certified_box` may add before giving up, whatever the
/// grid size (a cap tied to the grid, `g − 1`, aborted small instances
/// whose halo has to wrap the torus more than once). Sixteen rings hold
/// at least two full torus periods around the box on grids of up to 8
/// cells per dimension, which bounds every empty circumsphere through a
/// box point; on larger grids they are ≥ 16 cells of ~(d+1) expected
/// points each. Running out therefore means a degenerate (e.g.
/// collinear) point set, not a small instance.
const MAX_HALO: i64 = 16;

/// Call `f` for every integer coordinate on the surface of the box
/// `[lo, hi]` (inclusive) — the next halo ring.
fn enumerate_ring<const D: usize>(lo: &[i64], hi: &[i64], f: &mut impl FnMut([i64; D])) {
    // Iterate the full box but only surface cells (any coordinate at a
    // bound). Box volumes here are small (halo rings).
    fn rec<const D: usize>(
        lo: &[i64],
        hi: &[i64],
        dim: usize,
        cur: &mut [i64; D],
        on_surface: bool,
        f: &mut impl FnMut([i64; D]),
    ) {
        if dim == D {
            if on_surface {
                f(*cur);
            }
            return;
        }
        let mut x = lo[dim];
        while x <= hi[dim] {
            cur[dim] = x;
            let surf = on_surface || x == lo[dim] || x == hi[dim];
            // Interior sweep shortcut: if not at a bound in this dim and
            // deeper dims can still hit bounds, recurse normally.
            rec::<D>(lo, hi, dim + 1, cur, surf, f);
            x += 1;
        }
    }
    let mut cur = [0i64; D];
    rec::<D>(lo, hi, 0, &mut cur, false, f);
}

/// The box's edges (vertex pairs with an endpoint below `n_box`, sorted
/// and deduplicated) if the triangulation certifies them: no simplex
/// with a box vertex touches a super-vertex or has a circumsphere
/// reaching outside `[lo, hi]`.
fn certified_edges<const D: usize, const K: usize>(
    dt: &Mesh<D, K>,
    n_box: usize,
    lo: &[f64],
    hi: &[f64],
) -> Option<Vec<(u32, u32)>> {
    let in_box = |v: u32| (v as usize) < n_box;
    let mut edges = Vec::new();
    for s in dt.simplices().filter(|s| s.iter().any(|&v| in_box(v))) {
        if s.iter().any(|&v| dt.is_super(v)) {
            return None; // a box point still touches the hull
        }
        let (c, r2) = dt.circumsphere(s);
        let r = r2.sqrt();
        if (0..D).any(|i| c[i] - r < lo[i] || c[i] + r > hi[i]) {
            return None;
        }
        for i in 0..K {
            for j in (i + 1)..K {
                if in_box(s[i]) || in_box(s[j]) {
                    edges.push((s[i].min(s[j]), s[i].max(s[j])));
                }
            }
        }
    }
    edges.sort_unstable();
    edges.dedup();
    Some(edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate_undirected;

    #[test]
    fn chunk_invariance_2d() {
        let a = generate_undirected(&Rdg2d::new(300).with_seed(3).with_chunks(1));
        let b = generate_undirected(&Rdg2d::new(300).with_seed(3).with_chunks(4));
        let c = generate_undirected(&Rdg2d::new(300).with_seed(3).with_chunks(16));
        assert_eq!(a, b, "1 vs 4 chunks");
        assert_eq!(a, c, "1 vs 16 chunks");
    }

    #[test]
    fn chunk_invariance_3d() {
        let a = generate_undirected(&Rdg3d::new(250).with_seed(5).with_chunks(1));
        let b = generate_undirected(&Rdg3d::new(250).with_seed(5).with_chunks(8));
        assert_eq!(a, b);
    }

    #[test]
    fn torus_degree_statistics_2d() {
        // On the torus there is no boundary: E = 3n exactly for a
        // triangulation of the torus (Euler characteristic 0), i.e. mean
        // degree exactly 6 — allow slack for rare cocircular ties.
        let n = 500u64;
        let el = generate_undirected(&Rdg2d::new(n).with_seed(7).with_chunks(4));
        let m = el.edges.len() as f64;
        assert!(
            (m - 3.0 * n as f64).abs() <= 3.0,
            "edges {m} vs 3n = {}",
            3 * n
        );
    }

    #[test]
    fn torus_degree_statistics_3d() {
        // Poisson–Delaunay in 3D: expected degree 2 + 48π²/35 ≈ 15.54.
        let n = 400u64;
        let el = generate_undirected(&Rdg3d::new(n).with_seed(9).with_chunks(1));
        let mean_deg = 2.0 * el.edges.len() as f64 / n as f64;
        assert!(
            (14.0..17.0).contains(&mean_deg),
            "mean degree {mean_deg} (expected ≈15.5)"
        );
    }

    #[test]
    fn connected_mesh() {
        let el = generate_undirected(&Rdg2d::new(400).with_seed(11).with_chunks(4));
        assert!(kagen_graph::components::is_connected(&el));
    }

    #[test]
    fn every_vertex_present() {
        let n = 300u64;
        let el = generate_undirected(&Rdg2d::new(n).with_seed(13).with_chunks(4));
        let deg = el.degrees_undirected();
        assert!(
            deg.iter().all(|&d| d >= 3),
            "torus Delaunay degree must be ≥ 3: {:?}",
            deg.iter()
                .enumerate()
                .filter(|(_, &d)| d < 3)
                .take(5)
                .collect::<Vec<_>>()
        );
    }
}

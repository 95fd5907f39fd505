//! Shared RHG instance structure (annuli → cells → points).
//!
//! * Vertex counts per annulus: a multinomial over the annulus masses,
//!   drawn from a globally seeded PRNG — identical on every PE (§7.1).
//! * Within an annulus: a power-of-two number of equal angular cells
//!   (expected ≈ 8 points per cell); counts assigned by a binary
//!   binomial-splitting tree with node-seeded PRNGs.
//! * Points of a cell: PRNG seeded by (annulus, cell); the angular
//!   coordinate is uniform in the cell, the radius is drawn by inverse-CDF
//!   conditioning on the annulus' radial interval.
//! * Vertex ids: annulus offset + left-sibling prefix inside the annulus
//!   tree + index in cell — all derivable by any PE without communication.
//!
//! The instance is a pure function of `(n, d̄, γ, seed)`; the number of PEs
//! does not enter (DESIGN.md: instance-vs-P decoupling).

use crate::PeGraph;
use kagen_dist::{binomial, multinomial};
use kagen_geometry::hyperbolic::{PrePoint, RhgSpace};
use kagen_geometry::{FrontierCache, FrontierStats};
use kagen_util::seed::stream;
use kagen_util::{derive_seed, Mt64, Rng64};
use std::collections::{BTreeMap, BTreeSet};

/// Target expected points per angular cell (the paper's tuning parameter c,
/// "typically 8", §7.2.1).
pub const POINTS_PER_CELL: u64 = 8;

/// The deterministic instance skeleton shared by RHG and sRHG.
#[derive(Debug)]
pub struct RhgInstance {
    /// Geometry (R, α, annuli bounds, …).
    pub space: RhgSpace,
    /// Instance seed.
    pub seed: u64,
    /// Vertices per annulus.
    pub ann_counts: Vec<u64>,
    /// Angular cells per annulus (powers of two).
    pub ann_cells: Vec<u64>,
    /// First global vertex id of each annulus (prefix sums).
    pub ann_offsets: Vec<u64>,
}

impl RhgInstance {
    /// Build the skeleton (cheap: O(#annuli) binomials).
    pub fn new(n: u64, avg_deg: f64, gamma: f64, seed: u64) -> Self {
        let space = RhgSpace::new(n, avg_deg, gamma);
        let k = space.num_annuli();
        let probs: Vec<f64> = (0..k).map(|i| space.annulus_prob(i)).collect();
        let mut rng = Mt64::new(derive_seed(seed, &[stream::HYP, 0]));
        let ann_counts = multinomial(&mut rng, n, &probs);
        let ann_cells: Vec<u64> = ann_counts
            .iter()
            .map(|&c| (c / POINTS_PER_CELL).max(1).next_power_of_two())
            .collect();
        let mut ann_offsets = Vec::with_capacity(k + 1);
        let mut acc = 0u64;
        for &c in &ann_counts {
            ann_offsets.push(acc);
            acc += c;
        }
        ann_offsets.push(acc);
        RhgInstance {
            space,
            seed,
            ann_counts,
            ann_cells,
            ann_offsets,
        }
    }

    /// Number of annuli.
    pub fn num_annuli(&self) -> usize {
        self.space.num_annuli()
    }

    /// Angular width of a cell in annulus `i`.
    #[inline]
    pub fn cell_width(&self, i: usize) -> f64 {
        std::f64::consts::TAU / self.ann_cells[i] as f64
    }

    /// Cell index containing angle `theta` in annulus `i`.
    #[inline]
    pub fn cell_of(&self, i: usize, theta: f64) -> u64 {
        let c = (theta / self.cell_width(i)) as u64;
        c.min(self.ann_cells[i] - 1)
    }

    /// (count, id-prefix) of cell `c` in annulus `i`, via the binary
    /// splitting tree. O(log cells) binomials.
    pub fn cell_count_prefix(&self, i: usize, c: u64) -> (u64, u64) {
        let cells = self.ann_cells[i];
        debug_assert!(c < cells);
        let mut count = self.ann_counts[i];
        let mut prefix = 0u64;
        let mut width = cells;
        let mut index = c;
        let mut level = 0u64;
        let mut rank = 0u64;
        while width > 1 {
            let node_seed = derive_seed(self.seed, &[stream::HYP, 1 + i as u64, level, rank]);
            let mut rng = Mt64::new(node_seed);
            let left = binomial(&mut rng, count as u128, 0.5);
            width /= 2;
            level += 1;
            if index < width {
                rank *= 2;
                count = left;
            } else {
                rank = rank * 2 + 1;
                prefix += left;
                count -= left;
                index -= width;
            }
        }
        (count, prefix)
    }

    /// Generate the points of cell `(i, c)` with precomputed adjacency
    /// terms and global ids. Deterministic; any PE can recompute any cell.
    pub fn cell_points(&self, i: usize, c: u64) -> Vec<PrePoint> {
        let (count, prefix) = self.cell_count_prefix(i, c);
        let width = self.cell_width(i);
        let theta_lo = c as f64 * width;
        let (r_lo, r_hi) = (self.space.bounds[i], self.space.bounds[i + 1]);
        let mut rng = Mt64::new(derive_seed(
            self.seed,
            &[stream::POINT, stream::HYP, i as u64, c],
        ));
        let base_id = self.ann_offsets[i] + prefix;
        (0..count)
            .map(|k| {
                let theta = theta_lo + width * rng.next_f64();
                let r = self.space.sample_radius_in(&mut rng, r_lo, r_hi);
                PrePoint::new(r, theta, base_id + k)
            })
            .collect()
    }

    /// The cells of annulus `i` overlapping the angular interval
    /// `[lo, hi]`, as `(first, count)` of the wrapped sequence
    /// `first, first+1, …` (mod `ann_cells[i]`). Each cell appears at
    /// most once; a full-circle interval covers every cell.
    pub fn overlap_range(&self, i: usize, lo: f64, hi: f64) -> (u64, u64) {
        let cells = self.ann_cells[i];
        let width = self.cell_width(i);
        if hi - lo >= std::f64::consts::TAU - 1e-12 {
            return (0, cells);
        }
        let lo_wrapped = lo.rem_euclid(std::f64::consts::TAU);
        let first = (lo_wrapped / width) as u64 % cells;
        let span = hi - lo;
        let count = ((span / width) as u64 + 2).min(cells);
        (first, count)
    }

    /// Call `f(cell)` for every cell of annulus `i` overlapping the angular
    /// interval `[lo, hi]` (handles wrap-around; each cell at most once).
    pub fn cells_overlapping(&self, i: usize, lo: f64, hi: f64, f: &mut impl FnMut(u64)) {
        let cells = self.ann_cells[i];
        let (first, count) = self.overlap_range(i, lo, hi);
        for k in 0..count {
            f((first + k) % cells);
        }
    }
}

/// Rank span of one local annulus in the query-stream sweep: local
/// sweep position `(annulus i, sector cell k)` maps to the monotone rank
/// `i · RANK_SPAN + k`, so retire ranks order totally across annuli.
/// Lookahead windows never exceed one full annulus of cells, which stays
/// far below the span.
const RANK_SPAN: u64 = 1 << 40;

/// The streaming, query-centric neighborhood pass shared by the
/// threshold ([`crate::rhg::Rhg`]) and binomial
/// ([`crate::rhg::SoftRhg`]) generators: iterate the PE's local vertices
/// in global-id order (annulus-major, cell-major — exactly how ids are
/// assigned), run each vertex's Δθ-bounded query through a
/// [`FrontierCache`] of recomputable cells, and emit `(v, u)` pairs with
/// `u` ascending per vertex. The concatenation is *identical* — order
/// included — to the sorted edge list the in-memory generators build,
/// while memory stays bounded by the active query window: a cached cell
/// retires as soon as the sweep has moved one lookahead window past it,
/// and is transparently recomputed if a later annulus queries it again.
///
/// Parameters: `dt(v, j)` is the angular query half-width of vertex `v`
/// into annulus `j` (Eq. 8 for the threshold model, the enlarged-radius
/// variant for the soft model); `dt_max(i, j)` an upper bound of `dt`
/// over all `v` in annulus `i` (for retire lookaheads — a wrong bound
/// costs recomputation, never correctness); `adjacent(u, v)` the exact
/// pair rule.
pub(crate) fn stream_pe_queries(
    inst: &RhgInstance,
    chunks: usize,
    pe: usize,
    dt_max: &impl Fn(usize, usize) -> f64,
    dt: &impl Fn(&PrePoint, usize) -> f64,
    adjacent: &impl Fn(&PrePoint, &PrePoint) -> bool,
    emit: &mut impl FnMut(u64, u64),
) -> FrontierStats {
    let tau = std::f64::consts::TAU;
    let (lo, hi) = (
        tau * pe as f64 / chunks as f64,
        tau * (pe as f64 + 1.0) / chunks as f64,
    );
    let annuli = inst.num_annuli();
    let mut cache: FrontierCache<(usize, u64), Vec<PrePoint>> = FrontierCache::new();
    let mut locals: Vec<PrePoint> = Vec::new();
    let mut nbrs: Vec<u64> = Vec::new();

    for i in 0..annuli {
        if inst.ann_counts[i] == 0 {
            continue;
        }
        let w_i = inst.cell_width(i);
        // Lookahead (in local-cell ranks) after which a fetched cell of
        // annulus `j` can no longer be touched by this annulus' sweep:
        // the touching vertices span at most one target cell plus two
        // query half-widths.
        let lookahead = |j: usize| -> u64 {
            let span = inst.cell_width(j) + 2.0 * dt_max(i, j);
            (span / w_i).ceil() as u64 + 2
        };
        let (first, count) = inst.overlap_range(i, lo, hi);
        for k in 0..count {
            let now = i as u64 * RANK_SPAN + k;
            cache.advance(now);
            let c = (first + k) % inst.ann_cells[i];
            // The local cell is also a query target of nearby vertices
            // (its own annulus and others), so it lives in the cache
            // like any other cell; copy the points out to iterate while
            // the cache serves the queries.
            locals.clear();
            locals.extend_from_slice(
                cache.get((i, c), now + lookahead(i), || inst.cell_points(i, c)),
            );
            cache.note_external(locals.len() as u64);
            for v in locals.iter().filter(|p| p.theta >= lo && p.theta < hi) {
                nbrs.clear();
                for j in 0..annuli {
                    if inst.ann_counts[j] == 0 {
                        continue;
                    }
                    let d = dt(v, j);
                    let (jfirst, jcount) = inst.overlap_range(j, v.theta - d, v.theta + d);
                    let retire = now + lookahead(j);
                    for kk in 0..jcount {
                        let cc = (jfirst + kk) % inst.ann_cells[j];
                        for u in cache.get((j, cc), retire, || inst.cell_points(j, cc)) {
                            if u.id != v.id && adjacent(u, v) {
                                // Local–local pairs once (id order); the
                                // other endpoint's PE emits cross pairs
                                // from its side, dedup happens on merge.
                                let u_local = u.theta >= lo && u.theta < hi;
                                if !u_local || u.id > v.id {
                                    nbrs.push(u.id);
                                }
                            }
                        }
                    }
                }
                nbrs.sort_unstable();
                nbrs.dedup();
                for &u in &nbrs {
                    emit(v.id, u);
                }
            }
        }
    }
    cache.stats()
}

/// The in-memory form of [`stream_pe_queries`], shared by the same two
/// generators as their [`crate::Generator::generate_pe`]: the same
/// sector, Δθ-bounded queries and pair rule (`dt` and `adjacent` as
/// there), but every cell a query touches is generated once and *held*
/// in a [`CellCache`] instead of retiring behind the sweep — which is
/// why it outruns the streaming pass (RHG 3.2–3.8×, soft RHG 1.33× at
/// `-c 16`) and why its footprint is every recomputed cell, the §7.2
/// motivation for sRHG. Returns the PE's vertices (with `[r, θ]`
/// coordinates) and sorted edge list — edge-for-edge the stream — plus
/// the number of points held (the `abl-mem` footprint proxy).
pub(crate) fn generate_pe_queries(
    inst: &RhgInstance,
    chunks: usize,
    pe: usize,
    dt: &impl Fn(&PrePoint, usize) -> f64,
    adjacent: &impl Fn(&PrePoint, &PrePoint) -> bool,
) -> (PeGraph, u64) {
    let tau = std::f64::consts::TAU;
    let (lo, hi) = (
        tau * pe as f64 / chunks as f64,
        tau * (pe as f64 + 1.0) / chunks as f64,
    );
    let annuli = (0..inst.num_annuli()).filter(|&i| inst.ann_counts[i] > 0);
    let mut cache = CellCache::default();

    // Local vertices: cells overlapping the sector, filtered by angular
    // ownership.
    let mut locals: Vec<PrePoint> = Vec::new();
    for i in annuli.clone() {
        inst.cells_overlapping(i, lo, hi, &mut |c| {
            let owned = cache
                .get(inst, i, c)
                .iter()
                .filter(|p| p.theta >= lo && p.theta < hi);
            locals.extend(owned);
        });
    }
    locals.sort_by_key(|p| p.id);
    let local_ids: BTreeSet<u64> = locals.iter().map(|p| p.id).collect();

    // Neighborhood queries: all incident edges of local vertices,
    // oriented local-first; local–local pairs once (id order).
    let mut edges = Vec::new();
    for v in &locals {
        for j in annuli.clone() {
            let d = dt(v, j);
            inst.cells_overlapping(j, v.theta - d, v.theta + d, &mut |c| {
                for u in cache.get(inst, j, c) {
                    if u.id != v.id && adjacent(u, v) && (!local_ids.contains(&u.id) || u.id > v.id)
                    {
                        edges.push((v.id, u.id));
                    }
                }
            });
        }
    }
    edges.sort_unstable();
    edges.dedup();
    let out = PeGraph {
        pe,
        vertex_begin: locals.first().map_or(0, |p| p.id),
        vertex_end: locals.last().map_or(0, |p| p.id + 1),
        edges,
        coords2: locals.iter().map(|v| (v.id, [v.r, v.theta])).collect(),
        coords3: Vec::new(),
    };
    (out, cache.generated_points())
}

/// A per-PE cache of generated cells (local and recomputed remote ones).
#[derive(Default, Debug)]
pub struct CellCache {
    cells: BTreeMap<(usize, u64), Vec<PrePoint>>,
}

impl CellCache {
    /// Get (possibly generating) the points of cell `(i, c)`.
    pub fn get<'a>(&'a mut self, inst: &RhgInstance, i: usize, c: u64) -> &'a [PrePoint] {
        self.cells
            .entry((i, c))
            .or_insert_with(|| inst.cell_points(i, c))
    }

    /// Number of points held across all generated cells — the in-memory
    /// footprint proxy used by the `abl-mem` experiment (every cached
    /// point stores its precomputed Eq. 9 terms).
    pub fn generated_points(&self) -> u64 {
        self.cells.values().map(|v| v.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst() -> RhgInstance {
        RhgInstance::new(4000, 8.0, 2.8, 7)
    }

    #[test]
    fn annulus_counts_conserve_n() {
        let i = inst();
        assert_eq!(i.ann_counts.iter().sum::<u64>(), 4000);
        assert_eq!(*i.ann_offsets.last().unwrap(), 4000);
    }

    #[test]
    fn cell_counts_conserve_annulus() {
        let i = inst();
        for a in 0..i.num_annuli() {
            let total: u64 = (0..i.ann_cells[a])
                .map(|c| i.cell_count_prefix(a, c).0)
                .sum();
            assert_eq!(total, i.ann_counts[a], "annulus {a}");
        }
    }

    #[test]
    fn prefixes_are_cumulative() {
        let i = inst();
        for a in 0..i.num_annuli() {
            let mut acc = 0u64;
            for c in 0..i.ann_cells[a] {
                let (count, prefix) = i.cell_count_prefix(a, c);
                assert_eq!(prefix, acc, "annulus {a} cell {c}");
                acc += count;
            }
        }
    }

    #[test]
    fn ids_globally_unique_and_dense() {
        let i = inst();
        let mut seen = vec![false; 4000];
        for a in 0..i.num_annuli() {
            for c in 0..i.ann_cells[a] {
                for p in i.cell_points(a, c) {
                    assert!(!seen[p.id as usize], "duplicate id {}", p.id);
                    seen[p.id as usize] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "missing ids");
    }

    #[test]
    fn points_inside_their_cell_and_annulus() {
        let i = inst();
        for a in 0..i.num_annuli() {
            let w = i.cell_width(a);
            for c in 0..i.ann_cells[a].min(8) {
                for p in i.cell_points(a, c) {
                    assert!(p.theta >= c as f64 * w && p.theta < (c + 1) as f64 * w);
                    assert!(
                        p.r >= i.space.bounds[a] && p.r <= i.space.bounds[a + 1],
                        "r {} outside annulus {a}",
                        p.r
                    );
                }
            }
        }
    }

    #[test]
    fn recomputation_bit_identical() {
        let i = inst();
        let a = i.num_annuli() - 1;
        let p1 = i.cell_points(a, 3);
        let p2 = i.cell_points(a, 3);
        assert_eq!(p1.len(), p2.len());
        for (x, y) in p1.iter().zip(&p2) {
            assert_eq!(x.r.to_bits(), y.r.to_bits());
            assert_eq!(x.theta.to_bits(), y.theta.to_bits());
            assert_eq!(x.id, y.id);
        }
    }

    #[test]
    fn cells_overlapping_covers_interval() {
        let i = inst();
        let a = i.num_annuli() - 1;
        let w = i.cell_width(a);
        // Interval fully inside.
        let mut cells = Vec::new();
        i.cells_overlapping(a, 2.0 * w + 0.1 * w, 4.0 * w, &mut |c| cells.push(c));
        assert!(cells.contains(&2) && cells.contains(&3) && cells.contains(&4));
        // Wrapping interval.
        let mut wrapped = Vec::new();
        i.cells_overlapping(a, -w, w * 0.5, &mut |c| wrapped.push(c));
        assert!(wrapped.contains(&(i.ann_cells[a] - 1)) && wrapped.contains(&0));
        // Full circle.
        let mut all = Vec::new();
        i.cells_overlapping(a, 0.0, std::f64::consts::TAU, &mut |c| all.push(c));
        assert_eq!(all.len() as u64, i.ann_cells[a]);
    }

    #[test]
    fn radial_distribution_mass() {
        // The fraction of points in the outer half of the disk must match
        // the radial CDF (most mass lives near the rim).
        let i = RhgInstance::new(20_000, 8.0, 3.0, 3);
        let half = i.space.r_max / 2.0;
        let mut outer = 0u64;
        for a in 0..i.num_annuli() {
            for c in 0..i.ann_cells[a] {
                for p in i.cell_points(a, c) {
                    if p.r > half {
                        outer += 1;
                    }
                }
            }
        }
        let frac = outer as f64 / 20_000.0;
        let expect = 1.0 - i.space.radial_cdf(half);
        assert!((frac - expect).abs() < 0.02, "outer {frac} vs {expect}");
    }
}

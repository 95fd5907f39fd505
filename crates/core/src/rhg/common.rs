//! Shared RHG instance structure (annuli → cells → points) and the one
//! query engine over it.
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
//! does not enter.
//!
//! [`RhgInstance`] itself is stateless: [`RhgInstance::cell_points`]
//! redraws a cell's whole root-to-leaf path on every call and is the
//! reference the baselines and brute-force tests use. A PE goes through a
//! [`CellSource`], which returns the same bits drawing each tree node
//! once (sRHG) and, for `Queries` — the one engine of `Rhg` and
//! `SoftRhg` — generating each cell once and holding it sorted by θ
//! (§7.1), so that a query tests only the points inside its Δθ window:
//! one bound per local cell and annulus, Eq. 8 at the cell's smallest
//! local radius, whose window ends are binary-searched in the θ-sorted
//! cells. Both pair rules reject every pair beyond the query distance,
//! so which candidates a window holds never changes an edge.

use crate::PeGraph;
use kagen_dist::{binomial, multinomial};
use kagen_geometry::cell_stream::{record_held, WrappedRun};
use kagen_geometry::hyperbolic::{PrePoint, RhgSpace};
use kagen_geometry::FrontierStats;
use kagen_util::seed::stream;
use kagen_util::{derive_seed, Mt64, Rng64};
use std::f64::consts::{PI, TAU};
use std::iter::repeat_with;

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
        TAU / self.ann_cells[i] as f64
    }

    /// Draw the left-child count of annulus `i`'s splitting-tree node
    /// `(level, rank)`, which holds `count` points.
    fn draw_left(&self, i: usize, level: u64, rank: u64, count: u64) -> u64 {
        let node_seed = derive_seed(self.seed, &[stream::HYP, 1 + i as u64, level, rank]);
        binomial(&mut Mt64::new(node_seed), count as u128, 0.5)
    }

    /// Walk the binary splitting tree of annulus `i` down to cell `c`,
    /// asking `left_of(level, rank, count)` for each node's left-child
    /// count; returns the cell's (count, id-prefix).
    fn descend(
        &self,
        i: usize,
        c: u64,
        mut left_of: impl FnMut(u64, u64, u64) -> u64,
    ) -> (u64, u64) {
        let cells = self.ann_cells[i];
        debug_assert!(c < cells);
        let mut count = self.ann_counts[i];
        let mut prefix = 0u64;
        let mut width = cells;
        let mut index = c;
        let mut level = 0u64;
        let mut rank = 0u64;
        while width > 1 {
            let left = left_of(level, rank, count);
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

    /// (count, id-prefix) of cell `c` in annulus `i`, via the binary
    /// splitting tree. O(log cells) binomials, all redrawn per call.
    pub fn cell_count_prefix(&self, i: usize, c: u64) -> (u64, u64) {
        self.descend(i, c, |level, rank, count| {
            self.draw_left(i, level, rank, count)
        })
    }

    /// The points of cell `(i, c)`, whose tree leaf is `(count, prefix)`,
    /// with precomputed adjacency terms and global ids.
    fn leaf_points(&self, i: usize, c: u64, (count, prefix): (u64, u64)) -> Vec<PrePoint> {
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

    /// Generate the points of cell `(i, c)`. Deterministic and stateless;
    /// any PE can recompute any cell.
    pub fn cell_points(&self, i: usize, c: u64) -> Vec<PrePoint> {
        self.leaf_points(i, c, self.cell_count_prefix(i, c))
    }

    /// The cells of annulus `i` overlapping the angular interval
    /// `[lo, hi]`, as `(first, count)` of the wrapped sequence
    /// `first, first+1, …` (mod `ann_cells[i]`). Each cell appears at
    /// most once; a full-circle interval covers every cell.
    pub fn overlap_range(&self, i: usize, lo: f64, hi: f64) -> (u64, u64) {
        let cells = self.ann_cells[i];
        let width = self.cell_width(i);
        if hi - lo >= TAU - 1e-12 {
            return (0, cells);
        }
        let lo_wrapped = lo.rem_euclid(TAU);
        let first = (lo_wrapped / width) as u64 % cells;
        let span = hi - lo;
        let count = ((span / width) as u64 + 2).min(cells);
        (first, count)
    }
}

/// One PE's view of the instance's cells, bit for bit
/// [`RhgInstance::cell_points`]: every splitting-tree node is drawn once,
/// lazily (≈ 2 draws per cell over a run of cells, against log₂(cells)
/// per call), and a cell asked for through [`CellSource::cell`] is
/// generated once and held to the end of the PE — the §7.1 engine's
/// state, O(sector + query halo). What a PE touches of an annulus, or of
/// one level of its tree, is a wrapped contiguous run around its sector,
/// hence the [`WrappedRun`]s.
#[derive(Debug)]
pub struct CellSource<'a> {
    inst: &'a RhgInstance,
    /// `nodes[i][l]`: the drawn left-child counts of annulus `i`'s tree
    /// nodes at depth `l`, by rank.
    nodes: Vec<Vec<WrappedRun<u64>>>,
    /// Per annulus, the held cells.
    cells: Vec<WrappedRun<Box<[PrePoint]>>>,
    stats: FrontierStats,
}

impl<'a> CellSource<'a> {
    /// A source over `inst` that has drawn and holds nothing yet.
    pub fn new(inst: &'a RhgInstance) -> Self {
        fn runs<T>(n: usize) -> Vec<WrappedRun<T>> {
            repeat_with(WrappedRun::default).take(n).collect()
        }
        let levels = |cells: &u64| runs(cells.trailing_zeros() as usize);
        CellSource {
            inst,
            nodes: inst.ann_cells.iter().map(levels).collect(),
            cells: runs(inst.num_annuli()),
            stats: FrontierStats::default(),
        }
    }

    /// [`RhgInstance::cell_points`], drawing only the tree nodes not in
    /// `nodes` (annulus `i`'s levels) yet.
    fn generate(
        inst: &RhgInstance,
        nodes: &mut [WrappedRun<u64>],
        stats: &mut FrontierStats,
        i: usize,
        c: u64,
    ) -> Vec<PrePoint> {
        let leaf = inst.descend(i, c, |level, rank, count| {
            *nodes[level as usize]
                .slot(rank, 1 << level)
                .get_or_insert_with(|| {
                    stats.nodes_drawn += 1;
                    inst.draw_left(i, level, rank, count)
                })
        });
        inst.leaf_points(i, c, leaf)
    }

    /// The points of cell `(i, c)`, generated and not held — for a sweep
    /// that bounds its own memory (sRHG).
    pub fn cell_points(&mut self, i: usize, c: u64) -> Vec<PrePoint> {
        Self::generate(self.inst, &mut self.nodes[i], &mut self.stats, i, c)
    }

    /// The points of cell `(i, c)`, generated on first use and held in θ
    /// order (ids and coordinates as [`RhgInstance::cell_points`]).
    pub fn cell(&mut self, i: usize, c: u64) -> &[PrePoint] {
        let (inst, nodes, stats) = (self.inst, &mut self.nodes[i], &mut self.stats);
        self.cells[i]
            .slot(c, inst.ann_cells[i])
            .get_or_insert_with(|| {
                let mut points = Self::generate(inst, nodes, stats, i, c);
                points.sort_unstable_by(|p, q| p.theta.total_cmp(&q.theta));
                stats.generated_cells += 1;
                stats.peak_points += points.len() as u64;
                points.into_boxed_slice()
            })
    }

    /// The accounting so far.
    pub fn stats(&self) -> FrontierStats {
        self.stats
    }
}

/// The query-centric neighbourhood pass (§7.1) shared by the threshold
/// ([`crate::rhg::Rhg`]) and binomial ([`crate::rhg::SoftRhg`])
/// generators — their stream and their `generate_pe` alike. `dist` is the
/// distance beyond which no pair is enumerated (R for the threshold
/// model, the enlarged R_eff for the soft one) and `adjacent(u, v)` the
/// exact pair rule. The rule must reject every pair at distance `dist` or
/// more: a query's window depends on the chunking (through its cell's
/// smallest local radius), so it may skip only pairs the rule rejects,
/// and then it decides no edge.
pub(crate) struct Queries<'a, A> {
    inst: &'a RhgInstance,
    chunks: usize,
    dist: f64,
    cosh_dist: f64,
    /// Per annulus `j`: `(b, (cosh b, sinh b))` of its lower bound `b`,
    /// the vertex-independent operands of Δθ(r, b) (Eq. 8).
    bounds: Vec<(f64, (f64, f64))>,
    adjacent: A,
}

/// The Δθ(r, b) of one local cell and one annulus widened so that it
/// covers every pair Eq. 9 accepts in floating point: relatively for the
/// rounding of the `acos` argument, and absolutely because `acos` near 1
/// resolves angles only to ≈ √(2 · 2⁻⁵²) ≈ 2·10⁻⁸, in the bound and in the
/// pair test's cosine alike.
fn padded(delta_theta: f64) -> f64 {
    delta_theta * (1.0 + 1e-9) + 1e-7
}

impl<'a, A: Fn(&PrePoint, &PrePoint) -> bool> Queries<'a, A> {
    pub(crate) fn new(inst: &'a RhgInstance, chunks: usize, dist: f64, adjacent: A) -> Self {
        let bounds = inst.space.bounds.iter().map(|b| b.max(1e-12));
        Queries {
            inst,
            chunks,
            dist,
            cosh_dist: dist.cosh(),
            bounds: bounds.map(|b| (b, (b.cosh(), b.sinh()))).collect(),
            adjacent,
        }
    }

    /// The angular half-width of the query of every local vertex of a
    /// cell whose smallest radius is `r_min` (`(cosh, sinh)` in `hyp_r`)
    /// into annulus `j`, or `None` when the query covers the whole
    /// annulus. Δθ(r, b) decreases in r, so the cell's smallest radius
    /// bounds every vertex of the cell.
    fn half_width(&self, r_min: f64, hyp_r: (f64, f64), j: usize) -> Option<f64> {
        let (b, hyp_b) = self.bounds[j];
        if r_min + b < self.dist {
            return None;
        }
        let d = padded(RhgSpace::delta_theta_beyond(hyp_r, hyp_b, self.cosh_dist));
        (d < PI).then_some(d)
    }

    /// Iterate PE `pe`'s local vertices in global-id order (annulus-major,
    /// cell-major — exactly how ids are assigned), call `on_local(v)`, test
    /// `v` against its Δθ-bounded query in every annulus, and emit `(v, u)`
    /// pairs with `u` ascending per vertex — the PE's sorted edge list.
    ///
    /// Per local cell and annulus `j` one bound is computed, Eq. 8 at the
    /// cell's smallest local radius. A vertex's query into `j` is the cells
    /// its ±bound window overlaps, generated on first use; the held cells
    /// are θ-sorted, so the window's ends are binary-searched in its first
    /// and last cell and only the points inside it are tested, by Eq. 9
    /// (`adjacent`).
    pub(crate) fn stream(
        &self,
        pe: usize,
        on_local: &mut impl FnMut(&PrePoint),
        emit: &mut impl FnMut(u64, u64),
    ) -> FrontierStats {
        let inst = self.inst;
        let (lo, hi) = (
            TAU * pe as f64 / self.chunks as f64,
            TAU * (pe as f64 + 1.0) / self.chunks as f64,
        );
        let is_local = |p: &PrePoint| p.theta >= lo && p.theta < hi;
        // The non-empty annuli, with their cell counts and widths.
        let annuli: Vec<(usize, u64, f64)> = (0..inst.num_annuli())
            .filter(|&i| inst.ann_counts[i] > 0)
            .map(|i| (i, inst.ann_cells[i], inst.cell_width(i)))
            .collect();
        let mut source = CellSource::new(inst);
        let mut locals: Vec<PrePoint> = Vec::new();
        let mut widths: Vec<Option<f64>> = Vec::new();
        let mut nbrs: Vec<u64> = Vec::new();

        for &(i, _, _) in &annuli {
            let (first, count) = inst.overlap_range(i, lo, hi);
            for k in 0..count {
                // Copy the local cell's vertices out in id order: the
                // source serves (and grows under) their queries.
                locals.clear();
                let cell = source.cell(i, (first + k) % inst.ann_cells[i]);
                locals.extend(cell.iter().filter(|p| is_local(p)));
                if locals.is_empty() {
                    continue;
                }
                locals.sort_unstable_by_key(|p| p.id);
                let r_min = locals.iter().map(|p| p.r).fold(f64::INFINITY, f64::min);
                let hyp_r = (r_min.cosh(), r_min.sinh());
                widths.clear();
                widths.extend(
                    annuli
                        .iter()
                        .map(|&(j, ..)| self.half_width(r_min, hyp_r, j)),
                );
                for v in &locals {
                    on_local(v);
                    nbrs.clear();
                    let mut test = |u: &PrePoint| {
                        if u.id != v.id && (self.adjacent)(u, v) {
                            // Local–local pairs once (id order); the other
                            // endpoint's PE emits cross pairs from its
                            // side, dedup happens on merge.
                            if !is_local(u) || u.id > v.id {
                                nbrs.push(u.id);
                            }
                        }
                    };
                    for (&(j, cells, width), &d) in annuli.iter().zip(&widths) {
                        let Some(d) = d else {
                            (0..cells).for_each(|c| source.cell(j, c).iter().for_each(&mut test));
                            continue;
                        };
                        let (from, to) = (v.theta - d, v.theta + d);
                        let (first, last) =
                            ((from / width).floor() as i64, (to / width).floor() as i64);
                        for c in first..=last {
                            // The window in the coordinates of cell c's
                            // turn of the circle (`cells` is a power of two).
                            let turn = TAU * (c >> cells.trailing_zeros()) as f64;
                            let points = source.cell(j, c as u64 & (cells - 1));
                            let begin = if c == first {
                                points.partition_point(|p| p.theta < from - turn)
                            } else {
                                0
                            };
                            let end = if c == last {
                                points.partition_point(|p| p.theta <= to - turn)
                            } else {
                                points.len()
                            };
                            points[begin..end.max(begin)].iter().for_each(&mut test);
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
        let stats = source.stats();
        record_held(stats);
        stats
    }

    /// [`Queries::stream`] collected: the PE's vertices with `[r, θ]`
    /// coordinates and its edge list, from the one pass.
    pub(crate) fn materialize(&self, pe: usize) -> PeGraph {
        let mut out = PeGraph {
            pe,
            ..PeGraph::default()
        };
        let (coords, edges) = (&mut out.coords2, &mut out.edges);
        self.stream(
            pe,
            &mut |v| coords.push((v.id, [v.r, v.theta])),
            &mut |v, u| edges.push((v, u)),
        );
        out.vertex_begin = out.coords2.first().map_or(0, |c| c.0);
        out.vertex_end = out.coords2.last().map_or(0, |c| c.0 + 1);
        out
    }
}

/// What every RHG-family generator is checked against: the all-pairs
/// edge list over the stateless [`RhgInstance::cell_points`], and the
/// per-PE contract between a model's stream and its `generate_pe`.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use crate::Generator;

    /// Every point of the instance, annulus-major, cell-major.
    pub(crate) fn all_points(inst: &RhgInstance) -> Vec<PrePoint> {
        (0..inst.num_annuli())
            .flat_map(|a| (0..inst.ann_cells[a]).map(move |c| (a, c)))
            .flat_map(|(a, c)| inst.cell_points(a, c))
            .collect()
    }

    /// The sorted `(min, max)` edge list of all pairs `connected` accepts.
    pub(crate) fn all_pairs(
        inst: &RhgInstance,
        connected: impl Fn(&PrePoint, &PrePoint) -> bool,
    ) -> Vec<(u64, u64)> {
        let pts = all_points(inst);
        let mut edges = Vec::new();
        for (i, p) in pts.iter().enumerate() {
            for q in &pts[i + 1..] {
                if connected(p, q) {
                    edges.push((p.id.min(q.id), p.id.max(q.id)));
                }
            }
        }
        edges.sort_unstable();
        edges.dedup();
        edges
    }

    /// Over chunks ∈ {1, 2, 7, 64, 300} × γ ∈ {2.1, 2.8, 3.5} at n ≤ 600:
    /// the deduplicated union of all PE streams is the all-pairs list,
    /// every `generate_pe(pe).edges` is the PE's collected stream (sorted
    /// first if `sorted`), and its vertex range and `coords2` are the
    /// points the sector owns. `make(n, γ, chunks)` builds the generator
    /// and its instance; `connected` is the model's pair rule.
    pub(crate) fn check_corner_matrix<G: Generator>(
        make: impl Fn(u64, f64, usize) -> (G, RhgInstance),
        connected: impl Fn(&G, &RhgInstance, &PrePoint, &PrePoint) -> bool,
        sorted: bool,
    ) {
        for (n, gamma) in [(600, 2.1), (450, 2.8), (300, 3.5)] {
            for chunks in [1usize, 2, 7, 64, 300] {
                let (gen, inst) = make(n, gamma, chunks);
                let what = format!("n={n} γ={gamma} chunks={chunks}");
                let points = all_points(&inst);
                let mut union = Vec::new();
                for pe in 0..chunks {
                    let mut stream = Vec::new();
                    gen.stream_pe_batched(pe, &mut Vec::new(), &mut |e| {
                        stream.extend_from_slice(e)
                    });
                    union.extend(stream.iter().map(|&(u, v)| (u.min(v), u.max(v))));
                    if sorted {
                        stream.sort_unstable();
                        stream.dedup();
                    }
                    let part = gen.generate_pe(pe);
                    assert_eq!(part.edges, stream, "{what} PE {pe}: generate_pe vs stream");

                    let (lo, hi) = (
                        TAU * pe as f64 / chunks as f64,
                        TAU * (pe as f64 + 1.0) / chunks as f64,
                    );
                    let mut owned: Vec<&PrePoint> = points
                        .iter()
                        .filter(|p| p.theta >= lo && p.theta < hi)
                        .collect();
                    owned.sort_by_key(|p| p.id);
                    let bits = |id: u64, r: f64, theta: f64| (id, r.to_bits(), theta.to_bits());
                    assert_eq!(
                        part.coords2
                            .iter()
                            .map(|&(id, [r, theta])| bits(id, r, theta))
                            .collect::<Vec<_>>(),
                        owned
                            .iter()
                            .map(|p| bits(p.id, p.r, p.theta))
                            .collect::<Vec<_>>(),
                        "{what} PE {pe}: coords2 vs owned points"
                    );
                    assert_eq!(
                        (part.vertex_begin, part.vertex_end),
                        (
                            owned.first().map_or(0, |p| p.id),
                            owned.last().map_or(0, |p| p.id + 1)
                        ),
                        "{what} PE {pe}: vertex range"
                    );
                }
                union.sort_unstable();
                union.dedup();
                let reference = all_pairs(&inst, |p, q| connected(&gen, &inst, p, q));
                assert_eq!(union, reference, "{what}: union of streams vs all pairs");
            }
        }
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
    fn overlap_range_covers_interval() {
        let i = inst();
        let a = i.num_annuli() - 1;
        let w = i.cell_width(a);
        let cells = |lo: f64, hi: f64| -> Vec<u64> {
            let (first, count) = i.overlap_range(a, lo, hi);
            (0..count).map(|k| (first + k) % i.ann_cells[a]).collect()
        };
        // Interval fully inside.
        let inside = cells(2.0 * w + 0.1 * w, 4.0 * w);
        assert!(inside.contains(&2) && inside.contains(&3) && inside.contains(&4));
        // Wrapping interval.
        let wrapped = cells(-w, w * 0.5);
        assert!(wrapped.contains(&(i.ann_cells[a] - 1)) && wrapped.contains(&0));
        // Full circle.
        assert_eq!(cells(0.0, TAU).len() as u64, i.ann_cells[a]);
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

    /// Every (annulus, cell) of the instance in a scrambled order.
    fn scrambled_cells(i: &RhgInstance) -> Vec<(usize, u64)> {
        let mut keys: Vec<(usize, u64)> = (0..i.num_annuli())
            .flat_map(|a| (0..i.ann_cells[a]).map(move |c| (a, c)))
            .collect();
        keys.sort_by_key(|&(a, c)| kagen_util::splitmix::mix64((a as u64) << 40 | c));
        keys
    }

    fn assert_same_points(got: &[PrePoint], want: &[PrePoint], what: &str) {
        let bits = |p: &PrePoint| (p.id, p.r.to_bits(), p.theta.to_bits());
        assert_eq!(
            got.iter().map(bits).collect::<Vec<_>>(),
            want.iter().map(bits).collect::<Vec<_>>(),
            "{what}"
        );
    }

    #[test]
    fn source_equals_stateless_reference_in_any_order() {
        let i = inst();
        let keys = scrambled_cells(&i);
        let (mut held, mut passing) = (CellSource::new(&i), CellSource::new(&i));
        // The store holds a cell in θ order; the points it does not hold
        // come in id order, as the reference draws them.
        let by_theta = |mut points: Vec<PrePoint>| {
            points.sort_by(|p, q| p.theta.total_cmp(&q.theta));
            points
        };
        for &(a, c) in &keys {
            let want = i.cell_points(a, c);
            assert_same_points(held.cell(a, c), &by_theta(want.clone()), "held");
            assert_same_points(&passing.cell_points(a, c), &want, "not held");
        }
        // A second visit is served from the store: nothing is drawn again.
        for &(a, c) in keys.iter().rev() {
            let want = by_theta(i.cell_points(a, c));
            assert_same_points(held.cell(a, c), &want, "revisit");
        }
        let nodes: u64 = i.ann_cells.iter().map(|cells| cells - 1).sum();
        let want = FrontierStats {
            generated_cells: keys.len() as u64,
            nodes_drawn: nodes,
            peak_points: 4000,
        };
        assert_eq!(held.stats(), want);
        assert_eq!(passing.stats().nodes_drawn, nodes);
        assert_eq!(passing.stats().peak_points, 0);
    }

    /// Pair tests per emitted edge over every PE of `gen`, counted through
    /// the pair rule the engine is given.
    fn tests_per_edge(gen: &crate::rhg::Rhg) -> f64 {
        let inst = gen.instance();
        let tests = std::cell::Cell::new(0u64);
        let cosh_r = inst.space.cosh_r;
        let chunks = crate::Generator::num_chunks(gen);
        let queries = Queries::new(&inst, chunks, inst.space.r_max, |u, v| {
            tests.set(tests.get() + 1);
            v.is_adjacent(u, cosh_r)
        });
        let mut edges = 0u64;
        for pe in 0..chunks {
            queries.stream(pe, &mut |_| {}, &mut |_, _| edges += 1);
        }
        tests.get() as f64 / edges as f64
    }

    #[test]
    fn queries_test_few_pairs_per_edge() {
        // Sparse: most of a window's candidates are rejected.
        let sparse = crate::rhg::Rhg::new(200_000, 8.0, 2.8).with_chunks(64);
        let ratio = tests_per_edge(&sparse);
        assert!(ratio <= 8.0, "{ratio} pair tests per edge at d = 8");
        // The benchmark's `rhg_stream` instance.
        let bench = crate::rhg::Rhg::new(81_920, 16.0, 2.8)
            .with_seed(7)
            .with_chunks(64);
        let ratio = tests_per_edge(&bench);
        assert!(ratio <= 7.0, "{ratio} pair tests per edge on rhg_stream");
    }

    #[test]
    fn a_pe_generates_each_touched_cell_and_tree_node_exactly_once() {
        use std::collections::BTreeSet;
        for (gamma, chunks) in [(2.8, 8usize), (2.2, 3), (2.8, 64)] {
            let gen = crate::rhg::Rhg::new(5000, 8.0, gamma)
                .with_seed(11)
                .with_chunks(chunks);
            let i = gen.instance();
            let annuli = || (0..i.num_annuli()).filter(|&a| i.ann_counts[a] > 0);
            for pe in 0..chunks {
                // The cells the PE must touch, from the reference formulas:
                // its sector's, and in every annulus each local vertex's
                // window, Eq. 8 at the smallest radius of its cell's local
                // vertices, padded: the cells of `overlap_range` that
                // reach into the window (or all of them for a window of π).
                let (lo, hi) = (
                    TAU * pe as f64 / chunks as f64,
                    TAU * (pe as f64 + 1.0) / chunks as f64,
                );
                let overlapping = |a: usize, lo: f64, hi: f64| {
                    let ((first, count), cells) = (i.overlap_range(a, lo, hi), i.ann_cells[a]);
                    (0..count).map(move |k| (first + k) % cells)
                };
                let mut cells = BTreeSet::new();
                for a in annuli() {
                    cells.extend(overlapping(a, lo, hi).map(|c| (a, c)));
                }
                for a in annuli() {
                    for c in 0..i.ann_cells[a] {
                        let locals: Vec<PrePoint> = i
                            .cell_points(a, c)
                            .into_iter()
                            .filter(|p| p.theta >= lo && p.theta < hi)
                            .collect();
                        let r_min = locals.iter().map(|p| p.r).fold(f64::INFINITY, f64::min);
                        for v in &locals {
                            for j in annuli() {
                                let d = padded(
                                    i.space.delta_theta(r_min, i.space.bounds[j].max(1e-12)),
                                );
                                let width = i.cell_width(j);
                                let reaches = |c: u64| {
                                    let c_lo = c as f64 * width;
                                    [-TAU, 0.0, TAU].iter().any(|turn| {
                                        c_lo + turn <= v.theta + d
                                            && c_lo + width + turn > v.theta - d
                                    })
                                };
                                cells.extend(
                                    overlapping(j, v.theta - d, v.theta + d)
                                        .filter(|&c| d >= PI || reaches(c))
                                        .map(|c| (j, c)),
                                );
                            }
                        }
                    }
                }
                let mut nodes = BTreeSet::new();
                for &(a, c) in &cells {
                    let depth = i.ann_cells[a].trailing_zeros();
                    nodes.extend((0..depth).map(|level| (a, level, c >> (depth - level))));
                }
                let want = FrontierStats {
                    generated_cells: cells.len() as u64,
                    nodes_drawn: nodes.len() as u64,
                    peak_points: cells
                        .iter()
                        .map(|&(a, c)| i.cell_count_prefix(a, c).0)
                        .sum(),
                };
                let got = gen.stream_query(pe, &mut |_, _| {});
                assert_eq!(got, want, "γ={gamma} chunks={chunks} PE {pe}");
            }
        }
    }
}

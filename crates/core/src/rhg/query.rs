//! The in-memory, query-centric RHG generator (§7.1).
//!
//! Each PE owns the angular sector `[2πp/P, 2π(p+1)/P)`. For every local
//! vertex it runs a neighborhood query through all annuli: the angular
//! deviation bound Δθ(r_v, ℓ_j) (Eq. 8) selects candidate cells, whose
//! points are tested with the trig-free Eq. 9. Cells of non-local chunks
//! encountered during the search are *recomputed* into a per-PE cache —
//! the paper's inward/outward search recomputation, realized through the
//! deterministic cell scheme of [`super::common`].

use super::common::{generate_pe_queries, stream_pe_queries, RhgInstance};
use crate::streaming::{BatchEmit, Batcher};
use crate::{Generator, PeGraph};
use kagen_geometry::FrontierStats;

/// Random hyperbolic graph (threshold model), in-memory generator.
#[derive(Clone, Debug)]
pub struct Rhg {
    n: u64,
    avg_deg: f64,
    gamma: f64,
    seed: u64,
    chunks: usize,
}

impl Rhg {
    /// `n` vertices, target average degree `avg_deg`, power-law exponent
    /// `gamma` (> 2).
    pub fn new(n: u64, avg_deg: f64, gamma: f64) -> Self {
        Rhg {
            n,
            avg_deg,
            gamma,
            seed: 1,
            chunks: 8,
        }
    }

    /// Set the instance seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the number of logical PEs (angular sectors).
    pub fn with_chunks(mut self, chunks: usize) -> Self {
        assert!(chunks >= 1);
        self.chunks = chunks;
        self
    }

    /// Build the shared instance skeleton.
    pub fn instance(&self) -> RhgInstance {
        RhgInstance::new(self.n, self.avg_deg, self.gamma, self.seed)
    }

    /// Angular query half-width (Eq. 8) of a vertex at radius `r` into
    /// annulus `j`.
    fn dt(inst: &RhgInstance, r: f64, j: usize) -> f64 {
        inst.space.delta_theta(r, inst.space.bounds[j].max(1e-12))
    }

    /// The native streaming pass: the same Δθ-bounded queries as
    /// [`Generator::generate_pe`], but through the evicting frontier
    /// cache of [`stream_pe_queries`] — the emitted stream equals the
    /// in-memory generator's sorted edge list edge-for-edge, with memory
    /// bounded by the active query window instead of every recomputed
    /// cell. Returns the frontier accounting the memory-regression tests
    /// read.
    pub fn stream_query(&self, pe: usize, emit: &mut impl FnMut(u64, u64)) -> FrontierStats {
        let inst = self.instance();
        let cosh_r = inst.space.cosh_r;
        stream_pe_queries(
            &inst,
            self.chunks,
            pe,
            &|i, j| Self::dt(&inst, inst.space.bounds[i].max(1e-12), j),
            &|v, j| Self::dt(&inst, v.r, j),
            &|u, v| v.is_adjacent(u, cosh_r),
            emit,
        )
    }

    /// Like [`Generator::generate_pe`], additionally returning the number
    /// of points this PE had to generate (local + recomputed) — the
    /// memory-footprint proxy of the `abl-mem` experiment. The in-memory
    /// generator must *hold* all of them for its queries, which is the
    /// §7.2 motivation for sRHG.
    pub fn generate_pe_stats(&self, pe: usize) -> (PeGraph, u64) {
        let inst = self.instance();
        let cosh_r = inst.space.cosh_r;
        generate_pe_queries(
            &inst,
            self.chunks,
            pe,
            &|v, j| Self::dt(&inst, v.r, j),
            &|u, v| v.is_adjacent(u, cosh_r),
        )
    }
}

impl Generator for Rhg {
    fn num_vertices(&self) -> u64 {
        self.n
    }

    fn num_chunks(&self) -> usize {
        self.chunks
    }

    fn directed(&self) -> bool {
        false
    }

    /// Streaming Δθ queries (§7.1) over the evicting frontier cache —
    /// memory is the active query window.
    fn stream_pe_batched(&self, pe: usize, buf: &mut Vec<(u64, u64)>, emit: &mut BatchEmit) {
        Batcher::run(buf, emit, |b| {
            self.stream_query(pe, &mut |u, v| b.push(u, v));
        });
    }

    /// The in-memory engine (`common::generate_pe_queries`): same edge list as
    /// the stream, 3.2–3.8× faster for holding every queried cell.
    fn generate_pe(&self, pe: usize) -> PeGraph {
        self.generate_pe_stats(pe).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate_undirected;

    /// Brute-force reference over the full instance point set.
    fn brute_force(inst: &RhgInstance) -> Vec<(u64, u64)> {
        let mut pts = Vec::new();
        for a in 0..inst.num_annuli() {
            for c in 0..inst.ann_cells[a] {
                pts.extend(inst.cell_points(a, c));
            }
        }
        let mut edges = Vec::new();
        for i in 0..pts.len() {
            for j in (i + 1)..pts.len() {
                if pts[i].is_adjacent(&pts[j], inst.space.cosh_r) {
                    let (a, b) = (pts[i].id.min(pts[j].id), pts[i].id.max(pts[j].id));
                    edges.push((a, b));
                }
            }
        }
        edges.sort_unstable();
        edges.dedup();
        edges
    }

    #[test]
    fn matches_brute_force() {
        let gen = Rhg::new(600, 8.0, 2.8).with_seed(5).with_chunks(4);
        let el = generate_undirected(&gen);
        let reference = brute_force(&gen.instance());
        assert_eq!(el.edges, reference);
    }

    #[test]
    fn chunk_invariance() {
        let a = generate_undirected(&Rhg::new(800, 6.0, 3.0).with_seed(9).with_chunks(1));
        let b = generate_undirected(&Rhg::new(800, 6.0, 3.0).with_seed(9).with_chunks(8));
        let c = generate_undirected(&Rhg::new(800, 6.0, 3.0).with_seed(9).with_chunks(32));
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn average_degree_near_target() {
        // Eq. 2 has (1 + o(1)) corrections; allow a generous band.
        let n = 20_000u64;
        let target = 12.0;
        let el = generate_undirected(&Rhg::new(n, target, 2.6).with_seed(3).with_chunks(8));
        let avg = 2.0 * el.edges.len() as f64 / n as f64;
        assert!(
            avg > 0.5 * target && avg < 2.0 * target,
            "average degree {avg} vs target {target}"
        );
    }

    #[test]
    fn power_law_tail_present() {
        let n = 20_000u64;
        let el = generate_undirected(&Rhg::new(n, 10.0, 2.4).with_seed(7).with_chunks(8));
        let deg = el.degrees_undirected();
        let max = *deg.iter().max().unwrap();
        let mean = deg.iter().sum::<u64>() as f64 / n as f64;
        // γ = 2.4 ⇒ heavy tail: the hub should exceed the mean many-fold.
        assert!(
            max as f64 > 15.0 * mean,
            "max degree {max} vs mean {mean} — no heavy tail?"
        );
    }

    #[test]
    fn no_self_loops_or_out_of_range() {
        let el = generate_undirected(&Rhg::new(500, 6.0, 3.0).with_seed(1).with_chunks(4));
        assert!(!el.has_self_loops());
        assert!(!el.has_out_of_range());
    }
}

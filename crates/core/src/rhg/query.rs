//! The query-centric RHG generator (§7.1).
//!
//! Each PE owns the angular sector `[2πp/P, 2π(p+1)/P)`. For every local
//! vertex it runs a neighborhood query through all annuli: the angular
//! deviation bound Δθ(r, ℓ_j) (Eq. 8), computed once per local cell at
//! its smallest local radius r (Δθ decreases in r, so it bounds every
//! vertex of the cell), gives each vertex a ±Δθ window; the cells it
//! overlaps are held sorted by θ, so the window's ends are
//! binary-searched and only the points inside it are tested with the
//! trig-free Eq. 9. Cells of non-local chunks encountered during the
//! search are *recomputed* once and held for the rest of the PE's queries
//! — the paper's inward/outward search recomputation, realized through
//! the deterministic cell scheme and the one engine of [`super::common`].
//! Per-PE state is therefore the sector plus its query halo;
//! [`crate::srhg::Srhg`] generates the same graph in bounded memory.

use super::common::{Queries, RhgInstance};
use crate::streaming::{BatchEmit, Batcher};
use crate::{Generator, PeGraph};
use kagen_geometry::hyperbolic::PrePoint;
use kagen_geometry::FrontierStats;

/// Random hyperbolic graph (threshold model), query-centric generator.
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

    /// The engine over `inst`: queries out to distance R, pairs decided
    /// by Eq. 9.
    fn queries<'a>(
        &self,
        inst: &'a RhgInstance,
    ) -> Queries<'a, impl Fn(&PrePoint, &PrePoint) -> bool> {
        let cosh_r = inst.space.cosh_r;
        Queries::new(inst, self.chunks, inst.space.r_max, move |u, v| {
            v.is_adjacent(u, cosh_r)
        })
    }

    /// PE `pe`'s stream, one edge per `emit` call, returning the engine's
    /// accounting: the cells it generated and the points it *holds* for
    /// its queries — the memory contract the tests and the `abl-mem`
    /// experiment read, and the §7.2 motivation for sRHG.
    pub fn stream_query(&self, pe: usize, emit: &mut impl FnMut(u64, u64)) -> FrontierStats {
        self.queries(&self.instance()).stream(pe, &mut |_| {}, emit)
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

    /// Δθ queries (§7.1), every touched cell generated once and held.
    fn stream_pe_batched(&self, pe: usize, buf: &mut Vec<(u64, u64)>, emit: &mut BatchEmit) {
        Batcher::run(buf, emit, |b| {
            self.stream_query(pe, &mut |u, v| b.push(u, v));
        });
    }

    /// The same pass as the stream, also recording the local vertices'
    /// `[r, θ]` (the provided collect would generate the sector twice).
    fn generate_pe(&self, pe: usize) -> PeGraph {
        self.queries(&self.instance()).materialize(pe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate_undirected;
    use crate::rhg::common::reference::{all_pairs, check_corner_matrix};

    #[test]
    fn matches_brute_force() {
        let gen = Rhg::new(600, 8.0, 2.8).with_seed(5).with_chunks(4);
        let el = generate_undirected(&gen);
        let inst = gen.instance();
        let reference = all_pairs(&inst, |p, q| p.is_adjacent(q, inst.space.cosh_r));
        assert_eq!(el.edges, reference);
    }

    #[test]
    fn corner_matrix_matches_all_pairs_and_generate_pe_is_the_stream() {
        check_corner_matrix(
            |n, gamma, chunks| {
                let gen = Rhg::new(n, 8.0, gamma).with_seed(5).with_chunks(chunks);
                let inst = gen.instance();
                (gen, inst)
            },
            |_, inst, p, q| p.is_adjacent(q, inst.space.cosh_r),
            false,
        );
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

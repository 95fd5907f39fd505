//! Barabási–Albert preferential attachment, communication-free version of
//! Sanders & Schulz \[4\] (§3.5.1).
//!
//! The sequential Batagelj–Brandes generator fills a virtual array `M` of
//! length 2·n·d where `M[2i] = ⌊i/d⌋` (the source of edge slot `i`) and
//! `M[2i+1] = M[r]` for `r` uniform in `[0, 2i+1)`. Reading `M[r]` is what
//! makes it look inherently sequential — Sanders & Schulz observe that the
//! value of any odd position can be *recomputed* by replaying its random
//! choice, which is fixed by a per-position hash. Each edge then becomes an
//! independent function of the seed: PE `p` simply evaluates the slots of
//! its vertex range.
//!
//! The chain `r → r' → …` halves at least the index each step in
//! expectation; its length is O(1) expected and O(log) w.h.p.

use crate::streaming::{fill_range_batched, BatchEmit};
use crate::{Generator, PeGraph};
use kagen_util::seed::stream;
use kagen_util::splitmix::mix2;
use kagen_util::{derive_seed, Rng64, SplitMix64};

/// Preferential attachment: each new vertex attaches `d` edges to earlier
/// vertices with probability proportional to their current degree.
/// Self-loops and parallel edges occur with the model's natural (small)
/// probability, exactly as in \[4\] and Batagelj–Brandes.
#[derive(Clone, Debug)]
pub struct BarabasiAlbert {
    n: u64,
    d: u64,
    seed: u64,
    chunks: usize,
}

impl BarabasiAlbert {
    /// `n` vertices each attaching `d` edges.
    pub fn new(n: u64, d: u64) -> Self {
        assert!(d >= 1);
        BarabasiAlbert {
            n,
            d,
            seed: 1,
            chunks: 64,
        }
    }

    /// Set the instance seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the number of logical PEs.
    pub fn with_chunks(mut self, chunks: usize) -> Self {
        assert!(chunks >= 1);
        self.chunks = chunks;
        self
    }

    /// The instance's base seed for slot resolution — hashed once, shared
    /// by every slot (the batched fill hoists this out of the edge loop).
    #[inline]
    fn resolve_base(&self) -> u64 {
        derive_seed(self.seed, &[stream::BA])
    }

    /// Resolve virtual array position `pos` under a precomputed base seed.
    #[inline]
    fn resolve_with_base(&self, base: u64, mut pos: u64) -> u64 {
        loop {
            if pos & 1 == 0 {
                // Even positions hold the slot's source vertex directly.
                return (pos / 2) / self.d;
            }
            // Replay the random draw made for this odd position:
            // r ~ U[0, pos). (mix2 gives an independent uniform per
            // position; a bounded draw via a one-shot stream.)
            let mut rng = SplitMix64::new(mix2(base, pos));
            pos = rng.next_below(pos);
        }
    }

    /// Edge of slot `i` (pure function): `(⌊i/d⌋, M[2i+1])`.
    #[inline]
    pub fn edge(&self, slot: u64) -> (u64, u64) {
        (
            slot / self.d,
            self.resolve_with_base(self.resolve_base(), 2 * slot + 1),
        )
    }

    /// Append the edges of slot range `slots` to `out` — identical to
    /// calling [`BarabasiAlbert::edge`] per slot, with the hashed base
    /// seed derived once for the whole range.
    pub fn fill_edges(&self, slots: std::ops::Range<u64>, out: &mut Vec<(u64, u64)>) {
        out.reserve((slots.end - slots.start) as usize);
        let base = self.resolve_base();
        for slot in slots {
            out.push((slot / self.d, self.resolve_with_base(base, 2 * slot + 1)));
        }
    }

    /// Slot range owned by PE `pe` (its vertex range × `d`).
    #[inline]
    pub fn pe_slot_range(&self, pe: usize) -> std::ops::Range<u64> {
        let begin = self.n * pe as u64 / self.chunks as u64;
        let end = self.n * (pe as u64 + 1) / self.chunks as u64;
        begin * self.d..end * self.d
    }

    /// Edges attached per vertex (the model's `d`).
    pub fn degree_parameter(&self) -> u64 {
        self.d
    }
}

impl Generator for BarabasiAlbert {
    fn num_vertices(&self) -> u64 {
        self.n
    }

    fn num_chunks(&self) -> usize {
        self.chunks
    }

    fn directed(&self) -> bool {
        true
    }

    /// Range fill: the hashed resolve-base seed is derived once per
    /// batch instead of once per edge.
    fn stream_pe_batched(&self, pe: usize, buf: &mut Vec<(u64, u64)>, emit: &mut BatchEmit) {
        fill_range_batched(self.pe_slot_range(pe), buf, emit, |r, out| {
            self.fill_edges(r, out)
        });
    }

    fn pe_vertices(&self, pe: usize) -> PeGraph {
        // PE p owns a contiguous vertex range and therefore the slot range
        // [begin*d, end*d).
        let begin = self.n * pe as u64 / self.chunks as u64;
        let end = self.n * (pe as u64 + 1) / self.chunks as u64;
        PeGraph {
            pe,
            vertex_begin: begin,
            vertex_end: end,
            ..PeGraph::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate_directed;

    #[test]
    fn edge_count_and_targets_older() {
        let gen = BarabasiAlbert::new(1000, 4).with_seed(3).with_chunks(8);
        let el = generate_directed(&gen);
        assert_eq!(el.edges.len(), 4000);
        for &(u, v) in &el.edges {
            assert!(v <= u, "target {v} newer than source {u}");
        }
    }

    #[test]
    fn chunk_invariance() {
        let a = generate_directed(&BarabasiAlbert::new(500, 3).with_seed(7).with_chunks(1));
        let b = generate_directed(&BarabasiAlbert::new(500, 3).with_seed(7).with_chunks(16));
        assert_eq!(a, b);
    }

    #[test]
    fn degrees_skewed_towards_early_vertices() {
        let gen = BarabasiAlbert::new(5000, 4).with_seed(1);
        let el = generate_directed(&gen);
        let mut indeg = vec![0u64; 5000];
        for &(_, v) in &el.edges {
            indeg[v as usize] += 1;
        }
        // Preferential attachment: the first percentile of vertices must
        // receive far more than a uniform share of the in-edges.
        let early: u64 = indeg[..50].iter().sum();
        let uniform_share = el.edges.len() as u64 / 100;
        assert!(
            early > 3 * uniform_share,
            "early mass {early} vs uniform {uniform_share}"
        );
    }

    #[test]
    fn power_law_tail() {
        // BA degree distribution has exponent 3: max degree grows ~ sqrt(n).
        let gen = BarabasiAlbert::new(20_000, 2).with_seed(9);
        let el = generate_directed(&gen);
        let mut deg = vec![0u64; 20_000];
        for &(u, v) in &el.edges {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        let max = *deg.iter().max().unwrap();
        assert!(
            max > 100,
            "hub degree {max} too small for preferential attachment"
        );
    }

    #[test]
    fn resolve_chain_terminates_fast() {
        let gen = BarabasiAlbert::new(1_000_000, 8).with_seed(2);
        // Spot-check a few far positions — must terminate (and quickly).
        for slot in [0u64, 1, 999, 7_999_999] {
            let (_, v) = gen.edge(slot);
            assert!(v <= slot / 8);
        }
    }
}

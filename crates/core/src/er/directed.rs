//! Directed G(n,m) and G(n,p) (§4.1, §4.3).

use super::{leaf_edges, GnpLeaves, Piece};
use crate::streaming::{BatchEmit, Batcher};
use crate::{even_split, Generator, PeGraph};
use kagen_sampling::distributed::block_start;
use kagen_sampling::{DistributedSampler, Take};
use kagen_util::derive_seed;
use kagen_util::seed::stream;

/// Pick the leaf-block count for an edge universe: a granularity derived
/// from the instance parameters alone (never from the PE count),
/// coarse enough that per-block PRNG setup amortizes
/// (≥ ~256 expected samples per block — fine enough that up to ~2^10 PEs
/// stay load-balanced on small instances) and fine enough that leaves
/// stay in the f64-exact sampling regime (≤ 2^44 pairs). The latter
/// needs `universe ≤ 2^107`: 2^63 blocks is the most a `u64` doubles to.
fn er_blocks(universe: u128, expected_samples: u64) -> u64 {
    assert!(
        universe <= 1 << 107,
        "directed universe n(n-1) = {universe} above 2^107: leaves of 2^44 pairs need more than 2^63 blocks"
    );
    let mut blocks: u64 = 1;
    while (blocks as u128) * 2 <= universe
        && blocks < (1 << 20)
        && expected_samples / (2 * blocks) >= 256
    {
        blocks *= 2;
    }
    while universe / (blocks as u128) > (1u128 << 44) && (blocks as u128) * 2 <= universe {
        blocks *= 2;
    }
    blocks
}

/// Vertex pairs `n(n−1)` of the directed universe.
fn ordered_pairs(n: u64) -> u128 {
    (n as u128) * (n as u128).saturating_sub(1)
}

/// Directed Erdős–Rényi G(n,m): a uniform graph with exactly `m` distinct
/// directed edges and no self-loops (§4.1).
#[derive(Clone, Debug)]
pub struct GnmDirected {
    n: u64,
    m: u64,
    seed: u64,
    chunks: usize,
}

impl GnmDirected {
    /// New instance with `n` vertices and `m` edges.
    ///
    /// Panics if `m` exceeds the universe `n(n−1)`.
    pub fn new(n: u64, m: u64) -> Self {
        let universe = ordered_pairs(n);
        assert!(
            (m as u128) <= universe,
            "m={m} exceeds the directed universe n(n-1)={universe}"
        );
        GnmDirected {
            n,
            m,
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

    /// The instance's leaf plan: the divide-and-conquer sampler over the
    /// blocked edge universe (`None` when it is empty).
    fn sampler(&self) -> Option<DistributedSampler> {
        let universe = ordered_pairs(self.n);
        if universe == 0 {
            return None;
        }
        Some(DistributedSampler::new(
            universe,
            self.m,
            er_blocks(universe, self.m),
            derive_seed(self.seed, &[stream::MISC, 0x6d64]), // "md" = gnm directed
        ))
    }

    /// Emit the `count` edges of leaf block `b` of [`Self::sampler`]'s
    /// plan, in index order.
    fn leaf<F: FnMut(u64, u64)>(
        &self,
        sampler: &DistributedSampler,
        b: u64,
        count: u64,
        emit: &mut F,
    ) {
        let (start, end) = sampler.block_range(b);
        let piece = Piece::Directed { n: self.n, start };
        let len = (end - start) as u64;
        leaf_edges(sampler.leaf_seed(b), len, Take::Exact(count), piece, emit);
    }
}

impl Generator for GnmDirected {
    fn num_vertices(&self) -> u64 {
        self.n
    }

    fn num_chunks(&self) -> usize {
        self.chunks
    }

    fn directed(&self) -> bool {
        true
    }

    fn stream_pe_batched(&self, pe: usize, buf: &mut Vec<(u64, u64)>, emit: &mut BatchEmit) {
        Batcher::run(buf, emit, |b| {
            self.stream_edges(pe, &mut |u, v| b.push(u, v))
        });
    }

    fn pe_vertices(&self, pe: usize) -> PeGraph {
        let mut out = PeGraph {
            pe,
            ..PeGraph::default()
        };
        if let Some(sampler) = self.sampler() {
            let blocks = even_split(sampler.blocks(), self.chunks, pe);
            let row = self.n as u128 - 1;
            if !blocks.is_empty() {
                out.vertex_begin = (sampler.block_range(blocks.start).0 / row) as u64;
                out.vertex_end = ((sampler.block_range(blocks.end - 1).1 - 1) / row + 1) as u64;
            }
        }
        out
    }
}

impl GnmDirected {
    /// Emit PE `pe`'s edges without materializing them (§9 streaming) —
    /// the one edge-producing function behind `stream_pe_batched`: the
    /// count recursion over the PE's blocks, then [`Self::leaf`] for
    /// every block with a nonzero count.
    pub(crate) fn stream_edges<F: FnMut(u64, u64)>(&self, pe: usize, emit: &mut F) {
        let Some(sampler) = self.sampler() else {
            return;
        };
        let blocks = even_split(sampler.blocks(), self.chunks, pe);
        sampler.for_block_counts(blocks.start, blocks.end, &mut |b, count| {
            self.leaf(&sampler, b, count, emit)
        });
    }
}

/// Directed Gilbert G(n,p): every ordered pair sampled independently with
/// probability `p` (§4.3 — the same leaf blocks, each drawn alone).
#[derive(Clone, Debug)]
pub struct GnpDirected {
    n: u64,
    p: f64,
    seed: u64,
    chunks: usize,
    leaves: GnpLeaves,
}

impl GnpDirected {
    /// New instance with `n` vertices and edge probability `p`.
    pub fn new(n: u64, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be in [0,1]");
        GnpDirected {
            n,
            p,
            seed: 1,
            chunks: 64,
            leaves: GnpLeaves::default(),
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

    /// Select the leaf-sampling algorithm (part of the instance
    /// definition — see [`GnpLeaves`]).
    pub fn with_leaves(mut self, leaves: GnpLeaves) -> Self {
        self.leaves = leaves;
        self
    }

    /// The instance's leaf plan: the number of leaf blocks of its edge
    /// universe (0 when the instance is empty) — the same for both leaf
    /// samplers, so `AlgoD` keeps reproducing pre-swap instances.
    fn blocks(&self) -> u64 {
        let universe = ordered_pairs(self.n);
        let expected = ((universe as f64) * self.p) as u64;
        // Asked even when p = 0: `er_blocks` refuses universes above 2^107.
        let blocks = er_blocks(universe, expected.max(1));
        if universe == 0 || self.p == 0.0 {
            return 0;
        }
        blocks
    }

    /// Emit the edges of leaf block `b` of `blocks`, in index order.
    fn leaf<F: FnMut(u64, u64)>(&self, blocks: u64, b: u64, emit: &mut F) {
        let universe = ordered_pairs(self.n);
        let start = block_start(universe, blocks, b);
        let len = (block_start(universe, blocks, b + 1) - start) as u64; // ≤ 2^44 (er_blocks)
        let seed = |tag| derive_seed(self.seed, &[tag, b]);
        let take = self.leaves.take(seed(stream::COUNT), len, self.p);
        let piece = Piece::Directed { n: self.n, start };
        leaf_edges(seed(stream::SAMPLE), len, take, piece, emit);
    }
}

impl Generator for GnpDirected {
    fn num_vertices(&self) -> u64 {
        self.n
    }

    fn num_chunks(&self) -> usize {
        self.chunks
    }

    fn directed(&self) -> bool {
        true
    }

    fn stream_pe_batched(&self, pe: usize, buf: &mut Vec<(u64, u64)>, emit: &mut BatchEmit) {
        Batcher::run(buf, emit, |b| {
            self.stream_edges(pe, &mut |u, v| b.push(u, v))
        });
    }
}

impl GnpDirected {
    /// Emit PE `pe`'s edges without materializing them (§9 streaming) —
    /// the one edge-producing function behind `stream_pe_batched`:
    /// [`Self::leaf`] for each of the PE's blocks, in order.
    pub(crate) fn stream_edges<F: FnMut(u64, u64)>(&self, pe: usize, emit: &mut F) {
        let blocks = self.blocks();
        for b in even_split(blocks, self.chunks, pe) {
            self.leaf(blocks, b, emit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate_directed;

    #[test]
    fn gnm_exact_edge_count_no_dupes() {
        let gen = GnmDirected::new(200, 4000).with_seed(3).with_chunks(8);
        let el = generate_directed(&gen);
        assert_eq!(el.edges.len(), 4000);
        let mut sorted = el.edges.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), 4000, "duplicate edges");
        assert!(!el.has_self_loops());
        assert!(!el.has_out_of_range());
    }

    #[test]
    fn gnm_chunk_invariance() {
        // Same instance regardless of the PE count.
        let base = generate_directed(&GnmDirected::new(100, 1500).with_seed(7).with_chunks(1));
        for chunks in [2usize, 3, 16, 64] {
            let other =
                generate_directed(&GnmDirected::new(100, 1500).with_seed(7).with_chunks(chunks));
            assert_eq!(base, other, "chunks={chunks}");
        }
    }

    #[test]
    fn gnm_full_universe() {
        let n = 20u64;
        let m = n * (n - 1);
        let el = generate_directed(&GnmDirected::new(n, m).with_seed(1));
        assert_eq!(el.edges.len() as u64, m);
    }

    #[test]
    fn gnm_uniformity_over_pairs() {
        // Each ordered pair appears with probability m/(n(n-1)).
        let n = 12u64;
        let m = 30u64;
        let reps = 4000;
        let mut counts = std::collections::HashMap::new();
        for seed in 0..reps {
            let el = generate_directed(&GnmDirected::new(n, m).with_seed(seed));
            for e in el.edges {
                *counts.entry(e).or_insert(0u32) += 1;
            }
        }
        let expect = reps as f64 * m as f64 / (n * (n - 1)) as f64;
        let sd = (expect * (1.0 - m as f64 / (n * (n - 1)) as f64)).sqrt();
        for (e, c) in counts {
            assert!(
                (c as f64 - expect).abs() < 6.0 * sd,
                "pair {e:?}: {c} vs {expect}"
            );
        }
    }

    #[test]
    fn gnp_mean_edge_count() {
        let n = 300u64;
        let p = 0.01;
        let mut total = 0usize;
        let reps = 40;
        for seed in 0..reps {
            let el = generate_directed(&GnpDirected::new(n, p).with_seed(seed));
            assert!(!el.has_self_loops());
            let mut edges = el.edges.clone();
            edges.dedup();
            assert_eq!(edges.len(), el.edges.len(), "duplicates");
            total += el.edges.len();
        }
        let mean = total as f64 / reps as f64;
        let expect = (n * (n - 1)) as f64 * p;
        assert!(
            (mean - expect).abs() / expect < 0.05,
            "mean {mean} vs {expect}"
        );
    }

    #[test]
    fn gnp_chunk_invariance() {
        let a = generate_directed(&GnpDirected::new(150, 0.05).with_seed(9).with_chunks(1));
        let b = generate_directed(&GnpDirected::new(150, 0.05).with_seed(9).with_chunks(13));
        assert_eq!(a, b);
    }

    #[test]
    fn gnp_leaf_samplers_define_distinct_instances() {
        // Same distribution, different PRNG walk: the two leaf samplers
        // must not silently alias each other.
        let skip = generate_directed(&GnpDirected::new(200, 0.05).with_seed(3));
        let algo_d = generate_directed(
            &GnpDirected::new(200, 0.05)
                .with_seed(3)
                .with_leaves(GnpLeaves::AlgoD),
        );
        assert_ne!(skip.edges, algo_d.edges);
        // Both stay simple and in range.
        for el in [&skip, &algo_d] {
            assert!(!el.has_self_loops());
            assert!(!el.has_out_of_range());
        }
    }

    #[test]
    fn gnp_algo_d_mean_edge_count() {
        // The back-compat sampler keeps drawing correct G(n,p).
        let n = 300u64;
        let p = 0.01;
        let reps = 40;
        let total: usize = (0..reps)
            .map(|seed| {
                generate_directed(
                    &GnpDirected::new(n, p)
                        .with_seed(seed)
                        .with_leaves(GnpLeaves::AlgoD),
                )
                .edges
                .len()
            })
            .sum();
        let mean = total as f64 / reps as f64;
        let expect = (n * (n - 1)) as f64 * p;
        assert!(
            (mean - expect).abs() / expect < 0.05,
            "mean {mean} vs {expect}"
        );
    }

    #[test]
    fn gnp_algo_d_chunk_invariance() {
        let a = generate_directed(
            &GnpDirected::new(150, 0.05)
                .with_seed(9)
                .with_leaves(GnpLeaves::AlgoD)
                .with_chunks(1),
        );
        let b = generate_directed(
            &GnpDirected::new(150, 0.05)
                .with_seed(9)
                .with_leaves(GnpLeaves::AlgoD)
                .with_chunks(13),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn degenerate_sizes() {
        let el = generate_directed(&GnmDirected::new(1, 0).with_seed(1));
        assert_eq!(el.edges.len(), 0);
        let el = generate_directed(&GnpDirected::new(1, 0.5).with_seed(1));
        assert_eq!(el.edges.len(), 0);
        let el = generate_directed(&GnmDirected::new(5, 0).with_seed(1));
        assert_eq!(el.edges.len(), 0);
    }

    #[test]
    fn leaf_blocks_stop_at_2_to_the_63() {
        // 2^107 pairs fill 2^63 leaves of 2^44; one more pair used to
        // double the block count past u64 (to 0 in a release build).
        assert_eq!(er_blocks(1 << 107, 10), 1 << 63);
        assert!(std::panic::catch_unwind(|| er_blocks((1 << 107) + 1, 10)).is_err());
    }

    #[test]
    fn more_chunks_than_blocks_is_safe() {
        // Tiny universe, many PEs: trailing PEs own empty block ranges.
        let gen = GnmDirected::new(6, 10).with_seed(2).with_chunks(512);
        let el = generate_directed(&gen);
        assert_eq!(el.edges.len(), 10);
    }
}

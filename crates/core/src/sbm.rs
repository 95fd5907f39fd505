//! Stochastic block model — the first §9 future-work item ("we would like
//! to extend our communication-free paradigm to various other network
//! models such as the stochastic block-model"), built entirely from the
//! paper's own machinery.
//!
//! Vertices are grouped into blocks; a pair inside block `a` appears with
//! probability `P[a][a]`, a pair across blocks `(a, b)` with `P[a][b]`.
//! Each unordered block pair is a G(n,p)-style sampling problem over a
//! rectangular (or triangular) universe — exactly the chunk sampling of
//! §4: the pair's universe is split into fixed-size pieces, each piece
//! gets a Binomial count and an Algorithm-D sample from a piece-seeded
//! PRNG. Pieces are strided over PEs, so the instance is independent of
//! the PE count and no communication is ever needed.

use crate::er::triangle_index_to_pair;
use crate::streaming::{BatchEmit, Batcher};
use crate::{Generator, PeGraph};
use kagen_dist::binomial;
use kagen_sampling::vitter::sample_sorted;
use kagen_util::seed::stream;
use kagen_util::{derive_seed, Mt64};

/// Stochastic block model generator (undirected, simple).
#[derive(Clone, Debug)]
pub struct StochasticBlockModel {
    sizes: Vec<u64>,
    offsets: Vec<u64>,
    probs: Vec<Vec<f64>>,
    seed: u64,
    chunks: usize,
}

impl StochasticBlockModel {
    /// Planted-partition instance: `k` equal blocks over `n` vertices,
    /// within-block probability `p_in`, cross-block probability `p_out`.
    pub fn planted(n: u64, k: usize, p_in: f64, p_out: f64) -> Self {
        assert!(k >= 1 && (k as u64) <= n);
        let sizes: Vec<u64> = (0..k as u64)
            .map(|i| n * (i + 1) / k as u64 - n * i / k as u64)
            .collect();
        let probs = (0..k)
            .map(|a| (0..k).map(|b| if a == b { p_in } else { p_out }).collect())
            .collect();
        Self::new(sizes, probs)
    }

    /// Fully general instance: explicit block sizes and a symmetric
    /// probability matrix.
    pub fn new(sizes: Vec<u64>, probs: Vec<Vec<f64>>) -> Self {
        let k = sizes.len();
        assert!(k >= 1);
        assert_eq!(probs.len(), k);
        for (a, row) in probs.iter().enumerate() {
            assert_eq!(row.len(), k);
            for (b, &p) in row.iter().enumerate() {
                assert!((0.0..=1.0).contains(&p), "P[{a}][{b}] = {p} out of range");
                assert!(
                    (p - probs[b][a]).abs() < 1e-15,
                    "probability matrix must be symmetric"
                );
            }
        }
        let mut offsets = Vec::with_capacity(k + 1);
        let mut acc = 0u64;
        for &s in &sizes {
            offsets.push(acc);
            acc += s;
        }
        offsets.push(acc);
        StochasticBlockModel {
            sizes,
            offsets,
            probs,
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

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.sizes.len()
    }

    /// Block id of a vertex.
    pub fn block_of(&self, v: u64) -> usize {
        debug_assert!(v < *self.offsets.last().unwrap());
        self.offsets.partition_point(|&o| o <= v) - 1
    }

    /// Universe size of block pair (a, b), a ≤ b.
    fn pair_universe(&self, a: usize, b: usize) -> u64 {
        if a == b {
            self.sizes[a] * self.sizes[a].saturating_sub(1) / 2
        } else {
            self.sizes[a] * self.sizes[b]
        }
    }

    /// Number of equal pieces a pair's universe is cut into — a pure
    /// function of the instance (never of the PE count).
    fn pair_pieces(&self, a: usize, b: usize) -> u64 {
        let expected = self.pair_universe(a, b) as f64 * self.probs[a][b];
        ((expected / 8192.0) as u64)
            .next_power_of_two()
            .clamp(1, 4096)
    }

    /// All (pair, piece) work units in deterministic order.
    fn units(&self) -> Vec<(usize, usize, u64)> {
        let k = self.num_blocks();
        let mut units = Vec::new();
        for a in 0..k {
            for b in a..k {
                if self.probs[a][b] > 0.0 && self.pair_universe(a, b) > 0 {
                    for piece in 0..self.pair_pieces(a, b) {
                        units.push((a, b, piece));
                    }
                }
            }
        }
        units
    }

    /// Sample one work unit, emitting global edges.
    fn sample_unit<F: FnMut(u64, u64) + ?Sized>(
        &self,
        a: usize,
        b: usize,
        piece: u64,
        emit: &mut F,
    ) {
        let universe = self.pair_universe(a, b);
        let pieces = self.pair_pieces(a, b);
        let start = universe as u128 * piece as u128 / pieces as u128;
        let end = universe as u128 * (piece + 1) as u128 / pieces as u128;
        let len = (end - start) as u64;
        if len == 0 {
            return;
        }
        let tags = [stream::MISC, 0x73626d, a as u64, b as u64, piece]; // "sbm"
        let mut count_rng = Mt64::new(derive_seed(self.seed, &tags));
        let count = binomial(&mut count_rng, len as u128, self.probs[a][b]);
        let sample_tags = [stream::SAMPLE, 0x73626d, a as u64, b as u64, piece];
        let mut rng = Mt64::new(derive_seed(self.seed, &sample_tags));
        let (oa, ob) = (self.offsets[a], self.offsets[b]);
        let sb = self.sizes[b];
        sample_sorted(&mut rng, len, count, &mut |i| {
            let t = start + i as u128;
            if a == b {
                let (u, v) = triangle_index_to_pair(t);
                emit(oa + u, oa + v);
            } else {
                emit(oa + (t / sb as u128) as u64, ob + (t % sb as u128) as u64);
            }
        });
    }
}

impl Generator for StochasticBlockModel {
    fn num_vertices(&self) -> u64 {
        *self.offsets.last().unwrap()
    }

    fn num_chunks(&self) -> usize {
        self.chunks
    }

    fn directed(&self) -> bool {
        false
    }

    fn stream_pe_batched(&self, pe: usize, buf: &mut Vec<(u64, u64)>, emit: &mut BatchEmit) {
        Batcher::run(buf, emit, |b| {
            self.stream_edges(pe, &mut |u, v| b.push(u, v))
        });
    }

    fn pe_vertices(&self, pe: usize) -> PeGraph {
        PeGraph {
            pe,
            vertex_begin: 0,
            vertex_end: self.num_vertices(),
            ..PeGraph::default()
        }
    }
}

impl StochasticBlockModel {
    /// Emit PE `pe`'s edges without materializing them (§9 streaming).
    /// Strided unit assignment: PEs own disjoint unit sets, each edge is
    /// emitted exactly once globally. Generic over the consumer so
    /// concrete callers monomorphize.
    pub(crate) fn stream_edges<F: FnMut(u64, u64) + ?Sized>(&self, pe: usize, emit: &mut F) {
        for (idx, (a, b, piece)) in self.units().into_iter().enumerate() {
            if idx % self.chunks == pe {
                self.sample_unit(a, b, piece, emit);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate_undirected;

    #[test]
    fn chunk_invariance() {
        let a = generate_undirected(
            &StochasticBlockModel::planted(600, 4, 0.1, 0.01)
                .with_seed(3)
                .with_chunks(1),
        );
        let b = generate_undirected(
            &StochasticBlockModel::planted(600, 4, 0.1, 0.01)
                .with_seed(3)
                .with_chunks(13),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn densities_match_matrix() {
        let n = 3000u64;
        let (p_in, p_out) = (0.05, 0.005);
        let gen = StochasticBlockModel::planted(n, 3, p_in, p_out)
            .with_seed(5)
            .with_chunks(8);
        let el = generate_undirected(&gen);
        let mut within = 0u64;
        let mut across = 0u64;
        for &(u, v) in &el.edges {
            if gen.block_of(u) == gen.block_of(v) {
                within += 1;
            } else {
                across += 1;
            }
        }
        let s = n / 3;
        let within_universe = 3 * s * (s - 1) / 2;
        let across_universe = 3 * s * s;
        let win_rate = within as f64 / within_universe as f64;
        let across_rate = across as f64 / across_universe as f64;
        assert!((win_rate - p_in).abs() / p_in < 0.1, "within {win_rate}");
        assert!(
            (across_rate - p_out).abs() / p_out < 0.1,
            "across {across_rate}"
        );
    }

    #[test]
    fn simple_graph_no_self_loops() {
        let gen = StochasticBlockModel::planted(500, 5, 0.2, 0.02).with_seed(7);
        let el = generate_undirected(&gen);
        assert!(!el.has_self_loops());
        assert!(!el.has_out_of_range());
        let mut e = el.edges.clone();
        e.dedup();
        assert_eq!(e.len(), el.edges.len(), "duplicate edges");
    }

    #[test]
    fn block_of_vertex() {
        let gen = StochasticBlockModel::new(
            vec![10, 20, 5],
            vec![
                vec![0.5, 0.1, 0.0],
                vec![0.1, 0.5, 0.2],
                vec![0.0, 0.2, 0.5],
            ],
        );
        assert_eq!(gen.block_of(0), 0);
        assert_eq!(gen.block_of(9), 0);
        assert_eq!(gen.block_of(10), 1);
        assert_eq!(gen.block_of(29), 1);
        assert_eq!(gen.block_of(30), 2);
        assert_eq!(gen.num_vertices(), 35);
    }

    #[test]
    fn zero_probability_blocks_empty() {
        let gen = StochasticBlockModel::new(vec![50, 50], vec![vec![0.3, 0.0], vec![0.0, 0.3]])
            .with_seed(9);
        let el = generate_undirected(&gen);
        for &(u, v) in &el.edges {
            assert_eq!(gen.block_of(u), gen.block_of(v), "cross edge despite P=0");
        }
        assert!(!el.edges.is_empty());
    }

    #[test]
    fn extreme_probability_one() {
        let gen = StochasticBlockModel::new(vec![20, 10], vec![vec![1.0, 0.0], vec![0.0, 0.0]])
            .with_seed(11);
        let el = generate_undirected(&gen);
        assert_eq!(
            el.edges.len() as u64,
            20 * 19 / 2,
            "block 0 must be complete"
        );
    }
}

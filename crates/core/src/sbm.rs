//! Stochastic block model — the first §9 future-work item ("we would like
//! to extend our communication-free paradigm to various other network
//! models such as the stochastic block-model"), built entirely from the
//! paper's own machinery.
//!
//! Vertices are grouped into blocks; a pair inside block `a` appears with
//! probability `P[a][a]`, a pair across blocks `(a, b)` with `P[a][b]`.
//! Each unordered block pair is a G(n,p)-style sampling problem over a
//! rectangular (or triangular) universe — exactly the chunk sampling of
//! §4: the pair's universe is split into pieces by its expected edge
//! count, each piece gets a Binomial count and is one leaf of the ER
//! family's `leaf_edges`, seeded by the piece. Pieces are strided over
//! PEs in (pair, piece) order, enumerated as a PE walks the pairs, so the
//! instance is independent of the PE count and no communication is ever
//! needed. Every block pair's universe must fit a `u64`; the
//! `blocks × blocks` probability matrix is the model's O(blocks²) state.

use crate::er::{leaf_edges, Piece};
use crate::streaming::{BatchEmit, Batcher};
use crate::{even_split, Generator, PeGraph};
use kagen_dist::binomial;
use kagen_sampling::Take;
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

/// Vertex pairs of block pair `(a, b)`: the unordered pairs inside block
/// `a` when `a == b`, else `sizes[a] · sizes[b]`.
fn pair_universe(sizes: &[u64], a: usize, b: usize) -> u128 {
    let (sa, sb) = (sizes[a] as u128, sizes[b] as u128);
    if a == b {
        sa * sa.saturating_sub(1) / 2
    } else {
        sa * sb
    }
}

impl StochasticBlockModel {
    /// Planted-partition instance: `k` equal blocks over `n` vertices,
    /// within-block probability `p_in`, cross-block probability `p_out`.
    pub fn planted(n: u64, k: usize, p_in: f64, p_out: f64) -> Self {
        assert!(k >= 1 && (k as u64) <= n);
        let sizes = (0..k).map(|i| even_split(n, k, i)).map(|r| r.end - r.start);
        let probs = (0..k)
            .map(|a| (0..k).map(|b| if a == b { p_in } else { p_out }).collect())
            .collect();
        Self::new(sizes.collect(), probs)
    }

    /// Fully general instance: explicit block sizes and a symmetric
    /// probability matrix. Every block pair's universe must fit a `u64`
    /// (the front-end refuses `planted` instances that break this,
    /// [`crate::er::largest_piece`]).
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
                let pairs = pair_universe(&sizes, a, b);
                assert!(
                    pairs <= u64::MAX as u128,
                    "block pair ({a}, {b}) has {pairs} vertex pairs, more than 2^64 - 1"
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

    /// Number of equal pieces a pair's universe is cut into — a pure
    /// function of the instance (never of the PE count).
    fn pair_pieces(&self, a: usize, b: usize) -> u64 {
        let expected = pair_universe(&self.sizes, a, b) as f64 * self.probs[a][b];
        ((expected / 8192.0) as u64)
            .next_power_of_two()
            .clamp(1, 4096)
    }

    /// Sample piece `piece` of block pair `(a, b)`, emitting global edges.
    fn sample_unit<F: FnMut(u64, u64)>(&self, a: usize, b: usize, piece: u64, emit: &mut F) {
        let universe = pair_universe(&self.sizes, a, b); // < 2^64, asserted by `new`
        let pieces = self.pair_pieces(a, b) as u128;
        let start = (universe * piece as u128 / pieces) as u64;
        let len = (universe * (piece as u128 + 1) / pieces) as u64 - start;
        if len == 0 {
            return;
        }
        let tags = |tag| [tag, 0x73626d, a as u64, b as u64, piece]; // "sbm"
        let mut count_rng = Mt64::new(derive_seed(self.seed, &tags(stream::MISC)));
        let count = binomial(&mut count_rng, len as u128, self.probs[a][b]);
        let at = (self.offsets[a], self.offsets[b]);
        let place = if a == b {
            Piece::Triangle { at: at.0, start }
        } else {
            let cols = self.sizes[b];
            Piece::Rect { at, cols, start }
        };
        let seed = derive_seed(self.seed, &tags(stream::SAMPLE));
        leaf_edges(seed, len, Take::Exact(count), place, emit);
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
    /// The (pair, piece) work units of the instance are numbered in
    /// order and unit `i` belongs to PE `i mod chunks`: PEs own disjoint
    /// unit sets, each edge is emitted exactly once globally. A PE walks
    /// the pairs and counts their pieces, sampling only its own.
    pub(crate) fn stream_edges<F: FnMut(u64, u64)>(&self, pe: usize, emit: &mut F) {
        let (k, chunks) = (self.num_blocks(), self.chunks as u64);
        let mut first = 0u64; // number of the pair's first unit
        for a in 0..k {
            for b in a..k {
                if self.probs[a][b] == 0.0 || pair_universe(&self.sizes, a, b) == 0 {
                    continue;
                }
                let pieces = self.pair_pieces(a, b);
                let own = (pe as u64 + chunks - first % chunks) % chunks;
                for piece in (own..pieces).step_by(self.chunks) {
                    self.sample_unit(a, b, piece, emit);
                }
                first += pieces;
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
    fn block_pairs_beyond_64_bits_are_refused() {
        // 2^33 vertices in one block hold C(2^33, 2) > 2^64 pairs, in two
        // blocks a cross pair of exactly 2^64: both used to wrap in u64
        // (the second to 0 pairs and no edges at all); both are refused.
        for k in [1, 2] {
            let built =
                std::panic::catch_unwind(|| StochasticBlockModel::planted(1 << 33, k, 0.0, 1e-16));
            assert!(built.is_err(), "{k} blocks");
        }
        // Three blocks fit: 3 · (2^33 / 3)^2 · 10^-16 ≈ 2 460 edges
        // expected (sd ≈ 50), over all 2^33 ids.
        let gen = StochasticBlockModel::planted(1 << 33, 3, 0.0, 1e-16)
            .with_seed(1)
            .with_chunks(4);
        let el = generate_undirected(&gen);
        assert!((2200..2700).contains(&el.edges.len()), "{}", el.edges.len());
        assert!(el.edges.iter().any(|&(_, v)| v >= 3 << 31));
    }

    #[test]
    fn largest_piece_is_the_largest_block_pair() {
        for n in 1..40u64 {
            for k in 1..=n as usize {
                let gen = StochasticBlockModel::planted(n, k, 0.5, 0.5);
                let most = (0..k)
                    .flat_map(|a| (a..k).map(move |b| (a, b)))
                    .map(|(a, b)| pair_universe(&gen.sizes, a, b))
                    .max();
                let want = crate::er::largest_piece(n, k as u64);
                assert_eq!(most, Some(want), "n={n} k={k}");
            }
        }
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

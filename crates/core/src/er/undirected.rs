//! Undirected G(n,m) and G(n,p): the triangular chunk-matrix scheme (§4.2).
//!
//! The adjacency matrix is restricted to its lower triangle and divided
//! into a Q×Q triangular chunk matrix. PE i is responsible for chunk row i
//! and chunk column i — so the edges of chunk (i,j) are generated twice,
//! once by PE i and once by PE j, from the *same* chunk-seeded PRNG, which
//! makes the copies bit-identical without communication. The recomputation
//! overhead is bounded by 2m.
//!
//! Chunk sample counts come from a quadrant recursion over the chunk
//! matrix: a triangular region splits into (triangle, rectangle, triangle)
//! with hypergeometric variates; rectangles split along their longer axis.
//! All variates are drawn from recursion-node-seeded PRNGs, so every PE
//! reconstructs identical counts along its paths.

use super::{leaf_edges, GnpLeaves, Piece};
use crate::streaming::{BatchEmit, Batcher};
use crate::{Generator, PeGraph};
use kagen_dist::hypergeometric;
use kagen_sampling::Take;
use kagen_util::derive_seed;
use kagen_util::seed::{stream, SeedTree};

/// Geometry of the Q×Q triangular chunk matrix over `n` vertices.
#[derive(Clone, Copy, Debug)]
struct ChunkMatrix {
    n: u64,
    q: u64,
}

impl ChunkMatrix {
    fn new(n: u64, chunks: usize) -> Self {
        // At most one chunk per vertex.
        let q = (chunks as u64).clamp(1, n.max(1));
        ChunkMatrix { n, q }
    }

    /// First vertex of chunk row/column `i`.
    #[inline]
    fn start(&self, i: u64) -> u64 {
        (self.n as u128 * i as u128 / self.q as u128) as u64
    }

    /// Vertices covered by rows `[a, b)`.
    #[inline]
    fn span(&self, a: u64, b: u64) -> u64 {
        self.start(b) - self.start(a)
    }

    /// Universe of a triangular region over rows = cols `[a, b)`.
    #[inline]
    fn tri_universe(&self, a: u64, b: u64) -> u128 {
        let s = self.span(a, b) as u128;
        s * s.saturating_sub(1) / 2
    }

    /// Universe of a rectangular region rows `[ra, rb)` × cols `[ca, cb)`.
    #[inline]
    fn rect_universe(&self, ra: u64, rb: u64, ca: u64, cb: u64) -> u128 {
        self.span(ra, rb) as u128 * self.span(ca, cb) as u128
    }

    /// Chunk `(i, j)` as a leaf: its pair universe — the triangle over
    /// span `i` when `i == j`, span `i` × span `j` otherwise — and where
    /// its offsets land. Both owners draw it from the same chunk-id
    /// seed. Asserted to fit a `u64`; the front-end refuses chunk counts
    /// that leave a larger chunk ([`super::largest_piece`]).
    fn leaf(&self, i: u64, j: u64) -> (u64, Piece) {
        let (at, start) = (self.start(i), 0);
        let (universe, piece) = if i == j {
            (self.tri_universe(i, i + 1), Piece::Triangle { at, start })
        } else {
            let (at, cols) = ((at, self.start(j)), self.span(j, j + 1));
            (
                self.rect_universe(i, i + 1, j, j + 1),
                Piece::Rect { at, cols, start },
            )
        };
        assert!(
            universe <= u64::MAX as u128,
            "chunk too large: raise chunks"
        );
        (universe as u64, piece)
    }
}

/// The shared chunk-count recursion; calls `f(i, j, count)` for every chunk
/// of PE `pe` (row `pe` and column `pe`) with a nonzero sample count.
struct Recursion<'a, F: FnMut(u64, u64, u64)> {
    grid: ChunkMatrix,
    pe: u64,
    f: &'a mut F,
}

impl<F: FnMut(u64, u64, u64)> Recursion<'_, F> {
    fn tri(&mut self, node: SeedTree, a: u64, b: u64, count: u64) {
        if count == 0 || self.pe < a || self.pe >= b {
            return;
        }
        if b - a == 1 {
            (self.f)(a, a, count);
            return;
        }
        let mid = a + (b - a).div_ceil(2);
        let u_t1 = self.grid.tri_universe(a, mid);
        let u_rect = self.grid.rect_universe(mid, b, a, mid);
        let u_t2 = self.grid.tri_universe(mid, b);
        let mut rng = node.rng();
        let x1 = hypergeometric(&mut rng, u_t1 + u_rect + u_t2, u_t1, count);
        let x2 = hypergeometric(&mut rng, u_rect + u_t2, u_rect, count - x1);
        let x3 = count - x1 - x2;
        self.tri(node.child(0), a, mid, x1);
        self.rect(node.child(1), mid, b, a, mid, x2);
        self.tri(node.child(2), mid, b, x3);
    }

    fn rect(&mut self, node: SeedTree, ra: u64, rb: u64, ca: u64, cb: u64, count: u64) {
        if count == 0 {
            return;
        }
        let in_rows = (ra..rb).contains(&self.pe);
        let in_cols = (ca..cb).contains(&self.pe);
        if !in_rows && !in_cols {
            return;
        }
        if rb - ra == 1 && cb - ca == 1 {
            (self.f)(ra, ca, count);
            return;
        }
        // Split the longer dimension.
        let mut rng = node.rng();
        if rb - ra >= cb - ca {
            let mid = ra + (rb - ra).div_ceil(2);
            let u_top = self.grid.rect_universe(ra, mid, ca, cb);
            let u_bot = self.grid.rect_universe(mid, rb, ca, cb);
            let x = hypergeometric(&mut rng, u_top + u_bot, u_top, count);
            self.rect(node.child(0), ra, mid, ca, cb, x);
            self.rect(node.child(1), mid, rb, ca, cb, count - x);
        } else {
            let mid = ca + (cb - ca).div_ceil(2);
            let u_left = self.grid.rect_universe(ra, rb, ca, mid);
            let u_right = self.grid.rect_universe(ra, rb, mid, cb);
            let x = hypergeometric(&mut rng, u_left + u_right, u_left, count);
            self.rect(node.child(0), ra, rb, ca, mid, x);
            self.rect(node.child(1), ra, rb, mid, cb, count - x);
        }
    }
}

/// Undirected Erdős–Rényi G(n,m): uniform over all simple undirected
/// graphs with exactly `m` edges (§4.2).
#[derive(Clone, Debug)]
pub struct GnmUndirected {
    n: u64,
    m: u64,
    seed: u64,
    chunks: usize,
}

impl GnmUndirected {
    /// New instance with `n` vertices and `m` edges.
    ///
    /// Panics if `m` exceeds `n(n−1)/2`.
    pub fn new(n: u64, m: u64) -> Self {
        let universe = (n as u128) * (n as u128).saturating_sub(1) / 2;
        assert!(
            (m as u128) <= universe,
            "m={m} exceeds the undirected universe n(n-1)/2={universe}"
        );
        GnmUndirected {
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

    /// Set the number of logical PEs (also the chunk-matrix dimension Q;
    /// part of the instance definition).
    pub fn with_chunks(mut self, chunks: usize) -> Self {
        assert!(chunks >= 1);
        self.chunks = chunks;
        self
    }
}

impl Generator for GnmUndirected {
    fn num_vertices(&self) -> u64 {
        self.n
    }

    fn num_chunks(&self) -> usize {
        ChunkMatrix::new(self.n, self.chunks).q as usize
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
        let grid = ChunkMatrix::new(self.n, self.chunks);
        PeGraph {
            pe,
            vertex_begin: grid.start(pe as u64),
            vertex_end: grid.start(pe as u64 + 1),
            ..PeGraph::default()
        }
    }
}

impl GnmUndirected {
    /// Emit PE `pe`'s edges without materializing them (§9 streaming) —
    /// the one edge-producing function behind `stream_pe_batched`,
    /// generic over the consumer so callers monomorphize.
    pub(crate) fn stream_edges<F: FnMut(u64, u64)>(&self, pe: usize, emit: &mut F) {
        let grid = ChunkMatrix::new(self.n, self.chunks);
        if self.n < 2 {
            return;
        }
        let root = SeedTree::root(
            derive_seed(self.seed, &[stream::MISC, 0x6d75]), // "mu" = gnm undirected
            stream::SPLIT,
            3,
        );
        let mut chunks_found: Vec<(u64, u64, u64)> = Vec::new();
        {
            let mut f = |i: u64, j: u64, c: u64| chunks_found.push((i, j, c));
            let mut rec = Recursion {
                grid,
                pe: pe as u64,
                f: &mut f,
            };
            rec.tri(root, 0, grid.q, self.m);
        }
        for (i, j, count) in chunks_found {
            let (len, piece) = grid.leaf(i, j);
            let seed = derive_seed(self.seed, &[stream::SAMPLE, i, j]);
            leaf_edges(seed, len, Take::Exact(count), piece, emit);
        }
    }
}

/// Undirected Gilbert G(n,p) (§4.3): per-chunk binomial counts, no
/// recursion needed because chunk universes are predetermined.
#[derive(Clone, Debug)]
pub struct GnpUndirected {
    n: u64,
    p: f64,
    seed: u64,
    chunks: usize,
    leaves: GnpLeaves,
}

impl GnpUndirected {
    /// New instance with `n` vertices and edge probability `p`.
    pub fn new(n: u64, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be in [0,1]");
        GnpUndirected {
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

    /// Set the number of logical PEs (= chunk-matrix dimension Q).
    pub fn with_chunks(mut self, chunks: usize) -> Self {
        assert!(chunks >= 1);
        self.chunks = chunks;
        self
    }

    /// Select the chunk-sampling algorithm (part of the instance
    /// definition — see [`GnpLeaves`]).
    pub fn with_leaves(mut self, leaves: GnpLeaves) -> Self {
        self.leaves = leaves;
        self
    }
}

impl Generator for GnpUndirected {
    fn num_vertices(&self) -> u64 {
        self.n
    }

    fn num_chunks(&self) -> usize {
        ChunkMatrix::new(self.n, self.chunks).q as usize
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
        let grid = ChunkMatrix::new(self.n, self.chunks);
        let pe_id = pe as u64;
        PeGraph {
            pe,
            vertex_begin: grid.start(pe_id),
            vertex_end: grid.start(pe_id + 1),
            ..PeGraph::default()
        }
    }
}

impl GnpUndirected {
    /// The chunk ids PE `pe` owns, in emission order: row `pe` then
    /// column `pe`.
    fn chunk_ids(grid: &ChunkMatrix, pe_id: u64) -> impl Iterator<Item = (u64, u64)> + '_ {
        (0..=pe_id)
            .map(move |j| (pe_id, j))
            .chain((pe_id + 1..grid.q).map(move |i| (i, pe_id)))
    }

    /// Emit PE `pe`'s edges without materializing them (§9 streaming) —
    /// the one edge-producing function behind `stream_pe_batched`,
    /// generic over the consumer so callers monomorphize.
    pub(crate) fn stream_edges<F: FnMut(u64, u64)>(&self, pe: usize, emit: &mut F) {
        let grid = ChunkMatrix::new(self.n, self.chunks);
        let pe_id = pe as u64;
        if self.n < 2 || self.p == 0.0 {
            return;
        }
        for (i, j) in Self::chunk_ids(&grid, pe_id) {
            let (len, piece) = grid.leaf(i, j);
            let seed = |tag| derive_seed(self.seed, &[tag, i, j]);
            let take = self.leaves.take(seed(stream::COUNT), len, self.p);
            leaf_edges(seed(stream::SAMPLE), len, take, piece, emit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate_parallel, generate_undirected};

    #[test]
    fn gnm_exact_count_simple_graph() {
        let gen = GnmUndirected::new(300, 2000).with_seed(5).with_chunks(8);
        let el = generate_undirected(&gen);
        assert_eq!(el.edges.len(), 2000);
        assert!(!el.has_self_loops());
        assert!(!el.has_out_of_range());
        for &(u, v) in &el.edges {
            assert!(u < v, "canonical orientation");
        }
    }

    #[test]
    fn gnm_redundant_chunks_identical() {
        // The overlap of PE i's and PE j's outputs must contain exactly the
        // same cross edges.
        let gen = GnmUndirected::new(120, 800).with_seed(11).with_chunks(6);
        let parts = generate_parallel(&gen, 0);
        for i in 0..6usize {
            for j in 0..i {
                let set_i: std::collections::HashSet<(u64, u64)> = parts[i]
                    .edges
                    .iter()
                    .copied()
                    .filter(|&(u, v)| {
                        let vj = parts[j].vertex_begin..parts[j].vertex_end;
                        vj.contains(&v) || vj.contains(&u)
                    })
                    .collect();
                let set_j: std::collections::HashSet<(u64, u64)> = parts[j]
                    .edges
                    .iter()
                    .copied()
                    .filter(|&(u, v)| {
                        let vi = parts[i].vertex_begin..parts[i].vertex_end;
                        vi.contains(&v) || vi.contains(&u)
                    })
                    .collect();
                assert_eq!(set_i, set_j, "chunk ({i},{j}) differs between owners");
            }
        }
    }

    #[test]
    fn gnm_thread_count_invariance() {
        let gen = GnmUndirected::new(200, 1500).with_seed(3).with_chunks(16);
        let seq: Vec<_> = (0..16).map(|pe| gen.generate_pe(pe).edges).collect();
        let par = generate_parallel(&gen, 8);
        for (pe, part) in par.iter().enumerate() {
            assert_eq!(part.edges, seq[pe], "PE {pe}");
        }
    }

    #[test]
    fn gnm_full_universe() {
        let n = 24u64;
        let m = n * (n - 1) / 2;
        let el = generate_undirected(&GnmUndirected::new(n, m).with_seed(1).with_chunks(4));
        assert_eq!(
            el.edges.len() as u64,
            m,
            "must enumerate the complete graph"
        );
    }

    #[test]
    fn gnm_uniform_over_pairs() {
        let n = 10u64;
        let m = 9u64;
        let reps = 6000u64;
        let mut counts = std::collections::HashMap::new();
        for seed in 0..reps {
            let el = generate_undirected(&GnmUndirected::new(n, m).with_seed(seed).with_chunks(3));
            assert_eq!(el.edges.len() as u64, m, "seed {seed}");
            for e in el.edges {
                *counts.entry(e).or_insert(0u32) += 1;
            }
        }
        let pairs = (n * (n - 1) / 2) as f64;
        let prob = m as f64 / pairs;
        let expect = reps as f64 * prob;
        let sd = (expect * (1.0 - prob)).sqrt();
        assert_eq!(counts.len() as f64, pairs, "every pair must appear");
        for (e, c) in counts {
            assert!(
                (c as f64 - expect).abs() < 6.0 * sd,
                "pair {e:?}: {c} vs {expect}"
            );
        }
    }

    #[test]
    fn gnp_mean_and_simplicity() {
        let n = 250u64;
        let p = 0.02;
        let reps = 30;
        let mut total = 0usize;
        for seed in 0..reps {
            let el = generate_undirected(&GnpUndirected::new(n, p).with_seed(seed).with_chunks(5));
            assert!(!el.has_self_loops());
            total += el.edges.len();
        }
        let mean = total as f64 / reps as f64;
        let expect = (n * (n - 1) / 2) as f64 * p;
        assert!(
            (mean - expect).abs() / expect < 0.05,
            "mean {mean} vs {expect}"
        );
    }

    #[test]
    fn gnp_redundancy_consistency() {
        let gen = GnpUndirected::new(90, 0.1).with_seed(17).with_chunks(9);
        let parts = generate_parallel(&gen, 0);
        let merged = generate_undirected(&gen);
        // Every PE's edges are a subset of the merged instance.
        let all: std::collections::HashSet<(u64, u64)> = merged.edges.iter().copied().collect();
        for part in parts {
            for (u, v) in part.edges {
                let canon = (u.min(v), u.max(v));
                assert!(all.contains(&canon), "stray edge {canon:?}");
            }
        }
    }

    #[test]
    fn gnp_leaf_samplers_define_distinct_instances() {
        let skip = generate_undirected(&GnpUndirected::new(150, 0.05).with_seed(3).with_chunks(4));
        let algo_d = generate_undirected(
            &GnpUndirected::new(150, 0.05)
                .with_seed(3)
                .with_chunks(4)
                .with_leaves(GnpLeaves::AlgoD),
        );
        assert_ne!(skip.edges, algo_d.edges);
        for el in [&skip, &algo_d] {
            assert!(!el.has_self_loops());
            assert!(!el.has_out_of_range());
        }
    }

    #[test]
    fn gnp_algo_d_mean_and_redundancy() {
        let n = 250u64;
        let p = 0.02;
        let reps = 30;
        let mut total = 0usize;
        for seed in 0..reps {
            let gen = GnpUndirected::new(n, p)
                .with_seed(seed)
                .with_chunks(5)
                .with_leaves(GnpLeaves::AlgoD);
            let el = generate_undirected(&gen);
            assert!(!el.has_self_loops());
            total += el.edges.len();
        }
        let mean = total as f64 / reps as f64;
        let expect = (n * (n - 1) / 2) as f64 * p;
        assert!(
            (mean - expect).abs() / expect < 0.05,
            "mean {mean} vs {expect}"
        );
    }

    #[test]
    fn gnp_skip_redundant_chunks_identical() {
        // The skip sampler must keep the §4.2 redundancy property: the
        // two owners of a chunk regenerate identical cross edges.
        let gen = GnpUndirected::new(120, 0.08).with_seed(11).with_chunks(6);
        let parts = generate_parallel(&gen, 0);
        for i in 0..6usize {
            for j in 0..i {
                let set_i: std::collections::HashSet<(u64, u64)> = parts[i]
                    .edges
                    .iter()
                    .copied()
                    .filter(|&(u, v)| {
                        let vj = parts[j].vertex_begin..parts[j].vertex_end;
                        vj.contains(&v) || vj.contains(&u)
                    })
                    .collect();
                let set_j: std::collections::HashSet<(u64, u64)> = parts[j]
                    .edges
                    .iter()
                    .copied()
                    .filter(|&(u, v)| {
                        let vi = parts[i].vertex_begin..parts[i].vertex_end;
                        vi.contains(&v) || vi.contains(&u)
                    })
                    .collect();
                assert_eq!(set_i, set_j, "chunk ({i},{j}) differs between owners");
            }
        }
    }

    #[test]
    fn largest_piece_is_the_largest_chunk() {
        for n in 0..40u64 {
            for chunks in 1..45usize {
                let grid = ChunkMatrix::new(n, chunks);
                let most = (0..grid.q)
                    .flat_map(|i| (0..=i).map(move |j| (i, j)))
                    .map(|(i, j)| grid.leaf(i, j).0 as u128)
                    .max();
                let want = super::super::largest_piece(n, chunks as u64);
                assert_eq!(most, Some(want), "n={n} chunks={chunks}");
            }
        }
    }

    #[test]
    fn single_chunk_degenerates_to_sequential() {
        let el = generate_undirected(&GnmUndirected::new(50, 100).with_seed(2).with_chunks(1));
        assert_eq!(el.edges.len(), 100);
    }

    #[test]
    fn chunks_clamped_to_n() {
        let gen = GnmUndirected::new(4, 3).with_seed(1).with_chunks(100);
        assert_eq!(gen.num_chunks(), 4);
        let el = generate_undirected(&gen);
        assert_eq!(el.edges.len(), 3);
    }

    #[test]
    fn tiny_graphs() {
        assert_eq!(
            generate_undirected(&GnmUndirected::new(2, 1).with_seed(1)).edges,
            vec![(0, 1)]
        );
        assert_eq!(
            generate_undirected(&GnmUndirected::new(1, 0).with_seed(1)).m(),
            0
        );
    }
}

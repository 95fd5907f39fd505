//! Erdős–Rényi generators (§4): G(n,m) and G(n,p), directed and undirected.
//!
//! The directed generators sample edge *indices* from the universe
//! `[0, n(n−1))` (all ordered pairs without self-loops) cut into leaf
//! blocks — split by the distributed divide-and-conquer sampler for
//! G(n,m); the undirected generators use the triangular chunk-matrix
//! scheme of §4.2 so that the two PEs adjacent to a chunk regenerate
//! identical edges. Every leaf of the family — a block, a chunk, an SBM
//! piece — is drawn and decoded by one function,
//! `leaf_edges`: the shared leaf sampler
//! ([`kagen_sampling::sample_leaf`]) over one of three decoders.

mod directed;
mod undirected;

pub use directed::{GnmDirected, GnpDirected};
pub use undirected::{GnmUndirected, GnpUndirected};

use kagen_dist::binomial;
use kagen_sampling::{sample_leaf, Take};
use kagen_util::Mt64;

/// Leaf-sampling algorithm of the G(n,p) generators.
///
/// The default is geometric skip sampling (Batagelj–Brandes): one
/// uniform per emitted edge, converted by the block-batched kernel
/// (`kagen_dist::geometric`). `AlgoD` reproduces the pre-skip-kernel
/// instances (per-leaf binomial count + Vitter Method D) for anyone
/// holding manifests generated before the kernel swap; it is also the
/// bench harness's Algorithm-D comparison point.
/// Both samplers draw G(n,p) exactly — every pair kept independently
/// with probability `p` — they just walk different PRNG streams, so the
/// two settings produce different (equally valid) fixed-seed instances.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum GnpLeaves {
    /// Geometric skip sampling over each leaf block (the default).
    #[default]
    Skip,
    /// Binomial count + Vitter Method D per leaf (the historical path).
    AlgoD,
}

impl GnpLeaves {
    /// What a G(n,p) leaf of `len` pairs takes: each pair with
    /// probability `p`, or a "predetermined" binomial count (§4.3) drawn
    /// from the PRNG seeded `count_seed`.
    fn take(self, count_seed: u64, len: u64, p: f64) -> Take {
        match self {
            GnpLeaves::Skip => Take::Bernoulli(p),
            GnpLeaves::AlgoD => Take::Exact(binomial(&mut Mt64::new(count_seed), len as u128, p)),
        }
    }
}

/// Where a leaf's offsets land: the decoder, the vertices it is placed
/// at and the offset of the leaf's first index in the decoder's
/// universe.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Piece {
    /// A block of the directed universe `[0, n(n−1))` from index `start`.
    Directed { n: u64, start: u128 },
    /// The lower triangle over the vertices from `at` (pairs `(u, v)`,
    /// `v < u`), from index `start`.
    Triangle { at: u64, start: u64 },
    /// Rows of `cols` pairs, the first from vertex `at.0` to vertices
    /// `at.1..at.1 + cols`, from index `start`.
    Rect {
        at: (u64, u64),
        cols: u64,
        start: u64,
    },
}

/// The one ER leaf: the offsets `take` draws from `[0, len)` (the shared
/// leaf sampler, PRNG seeded `seed`) decoded as edges of `piece`.
/// Offsets arrive sorted, so the directed and triangle decoders advance
/// incrementally. The decoder is chosen once per leaf, so each arm's
/// per-offset loop is monomorphic.
#[inline]
pub(crate) fn leaf_edges<F: FnMut(u64, u64)>(
    seed: u64,
    len: u64,
    take: Take,
    piece: Piece,
    emit: &mut F,
) {
    match piece {
        Piece::Directed { n, start } => {
            let mut dec = MonotoneEdgeDecoder::new(n);
            sample_leaf(seed, len, take, &mut |i| {
                let (u, v) = dec.decode(start + i as u128);
                emit(u, v);
            });
        }
        Piece::Triangle { at, start } => {
            let mut dec = MonotoneTriangleDecoder::new();
            sample_leaf(seed, len, take, &mut |i| {
                let (u, v) = dec.decode((start + i) as u128);
                emit(at + u, at + v);
            });
        }
        Piece::Rect { at, cols, start } => {
            // Reciprocal row split: sampled gaps hop many rows at once,
            // so the O(1) estimate beats a monotone advance.
            let rows = RowSplitter64::new(cols);
            sample_leaf(seed, len, take, &mut |i| {
                let (row, off) = rows.split(start + i);
                emit(at.0 + row, at.1 + off);
            });
        }
    }
}

/// The most vertex pairs one piece holds when `n` vertices are cut into
/// `parts` contiguous parts of ⌊n/parts⌋ or ⌈n/parts⌉ vertices (n mod
/// parts of the latter) — a chunk of the undirected generators' chunk
/// matrix, a block pair of [`crate::sbm::StochasticBlockModel::planted`]:
/// one triangle when there is one part, else the rectangle across the
/// two largest parts. A leaf's universe must fit a `u64`.
pub fn largest_piece(n: u64, parts: u64) -> u128 {
    let n = n as u128;
    if parts <= 1 {
        return n * n.saturating_sub(1) / 2;
    }
    let (q, r) = (n / parts as u128, n % parts as u128);
    (q + (r > 0) as u128) * (q + (r > 1) as u128)
}

/// Map a directed edge index in `[0, n(n−1))` to the ordered pair `(u, v)`
/// with `u ≠ v` (§4.1 "simple offset computations": column indices skip the
/// diagonal).
#[inline]
pub fn directed_index_to_edge(n: u64, idx: u128) -> (u64, u64) {
    debug_assert!(idx < (n as u128) * (n as u128 - 1));
    let u = (idx / (n as u128 - 1)) as u64;
    let c = (idx % (n as u128 - 1)) as u64;
    let v = if c < u { c } else { c + 1 };
    (u, v)
}

/// Inverse of [`directed_index_to_edge`] (used by tests).
#[inline]
pub fn directed_edge_to_index(n: u64, u: u64, v: u64) -> u128 {
    debug_assert!(u != v && u < n && v < n);
    let c = if v < u { v } else { v - 1 };
    (u as u128) * (n as u128 - 1) + c as u128
}

/// Incremental `(row, offset)` splitter for *sorted* indices over
/// fixed-length rows.
///
/// A division and modulo per index is the dominant per-edge arithmetic
/// of the index-decoding hot paths (128-bit for the directed universe,
/// 64-bit for rectangular chunks). Sampled indices arrive sorted, so the
/// row is non-decreasing: the splitter advances it by subtraction
/// (amortized O(1)) and only falls back to the division when a gap skips
/// many rows at once (sparse instances), keeping the worst case O(m).
#[derive(Clone, Copy, Debug)]
pub struct MonotoneRowSplitter {
    row_len: u128,
    row: u64,
    base: u128,
    primed: bool,
}

impl MonotoneRowSplitter {
    /// Linear row advances per split before falling back to division.
    const MAX_LINEAR_ROWS: u32 = 8;

    /// Splitter over rows of `row_len` indices (`row_len ≥ 1`).
    #[inline]
    pub fn new(row_len: u128) -> Self {
        debug_assert!(row_len >= 1);
        MonotoneRowSplitter {
            row_len,
            row: 0,
            base: 0,
            primed: false,
        }
    }

    /// Split `idx` into `(row, offset)`; indices must arrive in
    /// non-decreasing order.
    #[inline]
    pub fn split(&mut self, idx: u128) -> (u64, u64) {
        debug_assert!(!self.primed || idx >= self.base);
        if !self.primed {
            self.primed = true;
            self.row = (idx / self.row_len) as u64;
            self.base = self.row as u128 * self.row_len;
        }
        let mut steps = 0u32;
        while idx - self.base >= self.row_len {
            if steps >= Self::MAX_LINEAR_ROWS {
                self.row = (idx / self.row_len) as u64;
                self.base = self.row as u128 * self.row_len;
                break;
            }
            self.base += self.row_len;
            self.row += 1;
            steps += 1;
        }
        (self.row, (idx - self.base) as u64)
    }
}

/// Incremental decoder for *sorted* directed edge indices — the
/// monotone counterpart of [`directed_index_to_edge`]: a
/// [`MonotoneRowSplitter`] over rows of `n − 1` plus the diagonal skip.
#[derive(Clone, Copy, Debug)]
pub struct MonotoneEdgeDecoder {
    rows: MonotoneRowSplitter,
}

impl MonotoneEdgeDecoder {
    /// Decoder over `n` vertices (`n ≥ 2`).
    #[inline]
    pub fn new(n: u64) -> Self {
        debug_assert!(n >= 2);
        MonotoneEdgeDecoder {
            rows: MonotoneRowSplitter::new(n as u128 - 1),
        }
    }

    /// Decode `idx`; indices must be passed in non-decreasing order.
    #[inline]
    pub fn decode(&mut self, idx: u128) -> (u64, u64) {
        let (u, c) = self.rows.split(idx);
        (u, c + (c >= u) as u64)
    }
}

/// Row/offset splitter over fixed-length `u64` rows via a float
/// reciprocal estimate with an exact integer fixup — stateless, O(1)
/// per index. The estimate is almost always exact or ±1 (one f64
/// rounding each from the cast and the reciprocal); when it is further
/// off — f64 granularity at the top of the `u64` range with tiny rows —
/// the split falls back to the exact division. Intermediate products
/// use `u128` so `row · len` cannot overflow near `u64::MAX` universes.
///
/// This is the chunk-decode counterpart of [`MonotoneRowSplitter`]: the
/// monotone splitter wins when consecutive indices usually stay within
/// a row (the directed universe), the reciprocal splitter wins when
/// gaps hop many rows at once (skip-sampled chunks).
#[derive(Clone, Copy, Debug)]
pub struct RowSplitter64 {
    len: u64,
    inv: f64,
}

impl RowSplitter64 {
    /// Splitter over rows of `len` indices (`len ≥ 1`).
    #[inline]
    pub fn new(len: u64) -> Self {
        debug_assert!(len >= 1);
        RowSplitter64 {
            len,
            inv: 1.0 / len as f64,
        }
    }

    /// Split `t` into `(row, offset)`.
    #[inline(always)]
    pub fn split(&self, t: u64) -> (u64, u64) {
        let est = (t as f64 * self.inv) as u64;
        let len = self.len as u128;
        let t128 = t as u128;
        let below = est as u128 * len;
        let row = if below > t128 {
            if below - len <= t128 {
                est - 1
            } else {
                t / self.len
            }
        } else if below + len <= t128 {
            if below + 2 * len > t128 {
                est + 1
            } else {
                t / self.len
            }
        } else {
            est
        };
        // row = ⌊t / len⌋, so row · len ≤ t: no overflow.
        (row, t - row * self.len)
    }
}

/// Incremental decoder for *sorted* lower-triangle indices — the
/// monotone counterpart of [`triangle_index_to_pair`]: rows (values of
/// `u`) only grow, so the decoder advances the row by addition and falls
/// back to the float inversion only when a gap skips many rows at once.
#[derive(Clone, Copy, Debug, Default)]
pub struct MonotoneTriangleDecoder {
    /// Current row `u`; `below = u(u−1)/2` indices precede it.
    row: u64,
    below: u128,
    primed: bool,
}

impl MonotoneTriangleDecoder {
    /// Linear row advances per decode before falling back to the float
    /// inversion (rows grow, so sparse streams skip many rows per gap).
    const MAX_LINEAR_ROWS: u32 = 8;

    /// Decoder positioned before the first row.
    #[inline]
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn reseat(&mut self, t: u128) {
        let (u, _) = triangle_index_to_pair(t);
        self.row = u;
        self.below = (u as u128) * (u as u128 - 1) / 2;
    }

    /// Decode `t` into `(u, v)` with `v < u`; indices must arrive in
    /// non-decreasing order.
    #[inline]
    pub fn decode(&mut self, t: u128) -> (u64, u64) {
        debug_assert!(!self.primed || t >= self.below);
        if !self.primed {
            self.primed = true;
            self.reseat(t);
        }
        // Gap too wide for the linear advance to pay off? Rows only
        // grow, so `row · MAX` underestimates the span of the next MAX
        // rows — reseat conservatively, without first burning the
        // linear iterations.
        if t - self.below >= (self.row as u128) << 3 {
            self.reseat(t);
        }
        let mut steps = 0u32;
        while t - self.below >= self.row as u128 {
            if steps >= Self::MAX_LINEAR_ROWS {
                self.reseat(t);
                break;
            }
            self.below += self.row as u128;
            self.row += 1;
            steps += 1;
        }
        (self.row, (t - self.below) as u64)
    }
}

/// Map a lower-triangle index `t ∈ [0, s(s−1)/2)` to the pair `(u, v)`
/// with `0 ≤ v < u < s` (diagonal chunks of the undirected scheme).
#[inline]
pub fn triangle_index_to_pair(t: u128) -> (u64, u64) {
    // u = floor((1 + sqrt(1 + 8t)) / 2), then fix up float rounding.
    let mut u = ((1.0 + (1.0 + 8.0 * t as f64).sqrt()) / 2.0) as u64;
    loop {
        let below = (u as u128) * (u as u128 - 1) / 2;
        if below > t {
            u -= 1;
            continue;
        }
        if (u as u128) * (u as u128 + 1) / 2 <= t {
            u += 1;
            continue;
        }
        let v = (t - below) as u64;
        return (u, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directed_index_roundtrip() {
        let n = 7u64;
        let mut seen = std::collections::HashSet::new();
        for idx in 0..(n as u128) * (n as u128 - 1) {
            let (u, v) = directed_index_to_edge(n, idx);
            assert_ne!(u, v, "self loop from index {idx}");
            assert!(u < n && v < n);
            assert!(seen.insert((u, v)), "duplicate pair from {idx}");
            assert_eq!(directed_edge_to_index(n, u, v), idx);
        }
        assert_eq!(seen.len() as u128, (n as u128) * (n as u128 - 1));
    }

    #[test]
    fn monotone_decoder_matches_division() {
        // Dense scan, sparse jumps (forcing the division fallback) and a
        // restart mid-row must all agree with the per-index division.
        let n = 50u64;
        let mut dec = MonotoneEdgeDecoder::new(n);
        for idx in 0..(n as u128) * (n as u128 - 1) {
            assert_eq!(dec.decode(idx), directed_index_to_edge(n, idx), "{idx}");
        }
        let n = 1u64 << 20;
        let universe = (n as u128) * (n as u128 - 1);
        let mut dec = MonotoneEdgeDecoder::new(n);
        let mut idx = 7u128;
        let mut step = 1u128;
        while idx < universe {
            assert_eq!(dec.decode(idx), directed_index_to_edge(n, idx), "{idx}");
            idx += step;
            step = (step * 3 + 1) % (universe / 13);
        }
        // First index deep inside the universe (primes far from row 0).
        let mut dec = MonotoneEdgeDecoder::new(n);
        let deep = universe - 5;
        assert_eq!(dec.decode(deep), directed_index_to_edge(n, deep));
    }

    #[test]
    fn triangle_index_enumerates_lower_triangle() {
        let s = 12u64;
        let mut seen = std::collections::HashSet::new();
        for t in 0..(s as u128) * (s as u128 - 1) / 2 {
            let (u, v) = triangle_index_to_pair(t);
            assert!(v < u && u < s, "bad pair ({u},{v}) from {t}");
            assert!(seen.insert((u, v)));
        }
        assert_eq!(seen.len() as u128, (s as u128) * (s as u128 - 1) / 2);
    }

    #[test]
    fn row_splitter64_matches_division() {
        for &len in &[1u64, 2, 3, 7, 1000, 16384, u32::MAX as u64 + 7] {
            let sp = RowSplitter64::new(len);
            // Dense small range plus boundary-heavy probes across the
            // u64 range.
            for t in 0..(len.min(200) * 3) {
                assert_eq!(sp.split(t), (t / len, t % len), "t={t} len={len}");
            }
            let mut t = 1u64;
            while t < u64::MAX / 2 {
                for probe in [t - 1, t, t + 1] {
                    assert_eq!(
                        sp.split(probe),
                        (probe / len, probe % len),
                        "t={probe} len={len}"
                    );
                }
                t = t.saturating_mul(3) + 1;
            }
            for probe in [u64::MAX, u64::MAX - 1, u64::MAX / 2] {
                assert_eq!(sp.split(probe), (probe / len, probe % len));
            }
        }
    }

    #[test]
    fn monotone_triangle_decoder_matches_inversion() {
        // Dense scan.
        let s = 40u64;
        let mut dec = MonotoneTriangleDecoder::new();
        for t in 0..(s as u128) * (s as u128 - 1) / 2 {
            assert_eq!(dec.decode(t), triangle_index_to_pair(t), "{t}");
        }
        // Sparse jumps (forcing the reseat fallback) and a deep first
        // index.
        let universe = (1u128 << 40) * ((1u128 << 40) - 1) / 2;
        let mut dec = MonotoneTriangleDecoder::new();
        let mut t = 3u128;
        let mut step = 1u128;
        while t < universe {
            assert_eq!(dec.decode(t), triangle_index_to_pair(t), "{t}");
            t += step;
            step = (step * 5 + 1) % (universe / 7);
        }
        let mut dec = MonotoneTriangleDecoder::new();
        let deep = universe - 2;
        assert_eq!(dec.decode(deep), triangle_index_to_pair(deep));
    }

    #[test]
    fn triangle_index_large_values() {
        // Exercise the float fix-up far beyond exact f64 integers.
        for &t in &[(1u128 << 53) + 12345, (1u128 << 60) + 7] {
            let (u, v) = triangle_index_to_pair(t);
            let below = (u as u128) * (u as u128 - 1) / 2;
            assert!(below <= t && t < below + u as u128);
            assert_eq!(below + v as u128, t);
        }
    }
}

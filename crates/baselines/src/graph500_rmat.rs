//! Graph 500's R-MAT descent: one uniform variate per recursion level.
//!
//! At each of the `scale` levels one of the four quadrants is chosen with
//! probabilities (a, b, c, d) = (0.57, 0.19, 0.19, 0.05) — Θ(m log n)
//! variates, the cost the paper's Figs. 17 and 18 set against the ER
//! generators. `kagen_core::Rmat` samples the same distribution with the
//! linear-work composed table; this baseline is the denominator of its
//! speedup. It uses R-MAT's seeding unchanged (one hashed seed per block
//! of [`SEED_BLOCK_EDGES`] edge indices, one `SplitMix64::at` stream per
//! edge), so its instance is the one `--rmat-kernel plain` used to write.

use kagen_core::rmat::SEED_BLOCK_EDGES;
use kagen_core::streaming::{fill_range_batched, BatchEmit};
use kagen_core::{even_split, Generator};
use kagen_util::seed::stream;
use kagen_util::{derive_seed, Rng64, SplitMix64};
use std::ops::Range;

/// Quadrant probabilities a, b and c (d = 1 − a − b − c).
const A: f64 = 0.57;
const B: f64 = 0.19;
const C: f64 = 0.19;

/// R-MAT by per-level descent, with Graph 500's probabilities.
#[derive(Clone, Debug)]
pub struct Graph500Rmat {
    scale: u32,
    m: u64,
    seed: u64,
    chunks: usize,
}

impl Graph500Rmat {
    /// `n = 2^scale` vertices and `m` edges.
    pub fn new(scale: u32, m: u64) -> Self {
        assert!((1..=63).contains(&scale));
        Graph500Rmat {
            scale,
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

    /// Branchless per-level descent: the three threshold comparisons fold
    /// into the quadrant bits without data-dependent branches
    /// (`u_bit = [x ≥ a+b]`, `v_bit = [x ≥ a] ⊕ [x ≥ a+b] ⊕ [x ≥ a+b+c]`).
    #[inline(always)]
    fn descend(&self, mut rng: SplitMix64) -> (u64, u64) {
        let mut u = 0u64;
        let mut v = 0u64;
        for _ in 0..self.scale {
            let x = rng.next_f64();
            let t0 = (x >= A) as u64;
            let t1 = (x >= A + B) as u64;
            let t2 = (x >= A + B + C) as u64;
            u = (u << 1) | t1;
            v = (v << 1) | (t0 ^ t1 ^ t2);
        }
        (u, v)
    }

    fn block_seed(&self, block: u64) -> u64 {
        derive_seed(self.seed, &[stream::RMAT, block])
    }

    /// Sample edge number `e` of the instance (pure function).
    pub fn edge(&self, e: u64) -> (u64, u64) {
        let block_seed = self.block_seed(e / SEED_BLOCK_EDGES);
        self.descend(SplitMix64::at(block_seed, e % SEED_BLOCK_EDGES))
    }

    /// Append the edges of the index range `range` to `out` — identical to
    /// calling [`Graph500Rmat::edge`] per index, with the hashed block
    /// seed derived once per block.
    pub fn fill_edges(&self, range: Range<u64>, out: &mut Vec<(u64, u64)>) {
        debug_assert!(range.end <= self.m);
        out.reserve((range.end - range.start) as usize);
        let mut e = range.start;
        while e < range.end {
            let block = e / SEED_BLOCK_EDGES;
            let hi = ((block + 1) * SEED_BLOCK_EDGES).min(range.end);
            let block_seed = self.block_seed(block);
            let offsets = e % SEED_BLOCK_EDGES..e % SEED_BLOCK_EDGES + (hi - e);
            out.extend(offsets.map(|off| self.descend(SplitMix64::at(block_seed, off))));
            e = hi;
        }
    }
}

impl Generator for Graph500Rmat {
    fn num_vertices(&self) -> u64 {
        1u64 << self.scale
    }

    fn num_chunks(&self) -> usize {
        self.chunks
    }

    fn directed(&self) -> bool {
        true
    }

    fn stream_pe_batched(&self, pe: usize, buf: &mut Vec<(u64, u64)>, emit: &mut BatchEmit) {
        fill_range_batched(even_split(self.m, self.chunks, pe), buf, emit, |r, out| {
            self.fill_edges(r, out)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Concatenated batched stream over all chunks.
    fn stream_batched(gen: &Graph500Rmat) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut buf = Vec::new();
        for pe in 0..gen.num_chunks() {
            gen.stream_pe_batched(pe, &mut buf, &mut |batch| out.extend_from_slice(batch));
        }
        out
    }

    #[test]
    fn quadrant_masses_are_graph500s() {
        // The coarsest and the finest level hit the quadrants with the
        // exact (a, b, c, d).
        let m = 60_000u64;
        let gen = Graph500Rmat::new(10, m).with_seed(6);
        let mut edges = Vec::new();
        gen.fill_edges(0..m, &mut edges);
        for bit in [9u32, 0] {
            let mut q = [0u64; 4];
            for &(u, v) in &edges {
                q[((((u >> bit) & 1) << 1) | ((v >> bit) & 1)) as usize] += 1;
            }
            for (k, &p) in [0.57, 0.19, 0.19, 0.05].iter().enumerate() {
                let x = q[k] as f64 / m as f64;
                assert!((x - p).abs() < 0.01, "bit {bit}, quadrant {k}: {x} vs {p}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        // Bulk fill, point queries and the batched stream at any chunking
        // deliver the identical edge sequence, at every scale.
        #[test]
        fn fill_point_queries_and_stream_agree(
            scale in 1u32..=63,
            m in 1u64..3_000,
            seed in any::<u64>(),
            chunks in 1usize..9,
        ) {
            let gen = Graph500Rmat::new(scale, m).with_seed(seed).with_chunks(chunks);
            let mut fill = Vec::new();
            gen.fill_edges(0..m, &mut fill);
            prop_assert_eq!(fill.len() as u64, m);
            for &(u, v) in &fill {
                prop_assert_eq!(u >> scale, 0);
                prop_assert_eq!(v >> scale, 0);
            }
            let points: Vec<_> = (0..m).map(|e| gen.edge(e)).collect();
            prop_assert_eq!(&points, &fill);
            prop_assert_eq!(&stream_batched(&gen), &fill);
        }
    }
}

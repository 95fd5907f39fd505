//! R-MAT (recursive matrix) generator (§3.5.2) — the Graph 500 baseline the
//! paper compares against in §8.6.1.
//!
//! Each of the `m` edges is sampled independently by recursively descending
//! the adjacency matrix: at each of the log₂(n) levels one of the four
//! quadrants is chosen with probabilities (a, b, c, d). Because edges are
//! independent, distribution over PEs is trivial: PE `p` owns a contiguous
//! edge-index range and seeds a cheap PRNG per edge. The Θ(m log n) variate
//! cost is exactly the slowdown relative to the ER generators that Fig. 17
//! and 18 demonstrate.
//!
//! **Kernels.** Two descent kernels sample the identical distribution but
//! consume randomness differently (so each defines its own — equally
//! valid — instance per seed):
//!
//! * [`RmatKernel::Plain`] — one uniform variate per level, Θ(scale) per
//!   edge. Works at every scale; the reference semantics.
//! * [`RmatKernel::Linear`] — the linear-work scheme of Hübschle-Schneider
//!   & Sanders ("Linear Work Generation of R-MAT Graphs"): one alias table
//!   over *path blocks*, sized to the L2 cache, whose entries store the u-
//!   and v-halves deinterleaved. A whole edge is the composition of
//!   ⌈scale/levels⌉ draws — the last draw truncated to the remaining
//!   levels, which is exact because the per-level quadrant choices are
//!   i.i.d. (the marginal of the first r levels of an L-level path *is*
//!   the r-level path distribution). No remainder table, no deinterleave,
//!   and no scale cap: u and v accumulate separately, so every scale up
//!   to 63 is degree-exact.
//!
//! **Hot-path seeding.** Edge `e`'s PRNG is seeded in two steps: one hashed
//! seed per fixed-size *block* of `SEED_BLOCK_EDGES` consecutive edge
//! indices, then a single `mix2` for the edge's offset inside its block.
//! `edge(e)` recomputes the block seed every call (it is a pure function),
//! while [`Rmat::fill_edges`] derives it once per block — and, for the
//! linear kernel, runs the composed draws over a lane array so the alias
//! loads of independent edges overlap. Chunk invariance is unaffected: the
//! seed of edge `e` depends only on `(instance seed, e)`, never on the PE
//! boundaries.

use crate::streaming::{fill_range_batched, BatchEmit};
use crate::{even_split, Generator, PeGraph};
use kagen_dist::AliasTable;
use kagen_util::seed::stream;
use kagen_util::{derive_seed, Rng64, SplitMix64};
use std::ops::Range;
use std::sync::Arc;

/// Edge indices per hashed seed block (the amortization granularity of
/// [`Rmat::fill_edges`]).
pub const SEED_BLOCK_EDGES: u64 = 4096;

/// Lanes of the batched composed-table fill: edges whose draws are issued
/// round-robin so the (L2-resident) alias loads of independent lanes
/// pipeline instead of serializing behind one PRNG chain.
const FILL_LANES: usize = 16;

/// Descent kernel selection. Both kernels sample the same edge
/// distribution; they differ in randomness consumption (distinct streams
/// per seed) and in cost per edge. See the module docs for the trade-offs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RmatKernel {
    /// One uniform variate per recursion level.
    Plain,
    /// Linear-work composed path-block table (any scale).
    Linear {
        /// Levels per path block, 1..=12 (clamped to `scale`).
        levels: u32,
    },
}

/// Linear-work composed path-block table.
///
/// Outcome index layout: `idx = (hu << levels) | hv` — the u-half and the
/// v-half of a `levels`-level path, already deinterleaved. Bit
/// `levels − 1 − j` of each half is recursion level `j` (coarsest level in
/// the top bit), so *truncating a draw to its top `r` bits of each half*
/// yields exactly the first `r` levels of the path. Because levels are
/// i.i.d., that truncation is distribution-exact: the final draw of an
/// edge reuses the same table at full speed instead of a separate
/// remainder table.
#[derive(Clone, Debug)]
struct ComposedTable {
    /// Levels per path block (L).
    levels: u32,
    /// Full (untruncated) draws per edge: ⌈scale/L⌉ − 1.
    full_draws: u32,
    /// Levels taken from the final draw: scale − full_draws·L ∈ 1..=L.
    last_levels: u32,
    alias: AliasTable,
}

impl ComposedTable {
    fn new(levels: u32, scale: u32, a: f64, b: f64, c: f64) -> Self {
        assert!((1..=12).contains(&levels));
        assert!(scale >= 1);
        let d = 1.0 - a - b - c;
        let quadrant = [a, b, c, d]; // (u_bit, v_bit) = (0,0) (0,1) (1,0) (1,1)
        let l = levels as usize;
        let k = 1usize << (2 * l);
        let mut weights = Vec::with_capacity(k);
        for idx in 0..k {
            let (hu, hv) = (idx >> l, idx & ((1 << l) - 1));
            let mut w = 1.0f64;
            for bit in 0..l {
                w *= quadrant[(((hu >> bit) & 1) << 1) | ((hv >> bit) & 1)];
            }
            weights.push(w);
        }
        let draws = scale.div_ceil(levels);
        ComposedTable {
            levels,
            full_draws: draws - 1,
            last_levels: scale - (draws - 1) * levels,
            alias: AliasTable::new(&weights),
        }
    }

    /// Split a drawn outcome into its (u-half, v-half).
    #[inline(always)]
    fn halves(&self, idx: u64) -> (u64, u64) {
        (idx >> self.levels, idx & ((1u64 << self.levels) - 1))
    }
}

/// R-MAT generator with Graph 500 default parameters.
#[derive(Clone, Debug)]
pub struct Rmat {
    scale: u32,
    m: u64,
    a: f64,
    b: f64,
    c: f64,
    /// Precomputed prefix sums a+b and a+b+c of the quadrant
    /// probabilities — the two extra thresholds of the branchless descent.
    ab: f64,
    abc: f64,
    seed: u64,
    chunks: usize,
    kernel: KernelState,
}

/// Resolved kernel state (tables built).
#[derive(Clone, Debug)]
enum KernelState {
    Plain,
    Linear(Arc<ComposedTable>),
}

impl Rmat {
    /// `n = 2^scale` vertices, `m` edges, Graph 500 probabilities
    /// (a, b, c, d) = (0.57, 0.19, 0.19, 0.05).
    pub fn new(scale: u32, m: u64) -> Self {
        Self::with_probabilities(scale, m, 0.57, 0.19, 0.19)
    }

    /// Custom quadrant probabilities; `d = 1 − a − b − c`.
    pub fn with_probabilities(scale: u32, m: u64, a: f64, b: f64, c: f64) -> Self {
        assert!((1..=63).contains(&scale));
        assert!(a > 0.0 && b >= 0.0 && c >= 0.0 && a + b + c < 1.0 + 1e-12);
        Rmat {
            scale,
            m,
            a,
            b,
            c,
            ab: a + b,
            abc: a + b + c,
            seed: 1,
            chunks: 64,
            kernel: KernelState::Plain,
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

    /// Select the descent kernel. `levels` outside 1..=12 panics; levels
    /// above `scale` are clamped to `scale`.
    pub fn with_kernel(mut self, kernel: RmatKernel) -> Self {
        self.kernel = match kernel {
            RmatKernel::Plain => KernelState::Plain,
            RmatKernel::Linear { levels } => {
                assert!((1..=12).contains(&levels), "linear levels must be 1..=12");
                let levels = levels.min(self.scale);
                let span = kagen_obs::span("rmat.table_build");
                let table = ComposedTable::new(levels, self.scale, self.a, self.b, self.c);
                drop(span);
                KernelState::Linear(Arc::new(table))
            }
        };
        self
    }

    /// The resolved kernel (after clamping), for display and accounting.
    pub fn kernel(&self) -> RmatKernel {
        match &self.kernel {
            KernelState::Plain => RmatKernel::Plain,
            KernelState::Linear(t) => RmatKernel::Linear { levels: t.levels },
        }
    }

    /// Largest level count whose composed table (8·4^levels bytes of alias
    /// slots) fits a quarter of `l2_bytes` — the cache-sized default of
    /// the linear kernel. A quarter, not the whole cache: the table shares
    /// L2 with the edge output buffer and the streamed seed blocks, and a
    /// table that exactly fills the cache measurably thrashes (a 2 MiB
    /// table in a 2 MiB L2 ran ~25% slower than the 512 KiB table in the
    /// tuning sweep). Pure in its inputs: callers that auto-detect the
    /// cache must pin the resolved value into the instance parameters so
    /// the stream reproduces on differently-cached hosts.
    pub fn auto_linear_levels(scale: u32, l2_bytes: usize) -> u32 {
        let budget = l2_bytes / 4;
        let mut levels = 1u32;
        while levels < 12 && 8usize << (2 * (levels + 1)) <= budget {
            levels += 1;
        }
        levels.min(scale.max(1))
    }

    /// Total number of edges of the instance.
    pub fn num_edges(&self) -> u64 {
        self.m
    }

    /// log₂ of the vertex count.
    pub fn scale(&self) -> u32 {
        self.scale
    }

    /// Hashed seed of the block of edge indices containing edge `e`.
    #[inline]
    fn block_seed(&self, block: u64) -> u64 {
        derive_seed(self.seed, &[stream::RMAT, block])
    }

    /// Branchless per-level descent: the three threshold comparisons fold
    /// into the quadrant bits without data-dependent branches
    /// (`u_bit = [x ≥ a+b]`, `v_bit = [x ≥ a] ⊕ [x ≥ a+b] ⊕ [x ≥ a+b+c]`).
    #[inline(always)]
    fn descend_plain<R: Rng64>(&self, rng: &mut R) -> (u64, u64) {
        let mut u = 0u64;
        let mut v = 0u64;
        for _ in 0..self.scale {
            let x = rng.next_f64();
            let t0 = (x >= self.a) as u64;
            let t1 = (x >= self.ab) as u64;
            let t2 = (x >= self.abc) as u64;
            u = (u << 1) | t1;
            v = (v << 1) | (t0 ^ t1 ^ t2);
        }
        (u, v)
    }

    /// Linear-work descent: `full_draws` whole path blocks composed by
    /// shift+or into the separately-accumulating u and v halves, then one
    /// final draw truncated to the remaining levels (top bits of each
    /// half — exact, see [`ComposedTable`]). ⌈scale/levels⌉ RNG words and
    /// alias loads per edge, no deinterleave, any scale up to 63.
    #[inline(always)]
    fn descend_linear<R: Rng64>(&self, t: &ComposedTable, rng: &mut R) -> (u64, u64) {
        let l = t.levels;
        let mut u = 0u64;
        let mut v = 0u64;
        for _ in 0..t.full_draws {
            let (hu, hv) = t.halves(t.alias.sample_word_pow2(rng.next_u64()) as u64);
            u = (u << l) | hu;
            v = (v << l) | hv;
        }
        let (hu, hv) = t.halves(t.alias.sample_word_pow2(rng.next_u64()) as u64);
        let shift = l - t.last_levels;
        u = (u << t.last_levels) | (hu >> shift);
        v = (v << t.last_levels) | (hv >> shift);
        (u, v)
    }

    /// Batched linear-work fill over one seed block: a lane array of
    /// [`FILL_LANES`] per-edge PRNGs advances draw-by-draw, so the alias
    /// slot loads of independent lanes issue back to back and overlap in
    /// the memory pipeline. Each lane's PRNG consumes exactly the words of
    /// [`Rmat::descend_linear`], so the output is bit-identical to the
    /// per-edge path; the sub-`FILL_LANES` tail falls back to it directly.
    fn fill_linear(
        &self,
        t: &ComposedTable,
        block_seed: u64,
        offsets: Range<u64>,
        out: &mut Vec<(u64, u64)>,
    ) {
        let l = t.levels;
        let shift = l - t.last_levels;
        let mut off = offsets.start;
        while off + FILL_LANES as u64 <= offsets.end {
            let mut rngs = [SplitMix64::at(block_seed, off); FILL_LANES];
            for (i, rng) in rngs.iter_mut().enumerate().skip(1) {
                *rng = SplitMix64::at(block_seed, off + i as u64);
            }
            let mut us = [0u64; FILL_LANES];
            let mut vs = [0u64; FILL_LANES];
            for _ in 0..t.full_draws {
                for i in 0..FILL_LANES {
                    let (hu, hv) = t.halves(t.alias.sample_word_pow2(rngs[i].next_u64()) as u64);
                    us[i] = (us[i] << l) | hu;
                    vs[i] = (vs[i] << l) | hv;
                }
            }
            for i in 0..FILL_LANES {
                let (hu, hv) = t.halves(t.alias.sample_word_pow2(rngs[i].next_u64()) as u64);
                us[i] = (us[i] << t.last_levels) | (hu >> shift);
                vs[i] = (vs[i] << t.last_levels) | (hv >> shift);
            }
            out.extend((0..FILL_LANES).map(|i| (us[i], vs[i])));
            off += FILL_LANES as u64;
        }
        out.extend((off..offsets.end).map(|o| {
            let mut rng = SplitMix64::at(block_seed, o);
            self.descend_linear(t, &mut rng)
        }));
    }

    /// Sample edge number `e` of the instance (pure function).
    #[inline]
    pub fn edge(&self, e: u64) -> (u64, u64) {
        let block_seed = self.block_seed(e / SEED_BLOCK_EDGES);
        let mut rng = SplitMix64::at(block_seed, e % SEED_BLOCK_EDGES);
        match &self.kernel {
            KernelState::Plain => self.descend_plain(&mut rng),
            KernelState::Linear(t) => self.descend_linear(t.as_ref(), &mut rng),
        }
    }

    /// Append the edges of the index range `range` to `out` — identical to
    /// calling [`Rmat::edge`] per index, but the hashed block seed is
    /// derived once per `SEED_BLOCK_EDGES` indices, the descent-mode
    /// dispatch is hoisted out of the loop, and the linear kernel runs its
    /// lane-batched fill.
    pub fn fill_edges(&self, range: Range<u64>, out: &mut Vec<(u64, u64)>) {
        debug_assert!(range.end <= self.m);
        out.reserve((range.end - range.start) as usize);
        let mut e = range.start;
        while e < range.end {
            let block = e / SEED_BLOCK_EDGES;
            let hi = ((block + 1) * SEED_BLOCK_EDGES).min(range.end);
            let block_seed = self.block_seed(block);
            let offsets = (e % SEED_BLOCK_EDGES)..(e % SEED_BLOCK_EDGES + (hi - e));
            // `extend` over an exact-size iterator: one reservation, no
            // per-push capacity check inside the hot loop.
            match &self.kernel {
                KernelState::Plain => {
                    out.extend(offsets.map(|off| {
                        let mut rng = SplitMix64::at(block_seed, off);
                        self.descend_plain(&mut rng)
                    }));
                }
                KernelState::Linear(t) => self.fill_linear(t.as_ref(), block_seed, offsets, out),
            }
            e = hi;
        }
    }

    /// Edge-index range `[lo, hi)` owned by PE `pe`.
    #[inline]
    pub fn pe_edge_range(&self, pe: usize) -> Range<u64> {
        even_split(self.m, self.chunks, pe)
    }
}

impl Generator for Rmat {
    fn num_vertices(&self) -> u64 {
        1u64 << self.scale
    }

    fn num_chunks(&self) -> usize {
        self.chunks
    }

    fn directed(&self) -> bool {
        true
    }

    /// Range fill: one hashed seed per edge block and one kernel
    /// dispatch per batch (see [`Rmat::fill_edges`]) — the §8.6.1 variate
    /// cost drops from hash+descent to `mix2`+descent per edge.
    fn stream_pe_batched(&self, pe: usize, buf: &mut Vec<(u64, u64)>, emit: &mut BatchEmit) {
        fill_range_batched(self.pe_edge_range(pe), buf, emit, |r, out| {
            self.fill_edges(r, out)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate_directed;

    #[test]
    fn edge_count_and_range() {
        let gen = Rmat::new(10, 5000).with_seed(4).with_chunks(8);
        let el = generate_directed(&gen);
        assert_eq!(el.edges.len(), 5000);
        assert!(!el.has_out_of_range());
    }

    #[test]
    fn chunk_invariance() {
        let a = generate_directed(&Rmat::new(8, 2000).with_seed(9).with_chunks(1));
        let b = generate_directed(&Rmat::new(8, 2000).with_seed(9).with_chunks(7));
        assert_eq!(a, b);
    }

    #[test]
    fn skew_matches_parameters() {
        // With a = 0.57, vertex 0's quadrant is hit most: expect the top
        // half of rows to receive much more than half the edges.
        let gen = Rmat::new(12, 40_000).with_seed(2);
        let el = generate_directed(&gen);
        let half = 1u64 << 11;
        let top = el.edges.iter().filter(|&&(u, _)| u < half).count();
        let frac = top as f64 / el.edges.len() as f64;
        // P[top half] = a + b = 0.76 per level-0 split.
        assert!((frac - 0.76).abs() < 0.02, "top fraction {frac}");
    }

    #[test]
    fn degree_skew_power_law_ish() {
        let gen = Rmat::new(10, 30_000).with_seed(7);
        let el = generate_directed(&gen);
        let deg = el.out_degrees();
        let max = *deg.iter().max().unwrap();
        let mean = 30_000.0 / 1024.0;
        assert!(
            max as f64 > 6.0 * mean,
            "R-MAT must be skewed: max {max}, mean {mean}"
        );
    }

    #[test]
    fn fill_edges_matches_edge_across_block_boundaries() {
        // A range straddling a seed-block boundary must produce exactly
        // the per-edge results (same block seed, same offsets) — for every
        // kernel, including the lane-batched linear fill.
        let m = SEED_BLOCK_EDGES * 2 + 100;
        let range = SEED_BLOCK_EDGES - 50..SEED_BLOCK_EDGES + 50;
        for gen in [
            Rmat::new(10, m).with_seed(5),
            Rmat::new(10, m)
                .with_seed(5)
                .with_kernel(RmatKernel::Linear { levels: 4 }),
            Rmat::new(34, m)
                .with_seed(5)
                .with_kernel(RmatKernel::Linear { levels: 8 }),
        ] {
            let mut filled = Vec::new();
            gen.fill_edges(range.clone(), &mut filled);
            let expect: Vec<_> = range.clone().map(|e| gen.edge(e)).collect();
            assert_eq!(filled, expect);
        }
    }

    #[test]
    fn pe_edge_ranges_do_not_wrap_at_scale() {
        // m · pe passes 2^64 from PE 16 on (the paper's 2^15 PEs).
        let m = 1u64 << 60;
        let gen = Rmat::new(40, m).with_chunks(1 << 15);
        assert_eq!(gen.pe_edge_range(16), 16 << 45..17 << 45);
        assert_eq!(gen.pe_edge_range((1 << 15) - 1), m - (1 << 45)..m);
    }

    #[test]
    fn table_levels_zero_disables_tables() {
        // Re-selecting plain drops the composed table again.
        let plain = Rmat::new(9, 500).with_seed(3);
        let toggled = Rmat::new(9, 500)
            .with_seed(3)
            .with_kernel(RmatKernel::Linear { levels: 8 });
        let off = toggled.with_kernel(RmatKernel::Plain);
        assert_eq!(
            generate_directed(&plain).edges,
            generate_directed(&off).edges
        );
    }

    #[test]
    fn edge_is_pure_function() {
        let gen = Rmat::new(9, 10).with_seed(5);
        for e in 0..10 {
            assert_eq!(gen.edge(e), gen.edge(e));
        }
    }

    #[test]
    fn table_variant_same_distribution() {
        // Composed-table sampling draws from the identical edge
        // distribution as plain descent: compare first-level quadrant
        // masses, with levels dividing the scale (5 | 10) and not (4 ∤ 10).
        let m = 60_000u64;
        let plain = generate_directed(&Rmat::new(10, m).with_seed(6));
        let half = 1u64 << 9;
        let mass = |el: &kagen_graph::EdgeList| {
            let mut q = [0u64; 4];
            for &(u, v) in &el.edges {
                q[(((u >= half) as usize) << 1) | ((v >= half) as usize)] += 1;
            }
            q
        };
        let qa = mass(&plain);
        for levels in [5u32, 4] {
            let fast = generate_directed(
                &Rmat::new(10, m)
                    .with_seed(6)
                    .with_kernel(RmatKernel::Linear { levels }),
            );
            assert_eq!(fast.edges.len() as u64, m);
            let qb = mass(&fast);
            for k in 0..4 {
                let (x, y) = (qa[k] as f64 / m as f64, qb[k] as f64 / m as f64);
                assert!((x - y).abs() < 0.01, "quadrant {k}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn table_variant_chunk_invariant() {
        for levels in [5u32, 8] {
            let a = generate_directed(
                &Rmat::new(8, 2000)
                    .with_seed(9)
                    .with_kernel(RmatKernel::Linear { levels })
                    .with_chunks(1),
            );
            let b = generate_directed(
                &Rmat::new(8, 2000)
                    .with_seed(9)
                    .with_kernel(RmatKernel::Linear { levels })
                    .with_chunks(7),
            );
            assert_eq!(a, b);
        }
    }

    #[test]
    fn table_levels_not_dividing_scale() {
        // scale = 10, levels = 4 → final draw truncated to 2 levels.
        let gen = Rmat::new(10, 100)
            .with_seed(3)
            .with_kernel(RmatKernel::Linear { levels: 4 });
        let el = generate_directed(&gen);
        assert!(!el.has_out_of_range());
        assert_eq!(el.edges.len(), 100);
    }

    #[test]
    fn composed_truncation_is_first_levels_marginal() {
        // scale = 3, levels = 2 → two draws per edge, the second truncated
        // to 1 of its 2 levels. The finest level (lowest bit of u and v)
        // therefore comes from a truncated draw, and must still hit the
        // quadrants with exactly (a, b, c, d) — the i.i.d.-levels marginal
        // argument the remainder stage rests on.
        let m = 80_000u64;
        let gen = Rmat::new(3, m)
            .with_seed(12)
            .with_kernel(RmatKernel::Linear { levels: 2 });
        let el = generate_directed(&gen);
        let mut q = [0u64; 4];
        for &(u, v) in &el.edges {
            q[(((u & 1) as usize) << 1) | (v & 1) as usize] += 1;
        }
        for (k, &p) in [0.57, 0.19, 0.19, 0.05].iter().enumerate() {
            let x = q[k] as f64 / m as f64;
            assert!((x - p).abs() < 0.01, "quadrant {k}: {x} vs {p}");
        }
    }

    #[test]
    fn auto_levels_track_cache_size() {
        // Table budget is l2/4: 8·4^L bytes per table.
        assert_eq!(Rmat::auto_linear_levels(30, 2 * 1024 * 1024), 8);
        assert_eq!(Rmat::auto_linear_levels(30, 512 * 1024), 7);
        assert_eq!(Rmat::auto_linear_levels(30, 256 * 1024), 6);
        // Clamped to scale, and never below one level.
        assert_eq!(Rmat::auto_linear_levels(5, 2 * 1024 * 1024), 5);
        assert_eq!(Rmat::auto_linear_levels(30, 0), 1);
    }
}

//! The communication-free divide-and-conquer sampler (Sanders et al. \[18\]).
//!
//! The universe `[0, N)` is cut into `B` equal blocks (B a power of two).
//! A binary recursion over block ranges assigns each range its sample
//! count: at every node the count is split between the two halves with a
//! hypergeometric variate whose PRNG is seeded by the *node id* — so every
//! PE that walks to a node draws the identical variate (pseudorandomization,
//! §2.2). Each block is one leaf of [`sample_leaf`], seeded by the block
//! id; a subtree whose count is 0 is not walked.
//!
//! Consequences (verified in tests):
//! * any PE can compute any block's sample, bit-for-bit, in
//!   O(count + log B) time;
//! * the union over disjoint block ranges of one instance is exactly the
//!   instance — independent of which PE computes what;
//! * the instance depends only on `(universe, samples, blocks, seed)` —
//!   *not* on the number of PEs.

use kagen_dist::hypergeometric;
use kagen_util::derive_seed;
use kagen_util::seed::{stream, SeedTree};

use crate::{sample_leaf, Take};

/// Divide-and-conquer sampler over a blocked universe.
#[derive(Clone, Copy, Debug)]
pub struct DistributedSampler {
    universe: u128,
    samples: u64,
    blocks: u64,
    seed: u64,
}

impl DistributedSampler {
    /// Create a sampler drawing `samples` distinct indices from
    /// `[0, universe)`, organized in `blocks` leaf blocks.
    ///
    /// `blocks` must be a power of two, `samples <= universe`, and a
    /// block at most 2^64 − 1 indices long.
    pub fn new(universe: u128, samples: u64, blocks: u64, seed: u64) -> Self {
        assert!(blocks.is_power_of_two(), "blocks must be a power of two");
        assert!(
            (samples as u128) <= universe,
            "cannot draw {samples} from a universe of {universe}"
        );
        assert!(
            blocks as u128 <= universe.max(1),
            "more blocks than universe elements"
        );
        assert!(
            universe.div_ceil(blocks as u128) <= u64::MAX as u128,
            "leaf block larger than 2^64; increase the block count"
        );
        DistributedSampler {
            universe,
            samples,
            blocks,
            seed,
        }
    }

    /// Number of leaf blocks.
    pub fn blocks(&self) -> u64 {
        self.blocks
    }

    /// Global index range `[start, end)` covered by block `b`.
    #[inline]
    pub fn block_range(&self, b: u64) -> (u128, u128) {
        debug_assert!(b < self.blocks);
        let start = |b| block_start(self.universe, self.blocks, b);
        (start(b), start(b + 1))
    }

    /// Seed of block `b`'s leaf PRNG.
    #[inline]
    pub fn leaf_seed(&self, b: u64) -> u64 {
        derive_seed(self.seed, &[stream::SAMPLE, b])
    }

    /// Visit every block in `[lo, hi)` whose sample count is nonzero,
    /// in order, with that count.
    ///
    /// Runs in O(min(hi−lo, samples) · log B) hypergeometric draws.
    pub fn for_block_counts(&self, lo: u64, hi: u64, f: &mut impl FnMut(u64, u64)) {
        assert!(lo <= hi && hi <= self.blocks);
        if lo == hi {
            return;
        }
        let root = SeedTree::root(self.seed, stream::SPLIT, 2);
        self.descend(root, 0, self.blocks, self.samples, lo, hi, f);
    }

    #[allow(clippy::too_many_arguments)] // recursion state, not an API
    fn descend(
        &self,
        node: SeedTree,
        a: u64,
        b: u64,
        count: u64,
        lo: u64,
        hi: u64,
        f: &mut impl FnMut(u64, u64),
    ) {
        if count == 0 || hi <= a || b <= lo {
            return; // empty, or disjoint from the query range
        }
        if b - a == 1 {
            f(a, count);
            return;
        }
        let mid = a + (b - a) / 2;
        let start = |b| block_start(self.universe, self.blocks, b);
        let left_universe = start(mid) - start(a);
        let total = start(b) - start(a);
        let mut rng = node.rng();
        let left_count = hypergeometric(&mut rng, total, left_universe, count);
        self.descend(node.child(0), a, mid, left_count, lo, hi, f);
        self.descend(node.child(1), mid, b, count - left_count, lo, hi, f);
    }

    /// Emit all samples of blocks `[lo, hi)` in sorted order, each block
    /// drawn by the one leaf sampler.
    ///
    /// Deterministic: depends only on the sampler parameters.
    pub fn sample_range(&self, lo: u64, hi: u64, emit: &mut impl FnMut(u128)) {
        self.for_block_counts(lo, hi, &mut |b, count| {
            let (start, end) = self.block_range(b);
            let len = (end - start) as u64;
            sample_leaf(self.leaf_seed(b), len, Take::Exact(count), &mut |i| {
                emit(start + i as u128)
            });
        });
    }
}

/// First index of block `b ∈ [0, blocks]` of `[0, universe)` cut into
/// `blocks = 2^k` equal blocks: `⌊universe · b / blocks⌋`, exact for
/// every `u128` universe — the product is split into a shift of the
/// universe's high part and a product of two numbers below 2^k.
#[inline]
pub fn block_start(universe: u128, blocks: u64, b: u64) -> u128 {
    debug_assert!(blocks.is_power_of_two() && b <= blocks);
    let k = blocks.trailing_zeros();
    let low = universe & (blocks as u128 - 1);
    (universe >> k) * b as u128 + ((low * b as u128) >> k)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_samples(s: &DistributedSampler) -> Vec<u128> {
        let mut out = Vec::new();
        s.sample_range(0, s.blocks(), &mut |x| out.push(x));
        out
    }

    #[test]
    fn counts_conserve_total() {
        let s = DistributedSampler::new(1 << 20, 5000, 64, 42);
        let mut sum = 0u64;
        s.for_block_counts(0, 64, &mut |_, c| sum += c);
        assert_eq!(sum, 5000);
    }

    #[test]
    fn counts_match_across_queries() {
        // Querying a block alone or as part of a range gives the same count.
        let s = DistributedSampler::new(1 << 16, 777, 32, 7);
        let mut whole = vec![0u64; 32];
        s.for_block_counts(0, 32, &mut |b, c| whole[b as usize] = c);
        for b in 0..32 {
            let mut alone = 0;
            s.for_block_counts(b, b + 1, &mut |_, c| alone = c);
            assert_eq!(alone, whole[b as usize], "block {b}");
        }
        let mut partial = Vec::new();
        s.for_block_counts(5, 13, &mut |b, c| partial.push((b, c)));
        for (b, c) in partial {
            assert_eq!(c, whole[b as usize]);
        }
    }

    #[test]
    fn batched_range_equals_per_draw_range() {
        // The leaf against per-draw Method D from the leaf seed: sparse
        // (Method D) and dense (Method A / full enumeration) leaves,
        // whole ranges and sub-ranges.
        for (universe, k, blocks) in [
            (1u128 << 20, 5000u64, 64u64),
            (4000, 3500, 8),
            (512, 512, 4),
        ] {
            let s = DistributedSampler::new(universe, k, blocks, 11);
            for (lo, hi) in [(0, blocks), (1, blocks - 1)] {
                let mut per_draw = Vec::new();
                s.for_block_counts(lo, hi, &mut |b, c| {
                    let (start, end) = s.block_range(b);
                    let mut rng = kagen_util::Mt64::new(s.leaf_seed(b));
                    crate::sample_sorted(&mut rng, (end - start) as u64, c, &mut |i| {
                        per_draw.push(start + i as u128)
                    });
                });
                let mut batched = Vec::new();
                s.sample_range(lo, hi, &mut |x| batched.push(x));
                assert_eq!(
                    per_draw, batched,
                    "universe {universe} k {k} blocks {lo}..{hi}"
                );
            }
        }
    }

    #[test]
    fn samples_valid() {
        let s = DistributedSampler::new(100_000, 2_000, 16, 3);
        let all = all_samples(&s);
        assert_eq!(all.len(), 2000);
        for w in all.windows(2) {
            assert!(w[0] < w[1], "not sorted/unique");
        }
        assert!(*all.last().unwrap() < 100_000);
    }

    #[test]
    fn block_samples_within_block_range() {
        let s = DistributedSampler::new(10_000, 500, 8, 9);
        for b in 0..8 {
            let (lo, hi) = s.block_range(b);
            s.sample_range(b, b + 1, &mut |x| assert!(x >= lo && x < hi));
        }
    }

    #[test]
    fn union_independent_of_partitioning() {
        // Computing per-block vs in two big ranges gives the same instance.
        let s = DistributedSampler::new(1 << 18, 3333, 64, 11);
        let whole = all_samples(&s);
        let mut split = Vec::new();
        s.sample_range(0, 17, &mut |x| split.push(x));
        s.sample_range(17, 64, &mut |x| split.push(x));
        assert_eq!(whole, split);
        let mut per_block = Vec::new();
        for b in 0..64 {
            s.sample_range(b, b + 1, &mut |x| per_block.push(x));
        }
        assert_eq!(whole, per_block);
    }

    #[test]
    fn seed_changes_instance() {
        let a = all_samples(&DistributedSampler::new(1 << 16, 1000, 16, 1));
        let b = all_samples(&DistributedSampler::new(1 << 16, 1000, 16, 2));
        assert_ne!(a, b);
    }

    #[test]
    fn exhaustive_sampling() {
        // samples == universe must enumerate everything.
        let s = DistributedSampler::new(256, 256, 8, 5);
        let all = all_samples(&s);
        assert_eq!(all, (0..256u128).collect::<Vec<_>>());
    }

    #[test]
    fn uniform_inclusion_over_blocks() {
        // Each element appears with probability k/N across seeds.
        let universe = 64u128;
        let k = 16u64;
        let reps = 8000;
        let mut counts = vec![0u32; 64];
        for seed in 0..reps {
            let s = DistributedSampler::new(universe, k, 4, seed);
            s.sample_range(0, 4, &mut |x| counts[x as usize] += 1);
        }
        let expect = reps as f64 * (k as f64 / universe as f64);
        let sd = (expect * (1.0 - 0.25)).sqrt();
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expect).abs() < 6.0 * sd,
                "element {i}: {c} vs {expect}"
            );
        }
    }

    #[test]
    fn huge_universe_splitting() {
        // u128 universe: counts must still conserve and samples stay sorted
        // within blocks.
        let s = DistributedSampler::new(1 << 90, 10_000, 1 << 30, 13);
        // A narrow block range must be reachable in O(width + log B) work.
        let mut ranged = 0u64;
        s.for_block_counts(1000, 1064, &mut |b, c| {
            assert!((1000..1064).contains(&b));
            ranged += c;
        });
        assert!(ranged <= 10_000);
        // A moderate block count still conserves the total exactly.
        let s16 = DistributedSampler::new(1 << 60, 10_000, 1 << 16, 13);
        let mut sum = 0u64;
        s16.for_block_counts(0, 1 << 16, &mut |_, c| sum += c);
        assert_eq!(sum, 10_000);
        // Spot-check one block.
        let mut prev: Option<u128> = None;
        s.sample_range(12345, 12346, &mut |x| {
            if let Some(p) = prev {
                assert!(x > p);
            }
            prev = Some(x);
        });
    }

    #[test]
    fn block_start_is_exact_where_the_product_overflows() {
        // Below 2^128 products it is the plain formula ...
        for (universe, blocks) in [(1000u128, 8u64), (u64::MAX as u128, 1 << 20)] {
            for b in 0..=blocks.min(1 << 12) {
                let want = universe * b as u128 / blocks as u128;
                assert_eq!(block_start(universe, blocks, b), want);
            }
        }
        // ... and at a universe of 2^107 − 3 cut into 2^63 blocks, where
        // `universe · b` does not fit a u128, it still ends at the
        // universe, halves it exactly, and cuts blocks of ⌊N/B⌋ or ⌈N/B⌉.
        let (universe, blocks) = ((1u128 << 107) - 3, 1u64 << 63);
        assert_eq!(block_start(universe, blocks, blocks), universe);
        assert_eq!(block_start(universe, blocks, blocks / 2), universe / 2);
        for b in [0, 1, 12345, blocks / 3, blocks - 1] {
            let len = block_start(universe, blocks, b + 1) - block_start(universe, blocks, b);
            assert!(len == 1 << 44 || len == (1 << 44) - 1, "block {b}: {len}");
        }
        // Counts conserve there too, and only nonzero blocks are visited.
        let s = DistributedSampler::new(universe, 10, blocks, 3);
        let mut sum = 0;
        s.for_block_counts(0, blocks, &mut |_, c| {
            assert!(c > 0);
            sum += c;
        });
        assert_eq!(sum, 10);
    }
}

//! The communication-free divide-and-conquer sampler (Sanders et al. \[18\]).
//!
//! The universe `[0, N)` is cut into `B` equal blocks (B a power of two).
//! A binary recursion over block ranges assigns each range its sample
//! count: at every node the count is split between the two halves with a
//! hypergeometric variate whose PRNG is seeded by the *node id* — so every
//! PE that walks to a node draws the identical variate (pseudorandomization,
//! §2.2). Leaves are sampled with Vitter's Algorithm D under a block-seeded
//! PRNG.
//!
//! Consequences (verified in tests):
//! * any PE can compute any block's sample, bit-for-bit, in
//!   O(count + log B) time;
//! * the union over disjoint block ranges of one instance is exactly the
//!   instance — independent of which PE computes what;
//! * the instance depends only on `(universe, samples, blocks, seed)` —
//!   *not* on the number of PEs.

use kagen_dist::hypergeometric;
use kagen_util::seed::{stream, SeedTree};
use kagen_util::{derive_seed, Mt64};

use crate::vitter::{sample_sorted, sample_sorted_batched};

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
    /// `blocks` must be a power of two and `samples <= universe`.
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

    /// Total number of samples in the whole universe.
    pub fn total_samples(&self) -> u64 {
        self.samples
    }

    /// Global index range `[start, end)` covered by block `b`.
    #[inline]
    pub fn block_range(&self, b: u64) -> (u128, u128) {
        debug_assert!(b < self.blocks);
        let start = self.universe * b as u128 / self.blocks as u128;
        let end = self.universe * (b + 1) as u128 / self.blocks as u128;
        (start, end)
    }

    /// Visit every block in `[lo, hi)` with its sample count.
    ///
    /// Runs in O((hi−lo) + log B) hypergeometric draws.
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
        if hi <= a || b <= lo {
            return; // disjoint from the query range
        }
        if b - a == 1 {
            f(a, count);
            return;
        }
        let mid = a + (b - a) / 2;
        let (a_start, _) = self.block_range(a);
        let (mid_start, _) = self.block_range(mid);
        let end = if b == self.blocks {
            self.universe
        } else {
            self.block_range(b).0
        };
        let left_universe = mid_start - a_start;
        let total = end - a_start;
        let mut rng = node.rng();
        let left_count = hypergeometric(&mut rng, total, left_universe, count);
        self.descend(node.child(0), a, mid, left_count, lo, hi, f);
        self.descend(node.child(1), mid, b, count - left_count, lo, hi, f);
    }

    /// Sample count of a single block (convenience).
    pub fn block_count(&self, b: u64) -> u64 {
        let mut out = 0;
        self.for_block_counts(b, b + 1, &mut |_, c| out = c);
        out
    }

    /// Emit the sorted global sample indices of block `b`.
    ///
    /// Deterministic: depends only on the sampler parameters and `b`.
    pub fn sample_block(&self, b: u64, emit: &mut impl FnMut(u128)) {
        let count = self.block_count(b);
        self.sample_block_with_count(b, count, emit);
    }

    /// One body for both delivery shapes — `BATCHED` only selects the
    /// leaf sampler, so the leaf seeding and range decode can never
    /// drift apart between the per-draw and block-treated paths.
    fn sample_block_impl<const BATCHED: bool>(
        &self,
        b: u64,
        count: u64,
        emit: &mut impl FnMut(u128),
    ) {
        let (start, end) = self.block_range(b);
        let len = end - start;
        assert!(
            len <= u64::MAX as u128,
            "leaf block larger than 2^64; increase the block count"
        );
        let mut rng = Mt64::new(derive_seed(self.seed, &[stream::SAMPLE, b]));
        let mut on_i = |i: u64| emit(start + i as u128);
        if BATCHED {
            sample_sorted_batched(&mut rng, len as u64, count, &mut on_i);
        } else {
            sample_sorted(&mut rng, len as u64, count, &mut on_i);
        }
    }

    /// Like [`Self::sample_block`] when the caller already knows the count
    /// (e.g. from [`Self::for_block_counts`]).
    pub fn sample_block_with_count(&self, b: u64, count: u64, emit: &mut impl FnMut(u128)) {
        self.sample_block_impl::<false>(b, count, emit);
    }

    /// Emit all samples of blocks `[lo, hi)` in sorted order.
    pub fn sample_range(&self, lo: u64, hi: u64, emit: &mut impl FnMut(u128)) {
        let mut pending: Vec<(u64, u64)> = Vec::new();
        self.for_block_counts(lo, hi, &mut |b, c| pending.push((b, c)));
        for (b, c) in pending {
            self.sample_block_impl::<false>(b, c, emit);
        }
    }

    /// Block-treated [`Self::sample_range`]: the identical sample
    /// stream, with every leaf's Method D uniforms served from a
    /// block-buffered PRNG
    /// ([`sample_sorted_batched`](crate::vitter::sample_sorted_batched)).
    /// Safe because each leaf PRNG exists only for its leaf — the
    /// buffer's read-ahead words are never observed by anyone else.
    pub fn sample_range_batched(&self, lo: u64, hi: u64, emit: &mut impl FnMut(u128)) {
        let mut pending: Vec<(u64, u64)> = Vec::new();
        self.for_block_counts(lo, hi, &mut |b, c| pending.push((b, c)));
        for (b, c) in pending {
            self.sample_block_impl::<true>(b, c, emit);
        }
    }
}

/// Recommended block count: enough blocks for `parts` owners while keeping
/// leaves below 2^44 elements (f64-exact Algorithm D regime).
pub fn choose_blocks(universe: u128, parts: u64) -> u64 {
    let mut blocks = parts.next_power_of_two().max(1);
    while (universe / blocks as u128) > (1u128 << 44) {
        blocks = blocks
            .checked_mul(2)
            .expect("universe too large for block addressing");
    }
    blocks.min(u64::MAX / 2)
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
            assert_eq!(s.block_count(b), whole[b as usize], "block {b}");
        }
        let mut partial = Vec::new();
        s.for_block_counts(5, 13, &mut |b, c| partial.push((b, c)));
        for (b, c) in partial {
            assert_eq!(c, whole[b as usize]);
        }
    }

    #[test]
    fn batched_range_equals_per_draw_range() {
        // Sparse (Method D) and dense (Method A / full enumeration)
        // leaves, whole ranges and sub-ranges.
        for (universe, k, blocks) in [
            (1u128 << 20, 5000u64, 64u64),
            (4000, 3500, 8),
            (512, 512, 4),
        ] {
            let s = DistributedSampler::new(universe, k, blocks, 11);
            for (lo, hi) in [(0, blocks), (1, blocks - 1)] {
                let mut per_draw = Vec::new();
                s.sample_range(lo, hi, &mut |x| per_draw.push(x));
                let mut batched = Vec::new();
                s.sample_range_batched(lo, hi, &mut |x| batched.push(x));
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
            s.sample_block(b, &mut |x| assert!(x >= lo && x < hi));
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
            s.sample_block(b, &mut |x| per_block.push(x));
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
        s.sample_block(12345, &mut |x| {
            if let Some(p) = prev {
                assert!(x > p);
            }
            prev = Some(x);
        });
    }

    #[test]
    fn choose_blocks_covers_parts() {
        assert!(choose_blocks(1 << 20, 7) >= 7);
        assert!(choose_blocks(1 << 20, 8).is_power_of_two());
        // Large universes get enough blocks to keep leaves small.
        let b = choose_blocks(1 << 60, 4);
        assert!((1u128 << 60) / b as u128 <= 1 << 44);
    }
}

//! The 2^d-ary count-splitting tree (§5, §6, §7.1).
//!
//! Distributing `n` points uniformly over `[0,1)^d` induces, for any
//! partition into equal sub-cubes, multinomially distributed sub-counts.
//! The tree realizes this recursively: each node splits its count over its
//! 2^d equal children with conditional binomials, using a PRNG seeded by
//! the node id. Every PE replays identical splits, so the *entire point
//! set* is a pure function of `(seed, n, levels)` — independent of which PE
//! asks for which cell, and independent of the number of PEs.

use kagen_dist::binomial;
use kagen_util::seed::{stream, SeedTree};

/// Count-splitting tree over a `2^levels`-per-dim grid (leaves in Morton
/// order).
#[derive(Clone, Copy, Debug)]
pub struct CountTree<const D: usize> {
    seed: u64,
    total: u64,
    levels: u32,
}

impl<const D: usize> CountTree<D> {
    /// Tree distributing `total` points over `2^(levels·D)` leaf cells.
    pub fn new(seed: u64, total: u64, levels: u32) -> Self {
        assert!(D == 2 || D == 3);
        CountTree {
            seed,
            total,
            levels,
        }
    }

    /// Number of leaf cells.
    pub fn num_leaves(&self) -> u64 {
        1u64 << (self.levels * D as u32)
    }

    /// Total number of points.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Grid refinement depth.
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// Split a node's count over its 2^D children (deterministic per
    /// node): the first `2^D` entries, the rest stay zero.
    pub(crate) fn split(&self, node: &SeedTree, count: u64) -> [u64; 8] {
        let k = 1usize << D;
        let mut rng = node.rng();
        // Sequential conditional binomials over equally likely children.
        let mut counts = [0u64; 8];
        let mut remaining = count;
        for (i, c) in counts[..k - 1].iter_mut().enumerate() {
            *c = binomial(&mut rng, remaining as u128, 1.0 / (k - i) as f64);
            remaining -= *c;
        }
        counts[k - 1] = remaining;
        counts
    }

    /// The one root-to-node descent: `(points before, count, node)` of
    /// the subtree at `depth` whose leaves share the Morton prefix `rank`.
    /// Every node on the way that still holds points is split through
    /// `split` ([`Self::split`], or a memo in front of it).
    pub(crate) fn descend(
        &self,
        rank: u64,
        depth: u32,
        split: &mut impl FnMut(&SeedTree, u64) -> [u64; 8],
    ) -> (u64, u64, SeedTree) {
        debug_assert!(depth <= self.levels && rank >> (depth * D as u32) == 0);
        let mut node = SeedTree::root(self.seed, stream::COUNT, 1 << D);
        let (mut prefix, mut count) = (0u64, self.total);
        for level in (0..depth).rev() {
            let child = ((rank >> (level * D as u32)) & ((1 << D) - 1)) as usize;
            if count > 0 {
                let counts = split(&node, count);
                prefix += counts[..child].iter().sum::<u64>();
                count = counts[child];
            }
            node = node.child(child as u64);
        }
        (prefix, count, node)
    }

    /// The stateless reference: `(points before, count)` of leaf `leaf`.
    fn locate(&self, leaf: u64) -> (u64, u64) {
        let mut split = |node: &SeedTree, count| self.split(node, count);
        let (prefix, count, _) = self.descend(leaf, self.levels, &mut split);
        (prefix, count)
    }

    /// Point count of the single leaf cell with Morton rank `leaf`.
    /// O(levels · 2^D) binomial draws.
    pub fn leaf_count(&self, leaf: u64) -> u64 {
        self.locate(leaf).1
    }

    /// Number of points in all leaves strictly before `leaf` (Morton
    /// order): the communication-free global vertex-id offset of a cell.
    /// O(levels · 2^D) binomial draws.
    pub fn prefix_before(&self, leaf: u64) -> u64 {
        self.locate(leaf).0
    }

    /// Visit every leaf in the Morton range `[lo, hi)` with its count.
    /// O(range + levels) expected work.
    pub fn for_leaf_counts(&self, lo: u64, hi: u64, f: &mut impl FnMut(u64, u64)) {
        assert!(lo <= hi && hi <= self.num_leaves());
        if lo == hi {
            return;
        }
        let root = SeedTree::root(self.seed, stream::COUNT, 1 << D);
        let mut split = |node: &SeedTree, count| self.split(node, count);
        self.walk(
            &root,
            (0, self.num_leaves()),
            self.total,
            (lo, hi),
            &mut split,
            f,
        );
    }

    /// Visit the leaves of `[lo, hi)` below `node`, whose leaves are
    /// `[a, b)` and hold `count` points, splitting through `split`.
    pub(crate) fn walk(
        &self,
        node: &SeedTree,
        (a, b): (u64, u64),
        count: u64,
        (lo, hi): (u64, u64),
        split: &mut impl FnMut(&SeedTree, u64) -> [u64; 8],
        f: &mut impl FnMut(u64, u64),
    ) {
        if hi <= a || b <= lo {
            return;
        }
        if b - a == 1 {
            f(a, count);
            return;
        }
        if count == 0 {
            // Entire empty subtree: report the overlapped leaves as empty.
            for leaf in a.max(lo)..b.min(hi) {
                f(leaf, 0);
            }
            return;
        }
        let counts = split(node, count);
        let width = (b - a) >> D;
        for (i, &c) in counts[..1 << D].iter().enumerate() {
            let ca = a + i as u64 * width;
            self.walk(
                &node.child(i as u64),
                (ca, ca + width),
                c,
                (lo, hi),
                split,
                f,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_conserve_total() {
        let t: CountTree<2> = CountTree::new(42, 10_000, 3);
        let mut sum = 0;
        t.for_leaf_counts(0, t.num_leaves(), &mut |_, c| sum += c);
        assert_eq!(sum, 10_000);
    }

    #[test]
    fn counts_conserve_total_3d() {
        let t: CountTree<3> = CountTree::new(7, 5_000, 2);
        let mut sum = 0;
        t.for_leaf_counts(0, t.num_leaves(), &mut |_, c| sum += c);
        assert_eq!(sum, 5_000);
    }

    #[test]
    fn leaf_count_matches_range_query() {
        let t: CountTree<2> = CountTree::new(13, 3_000, 3);
        let mut all = vec![0u64; t.num_leaves() as usize];
        t.for_leaf_counts(0, t.num_leaves(), &mut |l, c| all[l as usize] = c);
        for leaf in 0..t.num_leaves() {
            assert_eq!(t.leaf_count(leaf), all[leaf as usize], "leaf {leaf}");
        }
    }

    #[test]
    fn partial_ranges_consistent() {
        let t: CountTree<2> = CountTree::new(5, 2_000, 4);
        let mut all = vec![0u64; t.num_leaves() as usize];
        t.for_leaf_counts(0, t.num_leaves(), &mut |l, c| all[l as usize] = c);
        // Any split point yields the same per-leaf counts.
        for split in [1u64, 17, 100, 255] {
            let mut partial = vec![0u64; t.num_leaves() as usize];
            t.for_leaf_counts(0, split, &mut |l, c| partial[l as usize] = c);
            t.for_leaf_counts(split, t.num_leaves(), &mut |l, c| partial[l as usize] = c);
            assert_eq!(partial, all, "split {split}");
        }
    }

    #[test]
    fn balanced_distribution() {
        // Each leaf of a depth-2 2D tree expects total/16 points.
        let total = 160_000u64;
        let t: CountTree<2> = CountTree::new(99, total, 2);
        let expect = total as f64 / 16.0;
        let sd = (total as f64 * (1.0 / 16.0) * (15.0 / 16.0)).sqrt();
        t.for_leaf_counts(0, 16, &mut |l, c| {
            assert!(
                (c as f64 - expect).abs() < 6.0 * sd,
                "leaf {l}: count {c} vs {expect}"
            );
        });
    }

    #[test]
    fn prefix_matches_cumulative_counts() {
        let t: CountTree<2> = CountTree::new(21, 4_321, 3);
        let mut counts = vec![0u64; t.num_leaves() as usize];
        t.for_leaf_counts(0, t.num_leaves(), &mut |l, c| counts[l as usize] = c);
        let mut acc = 0u64;
        for leaf in 0..t.num_leaves() {
            assert_eq!(t.prefix_before(leaf), acc, "leaf {leaf}");
            acc += counts[leaf as usize];
        }
    }

    #[test]
    fn prefix_matches_cumulative_counts_3d() {
        let t: CountTree<3> = CountTree::new(8, 999, 2);
        let mut counts = vec![0u64; t.num_leaves() as usize];
        t.for_leaf_counts(0, t.num_leaves(), &mut |l, c| counts[l as usize] = c);
        let mut acc = 0u64;
        for leaf in 0..t.num_leaves() {
            assert_eq!(t.prefix_before(leaf), acc, "leaf {leaf}");
            acc += counts[leaf as usize];
        }
    }

    #[test]
    fn zero_total() {
        let t: CountTree<2> = CountTree::new(1, 0, 3);
        let mut visited = 0;
        t.for_leaf_counts(0, 64, &mut |_, c| {
            assert_eq!(c, 0);
            visited += 1;
        });
        assert_eq!(visited, 64);
    }

    #[test]
    fn depth_zero_tree() {
        let t: CountTree<2> = CountTree::new(1, 55, 0);
        assert_eq!(t.num_leaves(), 1);
        assert_eq!(t.leaf_count(0), 55);
    }

    #[test]
    fn seed_sensitivity() {
        let a: CountTree<2> = CountTree::new(1, 1000, 3);
        let b: CountTree<2> = CountTree::new(2, 1000, 3);
        let mut va = Vec::new();
        let mut vb = Vec::new();
        a.for_leaf_counts(0, 64, &mut |_, c| va.push(c));
        b.for_leaf_counts(0, 64, &mut |_, c| vb.push(c));
        assert_ne!(va, vb);
    }
}

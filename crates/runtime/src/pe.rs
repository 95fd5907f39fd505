//! Running logical PEs on a thread pool.

use std::ops::Range;

/// Build a rayon pool with a fixed thread count (0 = rayon default).
pub fn thread_pool(threads: usize) -> rayon::ThreadPool {
    let mut builder = rayon::ThreadPoolBuilder::new();
    if threads > 0 {
        builder = builder.num_threads(threads);
    }
    builder.build().expect("failed to build thread pool")
}

/// Execute `f(pe)` for every logical PE `0..num_pes` on `threads` worker
/// threads and collect the results in PE order.
///
/// The results are identical for every `threads` value — that is the
/// communication-free property, and the integration tests assert it.
pub fn run_chunks<T: Send>(
    num_pes: usize,
    threads: usize,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let pool = thread_pool(threads);
    pool.install(|| {
        use rayon::prelude::*;
        (0..num_pes).into_par_iter().map(&f).collect()
    })
}

/// Split `0..num_items` into at most `parts` contiguous, balanced,
/// non-empty ranges — the rank plan of a distributed run: rank `i` of a
/// `parts`-worker job owns the `i`-th returned range. Uses the same
/// rounding as the generators' vertex ranges (`i * num_items / parts`),
/// so item counts differ by at most one and the concatenation of all
/// ranges is exactly `0..num_items`.
///
/// With `parts > num_items`, only `num_items` (single-item) ranges are
/// returned — a rank with no work is never planned.
pub fn split_ranges(num_items: usize, parts: usize) -> Vec<Range<usize>> {
    if num_items == 0 || parts == 0 {
        return Vec::new();
    }
    let parts = parts.min(num_items);
    (0..parts)
        .map(|i| {
            let begin = i * num_items / parts;
            let end = (i + 1) * num_items / parts;
            begin..end
        })
        .collect()
}

/// Execute one task per *rank range* of the [`split_ranges`] plan —
/// `f(rank, range)` runs the whole range on a single worker, exactly as
/// one process of a `workers`-wide cluster run would — and collect the
/// results in rank order. This is the in-process twin of the
/// `kagen_cluster` multi-process launcher: same plan, threads instead of
/// processes.
pub fn run_rank_ranges<T: Send>(
    num_pes: usize,
    workers: usize,
    f: impl Fn(usize, Range<usize>) -> T + Sync,
) -> Vec<T> {
    let plan = split_ranges(num_pes, workers);
    let pool = thread_pool(plan.len());
    pool.install(|| {
        use rayon::prelude::*;
        plan.into_par_iter()
            .enumerate()
            .map(|(rank, range)| f(rank, range))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_pe_order() {
        let out = run_chunks(16, 4, |pe| pe * 10);
        assert_eq!(out, (0..16).map(|pe| pe * 10).collect::<Vec<_>>());
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let f = |pe: usize| (pe as u64).wrapping_mul(0x9E3779B97F4A7C15);
        let a = run_chunks(32, 1, f);
        let b = run_chunks(32, 8, f);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_pes() {
        let out: Vec<u32> = run_chunks(0, 2, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn split_ranges_partitions_exactly() {
        for num in [0usize, 1, 5, 64, 97] {
            for parts in [1usize, 2, 3, 7, 64, 100] {
                let plan = split_ranges(num, parts);
                // Concatenation is exactly 0..num, in order, no gaps.
                let mut next = 0;
                for r in &plan {
                    assert_eq!(r.start, next, "gap in {num}/{parts}");
                    assert!(r.end > r.start, "empty range in {num}/{parts}");
                    next = r.end;
                }
                assert_eq!(next, num);
                if num > 0 {
                    assert_eq!(plan.len(), parts.min(num));
                    // Balanced: sizes differ by at most one.
                    let sizes: Vec<usize> = plan.iter().map(|r| r.len()).collect();
                    let min = sizes.iter().min().unwrap();
                    let max = sizes.iter().max().unwrap();
                    assert!(max - min <= 1, "imbalanced: {sizes:?}");
                }
            }
        }
    }

    #[test]
    fn rank_ranges_cover_all_pes_in_order() {
        let out = run_rank_ranges(64, 5, |rank, range| (rank, range));
        assert_eq!(out.len(), 5);
        let mut next = 0;
        for (i, (rank, range)) in out.into_iter().enumerate() {
            assert_eq!(rank, i);
            assert_eq!(range.start, next);
            next = range.end;
        }
        assert_eq!(next, 64);
    }

    #[test]
    fn rank_range_worker_count_does_not_change_per_pe_results() {
        // The communication-free property at rank granularity: each rank
        // computes a pure function of its PEs, so any worker count yields
        // the same concatenated per-PE outputs.
        let per_pe = |pe: usize| (pe as u64).wrapping_mul(0x9E3779B97F4A7C15);
        let flat = |workers: usize| -> Vec<u64> {
            run_rank_ranges(32, workers, |_, range| {
                range.map(per_pe).collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect()
        };
        let expect: Vec<u64> = (0..32).map(per_pe).collect();
        for workers in [1, 2, 5, 32, 40] {
            assert_eq!(flat(workers), expect, "workers={workers}");
        }
    }
}

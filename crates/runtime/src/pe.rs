//! Running logical PEs on a pool of scoped threads.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Execute `f(pe)` for every logical PE `0..num_pes` on `threads` worker
/// threads (`0` = all cores) and collect the results in PE order.
///
/// Each worker takes the next PE off one shared cursor, so a worker that
/// falls behind (a slower core, a preempted thread) takes fewer PEs and
/// the wall time is the workers' mean, not the slowest one's share. One
/// thread or one PE runs on the calling thread. A panicking PE panics
/// out of this call with its own payload.
///
/// The results are identical for every `threads` value — that is the
/// communication-free property, and the integration tests assert it.
pub fn run_chunks<T: Send>(
    num_pes: usize,
    threads: usize,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let threads = match threads {
        // kagen-lint: allow(d2) -- scheduling only: every thread count returns the same results
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        t => t,
    };
    if threads <= 1 || num_pes <= 1 {
        return (0..num_pes).map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let (f, cursor) = (&f, &cursor);
    let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(num_pes).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.min(num_pes))
            .map(|_| {
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        // Relaxed: the cursor publishes no data (results
                        // come back through `join`), and a fetch_add hands
                        // each PE to one worker under any ordering.
                        let pe = cursor.fetch_add(1, Ordering::Relaxed);
                        if pe >= num_pes {
                            return done;
                        }
                        done.push((pe, f(pe)));
                    }
                })
            })
            .collect();
        for worker in workers {
            match worker.join() {
                Ok(done) => done.into_iter().for_each(|(pe, out)| slots[pe] = Some(out)),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    slots
        .into_iter()
        .map(|out| out.expect("the cursor hands out every PE once"))
        .collect()
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
    run_chunks(plan.len(), plan.len(), |rank| f(rank, plan[rank].clone()))
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
    fn pool_bounds_threads() {
        let caller = std::thread::current().id();
        for t in [1, 2, 3] {
            let ids = run_chunks(64, t, |_| std::thread::current().id());
            let mut distinct = Vec::new();
            for id in ids {
                if !distinct.contains(&id) {
                    distinct.push(id);
                }
            }
            assert!(distinct.len() <= t, "t={t}: {} threads", distinct.len());
            if t == 1 {
                assert_eq!(distinct, vec![caller]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "pe 5 failed")]
    fn a_panicking_pe_panics_out_of_run_chunks() {
        run_chunks(16, 2, |pe| {
            if pe == 5 {
                panic!("pe 5 failed");
            }
            pe
        });
    }

    #[test]
    fn a_worker_held_on_one_item_does_not_hold_up_the_rest() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::time::{Duration, Instant};
        // Item 0 waits until the other 15 are done: only a worker that
        // takes items off the shared queue can finish them meanwhile (a
        // split into halves would leave items 1..8 behind item 0).
        let done = AtomicUsize::new(0);
        let out: Vec<bool> = run_chunks(16, 2, |i| {
            if i > 0 {
                done.fetch_add(1, Ordering::SeqCst);
                return true;
            }
            let start = Instant::now();
            while done.load(Ordering::SeqCst) < 15 {
                if start.elapsed() > Duration::from_secs(10) {
                    return false;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            true
        });
        assert_eq!(out, vec![true; 16]);
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

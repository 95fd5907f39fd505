//! Vitter's sequential random sampling: Algorithms A and D.
//!
//! Both draw `k` distinct indices uniformly from `[0, universe)` and emit
//! them in increasing order. Algorithm A scans with O(universe) work;
//! Algorithm D generates skip distances by acceptance–rejection with
//! expected O(k) work, which is what the paper's chunk-leaf sampling uses
//! ("a linear time sequential algorithm \[16\]", §2.2):
//! [`sample_sorted_batched`] is the `Exact` arm of the one leaf sampler
//! ([`crate::sample_leaf`]), [`sample_sorted`] its per-draw reference.

use kagen_util::{BlockRng, Rng64};

/// Threshold ratio: when `universe < ALPHA_INV * k`, Algorithm D hands the
/// remaining work to Algorithm A (Vitter's recommended α⁻¹ = 13).
const ALPHA_INV: u64 = 13;

/// Algorithm A: linear-scan sequential sampling.
///
/// Emits `k` sorted distinct indices in `[0, universe)`.
pub fn vitter_a<R: Rng64>(rng: &mut R, universe: u64, k: u64, emit: &mut impl FnMut(u64)) {
    debug_assert!(k <= universe);
    if k == 0 {
        return;
    }
    let mut remaining_n = k;
    let mut top = (universe - k) as f64;
    let mut n_real = universe as f64;
    let mut current: u64 = 0; // next candidate index
    while remaining_n >= 2 {
        let v = rng.next_f64();
        let mut s = 0u64;
        let mut quot = top / n_real;
        while quot > v {
            s += 1;
            top -= 1.0;
            n_real -= 1.0;
            quot = quot * top / n_real;
        }
        emit(current + s);
        current += s + 1;
        n_real -= 1.0;
        remaining_n -= 1;
    }
    // Last sample: uniform over what is left.
    let s = (n_real.round() * rng.next_f64()) as u64;
    emit(current + s);
}

/// Algorithm D: skip-distance sequential sampling, expected O(k).
///
/// Emits `k` sorted distinct indices in `[0, universe)`.
pub fn vitter_d<R: Rng64>(rng: &mut R, universe: u64, k: u64, emit: &mut impl FnMut(u64)) {
    debug_assert!(k <= universe, "k={k} > universe={universe}");
    if k == 0 {
        return;
    }
    let mut n = k;
    let mut big_n = universe;
    let mut n_real = n as f64;
    let mut big_n_real = big_n as f64;
    let mut ninv = 1.0 / n_real;
    let mut vprime = (rng.next_f64_open().ln() * ninv).exp();
    let mut qu1 = big_n - n + 1;
    let mut qu1_real = qu1 as f64;
    let mut threshold = ALPHA_INV * n;
    let mut current: u64 = 0;

    while n > 1 && threshold < big_n {
        let nmin1_inv = 1.0 / (n_real - 1.0);
        let s: u64;
        loop {
            // Draw a candidate skip S < qu1.
            let mut x: f64;
            let mut s_cand: u64;
            loop {
                x = big_n_real * (1.0 - vprime);
                s_cand = x as u64;
                if s_cand < qu1 {
                    break;
                }
                vprime = (rng.next_f64_open().ln() * ninv).exp();
            }
            let u = rng.next_f64_open();
            let neg_s_real = -(s_cand as f64);

            // Fast acceptance test.
            let y1 = ((u * big_n_real / qu1_real).ln() * nmin1_inv).exp();
            vprime = y1 * (-x / big_n_real + 1.0) * (qu1_real / (neg_s_real + qu1_real));
            if vprime <= 1.0 {
                s = s_cand;
                break;
            }

            // Slow exact test.
            let mut y2 = 1.0f64;
            let mut top = big_n_real - 1.0;
            let (mut bottom, limit) = if n - 1 > s_cand {
                (big_n_real - n_real, big_n - s_cand)
            } else {
                (big_n_real + neg_s_real - 1.0, qu1)
            };
            let mut t = big_n - 1;
            while t >= limit {
                y2 = y2 * top / bottom;
                top -= 1.0;
                bottom -= 1.0;
                t -= 1;
            }
            if big_n_real / (big_n_real - x) >= y1 * (y2.ln() * nmin1_inv).exp() {
                // Accept; prepare V' for the next iteration.
                vprime = (rng.next_f64_open().ln() * nmin1_inv).exp();
                s = s_cand;
                break;
            }
            vprime = (rng.next_f64_open().ln() * ninv).exp();
        }

        emit(current + s);
        current += s + 1;
        big_n -= s + 1;
        big_n_real = big_n_real + (-(s as f64)) - 1.0;
        n -= 1;
        n_real -= 1.0;
        ninv = nmin1_inv;
        qu1 -= s;
        qu1_real -= s as f64;
        threshold -= ALPHA_INV;
    }

    if n > 1 {
        // Dense remainder: finish with Algorithm A.
        let base = current;
        vitter_a(rng, big_n, n, &mut |i| emit(base + i));
    } else {
        let s = (big_n as f64 * vprime) as u64;
        emit(current + s.min(big_n - 1));
    }
}

/// Sample `k` sorted distinct indices from `[0, universe)`, choosing the
/// appropriate algorithm.
pub fn sample_sorted<R: Rng64>(rng: &mut R, universe: u64, k: u64, emit: &mut impl FnMut(u64)) {
    if k == universe {
        for i in 0..universe {
            emit(i);
        }
    } else if universe < ALPHA_INV * k {
        vitter_a(rng, universe, k, emit);
    } else {
        vitter_d(rng, universe, k, emit);
    }
}

/// Block-treated [`sample_sorted`]: the identical index stream, with the
/// uniform draws — Method D's `vprime` rejection uniforms included —
/// served from a [`BlockRng`] buffer instead of per-draw PRNG calls.
///
/// Because the buffered words are consumed in the per-draw order, the
/// output is bit-identical to [`sample_sorted`] on the same PRNG state
/// (asserted in tests). The buffer may draw up to a block past the last
/// consumed word, so the PRNG must be dedicated to this call — true of
/// the per-leaf-seeded PRNGs of every generator in this workspace.
///
/// Measured honestly: Method D's accept test is a serial
/// `ln → exp → ln → …` dependency chain across samples, so — unlike the
/// geometric skips, whose conversion is embarrassingly parallel — the
/// block treatment only removes the PRNG-call and dispatch overhead
/// around that chain, not the chain itself.
pub fn sample_sorted_batched<R: Rng64>(
    rng: &mut R,
    universe: u64,
    k: u64,
    emit: &mut impl FnMut(u64),
) {
    if k == universe {
        // Full enumeration draws nothing: no buffer, no word consumed.
        sample_sorted(rng, universe, k, emit);
    } else {
        sample_sorted(&mut BlockRng::new(rng), universe, k, emit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kagen_util::Mt64;

    fn collect(f: impl Fn(&mut Mt64, &mut dyn FnMut(u64)), seed: u64) -> Vec<u64> {
        let mut rng = Mt64::new(seed);
        let mut out = Vec::new();
        f(&mut rng, &mut |x| out.push(x));
        out
    }

    fn check_valid(sample: &[u64], universe: u64, k: u64) {
        assert_eq!(sample.len() as u64, k, "wrong sample size");
        for w in sample.windows(2) {
            assert!(w[0] < w[1], "not strictly sorted: {:?}", w);
        }
        for &x in sample {
            assert!(x < universe, "out of range: {x} >= {universe}");
        }
    }

    #[test]
    fn algorithm_a_valid() {
        for (u, k) in [(10u64, 10u64), (100, 5), (100, 99), (1, 1), (50, 1)] {
            for seed in 0..20 {
                let s = collect(|r, e| vitter_a(r, u, k, &mut |x| e(x)), seed);
                check_valid(&s, u, k);
            }
        }
    }

    #[test]
    fn algorithm_d_valid() {
        for (u, k) in [
            (1_000_000u64, 10u64),
            (1_000_000, 1000),
            (1 << 40, 100),
            (100, 7),
            (14, 1),
        ] {
            for seed in 0..20 {
                let s = collect(|r, e| vitter_d(r, u, k, &mut |x| e(x)), seed);
                check_valid(&s, u, k);
            }
        }
    }

    #[test]
    fn sample_sorted_full_universe() {
        let s = collect(|r, e| sample_sorted(r, 17, 17, &mut |x| e(x)), 1);
        assert_eq!(s, (0..17).collect::<Vec<_>>());
    }

    #[test]
    fn zero_samples() {
        let s = collect(|r, e| sample_sorted(r, 100, 0, &mut |x| e(x)), 1);
        assert!(s.is_empty());
    }

    #[test]
    fn algorithm_a_uniform_inclusion() {
        // Every element of a small universe must be included with
        // probability k/u.
        let (u, k, reps) = (20u64, 5u64, 40_000usize);
        let mut counts = vec![0u32; u as usize];
        let mut rng = Mt64::new(42);
        for _ in 0..reps {
            vitter_a(&mut rng, u, k, &mut |x| counts[x as usize] += 1);
        }
        let expect = reps as f64 * k as f64 / u as f64;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expect).abs() < 6.0 * (expect * (1.0 - 0.25)).sqrt(),
                "element {i}: count {c}, expect {expect}"
            );
        }
    }

    #[test]
    fn algorithm_d_uniform_inclusion() {
        let (u, k, reps) = (200u64, 8u64, 40_000usize);
        let mut counts = vec![0u32; u as usize];
        let mut rng = Mt64::new(43);
        for _ in 0..reps {
            vitter_d(&mut rng, u, k, &mut |x| counts[x as usize] += 1);
        }
        let expect = reps as f64 * k as f64 / u as f64;
        let sd = expect.sqrt();
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expect).abs() < 6.0 * sd,
                "element {i}: count {c}, expect {expect}"
            );
        }
    }

    #[test]
    fn d_and_a_agree_statistically() {
        // Mean of the smallest sampled element should match between A and D.
        let (u, k, reps) = (10_000u64, 10u64, 5_000usize);
        let mut rng = Mt64::new(44);
        let mean_min_a: f64 = (0..reps)
            .map(|_| {
                let mut min = u64::MAX;
                vitter_a(&mut rng, u, k, &mut |x| min = min.min(x));
                min as f64
            })
            .sum::<f64>()
            / reps as f64;
        let mean_min_d: f64 = (0..reps)
            .map(|_| {
                let mut min = u64::MAX;
                vitter_d(&mut rng, u, k, &mut |x| min = min.min(x));
                min as f64
            })
            .sum::<f64>()
            / reps as f64;
        // E[min] = (u - k)/(k + 1) ≈ 908.
        let expect = (u - k) as f64 / (k + 1) as f64;
        assert!(
            (mean_min_a - expect).abs() / expect < 0.06,
            "A: {mean_min_a} vs {expect}"
        );
        assert!(
            (mean_min_d - expect).abs() / expect < 0.06,
            "D: {mean_min_d} vs {expect}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = collect(|r, e| vitter_d(r, 1 << 30, 500, &mut |x| e(x)), 7);
        let b = collect(|r, e| vitter_d(r, 1 << 30, 500, &mut |x| e(x)), 7);
        assert_eq!(a, b);
    }

    #[test]
    fn dense_sampling_falls_back() {
        // k close to universe forces the Algorithm A path inside D.
        let s = collect(|r, e| sample_sorted(r, 100, 60, &mut |x| e(x)), 3);
        check_valid(&s, 100, 60);
    }

    #[test]
    fn batched_equals_per_draw_exactly() {
        // sample_sorted_batched must reproduce sample_sorted bit-for-bit
        // from the same PRNG state: D path, dense A fallback, mid-stream
        // D→A handoff, full enumeration, k=0, universes near u64::MAX,
        // and counts straddling the RNG block boundary.
        for &(u, k) in &[
            (1u64 << 40, 1000u64),
            (1_000_000, 1000),
            (100, 60),   // A from the start
            (1000, 500), // D hands off to A mid-stream
            (17, 17),    // full enumeration
            (100, 0),
            (u64::MAX, 100),
            (u64::MAX - 1, 3),
            (1 << 30, 255),
            (1 << 30, 256),
            (1 << 30, 257), // block-boundary draw counts
            (1 << 30, 4096),
        ] {
            for seed in 0..5 {
                let a = collect(|r, e| sample_sorted(r, u, k, &mut |x| e(x)), seed);
                let b = collect(|r, e| sample_sorted_batched(r, u, k, &mut |x| e(x)), seed);
                assert_eq!(a, b, "u={u} k={k} seed={seed}");
            }
        }
    }

    #[test]
    fn stress_many_sizes() {
        let mut rng = Mt64::new(11);
        for exp in [10u32, 16, 20] {
            let u = 1u64 << exp;
            for k in [1u64, 2, 63, 1024] {
                let mut cnt = 0u64;
                let mut last: Option<u64> = None;
                sample_sorted(&mut rng, u, k, &mut |x| {
                    if let Some(l) = last {
                        assert!(x > l);
                    }
                    assert!(x < u);
                    last = Some(x);
                    cnt += 1;
                });
                assert_eq!(cnt, k);
            }
        }
    }
}

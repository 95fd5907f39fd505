//! Bernoulli sampling with geometric skips (Batagelj & Brandes).
//!
//! Walks a universe selecting each element independently with probability
//! `p`, but in O(selected) time by jumping over the gaps: the
//! `Bernoulli` arm of the one leaf sampler ([`crate::sample_leaf`]), and
//! (per draw) the Boost-style baseline.
//!
//! Two delivery shapes, one index stream:
//!
//! * [`bernoulli_sample`] — one emitted index per skip, one uniform per
//!   skip, drawn lazily: safe when the caller keeps using the PRNG
//!   afterwards (the per-edge path);
//! * [`bernoulli_sample_batched`] — skips converted in blocks
//!   ([`SkipSampler::skip_block`]) and indices handed out as sorted
//!   slices. Uniforms are consumed in the identical order, so the index
//!   stream is **bit-identical** to the per-edge path; the final block
//!   may draw ahead of the last emitted index, so the PRNG must be
//!   dedicated to this call (true of every per-leaf-seeded generator
//!   PRNG in this workspace).

use kagen_dist::geometric::SkipSampler;
use kagen_util::Rng64;

/// Skips converted per block by the batched path: large enough that the
/// block fill and the `ln` conversion loop amortize their setup, small
/// enough that a block of skips plus its index slice stay L1-resident.
pub const SKIP_BLOCK: usize = 1024;

/// Emit every index of `[0, universe)` independently selected with
/// probability `p`, in increasing order.
pub fn bernoulli_sample<R: Rng64>(rng: &mut R, universe: u64, p: f64, emit: &mut impl FnMut(u64)) {
    if p <= 0.0 || universe == 0 {
        return;
    }
    if p >= 1.0 {
        for i in 0..universe {
            emit(i);
        }
        return;
    }
    // Hoist the ln(1−p) reciprocal out of the skip loop — bit-identical
    // to converting every skip independently.
    let sampler = SkipSampler::new(p);
    let mut idx = sampler.skip_of(rng.next_f64_open());
    while idx < universe {
        emit(idx);
        let skip = sampler.skip_of(rng.next_f64_open());
        idx = match idx.checked_add(1).and_then(|x| x.checked_add(skip)) {
            Some(next) => next,
            None => break,
        };
    }
}

/// Batched [`bernoulli_sample`]: the same sorted index stream, delivered
/// as slices of at most [`SKIP_BLOCK`] indices.
///
/// Skips are drawn in blocks ([`SkipSampler::skip_block`]) and
/// prefix-summed into absolute indices; every skip consumes exactly one
/// uniform in the per-edge order, so the emitted stream is bit-identical
/// to [`bernoulli_sample`] with the same PRNG state. The last block may
/// consume uniforms beyond the terminating skip — callers must not reuse
/// the PRNG for anything order-sensitive afterwards.
pub fn bernoulli_sample_batched<R: Rng64>(
    rng: &mut R,
    universe: u64,
    p: f64,
    emit: &mut impl FnMut(&[u64]),
) {
    if p <= 0.0 || universe == 0 {
        return;
    }
    let mut out = [0u64; SKIP_BLOCK];
    if p >= 1.0 {
        // Everything selected; no uniforms consumed (matches the
        // per-edge path).
        let mut next = 0u64;
        while next < universe {
            let len = (universe - next).min(SKIP_BLOCK as u64) as usize;
            for (k, slot) in out[..len].iter_mut().enumerate() {
                *slot = next + k as u64;
            }
            emit(&out[..len]);
            next += len as u64;
        }
        return;
    }
    let sampler = SkipSampler::new(p);
    let mut skips = [0u64; SKIP_BLOCK];
    // `prev` is the last emitted index; the first skip is itself the
    // first candidate index.
    let mut prev: Option<u64> = None;
    loop {
        // Size each block by the expected number of skips still needed
        // (≈ remaining·p, plus 3σ and a constant floor so the common
        // case is exactly one block). Oversized blocks convert uniforms
        // that the termination check then throws away — on a ~512-edge
        // leaf a fixed 1024-skip block would waste half its `ln` work.
        // Sizing never changes the draw order, so the stream stays
        // bit-identical to the per-edge path.
        let consumed = prev.map_or(0, |q| q.saturating_add(1));
        let est = (universe - consumed) as f64 * p;
        let want = est + 3.0 * est.sqrt() + 8.0;
        let block = if want >= SKIP_BLOCK as f64 {
            SKIP_BLOCK
        } else {
            want as usize
        };
        sampler.skip_block(rng, &mut skips[..block]);
        let mut len = 0usize;
        for &s in skips[..block].iter() {
            let idx = match prev {
                None => s,
                Some(q) => match q.checked_add(1).and_then(|x| x.checked_add(s)) {
                    Some(next) => next,
                    None => {
                        // Index overflow: the per-edge path stops here.
                        if len > 0 {
                            emit(&out[..len]);
                        }
                        return;
                    }
                },
            };
            if idx >= universe {
                if len > 0 {
                    emit(&out[..len]);
                }
                return;
            }
            out[len] = idx;
            len += 1;
            prev = Some(idx);
        }
        emit(&out[..len]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kagen_util::Mt64;

    #[test]
    fn count_matches_expectation() {
        let mut rng = Mt64::new(1);
        let universe = 1_000_000u64;
        let p = 0.001;
        let mut count = 0u64;
        bernoulli_sample(&mut rng, universe, p, &mut |_| count += 1);
        let expect = universe as f64 * p;
        let sd = (universe as f64 * p * (1.0 - p)).sqrt();
        assert!(
            (count as f64 - expect).abs() < 5.0 * sd,
            "count {count} vs {expect}"
        );
    }

    #[test]
    fn sorted_unique_in_range() {
        let mut rng = Mt64::new(2);
        let mut last: Option<u64> = None;
        bernoulli_sample(&mut rng, 100_000, 0.01, &mut |x| {
            if let Some(l) = last {
                assert!(x > l);
            }
            assert!(x < 100_000);
            last = Some(x);
        });
    }

    #[test]
    fn p_one_selects_everything() {
        let mut rng = Mt64::new(3);
        let mut out = Vec::new();
        bernoulli_sample(&mut rng, 10, 1.0, &mut |x| out.push(x));
        assert_eq!(out, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn p_zero_selects_nothing() {
        let mut rng = Mt64::new(4);
        let mut any = false;
        bernoulli_sample(&mut rng, 1000, 0.0, &mut |_| any = true);
        assert!(!any);
    }

    #[test]
    fn inclusion_probability_uniform() {
        // Every position equally likely: compare first and last decile.
        let mut rng = Mt64::new(5);
        let universe = 1000u64;
        let mut lo = 0u32;
        let mut hi = 0u32;
        for _ in 0..2000 {
            bernoulli_sample(&mut rng, universe, 0.05, &mut |x| {
                if x < 100 {
                    lo += 1;
                } else if x >= 900 {
                    hi += 1;
                }
            });
        }
        let ratio = lo as f64 / hi as f64;
        assert!((0.9..1.1).contains(&ratio), "lo {lo} hi {hi}");
    }

    fn batched_equals_per_edge(universe: u64, p: f64, seed: u64) {
        let mut a = Mt64::new(seed);
        let mut per_edge = Vec::new();
        bernoulli_sample(&mut a, universe, p, &mut |x| per_edge.push(x));
        let mut b = Mt64::new(seed);
        let mut batched = Vec::new();
        bernoulli_sample_batched(&mut b, universe, p, &mut |s| batched.extend_from_slice(s));
        assert_eq!(per_edge, batched, "universe={universe} p={p} seed={seed}");
    }

    #[test]
    fn batched_equivalence_edge_cases() {
        // p = 1, p within one ulp of 1, denormal-scale p, universes near
        // u64::MAX, and selection counts straddling the block boundary.
        for seed in 1..=5u64 {
            batched_equals_per_edge(10, 1.0, seed);
            batched_equals_per_edge(100_000, 0.9999999999999999, seed);
            batched_equals_per_edge(1_000_000, 1e-300, seed);
            batched_equals_per_edge(u64::MAX, 1e-18, seed);
            batched_equals_per_edge(u64::MAX - 1, 5e-19, seed);
            batched_equals_per_edge(0, 0.5, seed);
            batched_equals_per_edge(1, 0.5, seed);
            // ~SKIP_BLOCK ± a few selected: exercise the emit boundary.
            batched_equals_per_edge(2 * SKIP_BLOCK as u64, 0.5, seed);
            batched_equals_per_edge(SKIP_BLOCK as u64, 1.0, seed);
            batched_equals_per_edge(SKIP_BLOCK as u64 + 1, 1.0, seed);
            batched_equals_per_edge(100_000, 0.01, seed);
        }
    }

    #[test]
    fn batched_blocks_are_bounded_and_ordered() {
        let mut rng = Mt64::new(9);
        let mut last: Option<u64> = None;
        bernoulli_sample_batched(&mut rng, 500_000, 0.02, &mut |s| {
            assert!(s.len() <= SKIP_BLOCK);
            for &x in s {
                if let Some(l) = last {
                    assert!(x > l);
                }
                last = Some(x);
            }
        });
        assert!(last.is_some());
    }
}

//! MT19937-64 — the 64-bit Mersenne Twister of Matsumoto & Nishimura,
//! implemented from the reference constants.
//!
//! This is the PRNG the reference KaGen implementation seeds from SpookyHash
//! values. The period is 2^19937 − 1 and the output is 623-dimensionally
//! equidistributed; what matters for the paper's construction is only that
//! the stream is a pure function of the seed.
//!
//! **Lazy seeding.** A generator is seeded per cell and per splitting-tree
//! node (§2.2), and most of those streams draw a few dozen words, while
//! the reference `init_genrand64` fills all 312 state words and its first
//! refill twists all 312. [`Mt64::new`] therefore only stores the seed;
//! the first draw runs the seeding chain up to word `MM + PREFIX` and
//! twists only the first `PREFIX` words of the first block; the first draw
//! past them finishes the chain and the block once, and every later
//! refill is the full twist. The output is the reference's bit for bit:
//! twisted word `i < MM` reads only the seeded words `i`, `i + 1` and
//! `i + MM`, and the chain produces seeded words in index order, so the
//! first `PREFIX` twisted words need nothing the prefix chain has not
//! computed. Finishing the block later computes the remaining seeded
//! words and then twists words `PREFIX..NN` in the reference's order from
//! the operands the reference reads: seeded words `i` and `i + 1` are
//! still untouched when word `i` is twisted, and word `i − MM` (for
//! `i ≥ MM`) and word 0 (for the last) are already twisted in both orders.
//!
//! Until then the `PREFIX` twisted words wait in the last `PREFIX` slots,
//! which the prefix chain has not reached, and the cursor runs over those
//! slots: a draw makes the same one bounds test as in the reference, and
//! each stage change happens in the cold refill behind it.

use crate::rng::Rng64;
use std::ops::Range;

const NN: usize = 312;
const MM: usize = 156;
const MATRIX_A: u64 = 0xB502_6F5A_A966_19E9;
const UPPER_MASK: u64 = 0xFFFF_FFFF_8000_0000;
const LOWER_MASK: u64 = 0x0000_0000_7FFF_FFFF;
/// Words of the first block the first draw twists. Counted per stream on
/// the benchmark's workloads, ≥ 98 % of the per-cell streams of `rgg2d`,
/// `rdg2d` and `rhg` draw at most 48 words (31 % of `rgg2d`'s at most
/// 16); a longer stream does the reference's work plus one copy of the
/// prefix.
const PREFIX: usize = 48;
// The twisted prefix waits in slots the prefix chain does not reach.
const _: () = assert!(MM + PREFIX <= NN - PREFIX);

/// How much of the first block exists.
#[derive(Clone, Copy)]
enum Stage {
    /// Only the seed, in `mt[0]`.
    Seed,
    /// The first `PREFIX` words, in `mt[NN - PREFIX..]`.
    Prefix,
    /// The whole block: every refill is the reference twist.
    Full,
}

/// 64-bit Mersenne Twister state.
#[derive(Clone)]
pub struct Mt64 {
    mt: [u64; NN],
    idx: usize,
    stage: Stage,
}

// Manual impl: the 312-word state array is noise; the cursor is the
// only field worth printing.
impl std::fmt::Debug for Mt64 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mt64")
            .field("idx", &self.idx)
            .finish_non_exhaustive()
    }
}

/// `init_genrand64`'s chain over the state words `words` (from 1 on).
#[inline(always)]
fn seed_words(mt: &mut [u64; NN], words: Range<usize>) {
    for i in words {
        mt[i] = 6_364_136_223_846_793_005u64
            .wrapping_mul(mt[i - 1] ^ (mt[i - 1] >> 62))
            .wrapping_add(i as u64);
    }
}

/// Word `i` of the next block, from the state the reference refill's
/// loop has when it reaches `i`.
#[inline(always)]
fn twisted(mt: &[u64; NN], i: usize) -> u64 {
    let x = (mt[i] & UPPER_MASK) | (mt[(i + 1) % NN] & LOWER_MASK);
    let mut xa = x >> 1;
    if x & 1 != 0 {
        xa ^= MATRIX_A;
    }
    mt[(i + MM) % NN] ^ xa
}

/// The reference refill's loop over the state words `words`.
#[inline(always)]
fn twist(mt: &mut [u64; NN], words: Range<usize>) {
    for i in words {
        mt[i] = twisted(mt, i);
    }
}

impl Mt64 {
    /// Seed with a single 64-bit value (reference `init_genrand64`); the
    /// seeding chain runs on the first draw.
    pub fn new(seed: u64) -> Self {
        let mut mt = [0u64; NN];
        mt[0] = seed;
        Mt64 {
            mt,
            idx: NN,
            stage: Stage::Seed,
        }
    }

    #[cold]
    fn refill(&mut self) {
        let mt = &mut self.mt;
        match self.stage {
            Stage::Seed => {
                seed_words(mt, 1..MM + PREFIX);
                for i in 0..PREFIX {
                    mt[NN - PREFIX + i] = twisted(mt, i);
                }
                (self.idx, self.stage) = (NN - PREFIX, Stage::Prefix);
            }
            Stage::Prefix => {
                mt.copy_within(NN - PREFIX.., 0);
                seed_words(mt, MM + PREFIX..NN);
                twist(mt, PREFIX..NN);
                (self.idx, self.stage) = (PREFIX, Stage::Full);
            }
            Stage::Full => {
                twist(mt, 0..NN);
                self.idx = 0;
            }
        }
    }
}

impl Rng64 for Mt64 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        if self.idx >= NN {
            self.refill();
        }
        let mut x = self.mt[self.idx];
        self.idx += 1;
        x ^= (x >> 29) & 0x5555_5555_5555_5555;
        x ^= (x << 17) & 0x71D6_7FFF_EDA6_0000;
        x ^= (x << 37) & 0xFFF7_EEE0_0000_0000;
        x ^= x >> 43;
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    /// The reference generator as written before lazy seeding: the whole
    /// seeding chain up front, every refill the full twist.
    struct Eager {
        mt: [u64; NN],
        idx: usize,
    }

    impl Eager {
        fn new(seed: u64) -> Self {
            let mut mt = [0u64; NN];
            mt[0] = seed;
            for i in 1..NN {
                mt[i] = 6_364_136_223_846_793_005u64
                    .wrapping_mul(mt[i - 1] ^ (mt[i - 1] >> 62))
                    .wrapping_add(i as u64);
            }
            Eager { mt, idx: NN }
        }
    }

    impl Rng64 for Eager {
        fn next_u64(&mut self) -> u64 {
            if self.idx >= NN {
                let mt = &mut self.mt;
                for i in 0..NN {
                    let x = (mt[i] & UPPER_MASK) | (mt[(i + 1) % NN] & LOWER_MASK);
                    let mut xa = x >> 1;
                    if x & 1 != 0 {
                        xa ^= MATRIX_A;
                    }
                    mt[i] = mt[(i + MM) % NN] ^ xa;
                }
                self.idx = 0;
            }
            let mut x = self.mt[self.idx];
            self.idx += 1;
            x ^= (x >> 29) & 0x5555_5555_5555_5555;
            x ^= (x << 17) & 0x71D6_7FFF_EDA6_0000;
            x ^= (x << 37) & 0xFFF7_EEE0_0000_0000;
            x ^= x >> 43;
            x
        }
    }

    /// Draws that cross the lazy prefix, the rest of the first block and
    /// the first and second full refills.
    const DRAWS: usize = 2_000;

    #[test]
    fn lazy_seeding_is_the_eager_stream() {
        // Every draw count 0..=DRAWS is a prefix of one DRAWS-word stream.
        let seeds = [0, 1, u64::MAX, 5489]
            .into_iter()
            .chain((0..10_000u64).map(crate::splitmix::mix64));
        for seed in seeds {
            let (mut lazy, mut eager) = (Mt64::new(seed), Eager::new(seed));
            for k in 0..DRAWS {
                assert_eq!(lazy.next_u64(), eager.next_u64(), "seed {seed} draw {k}");
            }
        }
    }

    #[test]
    fn a_clone_continues_the_stream_wherever_it_is_taken() {
        for seed in [0, 1, u64::MAX, 42] {
            let want: Vec<u64> = Eager::new(seed).take_vec(DRAWS);
            let mut rng = Mt64::new(seed);
            for k in 0..=DRAWS {
                let mut copy = rng.clone();
                // The rest of the stream from a clone taken after k draws
                // (inside the prefix, in the first block, after refills).
                let tail_len = if k <= 2 * PREFIX || k % 97 == 0 {
                    DRAWS - k
                } else {
                    1
                };
                let tail_len = tail_len.min(DRAWS - k);
                let tail: Vec<u64> = (0..tail_len).map(|_| copy.next_u64()).collect();
                assert_eq!(tail, want[k..k + tail_len], "seed {seed} clone at {k}");
                if k < DRAWS {
                    assert_eq!(rng.next_u64(), want[k]);
                }
            }
        }
    }

    #[test]
    fn reference_vector() {
        // C++11 [rand.predef]: the 10000th output of a default-seeded
        // (init_genrand64(5489)) mt19937_64.
        let mut rng = Mt64::new(5489);
        let x = (0..10_000).map(|_| rng.next_u64()).last();
        assert_eq!(x, Some(9_981_545_732_273_789_042));
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let a: Vec<u64> = Mt64::new(42).take_vec(16);
        let b: Vec<u64> = Mt64::new(42).take_vec(16);
        let c: Vec<u64> = Mt64::new(43).take_vec(16);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn refill_boundary() {
        // Drawing beyond the 312-word buffer must be seamless.
        let mut rng = Mt64::new(1);
        let head: Vec<u64> = (0..1000).map(|_| rng.next_u64()).collect();
        let mut rng2 = Mt64::new(1);
        let again: Vec<u64> = (0..1000).map(|_| rng2.next_u64()).collect();
        assert_eq!(head, again);
    }

    #[test]
    fn uniform_f64_range() {
        let mut rng = Mt64::new(99);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn bounded_draws_unbiased_small() {
        // Chi-square-ish sanity: next_below(10) is roughly uniform.
        let mut rng = Mt64::new(7);
        let mut counts = [0u32; 10];
        let n = 100_000;
        for _ in 0..n {
            counts[rng.next_below(10) as usize] += 1;
        }
        for &c in &counts {
            let expected = n as f64 / 10.0;
            assert!(
                (c as f64 - expected).abs() < 5.0 * expected.sqrt(),
                "bucket count {c} vs expected {expected}"
            );
        }
    }
}

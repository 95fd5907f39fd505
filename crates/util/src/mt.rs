//! MT19937-64 — the 64-bit Mersenne Twister of Matsumoto & Nishimura,
//! implemented from the reference constants.
//!
//! This is the PRNG the reference KaGen implementation seeds from SpookyHash
//! values. The period is 2^19937 − 1 and the output is 623-dimensionally
//! equidistributed; what matters for the paper's construction is only that
//! the stream is a pure function of the seed.

use crate::rng::Rng64;

const NN: usize = 312;
const MM: usize = 156;
const MATRIX_A: u64 = 0xB502_6F5A_A966_19E9;
const UPPER_MASK: u64 = 0xFFFF_FFFF_8000_0000;
const LOWER_MASK: u64 = 0x0000_0000_7FFF_FFFF;

/// 64-bit Mersenne Twister state.
#[derive(Clone)]
pub struct Mt64 {
    mt: [u64; NN],
    idx: usize,
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

impl Mt64 {
    /// Seed with a single 64-bit value (reference `init_genrand64`).
    pub fn new(seed: u64) -> Self {
        let mut mt = [0u64; NN];
        mt[0] = seed;
        for i in 1..NN {
            mt[i] = 6_364_136_223_846_793_005u64
                .wrapping_mul(mt[i - 1] ^ (mt[i - 1] >> 62))
                .wrapping_add(i as u64);
        }
        Mt64 { mt, idx: NN }
    }

    #[cold]
    fn refill(&mut self) {
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

//! SpookyHash V2 (Bob Jenkins, public domain), reimplemented in Rust.
//!
//! The reference KaGen implementation uses SpookyHash to map recursion-tree
//! ids to PRNG seeds. Only the *short* path (messages below 192 bytes) is
//! reproduced: seed tuples are at most 8 words, 64 bytes, so the long
//! path for larger messages is never reached.
//!
//! SpookyHash was chosen by the paper for exactly the property we need:
//! high-quality avalanche behaviour so that *adjacent* recursion-node ids
//! yield statistically independent seeds.

const SC_CONST: u64 = 0xdead_beef_dead_beef;

#[inline(always)]
fn rot64(x: u64, k: u32) -> u64 {
    x.rotate_left(k)
}

/// Read a little-endian u64 from `bytes` starting at `off`, zero-padding
/// past the end of the slice.
#[inline]
fn read_u64_padded(bytes: &[u8], off: usize) -> u64 {
    let mut buf = [0u8; 8];
    let end = bytes.len().min(off + 8);
    if off < end {
        buf[..end - off].copy_from_slice(&bytes[off..end]);
    }
    u64::from_le_bytes(buf)
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn short_mix(h0: &mut u64, h1: &mut u64, h2: &mut u64, h3: &mut u64) {
    *h2 = rot64(*h2, 50);
    *h2 = h2.wrapping_add(*h3);
    *h0 ^= *h2;
    *h3 = rot64(*h3, 52);
    *h3 = h3.wrapping_add(*h0);
    *h1 ^= *h3;
    *h0 = rot64(*h0, 30);
    *h0 = h0.wrapping_add(*h1);
    *h2 ^= *h0;
    *h1 = rot64(*h1, 41);
    *h1 = h1.wrapping_add(*h2);
    *h3 ^= *h1;
    *h2 = rot64(*h2, 54);
    *h2 = h2.wrapping_add(*h3);
    *h0 ^= *h2;
    *h3 = rot64(*h3, 48);
    *h3 = h3.wrapping_add(*h0);
    *h1 ^= *h3;
    *h0 = rot64(*h0, 38);
    *h0 = h0.wrapping_add(*h1);
    *h2 ^= *h0;
    *h1 = rot64(*h1, 37);
    *h1 = h1.wrapping_add(*h2);
    *h3 ^= *h1;
    *h2 = rot64(*h2, 62);
    *h2 = h2.wrapping_add(*h3);
    *h0 ^= *h2;
    *h3 = rot64(*h3, 34);
    *h3 = h3.wrapping_add(*h0);
    *h1 ^= *h3;
    *h0 = rot64(*h0, 5);
    *h0 = h0.wrapping_add(*h1);
    *h2 ^= *h0;
    *h1 = rot64(*h1, 36);
    *h1 = h1.wrapping_add(*h2);
    *h3 ^= *h1;
}

#[inline(always)]
fn short_end(h0: &mut u64, h1: &mut u64, h2: &mut u64, h3: &mut u64) {
    *h3 ^= *h2;
    *h2 = rot64(*h2, 15);
    *h3 = h3.wrapping_add(*h2);
    *h0 ^= *h3;
    *h3 = rot64(*h3, 52);
    *h0 = h0.wrapping_add(*h3);
    *h1 ^= *h0;
    *h0 = rot64(*h0, 26);
    *h1 = h1.wrapping_add(*h0);
    *h2 ^= *h1;
    *h1 = rot64(*h1, 51);
    *h2 = h2.wrapping_add(*h1);
    *h3 ^= *h2;
    *h2 = rot64(*h2, 28);
    *h3 = h3.wrapping_add(*h2);
    *h0 ^= *h3;
    *h3 = rot64(*h3, 9);
    *h0 = h0.wrapping_add(*h3);
    *h1 ^= *h0;
    *h0 = rot64(*h0, 47);
    *h1 = h1.wrapping_add(*h0);
    *h2 ^= *h1;
    *h1 = rot64(*h1, 54);
    *h2 = h2.wrapping_add(*h1);
    *h3 ^= *h2;
    *h2 = rot64(*h2, 32);
    *h3 = h3.wrapping_add(*h2);
    *h0 ^= *h3;
    *h3 = rot64(*h3, 25);
    *h0 = h0.wrapping_add(*h3);
    *h1 ^= *h0;
    *h0 = rot64(*h0, 63);
    *h1 = h1.wrapping_add(*h0);
}

/// The short-message path (`len < 192`), the hot path for seed derivation.
pub fn spooky_short128(message: &[u8], seed1: u64, seed2: u64) -> (u64, u64) {
    let length = message.len();
    let remainder = length % 32;
    let mut a = seed1;
    let mut b = seed2;
    let mut c = SC_CONST;
    let mut d = SC_CONST;
    let mut off = 0usize;

    if length > 15 {
        // Whole 32-byte blocks.
        let blocks = length / 32;
        for _ in 0..blocks {
            c = c.wrapping_add(read_u64_padded(message, off));
            d = d.wrapping_add(read_u64_padded(message, off + 8));
            short_mix(&mut a, &mut b, &mut c, &mut d);
            a = a.wrapping_add(read_u64_padded(message, off + 16));
            b = b.wrapping_add(read_u64_padded(message, off + 24));
            off += 32;
        }
        // A half block if 16..=31 bytes remain.
        if remainder >= 16 {
            c = c.wrapping_add(read_u64_padded(message, off));
            d = d.wrapping_add(read_u64_padded(message, off + 8));
            short_mix(&mut a, &mut b, &mut c, &mut d);
            off += 16;
        }
    }

    // Last 0..15 bytes, plus the length in the top byte of d.
    let rem = length - off;
    d = d.wrapping_add((length as u64) << 56);
    let tail = &message[off..];
    match rem {
        8..=15 => {
            // Bytes 8..rem accumulate into d (shifted), the first 8 into c.
            let mut dv = 0u64;
            for (i, &byte) in tail[8..rem].iter().enumerate() {
                dv |= (byte as u64) << (8 * i);
            }
            d = d.wrapping_add(dv);
            c = c.wrapping_add(read_u64_padded(tail, 0));
        }
        1..=7 => {
            let mut cv = 0u64;
            for (i, &byte) in tail[..rem].iter().enumerate() {
                cv |= (byte as u64) << (8 * i);
            }
            c = c.wrapping_add(cv);
        }
        0 => {
            c = c.wrapping_add(SC_CONST);
            d = d.wrapping_add(SC_CONST);
        }
        _ => unreachable!(),
    }
    short_end(&mut a, &mut b, &mut c, &mut d);
    (a, b)
}

/// Hash a slice of `u64` words (little-endian encoded). This is the hot
/// seed-derivation entry point.
#[inline]
pub fn spooky_hash_words(words: &[u64], seed: u64) -> u64 {
    let mut bytes = [0u8; 64];
    assert!(words.len() <= 8, "seed tuples are at most 8 words");
    for (i, w) in words.iter().enumerate() {
        bytes[8 * i..8 * i + 8].copy_from_slice(&w.to_le_bytes());
    }
    spooky_short128(&bytes[..8 * words.len()], seed, seed).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let m = b"communication-free graph generation";
        assert_eq!(
            spooky_short128(m, 1, 2),
            spooky_short128(m, 1, 2),
            "hash must be a pure function"
        );
    }

    #[test]
    fn seed_sensitivity() {
        let m = b"kagen";
        assert_ne!(spooky_short128(m, 1, 2), spooky_short128(m, 1, 3));
        assert_ne!(spooky_short128(m, 1, 2), spooky_short128(m, 2, 2));
    }

    #[test]
    fn length_sensitivity() {
        // Every prefix length must give a distinct hash (checks the tail
        // handling of the short path).
        let m: Vec<u8> = (0..191u16).map(|x| (x % 251) as u8).collect();
        let mut seen = std::collections::HashSet::new();
        for len in 0..=m.len() {
            assert!(
                seen.insert(spooky_short128(&m[..len], 7, 7)),
                "collision at prefix length {len}"
            );
        }
    }

    #[test]
    fn avalanche_bits() {
        // Flipping one input bit should flip ~half the output bits.
        let base = 0x0123_4567_89ab_cdefu64;
        let h0 = spooky_hash_words(&[base], 0);
        let mut total = 0u32;
        for bit in 0..64 {
            let h1 = spooky_hash_words(&[base ^ (1 << bit)], 0);
            total += (h0 ^ h1).count_ones();
        }
        let avg = total as f64 / 64.0;
        assert!(
            (24.0..40.0).contains(&avg),
            "poor avalanche: average {avg} flipped bits"
        );
    }

    #[test]
    fn word_hash_matches_byte_hash() {
        let words = [1u64, 2, 3];
        let mut bytes = Vec::new();
        for w in words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        assert_eq!(
            spooky_hash_words(&words, 9),
            spooky_short128(&bytes, 9, 9).0
        );
    }
}

//! Packed edge keys: what the external merge sorts, and how a key looks
//! in a spill file.
//!
//! A canonical edge `(lo, hi)` over `n` vertices packs into one integer
//! `(lo << bits) | hi`, `bits = ⌈log2 n⌉`, whose order is the edge order:
//! a `u64` when `2·bits ≤ 64`, else a `u128` — sorting one word instead of
//! a tuple halves the sort. A partition pass reads [`FAN_BITS`] bits of a
//! key as its bucket; in a spill file a key is its little-endian bytes.

/// Key bits one partition pass consumes.
pub(crate) const FAN_BITS: u32 = 7;
/// Buckets of one partition pass; also the cap on worker threads.
pub(crate) const FAN_OUT: usize = 1 << FAN_BITS;

/// A canonical edge packed into one integer whose order is the edge
/// order: `(lo << bits) | hi`.
pub(crate) trait Key: Copy + Ord + Send + Sync {
    /// Bytes of a key in a spill file.
    const BYTES: usize;
    fn pack(lo: u64, hi: u64, bits: u32) -> Self;
    fn unpack(self, bits: u32) -> (u64, u64);
    /// The bucket this key belongs to in a partition pass at `shift`.
    fn digit(self, shift: u32) -> usize;
    /// Write the key's little-endian bytes over `out`.
    fn put(self, out: &mut [u8]);
    /// Append the whole keys `bytes` holds.
    fn extend(into: &mut Vec<Self>, bytes: &[u8]);
}

macro_rules! impl_key {
    ($t:ty) => {
        impl Key for $t {
            const BYTES: usize = std::mem::size_of::<$t>();
            #[inline]
            fn pack(lo: u64, hi: u64, bits: u32) -> $t {
                ((lo as $t) << bits) | hi as $t
            }
            #[inline]
            fn unpack(self, bits: u32) -> (u64, u64) {
                ((self >> bits) as u64, (self & ((1 << bits) - 1)) as u64)
            }
            #[inline]
            fn digit(self, shift: u32) -> usize {
                (self >> shift) as usize & (FAN_OUT - 1)
            }
            #[inline]
            fn put(self, out: &mut [u8]) {
                out.copy_from_slice(&self.to_le_bytes());
            }
            fn extend(into: &mut Vec<$t>, bytes: &[u8]) {
                let (words, _) = bytes.as_chunks::<{ std::mem::size_of::<$t>() }>();
                into.extend(words.iter().map(|w| <$t>::from_le_bytes(*w)));
            }
        }
    };
}
impl_key!(u64);
impl_key!(u128);

/// Scatter `keys`, as spill-file bytes, into `out` grouped by their digit
/// at `shift`, each group in arrival order; bucket `d` is keys
/// `ends[d]..ends[d + 1]` of the result.
pub(crate) fn scatter_bytes<K: Key>(
    keys: &[K],
    shift: u32,
    out: &mut Vec<u8>,
) -> [usize; FAN_OUT + 1] {
    let mut ends = [0; FAN_OUT + 1];
    for k in keys {
        ends[k.digit(shift) + 1] += 1;
    }
    for d in 0..FAN_OUT {
        ends[d + 1] += ends[d];
    }
    out.resize(keys.len() * K::BYTES, 0);
    let mut heads = ends;
    for k in keys {
        let head = &mut heads[k.digit(shift)];
        k.put(&mut out[*head * K::BYTES..][..K::BYTES]);
        *head += 1;
    }
    ends
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_keeps_arrival_order_within_a_bucket() {
        let keys: Vec<u64> = (0..1000u64).map(|i| (i * 7919) % 4096).collect();
        let mut bytes = Vec::new();
        let ends = scatter_bytes(&keys, 5, &mut bytes);
        let mut back = Vec::new();
        u64::extend(&mut back, &bytes);
        for d in 0..FAN_OUT {
            let expect: Vec<u64> = keys.iter().copied().filter(|k| k.digit(5) == d).collect();
            assert_eq!(&back[ends[d]..ends[d + 1]], &expect[..], "bucket {d}");
        }
        assert_eq!(ends[FAN_OUT], keys.len());
    }

    #[test]
    fn keys_order_as_edges_at_both_widths() {
        let edges = [(0u64, 0u64), (0, 5), (1, 0), (1, 1), (7, 3), (7, 4)];
        let small: Vec<u64> = edges.iter().map(|&(u, v)| Key::pack(u, v, 3)).collect();
        assert!(small.windows(2).all(|w| w[0] < w[1]));
        let top = u64::MAX - 1;
        let wide = [(0, top), (1, 0), (top, 0), (top, top)];
        let keys: Vec<u128> = wide.iter().map(|&(u, v)| Key::pack(u, v, 64)).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        for (&edge, key) in wide.iter().zip(keys) {
            assert_eq!(key.unpack(64), edge);
        }
    }
}

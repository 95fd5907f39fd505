//! Z-order (Morton) curves in 2 and 3 dimensions.
//!
//! The RGG/RDG generators create `2^(d·b)` chunks and "distribute them to
//! the PEs in a locality-aware way by using a Z-order curve" (§5.1). The
//! same encoding orders cells within chunks so that a chunk is exactly a
//! contiguous Morton range — which is what lets the count-splitting tree
//! address chunks as aligned subtrees. The Delaunay triangulator inserts
//! its points along the same curve, which is why the interleave lives in
//! this crate: both `kagen_geometry` and `kagen_delaunay` reach it here.

/// Interleave the low 32 bits of `x` with zeros (2D helper).
#[inline]
fn part1by1(mut x: u64) -> u64 {
    x &= 0xffff_ffff;
    x = (x | (x << 16)) & 0x0000_ffff_0000_ffff;
    x = (x | (x << 8)) & 0x00ff_00ff_00ff_00ff;
    x = (x | (x << 4)) & 0x0f0f_0f0f_0f0f_0f0f;
    x = (x | (x << 2)) & 0x3333_3333_3333_3333;
    x = (x | (x << 1)) & 0x5555_5555_5555_5555;
    x
}

#[inline]
fn compact1by1(mut x: u64) -> u64 {
    x &= 0x5555_5555_5555_5555;
    x = (x | (x >> 1)) & 0x3333_3333_3333_3333;
    x = (x | (x >> 2)) & 0x0f0f_0f0f_0f0f_0f0f;
    x = (x | (x >> 4)) & 0x00ff_00ff_00ff_00ff;
    x = (x | (x >> 8)) & 0x0000_ffff_0000_ffff;
    x = (x | (x >> 16)) & 0x0000_0000_ffff_ffff;
    x
}

/// Spread the low 21 bits of `x` every third bit (3D helper).
#[inline]
fn part1by2(mut x: u64) -> u64 {
    x &= 0x1f_ffff;
    x = (x | (x << 32)) & 0x001f_0000_0000_ffff;
    x = (x | (x << 16)) & 0x001f_0000_ff00_00ff;
    x = (x | (x << 8)) & 0x100f_00f0_0f00_f00f;
    x = (x | (x << 4)) & 0x10c3_0c30_c30c_30c3;
    x = (x | (x << 2)) & 0x1249_2492_4924_9249;
    x
}

#[inline]
fn compact1by2(mut x: u64) -> u64 {
    x &= 0x1249_2492_4924_9249;
    x = (x | (x >> 2)) & 0x10c3_0c30_c30c_30c3;
    x = (x | (x >> 4)) & 0x100f_00f0_0f00_f00f;
    x = (x | (x >> 8)) & 0x001f_0000_ff00_00ff;
    x = (x | (x >> 16)) & 0x001f_0000_0000_ffff;
    x = (x | (x >> 32)) & 0x001f_ffff;
    x
}

/// 2D Morton encode (x, y < 2^32).
#[inline]
pub fn encode2(x: u64, y: u64) -> u64 {
    part1by1(x) | (part1by1(y) << 1)
}

/// 2D Morton decode.
#[inline]
pub fn decode2(code: u64) -> (u64, u64) {
    (compact1by1(code), compact1by1(code >> 1))
}

/// 3D Morton encode (x, y, z < 2^21).
#[inline]
pub fn encode3(x: u64, y: u64, z: u64) -> u64 {
    part1by2(x) | (part1by2(y) << 1) | (part1by2(z) << 2)
}

/// 3D Morton decode.
#[inline]
pub fn decode3(code: u64) -> (u64, u64, u64) {
    (
        compact1by2(code),
        compact1by2(code >> 1),
        compact1by2(code >> 2),
    )
}

/// Dimension-generic encode for D in {2, 3}.
#[inline]
pub fn encode<const D: usize>(coords: [u64; D]) -> u64 {
    match D {
        2 => encode2(coords[0], coords[1]),
        3 => encode3(coords[0], coords[1], coords[2]),
        _ => panic!("Morton curves implemented for D in {{2,3}}"),
    }
}

/// Dimension-generic decode for D in {2, 3}.
#[inline]
pub fn decode<const D: usize>(code: u64) -> [u64; D] {
    let mut out = [0u64; D];
    match D {
        2 => {
            let (x, y) = decode2(code);
            out[0] = x;
            out[1] = y;
        }
        3 => {
            let (x, y, z) = decode3(code);
            out[0] = x;
            out[1] = y;
            out[2] = z;
        }
        _ => panic!("Morton curves implemented for D in {{2,3}}"),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_2d() {
        for x in [0u64, 1, 2, 3, 255, 12345, (1 << 20) - 1] {
            for y in [0u64, 1, 7, 99, (1 << 20) - 3] {
                assert_eq!(decode2(encode2(x, y)), (x, y));
            }
        }
    }

    #[test]
    fn roundtrip_3d() {
        for x in [0u64, 5, 1 << 10, (1 << 21) - 1] {
            for y in [0u64, 3, 777] {
                for z in [0u64, 1, 1 << 15] {
                    assert_eq!(decode3(encode3(x, y, z)), (x, y, z));
                }
            }
        }
    }

    #[test]
    fn first_codes_2d() {
        // The classic Z pattern: (0,0)(1,0)(0,1)(1,1).
        assert_eq!(encode2(0, 0), 0);
        assert_eq!(encode2(1, 0), 1);
        assert_eq!(encode2(0, 1), 2);
        assert_eq!(encode2(1, 1), 3);
    }

    #[test]
    fn quadrant_contiguity() {
        // All cells of one 2^k-aligned quadrant form a contiguous range.
        let k = 3u64; // 8x8 quadrant at (8, 0)
        let mut codes: Vec<u64> = (8..16)
            .flat_map(|x| (0..8).map(move |y| encode2(x, y)))
            .collect();
        codes.sort_unstable();
        for w in codes.windows(2) {
            assert_eq!(w[1], w[0] + 1);
        }
        assert_eq!(codes[0] % (1 << (2 * k)), 0, "range is aligned");
    }

    #[test]
    fn generic_matches_specific() {
        assert_eq!(encode::<2>([5, 9]), encode2(5, 9));
        assert_eq!(encode::<3>([5, 9, 2]), encode3(5, 9, 2));
        assert_eq!(decode::<2>(123), {
            let (x, y) = decode2(123);
            [x, y]
        });
    }
}

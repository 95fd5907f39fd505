//! R-MAT kernel-matrix tests: the plain and linear-work composed-table
//! kernels across boundary scales (31/32/33 straddle the point where u
//! and v stop fitting one interleaved word, 63 is the vertex-id ceiling),
//! `levels ∤ scale` remainder cells, and — via proptest — bit-identical
//! delivery across point queries, batched streaming, and bulk fill for
//! every `(scale, levels, kernel)` cell.

use kagen_repro::core::prelude::*;
use proptest::prelude::*;

/// Every edge as an independent point query.
fn point_queries(gen: &Rmat) -> Vec<(u64, u64)> {
    (0..gen.num_edges()).map(|e| gen.edge(e)).collect()
}

/// Concatenated batched stream over all chunks.
fn stream_batched(gen: &Rmat) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    let mut buf = Vec::new();
    for pe in 0..gen.num_chunks() {
        gen.stream_pe_batched(pe, &mut buf, &mut |batch| out.extend_from_slice(batch));
    }
    out
}

#[test]
fn boundary_scales_are_degree_exact_and_in_range() {
    // 31/32/33: 2·scale crosses 64 bits, so u and v must accumulate
    // separately; 63: the top of the supported range, where u and v each
    // use all their bits below the sign position.
    for scale in [31u32, 32, 33, 63] {
        let m = 40_000u64;
        let gen = Rmat::new(scale, m)
            .with_seed(5)
            .with_chunks(7)
            .with_kernel(RmatKernel::Linear { levels: 8 });
        let mut fill = Vec::new();
        gen.fill_edges(0..m, &mut fill);
        assert_eq!(fill.len() as u64, m, "scale {scale}: edge count");
        for &(u, v) in &fill {
            assert_eq!(u >> scale, 0, "scale {scale}: u {u:#x} out of range");
            assert_eq!(v >> scale, 0, "scale {scale}: v {v:#x} out of range");
        }
        assert_eq!(point_queries(&gen), fill, "scale {scale}: point queries");
        assert_eq!(stream_batched(&gen), fill, "scale {scale}: batched");
        // Chunk-count invariance: the stream is a pure function of the
        // edge-index range, not of the partition walked to cover it.
        let rechunked = Rmat::new(scale, m)
            .with_seed(5)
            .with_chunks(13)
            .with_kernel(RmatKernel::Linear { levels: 8 });
        assert_eq!(stream_batched(&rechunked), fill, "scale {scale}: rechunk");
    }
}

#[test]
fn default_levels_dispatch_crosses_the_scale32_wall() {
    // One kernel on both sides of scale 32: the request resolves as
    // given, with levels clamped to the scale only.
    for scale in [31u32, 32] {
        let linear = RmatKernel::Linear { levels: 8 };
        assert_eq!(Rmat::new(scale, 10).with_kernel(linear).kernel(), linear);
    }
    assert_eq!(
        Rmat::new(5, 10)
            .with_kernel(RmatKernel::Linear { levels: 8 })
            .kernel(),
        RmatKernel::Linear { levels: 5 }
    );
}

#[test]
fn remainder_cells_stay_bit_stable() {
    // levels ∤ scale: the last composed draw is a truncated remainder
    // stage. Every delivery path must still agree bit-for-bit.
    for (scale, levels) in [(20u32, 9u32), (31, 12), (33, 7), (63, 10)] {
        let m = 20_000u64;
        let gen = Rmat::new(scale, m)
            .with_seed(11)
            .with_chunks(5)
            .with_kernel(RmatKernel::Linear { levels });
        let mut fill = Vec::new();
        gen.fill_edges(0..m, &mut fill);
        assert_eq!(fill.len() as u64, m, "({scale},{levels}): edge count");
        for &(u, v) in &fill {
            assert_eq!(u >> scale, 0, "({scale},{levels}): u out of range");
            assert_eq!(v >> scale, 0, "({scale},{levels}): v out of range");
        }
        assert_eq!(
            point_queries(&gen),
            fill,
            "({scale},{levels}): point queries"
        );
        assert_eq!(stream_batched(&gen), fill, "({scale},{levels}): batched");
    }
}

#[test]
fn linear_kernel_top_quadrant_mass_beyond_scale32() {
    // Distribution sanity where plain descent is the only alternative:
    // the top-level quadrant split at scale 33 must match the Graph 500
    // (a, b, c, d) masses. 200k edges put ~9 sigma inside the 0.01 band.
    let m = 200_000u64;
    let gen = Rmat::new(33, m)
        .with_seed(9)
        .with_kernel(RmatKernel::Linear { levels: 8 });
    let mut edges = Vec::new();
    gen.fill_edges(0..m, &mut edges);
    let mut counts = [0u64; 4];
    for &(u, v) in &edges {
        counts[((((u >> 32) & 1) << 1) | ((v >> 32) & 1)) as usize] += 1;
    }
    let expect = [0.57, 0.19, 0.19, 0.05];
    for (q, &c) in counts.iter().enumerate() {
        let frac = c as f64 / m as f64;
        assert!(
            (frac - expect[q]).abs() < 0.01,
            "quadrant {q}: observed {frac:.4}, expected {:.2}",
            expect[q]
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Every (scale, levels, kernel) cell delivers the identical edge
    // sequence through bulk fill, point queries, and batched streaming,
    // at any chunking — the bit-stability contract the CLI kernel flag
    // relies on.
    #[test]
    fn delivery_paths_agree_for_every_kernel_cell(
        scale in 1u32..=63,
        levels in 1u32..=12,
        linear in any::<bool>(),
        m in 1u64..3_000,
        seed in any::<u64>(),
        chunks in 1usize..9,
    ) {
        let levels = levels.min(scale);
        let kernel = if linear {
            RmatKernel::Linear { levels }
        } else {
            RmatKernel::Plain
        };
        let gen = Rmat::new(scale, m)
            .with_seed(seed)
            .with_chunks(chunks)
            .with_kernel(kernel);
        let mut fill = Vec::new();
        gen.fill_edges(0..m, &mut fill);
        prop_assert_eq!(fill.len() as u64, m);
        for &(u, v) in &fill {
            prop_assert_eq!(u >> scale, 0);
            prop_assert_eq!(v >> scale, 0);
        }
        prop_assert_eq!(&point_queries(&gen), &fill);
        prop_assert_eq!(&stream_batched(&gen), &fill);
    }
}

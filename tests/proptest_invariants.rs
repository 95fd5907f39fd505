//! Property-based tests over randomized parameters: the invariants of the
//! core data structures and generators hold for *arbitrary* valid inputs,
//! not just the hand-picked ones.

use kagen_repro::core::prelude::*;
use kagen_repro::dist::{binomial, hypergeometric};
use kagen_repro::sampling::{
    bernoulli_sample, bernoulli_sample_batched, sample_sorted, sample_sorted_batched,
    DistributedSampler,
};
use kagen_repro::util::{Mt64, Rng64};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn binomial_within_support(n in 0u64..1_000_000, p in 0.0f64..=1.0, seed in any::<u64>()) {
        let mut rng = Mt64::new(seed);
        let x = binomial(&mut rng, n as u128, p);
        prop_assert!(x <= n);
    }

    #[test]
    fn hypergeometric_within_support(
        total in 1u64..100_000,
        good_frac in 0.0f64..=1.0,
        draw_frac in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        let good = ((total as f64) * good_frac) as u64;
        let draws = ((total as f64) * draw_frac) as u64;
        let mut rng = Mt64::new(seed);
        let x = hypergeometric(&mut rng, total as u128, good as u128, draws);
        let bad = total - good;
        prop_assert!(x <= draws.min(good));
        prop_assert!(x >= draws.saturating_sub(bad));
    }

    #[test]
    fn sample_sorted_is_sorted_unique_in_range(
        universe in 1u64..1_000_000,
        k_frac in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        let k = ((universe as f64) * k_frac) as u64;
        let mut rng = Mt64::new(seed);
        let mut prev: Option<u64> = None;
        let mut count = 0u64;
        sample_sorted(&mut rng, universe, k, &mut |x| {
            assert!(x < universe);
            if let Some(p) = prev {
                assert!(x > p);
            }
            prev = Some(x);
            count += 1;
        });
        prop_assert_eq!(count, k);
    }

    #[test]
    fn bernoulli_sample_sorted_in_range(
        universe in 1u64..200_000,
        p in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        let mut rng = Mt64::new(seed);
        let mut prev: Option<u64> = None;
        bernoulli_sample(&mut rng, universe, p, &mut |x| {
            assert!(x < universe);
            if let Some(q) = prev {
                assert!(x > q);
            }
            prev = Some(x);
        });
    }

    #[test]
    fn bernoulli_batched_equals_per_edge(
        universe in 1u64..400_000,
        p in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        // The block-batched skip kernel must reproduce the per-edge
        // index stream bit-for-bit from the same PRNG state, for
        // arbitrary (universe, p).
        let mut a = Mt64::new(seed);
        let mut per_edge = Vec::new();
        bernoulli_sample(&mut a, universe, p, &mut |x| per_edge.push(x));
        let mut b = Mt64::new(seed);
        let mut batched = Vec::new();
        bernoulli_sample_batched(&mut b, universe, p, &mut |s| batched.extend_from_slice(s));
        prop_assert_eq!(per_edge, batched);
    }

    #[test]
    fn sample_sorted_batched_equals_per_draw(
        universe in 1u64..2_000_000,
        k_frac in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        // The block-treated Method D must reproduce sample_sorted
        // bit-for-bit from the same PRNG state.
        let k = ((universe as f64) * k_frac) as u64;
        let mut a = Mt64::new(seed);
        let mut per_draw = Vec::new();
        sample_sorted(&mut a, universe, k, &mut |x| per_draw.push(x));
        let mut b = Mt64::new(seed);
        let mut batched = Vec::new();
        sample_sorted_batched(&mut b, universe, k, &mut |x| batched.push(x));
        prop_assert_eq!(per_draw, batched);
    }

    #[test]
    fn distributed_sampler_conserves_and_partitions(
        universe in 64u128..1_000_000,
        k_frac in 0.0f64..=1.0,
        blocks_exp in 1u32..6,
        seed in any::<u64>(),
    ) {
        let blocks = 1u64 << blocks_exp;
        let k = ((universe as f64) * k_frac) as u64;
        let s = DistributedSampler::new(universe, k, blocks, seed);
        let mut total = 0u64;
        s.for_block_counts(0, blocks, &mut |_, c| total += c);
        prop_assert_eq!(total, k);
        // Samples of consecutive blocks form a strictly increasing stream.
        let mut prev: Option<u128> = None;
        let mut count = 0u64;
        s.sample_range(0, blocks, &mut |x| {
            if let Some(q) = prev {
                assert!(x > q);
            }
            prev = Some(x);
            count += 1;
        });
        prop_assert_eq!(count, k);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn gnm_directed_instance_valid(
        n in 2u64..300,
        m_frac in 0.0f64..=1.0,
        seed in any::<u64>(),
        chunks in 1usize..24,
    ) {
        let universe = n * (n - 1);
        let m = ((universe as f64) * m_frac) as u64;
        let gen = GnmDirected::new(n, m).with_seed(seed).with_chunks(chunks);
        let el = generate_directed(&gen);
        prop_assert_eq!(el.edges.len() as u64, m);
        prop_assert!(!el.has_self_loops());
        prop_assert!(!el.has_out_of_range());
        let mut dedup = el.edges.clone();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), el.edges.len());
    }

    #[test]
    fn gnm_undirected_instance_valid(
        n in 2u64..300,
        m_frac in 0.0f64..=1.0,
        seed in any::<u64>(),
        chunks in 1usize..16,
    ) {
        let universe = n * (n - 1) / 2;
        let m = ((universe as f64) * m_frac) as u64;
        let gen = GnmUndirected::new(n, m).with_seed(seed).with_chunks(chunks);
        let el = generate_undirected(&gen);
        prop_assert_eq!(el.edges.len() as u64, m);
        prop_assert!(!el.has_self_loops());
        prop_assert!(!el.has_out_of_range());
    }

    #[test]
    fn rgg_edges_respect_radius(
        n in 10u64..400,
        r in 0.01f64..0.5,
        seed in any::<u64>(),
        chunks in 1usize..32,
    ) {
        let gen = Rgg2d::new(n, r).with_seed(seed).with_chunks(chunks);
        let parts = generate_parallel(&gen, 0);
        let mut coords = std::collections::HashMap::new();
        for p in &parts {
            for &(id, c) in &p.coords2 {
                coords.insert(id, c);
            }
        }
        prop_assert_eq!(coords.len() as u64, n);
        for p in &parts {
            for &(u, v) in &p.edges {
                let (a, b) = (coords[&u], coords[&v]);
                let d2 = (a[0]-b[0]).powi(2) + (a[1]-b[1]).powi(2);
                prop_assert!(d2 <= r * r + 1e-12);
            }
        }
    }

    #[test]
    fn ba_edges_point_backwards(
        n in 2u64..2000,
        d in 1u64..8,
        seed in any::<u64>(),
        chunks in 1usize..16,
    ) {
        let gen = BarabasiAlbert::new(n, d).with_seed(seed).with_chunks(chunks);
        let el = generate_directed(&gen);
        prop_assert_eq!(el.edges.len() as u64, n * d);
        for &(u, v) in &el.edges {
            prop_assert!(v <= u);
            prop_assert!(u < n);
        }
    }

    #[test]
    fn rmat_edges_in_range(
        scale in 2u32..12,
        m in 1u64..5000,
        seed in any::<u64>(),
    ) {
        let gen = Rmat::new(scale, m).with_seed(seed).with_chunks(4);
        let el = generate_directed(&gen);
        prop_assert_eq!(el.edges.len() as u64, m);
        prop_assert!(!el.has_out_of_range());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn rhg_instance_chunk_invariant(
        n in 50u64..400,
        deg in 4.0f64..12.0,
        gamma in 2.2f64..3.5,
        seed in any::<u64>(),
    ) {
        let a = generate_undirected(&Rhg::new(n, deg, gamma).with_seed(seed).with_chunks(1));
        let b = generate_undirected(&Rhg::new(n, deg, gamma).with_seed(seed).with_chunks(7));
        prop_assert_eq!(a, b);
    }

    #[test]
    fn rdg_chunk_invariant(n in 20u64..300, seed in any::<u64>()) {
        let a = generate_undirected(&Rdg2d::new(n).with_seed(seed).with_chunks(1));
        let b = generate_undirected(&Rdg2d::new(n).with_seed(seed).with_chunks(4));
        prop_assert_eq!(a, b);
    }

    #[test]
    fn delaunay_empty_circle_property(seed in any::<u64>(), spread in 1u32..12) {
        use kagen_repro::delaunay::{incircle2, Delaunay2, Sign};
        let mut rng = Mt64::new(seed);
        let uniform: Vec<[f64; 2]> = (0..60).map(|_| [rng.next_f64(), rng.next_f64()]).collect();
        // The same sample with half of it squeezed into a cluster
        // 10^-spread wide, and squeezed towards the line y = x / 3 (where
        // circumcircles outgrow the super-triangle and finite triangles
        // get few; the ones that remain must still be empty).
        let eps = 10f64.powi(-(spread as i32));
        let mut clustered = uniform.clone();
        for p in clustered.iter_mut().take(30) {
            *p = [0.5 + p[0] * eps, 0.5 + p[1] * eps];
        }
        let near_collinear = uniform.iter().map(|p| [p[0], p[0] / 3.0 + p[1] * eps]).collect();
        for (shape, pts) in [uniform, clustered, near_collinear].into_iter().enumerate() {
            let dt = Delaunay2::new(&pts);
            prop_assert!(shape == 2 || dt.triangles().len() > 60);
            for t in dt.triangles() {
                for (i, p) in pts.iter().enumerate() {
                    if t.contains(&(i as u32)) {
                        continue;
                    }
                    prop_assert!(incircle2(
                        pts[t[0] as usize],
                        pts[t[1] as usize],
                        pts[t[2] as usize],
                        *p
                    ) != Sign::Positive);
                }
            }
        }
    }
}

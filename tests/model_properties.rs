//! Statistical validation: generated graphs must match their models'
//! published properties (degree laws, edge-count expectations, structure).

use kagen_repro::core::prelude::*;
use kagen_repro::core::rdg::Rdg;
use kagen_repro::graph::stats::{global_clustering, DegreeStats};
use kagen_repro::stats::{chi_square, chi_square_critical_001, power_law_alpha};

#[test]
fn gnp_degree_distribution_is_binomial() {
    // Out-degrees of directed G(n,p) are Binomial(n-1, p): chi-square GOF.
    let n = 3000u64;
    let p = 0.004;
    let el = generate_directed(&GnpDirected::new(n, p).with_seed(3).with_chunks(8));
    let degrees = el.out_degrees();
    let max_d = 40usize;
    let mut observed = vec![0u64; max_d + 1];
    for &d in &degrees {
        observed[(d as usize).min(max_d)] += 1;
    }
    // Binomial pmf via recurrence.
    let nn = (n - 1) as f64;
    let mut pmf = vec![0.0f64; max_d + 1];
    pmf[0] = (1.0 - p).powf(nn);
    for k in 1..=max_d {
        pmf[k] = pmf[k - 1] * ((nn - k as f64 + 1.0) / k as f64) * (p / (1.0 - p));
    }
    let tail: f64 = 1.0 - pmf.iter().sum::<f64>();
    pmf[max_d] += tail.max(0.0);
    let expected: Vec<f64> = pmf.iter().map(|q| q * n as f64).collect();
    let stat = chi_square(&observed, &expected);
    let crit = chi_square_critical_001(max_d);
    assert!(stat < crit, "chi2 {stat} >= {crit}");
}

#[test]
fn gnm_edge_count_exact_and_uniform_density() {
    let n = 2000u64;
    let m = 30_000u64;
    let el = generate_undirected(&GnmUndirected::new(n, m).with_seed(5).with_chunks(16));
    assert_eq!(el.edges.len() as u64, m);
    // Density must be uniform across the vertex space: compare edge mass
    // in the four quadrant blocks of the adjacency matrix.
    let half = n / 2;
    let mut blocks = [0u64; 3]; // low-low, cross, high-high
    for &(u, v) in &el.edges {
        match ((u < half) as u8) + ((v < half) as u8) {
            2 => blocks[0] += 1,
            1 => blocks[1] += 1,
            _ => blocks[2] += 1,
        }
    }
    // Expected proportions: within-half pairs are each C(half,2)/C(n,2) ≈ 1/4,
    // cross pairs ≈ 1/2.
    let total = m as f64;
    assert!((blocks[0] as f64 / total - 0.25).abs() < 0.02, "{blocks:?}");
    assert!((blocks[1] as f64 / total - 0.50).abs() < 0.02, "{blocks:?}");
    assert!((blocks[2] as f64 / total - 0.25).abs() < 0.02, "{blocks:?}");
}

#[test]
fn rgg_edge_count_matches_geometry() {
    // E[m] = C(n,2)·(area of r-ball ∩ unit square) ≈ n²πr²/2 for small r.
    let n = 5000u64;
    let r = 0.015;
    let el = generate_undirected(&Rgg2d::new(n, r).with_seed(7).with_chunks(16));
    let expect = (n * (n - 1)) as f64 / 2.0 * std::f64::consts::PI * r * r;
    let got = el.edges.len() as f64;
    // Boundary deficit reduces the count slightly; it must stay within
    // the interior approximation band.
    assert!(
        got > 0.9 * expect * (1.0 - 4.0 * r) && got < 1.05 * expect,
        "edges {got} vs interior estimate {expect}"
    );
}

#[test]
fn rgg_clustering_is_geometric() {
    // RGG clustering coefficient ≈ 1 − 3√3/(4π) ≈ 0.5865 independent of r.
    let n = 3000u64;
    let r = Rgg2d::threshold_radius(n, 1) * 1.5;
    let el = generate_undirected(&Rgg2d::new(n, r).with_seed(9).with_chunks(16));
    let c = global_clustering(&el);
    assert!((c - 0.5865).abs() < 0.06, "clustering {c}");
}

#[test]
fn rdg_2d_torus_is_exactly_triangulated() {
    let n = 2000u64;
    let el = generate_undirected(&Rdg2d::new(n).with_seed(11).with_chunks(16));
    assert_eq!(el.edges.len() as u64, 3 * n, "torus: E = 3n");
    let stats = DegreeStats::undirected(&el);
    assert!(stats.min >= 3);
    assert!((stats.mean - 6.0).abs() < 1e-9, "mean degree exactly 6");
}

/// The periodic Delaunay graph of `points` (index = vertex id) by brute
/// force: tile the unit cube (2k+1)^d times, k = 3, triangulate
/// everything at once, keep the edges incident to the central copy and
/// map every endpoint back to its id.
fn tiled_delaunay_reference<const D: usize>(points: &[[f64; D]]) -> Vec<(u64, u64)> {
    const K: i64 = 3;
    let n = points.len();
    // Central copy first, so "index < n" means "in the central copy".
    let mut shifts = vec![[0i64; D]];
    let mut shift = [-K; D];
    'tiles: loop {
        if shift != [0; D] {
            shifts.push(shift);
        }
        for s in shift.iter_mut() {
            *s += 1;
            if *s <= K {
                continue 'tiles;
            }
            *s = -K;
        }
        break;
    }
    assert_eq!(shifts.len(), (2 * K as usize + 1).pow(D as u32));
    let tiled = shifts.iter().flat_map(|shift| {
        points
            .iter()
            .map(move |p| std::array::from_fn::<f64, D, _>(|i| p[i] + shift[i] as f64))
    });
    let edges = match D {
        2 => {
            let pts: Vec<[f64; 2]> = tiled.map(|p| [p[0], p[1]]).collect();
            kagen_repro::delaunay::Delaunay2::new(&pts).edges()
        }
        3 => {
            let pts: Vec<[f64; 3]> = tiled.map(|p| [p[0], p[1], p[2]]).collect();
            kagen_repro::delaunay::Delaunay3::new(&pts).edges()
        }
        _ => unreachable!(),
    };
    let mut reference: Vec<(u64, u64)> = edges
        .into_iter()
        .filter(|&(a, _)| (a as usize) < n) // a < b
        .map(|(a, b)| ((a as usize % n) as u64, (b as usize % n) as u64))
        .filter(|(x, y)| x != y)
        .map(|(x, y)| (x.min(y), x.max(y)))
        .collect();
    reference.sort_unstable();
    reference.dedup();
    reference
}

/// Small RDG instances — down to the CLI minimum, where the halo has to
/// wrap the torus several times — against the brute-force reference, on
/// one chunk and on as many as the grid allows.
fn rdg_corners_match_reference<const D: usize>(sizes: &[u64]) {
    for &n in sizes {
        for seed in 1..=5 {
            let mut reference = None;
            for chunks in [1usize, 1 << 12] {
                let gen = Rdg::<D>::new(n).with_seed(seed).with_chunks(chunks);
                let parts = generate_parallel(&gen, 1);
                let mut points = vec![[f64::NAN; D]; n as usize];
                for part in &parts {
                    for &(id, c) in &part.coords2 {
                        points[id as usize] = std::array::from_fn(|i| c[i]);
                    }
                    for &(id, c) in &part.coords3 {
                        points[id as usize] = std::array::from_fn(|i| c[i]);
                    }
                }
                let reference = reference.get_or_insert_with(|| tiled_delaunay_reference(&points));
                let label = format!("rdg{D}d n={n} seed={seed} chunks={}", gen.num_chunks());
                assert_eq!(&generate_undirected(&gen).edges, reference, "{label}");
                // The streamed instance is the same one.
                let mut streamed = Vec::new();
                gen.stream_all_batched(&mut Vec::new(), &mut |e| {
                    streamed.extend(e.iter().map(|&(u, v)| (u.min(v), u.max(v))))
                });
                streamed.sort_unstable();
                streamed.dedup();
                assert_eq!(&streamed, reference, "{label} (streamed)");
            }
        }
    }
}

#[test]
fn rdg_2d_corners_match_tiled_delaunay() {
    rdg_corners_match_reference::<2>(&[4, 5, 8, 12, 16, 24]);
}

#[test]
fn rdg_3d_corners_match_tiled_delaunay() {
    rdg_corners_match_reference::<3>(&[5, 8, 32, 64]);
}

#[test]
fn rdg_3d_degree_matches_poisson_delaunay() {
    let n = 1500u64;
    let el = generate_undirected(&Rdg3d::new(n).with_seed(13).with_chunks(8));
    let stats = DegreeStats::undirected(&el);
    // 2 + 48π²/35 ≈ 15.54 for Poisson–Delaunay in R³ (periodic = no
    // boundary effects).
    assert!(
        (stats.mean - 15.54).abs() < 0.8,
        "3D mean degree {} vs 15.54",
        stats.mean
    );
}

#[test]
fn rhg_degree_distribution_power_law() {
    let n = 30_000u64;
    for &gamma in &[2.4f64, 3.0] {
        let el = generate_undirected(&Rhg::new(n, 10.0, gamma).with_seed(17).with_chunks(8));
        let degrees = el.degrees_undirected();
        let alpha = power_law_alpha(&degrees, 12).expect("tail large enough");
        assert!(
            (alpha - gamma).abs() < 0.5,
            "γ target {gamma}, estimated {alpha}"
        );
    }
}

#[test]
fn rhg_average_degree_controlled() {
    // d̄ rises with the parameter; Eq. 2 has o(1) slack at finite n, so
    // check monotonic control rather than tight equality.
    let n = 10_000u64;
    let d4 = generate_undirected(&Rhg::new(n, 4.0, 2.8).with_seed(19).with_chunks(8));
    let d16 = generate_undirected(&Rhg::new(n, 16.0, 2.8).with_seed(19).with_chunks(8));
    let a4 = 2.0 * d4.edges.len() as f64 / n as f64;
    let a16 = 2.0 * d16.edges.len() as f64 / n as f64;
    assert!(
        a16 > 2.5 * a4,
        "degree parameter has too little effect: {a4} vs {a16}"
    );
    assert!(a4 > 1.0 && a4 < 16.0, "d̄=4 produced average {a4}");
    assert!(a16 > 6.0 && a16 < 64.0, "d̄=16 produced average {a16}");
}

#[test]
fn rhg_has_giant_clique_core() {
    // All vertices with r ≤ R/2 are pairwise adjacent.
    let gen = Rhg::new(5_000, 12.0, 2.5).with_seed(21).with_chunks(4);
    let el = generate_undirected(&gen);
    let inst = gen.instance();
    let mut core: Vec<u64> = Vec::new();
    for i in 0..inst.num_annuli() {
        for c in 0..inst.ann_cells[i] {
            for p in inst.cell_points(i, c) {
                if p.r <= inst.space.clique_radius() {
                    core.push(p.id);
                }
            }
        }
    }
    assert!(core.len() >= 2, "degenerate test: no clique core");
    let edge_set: std::collections::HashSet<(u64, u64)> = el.edges.iter().copied().collect();
    for i in 0..core.len() {
        for j in (i + 1)..core.len() {
            let e = (core[i].min(core[j]), core[i].max(core[j]));
            assert!(edge_set.contains(&e), "clique pair {e:?} missing");
        }
    }
}

#[test]
fn ba_recovers_preferential_attachment_exponent() {
    // BA in-degree tail has exponent 3.
    let el = generate_directed(&BarabasiAlbert::new(60_000, 4).with_seed(23).with_chunks(8));
    let mut deg = vec![0u64; 60_000];
    for &(u, v) in &el.edges {
        deg[u as usize] += 1;
        deg[v as usize] += 1;
    }
    let alpha = power_law_alpha(&deg, 16).expect("tail");
    assert!((alpha - 3.0).abs() < 0.5, "BA exponent {alpha} vs 3");
}

#[test]
fn rmat_block_mass_matches_probabilities() {
    // First-level quadrant masses must be ≈ (a, b, c, d).
    let (a, b, c) = (0.45, 0.25, 0.2);
    let el = generate_directed(
        &Rmat::with_probabilities(12, 100_000, a, b, c)
            .with_seed(25)
            .with_chunks(8),
    );
    let half = 1u64 << 11;
    let mut q = [0u64; 4];
    for &(u, v) in &el.edges {
        q[(((u >= half) as usize) << 1) | ((v >= half) as usize)] += 1;
    }
    let t = el.edges.len() as f64;
    assert!((q[0] as f64 / t - a).abs() < 0.01);
    assert!((q[1] as f64 / t - b).abs() < 0.01);
    assert!((q[2] as f64 / t - c).abs() < 0.01);
    assert!((q[3] as f64 / t - (1.0 - a - b - c)).abs() < 0.01);
}

#[test]
fn soft_rhg_preserves_power_law_and_melts_clustering() {
    // For T < 1 the soft model keeps the threshold model's degree
    // exponent γ = 2α + 1 while temperature lowers clustering (the model's
    // selling point: clustering becomes tunable independently of γ).
    let n = 20_000u64;
    let gamma = 2.6;
    let hard = generate_undirected(&Rhg::new(n, 10.0, gamma).with_seed(29).with_chunks(8));
    let soft = generate_undirected(
        &SoftRhg::new(n, 10.0, gamma, 0.7)
            .with_seed(29)
            .with_chunks(8),
    );
    let alpha = power_law_alpha(&soft.degrees_undirected(), 12).expect("tail large enough");
    assert!(
        (alpha - gamma).abs() < 0.6,
        "soft RHG exponent {alpha} strayed from γ = {gamma}"
    );
    let c_hard = global_clustering(&hard);
    let c_soft = global_clustering(&soft);
    assert!(
        c_soft < 0.75 * c_hard,
        "T=0.7 should melt clustering: {c_soft} vs threshold {c_hard}"
    );
    assert!(c_soft > 0.0, "soft model must retain some clustering");
}

#[test]
fn soft_rhg_truncation_error_negligible() {
    // Tightening ε below the default must not change the instance (the
    // dropped pairs all have connection probability < ε).
    let strict = generate_undirected(
        &SoftRhg::new(2_000, 8.0, 2.8, 0.5)
            .with_truncation(1e-12)
            .with_seed(31)
            .with_chunks(4),
    );
    let default = generate_undirected(
        &SoftRhg::new(2_000, 8.0, 2.8, 0.5)
            .with_seed(31)
            .with_chunks(4),
    );
    assert_eq!(strict, default, "ε=1e-9 truncation altered the instance");
}

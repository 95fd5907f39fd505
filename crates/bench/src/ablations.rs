//! Ablations of the design choices: precomputed trigonometry, cell
//! sizes, chunk counts.

use crate::support::*;
use kagen_core::rhg::common::RhgInstance;
use kagen_core::{generate_parallel, GnmUndirected, Rgg2d};
use kagen_geometry::hyperbolic::PrePoint;

/// §7.2.1 "adjacency tests without trigonometric functions": measure the
/// Eq. 9 precomputed test against the direct Eq. 4 evaluation on the same
/// point sample.
pub fn trig_free(fast: bool) -> String {
    let n: u64 = if fast { 1 << 12 } else { 1 << 14 };
    let inst = RhgInstance::new(n, 16.0, 3.0, 27);
    let mut pts: Vec<PrePoint> = Vec::new();
    for i in 0..inst.num_annuli() {
        for c in 0..inst.ann_cells[i] {
            pts.extend(inst.cell_points(i, c));
        }
    }
    let cosh_r = inst.space.cosh_r;
    let r_max = inst.space.r_max;
    let sample: Vec<(usize, usize)> = (0..if fast { 2_000_000 } else { 8_000_000 })
        .map(|k| {
            let a = (k * 2654435761) % pts.len();
            let b = (k * 40503 + 7) % pts.len();
            (a, b)
        })
        .collect();

    let (count_fast, t_fast) = time_once(|| {
        let mut c = 0u64;
        for &(a, b) in &sample {
            c += pts[a].is_adjacent(&pts[b], cosh_r) as u64;
        }
        c
    });
    let (count_trig, t_trig) = time_once(|| {
        let mut c = 0u64;
        for &(a, b) in &sample {
            let (p, q) = (&pts[a], &pts[b]);
            let arg = p.r.cosh() * q.r.cosh() - p.r.sinh() * q.r.sinh() * (p.theta - q.theta).cos();
            c += ((arg.max(1.0)).acosh() < r_max) as u64;
        }
        c
    });
    assert_eq!(count_fast, count_trig, "the two tests must agree");

    let rows = vec![vec![
        sample.len().to_string(),
        ms(t_fast),
        ms(t_trig),
        format!(
            "{:.1}x",
            t_trig.as_secs_f64() / t_fast.as_secs_f64().max(1e-9)
        ),
    ]];
    report(
        "abl-trig",
        "trig-free adjacency tests (Eq. 9 vs Eq. 4)",
        "The precomputed form needs 5 multiplications and 2 additions per \
         test; the naive form evaluates cosh/sinh/cos/acosh — the paper \
         reports early versions were dominated by exactly this.",
        format_table(
            "Adjacency test ablation",
            &["tests", "Eq. 9 ms", "Eq. 4 ms", "speedup"],
            &rows,
        ),
    )
}

/// sRHG's per-cell batch processing vs HyperGen-style per-event priority
/// queue (§7.2.1 batch processing) — end-to-end generator comparison.
pub fn cell_batching(fast: bool) -> String {
    use kagen_baselines::hypergen_edges;
    use kagen_core::Srhg;
    let n_exps: Vec<u32> = if fast { vec![11] } else { vec![13, 15] };
    let mut rows = Vec::new();
    for &ne in &n_exps {
        let n = 1u64 << ne;
        let gen = Srhg::new(n, 16.0, 3.0).with_seed(29).with_chunks(1);
        let srhg = run_generator(&gen);
        let (edges, t_pq) = time_once(|| hypergen_edges(&gen.instance()));
        rows.push(vec![
            format!("2^{ne}"),
            edges.len().to_string(),
            ms(srhg.time),
            ms(t_pq),
            format!(
                "{:.1}x",
                t_pq.as_secs_f64() / srhg.time.as_secs_f64().max(1e-9)
            ),
        ]);
    }
    report(
        "abl-cells",
        "sweep batch processing (cells) vs per-event priority queue",
        "Batching insertions/expiries per cell amortizes state maintenance \
         and keeps candidate scans contiguous; the per-event heap pays a \
         log factor plus cache misses per node.",
        format_table(
            "Sweep-state ablation (identical output verified in tests)",
            &["n", "edges", "sRHG batched ms", "per-event pq ms", "ratio"],
            &rows,
        ),
    )
}

/// §9 future work: the composed-table R-MAT against the plain per-level
/// generator.
pub fn rmat_tables(fast: bool) -> String {
    use kagen_core::{Rmat, RmatKernel};
    let m: u64 = if fast { 1 << 18 } else { 1 << 21 };
    let scale = 24u32;
    let mut rows = Vec::new();
    for levels in [0u32, 4, 8] {
        let gen = Rmat::new(scale, m)
            .with_seed(33)
            .with_chunks(1)
            .with_kernel(if levels == 0 {
                RmatKernel::Plain
            } else {
                RmatKernel::Linear { levels }
            });
        let stats = run_generator(&gen);
        rows.push(vec![
            if levels == 0 {
                "per-level".into()
            } else {
                format!("table({levels})")
            },
            ms(stats.time),
            meps(stats.edges, stats.time),
        ]);
    }
    report(
        "abl-rmat",
        "R-MAT descent tables (§9 extension)",
        "Collapsing k recursion levels into one alias-table draw divides \
         the per-edge variate count by k; with scale 24 and 8-level tables \
         the descent needs 3 draws instead of 24.",
        format_table(
            "R-MAT acceleration (m edges, scale 24)",
            &["variant", "time ms", "MEPS"],
            &rows,
        ),
    )
}

/// Redundancy overhead: undirected G(n,m) chunk duplication (§4.2 bound:
/// ≤ 2m) and RGG halo recomputation share as the chunk count grows.
pub fn redundancy(fast: bool) -> String {
    let mut rows = Vec::new();
    let m: u64 = if fast { 1 << 16 } else { 1 << 20 };
    let n = m / 16;
    for p in [1usize, 2, 4, 8, 16, 32] {
        let gen = GnmUndirected::new(n, m).with_seed(31).with_chunks(p);
        let parts = generate_parallel(&gen, 0);
        let emitted: u64 = parts.iter().map(|q| q.edges.len() as u64).sum();
        let rgg_n = if fast { 1 << 12 } else { 1 << 16 };
        let r = Rgg2d::threshold_radius(rgg_n, p as u64);
        let rgg = Rgg2d::new(rgg_n, r).with_seed(31).with_chunks(p);
        let rgg_parts = generate_parallel(&rgg, 0);
        let rgg_emitted: u64 = rgg_parts.iter().map(|q| q.edges.len() as u64).sum();
        let rgg_edges = kagen_graph::merge_pe_edges(rgg_n, rgg_parts.into_iter().map(|q| q.edges))
            .edges
            .len() as u64;
        rows.push(vec![
            p.to_string(),
            format!("{:.3}", emitted as f64 / m as f64),
            format!("{:.3}", rgg_emitted as f64 / rgg_edges as f64),
        ]);
    }
    report(
        "abl-chunks",
        "recomputation overhead vs chunk count",
        "Undirected G(n,m): edges emitted across PEs divided by m grows \
         from 1.0 (P=1) towards the §4.2 bound of 2.0 (all chunks \
         off-diagonal). RGG: emitted/unique edges grows with the \
         surface-to-volume ratio of chunks but stays a small constant.",
        format_table(
            "Redundancy (emitted / unique edges)",
            &["P", "G(n,m) undirected", "RGG 2D"],
            &rows,
        ),
    )
}

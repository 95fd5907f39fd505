//! Empirical checks of the paper's analytical claims (Lemmas/Corollaries
//! of §7) plus the sRHG memory-footprint comparison its design argues for.
//!
//! These are not figures in the paper's evaluation, but they are the load-
//! bearing analysis behind the RHG generators: if they failed to hold in
//! this reimplementation, the reproduction of Figs. 14–16 would be
//! coincidental.

use crate::support::*;
use kagen_core::rhg::common::RhgInstance;
use kagen_core::{Rhg, Srhg};
use kagen_geometry::hyperbolic::PrePoint;

/// Corollary 11: with annulus height ⌊ln 2 / α⌋ the candidate selection
/// overestimates the true query mass by at most √e ≈ 1.64 per annulus.
/// We measure candidates-tested / edges-found per query pass, which the
/// corollary (plus the Θ(1) fraction of in-range candidates of Lemma 13)
/// bounds by a small constant.
#[allow(clippy::needless_range_loop)] // annulus indices drive three arrays
pub fn overestimation(fast: bool) -> String {
    let n: u64 = if fast { 1 << 12 } else { 1 << 14 };
    let mut rows = Vec::new();
    for &gamma in &[2.2f64, 2.6, 3.0] {
        let inst = RhgInstance::new(n, 8.0, gamma, 41);
        let cosh_r = inst.space.cosh_r;
        // All points, bucketed by cell, as the generator stores them.
        let mut cells: Vec<Vec<Vec<PrePoint>>> = Vec::new();
        for a in 0..inst.num_annuli() {
            let mut per: Vec<Vec<PrePoint>> = Vec::new();
            for c in 0..inst.ann_cells[a] {
                per.push(inst.cell_points(a, c));
            }
            cells.push(per);
        }
        let mut candidates = 0u64;
        let mut edges = 0u64;
        // Outward queries from every point (the sequential algorithm of
        // Lemma 13: only annuli at or above the query's own).
        for a in 0..inst.num_annuli() {
            for cl in &cells[a] {
                for v in cl {
                    for j in a..inst.num_annuli() {
                        if inst.ann_counts[j] == 0 {
                            continue;
                        }
                        let b = inst.space.bounds[j].max(1e-12);
                        let dt = inst.space.delta_theta(v.r, b);
                        let mut cand_cells = Vec::new();
                        inst.cells_overlapping(j, v.theta - dt, v.theta + dt, &mut |c| {
                            cand_cells.push(c)
                        });
                        for c in cand_cells {
                            for u in &cells[j][c as usize] {
                                if u.id == v.id {
                                    continue;
                                }
                                candidates += 1;
                                edges += v.is_adjacent(u, cosh_r) as u64;
                            }
                        }
                    }
                }
            }
        }
        rows.push(vec![
            format!("{gamma}"),
            candidates.to_string(),
            edges.to_string(),
            format!("{:.2}", candidates as f64 / edges.max(1) as f64),
        ]);
    }
    report(
        "lemma-oe",
        "candidate-selection overestimation (Cor. 11)",
        "Per annulus the angular window overestimates the query circle's \
         mass by ≤ √e ≈ 1.64 for any α > 1/2; across annuli plus cell \
         granularity the tested/adjacent ratio stays a small constant \
         (single digits), which is what makes the query phase O(m).",
        format_table(
            "Candidates tested vs edges found (outward queries)",
            &["γ", "candidates", "edges", "ratio"],
            &rows,
        ),
    )
}

/// Lemma 15: the points living in the *global annuli* (those whose widest
/// request exceeds a chunk width 2π/P) number O(n^{1−α}·(P·d̄)^α) in
/// expectation — sublinear in n, polynomial in P.
pub fn global_annuli(fast: bool) -> String {
    let n: u64 = if fast { 1 << 14 } else { 1 << 16 };
    let d = 8.0;
    let mut rows = Vec::new();
    for &gamma in &[2.4f64, 3.0] {
        let alpha = (gamma - 1.0) / 2.0;
        let inst = RhgInstance::new(n, d, gamma, 17);
        for p in [2usize, 8, 32, 128] {
            let width = std::f64::consts::TAU / p as f64;
            // Global annuli: the widest own-annulus request of a point at
            // the annulus' lower bound exceeds a chunk width (§7.2).
            let mut global_points = 0u64;
            for i in 0..inst.num_annuli() {
                let b = inst.space.bounds[i].max(1e-12);
                if 2.0 * inst.space.delta_theta(b, b) > width {
                    global_points += inst.ann_counts[i];
                }
            }
            let formula = (n as f64).powf(1.0 - alpha) * (p as f64 * d).powf(alpha);
            rows.push(vec![
                format!("{gamma}"),
                p.to_string(),
                global_points.to_string(),
                format!("{formula:.0}"),
                format!("{:.2}", global_points as f64 / formula),
            ]);
        }
    }
    report(
        "lemma-global",
        "global-annuli point count (Lemma 15)",
        "E[n_G(P)] = O(n^{1−α}(P·d̄)^α): the replicated inner region grows \
         only polynomially with P and sublinearly with n; the measured/\
         formula ratio must stay bounded (annulus quantization makes it \
         step-shaped, not smooth).",
        format_table(
            "Points in global annuli",
            &["γ", "P", "measured", "n^{1−α}(Pd̄)^α", "ratio"],
            &rows,
        ),
    )
}

/// The sRHG memory argument (§7.2/§8.6): per PE, the streaming generator
/// generates (and must hold) far fewer points than the query-centric RHG,
/// whose inward searches recompute cells across the whole disk. The paper
/// reports ~16× larger instances fitting in memory.
pub fn memory_footprint(fast: bool) -> String {
    let n: u64 = if fast { 1 << 13 } else { 1 << 15 };
    let mut rows = Vec::new();
    for p in [4usize, 16, 64] {
        let rhg = Rhg::new(n, 8.0, 2.8).with_seed(23).with_chunks(p);
        let srhg = Srhg::new(n, 8.0, 2.8).with_seed(23).with_chunks(p);
        // RHG must *hold* every point it generates (locals + every cell a
        // query reaches) for the duration of its queries.
        let rhg_max = (0..p)
            .map(|pe| rhg.stream_query(pe, &mut |_, _| {}).points_held)
            .max()
            .unwrap_or(0);
        // sRHG generates a similar number of points but only *holds* the
        // sweep state: replicated globals + the active-request windows.
        let (mut srhg_gen, mut srhg_live) = (0u64, 0u64);
        for pe in 0..p {
            let s = srhg.generate_pe_stats(pe).1;
            srhg_gen = srhg_gen.max(s.generated_points);
            srhg_live = srhg_live.max(s.peak_state);
        }
        rows.push(vec![
            p.to_string(),
            format!("{:.0}", n as f64 / p as f64),
            rhg_max.to_string(),
            srhg_gen.to_string(),
            srhg_live.to_string(),
            format!("{:.1}x", rhg_max as f64 / srhg_live.max(1) as f64),
        ]);
    }
    report(
        "abl-mem",
        "per-PE held state: RHG vs sRHG (§7.2 memory argument)",
        "The query-centric generator holds every point it generates (its \
         sector plus every recomputed cell) until its queries finish. The \
         streaming generator touches a comparable number of points but \
         holds only the replicated global annuli plus the sweep's active- \
         request windows — that gap is why the paper reports fitting ~16× \
         larger instances per node with sRHG.",
        format_table(
            "Per-PE maxima (n vertices, d̄=8, γ=2.8)",
            &[
                "P",
                "n/P",
                "RHG held",
                "sRHG generated",
                "sRHG held",
                "held ratio",
            ],
            &rows,
        ),
    )
}

/// The simulated-GPGPU pipelines (§4.3.1, §5.3): same instances as the CPU
/// generators, with the accelerator cost counters.
pub fn gpu_pipelines(fast: bool) -> String {
    use kagen_core::{generate_directed, generate_undirected, GnmDirected, Rgg2d};
    use kagen_gpgpu::{Device, GpuGnmDirected, GpuRgg2d};

    let mut rows = Vec::new();

    let (n, m) = if fast {
        (1u64 << 14, 1u64 << 18)
    } else {
        (1u64 << 16, 1u64 << 21)
    };
    let dev = Device::default();
    let (gpu_edges, t_gpu) =
        time_once(|| GpuGnmDirected::new(n, m).with_seed(51).generate(&dev).len() as u64);
    let (cpu_edges, t_cpu) = time_once(|| {
        generate_directed(&GnmDirected::new(n, m).with_seed(51))
            .edges
            .len() as u64
    });
    assert_eq!(gpu_edges, cpu_edges);
    let s = dev.stats();
    rows.push(vec![
        format!("G(n,m) n=2^{}", n.trailing_zeros()),
        gpu_edges.to_string(),
        ms(t_cpu),
        ms(t_gpu),
        s.blocks_executed.to_string(),
        s.warp_steps.to_string(),
        format!(
            "{:.1}%",
            100.0 * s.divergent_warps as f64 / s.warp_steps.max(1) as f64
        ),
    ]);

    let rgg_n: u64 = if fast { 1 << 12 } else { 1 << 14 };
    let r = Rgg2d::threshold_radius(rgg_n, 1);
    let dev = Device::default();
    let (gpu_edges, t_gpu) =
        time_once(|| GpuRgg2d::new(rgg_n, r).with_seed(51).generate(&dev).len() as u64);
    let (cpu_edges, t_cpu) = time_once(|| {
        generate_undirected(&Rgg2d::new(rgg_n, r).with_seed(51))
            .edges
            .len() as u64
    });
    assert_eq!(gpu_edges, cpu_edges);
    let s = dev.stats();
    rows.push(vec![
        format!("RGG2D n=2^{}", rgg_n.trailing_zeros()),
        gpu_edges.to_string(),
        ms(t_cpu),
        ms(t_gpu),
        s.blocks_executed.to_string(),
        s.warp_steps.to_string(),
        format!(
            "{:.1}%",
            100.0 * s.divergent_warps as f64 / s.warp_steps.max(1) as f64
        ),
    ]);

    report(
        "abl-gpu",
        "simulated GPGPU pipelines (§4.3.1, §5.3)",
        "Output is bit-identical to the CPU generators (asserted here and \
         in tests). The counters show the accelerator shape: ER is one \
         sampling kernel with no divergence; RGG runs the three-step \
         count/scan/fill pipeline whose distance tests diverge within \
         warps. Simulation timings carry no GPU speedup — the point is \
         the decomposition, not the silicon.",
        format_table(
            "CPU vs simulated-device generation (identical output)",
            &[
                "instance",
                "edges",
                "CPU ms",
                "sim ms",
                "blocks",
                "warp steps",
                "divergent",
            ],
            &rows,
        ),
    )
}

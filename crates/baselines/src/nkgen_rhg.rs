//! NkGen-style RHG generation (von Looz et al. \[31\]).
//!
//! Query-centric like `Rhg`, but with the cost profile of the NetworKit
//! generator the paper measured: *live trigonometry* in every candidate
//! test (cosh/sinh/cos evaluated per comparison, no precomputation) and
//! binary searches over per-annulus θ-sorted point arrays (unstructured
//! memory access instead of cell-bucketed scans). Fig. 14's slowest
//! series.

use kagen_core::rhg::common::RhgInstance;
use kagen_runtime::run_chunks;

/// Plain polar point (no precomputed adjacency terms — that is the point).
#[derive(Clone, Copy)]
struct Pt {
    r: f64,
    theta: f64,
    id: u64,
}

/// Generate the full edge list of the instance with `threads` workers.
/// Returns canonical undirected edges.
pub fn nkgen_edges(inst: &RhgInstance, threads: usize) -> Vec<(u64, u64)> {
    // Materialize all annuli, θ-sorted (NkGen keeps points sorted per band).
    let annuli: Vec<Vec<Pt>> = (0..inst.num_annuli())
        .map(|i| {
            let mut v: Vec<Pt> = (0..inst.ann_cells[i])
                .flat_map(|c| inst.cell_points(i, c))
                .map(|p| Pt {
                    r: p.r,
                    theta: p.theta,
                    id: p.id,
                })
                .collect();
            v.sort_by(|a, b| a.theta.total_cmp(&b.theta));
            v
        })
        .collect();
    let r_max = inst.space.r_max;
    let tau = std::f64::consts::TAU;

    // Live-trig hyperbolic distance test (Eq. 4, no precomputation).
    let adjacent = |p: &Pt, q: &Pt| -> bool {
        let arg = p.r.cosh() * q.r.cosh() - p.r.sinh() * q.r.sinh() * (p.theta - q.theta).cos();
        arg.max(1.0).acosh() < r_max
    };

    let all: Vec<Pt> = annuli.iter().flatten().copied().collect();
    let mut edges: Vec<(u64, u64)> = run_chunks(all.len(), threads.max(1), |i| {
        let v = &all[i];
        let mut out = Vec::new();
        for (j, band) in annuli.iter().enumerate() {
            if band.is_empty() {
                continue;
            }
            // Live-trig angular bound (recomputed per query).
            let b = inst.space.bounds[j].max(1e-12);
            let dt = if v.r + b < r_max {
                std::f64::consts::PI
            } else {
                ((v.r.cosh() * b.cosh() - r_max.cosh()) / (v.r.sinh() * b.sinh()))
                    .clamp(-1.0, 1.0)
                    .acos()
            };
            // Binary search the sorted band for the angular window.
            let lo = v.theta - dt;
            let hi = v.theta + dt;
            let mut probe = |from: f64, to: f64| {
                let start = band.partition_point(|p| p.theta < from);
                for p in &band[start..] {
                    if p.theta > to {
                        break;
                    }
                    if p.id > v.id && adjacent(v, p) {
                        out.push((v.id, p.id));
                    }
                }
            };
            if 2.0 * dt >= tau {
                probe(0.0, tau);
            } else {
                if lo < 0.0 {
                    probe(lo + tau, tau);
                    probe(0.0, hi);
                } else if hi > tau {
                    probe(lo, tau);
                    probe(0.0, hi - tau);
                } else {
                    probe(lo, hi);
                }
            }
        }
        out
    })
    .into_iter()
    .flatten()
    .collect();
    edges.sort_unstable();
    edges.dedup();
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use kagen_core::{generate_undirected, Rhg};

    #[test]
    fn matches_kagen_rhg() {
        // Same instance, same threshold model: identical edges.
        let gen = Rhg::new(600, 8.0, 2.8).with_seed(5).with_chunks(4);
        let kagen = generate_undirected(&gen);
        let nk = nkgen_edges(&gen.instance(), 2);
        assert_eq!(kagen.edges, nk);
    }

    #[test]
    fn thread_invariance() {
        let gen = Rhg::new(400, 6.0, 3.0).with_seed(9);
        let a = nkgen_edges(&gen.instance(), 1);
        let b = nkgen_edges(&gen.instance(), 4);
        assert_eq!(a, b);
    }
}

//! The streaming, request-centric RHG generator sRHG (§7.2).
//!
//! sRHG inverts the neighborhood search of [`crate::rhg::Rhg`]: instead of
//! querying, every point *announces* a request interval
//! `[θ − Δθ(r, ℓ_j), θ + Δθ(r, ℓ_j)]` in each annulus `j` at or above its
//! own, and a sweep over each annulus matches nodes against the requests
//! active at their angle. Only points in lower annuli can be neighbors of
//! a node through a request, so requests propagate upward only.
//!
//! Annuli fall into two groups (§7.2):
//! * **global annuli** — the inner annuli whose widest own-annulus request
//!   exceeds a chunk width `2π/P` (including the `r ≤ R/2` clique); their
//!   points are generated redundantly on every PE (pseudorandomness makes
//!   the copies identical) and only their requests that meet the local
//!   sector are kept, so the work of high-degree vertices is spread over
//!   all PEs;
//! * **streaming annuli** — swept locally. A PE generates the streaming
//!   points of its sector extended by one chunk width on each side, which
//!   covers every request that can reach its nodes (the paper's *final
//!   phase* over the adjacent chunk, done symmetrically).
//!
//! The sweep runs in the sector's own linear angular frame `[lo, hi)`:
//! the extended sector `[lo − 2π/P, hi + 2π/P)` is a run of linear cell
//! indices, and a cell that lies a turn below or above the circle's
//! `[0, 2π)` (sector 0's lower extension; at P ≤ 3 the extension spans
//! the whole circle) carries its points' requests shifted by that turn.
//! So a request is one interval, never split at 0, and the live state is
//! the requests near the sweep line at every P. The sweep batches
//! insertion/expiry of requests per angular *cell* (§7.2.1 batch
//! processing). Point generation is shared with `Rhg` through
//! [`crate::rhg::common::RhgInstance`], so for equal seeds the two
//! generators emit the *identical* graph — asserted in tests.

use crate::rhg::common::{CellSource, RhgInstance};
use crate::streaming::{BatchEmit, Batcher};
use crate::{Generator, PeGraph};
use kagen_geometry::hyperbolic::PrePoint;

/// Random hyperbolic graph, streaming generator.
#[derive(Clone, Debug)]
pub struct Srhg {
    n: u64,
    avg_deg: f64,
    gamma: f64,
    seed: u64,
    chunks: usize,
}

/// One active request during the sweep.
#[derive(Clone, Copy, Debug)]
struct Request {
    begin: f64,
    end: f64,
    ann: usize,
    p: PrePoint,
}

impl Srhg {
    /// `n` vertices, target average degree, power-law exponent γ > 2.
    pub fn new(n: u64, avg_deg: f64, gamma: f64) -> Self {
        Srhg {
            n,
            avg_deg,
            gamma,
            seed: 1,
            chunks: 8,
        }
    }

    /// Set the instance seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the number of logical PEs (angular sectors).
    pub fn with_chunks(mut self, chunks: usize) -> Self {
        assert!(chunks >= 1);
        self.chunks = chunks;
        self
    }

    /// Build the shared instance skeleton.
    pub fn instance(&self) -> RhgInstance {
        RhgInstance::new(self.n, self.avg_deg, self.gamma, self.seed)
    }

    /// First streaming annulus: all annuli below it are "global".
    fn first_streaming(inst: &RhgInstance, chunks: usize) -> usize {
        let width = std::f64::consts::TAU / chunks as f64;
        (0..inst.num_annuli())
            .find(|&i| {
                let b = inst.space.bounds[i].max(1e-12);
                2.0 * inst.space.delta_theta(b, b) <= width
            })
            .unwrap_or(inst.num_annuli())
    }
}

impl Generator for Srhg {
    fn num_vertices(&self) -> u64 {
        self.n
    }

    fn num_chunks(&self) -> usize {
        self.chunks
    }

    fn directed(&self) -> bool {
        false
    }

    /// The request-centric sweep (§7.2) with sliding request insertion —
    /// live state is replicated globals + active-request windows. The
    /// stream is emitted in sweep order; cross-PE duplicates deduplicate
    /// on merge as for every undirected generator.
    fn stream_pe_batched(&self, pe: usize, buf: &mut Vec<(u64, u64)>, emit: &mut BatchEmit) {
        Batcher::run(buf, emit, |b| {
            self.sweep(pe, &mut |u, v| b.push(u, v), None);
        });
    }

    /// The sweep, sorted and deduplicated, and the sector's vertices
    /// with their coordinates.
    fn generate_pe(&self, pe: usize) -> PeGraph {
        let mut out = PeGraph {
            pe,
            ..PeGraph::default()
        };
        let mut edges: Vec<(u64, u64)> = Vec::new();
        let mut locals: Vec<PrePoint> = Vec::new();
        self.sweep(
            pe,
            &mut |u, v| edges.push((u, v)),
            Some(&mut |p| locals.push(*p)),
        );
        locals.sort_by_key(|p| p.id);
        locals.dedup_by_key(|p| p.id);
        for v in &locals {
            out.coords2.push((v.id, [v.r, v.theta]));
        }
        out.vertex_begin = locals.first().map_or(0, |p| p.id);
        out.vertex_end = locals.last().map_or(0, |p| p.id + 1);
        edges.sort_unstable();
        edges.dedup();
        out.edges = edges;
        out
    }
}

/// One contributor annulus' generation cursor during a single-annulus
/// sweep: its cells over the extended sector, as linear cell indices of
/// the sector's frame (index `k` is cell `k mod cells` shifted by
/// `⌊k / cells⌋` turns), walked in order and activated just before the
/// sweep can first need them.
struct Contrib {
    /// Contributor annulus index.
    i: usize,
    /// Total cells of the annulus.
    cells: i64,
    /// Cell width.
    w: f64,
    /// Upper bound of this annulus' request half-width into the swept
    /// annulus (Δθ at the annulus' lower radius).
    dt_max: f64,
    /// Next unactivated linear cell index.
    next: i64,
    /// One past the last linear cell index.
    end: i64,
}

/// Push `p`'s request `[θ − Δθ, θ + Δθ]` from annulus `ann`, shifted by
/// each of `turns` (multiples of 2π) into the sector's linear frame,
/// wherever it meets the sector `[lo, hi)`. A request that spans the
/// whole circle is pushed once, as the sector itself.
fn push_requests(
    out: &mut Vec<Request>,
    (ann, p, dt): (usize, PrePoint, f64),
    turns: &[f64],
    (lo, hi): (f64, f64),
) {
    let (a, b) = (p.theta - dt, p.theta + dt);
    if b - a >= std::f64::consts::TAU {
        return out.push(Request {
            begin: lo,
            end: hi,
            ann,
            p,
        });
    }
    for turn in turns {
        let (begin, end) = (a + turn, b + turn);
        if end >= lo && begin < hi {
            out.push(Request { begin, end, ann, p });
        }
    }
}

impl Srhg {
    /// The request-centric sweep (§7.2), processed **one annulus at a
    /// time with sliding request insertion** — the native streaming
    /// form. Per swept annulus, contributor cells (its own and every
    /// lower streaming annulus' extended-sector cells, regenerated on
    /// demand — the paper's recomputation trick) are activated just
    /// before the node sweep can first need their requests, and expired
    /// requests are dropped at cell boundaries, so the live state is the
    /// replicated global annuli plus the active-request windows — the
    /// two terms Lemmas 15 and 17 bound — never the PE's full request
    /// multiset.
    ///
    /// Everything sits in the sector's linear frame (module docs): node
    /// cells are the sector's cells in order, a contributor cell's
    /// requests are shifted by its turn, and a global's request is taken
    /// a turn below, at and a turn above its angle.
    ///
    /// `emit` receives every edge incident to a sector-owned vertex,
    /// normalized `(min, max)`, in deterministic sweep order (globals
    /// first, then per swept annulus, per node, neighbors ascending);
    /// as a *set* it equals [`Generator::generate_pe`]'s list (which is
    /// this sweep, sorted). `on_local` is called once per sector-owned
    /// vertex.
    pub(crate) fn sweep(
        &self,
        pe: usize,
        emit: &mut impl FnMut(u64, u64),
        mut on_local: Option<&mut dyn FnMut(&PrePoint)>,
    ) {
        let inst = self.instance();
        // Cells are regenerated per swept annulus, never held; only the
        // count-tree nodes on their paths are drawn once and kept (two
        // words per node, about two nodes per extended-sector cell of
        // ~8 points — not points of the sweep's live state).
        let mut cells = CellSource::new(&inst);
        let tau = std::f64::consts::TAU;
        let width = tau / self.chunks as f64;
        let (lo, hi) = (width * pe as f64, width * (pe as f64 + 1.0));
        let cosh_r = inst.space.cosh_r;
        let annuli = inst.num_annuli();
        let first_stream = Self::first_streaming(&inst, self.chunks);

        // ---- Global phase -------------------------------------------------
        // All global-annulus points, regenerated on every PE; pairs are
        // distributed by angular ownership of the smaller-id endpoint.
        let mut globals: Vec<(usize, PrePoint)> = Vec::new();
        for i in 0..first_stream {
            for c in 0..inst.ann_cells[i] {
                for p in cells.cell_points(i, c) {
                    globals.push((i, p));
                }
            }
        }
        for (_, u) in &globals {
            if u.theta < lo || u.theta >= hi {
                continue;
            }
            if let Some(f) = on_local.as_deref_mut() {
                f(u);
            }
            for (_, w) in &globals {
                if u.id < w.id && u.is_adjacent(w, cosh_r) {
                    emit(u.id, w.id);
                }
            }
        }

        // ---- Sweep each streaming annulus, one at a time ------------------
        let mut greqs: Vec<Request> = Vec::new();
        let mut nbrs: Vec<(u64, u64)> = Vec::new();
        for j in first_stream..annuli {
            if inst.ann_counts[j] == 0 {
                continue;
            }
            let w_j = inst.cell_width(j);
            let b_j = inst.space.bounds[j].max(1e-12);

            // Requests of the replicated globals that meet the local
            // sector (this is what spreads the work of hubs over all
            // PEs), inserted by begin as the sweep reaches them.
            greqs.clear();
            for &(ui, u) in &globals {
                let dt = inst.space.delta_theta(u.r, b_j);
                push_requests(&mut greqs, (ui, u, dt), &[-tau, 0.0, tau], (lo, hi));
            }
            greqs.sort_by(|a, b| a.begin.total_cmp(&b.begin));
            let mut gnext = 0usize;

            // Contributor cursors over the extended sector (one chunk on
            // each side — the symmetric version of the paper's final
            // phase), one per streaming annulus at or below j.
            let (lo_ext, hi_ext) = (lo - width, hi + width);
            let mut contribs: Vec<Contrib> = Vec::new();
            for i in first_stream..=j {
                if inst.ann_counts[i] == 0 {
                    continue;
                }
                let w_i = inst.cell_width(i);
                let first = (lo_ext / w_i).floor() as i64;
                contribs.push(Contrib {
                    i,
                    cells: inst.ann_cells[i] as i64,
                    w: w_i,
                    dt_max: inst.space.delta_theta(inst.space.bounds[i].max(1e-12), b_j),
                    next: first,
                    end: first + ((hi_ext - lo_ext) / w_i) as i64 + 2,
                });
            }

            // Node cells: the sector's, in order (the count, like the
            // contributors', has a spare cell against rounding).
            let mut active: Vec<Request> = Vec::new();
            let n_first = (lo / w_j) as u64;
            let n_end = (n_first + ((hi - lo) / w_j) as u64 + 2).min(inst.ann_cells[j]);
            for cn in n_first..n_end {
                // Batch expiry at the cell boundary (§7.2.1): expired
                // requests are dropped once per cell, not per node.
                let cell_lo = cn as f64 * w_j;
                active.retain(|r| r.end >= cell_lo);
                // Activate every contributor cell the nodes of this cell
                // could need: anything whose earliest possible request
                // start lies at or before the cell's end.
                let cell_hi = (cn + 1) as f64 * w_j;
                for cb in contribs.iter_mut() {
                    while cb.next < cb.end && cb.next as f64 * cb.w - cb.dt_max <= cell_hi {
                        let k = cb.next;
                        cb.next += 1;
                        let turn = k.div_euclid(cb.cells) as f64 * tau;
                        for p in cells.cell_points(cb.i, k.rem_euclid(cb.cells) as u64) {
                            let dt = inst.space.delta_theta(p.r, b_j);
                            push_requests(&mut active, (cb.i, p, dt), &[turn], (lo, hi));
                        }
                    }
                }
                // Nodes: owned sector only (boundary cells also hold the
                // neighbor sector's points).
                for v in cells
                    .cell_points(j, cn)
                    .iter()
                    .filter(|p| p.theta >= lo && p.theta < hi)
                {
                    if let Some(f) = on_local.as_deref_mut() {
                        f(v);
                    }
                    while gnext < greqs.len() && greqs[gnext].begin <= v.theta {
                        active.push(greqs[gnext]);
                        gnext += 1;
                    }
                    nbrs.clear();
                    for r in &active {
                        // Exact interval containment (activation may run
                        // ahead of a request's start).
                        if r.begin > v.theta || r.end < v.theta {
                            continue;
                        }
                        let u = &r.p;
                        if u.id == v.id {
                            continue;
                        }
                        // Emission rule: once globally per encounter
                        // direction.
                        let em = if r.ann < j { true } else { u.id < v.id };
                        if em && u.is_adjacent(v, cosh_r) {
                            nbrs.push((u.id.min(v.id), u.id.max(v.id)));
                        }
                    }
                    nbrs.sort_unstable();
                    nbrs.dedup();
                    for &(a, b) in &nbrs {
                        emit(a, b);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate_undirected;
    use crate::rhg::Rhg;

    #[test]
    fn matches_query_centric_generator() {
        // Same instance skeleton + same adjacency rule ⇒ identical graphs.
        for &(n, deg, gamma, chunks) in &[
            (500u64, 8.0, 2.8, 4usize),
            (900, 6.0, 3.0, 8),
            (700, 12.0, 2.3, 5),
        ] {
            let srhg =
                generate_undirected(&Srhg::new(n, deg, gamma).with_seed(11).with_chunks(chunks));
            let rhg =
                generate_undirected(&Rhg::new(n, deg, gamma).with_seed(11).with_chunks(chunks));
            assert_eq!(
                srhg.edges, rhg.edges,
                "sRHG vs RHG mismatch at n={n}, γ={gamma}"
            );
        }
    }

    #[test]
    fn corner_matrix_matches_all_pairs_and_generate_pe_is_the_sorted_stream() {
        crate::rhg::common::reference::check_corner_matrix(
            |n, gamma, chunks| {
                let gen = Srhg::new(n, 8.0, gamma).with_seed(5).with_chunks(chunks);
                let inst = gen.instance();
                (gen, inst)
            },
            |_, inst, p, q| p.is_adjacent(q, inst.space.cosh_r),
            true,
        );
    }

    #[test]
    fn chunk_invariance() {
        let a = generate_undirected(&Srhg::new(800, 8.0, 2.9).with_seed(3).with_chunks(1));
        let b = generate_undirected(&Srhg::new(800, 8.0, 2.9).with_seed(3).with_chunks(8));
        let c = generate_undirected(&Srhg::new(800, 8.0, 2.9).with_seed(3).with_chunks(32));
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn no_duplicate_edges_within_pe() {
        let gen = Srhg::new(600, 10.0, 2.5).with_seed(7).with_chunks(4);
        for pe in 0..4 {
            let part = gen.generate_pe(pe);
            let mut e = part.edges.clone();
            e.dedup();
            assert_eq!(e.len(), part.edges.len(), "PE {pe} emitted duplicates");
        }
    }
}

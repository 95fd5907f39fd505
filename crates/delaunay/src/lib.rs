//! # kagen-delaunay
//!
//! Delaunay triangulation substrate for the RDG generator (§6) — the CGAL
//! replacement.
//!
//! * [`dd`] — error-free transformations and double-double ("compensated")
//!   arithmetic (~106-bit mantissa);
//! * [`predicates`] — orientation / in-circle / in-sphere tests with a
//!   fast floating-point filter and a double-double exact-enough fallback,
//!   with deterministic tie handling;
//! * [`mesh`] — the incremental Bowyer–Watson mesh, written once for both
//!   dimensions: neighbour arrays, epoch-stamped cavities, Z-order
//!   insertion;
//! * [`tri2`], [`tet3`] — its 2D and 3D instances, [`Delaunay2`] and
//!   [`Delaunay3`].
//!
//! The triangulations are plain Euclidean; the RDG generator implements the
//! paper's periodic boundary conditions by inserting ±1-offset replica
//! points (halos), exactly as described in §2.1.4.

pub mod dd;
pub mod mesh;
pub mod predicates;
pub mod tet3;
pub mod tri2;

pub use mesh::Mesh;
pub use predicates::{incircle2, insphere3, orient2, orient3, Sign};
pub use tet3::Delaunay3;
pub use tri2::Delaunay2;

/// Circumcircle of a 2D triangle: (center, squared radius).
pub fn circumcircle2(a: [f64; 2], b: [f64; 2], c: [f64; 2]) -> ([f64; 2], f64) {
    let (bx, by) = (b[0] - a[0], b[1] - a[1]);
    let (cx, cy) = (c[0] - a[0], c[1] - a[1]);
    let d = 2.0 * (bx * cy - by * cx);
    let b2 = bx * bx + by * by;
    let c2 = cx * cx + cy * cy;
    let ux = (cy * b2 - by * c2) / d;
    let uy = (bx * c2 - cx * b2) / d;
    ([a[0] + ux, a[1] + uy], ux * ux + uy * uy)
}

/// Circumsphere of a 3D tetrahedron: (center, squared radius).
pub fn circumsphere3(a: [f64; 3], b: [f64; 3], c: [f64; 3], d: [f64; 3]) -> ([f64; 3], f64) {
    let r = |p: [f64; 3]| [p[0] - a[0], p[1] - a[1], p[2] - a[2]];
    let (u, v, w) = (r(b), r(c), r(d));
    let norm2 = |p: [f64; 3]| p[0] * p[0] + p[1] * p[1] + p[2] * p[2];
    let cross = |p: [f64; 3], q: [f64; 3]| {
        [
            p[1] * q[2] - p[2] * q[1],
            p[2] * q[0] - p[0] * q[2],
            p[0] * q[1] - p[1] * q[0],
        ]
    };
    let dot = |p: [f64; 3], q: [f64; 3]| p[0] * q[0] + p[1] * q[1] + p[2] * q[2];
    let denom = 2.0 * dot(u, cross(v, w));
    let vw = cross(v, w);
    let wu = cross(w, u);
    let uv = cross(u, v);
    let (nu, nv, nw) = (norm2(u), norm2(v), norm2(w));
    let center = [
        (nu * vw[0] + nv * wu[0] + nw * uv[0]) / denom,
        (nu * vw[1] + nv * wu[1] + nw * uv[1]) / denom,
        (nu * vw[2] + nv * wu[2] + nw * uv[2]) / denom,
    ];
    let r2 = norm2(center);
    ([a[0] + center[0], a[1] + center[1], a[2] + center[2]], r2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn circumcircle_equidistant() {
        let (c, r2) = circumcircle2([0.0, 0.0], [1.0, 0.0], [0.0, 1.0]);
        for p in [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]] {
            let d2 = (p[0] - c[0]).powi(2) + (p[1] - c[1]).powi(2);
            assert!((d2 - r2).abs() < 1e-12);
        }
        assert!((c[0] - 0.5).abs() < 1e-12 && (c[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn circumsphere_equidistant() {
        let pts = [
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
        ];
        let (c, r2) = circumsphere3(pts[0], pts[1], pts[2], pts[3]);
        for p in pts {
            let d2: f64 = (0..3).map(|i| (p[i] - c[i]).powi(2)).sum();
            assert!((d2 - r2).abs() < 1e-12, "{d2} vs {r2}");
        }
    }
}

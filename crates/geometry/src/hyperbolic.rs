//! Hyperbolic plane toolbox for the RHG generators (§7, Appendix A/B).
//!
//! The threshold random hyperbolic graph places `n` points on a disk of
//! radius `R = 2 ln n + C` with radial density
//! `f(r) = α sinh(αr)/(cosh(αR) − 1)` and connects two points iff their
//! hyperbolic distance (Eq. 4) is below `R`. The power-law exponent is
//! `γ = 2α + 1`, and `C` controls the average degree via Eq. 2.

use kagen_util::Rng64;

/// Instance geometry shared by RHG and sRHG.
#[derive(Clone, Debug)]
pub struct RhgSpace {
    /// Number of points.
    pub n: u64,
    /// Dispersion α = (γ − 1)/2 > 1/2.
    pub alpha: f64,
    /// Target average degree d̄.
    pub avg_deg: f64,
    /// Disk radius R.
    pub r_max: f64,
    /// cosh(R), precomputed for adjacency tests.
    pub cosh_r: f64,
    /// Annulus boundaries: `bounds[i]..bounds[i+1]` is annulus i
    /// (equal-height annuli, k = ⌊αR/ln 2⌋ of them, §7.1).
    pub bounds: Vec<f64>,
}

impl RhgSpace {
    /// Build the geometry from the user-facing parameters.
    ///
    /// `gamma` must exceed 2 (so α > 1/2) and `avg_deg` must be positive.
    pub fn new(n: u64, avg_deg: f64, gamma: f64) -> Self {
        assert!(n >= 2);
        assert!(gamma > 2.0, "power-law exponent must be > 2 (α > 1/2)");
        assert!(avg_deg > 0.0);
        let alpha = (gamma - 1.0) / 2.0;
        let r_max = Self::disk_radius(n, avg_deg, gamma);
        assert!(r_max > 0.0, "degenerate geometry: R <= 0");
        let k = ((alpha * r_max) / std::f64::consts::LN_2).floor().max(1.0) as usize;
        let mut bounds = Vec::with_capacity(k + 1);
        for i in 0..=k {
            bounds.push(r_max * i as f64 / k as f64);
        }
        RhgSpace {
            n,
            alpha,
            avg_deg,
            r_max,
            cosh_r: r_max.cosh(),
            bounds,
        }
    }

    /// The disk radius `R = 2 ln n + C` the parameters ask for. Not
    /// positive (or NaN) when `avg_deg` is too large for `n`, which
    /// [`RhgSpace::new`] refuses; callers that must not panic test this
    /// first.
    pub fn disk_radius(n: u64, avg_deg: f64, gamma: f64) -> f64 {
        let alpha = (gamma - 1.0) / 2.0;
        // Eq. 2 solved for C:
        //   d̄ = (2/π) [α/(α−1/2)]² e^{−C/2}
        //   C = −2 ln( d̄ (π/2) [(α−1/2)/α]² )
        let ratio = (alpha - 0.5) / alpha;
        let c = -2.0 * (avg_deg * std::f64::consts::FRAC_PI_2 * ratio * ratio).ln();
        2.0 * (n as f64).ln() + c
    }

    /// Number of annuli.
    pub fn num_annuli(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Probability mass of annulus `i` under the radial density (the `p_i`
    /// of §7.1).
    pub fn annulus_prob(&self, i: usize) -> f64 {
        let denom = (self.alpha * self.r_max).cosh() - 1.0;
        let lo = (self.alpha * self.bounds[i]).cosh();
        let hi = (self.alpha * self.bounds[i + 1]).cosh();
        (hi - lo) / denom
    }

    /// Radial CDF μ(B_r(0)) (Eq. B.2 exact form).
    pub fn radial_cdf(&self, r: f64) -> f64 {
        ((self.alpha * r).cosh() - 1.0) / ((self.alpha * self.r_max).cosh() - 1.0)
    }

    /// Sample a radius conditioned on `lo <= r < hi` by CDF inversion.
    pub fn sample_radius_in<R: Rng64>(&self, rng: &mut R, lo: f64, hi: f64) -> f64 {
        let a = self.alpha;
        let clo = (a * lo).cosh();
        let chi = (a * hi).cosh();
        let u = rng.next_f64_open();
        let r = ((clo + u * (chi - clo)).acosh()) / a;
        // Guard against r == 0 exactly (sinh would vanish in Eq. 9).
        r.max(1e-12).min(self.r_max)
    }

    /// Hyperbolic distance between polar points (Eq. 4).
    pub fn distance(&self, p: (f64, f64), q: (f64, f64)) -> f64 {
        let (rp, tp) = p;
        let (rq, tq) = q;
        let arg = rp.cosh() * rq.cosh() - rp.sinh() * rq.sinh() * (tp - tq).cos();
        arg.max(1.0).acosh()
    }

    /// Maximum angular deviation Δθ(r, b) for a neighbor at radius `b`
    /// (Eq. A.3 / Eq. 8): beyond this deviation the hyperbolic distance
    /// necessarily exceeds R.
    pub fn delta_theta(&self, r: f64, b: f64) -> f64 {
        self.delta_theta_at(r, b, self.r_max, self.cosh_r)
    }

    /// Δθ(r, b) against an arbitrary distance threshold `dist` (with
    /// `cosh_dist = cosh(dist)` precomputed). The soft/binomial RHG model
    /// queries with an *enlarged* threshold `R + O(T)` so that pairs with
    /// non-negligible connection probability are all enumerated.
    pub fn delta_theta_at(&self, r: f64, b: f64, dist: f64, cosh_dist: f64) -> f64 {
        if r + b < dist {
            return std::f64::consts::PI;
        }
        Self::delta_theta_beyond((r.cosh(), r.sinh()), (b.cosh(), b.sinh()), cosh_dist)
    }

    /// The `r + b ≥ dist` branch of [`RhgSpace::delta_theta_at`], from the
    /// `(cosh, sinh)` of the two radii — for a caller that computes them
    /// once per point and per annulus instead of once per pair.
    #[inline]
    pub fn delta_theta_beyond(
        (cosh_r, sinh_r): (f64, f64),
        (cosh_b, sinh_b): (f64, f64),
        cosh_dist: f64,
    ) -> f64 {
        let arg = (cosh_r * cosh_b - cosh_dist) / (sinh_r * sinh_b);
        arg.clamp(-1.0, 1.0).acos()
    }

    /// Radius below which all points form a clique (r ≤ R/2: any two such
    /// points have distance ≤ r_p + r_q ≤ R).
    pub fn clique_radius(&self) -> f64 {
        self.r_max / 2.0
    }
}

/// A point with the §7.2.1 precomputations for trig-free adjacency tests.
#[derive(Clone, Copy, Debug)]
pub struct PrePoint {
    /// Radial coordinate.
    pub r: f64,
    /// Angular coordinate in [0, 2π).
    pub theta: f64,
    /// coth(r).
    pub coth_r: f64,
    /// 1/sinh(r).
    pub inv_sinh_r: f64,
    /// cos(θ).
    pub cos_theta: f64,
    /// sin(θ).
    pub sin_theta: f64,
    /// Global vertex id.
    pub id: u64,
}

impl PrePoint {
    /// Precompute the Eq. 9 terms for a polar point.
    pub fn new(r: f64, theta: f64, id: u64) -> Self {
        let sinh_r = r.sinh();
        PrePoint {
            r,
            theta,
            coth_r: r.cosh() / sinh_r,
            inv_sinh_r: 1.0 / sinh_r,
            cos_theta: theta.cos(),
            sin_theta: theta.sin(),
            id,
        }
    }

    /// Trig-free adjacency test (Eq. 9): five multiplications, two adds.
    #[inline(always)]
    pub fn is_adjacent(&self, other: &PrePoint, cosh_r_max: f64) -> bool {
        let lhs = self.cos_theta * other.cos_theta + self.sin_theta * other.sin_theta;
        let rhs = self.coth_r * other.coth_r - cosh_r_max * self.inv_sinh_r * other.inv_sinh_r;
        lhs > rhs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kagen_util::Mt64;

    fn space() -> RhgSpace {
        RhgSpace::new(1 << 14, 16.0, 3.0)
    }

    #[test]
    fn geometry_basics() {
        let s = space();
        assert!((s.alpha - 1.0).abs() < 1e-12);
        assert!(s.r_max > 0.0);
        assert!(s.num_annuli() >= 1);
        assert_eq!(s.bounds[0], 0.0);
        assert!((s.bounds[s.num_annuli()] - s.r_max).abs() < 1e-12);
    }

    #[test]
    fn annulus_probs_sum_to_one() {
        let s = space();
        let sum: f64 = (0..s.num_annuli()).map(|i| s.annulus_prob(i)).sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
    }

    #[test]
    fn radial_cdf_endpoints_and_monotone() {
        let s = space();
        assert!(s.radial_cdf(0.0).abs() < 1e-12);
        assert!((s.radial_cdf(s.r_max) - 1.0).abs() < 1e-12);
        let mut prev = 0.0;
        for i in 1..=100 {
            let r = s.r_max * i as f64 / 100.0;
            let c = s.radial_cdf(r);
            assert!(c >= prev);
            prev = c;
        }
    }

    #[test]
    fn sampled_radius_in_bounds_and_distributed() {
        let s = space();
        let mut rng = Mt64::new(1);
        let (lo, hi) = (s.bounds[2], s.bounds[3]);
        let mut below_mid = 0u32;
        let reps = 20_000;
        for _ in 0..reps {
            let r = s.sample_radius_in(&mut rng, lo, hi);
            assert!(r >= lo && r <= hi);
            if s.radial_cdf(r) < (s.radial_cdf(lo) + s.radial_cdf(hi)) / 2.0 {
                below_mid += 1;
            }
        }
        // By construction of CDF inversion, the conditional CDF midpoint
        // splits samples 50/50.
        let frac = below_mid as f64 / reps as f64;
        assert!((frac - 0.5).abs() < 0.02, "frac {frac}");
    }

    #[test]
    fn distance_symmetric_and_zero_on_self() {
        let s = space();
        let p = (s.r_max * 0.7, 1.0);
        let q = (s.r_max * 0.4, 4.5);
        assert!((s.distance(p, q) - s.distance(q, p)).abs() < 1e-9);
        assert!(s.distance(p, p) < 1e-6);
    }

    #[test]
    fn delta_theta_pi_for_near_origin() {
        let s = space();
        // Both radii small: the query circle covers all angles.
        assert_eq!(s.delta_theta(0.1, 0.1), std::f64::consts::PI);
    }

    #[test]
    fn delta_theta_bounds_adjacency() {
        // If |Δθ| > Δθ(r_p, r_q) then the points are NOT adjacent.
        let s = space();
        let mut rng = Mt64::new(2);
        for _ in 0..2000 {
            let rp = s.sample_radius_in(&mut rng, 0.0, s.r_max);
            let rq = s.sample_radius_in(&mut rng, 0.0, s.r_max);
            let dt = s.delta_theta(rp, rq);
            if dt < std::f64::consts::PI - 1e-9 {
                let eps = 1e-6;
                let d = s.distance((rp, 0.0), (rq, dt + eps));
                assert!(
                    d >= s.r_max - 1e-6,
                    "beyond Δθ must be non-adjacent: d={d} R={}",
                    s.r_max
                );
            }
        }
    }

    #[test]
    fn eq9_matches_eq4() {
        // The trig-free test must agree with the direct distance test.
        let s = space();
        let mut rng = Mt64::new(3);
        let mut adjacent = 0u32;
        for i in 0..5000 {
            let rp = s.sample_radius_in(&mut rng, 0.0, s.r_max);
            let rq = s.sample_radius_in(&mut rng, 0.0, s.r_max);
            let tp = rng.next_f64() * std::f64::consts::TAU;
            let tq = rng.next_f64() * std::f64::consts::TAU;
            let p = PrePoint::new(rp, tp, 0);
            let q = PrePoint::new(rq, tq, 1);
            let direct = s.distance((rp, tp), (rq, tq)) < s.r_max;
            let fast = p.is_adjacent(&q, s.cosh_r);
            // Allow disagreement only within float tolerance of the
            // threshold.
            if direct != fast {
                let d = s.distance((rp, tp), (rq, tq));
                assert!(
                    (d - s.r_max).abs() < 1e-6,
                    "iter {i}: disagree far from threshold: d={d}"
                );
            }
            adjacent += fast as u32;
        }
        assert!(adjacent > 0, "degenerate test: no adjacent pairs at all");
    }

    #[test]
    fn clique_property() {
        // Any two points with r <= R/2 are adjacent.
        let s = space();
        let mut rng = Mt64::new(4);
        for _ in 0..500 {
            let rp = s.sample_radius_in(&mut rng, 0.0, s.clique_radius());
            let rq = s.sample_radius_in(&mut rng, 0.0, s.clique_radius());
            let tp = rng.next_f64() * std::f64::consts::TAU;
            let tq = rng.next_f64() * std::f64::consts::TAU;
            assert!(s.distance((rp, tp), (rq, tq)) <= s.r_max + 1e-9);
        }
    }

    #[test]
    fn avg_degree_formula_inverts() {
        // Reconstruct d̄ from C via Eq. 2 and compare.
        for &(deg, gamma) in &[(16.0, 3.0), (256.0, 2.2), (8.0, 2.6)] {
            let s = RhgSpace::new(1 << 16, deg, gamma);
            let c = s.r_max - 2.0 * (s.n as f64).ln();
            let ratio = s.alpha / (s.alpha - 0.5);
            let recovered = 2.0 / std::f64::consts::PI * ratio * ratio * (-c / 2.0).exp();
            assert!(
                (recovered - deg).abs() / deg < 1e-9,
                "γ={gamma}: {recovered} vs {deg}"
            );
        }
    }
}

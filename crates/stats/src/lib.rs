//! # kagen-stats
//!
//! Statistical validation toolkit used by the test suite: goodness-of-fit
//! tests for checking that generated graphs match their models, a power-law exponent estimator for the RHG
//! degree distributions, and tiny descriptive-statistics helpers.

/// Mean and (population) variance of a sample.
pub fn mean_variance(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    (mean, var)
}

/// Pearson chi-square statistic for observed counts vs expected counts.
/// Buckets with expected < 5 are pooled into their successor.
pub fn chi_square(observed: &[u64], expected: &[f64]) -> f64 {
    assert_eq!(observed.len(), expected.len());
    let mut stat = 0.0;
    let mut pool_obs = 0.0;
    let mut pool_exp = 0.0;
    for (&o, &e) in observed.iter().zip(expected) {
        pool_obs += o as f64;
        pool_exp += e;
        if pool_exp >= 5.0 {
            stat += (pool_obs - pool_exp) * (pool_obs - pool_exp) / pool_exp;
            pool_obs = 0.0;
            pool_exp = 0.0;
        }
    }
    if pool_exp > 0.0 {
        stat += (pool_obs - pool_exp) * (pool_obs - pool_exp) / pool_exp;
    }
    stat
}

/// Critical value of the chi-square distribution at significance 0.001,
/// via the Wilson–Hilferty approximation. Good to a few percent for
/// dof ≥ 3 — we only use it with generous margins.
pub fn chi_square_critical_001(dof: usize) -> f64 {
    let k = dof as f64;
    let z = 3.09; // z_{0.999}
    let t = 1.0 - 2.0 / (9.0 * k) + z * (2.0 / (9.0 * k)).sqrt();
    k * t * t * t
}

/// Two-sample Kolmogorov–Smirnov statistic (max CDF distance). Inputs are
/// sorted internally.
pub fn ks_statistic(a: &[f64], b: &[f64]) -> f64 {
    let mut a = a.to_vec();
    let mut b = b.to_vec();
    a.sort_by(|x, y| x.total_cmp(y));
    b.sort_by(|x, y| x.total_cmp(y));
    let (mut i, mut j) = (0usize, 0usize);
    let mut d: f64 = 0.0;
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            i += 1;
        } else {
            j += 1;
        }
        let fa = i as f64 / a.len() as f64;
        let fb = j as f64 / b.len() as f64;
        d = d.max((fa - fb).abs());
    }
    d
}

/// Acceptance threshold for a two-sample KS test at significance ~0.001:
/// `c(α)·sqrt((n+m)/(n·m))` with c(0.001) ≈ 1.95.
pub fn ks_critical_001(n: usize, m: usize) -> f64 {
    1.95 * (((n + m) as f64) / ((n * m) as f64)).sqrt()
}

/// Maximum-likelihood estimate of a discrete power-law exponent
/// (Clauset–Shalizi–Newman approximation):
/// `α̂ = 1 + n / Σ ln(d_i / (d_min − 0.5))` over degrees ≥ d_min.
pub fn power_law_alpha(degrees: &[u64], d_min: u64) -> Option<f64> {
    let tail: Vec<f64> = degrees
        .iter()
        .filter(|&&d| d >= d_min)
        .map(|&d| d as f64)
        .collect();
    if tail.len() < 50 {
        return None; // not enough tail mass to estimate
    }
    let denom: f64 = tail.iter().map(|&d| (d / (d_min as f64 - 0.5)).ln()).sum();
    Some(1.0 + tail.len() as f64 / denom)
}

/// Least-squares slope of `ln(y)` against `ln(x)` — used to check scaling
/// exponents (e.g. near-constant weak-scaling curves have slope ≈ 0).
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|&(x, y)| (x.ln(), y.ln()))
        .collect();
    let n = pts.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_basics() {
        let (m, v) = mean_variance(&[1.0, 2.0, 3.0, 4.0]);
        assert!((m - 2.5).abs() < 1e-12);
        assert!((v - 1.25).abs() < 1e-12);
        assert_eq!(mean_variance(&[]), (0.0, 0.0));
    }

    #[test]
    fn chi_square_perfect_fit_is_zero() {
        let obs = [10u64, 20, 30];
        let exp = [10.0, 20.0, 30.0];
        assert!(chi_square(&obs, &exp) < 1e-12);
    }

    #[test]
    fn chi_square_detects_misfit() {
        let obs = [100u64, 0, 0];
        let exp = [33.3, 33.3, 33.4];
        assert!(chi_square(&obs, &exp) > 100.0);
    }

    #[test]
    fn chi_square_pools_small_buckets() {
        // Tail buckets with tiny expectation must not explode the statistic.
        let obs = [50u64, 49, 1, 0, 0];
        let exp = [50.0, 48.0, 0.7, 0.2, 0.1];
        let stat = chi_square(&obs, &exp);
        assert!(stat < 10.0, "stat {stat}");
    }

    #[test]
    fn critical_values_reasonable() {
        // Known χ²_{0.999} values: dof=10 → 29.59, dof=50 → 86.66.
        assert!((chi_square_critical_001(10) - 29.6).abs() < 1.0);
        assert!((chi_square_critical_001(50) - 86.7).abs() < 2.0);
    }

    #[test]
    fn ks_identical_samples() {
        let a = [1.0, 2.0, 3.0, 4.0];
        assert!(ks_statistic(&a, &a) <= 0.25 + 1e-12);
        let b = [10.0, 11.0, 12.0, 13.0];
        assert!((ks_statistic(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn power_law_recovery() {
        // Sample from a discrete power law with α = 2.5 by inversion.
        use kagen_util::{Mt64, Rng64};
        let mut rng = Mt64::new(1);
        let alpha = 2.5f64;
        let degrees: Vec<u64> = (0..40_000)
            .map(|_| {
                let u = rng.next_f64_open();
                // Continuous power-law sample, rounded to a degree.
                (2.0 * (1.0 - u).powf(-1.0 / (alpha - 1.0))).round() as u64
            })
            .collect();
        // Estimate above the discretization-affected region.
        let est = power_law_alpha(&degrees, 4).unwrap();
        assert!((est - alpha).abs() < 0.25, "estimated {est}");
    }

    #[test]
    fn power_law_needs_tail() {
        assert!(power_law_alpha(&[1, 2, 3], 2).is_none());
    }

    #[test]
    fn loglog_slope_of_power() {
        // y = 3 x^2 → slope 2.
        let pts: Vec<(f64, f64)> = (1..20)
            .map(|i| (i as f64, 3.0 * (i as f64).powi(2)))
            .collect();
        assert!((loglog_slope(&pts) - 2.0).abs() < 1e-9);
    }
}

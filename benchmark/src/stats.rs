//! Order statistics of a handful of repetitions.

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the "exclusive" method) — the same arithmetic the driver's
/// spread check uses, so `run --aa` predicts its verdict.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let m = samples.len();
    if m < 2 {
        return None;
    }
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Median of `samples`, or `None` when there are none.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    let mid = data.len() / 2;
    Some(if data.len() % 2 == 1 {
        data[mid]
    } else {
        (data[mid - 1] + data[mid]) / 2.0
    })
}

/// What is reported for every timed quantity: the sample count and the
/// five order statistics nine-or-fewer samples can support.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub p25: f64,
    pub median: f64,
    pub p75: f64,
    pub max: f64,
}

impl Summary {
    /// Summarize `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let median = median(samples)?;
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let [p25, _, p75] = quartiles(samples).unwrap_or([median; 3]);
        Some(Summary {
            n: samples.len(),
            min,
            p25,
            median,
            p75,
            max,
        })
    }

    /// The figure every timing metric is computed from: the fastest
    /// repetition. Disturbance on a shared machine only ever adds time,
    /// and on the 2-vCPU build box it arrives in phases of 5–15 s that
    /// slow a whole set of repetitions by a third; over ten runs the
    /// median of seven repetitions spread 9–21 % of its value and the
    /// minimum 7 %, so the minimum is what a later change is judged on.
    /// The other order statistics are printed beside it.
    pub fn best(&self) -> f64 {
        self.min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1..=9], n=4) == [2.5, 5.0, 7.5]
        let nine: Vec<f64> = (1..=9).rev().map(f64::from).collect();
        assert_eq!(quartiles(&nine), Some([2.5, 5.0, 7.5]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn summary_orders_its_statistics() {
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]).unwrap();
        assert_eq!((s.n, s.min, s.median, s.max), (7, 1.0, 4.0, 9.0));
        assert!(s.min <= s.p25 && s.p25 <= s.median && s.median <= s.p75 && s.p75 <= s.max);
        assert_eq!(s.best(), 1.0);
        let one = Summary::of(&[2.0]).unwrap();
        assert_eq!((one.p25, one.p75), (2.0, 2.0));
        assert_eq!(Summary::of(&[]), None);
    }
}

//! Scaling measurement: the emulation layer behind the paper's weak and
//! strong scaling figures (Figs. 7–18).
//!
//! On a real cluster, the wall time of a communication-free program with P
//! ranks is `max_i t_i` (+ negligible startup). We therefore execute the P
//! logical PEs on however many cores are available, measure each PE's busy
//! time, and report that maximum as the *emulated parallel time*. This is
//! exact for the KaGen generators and conservative for the communicating
//! baseline (which additionally reports its exchange volume).

use std::time::Duration;

/// Per-PE timings of one emulated run.
#[derive(Clone, Debug)]
pub struct PeTiming {
    /// Busy time of every logical PE.
    pub per_pe: Vec<Duration>,
}

impl PeTiming {
    /// Wrap raw measurements.
    pub fn new(per_pe: Vec<Duration>) -> Self {
        PeTiming { per_pe }
    }

    /// Emulated parallel wall time: the slowest PE.
    pub fn max_time(&self) -> Duration {
        self.per_pe.iter().copied().max().unwrap_or(Duration::ZERO)
    }

    /// Aggregate work (sum over PEs).
    pub fn total_work(&self) -> Duration {
        self.per_pe.iter().sum()
    }

    /// Load imbalance: max / mean (1.0 = perfectly balanced).
    pub fn imbalance(&self) -> f64 {
        if self.per_pe.is_empty() {
            return 1.0;
        }
        let max = self.max_time().as_secs_f64();
        let mean = self.total_work().as_secs_f64() / self.per_pe.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

/// One point of a scaling experiment (one P / size configuration).
#[derive(Clone, Debug)]
pub struct ScalingPoint {
    /// Number of logical PEs.
    pub pes: usize,
    /// Problem size descriptor (n or m, experiment-specific).
    pub size: u64,
    /// Emulated parallel time (max over PEs).
    pub time: Duration,
    /// Load imbalance factor.
    pub imbalance: f64,
    /// Total edges (or vertices) produced across PEs.
    pub items: u64,
}

impl ScalingPoint {
    /// Throughput in items per emulated second.
    pub fn throughput(&self) -> f64 {
        let s = self.time.as_secs_f64();
        if s == 0.0 {
            0.0
        } else {
            self.items as f64 / s
        }
    }
}

/// Render scaling points as an aligned text table (what the experiment
/// harness prints and `--write`s).
pub fn format_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!("### {title}\n\n"));
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (i, c) in cells.iter().enumerate() {
            line.push_str(&format!(" {:<width$} |", c, width = widths[i]));
        }
        line.push('\n');
        line
    };
    out.push_str(&fmt_row(
        &header.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        &widths,
    ));
    let mut sep = String::from("|");
    for w in &widths {
        sep.push_str(&format!("{:-<width$}|", "", width = w + 2));
    }
    sep.push('\n');
    out.push_str(&sep);
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_aggregates() {
        let t = PeTiming::new(vec![
            Duration::from_millis(10),
            Duration::from_millis(30),
            Duration::from_millis(20),
        ]);
        assert_eq!(t.max_time(), Duration::from_millis(30));
        assert_eq!(t.total_work(), Duration::from_millis(60));
        assert!((t.imbalance() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn empty_timing() {
        let t = PeTiming::new(vec![]);
        assert_eq!(t.max_time(), Duration::ZERO);
        assert_eq!(t.imbalance(), 1.0);
    }

    #[test]
    fn throughput() {
        let p = ScalingPoint {
            pes: 4,
            size: 100,
            time: Duration::from_secs(2),
            imbalance: 1.0,
            items: 1000,
        };
        assert!((p.throughput() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn table_formatting() {
        let s = format_table(
            "demo",
            &["P", "time"],
            &[
                vec!["1".into(), "2.0s".into()],
                vec!["16".into(), "0.5s".into()],
            ],
        );
        assert!(s.contains("### demo"));
        assert!(s.contains("| P  | time |"));
        assert!(s.contains("| 16 | 0.5s |"));
    }
}

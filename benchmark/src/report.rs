//! What a run prints and writes: the table of a workload's metrics, the
//! A/A table, the results document's pieces and the driver's result
//! line.

use crate::checks::{self, Golden, Ops};
use crate::json::{obj, Json};
use crate::measure::Untraced;
use crate::metrics::END_TO_END;
use crate::stats::Summary;

/// What a run collects for its documents.
#[derive(Default)]
pub struct Report {
    /// Per workload, for the results document.
    pub workloads: Vec<(String, Json)>,
    /// `(name, unit, value)` of the last workload run, for the driver's
    /// result line.
    pub line: Vec<(&'static str, &'static str, f64)>,
    /// `--aa`: workload, first set, second set.
    pub aa: Vec<(&'static str, [f64; 5], [f64; 5])>,
    /// `--bless`: what the run produced.
    pub golden: Vec<(String, Golden)>,
}

/// `x` with six significant digits; whole numbers as they are.
pub fn sig6(x: f64) -> String {
    if x.fract() == 0.0 || !x.is_finite() {
        return x.to_string();
    }
    let decimals = (5 - x.abs().log10().floor() as i32).clamp(0, 12) as usize;
    format!("{x:.decimals$}")
}

fn summary_text(s: &Summary, which: &str) -> String {
    format!(
        "{which} of n={}  [min {}  p25 {}  median {}  p75 {}  max {}]",
        s.n,
        sig6(s.min),
        sig6(s.p25),
        sig6(s.median),
        sig6(s.p75),
        sig6(s.max)
    )
}

fn summary_json(s: &Summary) -> Json {
    obj([
        ("n", Json::Int(s.n as u64)),
        ("min", Json::Num(s.min)),
        ("p25", Json::Num(s.p25)),
        ("median", Json::Num(s.median)),
        ("p75", Json::Num(s.p75)),
        ("max", Json::Num(s.max)),
    ])
}

/// The end-to-end metric values of one untraced pass, in the order of
/// [`END_TO_END`].
pub fn end_to_end_values(u: &Untraced) -> [f64; 5] {
    [
        u.wall_s.best(),
        u.meps(),
        u.bytes_per_edge(),
        u.peak_rss_mib.median,
        u.setup_s.best(),
    ]
}

pub fn print_untraced(u: &Untraced) {
    let notes = [
        summary_text(&u.wall_s, "fastest"),
        format!("{} edges / wall_s", u.edges),
        format!("{} bytes / {} edges", u.bytes, u.edges),
        summary_text(&u.peak_rss_mib, "median"),
        summary_text(&u.setup_s, "fastest"),
    ];
    for (((def, _bound), value), note) in END_TO_END.iter().zip(end_to_end_values(u)).zip(notes) {
        println!(
            "  {:<16}{:>14} {:<10}{note}",
            def.name,
            sig6(value),
            def.unit
        );
    }
}

pub fn untraced_json(u: &Untraced) -> Json {
    let mut fields: Vec<(String, Json)> = END_TO_END
        .iter()
        .zip(end_to_end_values(u))
        .map(|((def, _), value)| (def.name.to_string(), Json::Num(value)))
        .collect();
    fields.push(("edges".to_string(), Json::Int(u.edges)));
    fields.push(("bytes".to_string(), Json::Int(u.bytes)));
    let digest = checks::hex(u.manifest_digest);
    fields.push(("manifest_fnv1a64".to_string(), digest.as_str().into()));
    for (name, s) in [
        ("wall_s_samples", &u.wall_s),
        ("peak_rss_mib_samples", &u.peak_rss_mib),
        ("cpu_s_samples", &u.cpu_s),
        ("setup_s_samples", &u.setup_s),
    ] {
        fields.push((name.to_string(), summary_json(s)));
    }
    Json::Obj(fields)
}

/// `--aa`: both sets side by side; a cell whose two values differ by
/// more than its bound is a failed operation.
pub fn print_aa(report: &Report, ops: &mut Ops) -> Vec<Json> {
    let mut rows = Vec::new();
    println!(
        "{:<22}{:<16}{:>14}{:>14}{:>10}{:>8}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for (name, first, second) in &report.aa {
        for (((def, bound), a), b) in END_TO_END.iter().zip(first).zip(second) {
            let diff = (b - a).abs() / a;
            let within = if diff <= *bound {
                Ok(())
            } else {
                Err(format!("{a} vs {b} differ by {diff:.4}, bound {bound}"))
            };
            let verdict = ops.record(&format!("A/A {name} {}", def.name), within);
            println!(
                "{name:<22}{:<16}{:>14}{:>14}{diff:>10.4}{bound:>8}{}",
                def.name,
                sig6(*a),
                sig6(*b),
                if verdict.is_some() { "" } else { "  EXCEEDED" }
            );
            rows.push(obj([
                ("workload", (*name).into()),
                ("metric", def.name.into()),
                ("first", Json::Num(*a)),
                ("second", Json::Num(*b)),
                ("difference", Json::Num(diff)),
                ("bound", Json::Num(*bound)),
            ]));
        }
    }
    rows
}

/// The object the driver reads from the last line of standard output.
pub fn result_line(ops: &Ops, metrics: &[(&str, &str, f64)]) -> String {
    let metrics = metrics
        .iter()
        .map(|&(name, unit, value)| {
            (
                name.to_string(),
                obj([("value", Json::Num(value)), ("unit", unit.into())]),
            )
        })
        .collect();
    obj([
        ("correct", Json::Bool(ops.failed == 0)),
        ("attempted", Json::Int(ops.attempted.max(1))),
        ("failed", Json::Int(ops.failed)),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_line()
}

//! Every metric the benchmark reports: name, unit, which way is better
//! and, for the end-to-end ones, how far a median may worsen before it
//! counts as a regression. `BENCHMARK.json` is generated from these
//! tables (`describe`) and a test holds the checked-in file to them.

use crate::json::{obj, Json};
use crate::workloads::WORKLOADS;

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "higher",
    }
}

/// End-to-end metrics with their bounds, one value per workload.
///
/// `failed_share` (failed ÷ attempted operations, bound 0) is printed
/// with them but travels as the result line's `failed` and `attempted`:
/// the contract wants metrics that are never 0, and it is always 0 on a
/// healthy tree.
///
/// The bounds are what the build box can resolve, not what one would
/// wish: a shared 2-vCPU VM whose cores lose a fifth to a third of their
/// speed for seconds to minutes at a time (a pure spin loop shows it).
/// Ten runs of one command, seed varying, spread 2-18 % of their median
/// in `wall_s` even on the fastest-repetition estimate (`Summary::best`);
/// `peak_rss_mib` and `bytes_per_edge` repeat to 2 % and exactly for one
/// seed but move 13 % and 0.3 % between seeds on `rhg_stream`, whose
/// instance is heavy-tailed. A claim finer than a bound needs paired
/// runs (`choosing-metrics` section 8), not this gate.
pub const END_TO_END: [(MetricDef, f64); 5] = [
    (lower("wall_s", "s"), 0.25),
    (higher("meps", "Medges/s"), 0.25),
    (lower("bytes_per_edge", "B/edge"), 0.02),
    (lower("peak_rss_mib", "MiB"), 0.25),
    (lower("setup_s", "s"), 0.25),
];

/// Per-layer metrics, printed by a traced run. A metric that does not
/// apply to a workload (`geometry.*` on an index generator, `cluster.*`
/// on a stream, `runtime.speedup_p_vs_1` on one core) reads 0.
pub const PER_LAYER: [MetricDef; 56] = [
    lower("machine.splitmix_ns_per_word", "ns/word"),
    higher("machine.memcpy_gib_s", "GiB/s"),
    higher("machine.file_write_mib_s", "MiB/s"),
    lower("machine.varint_ns_per_edge", "ns/edge"),
    lower("cli.min_run_ms", "ms"),
    lower("util.rng_words_per_edge", "words/edge"),
    higher("util.rng_floor_frac", "fraction"),
    lower("core.gen_ns_per_edge", "ns/edge"),
    lower("core.gen_peak_alloc_bytes", "B"),
    higher("core.batch_fill", "ratio"),
    lower("core.pe_imbalance", "ratio"),
    lower("geometry.recompute_ratio", "ratio"),
    lower("geometry.cells_per_edge", "cells/edge"),
    lower("geometry.frontier_points_peak", "points"),
    lower("graph.encode_ns_per_edge", "ns/edge"),
    higher("graph.encode_frac_of_ceiling", "fraction"),
    lower("fs.write_ns_per_edge", "ns/edge"),
    higher("fs.write_mib_s", "MiB/s"),
    lower("fs.write_calls", "count"),
    higher("fs.write_frac_of_ceiling", "fraction"),
    lower("pipeline.checksum_ns_per_edge", "ns/edge"),
    lower("pipeline.validate_ns_per_edge", "ns/edge"),
    higher("pipeline.validate_mib_s", "MiB/s"),
    lower("pipeline.per_shard_us", "us"),
    lower("pipeline.manifest_save_ms", "ms"),
    lower("pipeline.manifest_bytes", "B"),
    lower("pipeline.merge_ns_per_edge_in", "ns/edge"),
    lower("pipeline.merge_out_ns_per_edge", "ns/edge"),
    lower("pipeline.merge_runs", "count"),
    lower("pipeline.merge_passes", "count"),
    lower("pipeline.merge_max_buffered_edges", "edges"),
    lower("pipeline.merge_dedup_ratio", "ratio"),
    lower("cluster.launch_over_stream", "ratio"),
    lower("cluster.validate_frac", "fraction"),
    lower("cluster.rank_imbalance", "ratio"),
    lower("cluster.ledger_save_ms", "ms"),
    lower("cluster.ledger_bytes", "B"),
    higher("runtime.speedup_p_vs_1", "ratio"),
    higher("runtime.parallel_efficiency", "fraction"),
    lower("runtime.cpu_s", "s"),
    higher("runtime.cpu_over_wall", "cores"),
    lower("runtime.unattributed_frac", "fraction"),
    lower("obs.overhead_frac", "fraction"),
    lower("obs.metrics_bytes", "B"),
    lower("obs.trace_events", "count"),
    lower("dist.alias_ns_per_draw", "ns/draw"),
    lower("dist.binomial_ns_per_draw", "ns/draw"),
    lower("dist.hypergeometric_ns_per_draw", "ns/draw"),
    lower("sampling.skip_ns_per_index", "ns/index"),
    lower("sampling.methodd_ns_per_index", "ns/index"),
    lower("geometry.cell_points_ns_per_point", "ns/point"),
    lower("delaunay.tri2_ns_per_point", "ns/point"),
    lower("core.gen_ns_per_edge.srhg", "ns/edge"),
    lower("core.gen_ns_per_edge.soft-rhg", "ns/edge"),
    lower("core.gen_ns_per_edge.rgg3d", "ns/edge"),
    lower("core.gen_ns_per_edge.sbm", "ns/edge"),
];

/// How long one run measures: the budget `Plan::timed` fills with
/// repetitions. The driver makes 4 + 22 runs per workload in under an
/// hour, two builds included, which leaves 16 s for a run; set-up
/// sampling and the checks take 1.5 to 3 of them.
pub const RUN_SECONDS: u64 = 13;

fn metric_json(def: &MetricDef, bound: Option<f64>) -> Json {
    let mut fields = vec![
        ("name".to_string(), def.name.into()),
        ("unit".to_string(), def.unit.into()),
        ("better".to_string(), def.better.into()),
    ];
    fields.extend(bound.map(|b| ("bound".to_string(), Json::Num(b))));
    Json::Obj(fields)
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|&s| s.into()).collect());
    obj([
        (
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
                "run",
                // The contract: read and write only inside the checkout.
                "--scratch",
                "benchmark/out",
            ]),
        ),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", Json::Int(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .filter(|w| w.gated)
                    .map(|w| obj([("name", w.name.into()), ("why", w.why.into())]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|(def, bound)| metric_json(def, Some(*bound)))
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(|def| metric_json(def, None)).collect()),
        ),
    ])
    .to_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_fit_the_contract() {
        let defs: Vec<&MetricDef> = END_TO_END
            .iter()
            .map(|(d, _)| d)
            .chain(&PER_LAYER)
            .collect();
        for (i, def) in defs.iter().enumerate() {
            assert!(
                defs[..i].iter().all(|d| d.name != def.name),
                "{} twice",
                def.name
            );
            assert!(def.name.len() <= 64 && def.unit.len() <= 16, "{}", def.name);
            assert!(def.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .all(|(_, bound)| *bound > 0.0 && *bound <= 0.25));
        assert!(END_TO_END.iter().any(|(d, _)| *d == lower("setup_s", "s")));
        assert!(PER_LAYER.len() <= 128);
        for name in crate::kernels::NAMES {
            assert!(PER_LAYER.iter().any(|d| d.name == name), "{name}");
        }
    }

    #[test]
    fn checked_in_benchmark_json_is_generated_from_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let checked_in = std::fs::read_to_string(path).unwrap();
        assert_eq!(
            checked_in,
            benchmark_json(),
            "regenerate with `cargo run --manifest-path benchmark/Cargo.toml -- describe > BENCHMARK.json`"
        );
        assert!(checked_in.len() <= 64 << 10);
    }
}

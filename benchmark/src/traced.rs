//! The traced run of one workload: the in-process layer pass, a few
//! variants of the command line, and the per-layer metrics computed
//! from both. It is separate from the timed repetitions, which stay
//! untraced.

use crate::checks::{self, Ops};
use crate::layers::{self, names, LayerPass};
use crate::machine::Ceilings;
use crate::run::{Bench, Invocation};
use crate::span::{self, SpanRec};
use crate::stats::Summary;
use crate::workloads::{Kind, Shape, Workload, MERGED_FILE};
use kagen_cluster::plan_ranks;
use kagen_core::streaming::BATCH_EDGES;
use kagen_pipeline::Manifest;
use std::collections::BTreeMap;
use std::path::Path;

/// Repetitions of each command-line variant. The timed pass has seven
/// or more; these feed ratios that are reported, not gated.
const VARIANT_REPS: usize = 3;

/// Repetitions of the workload's own command, which every ratio uses.
const OWN_REPS: usize = 4;

/// Runs of the do-nothing command behind `cli.min_run_ms`.
const MIN_RUN_REPS: usize = 20;

/// Per-layer metric values by name; a metric that does not apply to the
/// workload is absent (and is printed as 0).
pub type LayerMetrics = BTreeMap<&'static str, f64>;

/// Run `args` `reps` times; the invocations that succeeded.
fn repeat(
    bench: &Bench,
    ops: &mut Ops,
    what: &str,
    reps: usize,
    args: &dyn Fn(&Path) -> Vec<String>,
) -> Vec<Invocation> {
    (0..reps)
        .filter_map(|_| bench.invoke(ops, what, args))
        .collect()
}

/// Fastest wall time of `shape`, run [`VARIANT_REPS`] times.
fn best_wall_of(bench: &Bench, ops: &mut Ops, w: &Workload, shape: &Shape) -> Option<f64> {
    let what = format!("{} {shape:?}", w.name);
    let runs = repeat(bench, ops, &what, VARIANT_REPS, &|dir| {
        w.cli(shape, bench.seed, dir)
    });
    best_wall(&runs)
}

fn best_wall(runs: &[Invocation]) -> Option<f64> {
    let walls: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
    Summary::of(&walls).map(|s| s.best())
}

fn same_manifest(dir: &Path, expected: &[u8]) -> Result<(), String> {
    let path = dir.join(kagen_pipeline::MANIFEST_FILE);
    match std::fs::read(&path) {
        Ok(bytes) if bytes == expected => Ok(()),
        Ok(_) => Err(format!("{} differs", path.display())),
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}

/// `cli.min_run_ms`: the floor under every `wall_s` (× ranks on a
/// launch) — process start, argument parsing, one empty shard, manifest.
pub fn min_run_ms(bench: &Bench, ops: &mut Ops) -> Option<f64> {
    let runs = repeat(bench, ops, "do-nothing command", MIN_RUN_REPS, &|dir| {
        let mut args: Vec<String> = "stream gnm_directed -n 2 -m 1 -c 1 -s"
            .split(' ')
            .map(str::to_string)
            .collect();
        args.extend([
            bench.seed.to_string(),
            "--shard-dir".to_string(),
            dir.to_string_lossy().into_owned(),
        ]);
        args
    });
    let walls: Vec<f64> = runs.iter().map(|r| r.wall_s * 1e3).collect();
    Summary::of(&walls).map(|s| s.median)
}

/// Layer figures that come from the spans and counters of the pass.
fn pass_metrics(pass: &LayerPass, ceilings: &Ceilings, kind: Kind, m: &mut LayerMetrics) -> f64 {
    let spans = &pass.spans;
    let own = span::self_times_ns(spans);
    let self_ns = |name: &str| span::self_total_ns(spans, &own, name) as f64;
    let edges = pass.manifest.edges.max(1) as f64;
    let shards = pass.manifest.shards.len().max(1) as f64;
    let shard_bytes: u64 = pass.shard_sizes.iter().sum();

    // core: a shard span's self time is the generator (dist, sampling,
    // geometry and delaunay included; inseparable from outside).
    let gen_ns_per_edge = self_ns(names::SHARD) / edges;
    m.insert("core.gen_ns_per_edge", gen_ns_per_edge);
    m.insert(
        "core.gen_peak_alloc_bytes",
        pass.gen_peak_alloc_bytes as f64,
    );
    let batches = pass.counter("gen.batches");
    if batches > 0 {
        m.insert(
            "core.batch_fill",
            edges / (batches as f64 * BATCH_EDGES as f64),
        );
    }
    let per_pe: Vec<f64> = spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name == names::SHARD)
        .map(|(_, &t)| t as f64)
        .collect();
    let mean = per_pe.iter().sum::<f64>() / per_pe.len().max(1) as f64;
    if mean > 0.0 {
        m.insert(
            "core.pe_imbalance",
            per_pe.iter().copied().fold(0.0, f64::max) / mean,
        );
    }

    // util: `rng.words` counts `BlockRng` refills (the ER paths); the
    // generators that hash a seed per edge draw no counted words.
    let words_per_edge = pass.counter("rng.words") as f64 / edges;
    m.insert("util.rng_words_per_edge", words_per_edge);
    if gen_ns_per_edge > 0.0 {
        m.insert(
            "util.rng_floor_frac",
            words_per_edge * ceilings.splitmix_ns_per_word / gen_ns_per_edge,
        );
    }

    let cursor_cells = pass.counter("geo.cursor_cells");
    if cursor_cells > 0 {
        let generated = pass.counter("geo.cells_generated") as f64;
        m.insert("geometry.recompute_ratio", generated / cursor_cells as f64);
        m.insert("geometry.cells_per_edge", generated / edges);
        m.insert(
            "geometry.frontier_points_peak",
            pass.counter("geo.frontier_points.peak") as f64,
        );
    }

    let encode_ns_per_edge = self_ns(names::ENCODE) / edges;
    m.insert("graph.encode_ns_per_edge", encode_ns_per_edge);
    if pass.manifest.format == "compressed" && encode_ns_per_edge > 0.0 {
        m.insert(
            "graph.encode_frac_of_ceiling",
            ceilings.varint_ns_per_edge / encode_ns_per_edge,
        );
    }

    // fs: the shard files' writes (the merged output's are inside
    // `pipeline.merge_out`), plus creating the files.
    let shard_writes = || {
        spans
            .iter()
            .filter(|s| s.name == names::WRITE && s.pe.is_some())
    };
    let write_ns = shard_writes().map(SpanRec::dur_ns).sum::<u64>() as f64;
    let fs_ns = write_ns + self_ns(names::CREATE);
    m.insert("fs.write_ns_per_edge", fs_ns / edges);
    m.insert("fs.write_calls", shard_writes().count() as f64);
    if write_ns > 0.0 {
        let mib_s = shard_bytes as f64 / (1 << 20) as f64 / (write_ns / 1e9);
        m.insert("fs.write_mib_s", mib_s);
        m.insert(
            "fs.write_frac_of_ceiling",
            mib_s / ceilings.file_write_mib_s,
        );
    }

    let checksum_ns = self_ns(names::CHECKSUM);
    m.insert("pipeline.checksum_ns_per_edge", checksum_ns / edges);
    let validate_ns = self_ns(names::VALIDATE);
    m.insert("pipeline.validate_ns_per_edge", validate_ns / edges);
    if validate_ns > 0.0 {
        m.insert(
            "pipeline.validate_mib_s",
            shard_bytes as f64 / (1 << 20) as f64 / (validate_ns / 1e9),
        );
    }
    let shard_wall_ns: u64 = spans
        .iter()
        .filter(|s| s.name == names::SHARD)
        .map(SpanRec::dur_ns)
        .sum();
    m.insert("pipeline.per_shard_us", shard_wall_ns as f64 / 1e3 / shards);
    let manifest_ns = self_ns(names::MANIFEST);
    m.insert("pipeline.manifest_save_ms", manifest_ns / 1e6);
    m.insert("pipeline.manifest_bytes", pass.manifest_bytes as f64);

    let mut merge_ns = 0.0;
    if let Some((stats, _)) = &pass.merge {
        // Whole spans: the output file's writes are part of the sink.
        let out_ns = spans
            .iter()
            .filter(|s| s.name == names::MERGE_OUT)
            .map(SpanRec::dur_ns)
            .sum::<u64>() as f64;
        merge_ns = self_ns(names::MERGE) + out_ns;
        m.insert(
            "pipeline.merge_ns_per_edge_in",
            self_ns(names::MERGE) / stats.edges_in.max(1) as f64,
        );
        m.insert(
            "pipeline.merge_out_ns_per_edge",
            out_ns / stats.edges_out.max(1) as f64,
        );
        m.insert("pipeline.merge_runs", stats.runs as f64);
        m.insert("pipeline.merge_passes", stats.merge_passes as f64);
        m.insert(
            "pipeline.merge_max_buffered_edges",
            stats.max_buffered as f64,
        );
        m.insert(
            "pipeline.merge_dedup_ratio",
            stats.edges_out as f64 / stats.edges_in.max(1) as f64,
        );
    }

    let ledger_ns = self_ns(names::LEDGER);
    if let Some(bytes) = pass.ledger_bytes {
        m.insert("cluster.ledger_save_ms", ledger_ns / 1e6);
        m.insert("cluster.ledger_bytes", bytes as f64);
    }

    // The core-nanoseconds per edge the layers account for on the path
    // the workload's own command takes: only a launch re-reads its
    // shards and keeps a ledger, only a merge workload merges.
    let launch_ns = if kind == Kind::Launch {
        validate_ns + ledger_ns
    } else {
        0.0
    };
    (self_ns(names::SHARD)
        + checksum_ns
        + self_ns(names::ENCODE)
        + fs_ns
        + manifest_ns
        + merge_ns
        + launch_ns)
        / edges
}

/// What the workload's own command left behind, read before the run
/// directory is reused.
struct CliOutput {
    manifest_bytes: Vec<u8>,
    edges: u64,
    shard_sizes: Vec<u64>,
    merged: Option<(u64, u64)>,
}

impl CliOutput {
    fn read(dir: &Path, kind: Kind) -> Result<CliOutput, String> {
        let path = dir.join(kagen_pipeline::MANIFEST_FILE);
        let manifest_bytes =
            std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let manifest = Manifest::from_json(&String::from_utf8_lossy(&manifest_bytes))?;
        Ok(CliOutput {
            edges: manifest.edges,
            shard_sizes: checks::shard_sizes(dir, &manifest)?,
            merged: match kind {
                Kind::Merge => Some(checks::merged_digest(&dir.join(MERGED_FILE))?),
                _ => None,
            },
            manifest_bytes,
        })
    }
}

fn equal<T: PartialEq + std::fmt::Debug>(cli: &T, pass: &T) -> Result<(), String> {
    if cli == pass {
        Ok(())
    } else {
        Err(format!("the CLI run has {cli:?}, the layer pass {pass:?}"))
    }
}

/// Run the traced pass of `w`: per-layer metrics by name. The Chrome
/// trace of the layer pass goes to `<out_dir>/trace-<workload>.json`.
pub fn traced(
    w: &Workload,
    bench: &Bench,
    ceilings: &Ceilings,
    out_dir: &Path,
    ops: &mut Ops,
) -> LayerMetrics {
    let mut m = LayerMetrics::new();
    let (seed, p) = (bench.seed, bench.p);
    let own = Shape::Own { p };
    let run_dir = bench.scratch.run_dir();

    // The workload's own command: the wall every ratio below divides by
    // or into, and the bytes the layer pass must reproduce.
    let what = format!("{} {own:?}", w.name);
    let runs = repeat(bench, ops, &what, OWN_REPS, &|dir| w.cli(&own, seed, dir));
    let Some(wall_p) = best_wall(&runs) else {
        return m;
    };
    let Some(cli) = ops.record("output readable", CliOutput::read(&run_dir, w.kind)) else {
        return m;
    };

    let pass = ops
        .record(
            "scratch directory",
            bench.scratch.fresh_run_dir().map_err(|e| e.to_string()),
        )
        .and_then(|dir| {
            let pass = layers::layer_pass(w, seed, p, &dir).map_err(|e| e.to_string());
            ops.record("layer pass", pass)
        });
    let Some(pass) = pass else { return m };
    ops.record(
        "layer pass manifest (edge count, per-PE checksums) equals the CLI run's",
        same_manifest(&run_dir, &cli.manifest_bytes),
    );
    ops.record(
        "layer pass shard sizes equal the CLI run's",
        equal(&cli.shard_sizes, &pass.shard_sizes),
    );
    if let Some((stats, digest)) = &pass.merge {
        ops.record(
            "merged edge count equals MergeStats::edges_out",
            equal(&stats.edges_out, &digest.0),
        );
        ops.record(
            "merged output equals the CLI run's",
            equal(&cli.merged, &Some(*digest)),
        );
    }
    let trace_path = out_dir.join(format!("trace-{}.json", w.name));
    ops.record(
        "trace file written",
        std::fs::create_dir_all(out_dir)
            .and_then(|()| {
                std::fs::write(&trace_path, span::chrome_trace_json(w.name, &pass.spans))
            })
            .map_err(|e| format!("{}: {e}", trace_path.display())),
    );
    let layer_ns_per_edge = pass_metrics(&pass, ceilings, w.kind, &mut m);
    drop(pass);

    // runtime: CPU of the whole process tree, and what the layers do
    // not explain of the P cores the command held for its wall time.
    let cpu: Vec<f64> = runs.iter().map(|r| r.cpu_s).collect();
    if let Some(cpu) = Summary::of(&cpu) {
        m.insert("runtime.cpu_s", cpu.median);
        m.insert("runtime.cpu_over_wall", cpu.median / wall_p);
    }
    let e2e_ns_per_edge = wall_p * 1e9 / cli.edges.max(1) as f64;
    m.insert(
        "runtime.unattributed_frac",
        1.0 - layer_ns_per_edge / (p as f64 * e2e_ns_per_edge),
    );

    // obs: the same command with telemetry on.
    let metrics_out = bench.scratch.path().join("metrics-out.json");
    let trace_out = bench.scratch.path().join("trace-out.json");
    let runs = repeat(bench, ops, "command with telemetry", VARIANT_REPS, &|dir| {
        let mut args = w.cli(&own, seed, dir);
        args.extend([
            "--metrics-out".to_string(),
            metrics_out.to_string_lossy().into_owned(),
            "--trace-out".to_string(),
            trace_out.to_string_lossy().into_owned(),
        ]);
        args
    });
    if let Some(wall_obs) = best_wall(&runs) {
        m.insert("obs.overhead_frac", wall_obs / wall_p - 1.0);
        ops.record(
            "telemetry leaves the manifest unchanged",
            same_manifest(&run_dir, &cli.manifest_bytes),
        );
        if let Ok(meta) = std::fs::metadata(&metrics_out) {
            m.insert("obs.metrics_bytes", meta.len() as f64);
        }
        if let Ok(text) = std::fs::read_to_string(&trace_out) {
            m.insert("obs.trace_events", text.matches("\"ph\":").count() as f64);
        }
    }

    // runtime: one thread or worker against P. With one core there is
    // nothing to compare and no scaling figure is written.
    if bench.nproc > 1 {
        if let Some(wall_1) = best_wall_of(bench, ops, w, &Shape::Own { p: 1 }) {
            m.insert("runtime.speedup_p_vs_1", wall_1 / wall_p);
            m.insert("runtime.parallel_efficiency", wall_1 / wall_p / p as f64);
        }
    }

    if w.kind == Kind::Launch {
        if let Some(wall) = best_wall_of(bench, ops, w, &Shape::NoValidate { p }) {
            m.insert("cluster.validate_frac", 1.0 - wall / wall_p);
        }
        if let Some(wall) = best_wall_of(bench, ops, w, &Shape::StreamTwin { p }) {
            m.insert("cluster.launch_over_stream", wall_p / wall);
            ops.record(
                "launch manifest byte-identical to the stream twin's",
                same_manifest(&run_dir, &cli.manifest_bytes),
            );
        }
        // Each planned rank by hand, one at a time, into one directory.
        let ranks_dir = bench.scratch.fresh_run_dir().map_err(|e| e.to_string());
        if let Some(dir) = ops.record("scratch directory", ranks_dir) {
            let walls: Vec<f64> = plan_ranks(w.chunks, p)
                .into_iter()
                .filter_map(|task| {
                    let shape = Shape::Rank {
                        rank: task.rank,
                        pes: task.pes(),
                    };
                    let run = bench.kagen.run(&w.cli(&shape, seed, &dir));
                    ops.record(&format!("{} {shape:?}", w.name), run)
                })
                .map(|run| run.wall_s)
                .collect();
            let mean = walls.iter().sum::<f64>() / walls.len().max(1) as f64;
            if mean > 0.0 {
                m.insert(
                    "cluster.rank_imbalance",
                    walls.iter().copied().fold(0.0, f64::max) / mean,
                );
            }
        }
    }
    m
}

//! Observability integration tests: telemetry must be a pure observer.
//!
//! The hard rule of `kagen_obs` (ISSUE 6): enabling metrics or tracing
//! never touches an RNG stream or an output byte. The matrix test below
//! proves it for **every** generator model by comparing shard files and
//! `manifest.json` of a telemetry-on run against a telemetry-off run,
//! byte for byte. The remaining tests pin the metrics/trace file
//! formats the CLI emits: both must parse with the repo's own JSON
//! parser, and a launch's per-rank edge counters must reconcile exactly
//! with the federated manifest.

use kagen_repro::pipeline::manifest::json;
use std::path::{Path, PathBuf};
use std::process::Command;

const KAGEN: &str = env!("CARGO_BIN_EXE_kagen");

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kagen_it_obs_{tag}"));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Run the kagen binary; returns (success, stderr).
fn kagen(args: &[&str]) -> (bool, String) {
    kagen_env(args, &[])
}

/// Run the kagen binary with extra environment variables.
fn kagen_env(args: &[&str], envs: &[(&str, &str)]) -> (bool, String) {
    let mut cmd = Command::new(KAGEN);
    cmd.args(args);
    // The tests' own environment must not leak into level-precedence
    // assertions.
    cmd.env_remove("KAGEN_LOG");
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("cannot spawn kagen");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Sorted `(file name, bytes)` of every regular file in a directory.
fn dir_contents(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .map(|entry| {
            let entry = entry.unwrap();
            (
                entry.file_name().to_string_lossy().into_owned(),
                std::fs::read(entry.path()).unwrap(),
            )
        })
        .collect();
    out.sort();
    out
}

/// Every model of the CLI, with parameters small enough that the whole
/// matrix (2 runs x N models) stays in test-suite time.
fn model_matrix() -> Vec<Vec<&'static str>> {
    vec![
        vec!["gnm_directed", "-n", "2000", "-m", "8000"],
        vec!["gnm_undirected", "-n", "2000", "-m", "8000"],
        vec!["gnp_directed", "-n", "2000", "-p", "0.002"],
        vec!["gnp_undirected", "-n", "2000", "-p", "0.004"],
        vec!["rgg2d", "-n", "2000"],
        vec!["rgg3d", "-n", "1000"],
        vec!["rdg2d", "-n", "600"],
        vec!["rdg3d", "-n", "300"],
        vec!["rhg", "-n", "2000", "-d", "8", "-g", "2.8"],
        vec!["srhg", "-n", "2000", "-d", "8", "-g", "2.8"],
        vec!["soft-rhg", "-n", "600", "-d", "8", "-g", "2.8", "-T", "0.5"],
        vec!["ba", "-n", "2000", "-d", "4"],
        vec!["rmat", "-n", "2048", "-m", "8000"],
        vec![
            "sbm", "-n", "2000", "-b", "4", "--p-in", "0.01", "--p-out", "0.001",
        ],
    ]
}

/// The tentpole guarantee, proven over the full generator matrix: a
/// `kagen stream` run with `--metrics-out` + `--trace-out` writes the
/// exact same shard bytes and `manifest.json` as a telemetry-off run.
#[test]
fn telemetry_on_off_shards_bit_identical_every_model() {
    for (i, model) in model_matrix().iter().enumerate() {
        let dir_off = tmp(&format!("det_off_{i}"));
        let dir_on = tmp(&format!("det_on_{i}"));
        let metrics = dir_on.with_extension("metrics.json");
        let trace = dir_on.with_extension("trace.json");

        let mut base: Vec<&str> = vec!["stream"];
        base.extend(model);
        base.extend(["-c", "6", "-s", "99", "--shard-dir"]);

        let mut off_args = base.clone();
        off_args.push(dir_off.to_str().unwrap());
        let (ok, stderr) = kagen(&off_args);
        assert!(ok, "{model:?} telemetry-off run failed:\n{stderr}");

        let mut on_args = base.clone();
        on_args.push(dir_on.to_str().unwrap());
        on_args.extend(["--metrics-out", metrics.to_str().unwrap()]);
        on_args.extend(["--trace-out", trace.to_str().unwrap()]);
        let (ok, stderr) = kagen(&on_args);
        assert!(ok, "{model:?} telemetry-on run failed:\n{stderr}");

        let off = dir_contents(&dir_off);
        let on = dir_contents(&dir_on);
        assert_eq!(
            off.iter().map(|(n, _)| n).collect::<Vec<_>>(),
            on.iter().map(|(n, _)| n).collect::<Vec<_>>(),
            "{model:?}: telemetry changed the file set"
        );
        for ((name, bytes_off), (_, bytes_on)) in off.iter().zip(on.iter()) {
            assert_eq!(
                bytes_off, bytes_on,
                "{model:?}: telemetry changed the bytes of {name}"
            );
        }

        // The telemetry artifacts themselves exist and parse.
        let m = std::fs::read_to_string(&metrics).expect("missing metrics file");
        json::parse(&m).unwrap_or_else(|e| panic!("{model:?}: bad metrics JSON: {e}"));
        let t = std::fs::read_to_string(&trace).expect("missing trace file");
        json::parse(&t).unwrap_or_else(|e| panic!("{model:?}: bad trace JSON: {e}"));

        std::fs::remove_dir_all(&dir_off).ok();
        std::fs::remove_dir_all(&dir_on).ok();
        std::fs::remove_file(&metrics).ok();
        std::fs::remove_file(&trace).ok();
    }
}

/// A launch-mode metrics file reconciles with its manifest: per-rank
/// edge counts (and the rank-local `gen.edges` counters from the rank
/// reports) sum to the federated edge total.
#[test]
fn launch_metrics_reconcile_with_manifest() {
    let dir = tmp("launch_metrics");
    let metrics = dir.with_extension("metrics.json");
    let (ok, stderr) = kagen(&[
        "launch",
        "gnm_undirected",
        "-n",
        "3000",
        "-m",
        "24000",
        "-c",
        "8",
        "-s",
        "42",
        "--workers",
        "3",
        "--shard-dir",
        dir.to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]);
    assert!(ok, "launch failed:\n{stderr}");

    let text = std::fs::read_to_string(&metrics).expect("missing metrics file");
    let rm = kagen_repro::cluster::RunMetrics::from_json(&text).expect("bad metrics file");
    assert_eq!(rm.model, "gnm_undirected");
    assert_eq!(rm.seed, 42);
    assert_eq!(rm.chunks, 8);
    assert_eq!(rm.ranks.len(), 3);

    let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
    let doc = json::parse(&manifest).unwrap();
    let manifest_edges = doc
        .as_obj("manifest")
        .and_then(|o| o.get("edges").and_then(|v| v.as_u64("edges")))
        .unwrap();
    assert_eq!(rm.edges, manifest_edges);

    let rank_sum: u64 = rm.ranks.iter().map(|r| r.edges).sum();
    assert_eq!(rank_sum + rm.reused_edges, manifest_edges);
    for r in &rm.ranks {
        let counters: std::collections::HashMap<_, _> =
            r.counters.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        // The rank's own generator counter agrees with its ledger edge
        // count — the report really came from that worker process.
        assert_eq!(counters.get("gen.edges"), Some(&r.edges), "{r:?}");
        assert!(counters.get("rng.words").copied().unwrap_or(0) > 0, "{r:?}");
        assert!(r.wall_us > 0, "{r:?}");
    }

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&metrics).ok();
}

/// Run `kagen stream <model>` with `--metrics-out` and return its one
/// rank's scalars, after checking them against `per_pe`, the passes the
/// same instance's PEs make in-process: `geo.cells_generated` is the sum
/// of their generated cells and the `geo.frontier_points` peak the most
/// points one PE held — every spatial pass records its `FrontierStats`
/// once, whatever its engine.
fn assert_geo_metrics(
    tag: &str,
    model: &[&str],
    per_pe: &[kagen_repro::geometry::FrontierStats],
) -> std::collections::HashMap<String, u64> {
    let dir = tmp(tag);
    let metrics = dir.with_extension("metrics.json");
    let mut argv = vec!["stream"];
    argv.extend(model);
    argv.extend(["-t", "2", "--shard-dir", dir.to_str().unwrap()]);
    argv.extend(["--metrics-out", metrics.to_str().unwrap()]);
    let (ok, stderr) = kagen(&argv);
    assert!(ok, "stream failed:\n{stderr}");
    let text = std::fs::read_to_string(&metrics).expect("missing metrics file");
    let rm = kagen_repro::cluster::RunMetrics::from_json(&text).expect("bad metrics file");
    let counters: std::collections::HashMap<_, _> = rm.ranks[0].counters.iter().cloned().collect();
    let counter = |name: &str| {
        *counters
            .get(name)
            .unwrap_or_else(|| panic!("no counter {name}"))
    };
    assert_eq!(
        counter("geo.cells_generated"),
        per_pe.iter().map(|s| s.generated_cells).sum::<u64>(),
        "{tag}"
    );
    assert_eq!(
        counter("geo.frontier_points.peak"),
        per_pe.iter().map(|s| s.peak_points).max().unwrap(),
        "{tag}"
    );
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&metrics).ok();
    counters
}

/// The RHG query engine has no evicting frontier, but reports under the
/// same `geo.*` names: cells generated (each touched cell once per PE)
/// and, as the `geo.frontier_points` peak, the most points one PE held.
#[test]
fn rhg_stream_metrics_count_cells_generated_and_points_held() {
    use kagen_repro::core::prelude::*;
    let gen = Rhg::new(4000, 8.0, 2.8).with_seed(5).with_chunks(16);
    let per_pe: Vec<_> = (0..16)
        .map(|pe| gen.stream_query(pe, &mut |_, _| {}))
        .collect();
    let model = [
        "rhg", "-n", "4000", "-d", "8", "-g", "2.8", "-c", "16", "-s", "5",
    ];
    assert_geo_metrics("rhg_geo", &model, &per_pe);
}

/// RGG's sweep reports under the same names: cells generated (own range
/// and halo, each once per PE) and the most points its frontier and halo
/// ring held at once.
#[test]
fn rgg_stream_metrics_count_cells_generated_and_points_held() {
    use kagen_repro::core::prelude::*;
    let gen = Rgg2d::new(20_000, 0.02).with_seed(5).with_chunks(16);
    let per_pe: Vec<_> = (0..16)
        .map(|pe| gen.stream_cells(pe, &mut |_, _| {}))
        .collect();
    let model = ["rgg2d", "-n", "20000", "-r", "0.02", "-c", "16", "-s", "5"];
    let counters = assert_geo_metrics("rgg_geo", &model, &per_pe);
    // Every cell is some PE's own; the halo ring is generated on top.
    let cursor = counters["geo.cursor_cells"];
    assert!(
        cursor < counters["geo.cells_generated"],
        "{cursor} range cells"
    );
}

/// RDG counts the triangulation work behind its stream: points inserted
/// (`geo.delaunay_inserts`, every halo ring a box needed included) and
/// certification attempts. Every point is inserted into its own box at
/// least once, and one box per block keeps the benchmark's
/// `rdg2d_stream` instance below one insert per emitted edge — ⅓ is the
/// planar ideal, the rest is halo; a box per cell paid 2.9. Its cells
/// and the most points one block held with its halo are under `geo.*`,
/// as for the other spatial passes.
#[test]
fn rdg_stream_metrics_count_inserts() {
    use kagen_repro::core::prelude::*;
    let gen = Rdg2d::new(40_000).with_seed(5).with_chunks(64);
    let mut edges = 0u64;
    let per_pe: Vec<_> = (0..64)
        .map(|pe| gen.stream_cells(pe, &mut |_, _| edges += 1))
        .collect();
    let model = ["rdg2d", "-n", "40000", "-c", "64", "-s", "5"];
    let counters = assert_geo_metrics("rdg_geo", &model, &per_pe);
    let counter = |name: &str| counters[name];
    assert_eq!(counter("gen.edges"), edges);
    let inserts = counter("geo.delaunay_inserts");
    assert!(
        (40_000..=edges).contains(&inserts),
        "{inserts} inserts for 40000 points and {edges} edges"
    );
    let attempts = counter("geo.delaunay_attempts");
    assert!(0 < attempts && attempts <= inserts, "{attempts} attempts");
}

/// `gen.ba.draws / gen.edges` is BA's attachment-chain length per edge:
/// a drawn position is even every other time, so two draws on average
/// — and counting them leaves the shard bytes alone.
#[test]
fn ba_stream_metrics_count_draws_per_edge() {
    let dir = tmp("ba_draws");
    let plain = tmp("ba_draws_plain");
    let metrics = dir.with_extension("metrics.json");
    let model = ["stream", "ba", "-n", "100000", "-d", "8", "-t", "2"];
    let run = |extra: &[&str]| {
        let (ok, stderr) = kagen(&[&model[..], extra].concat());
        assert!(ok, "stream failed:\n{stderr}");
    };
    run(&[
        "--shard-dir",
        dir.to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]);
    run(&["--shard-dir", plain.to_str().unwrap()]);
    assert_eq!(dir_contents(&dir), dir_contents(&plain));

    let text = std::fs::read_to_string(&metrics).expect("missing metrics file");
    let rm = kagen_repro::cluster::RunMetrics::from_json(&text).expect("bad metrics file");
    let counter = |name: &str| {
        let found = rm.ranks[0].counters.iter().find(|(n, _)| n == name);
        found.unwrap_or_else(|| panic!("no counter {name}")).1
    };
    assert_eq!(counter("gen.edges"), 800_000);
    let chain = counter("gen.ba.draws") as f64 / 800_000.0;
    assert!((1.98..=2.02).contains(&chain), "{chain} draws per edge");

    for path in [&dir, &plain] {
        std::fs::remove_dir_all(path).ok();
    }
    std::fs::remove_file(&metrics).ok();
}

/// Launch shard output is byte-identical with and without telemetry —
/// the multi-process twin of the stream-mode matrix (workers enable
/// metrics when handed `--metrics-sidecar`, and must still write the
/// same shards).
#[test]
fn launch_telemetry_on_off_bit_identical() {
    let dir_off = tmp("launch_det_off");
    let dir_on = tmp("launch_det_on");
    let metrics = dir_on.with_extension("metrics.json");
    let base = |dir: &str| {
        vec![
            "launch".to_string(),
            "gnm_undirected".into(),
            "-n".into(),
            "3000".into(),
            "-m".into(),
            "24000".into(),
            "-c".into(),
            "8".into(),
            "-s".into(),
            "42".into(),
            "--workers".into(),
            "3".into(),
            "--shard-dir".into(),
            dir.to_string(),
        ]
    };
    let off_args = base(dir_off.to_str().unwrap());
    let (ok, stderr) = kagen(&off_args.iter().map(|s| s.as_str()).collect::<Vec<_>>());
    assert!(ok, "telemetry-off launch failed:\n{stderr}");

    let mut on_args = base(dir_on.to_str().unwrap());
    on_args.extend(["--metrics-out".into(), metrics.to_str().unwrap().into()]);
    let (ok, stderr) = kagen(&on_args.iter().map(|s| s.as_str()).collect::<Vec<_>>());
    assert!(ok, "telemetry-on launch failed:\n{stderr}");

    // Compare shards + manifest; the ledger records wall-clock times and
    // the on-run's metrics file lives outside the shard dir.
    let keep = |name: &str| name.ends_with(".kgc") || name == "manifest.json";
    let off: Vec<_> = dir_contents(&dir_off)
        .into_iter()
        .filter(|(n, _)| keep(n))
        .collect();
    let on: Vec<_> = dir_contents(&dir_on)
        .into_iter()
        .filter(|(n, _)| keep(n))
        .collect();
    assert!(!off.is_empty());
    assert_eq!(off, on, "telemetry changed launch output bytes");

    std::fs::remove_dir_all(&dir_off).ok();
    std::fs::remove_dir_all(&dir_on).ok();
    std::fs::remove_file(&metrics).ok();
}

/// The Chrome trace file is a `{"traceEvents": [...]}` document whose
/// events carry the fields the Perfetto/chrome://tracing loaders
/// require, including the phase spans of a launch run.
#[test]
fn trace_file_is_wellformed_chrome_json() {
    let dir = tmp("trace_shape");
    let trace = dir.with_extension("trace.json");
    let (ok, stderr) = kagen(&[
        "stream",
        "gnm_undirected",
        "-n",
        "2000",
        "-m",
        "8000",
        "-c",
        "4",
        "--merge",
        "external",
        "--shard-dir",
        dir.to_str().unwrap(),
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    assert!(ok, "stream failed:\n{stderr}");

    let text = std::fs::read_to_string(&trace).unwrap();
    let doc = json::parse(&text).unwrap();
    let events = doc
        .as_obj("trace")
        .and_then(|o| o.get("traceEvents").cloned())
        .unwrap();
    let json::Value::Arr(events) = events else {
        panic!("traceEvents is not an array");
    };
    assert!(!events.is_empty(), "no spans recorded");
    let mut names = Vec::new();
    for ev in &events {
        let obj = ev.as_obj("event").unwrap();
        // "X" complete events: name, category, timestamp, duration,
        // process and thread id are all mandatory for the viewers.
        for key in ["name", "cat", "ph", "ts", "dur", "pid", "tid"] {
            assert!(obj.get(key).is_ok(), "event missing {key}: {ev:?}");
        }
        match obj.get("name").unwrap() {
            json::Value::Str(s) => names.push(s.clone()),
            other => panic!("non-string event name: {other:?}"),
        }
        match obj.get("ph").unwrap() {
            json::Value::Str(s) => assert_eq!(s, "X"),
            other => panic!("non-string ph: {other:?}"),
        }
    }
    assert!(
        names.iter().any(|n| n == "stream.write_shards"),
        "missing write span in {names:?}"
    );
    assert!(
        names.iter().any(|n| n == "stream.merge"),
        "missing merge span in {names:?}"
    );

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&trace).ok();
}

/// `kagen <model> --trace-out` records its two phases, generating and
/// writing, one span each and in that order.
#[test]
fn materialize_trace_records_generate_then_write() {
    let dir = tmp("materialize_trace");
    std::fs::create_dir_all(&dir).unwrap();
    let (out, trace) = (dir.join("g.txt"), dir.join("t.json"));
    let (ok, stderr) = kagen(&[
        "gnm_undirected",
        "-n",
        "2000",
        "-m",
        "8000",
        "-o",
        out.to_str().unwrap(),
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    assert!(ok, "materialize failed:\n{stderr}");
    let doc = json::parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
    let events = doc.as_obj("trace").unwrap().get("traceEvents").unwrap();
    let mut spans: Vec<(u64, String)> = events
        .as_arr("traceEvents")
        .unwrap()
        .iter()
        .map(|e| {
            let e = e.as_obj("event").unwrap();
            let ts = e.get("ts").unwrap().as_u64("ts").unwrap();
            (ts, e.get("name").unwrap().as_str("name").unwrap().into())
        })
        .collect();
    spans.sort();
    let names: Vec<&str> = spans.iter().map(|(_, name)| name.as_str()).collect();
    assert_eq!(names, ["materialize.generate", "materialize.write"]);
    std::fs::remove_dir_all(&dir).ok();
}

/// The external merge's telemetry surface: the `merge.*` scalars of
/// `--metrics-out` — `merge.runs` counts spill files, `merge.passes` the
/// re-partition depth — and the three phase spans inside `stream.merge`,
/// one `sort` span per sorter thread.
#[test]
fn merge_metrics_and_spans_are_the_documented_set() {
    let dir = tmp("merge_surface");
    let metrics = dir.with_extension("metrics.json");
    let trace = dir.with_extension("trace.json");
    // 4096 edges of budget are two threads' worth and under a third of the keys.
    let (ok, stderr) = kagen(&[
        "stream",
        "gnm_undirected",
        "-n",
        "2000",
        "-m",
        "8000",
        "-c",
        "4",
        "-t",
        "2",
        "--merge",
        "external",
        "--merge-budget",
        "4096",
        "--shard-dir",
        dir.to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    assert!(ok, "stream failed:\n{stderr}");
    assert!(
        stderr.contains("buckets spilled (") && stderr.contains(" bytes), peak buffer "),
        "the merge line reports buckets and spill bytes:\n{stderr}"
    );

    let text = std::fs::read_to_string(&metrics).expect("missing metrics file");
    let rm = kagen_repro::cluster::RunMetrics::from_json(&text).expect("bad metrics file");
    let merge: Vec<(&str, u64)> = rm.ranks[0]
        .counters
        .iter()
        .filter(|(n, _)| n.starts_with("merge."))
        .map(|(n, v)| (n.as_str(), *v))
        .collect();
    let names: Vec<&str> = merge.iter().map(|(n, _)| *n).collect();
    assert_eq!(
        names,
        [
            "merge.edges_in",
            "merge.edges_out",
            "merge.max_buffered.peak",
            "merge.passes",
            "merge.runs",
            "merge.spill_bytes"
        ]
    );
    let value = |name: &str| merge.iter().find(|(n, _)| *n == name).unwrap().1;
    assert_eq!(value("merge.edges_in"), rm.edges);
    assert_eq!(value("merge.edges_out"), 8000);
    assert!(value("merge.max_buffered.peak") <= 4096);
    assert_eq!(value("merge.passes"), 0);
    assert!((1..=128).contains(&value("merge.runs")));
    // Half the byte budget keeps 4096 eight-byte keys in memory — or a
    // few less: two workers take room a whole piece at a time.
    let spilled = value("merge.spill_bytes");
    assert!(spilled >= 8 * (rm.edges - 4096) && spilled <= 8 * rm.edges);

    let text = std::fs::read_to_string(&trace).unwrap();
    let doc = json::parse(&text).unwrap();
    let events = doc.as_obj("trace").unwrap().get("traceEvents").unwrap();
    let json::Value::Arr(events) = events else {
        panic!("traceEvents is not an array");
    };
    // (name, start, end) of the merge's spans.
    let mut spans = Vec::new();
    for ev in events {
        let obj = ev.as_obj("event").unwrap();
        let json::Value::Str(name) = obj.get("name").unwrap() else {
            panic!("non-string event name");
        };
        if name.starts_with("stream.merge") {
            let num = |key: &str| obj.get(key).unwrap().as_u64(key).unwrap();
            spans.push((name.clone(), num("ts"), num("ts") + num("dur")));
        }
    }
    spans.sort();
    let names: Vec<&str> = spans.iter().map(|(n, _, _)| n.as_str()).collect();
    assert_eq!(
        names,
        [
            "stream.merge",
            "stream.merge.emit",
            "stream.merge.partition",
            "stream.merge.sort",
            "stream.merge.sort"
        ]
    );
    let (_, begin, end) = spans[0];
    let partition_end = spans[2].2;
    for (name, from, to) in &spans[1..] {
        assert!(begin <= *from && *to <= end, "{name} outside stream.merge");
        assert!(
            name == "stream.merge.partition" || partition_end <= *from + 1,
            "{name} began before the partition ended"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&metrics).ok();
    std::fs::remove_file(&trace).ok();
}

/// Flag plumbing: telemetry flags are rejected exactly where they make
/// no sense, before anything is generated or spawned.
#[test]
fn telemetry_flag_validation() {
    let cases: &[(&[&str], &str)] = &[
        (
            &["gnm_undirected", "--metrics-out", "/tmp/x.json"],
            "--metrics-out requires",
        ),
        (
            &["gnm_undirected", "--metrics-sidecar"],
            "--metrics-sidecar requires",
        ),
        (
            &["gnm_undirected", "--trace-sidecar"],
            "--trace-sidecar requires",
        ),
        (&["gnm_undirected", "--heartbeat"], "--heartbeat requires"),
        (
            &[
                "stream",
                "gnm_undirected",
                "--shard-dir",
                "/tmp/x",
                "--progress",
                "1",
            ],
            "--progress requires",
        ),
        (
            &[
                "worker",
                "gnm_undirected",
                "--shard-dir",
                "/tmp/x",
                "--pe-range",
                "0..2",
                "--stall-timeout",
                "5",
            ],
            "--stall-timeout requires",
        ),
        (
            &[
                "launch",
                "gnm_undirected",
                "--shard-dir",
                "/tmp/x",
                "--heartbeat",
            ],
            "--heartbeat requires",
        ),
        (
            &[
                "launch",
                "gnm_undirected",
                "--shard-dir",
                "/tmp/x",
                "--stall-timeout",
                "0",
            ],
            "--stall-timeout wants a positive",
        ),
        (
            &[
                "launch",
                "gnm_undirected",
                "--shard-dir",
                "/tmp/x",
                "--progress",
                "-1",
            ],
            "--progress wants a positive",
        ),
    ];
    for (args, needle) in cases {
        let (ok, stderr) = kagen(args);
        assert!(!ok, "{args:?} must be rejected");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
    }
}

/// The tentpole acceptance shape: a 3-worker launch with `--trace-out`
/// produces ONE JSON document containing the coordinator's spans plus
/// every worker's spans under distinct pids, a `process_name` metadata
/// row per process, and flow events linking each supervisor `rank-N`
/// span to its worker's process-level span.
#[test]
fn launch_federated_trace_has_rank_rows_and_flows() {
    let dir = tmp("fed_trace");
    let trace = dir.with_extension("trace.json");
    let (ok, stderr) = kagen(&[
        "launch",
        "gnm_undirected",
        "-n",
        "3000",
        "-m",
        "24000",
        "-c",
        "8",
        "-s",
        "42",
        "--workers",
        "3",
        "--shard-dir",
        dir.to_str().unwrap(),
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    assert!(ok, "launch failed:\n{stderr}");

    let text = std::fs::read_to_string(&trace).expect("missing federated trace");
    let doc = json::parse(&text).unwrap();
    let events = doc
        .as_obj("trace")
        .unwrap()
        .get("traceEvents")
        .unwrap()
        .as_arr("traceEvents")
        .unwrap()
        .to_vec();

    let field = |ev: &json::Value, key: &str| -> Option<json::Value> {
        ev.as_obj("event").ok()?.get(key).ok().cloned()
    };
    let str_field = |ev: &json::Value, key: &str| -> Option<String> {
        match field(ev, key) {
            Some(json::Value::Str(s)) => Some(s),
            _ => None,
        }
    };
    let u64_field = |ev: &json::Value, key: &str| -> Option<u64> {
        field(ev, key).and_then(|v| v.as_u64(key).ok())
    };

    // One process_name metadata row per process: the coordinator and
    // each of the three ranks, all on distinct pids.
    let proc_names: Vec<String> = events
        .iter()
        .filter(|e| str_field(e, "name").as_deref() == Some("process_name"))
        .filter_map(|e| {
            e.as_obj("event")
                .ok()?
                .get("args")
                .ok()?
                .as_obj("args")
                .ok()?
                .get("name")
                .ok()
                .and_then(|v| v.as_str("name").ok().map(String::from))
        })
        .collect();
    assert!(
        proc_names.iter().any(|n| n.contains("coordinator")),
        "{proc_names:?}"
    );
    for rank in 0..3 {
        assert!(
            proc_names
                .iter()
                .any(|n| n.starts_with(&format!("rank {rank} worker"))),
            "missing rank {rank} metadata row: {proc_names:?}"
        );
    }
    let pids: std::collections::HashSet<u64> =
        events.iter().filter_map(|e| u64_field(e, "pid")).collect();
    assert!(pids.len() >= 4, "want 4 distinct pids, got {pids:?}");

    // Every worker's process-level span made it in (one per rank, each
    // from a different process than the coordinator's spans).
    let coord_pid = events
        .iter()
        .find(|e| str_field(e, "name").as_deref() == Some("launch.supervise"))
        .and_then(|e| u64_field(e, "pid"))
        .expect("coordinator supervise span missing");
    let worker_pids: std::collections::HashSet<u64> = events
        .iter()
        .filter(|e| str_field(e, "name").as_deref() == Some("worker.generate"))
        .filter_map(|e| u64_field(e, "pid"))
        .collect();
    assert_eq!(worker_pids.len(), 3, "one worker.generate span per rank");
    assert!(!worker_pids.contains(&coord_pid));

    // The coordinator's phases, one span each, in order.
    let mut phases: Vec<(u64, String)> = events
        .iter()
        .filter(|e| u64_field(e, "pid") == Some(coord_pid))
        .filter_map(|e| Some((u64_field(e, "ts")?, str_field(e, "name")?)))
        .filter(|(_, name)| name.starts_with("launch."))
        .collect();
    phases.sort();
    let phases: Vec<&str> = phases.iter().map(|(_, name)| name.as_str()).collect();
    assert_eq!(
        phases,
        [
            "launch.prepare",
            "launch.supervise",
            "launch.validate",
            "launch.federate"
        ]
    );

    // Flow arrows: an `s`/`f` pair per rank, start on the coordinator
    // pid, finish on a worker pid.
    for rank in 0u64..3 {
        let flows: Vec<&json::Value> = events
            .iter()
            .filter(|e| {
                str_field(e, "cat").as_deref() == Some("flow") && u64_field(e, "id") == Some(rank)
            })
            .collect();
        let phs: Vec<String> = flows.iter().filter_map(|e| str_field(e, "ph")).collect();
        assert!(
            phs.contains(&"s".to_string()) && phs.contains(&"f".to_string()),
            "rank {rank} flow pair missing: {phs:?}"
        );
        for f in &flows {
            match str_field(f, "ph").as_deref() {
                Some("s") => assert_eq!(u64_field(f, "pid"), Some(coord_pid)),
                Some("f") => assert!(worker_pids.contains(&u64_field(f, "pid").unwrap())),
                other => panic!("unexpected flow phase {other:?}"),
            }
        }
    }

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&trace).ok();
}

/// The PR-6 byte-identity rule extended to the full PR-8 surface: a
/// launch with heartbeats, stall watchdog, progress lines, metrics
/// federation AND trace federation all on writes the exact same shard
/// bytes and manifest as a telemetry-off launch.
#[test]
fn launch_full_telemetry_still_byte_identical() {
    let dir_off = tmp("fulltel_off");
    let dir_on = tmp("fulltel_on");
    let metrics = dir_on.with_extension("metrics.json");
    let trace = dir_on.with_extension("trace.json");
    let base = |dir: &str| {
        vec![
            "launch".to_string(),
            "gnm_undirected".into(),
            "-n".into(),
            "3000".into(),
            "-m".into(),
            "24000".into(),
            "-c".into(),
            "8".into(),
            "-s".into(),
            "42".into(),
            "--workers".into(),
            "3".into(),
            "--shard-dir".into(),
            dir.to_string(),
        ]
    };
    let off_args = base(dir_off.to_str().unwrap());
    let (ok, stderr) = kagen(&off_args.iter().map(|s| s.as_str()).collect::<Vec<_>>());
    assert!(ok, "telemetry-off launch failed:\n{stderr}");

    let mut on_args = base(dir_on.to_str().unwrap());
    on_args.extend([
        "--metrics-out".into(),
        metrics.to_str().unwrap().into(),
        "--trace-out".into(),
        trace.to_str().unwrap().into(),
        "--progress".into(),
        "0.2".into(),
        "--stall-timeout".into(),
        "30".into(),
    ]);
    let (ok, stderr) = kagen(&on_args.iter().map(|s| s.as_str()).collect::<Vec<_>>());
    assert!(ok, "full-telemetry launch failed:\n{stderr}");

    let keep = |name: &str| name.ends_with(".kgc") || name == "manifest.json";
    let off: Vec<_> = dir_contents(&dir_off)
        .into_iter()
        .filter(|(n, _)| keep(n))
        .collect();
    let on: Vec<_> = dir_contents(&dir_on)
        .into_iter()
        .filter(|(n, _)| keep(n))
        .collect();
    assert!(!off.is_empty());
    assert_eq!(off, on, "full telemetry changed launch output bytes");

    // Shards, manifest and ledger only: heartbeats and rank reports are
    // consumed by the coordinator.
    for (name, _) in dir_contents(&dir_on) {
        assert!(
            keep(&name) || name == "ledger.json",
            "telemetry file left behind: {name}"
        );
    }

    std::fs::remove_dir_all(&dir_off).ok();
    std::fs::remove_dir_all(&dir_on).ok();
    std::fs::remove_file(&metrics).ok();
    std::fs::remove_file(&trace).ok();
}

/// kagen-metrics/v3 records each fact once. The run document has no
/// `histograms` member: a rank's wall time is its `wall_us`, and each
/// shard write is one `pipeline.write_shard` span of the federated
/// trace, on the pid of the worker that wrote it. Per-rank `gen.edges`
/// equals the rank's `edges`, and `totals` sums the ranks.
#[test]
fn launch_metrics_v3_and_trace_record_each_shard_write_once() {
    let dir = tmp("metrics_v3");
    let metrics = dir.with_extension("metrics.json");
    let trace = dir.with_extension("trace.json");
    let (ok, stderr) = kagen(&[
        "launch",
        "gnm_undirected",
        "-n",
        "3000",
        "-m",
        "24000",
        "-c",
        "8",
        "-s",
        "42",
        "--workers",
        "3",
        "--shard-dir",
        dir.to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    assert!(ok, "launch failed:\n{stderr}");

    let text = std::fs::read_to_string(&metrics).expect("missing metrics file");
    assert!(text.contains("\"schema\":\"kagen-metrics/v3\""), "{text}");
    assert!(!text.contains("histograms"), "{text}");
    let rm = kagen_repro::cluster::RunMetrics::from_json(&text).expect("bad metrics file");
    assert_eq!(rm.ranks.len(), 3);
    let mut want: std::collections::HashMap<String, u64> = Default::default();
    for r in &rm.ranks {
        let edges = r.counters.iter().find(|(n, _)| n == "gen.edges");
        assert_eq!(edges.map(|(_, v)| *v), Some(r.edges), "{r:?}");
        for (name, v) in &r.counters {
            *want.entry(name.clone()).or_default() += v;
        }
    }
    let doc = json::parse(&text).unwrap();
    let totals = doc.as_obj("metrics").unwrap().get("totals").unwrap();
    let totals: std::collections::HashMap<String, u64> = totals
        .as_obj("totals")
        .unwrap()
        .fields()
        .iter()
        .map(|(n, v)| (n.clone(), v.as_u64(n).unwrap()))
        .collect();
    assert_eq!(totals, want);
    assert_eq!(totals["gen.edges"], rm.edges - rm.reused_edges);

    // Every PE's shard write is one span, on one of the three worker pids.
    let text = std::fs::read_to_string(&trace).expect("missing federated trace");
    let doc = json::parse(&text).unwrap();
    let events = doc.as_obj("trace").unwrap().arr("traceEvents").unwrap();
    let pid_of = |name: &str| -> Vec<u64> {
        let named = events.iter().map(|e| e.as_obj("event").unwrap());
        named
            .filter(|e| e.str("name").ok() == Some(name))
            .map(|e| e.u64("pid").unwrap())
            .collect()
    };
    let worker_pids: std::collections::HashSet<u64> =
        pid_of("worker.generate").into_iter().collect();
    assert_eq!(worker_pids.len(), 3, "one worker.generate span per rank");
    let writes = pid_of("pipeline.write_shard");
    assert_eq!(writes.len(), 8, "every PE's shard write is one span");
    assert!(
        writes.iter().all(|pid| worker_pids.contains(pid)),
        "{writes:?}"
    );

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&metrics).ok();
    std::fs::remove_file(&trace).ok();
}

/// A standalone `kagen worker --pe-range a..b` (hand-run ranks over a
/// shared filesystem) accepts `--metrics-out`/`--trace-out` directly
/// and writes its counters document and its span document
/// to those paths, plus a heartbeat file under `--heartbeat`; its rank
/// report carries telemetry only under the two `--*-sidecar` switches.
#[test]
fn worker_standalone_telemetry_files() {
    let dir = tmp("worker_standalone");
    let metrics = dir.with_extension("metrics.json");
    let trace = dir.with_extension("trace.json");
    let (ok, stderr) = kagen(&[
        "worker",
        "gnm_undirected",
        "-n",
        "3000",
        "-m",
        "24000",
        "-c",
        "8",
        "-s",
        "42",
        "--shard-dir",
        dir.to_str().unwrap(),
        "--pe-range",
        "2..5",
        "--heartbeat",
        "--metrics-out",
        metrics.to_str().unwrap(),
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    assert!(ok, "standalone worker failed:\n{stderr}");

    // Metrics: the same counters payload the coordinator federates,
    // with live values from this rank.
    let m = std::fs::read_to_string(&metrics).expect("missing metrics file");
    let doc = json::parse(&m).unwrap();
    let counters = doc
        .as_obj("sidecar")
        .unwrap()
        .get("counters")
        .unwrap()
        .as_obj("counters")
        .unwrap();
    assert_eq!(
        counters
            .get("worker.pes_done")
            .unwrap()
            .as_u64("worker.pes_done")
            .unwrap(),
        3,
        "{m}"
    );
    assert!(!m.contains("histograms"), "{m}");

    // Trace: a valid Chrome document that federation could load
    // (schema + pid + wall anchor), containing the worker span.
    let t = std::fs::read_to_string(&trace).expect("missing trace file");
    assert!(t.contains("\"schema\":\"kagen-trace-sidecar/v1\""), "{t}");
    assert!(t.contains("\"epoch_unix_us\":"), "{t}");
    assert!(t.contains("worker.generate"), "{t}");
    json::parse(&t).unwrap();

    // The rank report is the plain three-member document: nobody asked
    // for telemetry *in the report*.
    let report = std::fs::read_to_string(dir.join("part-00002-00005.json")).unwrap();
    let report = kagen_repro::pipeline::PartialManifest::from_json(&report).unwrap();
    assert_eq!(report.shards.len(), 3);
    assert!(report.metrics.is_none() && report.trace.is_none());

    // Heartbeat: the final beat reports the done stage and the full
    // range (standalone workers leave it as their liveness record; in a
    // launch the coordinator removes it).
    let hb = std::fs::read_to_string(dir.join("part-00002-00005.heartbeat.json"))
        .expect("missing heartbeat file");
    assert!(hb.contains("\"stage\":\"done\""), "{hb}");
    assert!(hb.contains("\"pes_done\":3"), "{hb}");

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&metrics).ok();
    std::fs::remove_file(&trace).ok();
}

/// KAGEN_LOG sets the default level, `-v`/`-q` win over it, and an
/// invalid KAGEN_LOG value is ignored rather than fatal.
#[test]
fn kagen_log_env_and_flag_precedence() {
    let dir = tmp("log_env");
    let argv = |extra: &[&'static str]| -> Vec<&str> {
        let mut a: Vec<&str> = vec![
            "stream",
            "gnm_undirected",
            "-n",
            "1000",
            "-m",
            "4000",
            "-c",
            "4",
            "--shard-dir",
        ];
        a.push(dir.to_str().unwrap());
        a.extend_from_slice(extra);
        a
    };

    // KAGEN_LOG=error silences the Info summary.
    std::fs::remove_dir_all(&dir).ok();
    let (ok, stderr) = kagen_env(&argv(&[]), &[("KAGEN_LOG", "error")]);
    assert!(ok);
    assert!(!stderr.contains("wrote 4 shards"), "{stderr}");

    // ...but an explicit -v flag wins over the env default.
    std::fs::remove_dir_all(&dir).ok();
    let (ok, stderr) = kagen_env(&argv(&["-v"]), &[("KAGEN_LOG", "error")]);
    assert!(ok);
    assert!(stderr.contains("wrote 4 shards"), "{stderr}");

    // Malformed env values are ignored: the default Info level stays.
    for bad in ["bogus", "5", "-1", "in fo"] {
        std::fs::remove_dir_all(&dir).ok();
        let (ok, stderr) = kagen_env(&argv(&[]), &[("KAGEN_LOG", bad)]);
        assert!(ok, "KAGEN_LOG={bad} must not be fatal:\n{stderr}");
        assert!(
            stderr.contains("wrote 4 shards"),
            "KAGEN_LOG={bad} must fall back to Info: {stderr}"
        );
    }

    // Worker log lines keep their rank-attributable prefix.
    std::fs::remove_dir_all(&dir).ok();
    let (ok, stderr) = kagen(&[
        "worker",
        "gnm_undirected",
        "-n",
        "1000",
        "-m",
        "4000",
        "-c",
        "4",
        "--shard-dir",
        dir.to_str().unwrap(),
        "--pe-range",
        "0..2",
        "--rank",
        "7",
    ]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("kagen worker rank 7: "), "{stderr}");

    std::fs::remove_dir_all(&dir).ok();
}

/// `-q` silences the Info-level summary lines; `-v` keeps them and adds
/// Debug detail. The machine-parseable summary only moves levels, never
/// changes content.
#[test]
fn verbosity_flags_gate_log_lines() {
    let dir = tmp("verbosity");
    let argv = |extra: &[&'static str]| -> Vec<&str> {
        let mut a: Vec<&str> = vec![
            "stream",
            "gnm_undirected",
            "-n",
            "1000",
            "-m",
            "4000",
            "-c",
            "4",
            "--shard-dir",
        ];
        a.push(dir.to_str().unwrap());
        a.extend_from_slice(extra);
        a
    };

    std::fs::remove_dir_all(&dir).ok();
    let (ok, stderr) = kagen(&argv(&[]));
    assert!(ok);
    assert!(stderr.contains("wrote 4 shards"), "{stderr}");

    std::fs::remove_dir_all(&dir).ok();
    let (ok, stderr) = kagen(&argv(&["-q"]));
    assert!(ok);
    assert!(
        !stderr.contains("wrote 4 shards"),
        "-q must silence the info summary: {stderr}"
    );

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&dir).ok();
}

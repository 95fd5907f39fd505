//! `kagen` — command-line graph generation, mirroring the reference
//! KaGen application, plus the bounded-memory streaming pipeline and the
//! multi-process cluster launcher. `kagen --help` prints the models and
//! every option per mode; both are generated from the tables in
//! `kagen_repro::cli`, which also parse, validate and forward them.

use kagen_obs::{info, trace, Gauge, Staged};
use kagen_repro::cli::{self, Format, Merge, Mode, Options};
use kagen_repro::cluster::metrics::{RankMetrics, RunMetrics};
use kagen_repro::core::prelude::*;
use kagen_repro::graph::io::write_metis;
use kagen_repro::pipeline::{
    DegreeStatsSink, EdgeSink, ExternalMerge, InstanceMeta, PartialManifest, ShardFormat,
    ShardReader, StreamConfig, TeeSink,
};
use kagen_repro::util::alloc::CountingAlloc;
use std::fmt::Display;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Count allocations binary-wide so `--metrics-out` can report a peak
/// RSS proxy per stage. Pure accounting on top of the system allocator;
/// the obs gauges below read it only at stage boundaries.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Peak heap bytes of the shard-writing stage, above the stage-entry
/// baseline.
static ALLOC_PEAK_GENERATE: Gauge = Gauge::new("alloc.peak_bytes.generate");
/// Peak heap bytes of the external-merge stage.
static ALLOC_PEAK_MERGE: Gauge = Gauge::new("alloc.peak_bytes.merge");
/// Live heap bytes when the run finished.
static ALLOC_LIVE_END: Gauge = Gauge::new("alloc.live_bytes.end");

/// `<what>: <the error>`, keeping the error's kind: how every I/O
/// failure of the front-end names the path it failed on.
fn context(what: impl Display) -> impl FnOnce(io::Error) -> io::Error {
    move |e| io::Error::new(e.kind(), format!("{what}: {e}"))
}

/// Materializing mode: generate, merge in RAM, write one file.
fn run_materialized(o: &Options) -> io::Result<()> {
    let gen = o.build();
    let gen_span = trace::span("materialize.generate");
    let gen = gen.as_ref();
    let el = generate_merged(gen, o.threads);
    let gen_secs = gen_span.finish();

    if o.stats {
        let mut deg = DegreeStatsSink::new(el.n, gen.directed());
        deg.push_batch(&el.edges);
        let suffix = format!(", generated in {gen_secs:.3}s");
        print_degree_summary(el.n, el.edges.len() as u64, &deg, &suffix);
    }

    let write_span = trace::span("materialize.write");
    let (out, output, name): (Box<dyn Write>, _, &str) = match &o.output {
        Some(path) => {
            // Staged: a failed run leaves no file a reader could take
            // for an empty graph.
            let (file, output) = Staged::create(Path::new(path))
                .map_err(context(format_args!("cannot create {path}")))?;
            (Box::new(file), Some(output), path)
        }
        None => (Box::new(io::stdout().lock()), None, "stdout"),
    };
    // A shard format leaves through the sink `kagen stream` writes
    // shards with; METIS is a whole-graph layout of its own.
    let written = match o.format.unwrap_or(Format::Shard(ShardFormat::EdgeList)) {
        Format::Metis => write_metis(out, &el),
        Format::Shard(format) => format.sink(BufWriter::new(out), el.n).and_then(|mut sink| {
            sink.push_batch(&el.edges);
            sink.finish().map(drop)
        }),
    };
    drop(write_span);
    match written {
        // The reader of a pipe may stop early (`| head`): not a failure.
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe && o.output.is_none() => Ok(()),
        result => result
            .and_then(|()| output.map_or(Ok(()), Staged::commit))
            .map_err(context(format_args!("cannot write {name}"))),
    }
}

/// The run identity manifests and ledgers record.
fn instance_meta(o: &Options) -> InstanceMeta {
    InstanceMeta {
        model: o.model.name.into(),
        params: o.params(),
        seed: o.seed,
    }
}

/// Streaming mode: shard files + manifest; optional external merge.
/// No full edge vector exists at any point.
fn run_stream(o: &Options) -> io::Result<()> {
    let (shard_dir, format) = (o.shard_dir(), o.shard_format());
    let gen = o.build();
    let meta = instance_meta(o);
    let cfg = StreamConfig::new(shard_dir, format).with_threads(o.threads);

    // kagen-lint: allow(d2) -- CLI progress reporting on stderr; shard bytes and
    // manifest content never include wall-clock values
    let run_started = std::time::Instant::now();
    let baseline = CountingAlloc::reset_peak();
    let write_span = trace::span("stream.write_shards");
    let in_dir = |what: &str| context(format!("{what} {}", shard_dir.display()));
    let manifest = kagen_repro::pipeline::write_sharded(gen.as_ref(), &meta, &cfg)
        .map_err(in_dir("cannot write shards to"))?;
    let write_secs = write_span.finish();
    ALLOC_PEAK_GENERATE.record_peak(CountingAlloc::peak_above(baseline));
    info!(
        "wrote {} shards, {} edges, format {} -> {} in {:.3}s",
        manifest.chunks,
        manifest.edges,
        manifest.format,
        shard_dir.display(),
        write_secs
    );

    if o.merge == Merge::External {
        // Merge; with --stats, tee a degree accumulator off the merge
        // output so the shards are read only once and the reported
        // degrees are the canonical instance's.
        let reader = ShardReader::open(shard_dir).map_err(in_dir("cannot open shard dir"))?;
        let out_path = o.output.clone().unwrap_or_else(|| {
            shard_dir
                .join(format!("merged.{}", format.extension()))
                .to_string_lossy()
                .into_owned()
        });
        let to_out = || context(format!("cannot write {out_path}"));
        let (out_file, output) = Staged::create(Path::new(&out_path))
            .map_err(context(format!("cannot create {out_path}")))?;
        let out_sink = format
            .sink(BufWriter::new(out_file), manifest.n)
            .map_err(to_out())?;
        let baseline = CountingAlloc::reset_peak();
        let merge_span = trace::span("stream.merge");
        let merger = ExternalMerge::new(shard_dir.join("runs"), o.merge_budget.unwrap_or(1 << 22))
            .with_threads(o.threads);
        let mut sink = TeeSink::new(
            out_sink,
            o.stats
                .then(|| DegreeStatsSink::new(manifest.n, manifest.directed)),
        );
        let stats = merger
            .merge(&reader, &mut sink)
            .map_err(in_dir("external merge failed in"))?;
        sink.finish().map_err(to_out())?;
        output.commit().map_err(to_out())?;
        let merge_secs = merge_span.finish();
        ALLOC_PEAK_MERGE.record_peak(CountingAlloc::peak_above(baseline));
        info!(
            "external merge: {} edges in, {} out, {} buckets spilled ({} bytes), \
             peak buffer {} edges, {:.3}s -> {}",
            stats.edges_in,
            stats.edges_out,
            stats.runs,
            stats.spill_bytes,
            stats.max_buffered,
            merge_secs,
            out_path
        );
        if let Some(deg) = &sink.b {
            print_degree_summary(
                manifest.n,
                stats.edges_out,
                deg,
                " (canonical merged instance)",
            );
        }
    } else if o.stats {
        // No merge requested: stream the shards back through a degree
        // accumulator — O(n) counters, still no edge vector (and a
        // checksum validation pass for free).
        let reader = ShardReader::open(shard_dir).map_err(in_dir("cannot open shard dir"))?;
        let mut deg = DegreeStatsSink::new(manifest.n, manifest.directed);
        reader
            .stream(&mut |batch| deg.push_batch(batch))
            .and_then(|_| deg.finish())
            .map_err(in_dir("cannot read back shards of"))?;
        let label = if manifest.directed {
            " (per-PE streams)"
        } else {
            " (per-PE streams, cross-PE duplicates included)"
        };
        print_degree_summary(manifest.n, manifest.edges, &deg, label);
    }

    // Stream mode is a single-process run: report it as one "rank"
    // covering every PE, so the metrics file has the same shape as a
    // launch-mode federation and the same sum invariant (rank edges ==
    // manifest edges).
    if let Some(path) = &o.metrics_out {
        ALLOC_LIVE_END.record_peak(CountingAlloc::live());
        let wall_us = (run_started.elapsed().as_secs_f64() * 1e6) as u64;
        let rank = RankMetrics {
            rank: 0,
            pe_begin: 0,
            pe_end: manifest.chunks,
            edges: manifest.edges,
            wall_us,
            attempts: 1,
            counters: kagen_obs::metrics::scalars(),
        };
        RunMetrics::federate(&manifest, vec![rank], wall_us)
            .save(Path::new(path))
            .map_err(context(format_args!("cannot write metrics file {path}")))?;
        kagen_obs::debug!("metrics -> {path}");
    }
    Ok(())
}

/// Print the `--stats` line of a degree accumulator, `suffix` after the
/// degrees.
fn print_degree_summary(n: u64, m: u64, deg: &DegreeStatsSink, suffix: &str) {
    let (first, second) = deg.stats();
    match second {
        Some(in_deg) => info!(
            "n = {n}, m = {m}, in-deg {}/{:.2}/{}, out-deg {}/{:.2}/{}{suffix}",
            in_deg.min, in_deg.mean, in_deg.max, first.min, first.mean, first.max,
        ),
        None => info!(
            "n = {n}, m = {m}, degrees {}/{:.2}/{}{suffix}",
            first.min, first.mean, first.max,
        ),
    }
}

/// Coordinator mode: plan ranks, spawn `kagen worker` children, keep the
/// ledger, federate the manifest. See `kagen_cluster` for the library
/// behind this.
fn run_launch(o: &Options) -> io::Result<()> {
    let (shard_dir, format) = (o.shard_dir(), o.shard_format());
    let workers = o.workers.unwrap_or_else(|| {
        // kagen-lint: allow(d2) -- default worker count partitions PEs across
        // processes only; shards + federated manifest are worker-count-invariant (CI cmp)
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    let meta = instance_meta(o);
    let header = meta.header(o.build().as_ref(), format);
    let exe = std::env::current_exe().map_err(context("cannot locate own binary for re-exec"))?;
    let runner = kagen_repro::cluster::ProcessRunner {
        exe,
        worker_args: cli::worker_args(o),
        dir: shard_dir.to_path_buf(),
        stall_timeout: o.stall_timeout.map(std::time::Duration::from_secs_f64),
    };
    let opts = kagen_repro::cluster::LaunchOptions {
        workers,
        resume: o.resume,
        validate: o.validate,
        retries: o.retries,
        progress: o.progress.map(std::time::Duration::from_secs_f64),
        ..Default::default()
    };
    // kagen-lint: allow(d2) -- the summary line's and the metrics file's wall
    // time; shard bytes and manifest content never include wall-clock values
    let started = std::time::Instant::now();
    let report = kagen_repro::cluster::launch(shard_dir, &header, &opts, &runner)?;
    let wall = started.elapsed().as_secs_f64();
    // Keep this line machine-parseable: the integration tests
    // and CI assert on `regenerated=[..] reused=N` (the logger
    // supplies the `kagen launch: ` prefix).
    info!(
        "{} ranks spawned, regenerated={} reused={} -> {} edges, \
         federated manifest in {wall:.3}s",
        report.spawned.len(),
        pe_runs(&report.regenerated_pes),
        report.reused_shards,
        report.manifest.edges,
    );
    if let Some(path) = &o.metrics_out {
        let wall_us = (wall * 1e6) as u64;
        RunMetrics::federate(&report.manifest, report.rank_metrics, wall_us)
            .save(Path::new(path))
            .map_err(context(format_args!("cannot write metrics file {path}")))?;
        kagen_obs::debug!("metrics -> {path}");
    }
    // The launch trace is the federated cross-rank timeline —
    // coordinator spans plus every worker's spans realigned onto
    // this process's clock (`main` skips its generic trace write
    // for launch mode).
    if let Some(path) = &o.trace_out {
        kagen_repro::cluster::trace::write_federated_chrome_trace(
            Path::new(path),
            &report.rank_traces,
        )
        .map_err(context(format_args!("cannot write trace file {path}")))?;
        kagen_obs::debug!(
            "federated trace -> {path} ({} rank traces)",
            report.rank_traces.len()
        );
    }
    Ok(())
}

/// Ascending PE ids as their maximal runs, a run as half-open `a..b`
/// and a lone PE as `a`: `[0..4096]`, `[2..5]`, `[3, 8]` — one short
/// line whatever the chunk count.
fn pe_runs(pes: &[usize]) -> String {
    let runs: Vec<String> = pes
        .chunk_by(|a, b| a + 1 == *b)
        .map(|run| match run {
            [pe] => pe.to_string(),
            _ => format!("{}..{}", run[0], run[run.len() - 1] + 1),
        })
        .collect();
    format!("[{}]", runs.join(", "))
}

/// Worker mode: generate one contiguous PE range into shard files, then
/// write the rank report. Spawned by `kagen launch`; usable by hand for
/// running ranks on separate machines over a shared filesystem.
fn run_worker(o: &Options) -> io::Result<()> {
    let (shard_dir, (a, b)) = (o.shard_dir(), o.pe_range());
    let gen = o.build();
    if let Err(msg) = cli::pe_range_within(o, gen.num_chunks()) {
        // A usage error, like `parse`'s, and raised before anything is
        // written.
        eprintln!("{}: {msg}", o.mode.name());
        std::process::exit(2);
    }
    let inject = kagen_repro::cluster::FailureInjection::from_env();
    let in_dir = |what: &str| context(format!("{what} {}", shard_dir.display()));
    // Liveness: a background thread samples the obs counters and
    // publishes part-<a>-<b>.heartbeat.json on every advance. Dropping
    // the publisher (after generation) flushes one final beat.
    let publisher = o
        .heartbeat
        .then(|| {
            kagen_repro::cluster::HeartbeatPublisher::spawn(
                shard_dir,
                a as u64,
                b as u64,
                kagen_repro::cluster::HEARTBEAT_INTERVAL,
            )
        })
        .transpose()
        .map_err(in_dir("cannot start heartbeat publisher in"))?;
    // The span federation anchors this rank's row on; it must be closed
    // before the trace is captured.
    let work_span = trace::span("worker.generate");
    let shards = kagen_repro::cluster::run_worker(
        gen.as_ref(),
        shard_dir,
        o.shard_format(),
        a..b,
        o.threads.max(1),
        inject,
    )
    .map_err(in_dir("cannot write shards to"))?;
    let secs = work_span.finish();
    drop(publisher);
    let edges: u64 = shards.iter().map(|s| s.edges).sum();
    let report = PartialManifest {
        pe_begin: a as u64,
        pe_end: b as u64,
        shards,
        metrics: o.metrics_sidecar.then(kagen_obs::Telemetry::capture),
        trace: o.trace_sidecar.then(kagen_obs::ProcessTrace::capture),
    };
    // Standalone telemetry (hand-run ranks on separate machines): the
    // same two documents, at paths of the operator's choosing.
    if let Some(path) = &o.metrics_out {
        Staged::save_atomic(Path::new(path), kagen_obs::Telemetry::capture().to_json())
            .map_err(context(format_args!("cannot write metrics file {path}")))?;
        kagen_obs::debug!("metrics -> {path}");
    }
    if let Some(path) = &o.trace_out {
        write_trace(path)?;
        kagen_obs::debug!("trace -> {path}");
    }
    // Last: the report's existence is this rank's completion record.
    report
        .save(shard_dir)
        .map_err(in_dir("cannot write rank report to"))?;
    info!(
        "PEs {a}..{b} -> {} shards, {edges} edges in {secs:.3}s",
        report.shards.len(),
    );
    Ok(())
}

/// Write this process's span dump to `path`.
fn write_trace(path: &str) -> io::Result<()> {
    trace::write_chrome_trace(Path::new(path))
        .map_err(context(format_args!("cannot write trace file {path}")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if matches!(args.first().map(String::as_str), Some("--help" | "-h")) {
        print!("{}", cli::help());
        return;
    }
    let o = cli::parse(&args).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2);
    });
    // Environment first, flags win: KAGEN_LOG sets the default and
    // -v/-q shift from Info.
    kagen_obs::log::init_from_env();
    if o.verbosity != 0 {
        kagen_obs::log::set_level(
            match (kagen_obs::Level::Info as i32 + o.verbosity).clamp(0, 4) {
                0 => kagen_obs::Level::Error,
                1 => kagen_obs::Level::Warn,
                2 => kagen_obs::Level::Info,
                3 => kagen_obs::Level::Debug,
                _ => kagen_obs::Level::Trace,
            },
        );
    }
    let prefix = match (o.mode, o.rank) {
        (Mode::Materialize, _) => "kagen".to_string(),
        // The rank id lives in the prefix so every line of a worker —
        // library warnings included — is attributable in the
        // coordinator's interleaved stderr.
        (Mode::Worker, Some(r)) => format!("{} rank {r}", o.mode.name()),
        _ => o.mode.name(),
    };
    kagen_obs::log::set_prefix(&prefix);
    // Telemetry is strictly off by default: a relaxed atomic load is
    // the only cost on the hot paths, and enabling it never changes an
    // RNG stream or an output byte.
    // Heartbeats piggyback on the metric counters, so `--heartbeat`
    // implies metrics collection even without a metrics output.
    if o.metrics_out.is_some() || o.metrics_sidecar || o.heartbeat {
        kagen_obs::metrics::set_enabled(true);
    }
    if o.trace_out.is_some() || o.trace_sidecar {
        kagen_obs::trace::set_enabled(true);
    }
    let run = match o.mode {
        Mode::Materialize => run_materialized(&o),
        Mode::Stream => run_stream(&o),
        Mode::Launch => run_launch(&o),
        Mode::Worker => run_worker(&o),
    };
    // Launch writes the federated timeline and a worker its own
    // document inside their run functions; only the single-process
    // modes use the generic span dump.
    let run = run.and_then(|()| match &o.trace_out {
        Some(path) if matches!(o.mode, Mode::Materialize | Mode::Stream) => {
            write_trace(path)?;
            kagen_obs::debug!(
                "trace -> {path} ({} events)",
                kagen_obs::trace::event_count()
            );
            Ok(())
        }
        _ => Ok(()),
    });
    // Every failure past argument parsing is one line and exit 1
    // (usage errors exit 2 above).
    if let Err(e) = run {
        kagen_obs::error!("{e}");
        std::process::exit(1);
    }
}

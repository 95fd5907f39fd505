//! `kagen` — command-line graph generation, mirroring the reference
//! KaGen application, plus the bounded-memory streaming pipeline and the
//! multi-process cluster launcher.
//!
//! ```text
//! kagen <model> [options]            materialize, merge in RAM, write one file
//! kagen stream <model> [options]     stream shards to disk, RAM stays O(state)
//! kagen launch <model> [options]     spawn worker processes, federate manifest
//! kagen worker <model> [options]     one rank of a launch (spawned by `launch`)
//!
//! models:
//!   gnm_directed    -n <vertices> -m <edges>
//!   gnm_undirected  -n <vertices> -m <edges>
//!   gnp_directed    -n <vertices> -p <prob>
//!   gnp_undirected  -n <vertices> -p <prob>
//!                   --gnp-leaves <skip|algo-d>  leaf sampler: batched
//!                                      geometric skips (default) or the
//!                                      pre-swap binomial + Vitter D path
//!                                      (reproduces historical instances)
//!   rgg2d           -n <vertices> -r <radius>     (default r: threshold)
//!   rgg3d           -n <vertices> -r <radius>
//!   rdg2d           -n <vertices>
//!   rdg3d           -n <vertices>
//!   rhg             -n <vertices> -d <avg-deg> -g <gamma>
//!   srhg            -n <vertices> -d <avg-deg> -g <gamma>
//!   soft-rhg        -n <vertices> -d <avg-deg> -g <gamma> -T <temperature>
//!   ba              -n <vertices> -d <edges-per-vertex>
//!   rmat            -n <vertices=2^k> -m <edges>
//!                   --rmat-kernel <k>  linear | plain (default linear:
//!                                      the linear-work composed
//!                                      path-block table; plain: one
//!                                      variate per level, the reference
//!                                      semantics). `table` is retired
//!                                      and exits 2
//!                   --rmat-levels <k>  levels per composed-table draw,
//!                                      1..=12 (default: sized to the L2
//!                                      cache; 0 = legacy spelling of
//!                                      --rmat-kernel plain)
//!   sbm             -n <vertices> -b <blocks> --p-in <p> --p-out <p>
//!
//! common options:
//!   -s <seed>        instance seed            (default 1)
//!   -c <chunks>      logical PEs              (default 64)
//!   -t <threads>     worker threads           (default: all cores)
//!   -o <path>        output file              (default: stdout)
//!   -f <format>      edge-list | metis | binary | compressed
//!                                             (default edge-list)
//!   --stats          print graph statistics to stderr
//!                    (directed models report in-/out-degrees)
//!
//! stream-mode options:
//!   --shard-dir <dir>     shard output directory          (required)
//!   -f <format>           edge-list | binary | compressed (default compressed)
//!   --merge <mode>        none | external                 (default none)
//!   --merge-budget <m>    external-merge RAM budget in edges
//!                                                         (default 1<<22)
//!   --merge-fan-in <k>    max runs (files) merged at once  (default 64);
//!                         more runs merge in intermediate passes
//!   -o <path>             merged output file (with --merge external;
//!                         default: <shard-dir>/merged.<ext>)
//!
//! Stream mode writes one shard per PE plus manifest.json; peak RSS is
//! the generator state + write buffers, independent of the edge count.
//! `--merge external` additionally produces the canonical merged edge
//! list via sorted runs + k-way merge, using at most the edge budget of
//! RAM.
//!
//! launch-mode options:
//!   --shard-dir <dir>     shard output directory           (required)
//!   --workers <w>         concurrent worker processes      (default: cores)
//!   -f <format>           edge-list | binary | compressed  (default compressed)
//!   -t <threads>          threads per worker               (default 1)
//!   --resume              reuse valid shards of an interrupted/corrupted
//!                         run; regenerate only missing or invalid shards
//!   --retries <budget>    in-launch retry budget per rank: transient
//!                         worker failures are respawned (exponential
//!                         backoff) up to <budget> times before the rank
//!                         counts as failed          (default 0)
//!   --validate <mode>     full | sampled | sampled=K | none
//!                                                   (default full)
//!                         sampled = size/structure walk + K decoded,
//!                         checksum-verified blocks per shard (default
//!                         K=4; K >= the shard's block count decodes
//!                         every block) — the resume fast path for huge
//!                         runs, parallelized across shards; none skips
//!                         the post-run re-read only
//!   --no-validate         alias for --validate none
//!   --progress <secs>     print a live progress line every <secs>
//!                         seconds: PEs/edges done (completed ranks +
//!                         live worker heartbeats), aggregate edges/sec,
//!                         ETA from the rank plan
//!   --stall-timeout <s>   kill a worker whose heartbeat has not
//!                         advanced in <s> seconds and count the attempt
//!                         as failed (retried under --retries). Both
//!                         flags make workers publish heartbeat files
//!                         (part-<a>-<b>.heartbeat.json) at batch
//!                         granularity
//!
//! Launch mode splits the PE range into contiguous rank ranges and
//! re-execs this binary as `kagen worker` child processes, one per rank
//! (at most --workers at a time). Each worker writes its shard slice
//! plus a partial manifest; the coordinator maintains ledger.json
//! (per-shard state + per-rank status), validates shard checksums, and
//! federates the final manifest.json — byte-identical to `kagen stream`
//! of the same instance. A killed worker or corrupted shard is repaired
//! by `--resume`, which regenerates exactly the damaged shards.
//!
//! worker-mode options (normally set by `launch`):
//!   --shard-dir <dir>     shard output directory           (required)
//!   --pe-range <a..b>     contiguous PE range to generate  (required)
//!   --rank <r>            rank id, for log lines only
//!   -f <format>           edge-list | binary | compressed  (default compressed)
//!   -t <threads>          worker threads                   (default 1)
//!   --metrics-sidecar     write this rank's metric counters next to its
//!                         partial manifest (set by `launch --metrics-out`)
//!   --trace-sidecar       write this rank's span sidecar next to its
//!                         partial manifest (set by `launch --trace-out`)
//!   --heartbeat           publish a liveness/progress heartbeat file
//!                         while generating (set by `launch --progress`
//!                         or `launch --stall-timeout`)
//!
//! observability (all modes unless noted):
//!   -v / -q               more / less logging (-v debug, -vv trace,
//!                         -q warnings only, -qq errors only); the
//!                         KAGEN_LOG env var (error|warn|info|debug|trace)
//!                         sets the default level
//!   --metrics-out <path>  write run metrics JSON (stream | launch |
//!                         worker). In launch mode workers report
//!                         per-rank sidecars (kagen-metrics/v2: counter
//!                         scalars + full histogram buckets) and the
//!                         coordinator federates them bucket-wise;
//!                         per-rank edge totals always reconcile with the
//!                         manifest's edge count. A standalone worker
//!                         writes its own sidecar-shaped document
//!   --trace-out <path>    write Chrome trace-event JSON of the run's
//!                         phase spans (open in chrome://tracing or
//!                         ui.perfetto.dev). In launch mode the file is
//!                         the *federated* cross-rank timeline: every
//!                         worker's spans realigned onto the
//!                         coordinator's clock, one pid row per rank,
//!                         flow arrows from each supervisor rank-N span
//!                         to its worker. Every other mode writes this
//!                         process's own spans as the same document a
//!                         worker sidecar is (a Chrome trace with a
//!                         schema/pid/epoch_unix_us header)
//!
//! Telemetry never touches an RNG stream or an output byte: shards and
//! manifest.json are bit-identical with metrics/tracing on or off.
//! ```

use kagen_obs::{info, trace, Gauge};
use kagen_repro::cluster::metrics::{RankMetrics, RunMetrics};
use kagen_repro::core::prelude::*;
use kagen_repro::core::streaming::StreamingGenerator;
use kagen_repro::graph::io::{write_binary, write_compressed, write_edge_list, write_metis};
use kagen_repro::graph::stats::DegreeStats;
use kagen_repro::graph::{merge_pe_edges, EdgeList};
use kagen_repro::pipeline::{
    BinarySink, CompressedSink, DegreeStatsSink, EdgeSink, ExternalMerge, InstanceMeta,
    ShardFormat, ShardReader, StreamConfig, TeeSink, TextSink,
};
use kagen_repro::util::alloc::CountingAlloc;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Count allocations binary-wide so `--metrics-out` can report a peak
/// RSS proxy per stage. Pure accounting on top of the system allocator;
/// the obs gauges below read it only at stage boundaries.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Peak heap bytes of the generate/write stage (shards or the
/// materialized edge list), above the stage-entry baseline.
static ALLOC_PEAK_GENERATE: Gauge = Gauge::new("alloc.peak_bytes.generate");
/// Peak heap bytes of the external-merge stage.
static ALLOC_PEAK_MERGE: Gauge = Gauge::new("alloc.peak_bytes.merge");
/// Live heap bytes when the run finished.
static ALLOC_LIVE_END: Gauge = Gauge::new("alloc.live_bytes.end");

/// Which front-end path a `kagen` invocation takes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// `kagen <model>` — generate, merge in RAM, write one file.
    Materialize,
    /// `kagen stream <model>` — shard files + manifest, bounded memory.
    Stream,
    /// `kagen launch <model>` — coordinator of a multi-process run.
    Launch,
    /// `kagen worker <model>` — one rank of a launch.
    Worker,
}

impl Mode {
    fn name(&self) -> &'static str {
        match self {
            Mode::Materialize => "kagen <model>",
            Mode::Stream => "kagen stream",
            Mode::Launch => "kagen launch",
            Mode::Worker => "kagen worker",
        }
    }
}

struct Options {
    mode: Mode,
    model: String,
    n: u64,
    m: u64,
    p: f64,
    r: Option<f64>,
    d: f64,
    gamma: f64,
    temperature: f64,
    blocks: usize,
    p_in: f64,
    p_out: f64,
    rmat_levels: Option<u32>,
    rmat_kernel: Option<String>,
    gnp_leaves: String,
    seed: u64,
    chunks: usize,
    threads: usize,
    output: Option<String>,
    format: Option<String>,
    stats: bool,
    shard_dir: Option<String>,
    merge: Option<String>,
    merge_budget: Option<usize>,
    merge_fan_in: Option<usize>,
    workers: Option<usize>,
    resume: bool,
    no_validate: bool,
    validate: Option<String>,
    retries: Option<u64>,
    pe_range: Option<(usize, usize)>,
    rank: Option<usize>,
    /// Net `-v` (positive) / `-q` (negative) count; 0 = Info.
    verbosity: i32,
    metrics_out: Option<String>,
    trace_out: Option<String>,
    metrics_sidecar: bool,
    trace_sidecar: bool,
    heartbeat: bool,
    progress: Option<f64>,
    stall_timeout: Option<f64>,
}

fn usage() -> ! {
    eprintln!("see `kagen --help` (module docs) for usage");
    std::process::exit(2)
}

fn parse() -> Options {
    let mut o = Options {
        mode: Mode::Materialize,
        model: String::new(),
        n: 1 << 12,
        m: 1 << 15,
        p: 0.001,
        r: None,
        d: 8.0,
        gamma: 2.8,
        temperature: 0.5,
        blocks: 2,
        p_in: 0.01,
        p_out: 0.001,
        rmat_levels: None,
        rmat_kernel: None,
        gnp_leaves: "skip".into(),
        seed: 1,
        chunks: 64,
        threads: 0,
        output: None,
        format: None,
        stats: false,
        shard_dir: None,
        merge: None,
        merge_budget: None,
        merge_fan_in: None,
        workers: None,
        resume: false,
        no_validate: false,
        validate: None,
        retries: None,
        pe_range: None,
        rank: None,
        verbosity: 0,
        metrics_out: None,
        trace_out: None,
        metrics_sidecar: false,
        trace_sidecar: false,
        heartbeat: false,
        progress: None,
        stall_timeout: None,
    };
    let mut args = std::env::args().skip(1);
    let Some(mut model) = args.next() else {
        usage()
    };
    if model == "--help" || model == "-h" {
        println!(
            "{}",
            include_str!("kagen.rs")
                .lines()
                .take_while(|l| l.starts_with("//!"))
                .map(|l| l.trim_start_matches("//!").trim_start())
                .collect::<Vec<_>>()
                .join("\n")
        );
        std::process::exit(0);
    }
    match model.as_str() {
        "stream" => o.mode = Mode::Stream,
        "launch" => o.mode = Mode::Launch,
        "worker" => o.mode = Mode::Worker,
        _ => {}
    }
    if o.mode != Mode::Materialize {
        model = args.next().unwrap_or_else(|| usage());
    }
    o.model = model;
    let next = |args: &mut dyn Iterator<Item = String>| -> String {
        args.next().unwrap_or_else(|| usage())
    };
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "-n" => o.n = next(&mut args).parse().unwrap_or_else(|_| usage()),
            "-m" => o.m = next(&mut args).parse().unwrap_or_else(|_| usage()),
            "-p" => o.p = next(&mut args).parse().unwrap_or_else(|_| usage()),
            "-r" => o.r = Some(next(&mut args).parse().unwrap_or_else(|_| usage())),
            "-d" => o.d = next(&mut args).parse().unwrap_or_else(|_| usage()),
            "-g" => o.gamma = next(&mut args).parse().unwrap_or_else(|_| usage()),
            "-T" => o.temperature = next(&mut args).parse().unwrap_or_else(|_| usage()),
            "-b" => o.blocks = next(&mut args).parse().unwrap_or_else(|_| usage()),
            "--p-in" => o.p_in = next(&mut args).parse().unwrap_or_else(|_| usage()),
            "--p-out" => o.p_out = next(&mut args).parse().unwrap_or_else(|_| usage()),
            "--rmat-levels" => {
                o.rmat_levels = Some(next(&mut args).parse().unwrap_or_else(|_| usage()))
            }
            "--rmat-kernel" => o.rmat_kernel = Some(next(&mut args)),
            "--gnp-leaves" => o.gnp_leaves = next(&mut args),
            "-s" => o.seed = next(&mut args).parse().unwrap_or_else(|_| usage()),
            "-c" => o.chunks = next(&mut args).parse().unwrap_or_else(|_| usage()),
            "-t" => o.threads = next(&mut args).parse().unwrap_or_else(|_| usage()),
            "-o" => o.output = Some(next(&mut args)),
            "-f" => o.format = Some(next(&mut args)),
            "--stats" => o.stats = true,
            "--shard-dir" => o.shard_dir = Some(next(&mut args)),
            "--merge" => o.merge = Some(next(&mut args)),
            "--merge-budget" => {
                o.merge_budget = Some(next(&mut args).parse().unwrap_or_else(|_| usage()))
            }
            "--merge-fan-in" => {
                o.merge_fan_in = Some(next(&mut args).parse().unwrap_or_else(|_| usage()))
            }
            "--workers" => o.workers = Some(next(&mut args).parse().unwrap_or_else(|_| usage())),
            "--resume" => o.resume = true,
            "--no-validate" => o.no_validate = true,
            "--validate" => o.validate = Some(next(&mut args)),
            "--retries" => o.retries = Some(next(&mut args).parse().unwrap_or_else(|_| usage())),
            "--pe-range" => {
                let spec = next(&mut args);
                let Some((a, b)) = spec.split_once("..") else {
                    eprintln!("kagen worker: --pe-range wants `a..b`, got '{spec}'");
                    std::process::exit(2);
                };
                let a = a.parse().unwrap_or_else(|_| usage());
                let b = b.parse().unwrap_or_else(|_| usage());
                o.pe_range = Some((a, b));
            }
            "--rank" => o.rank = Some(next(&mut args).parse().unwrap_or_else(|_| usage())),
            "-v" => o.verbosity += 1,
            "-vv" => o.verbosity += 2,
            "-q" => o.verbosity -= 1,
            "-qq" => o.verbosity -= 2,
            "--metrics-out" => o.metrics_out = Some(next(&mut args)),
            "--trace-out" => o.trace_out = Some(next(&mut args)),
            "--metrics-sidecar" => o.metrics_sidecar = true,
            "--trace-sidecar" => o.trace_sidecar = true,
            "--heartbeat" => o.heartbeat = true,
            "--progress" => o.progress = Some(next(&mut args).parse().unwrap_or_else(|_| usage())),
            "--stall-timeout" => {
                o.stall_timeout = Some(next(&mut args).parse().unwrap_or_else(|_| usage()))
            }
            _ => usage(),
        }
    }
    validate(&o);
    o
}

/// Reject invalid flag combinations up front — *before* any generation
/// starts or any worker process is spawned, for every mode. A typo'd
/// launch must fail in microseconds, not after W workers wrote shards.
fn validate(o: &Options) {
    let mode = o.mode;
    let fail = |msg: String| -> ! {
        eprintln!("{}: {msg}", mode.name());
        std::process::exit(2);
    };
    if gnp_leaves(&o.gnp_leaves).is_none() {
        fail(format!(
            "unknown --gnp-leaves '{}' (want skip | algo-d)",
            o.gnp_leaves
        ));
    }
    // R-MAT kernel/levels: typos and out-of-range values die here, before
    // any worker spawns, regardless of mode.
    if let Some(name) = o.rmat_kernel.as_deref() {
        if name == "table" {
            fail(
                "--rmat-kernel table is retired (slower than linear wherever it ran, \
                 capped at scale < 32); use --rmat-kernel linear, which defines a \
                 different instance per seed"
                    .into(),
            );
        }
        if !matches!(name, "linear" | "plain") {
            fail(format!(
                "unknown --rmat-kernel '{name}' (want linear | plain)"
            ));
        }
    }
    if let Some(levels) = o.rmat_levels {
        // 0 is the legacy spelling for plain descent; 1..=12 bounds the
        // 4^levels table footprint (4^12 slots = 128 MiB).
        if levels > 12 {
            fail(format!("--rmat-levels {levels} out of range (want 0..=12)"));
        }
        match o.rmat_kernel.as_deref() {
            Some("plain") if levels != 0 => {
                fail(format!(
                    "--rmat-levels {levels} conflicts with --rmat-kernel plain (only 0 allowed)"
                ));
            }
            Some("linear") if levels == 0 => {
                fail("--rmat-levels 0 (plain descent) conflicts with --rmat-kernel linear".into());
            }
            _ => {}
        }
    }
    if o.model == "rmat" && o.n > 1u64 << 63 {
        fail(format!("rmat needs n <= 2^63, got {}", o.n));
    }
    // Which flags each mode accepts.
    let reject = |present: bool, flag: &str, wanted: &str| {
        if present {
            fail(format!("{flag} requires {wanted}"));
        }
    };
    if mode != Mode::Worker {
        reject(
            o.metrics_sidecar,
            "--metrics-sidecar",
            "`kagen worker` (launch --metrics-out sets it)",
        );
        reject(
            o.trace_sidecar,
            "--trace-sidecar",
            "`kagen worker` (launch --trace-out sets it)",
        );
        reject(
            o.heartbeat,
            "--heartbeat",
            "`kagen worker` (launch --progress/--stall-timeout set it)",
        );
    }
    if mode != Mode::Launch {
        reject(o.progress.is_some(), "--progress", "`kagen launch`");
        reject(
            o.stall_timeout.is_some(),
            "--stall-timeout",
            "`kagen launch`",
        );
    }
    if let Some(secs) = o.progress {
        if secs.is_nan() || secs <= 0.0 {
            fail(format!("--progress wants a positive interval, got {secs}"));
        }
    }
    if let Some(secs) = o.stall_timeout {
        if secs.is_nan() || secs <= 0.0 {
            fail(format!(
                "--stall-timeout wants a positive window, got {secs}"
            ));
        }
    }
    if !matches!(mode, Mode::Stream | Mode::Launch | Mode::Worker) {
        reject(
            o.metrics_out.is_some(),
            "--metrics-out",
            "`kagen stream|launch|worker`",
        );
    }
    match mode {
        Mode::Materialize => {
            reject(
                o.shard_dir.is_some(),
                "--shard-dir",
                "`kagen stream|launch|worker`",
            );
            reject(o.merge.is_some(), "--merge", "`kagen stream`");
            reject(o.merge_budget.is_some(), "--merge-budget", "`kagen stream`");
            reject(o.merge_fan_in.is_some(), "--merge-fan-in", "`kagen stream`");
            reject(o.workers.is_some(), "--workers", "`kagen launch`");
            reject(o.resume, "--resume", "`kagen launch`");
            reject(o.no_validate, "--no-validate", "`kagen launch`");
            reject(o.validate.is_some(), "--validate", "`kagen launch`");
            reject(o.retries.is_some(), "--retries", "`kagen launch`");
            reject(o.pe_range.is_some(), "--pe-range", "`kagen worker`");
            reject(o.rank.is_some(), "--rank", "`kagen worker`");
        }
        Mode::Stream => {
            reject(o.workers.is_some(), "--workers", "`kagen launch`");
            reject(o.resume, "--resume", "`kagen launch`");
            reject(o.no_validate, "--no-validate", "`kagen launch`");
            reject(o.validate.is_some(), "--validate", "`kagen launch`");
            reject(o.retries.is_some(), "--retries", "`kagen launch`");
            reject(o.pe_range.is_some(), "--pe-range", "`kagen worker`");
            reject(o.rank.is_some(), "--rank", "`kagen worker`");
            if o.shard_dir.is_none() {
                fail("--shard-dir is required".into());
            }
            let merge = o.merge.as_deref().unwrap_or("none");
            if !matches!(merge, "none" | "external") {
                fail(format!("unknown merge mode '{merge}'"));
            }
            if o.output.is_some() && merge != "external" {
                fail("-o requires --merge external (shards go to --shard-dir)".into());
            }
        }
        Mode::Launch | Mode::Worker => {
            reject(o.merge.is_some(), "--merge", "`kagen stream`");
            reject(o.merge_budget.is_some(), "--merge-budget", "`kagen stream`");
            reject(o.merge_fan_in.is_some(), "--merge-fan-in", "`kagen stream`");
            reject(
                o.output.is_some(),
                "-o",
                "`kagen stream --merge external` or `kagen <model>`",
            );
            reject(o.stats, "--stats", "`kagen <model>` or `kagen stream`");
            if o.shard_dir.is_none() {
                fail("--shard-dir is required".into());
            }
            if mode == Mode::Launch {
                reject(
                    o.pe_range.is_some(),
                    "--pe-range",
                    "`kagen worker` (launch plans ranks itself)",
                );
                reject(o.rank.is_some(), "--rank", "`kagen worker`");
                if o.workers == Some(0) {
                    fail("--workers must be >= 1".into());
                }
                if let Some(name) = o.validate.as_deref() {
                    if kagen_repro::cluster::ValidateMode::parse(name).is_none() {
                        fail(format!("unknown validate mode '{name}'"));
                    }
                    if o.no_validate && name != "none" {
                        fail(format!("--no-validate conflicts with --validate {name}"));
                    }
                }
            } else {
                reject(o.workers.is_some(), "--workers", "`kagen launch`");
                reject(o.resume, "--resume", "`kagen launch`");
                reject(o.no_validate, "--no-validate", "`kagen launch`");
                reject(o.validate.is_some(), "--validate", "`kagen launch`");
                reject(o.retries.is_some(), "--retries", "`kagen launch`");
                let Some((a, b)) = o.pe_range else {
                    fail("--pe-range is required".into());
                };
                if a >= b || b > o.chunks {
                    fail(format!(
                        "--pe-range {a}..{b} is not a non-empty sub-range of 0..{} (-c)",
                        o.chunks
                    ));
                }
            }
            // Shard format must parse *here*, not inside W spawned
            // workers.
            if let Some(name) = o.format.as_deref() {
                if ShardFormat::parse(name).is_none() {
                    fail(format!("unknown shard format '{name}'"));
                }
            }
        }
    }
}

/// Parse the `--gnp-leaves` spelling.
fn gnp_leaves(name: &str) -> Option<kagen_repro::core::er::GnpLeaves> {
    use kagen_repro::core::er::GnpLeaves;
    match name {
        "skip" => Some(GnpLeaves::Skip),
        "algo-d" => Some(GnpLeaves::AlgoD),
        _ => None,
    }
}

/// The G(n,p) params string of manifests and resume ledgers. The
/// legacy spelling (`n=.. p=..`, no marker) stays with the *legacy*
/// instance (`algo-d`): run directories written before the skip-kernel
/// swap resume under `--gnp-leaves algo-d` without a header mismatch —
/// and, conversely, they can never be silently "resumed" by the new
/// skip default, whose shards would belong to a different instance.
fn gnp_params(o: &Options) -> String {
    if o.gnp_leaves == "algo-d" {
        format!("n={} p={}", o.n, o.p)
    } else {
        format!("n={} p={} leaves={}", o.n, o.p, o.gnp_leaves)
    }
}

/// R-MAT scale implied by `-n` (next power of two).
fn rmat_scale(o: &Options) -> u32 {
    o.n.next_power_of_two().ilog2().max(1)
}

/// Resolve the R-MAT kernel and level count from the flags.
///
/// Kernel default is `linear` — the fastest bit-stable kernel at every
/// scale; the legacy `--rmat-levels 0` spelling still selects plain
/// descent. Linear levels default to the L2-cache-sized table
/// ([`Rmat::auto_linear_levels`]); the resolved value is pinned into the
/// params string and the re-exec'd worker command lines, so an instance
/// planned on this host reproduces bit-identically anywhere.
fn rmat_config(o: &Options) -> (&'static str, u32) {
    let kernel = match o.rmat_kernel.as_deref() {
        Some("plain") => "plain",
        Some("linear") => "linear",
        None if o.rmat_levels == Some(0) => "plain",
        None => "linear",
        Some(_) => unreachable!("validated"),
    };
    let scale = rmat_scale(o);
    let levels = match kernel {
        "plain" => 0,
        _ => o
            .rmat_levels
            .unwrap_or_else(|| Rmat::auto_linear_levels(scale, kagen_repro::util::l2_cache_bytes()))
            .min(scale),
    };
    (kernel, levels)
}

/// The R-MAT params string of manifests and resume ledgers. As with
/// [`gnp_params`], the spelling without a kernel marker (`scale=.. m=..
/// levels=0`) stays with the plain instance, so run directories written
/// before the linear-work kernel resume under `--rmat-kernel plain`
/// without a header mismatch. A ledger of the retired table kernel
/// (`levels=N`, N > 0, no marker) matches neither spelling: `--resume`
/// refuses it instead of mixing in shards of a different instance.
fn rmat_params(o: &Options) -> String {
    let (kernel, levels) = rmat_config(o);
    let scale = rmat_scale(o);
    if kernel == "linear" {
        format!("scale={scale} m={} kernel=linear levels={levels}", o.m)
    } else {
        format!("scale={scale} m={} levels={levels}", o.m)
    }
}

/// Build the selected generator; every model supports streaming.
fn build_generator(o: &Options) -> (Box<dyn StreamingGenerator>, String) {
    let (gen, params): (Box<dyn StreamingGenerator>, String) = match o.model.as_str() {
        "gnm_directed" => (
            Box::new(
                GnmDirected::new(o.n, o.m)
                    .with_seed(o.seed)
                    .with_chunks(o.chunks),
            ),
            format!("n={} m={}", o.n, o.m),
        ),
        "gnm_undirected" => (
            Box::new(
                GnmUndirected::new(o.n, o.m)
                    .with_seed(o.seed)
                    .with_chunks(o.chunks),
            ),
            format!("n={} m={}", o.n, o.m),
        ),
        "gnp_directed" => (
            Box::new(
                GnpDirected::new(o.n, o.p)
                    .with_seed(o.seed)
                    .with_chunks(o.chunks)
                    .with_leaves(gnp_leaves(&o.gnp_leaves).expect("validated")),
            ),
            gnp_params(o),
        ),
        "gnp_undirected" => (
            Box::new(
                GnpUndirected::new(o.n, o.p)
                    .with_seed(o.seed)
                    .with_chunks(o.chunks)
                    .with_leaves(gnp_leaves(&o.gnp_leaves).expect("validated")),
            ),
            gnp_params(o),
        ),
        "rgg2d" => {
            let r = o.r.unwrap_or_else(|| Rgg2d::threshold_radius(o.n, 1));
            (
                Box::new(Rgg2d::new(o.n, r).with_seed(o.seed).with_chunks(o.chunks)),
                format!("n={} r={r}", o.n),
            )
        }
        "rgg3d" => {
            let r = o.r.unwrap_or_else(|| Rgg3d::threshold_radius(o.n, 1));
            (
                Box::new(Rgg3d::new(o.n, r).with_seed(o.seed).with_chunks(o.chunks)),
                format!("n={} r={r}", o.n),
            )
        }
        "rdg2d" => (
            Box::new(Rdg2d::new(o.n).with_seed(o.seed).with_chunks(o.chunks)),
            format!("n={}", o.n),
        ),
        "rdg3d" => (
            Box::new(Rdg3d::new(o.n).with_seed(o.seed).with_chunks(o.chunks)),
            format!("n={}", o.n),
        ),
        "rhg" => (
            Box::new(
                Rhg::new(o.n, o.d, o.gamma)
                    .with_seed(o.seed)
                    .with_chunks(o.chunks),
            ),
            format!("n={} d={} gamma={}", o.n, o.d, o.gamma),
        ),
        "srhg" => (
            Box::new(
                Srhg::new(o.n, o.d, o.gamma)
                    .with_seed(o.seed)
                    .with_chunks(o.chunks),
            ),
            format!("n={} d={} gamma={}", o.n, o.d, o.gamma),
        ),
        "soft-rhg" => (
            Box::new(
                SoftRhg::new(o.n, o.d, o.gamma, o.temperature)
                    .with_seed(o.seed)
                    .with_chunks(o.chunks),
            ),
            format!("n={} d={} gamma={} T={}", o.n, o.d, o.gamma, o.temperature),
        ),
        "ba" => (
            Box::new(
                BarabasiAlbert::new(o.n, o.d as u64)
                    .with_seed(o.seed)
                    .with_chunks(o.chunks),
            ),
            format!("n={} d={}", o.n, o.d as u64),
        ),
        "rmat" => {
            let scale = rmat_scale(o);
            let (kernel, levels) = rmat_config(o);
            let gen = Rmat::new(scale, o.m)
                .with_seed(o.seed)
                .with_chunks(o.chunks);
            let gen = match kernel {
                "plain" => gen.with_kernel(RmatKernel::Plain),
                _ => gen.with_kernel(RmatKernel::Linear { levels }),
            };
            (Box::new(gen), rmat_params(o))
        }
        "sbm" => (
            Box::new(
                StochasticBlockModel::planted(o.n, o.blocks, o.p_in, o.p_out)
                    .with_seed(o.seed)
                    .with_chunks(o.chunks),
            ),
            format!(
                "n={} blocks={} p_in={} p_out={}",
                o.n, o.blocks, o.p_in, o.p_out
            ),
        ),
        _ => usage(),
    };
    (gen, params)
}

fn print_stats(el: &EdgeList, directed: bool, gen_time: std::time::Duration) {
    if directed {
        let s = DegreeStats::directed(el);
        info!(
            "n = {}, m = {}, in-deg {}/{:.2}/{}, out-deg {}/{:.2}/{}, generated in {:.3}s",
            el.n,
            el.edges.len(),
            s.in_deg.min,
            s.in_deg.mean,
            s.in_deg.max,
            s.out_deg.min,
            s.out_deg.mean,
            s.out_deg.max,
            gen_time.as_secs_f64()
        );
    } else {
        let deg = DegreeStats::undirected(el);
        info!(
            "n = {}, m = {}, degrees {}/{:.2}/{}, generated in {:.3}s",
            el.n,
            el.edges.len(),
            deg.min,
            deg.mean,
            deg.max,
            gen_time.as_secs_f64()
        );
    }
}

/// Materializing mode: generate, merge in RAM, write one file.
fn run_materialized(o: &Options) {
    let (gen, _params) = build_generator(o);
    let gen_span = trace::span("materialize.generate");
    let baseline = CountingAlloc::reset_peak();
    let gen = gen.as_ref();
    let el = if gen.directed() {
        let parts = generate_parallel(gen, o.threads);
        let mut edges: Vec<(u64, u64)> = parts.into_iter().flat_map(|p| p.edges).collect();
        edges.sort_unstable();
        EdgeList::new(gen.num_vertices(), edges)
    } else {
        let parts = generate_parallel(gen, o.threads);
        merge_pe_edges(gen.num_vertices(), parts.into_iter().map(|p| p.edges))
    };
    let gen_time = std::time::Duration::from_secs_f64(gen_span.finish());
    ALLOC_PEAK_GENERATE.record_peak(CountingAlloc::peak_above(baseline));

    if o.stats {
        print_stats(&el, gen.directed(), gen_time);
    }

    let format = o.format.as_deref().unwrap_or("edge-list");
    let write = |w: &mut dyn Write, el: &EdgeList| match format {
        "edge-list" => write_edge_list(w, el),
        "metis" => write_metis(w, el),
        "binary" => write_binary(w, el),
        "compressed" => write_compressed(w, el),
        _ => usage(),
    };
    let write_span = trace::span("materialize.write");
    match &o.output {
        Some(path) => {
            let mut f = std::fs::File::create(path).expect("cannot create output file");
            write(&mut f, &el).expect("write failed");
        }
        None => {
            let stdout = std::io::stdout();
            let mut lock = stdout.lock();
            write(&mut lock, &el).expect("write failed");
        }
    }
    drop(write_span);
}

/// Streaming mode: shard files + manifest; optional external merge.
/// No full edge vector exists at any point.
fn run_stream(o: &Options) {
    let Some(shard_dir) = &o.shard_dir else {
        eprintln!("kagen stream: --shard-dir is required");
        std::process::exit(2);
    };
    let format = match o.format.as_deref() {
        None => ShardFormat::Compressed,
        Some(name) => ShardFormat::parse(name).unwrap_or_else(|| {
            eprintln!("kagen stream: unknown shard format '{name}'");
            std::process::exit(2);
        }),
    };
    // Merge-mode/-o combinations were already rejected in `validate`.
    let merge = o.merge.as_deref().unwrap_or("none");
    let merge_budget = o.merge_budget.unwrap_or(1 << 22);
    let (gen, params) = build_generator(o);
    let meta = InstanceMeta {
        model: o.model.clone(),
        params,
        seed: o.seed,
    };
    let cfg = StreamConfig::new(shard_dir, format).with_threads(o.threads);

    // kagen-lint: allow(d2) -- CLI progress reporting on stderr; shard bytes and
    // manifest content never include wall-clock values
    let run_started = std::time::Instant::now();
    let baseline = CountingAlloc::reset_peak();
    let write_span = trace::span("stream.write_shards");
    let manifest = kagen_repro::pipeline::write_sharded(gen.as_ref(), &meta, &cfg)
        .expect("shard write failed");
    let write_secs = write_span.finish();
    ALLOC_PEAK_GENERATE.record_peak(CountingAlloc::peak_above(baseline));
    info!(
        "wrote {} shards, {} edges, format {} -> {} in {:.3}s",
        manifest.chunks, manifest.edges, manifest.format, shard_dir, write_secs
    );

    if merge == "external" {
        // Merge; with --stats, tee a degree accumulator off the merge
        // output so the shards are read only once and the reported
        // degrees are the canonical instance's.
        let reader = ShardReader::open(shard_dir).expect("cannot open shard dir");
        let dir = PathBuf::from(shard_dir);
        let out_path = o.output.clone().unwrap_or_else(|| {
            dir.join(format!("merged.{}", format.extension()))
                .to_string_lossy()
                .into_owned()
        });
        let file = std::io::BufWriter::new(
            std::fs::File::create(&out_path).expect("cannot create merged output"),
        );
        let out_sink: Box<dyn EdgeSink> = match format {
            ShardFormat::EdgeList => Box::new(TextSink::new(file)),
            ShardFormat::Binary => Box::new(BinarySink::new(file)),
            ShardFormat::Compressed => {
                Box::new(CompressedSink::new(file, manifest.n).expect("merged header write failed"))
            }
        };
        let baseline = CountingAlloc::reset_peak();
        let merge_span = trace::span("stream.merge");
        let mut merger = ExternalMerge::new(dir.join("runs"), merge_budget).with_threads(o.threads);
        if let Some(fan_in) = o.merge_fan_in {
            merger = merger.with_fan_in(fan_in);
        }
        let mut sink = TeeSink::new(
            out_sink,
            o.stats
                .then(|| DegreeStatsSink::new(manifest.n, manifest.directed)),
        );
        let stats = merger
            .merge(&reader, &mut sink)
            .expect("external merge failed");
        sink.finish().expect("merged output flush failed");
        let merge_secs = merge_span.finish();
        ALLOC_PEAK_MERGE.record_peak(CountingAlloc::peak_above(baseline));
        info!(
            "external merge: {} edges in, {} out, {} runs, peak buffer {} edges, {:.3}s -> {}",
            stats.edges_in, stats.edges_out, stats.runs, stats.max_buffered, merge_secs, out_path
        );
        if let Some(deg) = &sink.b {
            print_degree_summary(
                manifest.n,
                stats.edges_out,
                deg,
                "canonical merged instance",
            );
        }
    } else if o.stats {
        // No merge requested: stream the shards back through a degree
        // accumulator — O(n) counters, still no edge vector (and a
        // checksum validation pass for free).
        let reader = ShardReader::open(shard_dir).expect("cannot open shard dir");
        let mut deg = DegreeStatsSink::new(manifest.n, manifest.directed);
        reader
            .stream(&mut |batch| deg.push_batch(batch))
            .expect("shard read-back failed");
        let label = if manifest.directed {
            "per-PE streams"
        } else {
            "per-PE streams, cross-PE duplicates included"
        };
        print_degree_summary(manifest.n, manifest.edges, &deg, label);
    }

    // Stream mode is a single-process run: report it as one "rank"
    // covering every PE, so the metrics file has the same shape as a
    // launch-mode federation and the same sum invariant (rank edges ==
    // manifest edges).
    if let Some(path) = &o.metrics_out {
        ALLOC_LIVE_END.set(CountingAlloc::live());
        let wall_us = (run_started.elapsed().as_secs_f64() * 1e6) as u64;
        let telemetry = kagen_obs::Telemetry::capture();
        let rank = RankMetrics {
            rank: 0,
            pe_begin: 0,
            pe_end: manifest.chunks,
            edges: manifest.edges,
            wall_us,
            attempts: 1,
            counters: telemetry.counters,
            histograms: telemetry.histograms,
        };
        RunMetrics::federate(&manifest, vec![rank], wall_us)
            .save(Path::new(path))
            .expect("cannot write metrics file");
        kagen_obs::debug!("metrics -> {path}");
    }
}

/// Print a `--stats` line for a streamed degree accumulator.
fn print_degree_summary(n: u64, m: u64, deg: &DegreeStatsSink, label: &str) {
    let (first, second) = deg.stats();
    match second {
        Some(in_deg) => info!(
            "n = {n}, m = {m}, in-deg {}/{:.2}/{}, out-deg {}/{:.2}/{} ({label})",
            in_deg.min, in_deg.mean, in_deg.max, first.min, first.mean, first.max,
        ),
        None => info!(
            "n = {n}, m = {m}, degrees {}/{:.2}/{} ({label})",
            first.min, first.mean, first.max,
        ),
    }
}

/// The worker-facing flags that re-create this generator in a child
/// process: every model parameter plus seed, chunks, format, threads and
/// the shard directory. Extra model flags are harmless — the parser
/// accepts the full union and `build_generator` reads what the model
/// needs.
fn worker_args(o: &Options, shard_dir: &str, format: ShardFormat) -> Vec<String> {
    let mut args: Vec<String> = vec![
        o.model.clone(),
        "-n".into(),
        o.n.to_string(),
        "-m".into(),
        o.m.to_string(),
        "-p".into(),
        o.p.to_string(),
        "-d".into(),
        o.d.to_string(),
        "-g".into(),
        o.gamma.to_string(),
        "-T".into(),
        o.temperature.to_string(),
        "-b".into(),
        o.blocks.to_string(),
        "--p-in".into(),
        o.p_in.to_string(),
        "--p-out".into(),
        o.p_out.to_string(),
        // Kernel and levels are passed *resolved* (auto levels pinned on
        // the coordinator), so workers rebuild the identical instance
        // even if their host reports a different cache size.
        "--rmat-kernel".into(),
        rmat_config(o).0.into(),
        "--rmat-levels".into(),
        rmat_config(o).1.to_string(),
        "--gnp-leaves".into(),
        o.gnp_leaves.clone(),
        "-s".into(),
        o.seed.to_string(),
        "-c".into(),
        o.chunks.to_string(),
        "-t".into(),
        o.threads.max(1).to_string(),
        "-f".into(),
        format.name().into(),
        "--shard-dir".into(),
        shard_dir.into(),
    ];
    if let Some(r) = o.r {
        args.push("-r".into());
        args.push(r.to_string());
    }
    // Telemetry pass-through: workers inherit the coordinator's
    // verbosity; `--metrics-out` asks every rank for a metrics sidecar,
    // `--trace-out` for a span sidecar (both federated by the
    // coordinator afterwards), and `--progress`/`--stall-timeout` for
    // the heartbeat file the coordinator polls.
    if o.metrics_out.is_some() {
        args.push("--metrics-sidecar".into());
    }
    if o.trace_out.is_some() {
        args.push("--trace-sidecar".into());
    }
    if o.progress.is_some() || o.stall_timeout.is_some() {
        args.push("--heartbeat".into());
    }
    for _ in 0..o.verbosity.unsigned_abs() {
        args.push(if o.verbosity > 0 { "-v" } else { "-q" }.into());
    }
    args
}

/// Coordinator mode: plan ranks, spawn `kagen worker` children, keep the
/// ledger, federate the manifest. See `kagen_cluster` for the library
/// behind this.
fn run_launch(o: &Options) {
    let shard_dir = o.shard_dir.as_deref().expect("validated");
    let format = o
        .format
        .as_deref()
        .map(|name| ShardFormat::parse(name).expect("validated"))
        .unwrap_or(ShardFormat::Compressed);
    let workers = o.workers.unwrap_or_else(|| {
        // kagen-lint: allow(d2) -- default worker count partitions PEs across
        // processes only; shards + federated manifest are worker-count-invariant (CI cmp)
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    let (gen, params) = build_generator(o);
    let meta = InstanceMeta {
        model: o.model.clone(),
        params,
        seed: o.seed,
    };
    let header = meta.header(gen.as_ref(), format);
    let exe = std::env::current_exe().expect("cannot locate own binary for re-exec");
    let runner = kagen_repro::cluster::ProcessRunner {
        exe,
        worker_args: worker_args(o, shard_dir, format),
        dir: PathBuf::from(shard_dir),
        stall_timeout: o.stall_timeout.map(std::time::Duration::from_secs_f64),
    };
    let validate = if o.no_validate {
        kagen_repro::cluster::ValidateMode::None
    } else {
        o.validate
            .as_deref()
            .map(|name| kagen_repro::cluster::ValidateMode::parse(name).expect("validated"))
            .unwrap_or_default()
    };
    let opts = kagen_repro::cluster::LaunchOptions {
        workers,
        resume: o.resume,
        validate,
        retries: o.retries.unwrap_or(0),
        progress: o.progress.map(std::time::Duration::from_secs_f64),
        ..Default::default()
    };
    let launch_span = trace::span("launch.total");
    match kagen_repro::cluster::launch(Path::new(shard_dir), &header, &opts, &runner) {
        Ok(report) => {
            let wall = launch_span.finish();
            // Keep this line machine-parseable: the integration tests
            // and CI assert on `regenerated=[..] reused=N` (the logger
            // supplies the `kagen launch: ` prefix).
            info!(
                "{} ranks spawned, regenerated={:?} reused={} -> {} edges, \
                 federated manifest in {wall:.3}s",
                report.spawned.len(),
                report.regenerated_pes,
                report.reused_shards,
                report.manifest.edges,
            );
            if let Some(path) = &o.metrics_out {
                ALLOC_LIVE_END.set(CountingAlloc::live());
                let wall_us = (wall * 1e6) as u64;
                RunMetrics::federate(&report.manifest, report.rank_metrics, wall_us)
                    .save(Path::new(path))
                    .expect("cannot write metrics file");
                kagen_obs::debug!("metrics -> {path}");
            }
            // The launch trace is the federated cross-rank timeline —
            // coordinator spans plus every worker sidecar realigned onto
            // this process's clock (`main` skips its generic trace write
            // for launch mode).
            if let Some(path) = &o.trace_out {
                kagen_repro::cluster::trace::write_federated_chrome_trace(
                    Path::new(path),
                    &report.rank_traces,
                )
                .expect("cannot write trace file");
                kagen_obs::debug!(
                    "federated trace -> {path} ({} rank sidecars)",
                    report.rank_traces.len()
                );
            }
        }
        Err(e) => {
            kagen_obs::error!("{e}");
            std::process::exit(1);
        }
    }
}

/// Worker mode: generate one contiguous PE range into shard files plus a
/// partial manifest. Spawned by `kagen launch`; usable by hand for
/// running ranks on separate machines over a shared filesystem.
fn run_worker(o: &Options) {
    let shard_dir = o.shard_dir.as_deref().expect("validated");
    let format = o
        .format
        .as_deref()
        .map(|name| ShardFormat::parse(name).expect("validated"))
        .unwrap_or(ShardFormat::Compressed);
    let (a, b) = o.pe_range.expect("validated");
    let (gen, _params) = build_generator(o);
    let inject = kagen_repro::cluster::FailureInjection::from_env();
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
        .expect("cannot start heartbeat publisher");
    let work_span = trace::span("worker.generate");
    match kagen_repro::cluster::run_worker(
        gen.as_ref(),
        Path::new(shard_dir),
        format,
        a..b,
        o.threads.max(1),
        inject,
    ) {
        Ok(shards) => {
            let secs = work_span.finish();
            drop(publisher);
            if o.metrics_sidecar {
                kagen_repro::cluster::metrics::write_sidecar(
                    Path::new(shard_dir),
                    a as u64,
                    b as u64,
                )
                .expect("cannot write metrics sidecar");
            }
            if o.trace_sidecar {
                kagen_repro::cluster::trace::write_sidecar(
                    Path::new(shard_dir),
                    a as u64,
                    b as u64,
                )
                .expect("cannot write trace sidecar");
            }
            // Standalone telemetry (hand-run ranks on separate
            // machines): the same sidecar-shaped documents, at paths of
            // the operator's choosing.
            if let Some(path) = &o.metrics_out {
                std::fs::write(path, kagen_obs::Telemetry::capture().to_json())
                    .expect("cannot write metrics file");
                kagen_obs::debug!("metrics -> {path}");
            }
            if let Some(path) = &o.trace_out {
                trace::write_chrome_trace(Path::new(path)).expect("cannot write trace file");
                kagen_obs::debug!("trace -> {path}");
            }
            let edges: u64 = shards.iter().map(|s| s.edges).sum();
            info!(
                "PEs {a}..{b} -> {} shards, {edges} edges in {secs:.3}s",
                shards.len(),
            );
        }
        Err(e) => {
            kagen_obs::error!("{e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let o = parse();
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
    let prefix = match o.mode {
        Mode::Materialize => "kagen".to_string(),
        Mode::Stream => "kagen stream".to_string(),
        Mode::Launch => "kagen launch".to_string(),
        // The rank id lives in the prefix so every line of a worker —
        // library warnings included — is attributable in the
        // coordinator's interleaved stderr.
        Mode::Worker => match o.rank {
            Some(r) => format!("kagen worker rank {r}"),
            None => "kagen worker".to_string(),
        },
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
    match o.mode {
        Mode::Materialize => run_materialized(&o),
        Mode::Stream => run_stream(&o),
        Mode::Launch => run_launch(&o),
        Mode::Worker => run_worker(&o),
    }
    // Launch writes the federated timeline and a worker its sidecar
    // document inside their run functions; only the single-process
    // modes use the generic span dump.
    if let Some(path) = &o.trace_out {
        if matches!(o.mode, Mode::Materialize | Mode::Stream) {
            trace::write_chrome_trace(Path::new(path)).expect("cannot write trace file");
            kagen_obs::debug!(
                "trace -> {path} ({} events)",
                kagen_obs::trace::event_count()
            );
        }
    }
}

//! The `kagen` command line as data.
//!
//! [`FLAGS`] has one row per option (spellings, value, which modes
//! refuse it and with what words, how `launch` hands it to workers, help
//! text, and a setter that parses the value once into a typed
//! [`Options`] field). [`MODELS`] has one row per generator (name, the
//! parameter flags it reads, their admissible ranges, the manifest
//! params string, the constructor). [`parse`], [`help`] and
//! [`worker_args`] are loops over the two tables; a new flag or model is
//! one row.

use kagen_cluster::{ShardState, ValidateMode};
use kagen_core::er::largest_piece;
use kagen_core::prelude::*;
use kagen_geometry::hyperbolic::RhgSpace;
use kagen_pipeline::{ShardFormat, ShardInfo};
use std::fmt::Write;
use std::path::Path;

/// Which front-end path a `kagen` invocation takes. The discriminants
/// are bits so a set of modes is a `u8`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// `kagen <model>` — generate, merge in RAM, write one file.
    Materialize = 1,
    /// `kagen stream <model>` — shard files + manifest, bounded memory.
    Stream = 2,
    /// `kagen launch <model>` — coordinator of a multi-process run.
    Launch = 4,
    /// `kagen worker <model>` — one rank of a launch.
    Worker = 8,
}

const MAT: u8 = Mode::Materialize as u8;
const STREAM: u8 = Mode::Stream as u8;
const LAUNCH: u8 = Mode::Launch as u8;
const WORKER: u8 = Mode::Worker as u8;
const EVERY_MODE: u8 = MAT | STREAM | LAUNCH | WORKER;

/// Every mode, in help order.
pub const MODES: [Mode; 4] = [Mode::Materialize, Mode::Stream, Mode::Launch, Mode::Worker];

impl Mode {
    /// The word after `kagen` that selects the mode, and what the mode
    /// does. Materialize has no word: a model name comes first.
    fn about(self) -> (&'static str, &'static str) {
        match self {
            Mode::Materialize => ("<model>", "generate every PE, merge in RAM, write one file"),
            Mode::Stream => (
                "stream",
                "write one shard per PE plus manifest.json; RAM stays O(generator state),\n\
                 independent of the edge count",
            ),
            Mode::Launch => (
                "launch",
                "split the PEs into contiguous rank ranges and re-exec this binary as one\n\
                 `kagen worker` per rank; keep ledger.json, validate shard checksums, federate\n\
                 manifest.json — byte-identical to `kagen stream` of the same instance",
            ),
            Mode::Worker => (
                "worker",
                "one rank of a launch: write the range's shards, then the rank report\n\
                 part-<a>-<b>.json (spawned by `launch`; usable by hand over a shared filesystem)",
            ),
        }
    }

    /// Prefix of the mode's usage errors.
    pub fn name(self) -> String {
        format!("kagen {}", self.about().0)
    }
}

/// `-f` as parsed: a shard format, or the one whole-graph format only
/// `kagen <model>` writes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// A format shards (and `kagen <model>`) can be written in.
    Shard(ShardFormat),
    /// METIS adjacency lists.
    Metis,
}

/// `--merge` as parsed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Merge {
    /// Leave the shards as they are.
    None,
    /// Partition to key buckets + a sort per bucket, into one canonical file.
    External,
}

/// One parsed and validated `kagen` invocation.
#[derive(Clone, Debug)]
pub struct Options {
    pub mode: Mode,
    pub model: &'static Model,
    pub n: u64,
    pub m: u64,
    pub p: f64,
    pub r: Option<f64>,
    pub d: f64,
    pub gamma: f64,
    pub temperature: f64,
    pub blocks: usize,
    pub p_in: f64,
    pub p_out: f64,
    pub seed: u64,
    pub chunks: usize,
    pub threads: usize,
    pub output: Option<String>,
    pub format: Option<Format>,
    pub stats: bool,
    pub shard_dir: Option<String>,
    pub merge: Merge,
    pub merge_budget: Option<usize>,
    pub workers: Option<usize>,
    pub resume: bool,
    pub validate: ValidateMode,
    pub retries: u64,
    pub pe_range: Option<(usize, usize)>,
    pub rank: Option<usize>,
    /// Net `-v` (positive) / `-q` (negative) count; 0 = Info.
    pub verbosity: i32,
    pub metrics_out: Option<String>,
    pub trace_out: Option<String>,
    pub metrics_sidecar: bool,
    pub trace_sidecar: bool,
    pub heartbeat: bool,
    pub progress: Option<f64>,
    pub stall_timeout: Option<f64>,
}

impl Options {
    fn new(mode: Mode, model: &'static Model) -> Options {
        Options {
            mode,
            model,
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
            seed: 1,
            chunks: 64,
            threads: 0,
            output: None,
            format: None,
            stats: false,
            shard_dir: None,
            merge: Merge::None,
            merge_budget: None,
            workers: None,
            resume: false,
            validate: ValidateMode::Full,
            retries: 0,
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
        }
    }

    /// The shard format of stream/launch/worker mode (`parse` refused
    /// METIS there).
    pub fn shard_format(&self) -> ShardFormat {
        match self.format {
            Some(Format::Shard(f)) => f,
            _ => ShardFormat::Compressed,
        }
    }

    /// The shard directory; `parse` requires one outside materialize mode.
    pub fn shard_dir(&self) -> &Path {
        let dir = self.shard_dir.as_deref();
        // kagen-lint: allow(r1) -- `validate` refuses stream/launch/worker argv without --shard-dir, and only those modes ask
        Path::new(dir.expect("parse requires a shard directory in this mode"))
    }

    /// The PE range of this rank; `parse` requires one in worker mode.
    pub fn pe_range(&self) -> (usize, usize) {
        self.pe_range
            // kagen-lint: allow(r1) -- `validate` refuses worker argv without --pe-range, and only worker mode asks
            .expect("parse requires a PE range in worker mode")
    }

    /// R-MAT scale implied by `-n` (next power of two).
    fn rmat_scale(&self) -> u32 {
        self.n.next_power_of_two().ilog2().max(1)
    }

    /// R-MAT's levels per composed draw: the library's default, clamped
    /// to the scale — a constant, so every host names the same graph.
    fn rmat_levels(&self) -> u32 {
        Rmat::DEFAULT_LEVELS.min(self.rmat_scale())
    }

    /// The manifest/ledger params string of this instance.
    pub fn params(&self) -> String {
        (self.model.params)(self)
    }

    /// Build the generator. `parse` already ran [`Options::check_model`],
    /// so the constructors' own asserts hold.
    pub fn build(&self) -> Box<dyn Generator> {
        (self.model.build)(self)
    }

    /// The model's parameter ranges (and `-c`): `Err` exactly when
    /// building the generator or streaming from it would panic.
    pub fn check_model(&self) -> Result<(), String> {
        at_least(&CHUNKS, self.chunks as u64, 1)?;
        (self.model.check)(self)?;
        plan_fits(self)
    }
}

/// How `kagen launch` hands an option to its workers.
#[derive(Clone, Copy, Debug)]
pub enum Forward {
    /// Not at all (coordinator-only, or set per rank).
    Never,
    /// `<flag> <value>` when the model reads the flag.
    Param(fn(&Options) -> Option<String>),
    /// `<flag> <value>`, resolved on the coordinator; `None` omits it.
    Value(fn(&Options) -> Option<String>),
    /// The bare switch, this many times.
    Times(fn(&Options) -> usize),
}

/// One command-line option.
#[derive(Debug)]
pub struct Flag {
    /// Every spelling; the first is the one help and errors print.
    pub names: &'static [&'static str],
    /// Name of the value in help; `None` for a switch.
    pub metavar: Option<&'static str>,
    /// `(modes, phrase)`: in those modes the option is refused with
    /// `"{flag} requires {phrase}"`. Every other mode accepts it.
    pub rejects: &'static [(u8, &'static str)],
    pub forward: Forward,
    /// Help text; continuation lines are indented by the printer.
    pub help: &'static str,
    /// Parses `value` (empty for a switch) of the option spelled `flag`
    /// into its field.
    pub set: fn(&mut Options, flag: &str, value: &str) -> Result<(), String>,
}

impl Flag {
    /// Accepted everywhere, never forwarded, a switch that does nothing:
    /// rows name what differs.
    const BASE: Flag = Flag {
        names: &[],
        metavar: None,
        rejects: &[],
        forward: Forward::Never,
        help: "",
        set: |_, _, _| Ok(()),
    };

    /// The primary spelling.
    pub fn name(&self) -> &'static str {
        self.names[0]
    }

    /// The modes that accept the option, as a bit set.
    pub fn modes(&self) -> u8 {
        self.rejects.iter().fold(EVERY_MODE, |m, (r, _)| m & !r)
    }
}

/// Parse a number, naming the flag on failure.
fn num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    let parsed = value.parse();
    parsed.map_err(|_| format!("{flag} wants a number, got '{value}'"))
}

/// Parse a positive number of seconds.
fn seconds(flag: &str, value: &str, what: &str) -> Result<f64, String> {
    let secs: f64 = num(flag, value)?;
    if secs.is_nan() || secs <= 0.0 {
        return Err(format!("{flag} wants a positive {what}, got {secs}"));
    }
    Ok(secs)
}

/// A setter that cannot fail.
fn put<T>(slot: &mut T, value: T) -> Result<(), String> {
    *slot = value;
    Ok(())
}

const LAUNCH_ONLY: &[(u8, &str)] = &[(MAT | STREAM | WORKER, "`kagen launch`")];
const STREAM_ONLY: &[(u8, &str)] = &[(MAT | LAUNCH | WORKER, "`kagen stream`")];

static N: Flag = Flag {
    names: &["-n"],
    metavar: Some("vertices"),
    forward: Forward::Param(|o| Some(o.n.to_string())),
    help: "number of vertices (default 4096; rmat rounds up to 2^k)",
    set: |o, f, v| num(f, v).map(|x| o.n = x),
    ..Flag::BASE
};
static M: Flag = Flag {
    names: &["-m"],
    metavar: Some("edges"),
    forward: Forward::Param(|o| Some(o.m.to_string())),
    help: "number of edges (default 32768)",
    set: |o, f, v| num(f, v).map(|x| o.m = x),
    ..Flag::BASE
};
static P: Flag = Flag {
    names: &["-p"],
    metavar: Some("prob"),
    forward: Forward::Param(|o| Some(o.p.to_string())),
    help: "edge probability (default 0.001)",
    set: |o, f, v| num(f, v).map(|x| o.p = x),
    ..Flag::BASE
};
static R: Flag = Flag {
    names: &["-r"],
    metavar: Some("radius"),
    forward: Forward::Param(|o| o.r.map(|r| r.to_string())),
    help: "connection radius in (0, 1) (default: the connectivity threshold)",
    set: |o, f, v| num(f, v).map(|x| o.r = Some(x)),
    ..Flag::BASE
};
static D: Flag = Flag {
    names: &["-d"],
    metavar: Some("degree"),
    forward: Forward::Param(|o| Some(o.d.to_string())),
    help: "average degree; ba: edges per new vertex, an integer (default 8)",
    set: |o, f, v| num(f, v).map(|x| o.d = x),
    ..Flag::BASE
};
static GAMMA: Flag = Flag {
    names: &["-g"],
    metavar: Some("gamma"),
    forward: Forward::Param(|o| Some(o.gamma.to_string())),
    help: "power-law exponent, > 2 (default 2.8)",
    set: |o, f, v| num(f, v).map(|x| o.gamma = x),
    ..Flag::BASE
};
static TEMP: Flag = Flag {
    names: &["-T"],
    metavar: Some("temperature"),
    forward: Forward::Param(|o| Some(o.temperature.to_string())),
    help: "soft-rhg temperature in (0, 1) (default 0.5)",
    set: |o, f, v| num(f, v).map(|x| o.temperature = x),
    ..Flag::BASE
};
static BLOCKS: Flag = Flag {
    names: &["-b"],
    metavar: Some("blocks"),
    forward: Forward::Param(|o| Some(o.blocks.to_string())),
    help: "number of planted blocks, 1..=n (default 2)",
    set: |o, f, v| num(f, v).map(|x| o.blocks = x),
    ..Flag::BASE
};
static P_IN: Flag = Flag {
    names: &["--p-in"],
    metavar: Some("p"),
    forward: Forward::Param(|o| Some(o.p_in.to_string())),
    help: "edge probability inside a block (default 0.01)",
    set: |o, f, v| num(f, v).map(|x| o.p_in = x),
    ..Flag::BASE
};
static P_OUT: Flag = Flag {
    names: &["--p-out"],
    metavar: Some("p"),
    forward: Forward::Param(|o| Some(o.p_out.to_string())),
    help: "edge probability between blocks (default 0.001)",
    set: |o, f, v| num(f, v).map(|x| o.p_out = x),
    ..Flag::BASE
};
static SEED: Flag = Flag {
    names: &["-s"],
    metavar: Some("seed"),
    forward: Forward::Value(|o| Some(o.seed.to_string())),
    help: "instance seed (default 1)",
    set: |o, f, v| num(f, v).map(|x| o.seed = x),
    ..Flag::BASE
};
static CHUNKS: Flag = Flag {
    names: &["-c"],
    metavar: Some("chunks"),
    forward: Forward::Value(|o| Some(o.chunks.to_string())),
    help: "logical PEs, one shard each (default 64)",
    set: |o, f, v| num(f, v).map(|x| o.chunks = x),
    ..Flag::BASE
};
static THREADS: Flag = Flag {
    names: &["-t"],
    metavar: Some("threads"),
    // W workers on W cores: a worker is serial unless told otherwise.
    forward: Forward::Value(|o| Some(o.threads.max(1).to_string())),
    help: "worker threads (default: all cores; launch/worker: 1 per worker)",
    set: |o, f, v| num(f, v).map(|x| o.threads = x),
    ..Flag::BASE
};
static FORMAT: Flag = Flag {
    names: &["-f"],
    metavar: Some("format"),
    forward: Forward::Value(|o| Some(o.shard_format().name().into())),
    help: "edge-list | metis | binary | compressed (default edge-list);\n\
           stream/launch/worker: the shard format, edge-list | binary |\n\
           compressed (default compressed)",
    set: |o, _, v| match (ShardFormat::parse(v), o.mode, v) {
        (Some(shard), _, _) => put(&mut o.format, Some(Format::Shard(shard))),
        (None, Mode::Materialize, "metis") => put(&mut o.format, Some(Format::Metis)),
        (None, Mode::Materialize, _) => Err(format!(
            "unknown format '{v}' (want edge-list | metis | binary | compressed)"
        )),
        _ => Err(format!("unknown shard format '{v}'")),
    },
    ..Flag::BASE
};
static OUTPUT: Flag = Flag {
    names: &["-o"],
    metavar: Some("path"),
    rejects: &[(
        LAUNCH | WORKER,
        "`kagen stream --merge external` or `kagen <model>`",
    )],
    help: "output file (default: stdout); stream: the merged file of\n\
           `--merge external` (default: <shard-dir>/merged.<ext>)",
    set: |o, _, v| put(&mut o.output, Some(v.into())),
    ..Flag::BASE
};
static STATS: Flag = Flag {
    names: &["--stats"],
    rejects: &[(LAUNCH | WORKER, "`kagen <model>` or `kagen stream`")],
    help: "print graph statistics to stderr (directed models report\n\
           in-/out-degrees)",
    set: |o, _, _| put(&mut o.stats, true),
    ..Flag::BASE
};
static SHARD_DIR: Flag = Flag {
    names: &["--shard-dir"],
    metavar: Some("dir"),
    rejects: &[(MAT, "`kagen stream|launch|worker`")],
    forward: Forward::Value(|o| o.shard_dir.clone()),
    help: "shard output directory (required)",
    set: |o, _, v| put(&mut o.shard_dir, Some(v.into())),
};
static MERGE: Flag = Flag {
    names: &["--merge"],
    metavar: Some("mode"),
    rejects: STREAM_ONLY,
    help: "none | external (default none): external also writes the canonical\n\
           merged edge list (partition to key buckets, sort each), within the budget",
    set: |o, _, v| match v {
        "none" => put(&mut o.merge, Merge::None),
        "external" => put(&mut o.merge, Merge::External),
        _ => Err(format!("unknown merge mode '{v}'")),
    },
    ..Flag::BASE
};
static BUDGET: Flag = Flag {
    names: &["--merge-budget"],
    metavar: Some("edges"),
    rejects: STREAM_ONLY,
    help: "external-merge RAM budget in edges, >= 1 (default 1<<22)",
    set: |o, f, v| num(f, v).map(|x| o.merge_budget = Some(x)),
    ..Flag::BASE
};
static WORKERS: Flag = Flag {
    names: &["--workers"],
    metavar: Some("w"),
    rejects: LAUNCH_ONLY,
    help: "concurrent worker processes (default: cores)",
    set: |o, f, v| match num(f, v)? {
        0 => Err(format!("{f} must be >= 1")),
        w => put(&mut o.workers, Some(w)),
    },
    ..Flag::BASE
};
static RESUME: Flag = Flag {
    names: &["--resume"],
    rejects: LAUNCH_ONLY,
    help: "reuse valid shards of an interrupted/corrupted run; regenerate\n\
           only missing or invalid shards",
    set: |o, _, _| put(&mut o.resume, true),
    ..Flag::BASE
};
static VALIDATE: Flag = Flag {
    names: &["--validate"],
    metavar: Some("mode"),
    rejects: LAUNCH_ONLY,
    help: "full | sampled | sampled=K | none (default full). sampled =\n\
           size/structure walk + K decoded, checksum-verified blocks per\n\
           shard (default K=4; K >= the shard's block count decodes every\n\
           block) — the resume fast path for huge runs; none skips the\n\
           post-run re-read only",
    set: |o, _, v| match ValidateMode::parse(v) {
        Some(mode) => put(&mut o.validate, mode),
        None => Err(format!("unknown validate mode '{v}'")),
    },
    ..Flag::BASE
};
static RETRIES: Flag = Flag {
    names: &["--retries"],
    metavar: Some("budget"),
    rejects: LAUNCH_ONLY,
    help: "in-launch retry budget per rank: transient worker failures are\n\
           respawned (exponential backoff) up to <budget> times before the\n\
           rank counts as failed (default 0)",
    set: |o, f, v| num(f, v).map(|x| o.retries = x),
    ..Flag::BASE
};
static PROGRESS: Flag = Flag {
    names: &["--progress"],
    metavar: Some("secs"),
    rejects: LAUNCH_ONLY,
    help: "print a live progress line every <secs> seconds: PEs/edges done\n\
           (completed ranks + live worker heartbeats), edges/sec, ETA",
    set: |o, f, v| seconds(f, v, "interval").map(|x| o.progress = Some(x)),
    ..Flag::BASE
};
static STALL: Flag = Flag {
    names: &["--stall-timeout"],
    metavar: Some("secs"),
    rejects: LAUNCH_ONLY,
    help: "kill a worker whose heartbeat has not advanced in <secs> seconds\n\
           and count the attempt as failed (retried under --retries). This\n\
           and --progress make workers publish part-<a>-<b>.heartbeat.json",
    set: |o, f, v| seconds(f, v, "window").map(|x| o.stall_timeout = Some(x)),
    ..Flag::BASE
};
static PE_RANGE: Flag = Flag {
    names: &["--pe-range"],
    metavar: Some("a..b"),
    rejects: &[
        (MAT | STREAM, "`kagen worker`"),
        (LAUNCH, "`kagen worker` (launch plans ranks itself)"),
    ],
    help: "contiguous PE range to generate (required)",
    set: |o, f, v| match v.split_once("..") {
        Some((a, b)) => put(&mut o.pe_range, Some((num(f, a)?, num(f, b)?))),
        None => Err(format!("{f} wants `a..b`, got '{v}'")),
    },
    ..Flag::BASE
};
static RANK: Flag = Flag {
    names: &["--rank"],
    metavar: Some("r"),
    rejects: &[(MAT | STREAM | LAUNCH, "`kagen worker`")],
    help: "rank id, for log lines only",
    set: |o, f, v| num(f, v).map(|x| o.rank = Some(x)),
    ..Flag::BASE
};
static M_SIDECAR: Flag = Flag {
    names: &["--metrics-sidecar"],
    rejects: &[(
        MAT | STREAM | LAUNCH,
        "`kagen worker` (launch --metrics-out sets it)",
    )],
    forward: Forward::Times(|o| o.metrics_out.is_some() as usize),
    help: "include this rank's counters in its rank report (set by\n\
           `launch --metrics-out`)",
    set: |o, _, _| put(&mut o.metrics_sidecar, true),
    ..Flag::BASE
};
static T_SIDECAR: Flag = Flag {
    names: &["--trace-sidecar"],
    rejects: &[(
        MAT | STREAM | LAUNCH,
        "`kagen worker` (launch --trace-out sets it)",
    )],
    forward: Forward::Times(|o| o.trace_out.is_some() as usize),
    help: "include this rank's spans in its rank report (set by\n\
           `launch --trace-out`)",
    set: |o, _, _| put(&mut o.trace_sidecar, true),
    ..Flag::BASE
};
static HEARTBEAT: Flag = Flag {
    names: &["--heartbeat"],
    rejects: &[(
        MAT | STREAM | LAUNCH,
        "`kagen worker` (launch --progress/--stall-timeout set it)",
    )],
    forward: Forward::Times(|o| (o.progress.is_some() || o.stall_timeout.is_some()) as usize),
    help: "publish a liveness/progress heartbeat file while generating\n\
           (set by `launch --progress` or `launch --stall-timeout`)",
    set: |o, _, _| put(&mut o.heartbeat, true),
    ..Flag::BASE
};
static VERBOSE: Flag = Flag {
    names: &["-v", "-vv"],
    forward: Forward::Times(|o| o.verbosity.max(0) as usize),
    help: "more logging (-v debug, -vv trace); the KAGEN_LOG env var\n\
           (error|warn|info|debug|trace) sets the default level",
    set: |o, f, _| {
        o.verbosity += f.len() as i32 - 1;
        Ok(())
    },
    ..Flag::BASE
};
static QUIET: Flag = Flag {
    names: &["-q", "-qq"],
    forward: Forward::Times(|o| (-o.verbosity).max(0) as usize),
    help: "less logging (-q warnings only, -qq errors only)",
    set: |o, f, _| {
        o.verbosity -= f.len() as i32 - 1;
        Ok(())
    },
    ..Flag::BASE
};
static M_OUT: Flag = Flag {
    names: &["--metrics-out"],
    metavar: Some("path"),
    rejects: &[(MAT, "`kagen stream|launch|worker`")],
    help: "write run metrics JSON (kagen-metrics/v3: per-rank counter scalars,\n\
           wall time and edge totals, which reconcile with the manifest's\n\
           edge count). A standalone worker writes its own counters document",
    set: |o, _, v| put(&mut o.metrics_out, Some(v.into())),
    ..Flag::BASE
};
static TRACE_OUT: Flag = Flag {
    names: &["--trace-out"],
    metavar: Some("path"),
    help: "write Chrome trace-event JSON of the run's phase spans (open in\n\
           chrome://tracing or ui.perfetto.dev). launch: the federated\n\
           cross-rank timeline — every worker's spans realigned onto the\n\
           coordinator's clock, one pid row per rank, flow arrows from each\n\
           supervisor rank-N span to its worker. Other modes: this process's\n\
           own spans (a Chrome trace with a schema/pid/epoch_unix_us header)",
    set: |o, _, v| put(&mut o.trace_out, Some(v.into())),
    ..Flag::BASE
};

/// Every option, in help order.
pub static FLAGS: &[&Flag] = &[
    &N, &M, &P, &R, &D, &GAMMA, &TEMP, &BLOCKS, &P_IN, &P_OUT, &SEED, &CHUNKS, &THREADS, &FORMAT,
    &OUTPUT, &STATS, &SHARD_DIR, &MERGE, &BUDGET, &WORKERS, &RESUME, &VALIDATE, &RETRIES,
    &PROGRESS, &STALL, &PE_RANGE, &RANK, &M_SIDECAR, &T_SIDECAR, &HEARTBEAT, &VERBOSE, &QUIET,
    &M_OUT, &TRACE_OUT,
];

/// Spellings that used to be options, and what to say instead: any use,
/// with any value, is a usage error naming the removal.
pub const RETIRED: &[(&str, &str)] = &[
    ("--no-validate", "spell it `--validate none`"),
    (
        "--rmat-kernel",
        "R-MAT has one kernel, the linear-work table of 8 levels per draw; \
         the per-level descent is kagen_baselines::Graph500Rmat",
    ),
    (
        "--rmat-levels",
        "R-MAT draws 8 levels per table lookup (fewer below scale 8) on every host, \
         so the same parameters name the same graph anywhere",
    ),
    (
        "--gnp-leaves",
        "G(n,p) has one leaf sampler, geometric skips; \
         the binomial + Method D leaves are kagen_baselines::GnpAlgoD",
    ),
];

/// One generator model.
#[derive(Debug)]
pub struct Model {
    pub name: &'static str,
    /// The parameter flags the model reads (and `launch` forwards).
    pub flags: &'static [&'static Flag],
    /// The admissible parameter ranges — what the constructor asserts.
    pub check: fn(&Options) -> Result<(), String>,
    /// The params string of manifests and resume ledgers. Spellings are
    /// frozen: `--resume` compares them byte for byte.
    pub params: fn(&Options) -> String,
    pub build: fn(&Options) -> Box<dyn Generator>,
}

/// `Err("{flag} must be {range}, got {x}")` unless `ok`.
fn in_range(ok: bool, flag: &Flag, range: &str, x: impl std::fmt::Display) -> Result<(), String> {
    if ok {
        return Ok(());
    }
    Err(format!("{} must be {range}, got {x}", flag.name()))
}

fn at_least(flag: &Flag, x: u64, min: u64) -> Result<(), String> {
    in_range(x >= min, flag, &format!(">= {min}"), x)
}

fn probability(flag: &Flag, x: f64) -> Result<(), String> {
    in_range((0.0..=1.0).contains(&x), flag, "in [0, 1]", x)
}

fn open_unit(flag: &Flag, x: f64) -> Result<(), String> {
    in_range(x > 0.0 && x < 1.0, flag, "in (0, 1)", x)
}

/// `-m` edges fit a universe of `pairs` vertex pairs.
fn fits(o: &Options, pairs: u128, formula: &str) -> Result<(), String> {
    in_range(
        o.m as u128 <= pairs,
        &M,
        &format!("<= {formula} = {pairs}"),
        o.m,
    )
}

fn ordered_pairs(n: u64) -> u128 {
    n as u128 * (n as u128).saturating_sub(1)
}

/// What the directed ER leaf blocks allow: at most 2^63 blocks of at
/// most 2^44 pairs each.
fn directed_fits(n: u64) -> Result<(), String> {
    let range = "small enough that n(n-1) <= 2^107";
    in_range(ordered_pairs(n) <= 1 << 107, &N, range, n)
}

/// `flag` cuts the `-n` vertices into `parts` even parts (the undirected
/// chunk matrix, planted SBM blocks); every piece's vertex pairs must fit
/// one 64-bit leaf. Names the smallest admissible count.
fn pieces_fit(o: &Options, flag: &Flag, parts: u64, piece: &str) -> Result<(), String> {
    let fits = |parts| largest_piece(o.n, parts) <= u64::MAX as u128;
    // The largest piece shrinks as parts grow: bisect for the first fit.
    let (mut min, mut max) = (1, o.n.max(1));
    while min < max {
        let mid = min + (max - min) / 2;
        if fits(mid) {
            max = mid;
        } else {
            min = mid + 1;
        }
    }
    let range = format!(">= {min} for n = {} ({piece} must fit 64 bits)", o.n);
    in_range(fits(parts), flag, &range, parts)
}

/// The largest chunk count whose per-chunk plan can be allocated. A
/// run holds one shard record per planned chunk (`io::Result<ShardInfo>`
/// while the PEs run, a `ShardState` in the launch ledger), and no
/// allocation may exceed `isize::MAX` bytes.
fn max_chunks() -> u64 {
    let record = size_of::<std::io::Result<ShardInfo>>().max(size_of::<ShardState>());
    (isize::MAX as usize / record) as u64
}

/// `-c` names a plan [`max_chunks`] admits. Models that clamp the chunk
/// count (the grid levels of RGG/RDG, undirected ER's chunk matrix)
/// plan fewer chunks than asked; only a count beyond the ceiling builds
/// the generator to ask it.
fn plan_fits(o: &Options) -> Result<(), String> {
    let max = max_chunks();
    let planned = if o.chunks as u64 <= max {
        o.chunks as u64
    } else {
        o.build().num_chunks() as u64
    };
    let range = format!("<= {max} (one shard record per chunk must fit one allocation)");
    in_range(planned <= max, &CHUNKS, &range, o.chunks)
}

/// `-r`, or the connectivity-threshold radius of the dimension.
fn radius(o: &Options, threshold: fn(u64, u64) -> f64) -> f64 {
    o.r.unwrap_or_else(|| threshold(o.n, 1))
}

fn rgg_check(o: &Options) -> Result<(), String> {
    at_least(&N, o.n, 1)?;
    o.r.map_or(Ok(()), |r| open_unit(&R, r))
}

/// What `RhgSpace::new` asserts, for the three hyperbolic models.
fn hyperbolic_check(o: &Options) -> Result<(), String> {
    at_least(&N, o.n, 2)?;
    in_range(o.gamma > 2.0, &GAMMA, "> 2", o.gamma)?;
    in_range(o.d > 0.0, &D, "> 0", o.d)?;
    let disk = RhgSpace::disk_radius(o.n, o.d, o.gamma);
    let range = format!("small enough for n = {} (disk radius {disk} <= 0)", o.n);
    in_range(disk > 0.0, &D, &range, o.d)
}

fn hyperbolic_params(o: &Options) -> String {
    format!("n={} d={} gamma={}", o.n, o.d, o.gamma)
}

/// The `leaves=skip` marker stays, so every skip-sampled run directory
/// resumes. A ledger without it — the binomial + Method D instance's
/// `n=.. p=..` — no longer matches: `--resume` refuses it instead of
/// mixing in shards of a different instance.
fn gnp_params(o: &Options) -> String {
    format!("n={} p={} leaves=skip", o.n, o.p)
}

/// The `kernel=linear` marker stays, so every run directory of the
/// linear-work kernel resumes. A ledger without it — the retired plain
/// descent's `levels=0` or the retired table kernel's `levels=N` — no
/// longer matches, nor does a linear run at a level count other than the
/// default: `--resume` refuses it instead of mixing in shards of a
/// different instance.
fn rmat_params(o: &Options) -> String {
    let (scale, levels) = (o.rmat_scale(), o.rmat_levels());
    format!("scale={scale} m={} kernel=linear levels={levels}", o.m)
}

/// `$gen` with the instance seed and chunk count, boxed.
macro_rules! seeded {
    ($o:ident, $gen:expr) => {
        Box::new($gen.with_seed($o.seed).with_chunks($o.chunks))
    };
}

/// Every model, in help order.
pub static MODELS: &[Model] = &[
    Model {
        name: "gnm_directed",
        flags: &[&N, &M],
        check: |o| {
            directed_fits(o.n)?;
            fits(o, ordered_pairs(o.n), "n(n-1)")
        },
        params: |o| format!("n={} m={}", o.n, o.m),
        build: |o| seeded!(o, GnmDirected::new(o.n, o.m)),
    },
    Model {
        name: "gnm_undirected",
        flags: &[&N, &M],
        check: |o| {
            fits(o, ordered_pairs(o.n) / 2, "n(n-1)/2")?;
            pieces_fit(o, &CHUNKS, o.chunks as u64, "a chunk's vertex pairs")
        },
        params: |o| format!("n={} m={}", o.n, o.m),
        build: |o| seeded!(o, GnmUndirected::new(o.n, o.m)),
    },
    Model {
        name: "gnp_directed",
        flags: &[&N, &P],
        check: |o| directed_fits(o.n).and(probability(&P, o.p)),
        params: gnp_params,
        build: |o| seeded!(o, GnpDirected::new(o.n, o.p)),
    },
    Model {
        name: "gnp_undirected",
        flags: &[&N, &P],
        check: |o| {
            probability(&P, o.p)?;
            pieces_fit(o, &CHUNKS, o.chunks as u64, "a chunk's vertex pairs")
        },
        params: gnp_params,
        build: |o| seeded!(o, GnpUndirected::new(o.n, o.p)),
    },
    Model {
        name: "rgg2d",
        flags: &[&N, &R],
        check: rgg_check,
        params: |o| format!("n={} r={}", o.n, radius(o, Rgg2d::threshold_radius)),
        build: |o| seeded!(o, Rgg2d::new(o.n, radius(o, Rgg2d::threshold_radius))),
    },
    Model {
        name: "rgg3d",
        flags: &[&N, &R],
        check: rgg_check,
        params: |o| format!("n={} r={}", o.n, radius(o, Rgg3d::threshold_radius)),
        build: |o| seeded!(o, Rgg3d::new(o.n, radius(o, Rgg3d::threshold_radius))),
    },
    Model {
        name: "rdg2d",
        flags: &[&N],
        check: |o| at_least(&N, o.n, 4),
        params: |o| format!("n={}", o.n),
        build: |o| seeded!(o, Rdg2d::new(o.n)),
    },
    Model {
        name: "rdg3d",
        flags: &[&N],
        check: |o| at_least(&N, o.n, 5),
        params: |o| format!("n={}", o.n),
        build: |o| seeded!(o, Rdg3d::new(o.n)),
    },
    Model {
        name: "rhg",
        flags: &[&N, &D, &GAMMA],
        check: hyperbolic_check,
        params: hyperbolic_params,
        build: |o| seeded!(o, Rhg::new(o.n, o.d, o.gamma)),
    },
    Model {
        name: "srhg",
        flags: &[&N, &D, &GAMMA],
        check: hyperbolic_check,
        params: hyperbolic_params,
        build: |o| seeded!(o, Srhg::new(o.n, o.d, o.gamma)),
    },
    Model {
        name: "soft-rhg",
        flags: &[&N, &D, &GAMMA, &TEMP],
        check: |o| hyperbolic_check(o).and(open_unit(&TEMP, o.temperature)),
        params: |o| format!("{} T={}", hyperbolic_params(o), o.temperature),
        build: |o| seeded!(o, SoftRhg::new(o.n, o.d, o.gamma, o.temperature)),
    },
    Model {
        name: "ba",
        flags: &[&N, &D],
        // `-d 2.7` used to run as d = 2; the last slot's position
        // 2·(n·d − 1) + 1 must fit a u64.
        check: |o| {
            let d = o.d as u64;
            let fits = o.n.checked_mul(d).is_some_and(|slots| slots <= 1 << 63);
            let ok = d >= 1 && d as f64 == o.d && fits;
            in_range(ok, &D, "a positive integer (with n*d <= 2^63)", o.d)
        },
        params: |o| format!("n={} d={}", o.n, o.d as u64),
        build: |o| seeded!(o, BarabasiAlbert::new(o.n, o.d as u64)),
    },
    Model {
        name: "rmat",
        flags: &[&N, &M],
        check: |o| {
            if o.n > 1 << 63 {
                return Err(format!("needs n <= 2^63, got {}", o.n));
            }
            Ok(())
        },
        params: rmat_params,
        // The table is built here, before any PE runs: built by the
        // first worker instead, it raised `kagen stream`'s peak RSS.
        build: |o| {
            let levels = o.rmat_levels();
            let rmat = Rmat::new(o.rmat_scale(), o.m).with_kernel(RmatKernel::Linear { levels });
            seeded!(o, rmat)
        },
    },
    Model {
        name: "sbm",
        flags: &[&N, &BLOCKS, &P_IN, &P_OUT],
        check: |o| {
            let blocks = o.blocks as u64;
            in_range((1..=o.n).contains(&blocks), &BLOCKS, "in 1..=n", blocks)?;
            pieces_fit(o, &BLOCKS, blocks, "a block pair's vertex pairs")?;
            probability(&P_IN, o.p_in).and(probability(&P_OUT, o.p_out))
        },
        params: |o| {
            format!(
                "n={} blocks={} p_in={} p_out={}",
                o.n, o.blocks, o.p_in, o.p_out
            )
        },
        build: |o| {
            seeded!(
                o,
                StochasticBlockModel::planted(o.n, o.blocks, o.p_in, o.p_out)
            )
        },
    },
];

/// Parse `kagen`'s arguments (without the program name). `Err` is the
/// complete message of a usage error, for stderr and exit code 2 —
/// raised before anything is generated, written or spawned.
pub fn parse(args: &[String]) -> Result<Options, String> {
    let mut args = args.iter().map(String::as_str);
    let no_model = "no model given (see `kagen --help`)";
    let first = args.next().ok_or_else(|| format!("kagen: {no_model}"))?;
    let mode = MODES[1..].iter().find(|m| m.about().0 == first);
    let mode = mode.copied().unwrap_or(Mode::Materialize);
    let fail = |msg: String| format!("{}: {msg}", mode.name());
    let name = match mode {
        Mode::Materialize => first,
        _ => args.next().ok_or_else(|| fail(no_model.into()))?,
    };
    let model = MODELS.iter().find(|m| m.name == name);
    let model =
        model.ok_or_else(|| fail(format!("unknown model '{name}' (see `kagen --help`)")))?;
    let mut o = Options::new(mode, model);
    while let Some(arg) = args.next() {
        let flag = FLAGS.iter().find(|f| f.names.contains(&arg));
        let flag = flag.ok_or_else(|| match RETIRED.iter().find(|(old, _)| *old == arg) {
            Some((_, advice)) => fail(format!("{arg} is retired; {advice}")),
            None => fail(format!("unknown option '{arg}' (see `kagen --help`)")),
        })?;
        let refused = flag
            .rejects
            .iter()
            .find(|(modes, _)| modes & mode as u8 != 0);
        if let Some((_, phrase)) = refused {
            return Err(fail(format!("{arg} requires {phrase}")));
        }
        let value = match flag.metavar {
            None => "",
            Some(metavar) => args
                .next()
                .ok_or_else(|| fail(format!("{arg} wants a value <{metavar}>")))?,
        };
        (flag.set)(&mut o, arg, value).map_err(fail)?;
    }
    validate(&o).map_err(fail)?;
    let in_model = |msg| fail(format!("{}: {msg}", model.name));
    o.check_model().map_err(in_model)?;
    Ok(o)
}

/// The rules that span more than one option.
fn validate(o: &Options) -> Result<(), String> {
    if o.mode != Mode::Materialize && o.shard_dir.is_none() {
        return Err(format!("{} is required", SHARD_DIR.name()));
    }
    if o.mode == Mode::Stream && o.merge != Merge::External {
        let external = format!("{} external", MERGE.name());
        if o.output.is_some() {
            let (out, dir) = (OUTPUT.name(), SHARD_DIR.name());
            return Err(format!("{out} requires {external} (shards go to {dir})"));
        }
        // Accepted and ignored would be worse than refused.
        if o.merge_budget.is_some() {
            return Err(format!("{} requires {external}", BUDGET.name()));
        }
    }
    // `ExternalMerge` clamps this silently.
    if o.merge_budget == Some(0) {
        return Err(format!("{} must be >= 1", BUDGET.name()));
    }
    if o.mode == Mode::Worker {
        let range = PE_RANGE.name();
        let (a, b) = o.pe_range.ok_or_else(|| format!("{range} is required"))?;
        if a >= b || b > o.chunks {
            return Err(format!(
                "{range} {a}..{b} is not a non-empty sub-range of 0..{} ({})",
                o.chunks,
                CHUNKS.name()
            ));
        }
    }
    Ok(())
}

/// The arguments that re-create this instance in a `kagen worker`
/// process: the model, its own parameters, and every row that forwards —
/// seed, chunks, the resolved pins (threads, format, shard directory)
/// and the telemetry switches. The launcher appends the rank's PE range
/// and id.
pub fn worker_args(o: &Options) -> Vec<String> {
    let mut args = vec![o.model.name.to_string()];
    for flag in FLAGS {
        let name = flag.name().to_string();
        match flag.forward {
            Forward::Param(_) if !o.model.flags.iter().any(|f| std::ptr::eq(*f, *flag)) => {}
            Forward::Param(show) | Forward::Value(show) => {
                args.extend(show(o).into_iter().flat_map(|value| [name.clone(), value]))
            }
            Forward::Times(count) => args.extend(std::iter::repeat_n(name, count(o))),
            Forward::Never => {}
        }
    }
    args
}

/// The `--help` text, generated from [`MODELS`] and [`FLAGS`].
pub fn help() -> String {
    let spelled = |f: &Flag| match f.metavar {
        Some(metavar) => format!("{} <{metavar}>", f.name()),
        None => f.names.join(" / "),
    };
    let mut out = String::from("kagen — communication-free graph generation\n\n");
    for mode in MODES {
        let (word, does) = mode.about();
        let model = if mode == Mode::Materialize {
            ""
        } else {
            " <model>"
        };
        let _ = writeln!(out, "kagen {word}{model} [options]");
        for line in does.lines() {
            let _ = writeln!(out, "    {line}");
        }
    }
    out.push_str("\nmodels:\n");
    for model in MODELS {
        let flags: Vec<String> = model.flags.iter().map(|f| spelled(f)).collect();
        let _ = writeln!(out, "  {:<16}{}", model.name, flags.join(" "));
    }
    let mut section = |title: &str, belongs: &dyn Fn(&Flag) -> bool| {
        let _ = writeln!(out, "\n{title}:");
        for flag in FLAGS.iter().filter(|f| belongs(f)) {
            let mut left = spelled(flag);
            for line in flag.help.lines() {
                let _ = writeln!(out, "  {left:<24}{line}");
                left.clear();
            }
        }
    };
    let is_param = |f: &Flag| matches!(f.forward, Forward::Param(_));
    section("model parameters", &is_param);
    section("options of every mode", &|f| {
        !is_param(f) && f.modes() == EVERY_MODE
    });
    for mode in MODES {
        let takes = |f: &Flag| f.modes() != EVERY_MODE && f.modes() & mode as u8 != 0;
        section(&format!("`{}` also takes", mode.name()), &takes);
    }
    out.push_str(
        "\nTelemetry never touches an RNG stream or an output byte: shards and\n\
         manifest.json are bit-identical with metrics/tracing on or off.\n",
    );
    out
}

//! `throughput` — the edges/second harness behind `BENCH_throughput.json`.
//!
//! Measures every hot generator on a single core through
//! `stream_pe_batched` — the one delivery primitive every product path
//! (`kagen stream`, `launch`, `worker`) runs — once into a checksum fold
//! and once into a boxed `BinarySink` (the shard path minus the file).
//! The headline `*_vs_*` ratios compare kernels, both sides on that same
//! path: linear-work R-MAT against plain descent, skip-sampled G(n,p)
//! against the Algorithm-D leaves.
//!
//! ```text
//! throughput [--quick] [--reps N] [--out PATH] [--max-workers W]
//!            [--metrics] [--trace-out PATH]
//!            [--compare BASELINE] [--compare-tolerance FRAC]
//!
//!   --quick          tiny sizes (CI smoke: seconds, not minutes)
//!   --reps N         repetitions per measurement, best-of (default 3)
//!   --out PATH       JSON output (default BENCH_throughput.json)
//!   --max-workers W  cap of the multi-worker scaling sweep
//!                    (default: available cores)
//!   --metrics        enable the obs metric registry during the runs and
//!                    embed its scalar snapshot as the "metrics" object
//!   --trace-out PATH write a Chrome trace of every timed region (each
//!                    best-of repetition is one span)
//!   --compare BASELINE        perf-regression gate: after the run,
//!                    discover every headline `*_vs_*` ratio in the
//!                    fresh JSON and gate each against BASELINE
//!                    (normally the checked-in BENCH_throughput.json),
//!                    exiting non-zero if any fresh ratio fell below
//!                    baseline x (1 - tolerance); new kernels' ratios
//!                    are auto-gated, not hand-listed
//!   --compare-tolerance FRAC  the tolerance band (default 0.5 — a
//!                    quick CI run on shared hardware compares against
//!                    a full-mode baseline, so the gate is a collapse
//!                    detector, not a percent-level tracker)
//! ```
//!
//! Besides the single-core measurements, the harness runs a
//! **multi-worker scaling sweep** (the paper's §8 scaling experiments,
//! emulated in-process): the PE range is split into `W` contiguous rank
//! ranges — the identical plan the `kagen_cluster` multi-process
//! launcher uses — and executed on `W` threads via
//! [`kagen_runtime::run_rank_ranges`]. *Strong* points keep the instance
//! fixed as `W` grows; *weak* points scale the edge count linearly with
//! `W` (the paper's weak-scaling setup, Figs. 7–18). A 1-core box has
//! no curve to measure: it writes `"scaling": []`.
//!
//! The JSON is machine-readable so future PRs have a trajectory to beat;
//! the paper's headline metric (§8.6.1) is exactly this rate.

use kagen_core::er::GnpLeaves;
use kagen_core::prelude::*;
use kagen_core::streaming::BATCH_EDGES;
use kagen_obs::{error, info, trace, warn};
use kagen_pipeline::{BinarySink, EdgeSink};
use kagen_util::alloc::CountingAlloc;
use std::fmt::Write as _;
use std::hint::black_box;

/// Counting allocator: every model's *peak allocation during streaming*
/// is recorded next to its edges/s — the portable per-model stand-in
/// for peak RSS.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct Measurement {
    name: &'static str,
    model: &'static str,
    params: String,
    edges: u64,
    batched_secs: f64,
    /// Writer-boundary timing: the instance streamed into a boxed
    /// `BinarySink` (the `kagen stream` shard path, minus the file) via
    /// `push_batch`.
    sink_batched_secs: f64,
    /// Peak bytes allocated during one batched streaming pass (counting
    /// allocator high-water above the pre-pass baseline): the working
    /// set of the generator — for the spatial family, the frontier of
    /// the cell cursor, NOT the edge count.
    peak_alloc_bytes: u64,
}

impl Measurement {
    fn batched_eps(&self) -> f64 {
        self.edges as f64 / self.batched_secs
    }
}

/// The sink the writer-boundary measurements stream into: the binary
/// shard encoder over a buffered null writer — the memcpy-into-buffer
/// traffic of a real file write, without disk noise or a platform-
/// specific device path.
fn null_binary_sink() -> Box<dyn EdgeSink> {
    Box::new(BinarySink::new(std::io::BufWriter::new(std::io::sink())))
}

/// Best-of-`reps` wall time streamed into a boxed binary sink through
/// `push_batch`: one virtual call and one buffered write per batch. Every
/// timed region here and below is an obs span: one wall-clock source for
/// the JSON numbers and for `--trace-out`.
fn time_sink_batched<G: Generator + ?Sized>(name: &str, gen: &G, reps: u32) -> f64 {
    let mut best = f64::INFINITY;
    let mut buf = Vec::with_capacity(BATCH_EDGES);
    for _ in 0..reps {
        let mut sink = null_binary_sink();
        let span = trace::span(format!("{name}.sink_batched"));
        for pe in 0..gen.num_chunks() {
            gen.stream_pe_batched(pe, &mut buf, &mut |batch| sink.push_batch(batch));
        }
        best = best.min(span.finish().max(1e-9));
        black_box(sink.finish().unwrap());
    }
    best
}

/// Best-of-`reps` wall time of one full instance streamed in batches
/// into an order-sensitive checksum fold (so the stream is consumed, not
/// optimized away); returns the edge count along with it.
fn time_batched<G: Generator + ?Sized>(name: &str, gen: &G, reps: u32) -> (u64, f64) {
    let mut edges = 0u64;
    let mut best = f64::INFINITY;
    let mut buf = Vec::with_capacity(BATCH_EDGES);
    for _ in 0..reps {
        let mut acc = 0u64;
        let mut count = 0u64;
        let span = trace::span(format!("{name}.batched"));
        for pe in 0..gen.num_chunks() {
            gen.stream_pe_batched(pe, &mut buf, &mut |batch| {
                for &(u, v) in batch {
                    acc = acc.rotate_left(1) ^ u.wrapping_add(v.rotate_left(17));
                }
                count += batch.len() as u64;
            });
        }
        best = best.min(span.finish().max(1e-9));
        black_box(acc);
        edges = count;
    }
    (edges, best)
}

/// Peak allocation of one batched streaming pass over the whole
/// instance, measured with the counting allocator (batch buffer
/// pre-reserved outside the window; the consumer keeps only a checksum).
fn measure_peak_alloc<G: Generator + ?Sized>(gen: &G) -> u64 {
    let mut buf = Vec::with_capacity(BATCH_EDGES);
    let mut acc = 0u64;
    let peak = CountingAlloc::peak_during(|| {
        for pe in 0..gen.num_chunks() {
            gen.stream_pe_batched(pe, &mut buf, &mut |batch| {
                for &(u, v) in batch {
                    acc ^= u.wrapping_add(v.rotate_left(17));
                }
            });
        }
    });
    black_box(acc);
    peak
}

fn measure<G: Generator + ?Sized>(
    name: &'static str,
    model: &'static str,
    params: String,
    gen: &G,
    reps: u32,
) -> Measurement {
    let (edges, batched_secs) = time_batched(name, gen, reps);
    let sink_batched_secs = time_sink_batched(name, gen, reps);
    let peak_alloc_bytes = measure_peak_alloc(gen);
    info!(
        "{name:<16} {edges:>10} edges   batched {ba:>7.1} Meps   sink {sba:>7.1} Meps   peak {peak:>8} B",
        ba = edges as f64 / batched_secs / 1e6,
        sba = edges as f64 / sink_batched_secs / 1e6,
        peak = peak_alloc_bytes,
    );
    Measurement {
        name,
        model,
        params,
        edges,
        batched_secs,
        sink_batched_secs,
        peak_alloc_bytes,
    }
}

/// One point of the multi-worker scaling sweep.
struct ScalingPoint {
    name: &'static str,
    /// `strong` (fixed instance) or `weak` (edges ∝ workers).
    mode: &'static str,
    workers: usize,
    edges: u64,
    secs: f64,
    /// Aggregate edges/sec over the whole pool.
    eps: f64,
}

/// Best-of-`reps` wall time of the instance executed as `workers` rank
/// ranges on `workers` threads — the in-process twin of
/// `kagen launch --workers W`, sharing its plan via
/// [`kagen_runtime::run_rank_ranges`].
fn time_rank_ranges<G: Generator + Sync + ?Sized>(
    label: &str,
    gen: &G,
    workers: usize,
    reps: u32,
) -> (u64, f64) {
    let run_range = |_rank: usize, pes: std::ops::Range<usize>| {
        let mut acc = 0u64;
        let mut count = 0u64;
        let mut buf = Vec::with_capacity(BATCH_EDGES);
        for pe in pes {
            gen.stream_pe_batched(pe, &mut buf, &mut |batch| {
                for &(u, v) in batch {
                    acc ^= u.wrapping_add(v.rotate_left(17));
                }
                count += batch.len() as u64;
            });
        }
        black_box(acc);
        count
    };
    let mut edges = 0u64;
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let span = trace::span(format!("scaling.{label}.w{workers}"));
        let counts = kagen_runtime::run_rank_ranges(gen.num_chunks(), workers, run_range);
        best = best.min(span.finish().max(1e-9));
        edges = counts.iter().sum();
    }
    (edges, best)
}

/// Extract the numeric value of `"key": <number>` from a JSON document
/// by string scanning. The workspace's hand-rolled JSON parser is
/// deliberately u64-only; the baseline's speedup ratios are floats, and
/// this handful-of-keys gate does not justify growing the parser.
fn extract_f64(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Discover every headline ratio key in a throughput JSON document:
/// a quoted key containing `_vs_` whose value parses as a number. The
/// gate walks the *fresh* document's keys, so a new kernel's ratio is
/// auto-gated the moment it is written to the JSON — no hand-kept key
/// list to forget to extend.
fn discover_ratio_keys(text: &str) -> Vec<String> {
    let mut keys: Vec<String> = Vec::new();
    let mut rest = text;
    while let Some(start) = rest.find('"') {
        rest = &rest[start + 1..];
        let Some(end) = rest.find('"') else { break };
        let key = &rest[..end];
        rest = &rest[end + 1..];
        if key.contains("_vs_")
            && extract_f64(text, key).is_some()
            && !keys.iter().any(|k| k == key)
        {
            keys.push(key.to_string());
        }
    }
    keys
}

/// The perf-regression gate: each `(key, fresh ratio)` must stay at or
/// above the baseline document's value times `(1 - tolerance)`. Returns
/// the failing keys' messages (empty = gate passed). A key missing from
/// the baseline is skipped with a warning — an old-schema baseline must
/// not fail every future run.
fn compare_ratios(baseline: &str, fresh: &[(&str, f64)], tolerance: f64) -> Vec<String> {
    let mut failures = Vec::new();
    for (key, fresh_ratio) in fresh {
        let Some(base) = extract_f64(baseline, key) else {
            warn!("compare: baseline has no '{key}', skipping");
            continue;
        };
        let floor = base * (1.0 - tolerance);
        if *fresh_ratio < floor {
            // Old value, new value, and their quotient — enough to judge
            // the regression's size straight from the CI log.
            failures.push(format!(
                "{key}: old {base:.3} -> new {fresh_ratio:.3} \
                 (new/old {:.3}, floor {floor:.3} at tolerance {tolerance})",
                fresh_ratio / base
            ));
        } else {
            info!("compare {key}: {fresh_ratio:.3} vs baseline {base:.3} (floor {floor:.3}) OK");
        }
    }
    failures
}

/// Worker counts of the sweep: powers of two up to `max`, plus `max`.
/// None on a 1-core box: workers sharing one core measure the scheduler,
/// and rows of them read as a flat scaling curve.
fn worker_counts(detected_cores: usize, max: usize) -> Vec<usize> {
    let mut counts = Vec::new();
    if detected_cores == 1 {
        return counts;
    }
    let mut w = 1;
    while w <= max {
        counts.push(w);
        w *= 2;
    }
    if counts.last() != Some(&max) {
        counts.push(max);
    }
    counts
}

/// The §8-style scaling sweep: strong (fixed `m`) and weak (`m` per
/// worker) points for an R-MAT instance across worker counts.
fn scaling_sweep(
    scale: u32,
    m: u64,
    chunks: usize,
    worker_counts: &[usize],
    reps: u32,
) -> Vec<ScalingPoint> {
    let mut points = Vec::new();
    for &workers in worker_counts {
        // Strong scaling: the instance is fixed, workers grow.
        let gen = Rmat::new(scale, m)
            .with_seed(1)
            .with_chunks(chunks)
            .with_kernel(RmatKernel::Linear { levels: 8 });
        let (edges, secs) = time_rank_ranges("strong", &gen, workers, reps);
        points.push(ScalingPoint {
            name: "rmat_linear",
            mode: "strong",
            workers,
            edges,
            secs,
            eps: edges as f64 / secs,
        });
        // Weak scaling: per-worker edge count is fixed, the instance
        // grows with the pool (the paper's setup).
        let gen = Rmat::new(scale, m * workers as u64)
            .with_seed(1)
            .with_chunks(chunks)
            .with_kernel(RmatKernel::Linear { levels: 8 });
        let (edges, secs) = time_rank_ranges("weak", &gen, workers, reps);
        points.push(ScalingPoint {
            name: "rmat_linear",
            mode: "weak",
            workers,
            edges,
            secs,
            eps: edges as f64 / secs,
        });
        let last = points.len() - 2;
        info!(
            "scaling w={workers:<3} strong {:>7.1} Meps   weak {:>7.1} Meps",
            points[last].eps / 1e6,
            points[last + 1].eps / 1e6,
        );
    }
    points
}

fn main() {
    kagen_obs::log::init_from_env();
    kagen_obs::log::set_prefix("throughput");
    let mut quick = false;
    let mut reps = 3u32;
    let mut out = String::from("BENCH_throughput.json");
    let mut max_workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut metrics = false;
    let mut trace_out: Option<String> = None;
    let mut compare: Option<String> = None;
    let mut compare_tolerance = 0.5f64;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--quick" => quick = true,
            "--reps" => {
                // Zero reps would leave every best-of time at infinity
                // and emit `inf`/`NaN` — not valid JSON.
                reps = match args.next().map(|v| v.parse()) {
                    Some(Ok(r)) if r >= 1 => r,
                    _ => {
                        error!("--reps needs an integer >= 1");
                        std::process::exit(2);
                    }
                }
            }
            "--out" => out = args.next().expect("--out needs a path"),
            "--max-workers" => {
                max_workers = match args.next().map(|v| v.parse()) {
                    Some(Ok(w)) if w >= 1 => w,
                    _ => {
                        error!("--max-workers needs an integer >= 1");
                        std::process::exit(2);
                    }
                }
            }
            "--metrics" => metrics = true,
            "--trace-out" => trace_out = Some(args.next().expect("--trace-out needs a path")),
            "--compare" => compare = Some(args.next().expect("--compare needs a baseline path")),
            "--compare-tolerance" => {
                compare_tolerance = match args.next().map(|v| v.parse()) {
                    Some(Ok(t)) if (0.0..1.0).contains(&t) => t,
                    _ => {
                        error!("--compare-tolerance needs a fraction in [0, 1)");
                        std::process::exit(2);
                    }
                }
            }
            other => {
                error!("unknown flag '{other}'");
                std::process::exit(2);
            }
        }
    }
    if metrics {
        kagen_obs::metrics::set_enabled(true);
    }
    if trace_out.is_some() {
        kagen_obs::trace::set_enabled(true);
    }

    // Full mode: the ISSUE's reference point — scale 20, 2^22 edges.
    let (scale, m, n, ba_n) = if quick {
        (14u32, 1u64 << 16, 1u64 << 14, 1u64 << 13)
    } else {
        (20u32, 1u64 << 22, 1u64 << 20, 1u64 << 19)
    };
    let chunks = 64usize;
    let universe_d = (n as f64) * (n as f64 - 1.0);
    let p_directed = (m as f64 / universe_d).min(1.0);
    let p_undirected = (m as f64 / (universe_d / 2.0)).min(1.0);

    info!(
        "{} mode, reps={reps}, chunks={chunks}, batch={BATCH_EDGES}",
        if quick { "quick" } else { "full" }
    );

    let mut results = Vec::new();
    results.push(measure(
        "rmat_plain",
        "rmat",
        format!("scale={scale} m={m} plain"),
        &Rmat::new(scale, m).with_seed(1).with_chunks(chunks),
        reps,
    ));
    // The linear-work composed-table kernel (the CLI default): one
    // fused alias draw per 8-level path block,
    // deinterleaved halves, pow2 word sampling. Levels are pinned at 8
    // rather than auto-sized so the recorded params reproduce the same
    // instance on any box regardless of its L2.
    results.push(measure(
        "rmat_linear",
        "rmat",
        format!("scale={scale} m={m} kernel=linear levels=8"),
        &Rmat::new(scale, m)
            .with_seed(1)
            .with_chunks(chunks)
            .with_kernel(RmatKernel::Linear { levels: 8 }),
        reps,
    ));
    // Scale 32: u and v no longer fit one interleaved word; the composed
    // kernel accumulates them separately and keeps its rate.
    let (s32_scale, s32_m) = (32u32, if quick { 1u64 << 15 } else { 1u64 << 21 });
    results.push(measure(
        "rmat_plain_s32",
        "rmat",
        format!("scale={s32_scale} m={s32_m} plain"),
        &Rmat::new(s32_scale, s32_m).with_seed(1).with_chunks(chunks),
        reps,
    ));
    results.push(measure(
        "rmat_linear_s32",
        "rmat",
        format!("scale={s32_scale} m={s32_m} kernel=linear levels=8"),
        &Rmat::new(s32_scale, s32_m)
            .with_seed(1)
            .with_chunks(chunks)
            .with_kernel(RmatKernel::Linear { levels: 8 }),
        reps,
    ));
    results.push(measure(
        "gnm_directed",
        "gnm_directed",
        format!("n={n} m={m}"),
        &GnmDirected::new(n, m).with_seed(1).with_chunks(chunks),
        reps,
    ));
    results.push(measure(
        "gnm_undirected",
        "gnm_undirected",
        format!("n={n} m={m}"),
        &GnmUndirected::new(n, m).with_seed(1).with_chunks(chunks),
        reps,
    ));
    results.push(measure(
        "gnp_directed",
        "gnp_directed",
        format!("n={n} p={p_directed:.3e}"),
        &GnpDirected::new(n, p_directed)
            .with_seed(1)
            .with_chunks(chunks),
        reps,
    ));
    results.push(measure(
        "gnp_undirected",
        "gnp_undirected",
        format!("n={n} p={p_undirected:.3e}"),
        &GnpUndirected::new(n, p_undirected)
            .with_seed(1)
            .with_chunks(chunks),
        reps,
    ));
    // The Algorithm-D G(n,p) baseline (binomial counts + Vitter Method D
    // per leaf — the pre-skip-kernel instance, kept in-tree behind
    // `GnpLeaves::AlgoD`): the comparison point the skip kernel is
    // measured against.
    results.push(measure(
        "gnp_directed_algoD",
        "gnp_directed",
        format!("n={n} p={p_directed:.3e} leaves=algo-d"),
        &GnpDirected::new(n, p_directed)
            .with_seed(1)
            .with_chunks(chunks)
            .with_leaves(GnpLeaves::AlgoD),
        reps,
    ));
    results.push(measure(
        "gnp_undirected_algoD",
        "gnp_undirected",
        format!("n={n} p={p_undirected:.3e} leaves=algo-d"),
        &GnpUndirected::new(n, p_undirected)
            .with_seed(1)
            .with_chunks(chunks)
            .with_leaves(GnpLeaves::AlgoD),
        reps,
    ));
    results.push(measure(
        "ba_d8",
        "ba",
        format!("n={ba_n} d=8"),
        &BarabasiAlbert::new(ba_n, 8)
            .with_seed(1)
            .with_chunks(chunks),
        reps,
    ));

    // The spatial/hyperbolic family (native cell-cursor streaming since
    // the unified-core rework): slower per edge than the index-based
    // generators, so smaller instances — the interesting column is
    // peak_alloc_bytes, which must track the cell frontier, not the
    // edge count.
    let (rgg_n, rgg3_n, rdg_n, rhg_n, soft_n) = if quick {
        (1u64 << 12, 1u64 << 11, 1u64 << 10, 1u64 << 12, 1u64 << 10)
    } else {
        (1u64 << 16, 1u64 << 14, 1u64 << 13, 1u64 << 15, 1u64 << 12)
    };
    let spatial_chunks = 16usize;
    results.push(measure(
        "rgg2d",
        "rgg2d",
        format!("n={rgg_n} r=threshold"),
        &Rgg2d::new(rgg_n, Rgg2d::threshold_radius(rgg_n, 1))
            .with_seed(1)
            .with_chunks(spatial_chunks),
        reps,
    ));
    results.push(measure(
        "rgg3d",
        "rgg3d",
        format!("n={rgg3_n} r=threshold"),
        &Rgg3d::new(rgg3_n, Rgg3d::threshold_radius(rgg3_n, 1))
            .with_seed(1)
            .with_chunks(spatial_chunks),
        reps,
    ));
    results.push(measure(
        "rdg2d",
        "rdg2d",
        format!("n={rdg_n}"),
        &Rdg2d::new(rdg_n).with_seed(1).with_chunks(spatial_chunks),
        reps,
    ));
    results.push(measure(
        "rhg",
        "rhg",
        format!("n={rhg_n} d=8 gamma=2.8"),
        &Rhg::new(rhg_n, 8.0, 2.8)
            .with_seed(1)
            .with_chunks(spatial_chunks),
        reps,
    ));
    results.push(measure(
        "srhg",
        "srhg",
        format!("n={rhg_n} d=8 gamma=2.8"),
        &Srhg::new(rhg_n, 8.0, 2.8)
            .with_seed(1)
            .with_chunks(spatial_chunks),
        reps,
    ));
    results.push(measure(
        "soft_rhg",
        "soft-rhg",
        format!("n={soft_n} d=8 gamma=2.8 T=0.5"),
        &SoftRhg::new(soft_n, 8.0, 2.8, 0.5)
            .with_seed(1)
            .with_chunks(spatial_chunks),
        reps,
    ));

    // The R-MAT acceptance ratios: the linear-work composed kernel
    // against plain descent, at scale 20 and at scale 32.
    let by_name = |needle: &str| results.iter().find(|r| r.name == needle).unwrap();
    let rmat_ratio = by_name("rmat_plain").batched_secs / by_name("rmat_linear").batched_secs;
    let rmat_s32_ratio =
        by_name("rmat_plain_s32").batched_secs / by_name("rmat_linear_s32").batched_secs;
    info!(
        "rmat batched(linear) vs batched(plain): {rmat_ratio:.2}x, at scale 32: {rmat_s32_ratio:.2}x"
    );

    // The ER acceptance ratios: the geometric-skip G(n,p) leaves (the
    // CLI default) against the Algorithm-D leaves. Throughput is
    // normalized per *edge* (the instances are distinct same-distribution
    // samples, so edge counts differ slightly).
    let er_ratio =
        |skip: &str, algod: &str| by_name(skip).batched_eps() / by_name(algod).batched_eps();
    let er_directed_ratio = er_ratio("gnp_directed", "gnp_directed_algoD");
    let er_undirected_ratio = er_ratio("gnp_undirected", "gnp_undirected_algoD");
    info!(
        "er skip vs algo-D (both batched): directed {er_directed_ratio:.2}x, \
         undirected {er_undirected_ratio:.2}x"
    );

    // Multi-worker scaling sweep (paper §8): edges/sec vs worker count
    // over the rank-range plan shared with `kagen launch`. The plan
    // cannot hand out more ranks than chunks, so worker counts beyond
    // the chunk count would silently run `chunks` threads while being
    // recorded as more — cap the sweep instead of recording fiction.
    if max_workers > chunks {
        warn!("scaling sweep: capping --max-workers {max_workers} at {chunks} chunks");
        max_workers = chunks;
    }
    // A sweep of fewer than two worker counts is no curve; downstream
    // consumers must see that rather than mistake it for a flat scaling
    // result. On a 1-core box it has no points at all.
    let detected_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let counts = worker_counts(detected_cores, max_workers);
    let degenerate_sweep = counts.len() <= 1;
    if degenerate_sweep {
        warn!(
            "scaling sweep is DEGENERATE ({} point(s)): {detected_cores} core(s) detected — \
             re-run on a multi-core box for a real curve",
            counts.len()
        );
    }
    info!("scaling sweep: workers {counts:?}, rank-range plan over {chunks} chunks");
    let scaling = scaling_sweep(scale, m, chunks, &counts, reps);

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"kagen-throughput/v6\",\n");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"repetitions\": {reps},");
    let _ = writeln!(json, "  \"chunks\": {chunks},");
    let _ = writeln!(json, "  \"batch_edges\": {BATCH_EDGES},");
    let _ = writeln!(json, "  \"detected_cores\": {detected_cores},");
    let _ = writeln!(json, "  \"max_workers\": {max_workers},");
    let _ = writeln!(json, "  \"degenerate_sweep\": {degenerate_sweep},");
    // The obs scalar snapshot of the whole run — counters, gauge
    // peaks, histogram count/sum. Empty unless --metrics, so the
    // default timings carry zero registry overhead inside the loops.
    let _ = writeln!(json, "  \"metrics_enabled\": {metrics},");
    json.push_str("  \"metrics\": {");
    for (i, (name, v)) in kagen_obs::metrics::scalars().iter().enumerate() {
        if i > 0 {
            json.push_str(", ");
        }
        let _ = write!(json, "\"{name}\": {v}");
    }
    json.push_str("},\n");
    let _ = writeln!(
        json,
        "  \"rmat_linear_batched_vs_plain_batched\": {rmat_ratio:.3},"
    );
    let _ = writeln!(
        json,
        "  \"rmat_linear_s32_batched_vs_plain_batched\": {rmat_s32_ratio:.3},"
    );
    let _ = writeln!(
        json,
        "  \"er_skip_batched_vs_algoD_batched_directed\": {er_directed_ratio:.3},"
    );
    let _ = writeln!(
        json,
        "  \"er_skip_batched_vs_algoD_batched_undirected\": {er_undirected_ratio:.3},"
    );
    json.push_str("  \"scaling\": [\n");
    for (i, p) in scaling.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"mode\": \"{}\", \"workers\": {}, \"edges\": {}, \
             \"seconds\": {:.6}, \"eps\": {:.0}}}",
            p.name, p.mode, p.workers, p.edges, p.secs, p.eps
        );
        json.push_str(if i + 1 < scaling.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    json.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str("    {\n");
        let _ = writeln!(json, "      \"name\": \"{}\",", r.name);
        let _ = writeln!(json, "      \"model\": \"{}\",", r.model);
        let _ = writeln!(json, "      \"params\": \"{}\",", r.params);
        let _ = writeln!(json, "      \"edges\": {},", r.edges);
        let _ = writeln!(json, "      \"batched_seconds\": {:.6},", r.batched_secs);
        let _ = writeln!(json, "      \"batched_eps\": {:.0},", r.batched_eps());
        let _ = writeln!(
            json,
            "      \"sink_batched_eps\": {:.0},",
            r.edges as f64 / r.sink_batched_secs
        );
        let _ = writeln!(json, "      \"peak_alloc_bytes\": {}", r.peak_alloc_bytes);
        json.push_str(if i + 1 < results.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out, &json).expect("cannot write JSON output");
    if let Some(path) = &trace_out {
        trace::write_chrome_trace(std::path::Path::new(path)).expect("cannot write trace output");
        info!("trace -> {path} ({} spans)", trace::event_count());
    }
    info!("wrote {out}");

    // The perf-regression gate, last: the fresh JSON is on disk either
    // way, so a failing run still leaves the numbers to diagnose.
    if let Some(baseline_path) = &compare {
        let baseline = std::fs::read_to_string(baseline_path)
            .unwrap_or_else(|e| panic!("cannot read baseline {baseline_path}: {e}"));
        // Discover the headline ratios from the fresh document rather
        // than a hand-kept list: any `*_vs_*` key written above is
        // gated automatically. Baseline-only ratios (a key this run no
        // longer produces) are surfaced too — a renamed key must not
        // silently un-gate itself.
        let keys = discover_ratio_keys(&json);
        let fresh: Vec<(&str, f64)> = keys
            .iter()
            .filter_map(|k| extract_f64(&json, k).map(|v| (k.as_str(), v)))
            .collect();
        for k in discover_ratio_keys(&baseline) {
            if !keys.contains(&k) {
                warn!("compare: baseline ratio '{k}' is not produced by this run");
            }
        }
        let failures = compare_ratios(&baseline, &fresh, compare_tolerance);
        for f in &failures {
            error!("PERF REGRESSION {f}");
        }
        if !failures.is_empty() {
            std::process::exit(1);
        }
        info!("compare: all ratios within tolerance of {baseline_path}");
    }
}

#[cfg(test)]
mod tests {
    use super::{compare_ratios, discover_ratio_keys, extract_f64, worker_counts};

    const BASELINE: &str = r#"{
  "schema": "kagen-throughput/v6",
  "rmat_linear_batched_vs_plain_batched": 4.779,
  "rmat_linear_s32_batched_vs_plain_batched": 2.4,
  "er_skip_batched_vs_algoD_batched_directed": 2.080,
  "eps_note": "negative and exponent forms parse too",
  "name_vs_nothing_numeric": "a_vs_b string value, not a ratio",
  "neg": -1.5,
  "exp": 1.2e3
}"#;

    #[test]
    fn extracts_floats_by_key() {
        assert_eq!(
            extract_f64(BASELINE, "rmat_linear_batched_vs_plain_batched"),
            Some(4.779)
        );
        assert_eq!(extract_f64(BASELINE, "neg"), Some(-1.5));
        assert_eq!(extract_f64(BASELINE, "exp"), Some(1200.0));
        assert_eq!(extract_f64(BASELINE, "no_such_key"), None);
        assert_eq!(extract_f64(BASELINE, "schema"), None);
    }

    #[test]
    fn gate_fails_below_floor_and_skips_missing_keys() {
        // 4.779 * (1 - 0.5) = 2.3895: 2.5 passes, 2.0 fails.
        assert!(compare_ratios(
            BASELINE,
            &[("rmat_linear_batched_vs_plain_batched", 2.5)],
            0.5
        )
        .is_empty());
        let failures = compare_ratios(
            BASELINE,
            &[("rmat_linear_batched_vs_plain_batched", 2.0)],
            0.5,
        );
        assert_eq!(failures.len(), 1);
        // The message must carry the old value, the new value, and their
        // ratio (2.0 / 4.779 = 0.4185…).
        assert!(failures[0].contains("old 4.779"), "{failures:?}");
        assert!(failures[0].contains("new 2.000"), "{failures:?}");
        assert!(failures[0].contains("new/old 0.418"), "{failures:?}");
        // A key absent from the baseline is skipped, not failed.
        assert!(compare_ratios(
            BASELINE,
            &[("er_skip_batched_vs_algoD_batched_undirected", 0.1)],
            0.5
        )
        .is_empty());
    }

    #[test]
    fn discovers_ratio_keys_generically() {
        // Every `*_vs_*` key with a numeric value, in document order,
        // deduplicated; string-valued keys and plain keys are not
        // ratios.
        assert_eq!(
            discover_ratio_keys(BASELINE),
            vec![
                "rmat_linear_batched_vs_plain_batched",
                "rmat_linear_s32_batched_vs_plain_batched",
                "er_skip_batched_vs_algoD_batched_directed",
            ]
        );
        let doubled = format!("{BASELINE}{BASELINE}");
        assert_eq!(discover_ratio_keys(&doubled).len(), 3);
        assert!(discover_ratio_keys("{\"plain\": 1.0}").is_empty());
    }

    #[test]
    fn one_core_sweeps_nothing() {
        assert!(worker_counts(1, 1).is_empty());
        assert!(
            worker_counts(1, 8).is_empty(),
            "--max-workers cannot add cores"
        );
        assert_eq!(worker_counts(4, 4), vec![1, 2, 4]);
        assert_eq!(worker_counts(8, 6), vec![1, 2, 4, 6]);
        assert_eq!(worker_counts(8, 1), vec![1]);
    }
}

//! The coordinator: plan ranks, supervise workers, maintain the ledger,
//! federate the final manifest.
//!
//! The coordinator never generates an edge itself. It spawns workers
//! (separate OS processes via [`ProcessRunner`], or plain function calls
//! via [`InProcessRunner`]), records each rank's outcome in the ledger
//! after it finishes, and — once every PE's shard is done — validates
//! the per-shard checksums and writes the federated `manifest.json`. A
//! failed or killed worker leaves its PEs `pending`; a later
//! [`resume`](LaunchOptions::resume) launch re-plans exactly the missing
//! or invalid PEs and reuses everything else.

use crate::heartbeat;
use crate::ledger::{Ledger, RankStatus};
use crate::metrics::RankMetrics;
use crate::plan::{plan_ranks, plan_repairs, RankTask};
use crate::trace::RankTrace;
use crate::worker::{run_worker, FailureInjection};
use kagen_core::Generator;
use kagen_obs::json::invalid;
use kagen_obs::trace;
use kagen_pipeline::{validate_shard, validate_shard_sampled, Manifest, RunHeader, ShardFormat};
use kagen_runtime::run_chunks;
use std::collections::HashSet;
use std::io;
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// How the coordinator executes one rank task. The two implementations
/// — a re-exec'd OS process and an in-process function call — run the
/// identical worker code path ([`run_worker`]); the trait exists so
/// supervision, ledger and resume logic can be tested (and used on one
/// machine) without process-spawn overhead, and so tests can inject
/// failures deterministically.
pub trait WorkerRunner: Sync {
    /// Execute `task` and hand back its rank report: the shard infos it
    /// produced and whatever telemetry the worker was asked for. An
    /// `Err` — a failed worker, or a report that does not parse — marks
    /// the rank failed; its PEs stay pending.
    fn run(&self, task: &RankTask) -> io::Result<RankReport>;
}

/// What a finished rank hands the coordinator: the document a worker
/// process leaves as `part-<a>-<b>.json`.
pub use kagen_pipeline::PartialManifest as RankReport;

/// Spawn `exe worker <args> --pe-range a..b --rank r` as a child
/// process, wait for it, and collect its rank report.
#[derive(Debug)]
pub struct ProcessRunner {
    /// Binary to execute (normally `std::env::current_exe()` — the
    /// launcher re-execs itself).
    pub exe: PathBuf,
    /// Everything the worker needs except the PE range and rank: the
    /// model name, its parameters, seed, chunks, format, shard dir.
    pub worker_args: Vec<String>,
    /// Shard directory (to read rank reports back).
    pub dir: PathBuf,
    /// Kill a worker whose heartbeat file has not *changed* within this
    /// window and report the attempt as failed (feeding the retry
    /// budget). `None` waits indefinitely, the pre-heartbeat behavior.
    /// Requires the workers to heartbeat (`--heartbeat`) — staleness is
    /// judged purely by file content changing under the coordinator's
    /// local clock, so no clock agreement with the worker is needed.
    pub stall_timeout: Option<Duration>,
}

/// How often the stall watchdog polls the child and its heartbeat.
const STALL_POLL: Duration = Duration::from_millis(50);

impl ProcessRunner {
    fn wait_with_stall_watchdog(
        &self,
        mut child: std::process::Child,
        task: &RankTask,
        timeout: Duration,
    ) -> io::Result<std::process::ExitStatus> {
        let (a, b) = (task.pe_begin as u64, task.pe_end as u64);
        let hb_path = self.dir.join(heartbeat::heartbeat_file_name(a, b));
        let mut last_content: Option<Vec<u8>> = None;
        let mut last_advance = Instant::now();
        loop {
            if let Some(status) = child.try_wait()? {
                return Ok(status);
            }
            if let Ok(bytes) = std::fs::read(&hb_path) {
                if last_content.as_deref() != Some(&bytes[..]) {
                    last_content = Some(bytes);
                    last_advance = Instant::now();
                }
            }
            if last_advance.elapsed() >= timeout {
                child.kill().ok();
                child.wait().ok();
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!(
                        "worker rank {} (PEs {}..{}) stalled: no heartbeat advance in {:.1}s",
                        task.rank,
                        task.pe_begin,
                        task.pe_end,
                        timeout.as_secs_f64()
                    ),
                ));
            }
            std::thread::sleep(STALL_POLL.min(timeout));
        }
    }
}

impl WorkerRunner for ProcessRunner {
    fn run(&self, task: &RankTask) -> io::Result<RankReport> {
        let (a, b) = (task.pe_begin as u64, task.pe_end as u64);
        let mut cmd = std::process::Command::new(&self.exe);
        cmd.arg("worker")
            .args(&self.worker_args)
            .arg("--pe-range")
            .arg(format!("{a}..{b}"))
            .arg("--rank")
            .arg(task.rank.to_string());
        let result = match self.stall_timeout {
            Some(timeout) => self.wait_with_stall_watchdog(cmd.spawn()?, task, timeout),
            None => cmd.status(),
        };
        // A finished rank's heartbeat has served its purpose either
        // way: success ends the liveness question, and a failed/stalled
        // attempt must not leave bytes a retry would then have to
        // overwrite before the watchdog trusts the file again.
        std::fs::remove_file(self.dir.join(heartbeat::heartbeat_file_name(a, b))).ok();
        let status = result?;
        if !status.success() {
            return Err(io::Error::other(format!(
                "worker rank {} (PEs {a}..{b}) exited with {status}",
                task.rank
            )));
        }
        // The ledger and the federated documents take over as the
        // record; the report file goes whether or not it parsed.
        let report = RankReport::load(&self.dir, a, b);
        std::fs::remove_file(self.dir.join(RankReport::file_name(a, b))).ok();
        report
    }
}

/// Run the worker code path in this process — same bytes on disk, no
/// fork/exec. Carries an optional failure injection per PE for
/// supervision and resume tests.
pub struct InProcessRunner<'a> {
    /// The generator every worker derives its slice from.
    pub gen: &'a dyn Generator,
    /// Shard directory.
    pub dir: PathBuf,
    /// Shard format.
    pub format: ShardFormat,
    /// Worker threads per task (0 = all cores, 1 = serial).
    pub threads: usize,
    /// PEs whose generation should abort the owning task (tests).
    pub fail_pes: HashSet<usize>,
}

// Manual impl: trait objects carry no `Debug`; print everything else.
impl std::fmt::Debug for InProcessRunner<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InProcessRunner")
            .field("dir", &self.dir)
            .field("format", &self.format)
            .field("threads", &self.threads)
            .field("fail_pes", &self.fail_pes)
            .finish_non_exhaustive()
    }
}

impl<'a> InProcessRunner<'a> {
    /// Runner for `gen` writing `format` shards into `dir`, serial per
    /// task, no injected failures.
    pub fn new(gen: &'a dyn Generator, dir: impl Into<PathBuf>, format: ShardFormat) -> Self {
        InProcessRunner {
            gen,
            dir: dir.into(),
            format,
            threads: 1,
            fail_pes: HashSet::new(),
        }
    }
}

impl WorkerRunner for InProcessRunner<'_> {
    /// No telemetry: an in-process rank shares the coordinator's
    /// process-global metrics and trace buffer, and attributing those to
    /// a single rank would double-count them.
    fn run(&self, task: &RankTask) -> io::Result<RankReport> {
        let inject = FailureInjection {
            fail_before_pe: task.pes().find(|pe| self.fail_pes.contains(pe)),
            ..Default::default()
        };
        let shards = run_worker(
            self.gen,
            &self.dir,
            self.format,
            task.pes(),
            self.threads,
            inject,
        )?;
        Ok(RankReport {
            pe_begin: task.pe_begin as u64,
            pe_end: task.pe_end as u64,
            shards,
            metrics: None,
            trace: None,
        })
    }
}

/// Default restart blocks fully decoded per shard by sampled validation
/// (`--validate sampled` without an explicit `=K`).
pub const SAMPLED_BLOCKS: usize = 4;

/// Ceiling of the exponential retry backoff: late attempts of a
/// persistent fault must not park a supervisor slot for hours.
pub const MAX_RETRY_BACKOFF: Duration = Duration::from_secs(30);

/// How shards are verified against their recorded state — both when a
/// resume decides which existing shards to reuse, and after a launch
/// before the manifest is federated.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ValidateMode {
    /// Re-read every byte and compare the full edge-stream checksum —
    /// the end-to-end integrity guarantee, and the default.
    #[default]
    Full,
    /// Fast path for huge runs: size/structure checks plus `K` fully
    /// decoded, checksum-verified restart blocks per shard (see
    /// [`kagen_pipeline::validate_shard_sampled`]). Cuts resume latency
    /// from O(edges) to O(blocks + K·block); corruption inside an
    /// *unsampled* block can escape it — `K` is the operator's knob on
    /// that trade (`sampled=K` on the CLI; a `K` at or above the shard's
    /// block count decodes every block, i.e. full per-block coverage at
    /// a fraction of the full re-read's cost).
    Sampled(usize),
    /// Skip the post-run validation entirely (generation-time checksums
    /// are trusted). Resume-time reuse decisions still run the full
    /// re-read — reusing a shard nobody ever re-checked would silently
    /// break the byte-identity guarantee.
    None,
}

impl ValidateMode {
    /// Parse the CLI spelling: `full`, `none`, `sampled`, or
    /// `sampled=K` (K ≥ 1 decoded blocks per shard).
    pub fn parse(name: &str) -> Option<ValidateMode> {
        match name {
            "full" => Some(ValidateMode::Full),
            "sampled" => Some(ValidateMode::Sampled(SAMPLED_BLOCKS)),
            "none" => Some(ValidateMode::None),
            _ => {
                let k = name.strip_prefix("sampled=")?.parse().ok()?;
                (k >= 1).then_some(ValidateMode::Sampled(k))
            }
        }
    }
}

/// Validate `shards` (each against its recorded [`ShardInfo`]) on
/// `workers` threads of the PE pool and return `(pe, cause)` for every
/// failure, ascending by PE. Sampled validation is per-shard independent
/// work (header walks + a few decoded blocks), so it parallelizes
/// embarrassingly; the full re-read benefits identically.
fn validate_shards_parallel(
    dir: &Path,
    format: ShardFormat,
    shards: &[kagen_pipeline::ShardInfo],
    validate: ValidateMode,
    workers: usize,
) -> Vec<(usize, io::Error)> {
    let check = |info: &kagen_pipeline::ShardInfo| -> io::Result<()> {
        match validate {
            ValidateMode::Sampled(k) => validate_shard_sampled(dir, format, info, k),
            ValidateMode::Full | ValidateMode::None => validate_shard(dir, format, info),
        }
    };
    // Results come back in shard order, which is PE order.
    run_chunks(shards.len(), workers.max(1), |i| check(&shards[i]).err())
        .into_iter()
        .zip(shards)
        .filter_map(|(cause, info)| Some((info.pe as usize, cause?)))
        .collect()
}

/// Coordinator knobs.
#[derive(Clone, Copy, Debug)]
pub struct LaunchOptions {
    /// Maximum concurrently running workers (and the fresh-run rank
    /// count).
    pub workers: usize,
    /// Resume an interrupted/failed/corrupted run instead of starting
    /// fresh: reuse every shard that still validates, regenerate the
    /// rest.
    pub resume: bool,
    /// Shard validation policy (resume-time reuse checks and the
    /// post-run re-read).
    pub validate: ValidateMode,
    /// In-launch retry budget per rank: the slot that ran a failed rank
    /// retries it (with exponential backoff) up to this many extra
    /// attempts before it counts as failed and leaves its PEs for
    /// `--resume`. 0 (the default) preserves the retry-on-resume-only
    /// behavior.
    pub retries: u64,
    /// Base delay of the exponential retry backoff: attempt `k` (1-based
    /// among retries) sleeps `retry_backoff · 2^(k−1)` before
    /// re-spawning.
    pub retry_backoff: Duration,
    /// Print a live progress line (`info!` level) every interval:
    /// PEs/edges done so far (ledger-completed ranks plus live
    /// heartbeats found in the shard directory), aggregate edges/sec,
    /// and an ETA extrapolated from the rank plan. `None` disables the
    /// monitor thread entirely.
    pub progress: Option<Duration>,
}

impl Default for LaunchOptions {
    fn default() -> Self {
        LaunchOptions {
            workers: 1,
            resume: false,
            validate: ValidateMode::Full,
            retries: 0,
            retry_backoff: Duration::from_millis(500),
            progress: None,
        }
    }
}

/// What a launch did, beyond the manifest it produced.
#[derive(Clone, Debug)]
pub struct LaunchReport {
    /// The federated manifest (also written to `manifest.json`).
    pub manifest: Manifest,
    /// Tasks actually spawned by this launch, in plan order.
    pub spawned: Vec<RankTask>,
    /// PEs regenerated by this launch.
    pub regenerated_pes: Vec<usize>,
    /// Shards reused from the previous run (resume only).
    pub reused_shards: u64,
    /// PEs whose existing shards failed resume-time validation and were
    /// regenerated (subset of `regenerated_pes`).
    pub invalidated_pes: Vec<usize>,
    /// Per-rank telemetry (wall time, attempts, edges, the worker's
    /// counters) for every rank that finished, in rank order — the
    /// input [`crate::metrics::RunMetrics::federate`] turns into
    /// `metrics.json`.
    pub rank_metrics: Vec<RankMetrics>,
    /// Worker traces collected from ranks that traced, in rank
    /// order — the input [`crate::trace::federate_chrome_trace`] turns
    /// into the run-wide timeline.
    pub rank_traces: Vec<RankTrace>,
}

/// Prepare the ledger and task list for this launch (fresh or resume).
fn prepare(
    dir: &Path,
    header: &RunHeader,
    opts: &LaunchOptions,
    format: ShardFormat,
) -> io::Result<(Ledger, Vec<RankTask>, Vec<usize>)> {
    if !opts.resume {
        if Ledger::exists(dir) {
            return Err(invalid(format!(
                "{} already contains a run ledger; resume it or remove the directory",
                dir.display()
            )));
        }
        let tasks = plan_ranks(header.chunks as usize, opts.workers);
        let ledger = Ledger::new(header.clone(), opts.workers, &tasks);
        return Ok((ledger, tasks, Vec::new()));
    }

    let mut ledger = Ledger::load(dir)?;
    if ledger.header != *header {
        return Err(invalid(format!(
            "resume parameter mismatch: ledger was written by `{} {}` seed {} chunks {} \
             format {}, this launch is `{} {}` seed {} chunks {} format {}",
            ledger.header.model,
            ledger.header.params,
            ledger.header.seed,
            ledger.header.chunks,
            ledger.header.format,
            header.model,
            header.params,
            header.seed,
            header.chunks,
            header.format,
        )));
    }
    // Re-verify every shard the ledger believes is done: a deleted,
    // truncated or corrupted file flips its PE back to pending. With
    // `ValidateMode::Sampled` this is the resume fast path — a
    // structural walk plus sampled block checksums instead of a full
    // re-read per shard. Shards are independent, so the check runs on
    // `workers` threads of the PE pool.
    let mut invalidated = Vec::new();
    for (pe, cause) in validate_shards_parallel(
        dir,
        format,
        &ledger.done_shards(),
        opts.validate,
        opts.workers,
    ) {
        kagen_obs::warn!("shard {pe} failed resume validation, regenerating: {cause}");
        ledger.invalidate_shard(pe);
        invalidated.push(pe);
    }
    let tasks = plan_repairs(&ledger.missing_pes(), opts.workers);
    ledger.workers = opts.workers;
    ledger.set_plan(&tasks);
    Ok((ledger, tasks, invalidated))
}

/// Run a full coordinated launch: plan → supervise workers (at most
/// `opts.workers` concurrently) → ledger after every completion →
/// validate → federate `manifest.json`.
///
/// On worker failure the launch finishes the remaining tasks, persists
/// the ledger, and returns an error naming the failed ranks — the run
/// directory is then resumable.
pub fn launch(
    dir: &Path,
    header: &RunHeader,
    opts: &LaunchOptions,
    runner: &dyn WorkerRunner,
) -> io::Result<LaunchReport> {
    let format = ShardFormat::parse(&header.format)
        .ok_or_else(|| invalid(format!("unknown shard format '{}'", header.format)))?;
    std::fs::create_dir_all(dir)
        .map_err(|e| io::Error::new(e.kind(), format!("cannot create {}: {e}", dir.display())))?;
    let prepare_span = trace::span("launch.prepare");
    let (ledger, tasks, invalidated_pes) = prepare(dir, header, opts, format)?;
    let _ = prepare_span.finish();
    let reused_shards = header.chunks - ledger.missing_pes().len() as u64;
    let regenerated_pes: Vec<usize> = ledger.missing_pes();
    ledger.save(dir)?;

    // Supervise: `run_chunks` hands the ranks to `supervisors` slots. A
    // slot retries a failed rank in place, up to `opts.retries` times
    // after the exponential backoff, before it takes its next rank, so a
    // transient fault never costs a manual `--resume`. Every attempt is
    // recorded under one lock and the ledger saved after it, so a killed
    // coordinator stays resumable.
    struct Record {
        ledger: Ledger,
        rank_metrics: Vec<RankMetrics>,
        rank_traces: Vec<RankTrace>,
    }
    let record = Mutex::new(Record {
        ledger,
        rank_metrics: Vec::new(),
        rank_traces: Vec::new(),
    });
    let supervisors = opts.workers.min(tasks.len()).max(1);
    // Progress accounting shared with the monitor thread: PEs/edges of
    // ranks this launch has *completed* (live partial progress comes
    // from the heartbeat files the monitor scans itself).
    let planned_pes: u64 = tasks.iter().map(|t| (t.pe_end - t.pe_begin) as u64).sum();
    let done_pes = AtomicU64::new(0);
    let done_edges = AtomicU64::new(0);
    let monitor_stop = AtomicBool::new(false);
    let supervise = |task: &RankTask| {
        let rank = task.rank;
        for attempt in 0..=opts.retries {
            if attempt > 0 {
                // Exponential backoff with a hard cap: an uncapped
                // doubling would park this slot for hours on late
                // attempts of a persistent fault.
                let backoff = opts
                    .retry_backoff
                    .saturating_mul(1u32 << (attempt - 1).min(16) as u32)
                    .min(MAX_RETRY_BACKOFF);
                std::thread::sleep(backoff);
            }
            // A panicking runner fails its rank, the same footprint a
            // crashed worker *process* has, instead of unwinding the
            // whole launch.
            let rank_span = trace::span(format!("rank-{rank}"));
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| runner.run(task)))
                .unwrap_or_else(|panic| {
                    let msg = panic
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| panic.downcast_ref::<&str>().copied())
                        .unwrap_or("worker panicked");
                    Err(io::Error::other(format!("worker panicked: {msg}")))
                });
            let wall_us = (rank_span.finish() * 1e6) as u64;
            // kagen-lint: allow(r1) -- poisoned only if a slot panicked holding it; `run_chunks` re-raises that panic
            let mut record = record.lock().unwrap();
            let finished = match result {
                Ok(report) => {
                    let edges: u64 = report.shards.iter().map(|s| s.edges).sum();
                    done_pes.fetch_add((task.pe_end - task.pe_begin) as u64, Ordering::Relaxed);
                    done_edges.fetch_add(edges, Ordering::Relaxed);
                    record.rank_metrics.push(RankMetrics {
                        rank: rank as u64,
                        pe_begin: task.pe_begin as u64,
                        pe_end: task.pe_end as u64,
                        edges,
                        wall_us,
                        attempts: attempt + 1,
                        counters: report.metrics.unwrap_or_default().counters,
                    });
                    if let Some(trace) = report.trace {
                        record.rank_traces.push(RankTrace {
                            rank: rank as u64,
                            pe_begin: task.pe_begin as u64,
                            pe_end: task.pe_end as u64,
                            trace,
                        });
                    }
                    record.ledger.record_rank_done(rank, report.shards);
                    true
                }
                Err(e) if attempt < opts.retries => {
                    kagen_obs::warn!(
                        "rank {rank} failed (attempt {} of {}), retrying: {e}",
                        attempt + 1,
                        opts.retries + 1
                    );
                    record.ledger.record_rank_retry(rank);
                    false
                }
                Err(e) => {
                    kagen_obs::warn!("rank {rank} failed: {e}");
                    record.ledger.record_rank_failed(rank);
                    true
                }
            };
            // Persist progress immediately; a failed save is logged, not
            // raised, so the other slots finish their ranks.
            if let Err(e) = record.ledger.save(dir) {
                kagen_obs::error!("ledger save failed: {e}");
            }
            if finished {
                return;
            }
        }
    };
    let supervise_span = trace::span("launch.supervise");
    std::thread::scope(|scope| {
        if let Some(interval) = opts.progress.filter(|_| planned_pes > 0) {
            let (done_pes, done_edges, monitor_stop) = (&done_pes, &done_edges, &monitor_stop);
            scope.spawn(move || {
                let started = Instant::now();
                while !monitor_stop.load(Ordering::Relaxed) {
                    std::thread::sleep(interval);
                    if monitor_stop.load(Ordering::Relaxed) {
                        return;
                    }
                    let live = heartbeat::read_all(dir);
                    let pes = done_pes.load(Ordering::Relaxed)
                        + live.iter().map(|h| h.pes_done).sum::<u64>();
                    let edges = done_edges.load(Ordering::Relaxed)
                        + live.iter().map(|h| h.edges).sum::<u64>();
                    let elapsed = started.elapsed().as_secs_f64().max(1e-9);
                    let rate = edges as f64 / elapsed;
                    // ETA from the rank plan: PEs are the work units the
                    // plan hands out, so remaining time extrapolates
                    // from the observed per-PE pace.
                    let eta = if pes > 0 && pes < planned_pes {
                        format!(
                            ", ETA {:.0}s",
                            elapsed * (planned_pes - pes) as f64 / pes as f64
                        )
                    } else {
                        String::new()
                    };
                    kagen_obs::info!(
                        "progress: {pes}/{planned_pes} PEs, {edges} edges, \
                         {:.2} Medges/s{eta} ({} live ranks)",
                        rate / 1e6,
                        live.len()
                    );
                }
            });
        }
        run_chunks(tasks.len(), supervisors, |i| supervise(&tasks[i]));
        monitor_stop.store(true, Ordering::Relaxed);
    });
    let _ = supervise_span.finish();
    // Not poisoned: a panic under the lock unwound out of the scope above.
    let Record {
        ledger,
        mut rank_metrics,
        mut rank_traces,
    } = record.into_inner().unwrap_or_else(PoisonError::into_inner);

    let failed: Vec<usize> = ledger
        .ranks
        .iter()
        .filter(|r| r.status == RankStatus::Failed)
        .map(|r| r.rank)
        .collect();
    if !failed.is_empty() {
        return Err(io::Error::other(format!(
            "{} of {} ranks failed ({:?}); the run is resumable",
            failed.len(),
            ledger.ranks.len(),
            failed
        )));
    }

    let shards = ledger.done_shards();
    let validate_span = trace::span("launch.validate");
    if opts.validate != ValidateMode::None {
        // Only the shards written by *this* launch need the post-run
        // check; reused shards were already validated in `prepare`,
        // and their bytes cannot have changed since.
        let fresh: std::collections::HashSet<usize> = regenerated_pes.iter().copied().collect();
        let to_check: Vec<kagen_pipeline::ShardInfo> = shards
            .iter()
            .filter(|i| fresh.contains(&(i.pe as usize)))
            .cloned()
            .collect();
        let bad = validate_shards_parallel(dir, format, &to_check, opts.validate, opts.workers);
        if let Some((pe, cause)) = bad.first() {
            let pes: Vec<usize> = bad.iter().map(|(pe, _)| *pe).collect();
            return Err(invalid(format!(
                "post-run validation failed for shard{} {pes:?} — resume to regenerate \
                 (shard {pe}: {cause})",
                if pes.len() > 1 { "s" } else { "" },
            )));
        }
    }
    let _ = validate_span.finish();
    let federate_span = trace::span("launch.federate");
    let manifest = header.clone().federate(shards).map_err(invalid)?;
    manifest.save(dir)?;
    let _ = federate_span.finish();

    rank_metrics.sort_by_key(|r| r.rank);
    rank_traces.sort_by_key(|r| r.rank);
    Ok(LaunchReport {
        manifest,
        spawned: tasks,
        regenerated_pes,
        reused_shards,
        invalidated_pes,
        rank_metrics,
        rank_traces,
    })
}

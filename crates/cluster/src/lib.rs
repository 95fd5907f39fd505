//! # kagen-cluster
//!
//! Multi-process distributed runs for the communication-free generators
//! — the ROADMAP's "MPI-style launcher mapping ranks to chunk ranges"
//! without MPI, because the paper makes it unnecessary: every PE's
//! output is a pure function of `(seed, params, pe id)`, so workers need
//! a *plan*, not a network.
//!
//! * [`plan`] — split the PE range into contiguous rank ranges
//!   (fresh runs) or coalesce missing PEs into repair tasks (resume).
//! * [`worker`] — the worker body: generate a PE range into shard files
//!   and return their infos; shared verbatim between `kagen worker`
//!   subprocesses (which wrap them into a rank report file) and the
//!   in-process runner.
//! * [`ledger`] — `ledger.json`: per-shard state with generation-time
//!   checksums and per-rank status, rewritten atomically after every
//!   rank, so an interrupted run resumes instead of restarting.
//! * [`launch`] — the coordinator: supervise up to W concurrent workers
//!   ([`ProcessRunner`] re-execs the `kagen` binary, [`InProcessRunner`]
//!   calls the same code in-process), validate shard checksums, federate
//!   the rank reports into the final `manifest.json` — byte-identical
//!   to a single-process `kagen stream` run of the same instance.
//!
//! ## Quickstart (in-process runner)
//!
//! ```
//! use kagen_core::prelude::*;
//! use kagen_cluster::{launch, InProcessRunner, LaunchOptions};
//! use kagen_pipeline::{InstanceMeta, ShardFormat};
//!
//! let gen = GnmUndirected::new(500, 3000).with_seed(3).with_chunks(8);
//! let dir = std::env::temp_dir().join("kagen_cluster_doc");
//! # std::fs::remove_dir_all(&dir).ok();
//! let meta = InstanceMeta {
//!     model: "gnm_undirected".into(),
//!     params: "n=500 m=3000".into(),
//!     seed: 3,
//! };
//! let header = meta.header(&gen, ShardFormat::Compressed);
//! let runner = InProcessRunner::new(&gen, &dir, ShardFormat::Compressed);
//! let opts = LaunchOptions { workers: 3, ..Default::default() };
//! let report = launch(&dir, &header, &opts, &runner).unwrap();
//! assert_eq!(report.manifest.chunks, 8);
//! assert_eq!(report.spawned.len(), 3);
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

pub mod heartbeat;
pub mod launch;
pub mod ledger;
pub mod metrics;
pub mod plan;
pub mod trace;
pub mod worker;

pub use heartbeat::{Heartbeat, HeartbeatPublisher, HEARTBEAT_INTERVAL, HEARTBEAT_SCHEMA};
pub use launch::{
    launch, InProcessRunner, LaunchOptions, LaunchReport, ProcessRunner, RankReport, ValidateMode,
    WorkerRunner, SAMPLED_BLOCKS,
};
pub use ledger::{Ledger, RankRecord, RankStatus, ShardState, LEDGER_FILE};
pub use metrics::{RankMetrics, RunMetrics, METRICS_SCHEMA};
pub use plan::{plan_ranks, plan_repairs, RankTask};
pub use trace::RankTrace;
pub use worker::{run_worker, FailureInjection};

#[cfg(test)]
mod tests {
    use super::*;
    use kagen_core::prelude::*;
    use kagen_pipeline::{InstanceMeta, Manifest, ShardFormat, StreamConfig};
    use std::collections::HashSet;
    use std::path::PathBuf;

    fn test_gen() -> GnmUndirected {
        GnmUndirected::new(400, 3000).with_seed(11).with_chunks(6)
    }

    fn meta() -> InstanceMeta {
        InstanceMeta {
            model: "gnm_undirected".into(),
            params: "n=400 m=3000".into(),
            seed: 11,
        }
    }

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("kagen_cluster_{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    /// A cluster launch federates a manifest byte-identical to the
    /// single-process `write_sharded` run of the same instance.
    #[test]
    fn federated_manifest_equals_single_process_run() {
        let gen = test_gen();
        let single = tmp("single");
        kagen_pipeline::write_sharded(
            &gen,
            &meta(),
            &StreamConfig::new(&single, ShardFormat::Compressed),
        )
        .unwrap();
        let expect = std::fs::read_to_string(single.join("manifest.json")).unwrap();

        for workers in [1usize, 3, 4, 8] {
            let dir = tmp(&format!("fed{workers}"));
            let header = meta().header(&gen, ShardFormat::Compressed);
            let runner = InProcessRunner::new(&gen, &dir, ShardFormat::Compressed);
            let opts = LaunchOptions {
                workers,
                ..Default::default()
            };
            let report = launch(&dir, &header, &opts, &runner).unwrap();
            let got = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
            assert_eq!(got, expect, "workers={workers}");
            assert_eq!(report.regenerated_pes.len(), 6);
            assert_eq!(report.reused_shards, 0);
            // Shard files themselves are byte-identical too.
            for s in &report.manifest.shards {
                let a = std::fs::read(single.join(&s.file)).unwrap();
                let b = std::fs::read(dir.join(&s.file)).unwrap();
                assert_eq!(a, b, "workers={workers} shard {}", s.pe);
            }
            std::fs::remove_dir_all(&dir).ok();
        }
        std::fs::remove_dir_all(&single).ok();
    }

    /// A failed rank leaves the run resumable; resume regenerates only
    /// the failed rank's PEs and the final manifest matches a clean run.
    #[test]
    fn failed_rank_resumes_without_touching_done_shards() {
        let gen = test_gen();
        let dir = tmp("resume_fail");
        let header = meta().header(&gen, ShardFormat::Compressed);

        // Rank owning PE 3 dies before writing it.
        let mut runner = InProcessRunner::new(&gen, &dir, ShardFormat::Compressed);
        runner.fail_pes = HashSet::from([3]);
        let opts = LaunchOptions {
            workers: 3,
            ..Default::default()
        };
        let err = launch(&dir, &header, &opts, &runner).unwrap_err();
        assert!(err.to_string().contains("resumable"), "{err}");
        assert!(!dir.join("manifest.json").exists());

        let ledger = Ledger::load(&dir).unwrap();
        assert!(ledger.missing_pes().contains(&3));
        let done_before: Vec<u64> = ledger.done_shards().iter().map(|s| s.pe).collect();
        assert!(!done_before.is_empty(), "other ranks should have finished");

        // Resume with a healthy runner: only the missing PEs are spawned.
        let runner = InProcessRunner::new(&gen, &dir, ShardFormat::Compressed);
        let opts = LaunchOptions {
            workers: 3,
            resume: true,
            validate: ValidateMode::Full,
            ..Default::default()
        };
        let report = launch(&dir, &header, &opts, &runner).unwrap();
        assert_eq!(report.reused_shards, done_before.len() as u64);
        for pe in &done_before {
            assert!(
                !report.regenerated_pes.contains(&(*pe as usize)),
                "resume must not regenerate done shard {pe}"
            );
        }
        // The result matches a clean single-process run.
        let single = tmp("resume_fail_single");
        let expect = kagen_pipeline::write_sharded(
            &gen,
            &meta(),
            &StreamConfig::new(&single, ShardFormat::Compressed),
        )
        .unwrap();
        assert_eq!(report.manifest, expect);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&single).ok();
    }

    /// Corrupting and deleting shards flips exactly those PEs back to
    /// pending on resume.
    #[test]
    fn resume_regenerates_exactly_invalid_shards() {
        let gen = test_gen();
        let dir = tmp("resume_corrupt");
        let header = meta().header(&gen, ShardFormat::Compressed);
        let runner = InProcessRunner::new(&gen, &dir, ShardFormat::Compressed);
        let opts = LaunchOptions {
            workers: 2,
            ..Default::default()
        };
        let first = launch(&dir, &header, &opts, &runner).unwrap();

        // Corrupt shard 1 (flip a payload byte), delete shard 4.
        let corrupt = dir.join(&first.manifest.shards[1].file);
        let mut bytes = std::fs::read(&corrupt).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&corrupt, bytes).unwrap();
        std::fs::remove_file(dir.join(&first.manifest.shards[4].file)).unwrap();

        let report = launch(
            &dir,
            &header,
            &LaunchOptions {
                workers: 2,
                resume: true,
                validate: ValidateMode::Full,
                ..Default::default()
            },
            &runner,
        )
        .unwrap();
        assert_eq!(report.regenerated_pes, vec![1, 4]);
        let mut invalidated = report.invalidated_pes.clone();
        invalidated.sort_unstable();
        assert_eq!(invalidated, vec![1, 4]);
        assert_eq!(report.reused_shards, 4);
        // Two non-contiguous repairs → two one-PE tasks.
        assert_eq!(report.spawned.len(), 2);
        assert_eq!(report.manifest, first.manifest);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Resuming a complete, healthy run spawns nothing and rewrites the
    /// same manifest.
    #[test]
    fn resume_of_healthy_run_is_a_no_op() {
        let gen = test_gen();
        let dir = tmp("resume_noop");
        let header = meta().header(&gen, ShardFormat::Compressed);
        let runner = InProcessRunner::new(&gen, &dir, ShardFormat::Compressed);
        let first = launch(
            &dir,
            &header,
            &LaunchOptions {
                workers: 3,
                ..Default::default()
            },
            &runner,
        )
        .unwrap();
        let report = launch(
            &dir,
            &header,
            &LaunchOptions {
                workers: 3,
                resume: true,
                validate: ValidateMode::Full,
                ..Default::default()
            },
            &runner,
        )
        .unwrap();
        assert!(report.spawned.is_empty());
        assert_eq!(report.reused_shards, 6);
        assert_eq!(report.manifest, first.manifest);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A fresh launch refuses to clobber an existing ledger, and resume
    /// refuses mismatched parameters.
    #[test]
    fn ledger_guards_against_clobber_and_mismatch() {
        let gen = test_gen();
        let dir = tmp("guards");
        let header = meta().header(&gen, ShardFormat::Compressed);
        let runner = InProcessRunner::new(&gen, &dir, ShardFormat::Compressed);
        let opts = LaunchOptions {
            workers: 2,
            ..Default::default()
        };
        launch(&dir, &header, &opts, &runner).unwrap();

        let err = launch(&dir, &header, &opts, &runner).unwrap_err();
        assert!(err.to_string().contains("ledger"), "{err}");

        let mut other = header.clone();
        other.seed = 999;
        let err = launch(
            &dir,
            &other,
            &LaunchOptions {
                workers: 2,
                resume: true,
                validate: ValidateMode::Full,
                ..Default::default()
            },
            &runner,
        )
        .unwrap_err();
        assert!(err.to_string().contains("mismatch"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Supervisor slots must execute ranks concurrently — regression
    /// test for any lock held across `runner.run()`, which would
    /// silently serialize every worker. Each task blocks until *both*
    /// tasks are inside `run()`; with serialized slots the first task
    /// times out and the launch fails.
    #[test]
    fn supervisors_run_tasks_concurrently() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::time::{Duration, Instant};

        struct Rendezvous<'a> {
            inner: InProcessRunner<'a>,
            inside: AtomicUsize,
        }
        impl WorkerRunner for Rendezvous<'_> {
            fn run(&self, task: &RankTask) -> std::io::Result<RankReport> {
                self.inside.fetch_add(1, Ordering::SeqCst);
                let deadline = Instant::now() + Duration::from_secs(10);
                while self.inside.load(Ordering::SeqCst) < 2 {
                    if Instant::now() > deadline {
                        return Err(std::io::Error::other(
                            "workers are serialized: the second task never entered run()",
                        ));
                    }
                    std::thread::yield_now();
                }
                self.inner.run(task)
            }
        }

        let gen = GnmUndirected::new(100, 600).with_seed(2).with_chunks(2);
        let dir = tmp("concurrent");
        let meta = InstanceMeta {
            model: "gnm_undirected".into(),
            params: String::new(),
            seed: 2,
        };
        let header = meta.header(&gen, ShardFormat::Compressed);
        let runner = Rendezvous {
            inner: InProcessRunner::new(&gen, &dir, ShardFormat::Compressed),
            inside: AtomicUsize::new(0),
        };
        let opts = LaunchOptions {
            workers: 2,
            ..Default::default()
        };
        let report = launch(&dir, &header, &opts, &runner)
            .expect("both tasks must run concurrently under 2 workers");
        assert_eq!(report.spawned.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A transient rank failure is rescued by the in-launch retry
    /// budget: the launch succeeds without `--resume`, the ledger
    /// records the extra attempt, and the manifest is byte-identical to
    /// a clean run.
    #[test]
    fn transient_failures_are_retried_in_launch() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::time::Duration;

        /// Fails every rank's first attempt, succeeds afterwards.
        struct Flaky<'a> {
            inner: InProcessRunner<'a>,
            first_attempts: Mutex<HashSet<usize>>,
            failures: AtomicU64,
        }
        use std::sync::Mutex;
        impl WorkerRunner for Flaky<'_> {
            fn run(&self, task: &RankTask) -> std::io::Result<RankReport> {
                if self.first_attempts.lock().unwrap().insert(task.rank) {
                    self.failures.fetch_add(1, Ordering::SeqCst);
                    return Err(std::io::Error::other("transient fault"));
                }
                self.inner.run(task)
            }
        }

        let gen = test_gen();
        let dir = tmp("retry");
        let header = meta().header(&gen, ShardFormat::Compressed);
        let runner = Flaky {
            inner: InProcessRunner::new(&gen, &dir, ShardFormat::Compressed),
            first_attempts: Mutex::new(HashSet::new()),
            failures: AtomicU64::new(0),
        };

        let opts = LaunchOptions {
            workers: 3,
            retries: 1,
            retry_backoff: Duration::from_millis(1),
            ..Default::default()
        };
        let report = launch(&dir, &header, &opts, &runner).expect("retries must rescue the run");
        assert_eq!(runner.failures.load(Ordering::SeqCst), 3);
        let ledger = Ledger::load(&dir).unwrap();
        for r in &ledger.ranks {
            assert_eq!(r.attempts, 2, "rank {}: one failure + one success", r.rank);
            assert_eq!(r.status, RankStatus::Done);
        }

        // Byte-identical to a clean single-process run.
        let single = tmp("retry_single");
        let expect = kagen_pipeline::write_sharded(
            &gen,
            &meta(),
            &StreamConfig::new(&single, ShardFormat::Compressed),
        )
        .unwrap();
        assert_eq!(report.manifest, expect);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&single).ok();
    }

    /// A fault that outlives the retry budget still fails the launch
    /// (resumable), with every attempt on the ledger.
    #[test]
    fn exhausted_retry_budget_leaves_run_resumable() {
        let gen = test_gen();
        let dir = tmp("retry_exhausted");
        let header = meta().header(&gen, ShardFormat::Compressed);
        let mut runner = InProcessRunner::new(&gen, &dir, ShardFormat::Compressed);
        runner.fail_pes = HashSet::from([3]); // permanent fault on PE 3's rank
        let opts = LaunchOptions {
            workers: 3,
            retries: 2,
            retry_backoff: std::time::Duration::from_millis(1),
            ..Default::default()
        };
        let err = launch(&dir, &header, &opts, &runner).unwrap_err();
        assert!(err.to_string().contains("resumable"), "{err}");
        let ledger = Ledger::load(&dir).unwrap();
        let failed: Vec<_> = ledger
            .ranks
            .iter()
            .filter(|r| r.status == RankStatus::Failed)
            .collect();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].attempts, 3, "initial attempt + 2 retries");
        assert!(ledger.missing_pes().contains(&3));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A panicking runner must fail its rank (resumably), not unwind
    /// the supervision: the slot catches the panic and records a rank
    /// failure, and the other slots finish their ranks.
    #[test]
    fn panicking_runner_fails_rank_instead_of_deadlocking() {
        struct Panicky<'a> {
            inner: InProcessRunner<'a>,
        }
        impl WorkerRunner for Panicky<'_> {
            fn run(&self, task: &RankTask) -> std::io::Result<RankReport> {
                if task.pes().contains(&3) {
                    panic!("degenerate configuration on rank {}", task.rank);
                }
                self.inner.run(task)
            }
        }

        let gen = test_gen();
        let dir = tmp("panic");
        let header = meta().header(&gen, ShardFormat::Compressed);
        let runner = Panicky {
            inner: InProcessRunner::new(&gen, &dir, ShardFormat::Compressed),
        };
        let err = launch(
            &dir,
            &header,
            &LaunchOptions {
                workers: 3,
                ..Default::default()
            },
            &runner,
        )
        .unwrap_err();
        assert!(err.to_string().contains("resumable"), "{err}");
        let ledger = Ledger::load(&dir).unwrap();
        assert!(ledger.missing_pes().contains(&3));
        // Healthy ranks completed despite the sibling's panic.
        assert!(!ledger.done_shards().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The slot that ran a failed rank retries it before it takes its
    /// next rank: with one slot, the retry of the first repair runs
    /// before the second repair starts.
    #[test]
    fn a_failed_rank_is_retried_before_the_next_rank_starts() {
        use std::sync::Mutex;

        /// Fails its first `run()`, records the first PE of every call.
        struct FailOnce<'a> {
            inner: InProcessRunner<'a>,
            calls: Mutex<Vec<usize>>,
        }
        impl WorkerRunner for FailOnce<'_> {
            fn run(&self, task: &RankTask) -> std::io::Result<RankReport> {
                let mut calls = self.calls.lock().unwrap();
                calls.push(task.pe_begin);
                if calls.len() == 1 {
                    return Err(std::io::Error::other("transient fault"));
                }
                drop(calls);
                self.inner.run(task)
            }
        }

        let gen = test_gen();
        let dir = tmp("retry_in_place");
        let header = meta().header(&gen, ShardFormat::Compressed);
        let healthy = InProcessRunner::new(&gen, &dir, ShardFormat::Compressed);
        let opts = LaunchOptions {
            workers: 2,
            ..Default::default()
        };
        let first = launch(&dir, &header, &opts, &healthy).unwrap();
        for pe in [0, 2, 4] {
            std::fs::remove_file(dir.join(&first.manifest.shards[pe].file)).unwrap();
        }

        let runner = FailOnce {
            inner: InProcessRunner::new(&gen, &dir, ShardFormat::Compressed),
            calls: Mutex::new(Vec::new()),
        };
        let opts = LaunchOptions {
            workers: 1,
            resume: true,
            retries: 1,
            retry_backoff: std::time::Duration::from_millis(1),
            ..Default::default()
        };
        let report = launch(&dir, &header, &opts, &runner).expect("the retry must rescue the run");
        assert_eq!(*runner.calls.lock().unwrap(), vec![0, 0, 2, 4]);
        assert_eq!(report.manifest, first.manifest);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Sampled validation drives resume reuse decisions: valid shards
    /// are reused, a truncated one is regenerated.
    #[test]
    fn sampled_resume_detects_truncation_and_reuses_the_rest() {
        let gen = test_gen();
        let dir = tmp("sampled_resume");
        let header = meta().header(&gen, ShardFormat::Compressed);
        let runner = InProcessRunner::new(&gen, &dir, ShardFormat::Compressed);
        let first = launch(
            &dir,
            &header,
            &LaunchOptions {
                workers: 2,
                ..Default::default()
            },
            &runner,
        )
        .unwrap();

        // Truncate shard 2 (size mismatch — sampled validation catches
        // it structurally).
        let victim = dir.join(&first.manifest.shards[2].file);
        let bytes = std::fs::read(&victim).unwrap();
        std::fs::write(&victim, &bytes[..bytes.len() - 2]).unwrap();

        let report = launch(
            &dir,
            &header,
            &LaunchOptions {
                workers: 2,
                resume: true,
                validate: ValidateMode::Sampled(SAMPLED_BLOCKS),
                ..Default::default()
            },
            &runner,
        )
        .unwrap();
        assert_eq!(report.regenerated_pes, vec![2]);
        assert_eq!(report.reused_shards, 5);
        assert_eq!(report.manifest, first.manifest);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn validate_mode_parse_spellings() {
        assert_eq!(ValidateMode::parse("full"), Some(ValidateMode::Full));
        assert_eq!(ValidateMode::parse("none"), Some(ValidateMode::None));
        assert_eq!(
            ValidateMode::parse("sampled"),
            Some(ValidateMode::Sampled(SAMPLED_BLOCKS))
        );
        assert_eq!(
            ValidateMode::parse("sampled=1"),
            Some(ValidateMode::Sampled(1))
        );
        assert_eq!(
            ValidateMode::parse("sampled=4096"),
            Some(ValidateMode::Sampled(4096))
        );
        assert_eq!(ValidateMode::parse("sampled=0"), None);
        assert_eq!(ValidateMode::parse("sampled="), None);
        assert_eq!(ValidateMode::parse("sampled=x"), None);
        assert_eq!(ValidateMode::parse("samples"), None);
    }

    /// The `sampled=K` knob is a real coverage dial: a payload flip in
    /// a block the default K=4 spacing never decodes slips through
    /// (the documented trade), while a K at the shard's block count
    /// catches it — without a full re-read.
    #[test]
    fn sampled_k_controls_unsampled_block_coverage() {
        // One shard, many restart blocks: 6 chunks over enough edges
        // that shard 0 holds > 16 blocks.
        let gen = kagen_core::GnmUndirected::new(6000, 400_000)
            .with_seed(9)
            .with_chunks(6);
        let dir = tmp("sampled_k");
        let header = InstanceMeta {
            model: "gnm_undirected".into(),
            params: "n=6000 m=400000".into(),
            seed: 9,
        }
        .header(&gen, ShardFormat::Compressed);
        let runner = InProcessRunner::new(&gen, &dir, ShardFormat::Compressed);
        let report = launch(
            &dir,
            &header,
            &LaunchOptions {
                workers: 2,
                ..Default::default()
            },
            &runner,
        )
        .unwrap();
        let info = report
            .manifest
            .shards
            .iter()
            .max_by_key(|s| s.edges)
            .unwrap();
        let blocks = info.edges.div_ceil(kagen_pipeline::COMPRESSED_BLOCK_EDGES) as usize;
        assert!(blocks > 16, "need many blocks, got {blocks}");
        // Flip one byte inside a block that the evenly spaced K=4 picks
        // (indices k·blocks/4 — 0, B/4, B/2, 3B/4) never decode, leaving
        // the varint structure intact: ~1/8 into the payload bytes lands
        // mid-payload of a block near index B/8.
        let path = dir.join(&info.file);
        let mut bytes = std::fs::read(&path).unwrap();
        let offset = 16 + (bytes.len() - 16) / 8;
        bytes[offset] ^= 0x04;
        std::fs::write(&path, &bytes).unwrap();

        let sampled_4 = kagen_pipeline::validate_shard_sampled(
            &dir,
            ShardFormat::Compressed,
            info,
            SAMPLED_BLOCKS,
        );
        let sampled_all =
            kagen_pipeline::validate_shard_sampled(&dir, ShardFormat::Compressed, info, blocks);
        let full = kagen_pipeline::validate_shard(&dir, ShardFormat::Compressed, info);
        assert!(full.is_err(), "full re-read must always catch the flip");
        assert!(
            sampled_all.is_err(),
            "K = block count decodes every block and must catch the flip"
        );
        // The flipped block evades the default picks in this layout; if
        // this ever starts failing the constant picks moved — the
        // documented trade (not a guarantee) is just that low K *can*
        // miss payload corruption.
        assert!(
            sampled_4.is_ok(),
            "expected the K=4 spacing to miss a mid-payload flip in this layout"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// One document, one verdict: a worker process that exits 0 but
    /// leaves a rank report that does not parse fails its rank, and the
    /// report file is consumed either way.
    #[cfg(unix)]
    #[test]
    fn unparsable_rank_report_fails_the_rank() {
        use std::os::unix::fs::PermissionsExt;
        let dir = tmp("bad_report");
        std::fs::create_dir_all(&dir).unwrap();
        let report = dir.join("part-00000-00002.json");
        let exe = dir.join("fake-worker.sh");
        let body = "{\"pe_begin\": 0, \"pe_end\": 2, \"shards\": [], \"metrics\": 7}";
        std::fs::write(
            &exe,
            format!("#!/bin/sh\necho '{body}' > {}\n", report.display()),
        )
        .unwrap();
        std::fs::set_permissions(&exe, std::fs::Permissions::from_mode(0o755)).unwrap();
        let runner = ProcessRunner {
            exe,
            worker_args: Vec::new(),
            dir: dir.clone(),
            stall_timeout: None,
        };
        let task = RankTask {
            rank: 0,
            pe_begin: 0,
            pe_end: 2,
        };
        let err = runner.run(&task).unwrap_err();
        assert!(err.to_string().contains("part-00000-00002.json"), "{err}");
        assert!(!report.exists(), "the report must be consumed");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The federated manifest round-trips through `Manifest::load` like
    /// any single-process manifest (tools downstream cannot tell runs
    /// apart).
    #[test]
    fn federated_manifest_loads_like_any_other() {
        let gen = test_gen();
        let dir = tmp("load");
        let header = meta().header(&gen, ShardFormat::Compressed);
        let runner = InProcessRunner::new(&gen, &dir, ShardFormat::Compressed);
        let report = launch(
            &dir,
            &header,
            &LaunchOptions {
                workers: 4,
                ..Default::default()
            },
            &runner,
        )
        .unwrap();
        let loaded = Manifest::load(&dir).unwrap();
        assert_eq!(loaded, report.manifest);
        let reader = kagen_pipeline::ShardReader::open(&dir).unwrap();
        let mut count = 0u64;
        reader
            .stream(&mut |batch| count += batch.len() as u64)
            .unwrap();
        assert_eq!(count, report.manifest.edges);
        std::fs::remove_dir_all(&dir).ok();
    }
}

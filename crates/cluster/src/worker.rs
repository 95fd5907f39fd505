//! The worker side of a multi-process run: generate a contiguous PE
//! range into shard files and hand back their infos.
//!
//! This is the code path behind `kagen worker` — but it is a plain
//! library function, so the in-process runner (tests, examples, single
//! machine runs without process overhead) executes *exactly* the same
//! logic. `kagen worker` wraps the infos (and, when asked, its telemetry)
//! into the rank report file the coordinator collects; the in-process
//! runner hands them over directly. A worker never reads the ledger and
//! never talks to its siblings: its output is a pure function of
//! `(generator, pe range, format)`, which is the whole point of the paper.

use kagen_core::Generator;
use kagen_obs::{Counter, Staged};
use kagen_pipeline::{write_shard, ShardFormat, ShardInfo};
use std::io;
use std::ops::Range;
use std::path::Path;

/// Shards this worker finished writing — the heartbeat publisher's
/// "PEs done" signal.
static WORKER_PES_DONE: Counter = Counter::new("worker.pes_done");

/// Failure-injection hook for supervision tests: abort before writing
/// shard `pe`, leaving earlier shards of the range behind — the
/// footprint of a worker killed mid-run.
#[derive(Clone, Debug, Default)]
pub struct FailureInjection {
    /// Abort (with an error) immediately before generating this PE.
    pub fail_before_pe: Option<usize>,
    /// Transient-fault mode for retry tests: if this marker file does
    /// not exist, create it and fail the worker at entry; once the
    /// marker exists every later attempt proceeds normally — a fault
    /// that heals on retry.
    pub fail_once_marker: Option<std::path::PathBuf>,
    /// Wedge mode for stall-detection tests: if this marker file does
    /// not exist, create it and sleep forever at entry — a hung worker
    /// that only a heartbeat watchdog can catch; once the marker
    /// exists every later attempt proceeds normally.
    pub stall_once_marker: Option<std::path::PathBuf>,
}

impl FailureInjection {
    /// Read the injection from the environment (`KAGEN_WORKER_FAIL_PE`,
    /// `KAGEN_WORKER_FAIL_ONCE=<marker path>`,
    /// `KAGEN_WORKER_STALL_ONCE=<marker path>`) — how the
    /// `kagen worker` subcommand picks it up in integration tests
    /// without a dedicated CLI flag.
    pub fn from_env() -> FailureInjection {
        FailureInjection {
            fail_before_pe: std::env::var("KAGEN_WORKER_FAIL_PE")
                .ok()
                .and_then(|v| v.parse().ok()),
            fail_once_marker: std::env::var("KAGEN_WORKER_FAIL_ONCE")
                .ok()
                .map(std::path::PathBuf::from),
            stall_once_marker: std::env::var("KAGEN_WORKER_STALL_ONCE")
                .ok()
                .map(std::path::PathBuf::from),
        }
    }
}

/// Generate every shard of `pes` into `dir` on `threads` worker threads
/// (0 = all cores; multi-process launches default to 1 so W workers use
/// W cores) and return the shard infos in PE order — only after *every*
/// shard of the range is on disk.
pub fn run_worker(
    gen: &dyn Generator,
    dir: &Path,
    format: ShardFormat,
    pes: Range<usize>,
    threads: usize,
    inject: FailureInjection,
) -> io::Result<Vec<ShardInfo>> {
    std::fs::create_dir_all(dir)?;
    if let Some(marker) = &inject.fail_once_marker {
        if !marker.exists() {
            Staged::save_atomic(marker, b"failed once\n")?;
            return Err(io::Error::other(
                "injected transient failure (first attempt)",
            ));
        }
    }
    if let Some(marker) = &inject.stall_once_marker {
        if !marker.exists() {
            Staged::save_atomic(marker, b"stalled once\n")?;
            // Wedge: no progress, no exit — the footprint of a hung
            // worker. Only the supervisor's stall watchdog ends this
            // attempt (by killing the process).
            loop {
                std::thread::sleep(std::time::Duration::from_secs(1));
            }
        }
    }
    crate::heartbeat::set_stage("generate");
    let (begin, end) = (pes.start, pes.end);
    let results: Vec<io::Result<ShardInfo>> =
        kagen_runtime::run_chunks(end - begin, threads, |i| {
            let pe = begin + i;
            if inject.fail_before_pe == Some(pe) {
                return Err(io::Error::other(format!("injected failure before PE {pe}")));
            }
            let shard = write_shard(gen, pe, dir, format)?;
            WORKER_PES_DONE.incr();
            Ok(shard)
        });
    let mut shards = Vec::with_capacity(results.len());
    for r in results {
        shards.push(r?);
    }
    crate::heartbeat::set_stage("done");
    Ok(shards)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kagen_core::prelude::*;
    use kagen_pipeline::validate_shard;

    #[test]
    fn worker_writes_exactly_its_range() {
        let gen = GnmUndirected::new(200, 1200).with_seed(5).with_chunks(6);
        let dir = std::env::temp_dir().join("kagen_worker_range");
        std::fs::remove_dir_all(&dir).ok();
        let shards = run_worker(
            &gen,
            &dir,
            ShardFormat::Compressed,
            2..5,
            1,
            FailureInjection::default(),
        )
        .unwrap();
        assert_eq!(shards.iter().map(|s| s.pe).collect::<Vec<_>>(), [2, 3, 4]);
        for info in &shards {
            validate_shard(&dir, ShardFormat::Compressed, info).unwrap();
        }
        // Three shard files and nothing else: PEs outside the range were
        // never touched, and the report is the caller's to write.
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        files.sort();
        assert_eq!(
            files,
            ["shard-00002.kgc", "shard-00003.kgc", "shard-00004.kgc"]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_failure_fails_the_whole_range() {
        let gen = GnmUndirected::new(200, 1200).with_seed(5).with_chunks(6);
        let dir = std::env::temp_dir().join("kagen_worker_fail");
        std::fs::remove_dir_all(&dir).ok();
        let err = run_worker(
            &gen,
            &dir,
            ShardFormat::Compressed,
            0..6,
            1,
            FailureInjection {
                fail_before_pe: Some(3),
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        // Earlier shards exist (the footprint of a worker killed
        // mid-run), the failing one does not, and no infos come back for
        // a caller to report.
        assert!(dir.join("shard-00002.kgc").exists());
        assert!(!dir.join("shard-00003.kgc").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn worker_shards_match_single_process_writer() {
        // A worker writing PEs [a, b) produces byte-identical shard
        // files to the single-process write_sharded run.
        let gen = GnmDirected::new(300, 2400).with_seed(9).with_chunks(4);
        let whole = std::env::temp_dir().join("kagen_worker_whole");
        let slice = std::env::temp_dir().join("kagen_worker_slice");
        std::fs::remove_dir_all(&whole).ok();
        std::fs::remove_dir_all(&slice).ok();
        let meta = kagen_pipeline::InstanceMeta {
            model: "gnm_directed".into(),
            params: String::new(),
            seed: 9,
        };
        let manifest = kagen_pipeline::write_sharded(
            &gen,
            &meta,
            &kagen_pipeline::StreamConfig::new(&whole, ShardFormat::Compressed),
        )
        .unwrap();
        let shards = run_worker(
            &gen,
            &slice,
            ShardFormat::Compressed,
            1..3,
            1,
            FailureInjection::default(),
        )
        .unwrap();
        for info in &shards {
            assert_eq!(manifest.shards[info.pe as usize], *info);
            let a = std::fs::read(whole.join(&info.file)).unwrap();
            let b = std::fs::read(slice.join(&info.file)).unwrap();
            assert_eq!(a, b, "shard {} differs", info.pe);
        }
        std::fs::remove_dir_all(&whole).ok();
        std::fs::remove_dir_all(&slice).ok();
    }
}

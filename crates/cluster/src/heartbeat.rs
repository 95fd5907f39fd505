//! Worker liveness: atomically published heartbeat files, polled by the
//! supervisor for live progress lines and stall detection.
//!
//! A heartbeating worker runs one background thread
//! ([`HeartbeatPublisher`]) that samples the process-global obs
//! counters (`gen.edges`, `worker.pes_done`) every ~100 ms and, **only
//! when something advanced**, rewrites `part-<a>-<b>.heartbeat.json`
//! through [`kagen_obs::Staged`] — readers never see a torn file, and an
//! unchanged file is itself the signal. The hot path is untouched: the
//! generators already maintain these counters at batch granularity, so
//! heartbeats cost one sampling thread and zero per-edge work (and, by
//! the PR-6 rule the byte-identity matrix enforces, no output byte).
//!
//! The supervisor side needs no clock agreement with the worker — it
//! watches the file's *content*: whenever the bytes change it resets a
//! local `Instant`, and a worker whose heartbeat has not advanced
//! within `--stall-timeout` is killed and reported as a failed attempt,
//! which feeds the existing retry/backoff machinery instead of hanging
//! the launch forever. The `unix_us` field in the file is informational
//! (operators inspecting a run by hand), not part of the staleness
//! decision.

use kagen_obs::json::{self, Layout};
use kagen_obs::Staged;
use kagen_pipeline::PartialManifest;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Schema tag of the heartbeat document.
pub const HEARTBEAT_SCHEMA: &str = "kagen-heartbeat/v1";

/// Default publisher sampling interval.
pub const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(100);

/// Heartbeat file name for the rank covering PEs `[pe_begin, pe_end)`:
/// its rank report's name with `.heartbeat` before the extension.
pub fn heartbeat_file_name(pe_begin: u64, pe_end: u64) -> String {
    PartialManifest::file_name(pe_begin, pe_end).replace(".json", ".heartbeat.json")
}

/// Worker lifecycle stages reported in heartbeats.
const STAGES: [&str; 3] = ["start", "generate", "done"];
static STAGE: AtomicUsize = AtomicUsize::new(0);

/// Record the worker's current lifecycle stage (`start`, `generate`,
/// `done`). Unknown names are ignored.
pub fn set_stage(stage: &str) {
    if let Some(i) = STAGES.iter().position(|s| *s == stage) {
        STAGE.store(i, Ordering::Relaxed);
    }
}

/// The worker's current lifecycle stage.
pub fn stage() -> &'static str {
    STAGES[STAGE.load(Ordering::Relaxed).min(STAGES.len() - 1)]
}

/// One published heartbeat: where the worker is and how far it got.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Heartbeat {
    /// First PE of the worker's contiguous range.
    pub pe_begin: u64,
    /// One past the worker's last PE.
    pub pe_end: u64,
    /// Lifecycle stage (`start`, `generate`, `done`).
    pub stage: String,
    /// Shards of this range finished so far.
    pub pes_done: u64,
    /// Edges emitted so far (process-wide `gen.edges`).
    pub edges: u64,
    /// Publish sequence number, starting at 1.
    pub seq: u64,
    /// Wall-clock unix microseconds of the publish (informational).
    pub unix_us: u64,
}

impl Heartbeat {
    /// Serialize as compact, integer-only JSON.
    pub fn to_json(&self) -> String {
        json::obj([
            ("schema", HEARTBEAT_SCHEMA.into()),
            ("pe_begin", self.pe_begin.into()),
            ("pe_end", self.pe_end.into()),
            ("stage", self.stage.as_str().into()),
            ("pes_done", self.pes_done.into()),
            ("edges", self.edges.into()),
            ("seq", self.seq.into()),
            ("unix_us", self.unix_us.into()),
        ])
        .render(Layout::Compact)
    }

    /// Parse a document produced by [`Heartbeat::to_json`].
    pub fn from_json(text: &str) -> Result<Heartbeat, String> {
        let doc = json::parse(text)?;
        let obj = doc.as_obj("heartbeat")?;
        obj.expect_schema(HEARTBEAT_SCHEMA)?;
        Ok(Heartbeat {
            pe_begin: obj.u64("pe_begin")?,
            pe_end: obj.u64("pe_end")?,
            stage: obj.str("stage")?.to_string(),
            pes_done: obj.u64("pes_done")?,
            edges: obj.u64("edges")?,
            seq: obj.u64("seq")?,
            unix_us: obj.u64("unix_us")?,
        })
    }
}

fn unix_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

/// Publish `hb` (staged, see [`Staged`]), so a polling reader sees
/// either the previous or the new heartbeat, never a torn one.
pub fn write_atomic(dir: &Path, hb: &Heartbeat) -> io::Result<()> {
    let path = dir.join(heartbeat_file_name(hb.pe_begin, hb.pe_end));
    Staged::save_atomic(&path, hb.to_json())
}

/// Read the heartbeat for PEs `[pe_begin, pe_end)`, if present.
pub fn read(dir: &Path, pe_begin: u64, pe_end: u64) -> io::Result<Option<Heartbeat>> {
    let path = dir.join(heartbeat_file_name(pe_begin, pe_end));
    json::load_optional(&path, Heartbeat::from_json)
}

/// Every heartbeat currently published in `dir` (live ranks of a
/// launch), in file-name order.
pub fn read_all(dir: &Path) -> Vec<Heartbeat> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut names: Vec<String> = entries
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.starts_with("part-") && n.ends_with(".heartbeat.json"))
        .collect();
    names.sort();
    names
        .iter()
        .filter_map(|n| json::load(&dir.join(n), Heartbeat::from_json).ok())
        .collect()
}

/// Sample the process-global obs counters a heartbeat reports:
/// `(edges emitted, PEs done)`.
fn sample_counters() -> (u64, u64) {
    let mut edges = 0;
    let mut pes_done = 0;
    for (name, v) in kagen_obs::metrics::scalars() {
        match name.as_str() {
            "gen.edges" => edges = v,
            "worker.pes_done" => pes_done = v,
            _ => {}
        }
    }
    (edges, pes_done)
}

/// The worker-side publisher thread. Spawn once per worker process;
/// dropping it publishes one final heartbeat (so `done` states land on
/// disk) and joins the thread.
#[derive(Debug)]
pub struct HeartbeatPublisher {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
    dir: PathBuf,
    pe_begin: u64,
    pe_end: u64,
}

impl HeartbeatPublisher {
    /// Start publishing heartbeats for PEs `[pe_begin, pe_end)` into
    /// `dir` every `interval`. Requires obs metrics to be enabled —
    /// progress is sampled from the metric counters, never from the
    /// generation hot path.
    pub fn spawn(
        dir: impl Into<PathBuf>,
        pe_begin: u64,
        pe_end: u64,
        interval: Duration,
    ) -> io::Result<HeartbeatPublisher> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let thread_dir = dir.clone();
        let handle = std::thread::Builder::new()
            .name("kagen-heartbeat".into())
            .spawn(move || {
                let mut seq = 0u64;
                let mut last = (u64::MAX, u64::MAX, ""); // (edges, pes, stage)
                while !thread_stop.load(Ordering::Relaxed) {
                    let (edges, pes_done) = sample_counters();
                    let st = stage();
                    // First pass always publishes (u64::MAX sentinel);
                    // after that only on advance, so an unchanged file
                    // means a genuinely idle worker.
                    if (edges, pes_done, st) != last {
                        last = (edges, pes_done, st);
                        seq += 1;
                        let _ = write_atomic(
                            &thread_dir,
                            &Heartbeat {
                                pe_begin,
                                pe_end,
                                stage: st.to_string(),
                                pes_done,
                                edges,
                                seq,
                                unix_us: unix_us(),
                            },
                        );
                    }
                    std::thread::sleep(interval);
                }
                // Final publish: capture the end state even if the last
                // advance fell between samples.
                let (edges, pes_done) = sample_counters();
                seq += 1;
                let _ = write_atomic(
                    &thread_dir,
                    &Heartbeat {
                        pe_begin,
                        pe_end,
                        stage: stage().to_string(),
                        pes_done,
                        edges,
                        seq,
                        unix_us: unix_us(),
                    },
                );
            })?;
        Ok(HeartbeatPublisher {
            stop,
            handle: Some(handle),
            dir,
            pe_begin,
            pe_end,
        })
    }

    /// The path this publisher writes to.
    pub fn path(&self) -> PathBuf {
        self.dir
            .join(heartbeat_file_name(self.pe_begin, self.pe_end))
    }
}

impl Drop for HeartbeatPublisher {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip_and_schema_gate() {
        let hb = Heartbeat {
            pe_begin: 4,
            pe_end: 8,
            stage: "generate".into(),
            pes_done: 2,
            edges: 123_456,
            seq: 7,
            unix_us: 1_700_000_000_000_000,
        };
        let back = Heartbeat::from_json(&hb.to_json()).unwrap();
        assert_eq!(back, hb);
        let bad = hb.to_json().replace("kagen-heartbeat/v1", "x/v0");
        assert!(Heartbeat::from_json(&bad).is_err());
    }

    #[test]
    fn stage_is_escaped_not_interpolated() {
        // The stage used to be spliced between bare quotes, so a quote
        // in it produced a document no reader accepted.
        let hb = Heartbeat {
            stage: "ge\"ner\\ate\n".into(),
            ..Heartbeat::default()
        };
        assert!(hb.to_json().contains("\"stage\":\"ge\\\"ner\\\\ate\\n\""));
        assert_eq!(Heartbeat::from_json(&hb.to_json()).unwrap(), hb);
    }

    #[test]
    fn atomic_write_read_and_scan() {
        let dir = std::env::temp_dir().join("kagen_heartbeat_rw");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        assert!(read(&dir, 0, 4).unwrap().is_none());
        let mut hb = Heartbeat {
            pe_begin: 0,
            pe_end: 4,
            stage: "generate".into(),
            pes_done: 1,
            edges: 10,
            seq: 1,
            unix_us: 1,
        };
        write_atomic(&dir, &hb).unwrap();
        assert_eq!(read(&dir, 0, 4).unwrap().unwrap().pes_done, 1);
        // Rewrites replace; no temp files linger.
        hb.pes_done = 3;
        hb.seq = 2;
        write_atomic(&dir, &hb).unwrap();
        assert_eq!(read(&dir, 0, 4).unwrap().unwrap().pes_done, 3);
        let hb2 = Heartbeat {
            pe_begin: 4,
            pe_end: 6,
            ..hb.clone()
        };
        write_atomic(&dir, &hb2).unwrap();
        let all = read_all(&dir);
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].pe_begin, 0);
        assert_eq!(all[1].pe_begin, 4);
        assert!(std::fs::read_dir(&dir).unwrap().all(|e| !e
            .unwrap()
            .file_name()
            .to_string_lossy()
            .ends_with(".kagen-tmp")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn publisher_publishes_and_finalizes() {
        let dir = std::env::temp_dir().join("kagen_heartbeat_pub");
        std::fs::remove_dir_all(&dir).ok();
        let p = HeartbeatPublisher::spawn(&dir, 2, 6, Duration::from_millis(5)).unwrap();
        // The first sample publishes immediately.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while read(&dir, 2, 6).unwrap().is_none() {
            assert!(std::time::Instant::now() < deadline, "no first heartbeat");
            std::thread::sleep(Duration::from_millis(5));
        }
        let first = read(&dir, 2, 6).unwrap().unwrap();
        assert_eq!(first.pe_begin, 2);
        assert_eq!(first.pe_end, 6);
        assert!(first.seq >= 1);
        drop(p); // final publish + join
        let last = read(&dir, 2, 6).unwrap().unwrap();
        assert!(last.seq > first.seq, "drop must publish a final beat");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stage_tracking_ignores_unknown() {
        set_stage("generate");
        assert_eq!(stage(), "generate");
        set_stage("no-such-stage");
        assert_eq!(stage(), "generate");
        set_stage("start");
        assert_eq!(stage(), "start");
    }
}

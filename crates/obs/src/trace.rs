//! Scoped span timers emitting Chrome trace-event JSON.
//!
//! A [`Span`] measures one named region of wall time. Spans are cheap
//! enough to use unconditionally — creation is one `Instant::now()` —
//! and double as the workspace's single clock source: [`Span::finish`]
//! returns the elapsed seconds, so bench harnesses time with the same
//! instrument that feeds `--trace-out`.
//!
//! When tracing is enabled ([`set_enabled`]), each finished span is
//! buffered as a Chrome "complete" event (`"ph": "X"`) and
//! [`write_chrome_trace`] dumps the buffer as one [`ProcessTrace`]
//! document, loadable in `chrome://tracing` or
//! <https://ui.perfetto.dev>. Timestamps are microseconds since a
//! process-wide epoch pinned on first use, thread lanes are small dense
//! ids in spawn order, and the header carries the real OS pid and the
//! epoch's wall-clock anchor — so `stream --trace-out`, a worker's
//! `--trace-out` and the rank-report member a launch federates are the
//! same shape.
//!
//! ```
//! use kagen_obs::trace;
//!
//! trace::set_enabled(true);
//! let span = trace::span("doc.phase");
//! let secs = span.finish();
//! assert!(secs >= 0.0);
//! assert!(trace::ProcessTrace::capture().to_json().contains("doc.phase"));
//! ```

use crate::json::{self, Layout, Value};
use std::borrow::Cow;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn span buffering on or off process-wide. Enabling pins the trace
/// epoch, so timestamps are relative to roughly this call.
pub fn set_enabled(on: bool) {
    if on {
        let _ = epoch();
    }
    ENABLED.store(on, Ordering::Release);
}

/// Whether spans are currently being buffered.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The trace epoch: the monotonic instant all `ts` values are relative
/// to, paired with the wall-clock unix microseconds captured at the
/// same moment. The wall half is the cross-process alignment anchor:
/// two processes can place their monotonic timelines on one axis by
/// shifting each event by the difference of the two anchors.
static EPOCH: OnceLock<(Instant, u64)> = OnceLock::new();

fn epoch_pair() -> (Instant, u64) {
    *EPOCH.get_or_init(|| {
        let unix_us = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        (Instant::now(), unix_us)
    })
}

fn epoch() -> Instant {
    epoch_pair().0
}

/// Wall-clock unix microseconds captured when the trace epoch was
/// pinned. An event's absolute wall time is `epoch_unix_us() + ts_us`;
/// federation uses this to realign worker timelines onto the
/// coordinator's clock. Pins the epoch if not already pinned.
pub fn epoch_unix_us() -> u64 {
    epoch_pair().1
}

/// One buffered "complete" event.
struct Event {
    name: Cow<'static, str>,
    ts_us: u64,
    dur_us: u64,
    tid: u64,
}

static EVENTS: Mutex<Vec<Event>> = Mutex::new(Vec::new());

/// Dense per-thread lane id in spawn order (Chrome renders one row per
/// tid; OS thread ids would scatter rows unhelpfully).
fn tid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

/// A running timer over one named region. Records itself into the
/// trace buffer when finished or dropped (if tracing is enabled), and
/// always reports elapsed wall time regardless of the tracing flag.
#[derive(Debug)]
pub struct Span {
    name: Cow<'static, str>,
    start: Instant,
    done: bool,
}

/// Start timing a named region.
pub fn span(name: impl Into<Cow<'static, str>>) -> Span {
    Span {
        name: name.into(),
        start: Instant::now(),
        done: false,
    }
}

impl Span {
    /// End the span, record it into the trace buffer (when tracing is
    /// on), and return the elapsed seconds.
    pub fn finish(mut self) -> f64 {
        self.done = true;
        self.record()
    }

    fn record(&self) -> f64 {
        let elapsed = self.start.elapsed();
        if enabled() {
            // Saturates to zero if the span started before the epoch
            // was pinned (tracing enabled mid-run).
            let ts_us = self.start.duration_since(epoch()).as_micros() as u64;
            let ev = Event {
                name: self.name.clone(),
                ts_us,
                dur_us: elapsed.as_micros() as u64,
                tid: tid(),
            };
            EVENTS.lock().unwrap().push(ev);
        }
        elapsed.as_secs_f64()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.done {
            self.record();
        }
    }
}

/// Number of events buffered so far.
pub fn event_count() -> usize {
    EVENTS.lock().unwrap().len()
}

/// One finished span, exported for serialization and trace
/// federation. Timestamps are microseconds relative to this process's
/// trace epoch (see [`epoch_unix_us`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    pub name: String,
    pub ts_us: u64,
    pub dur_us: u64,
    pub tid: u64,
}

/// Snapshot the buffered events as owned data.
pub fn events() -> Vec<TraceEvent> {
    EVENTS
        .lock()
        .unwrap()
        .iter()
        .map(|ev| TraceEvent {
            name: ev.name.to_string(),
            ts_us: ev.ts_us,
            dur_us: ev.dur_us,
            tid: ev.tid,
        })
        .collect()
}

/// Discard all buffered events.
pub fn clear() {
    EVENTS.lock().unwrap().clear();
}

impl TraceEvent {
    /// The start timestamp moved by `ts_shift` microseconds (federation
    /// realigns worker clocks onto the coordinator's), clamped at zero:
    /// the integer-only JSON subset has no negative numbers, and a
    /// worker event that predates the coordinator epoch only occurs
    /// under clock skew.
    pub fn shifted_ts(&self, ts_shift: i64) -> u64 {
        (self.ts_us as i64 + ts_shift).max(0) as u64
    }

    /// The Chrome "complete" event row of this span in process `pid`,
    /// on a timeline shifted by `ts_shift` (see
    /// [`TraceEvent::shifted_ts`]) — the one span serializer.
    pub fn to_value(&self, pid: u64, ts_shift: i64) -> Value {
        json::obj([
            ("name", self.name.as_str().into()),
            ("cat", "kagen".into()),
            ("ph", "X".into()),
            ("ts", self.shifted_ts(ts_shift).into()),
            ("dur", self.dur_us.into()),
            ("pid", pid.into()),
            ("tid", self.tid.into()),
        ])
    }
}

/// Schema tag of a [`ProcessTrace`] document.
pub const TRACE_SCHEMA: &str = "kagen-trace-sidecar/v1";

/// One process's span buffer as a document: a valid Chrome trace
/// (`traceEvents` array) whose extra top-level keys — ignored by trace
/// viewers — are what federation needs to place it on a shared axis.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProcessTrace {
    /// The process's OS pid.
    pub pid: u64,
    /// Wall-clock unix microseconds when the process's trace epoch was
    /// pinned; every event `ts_us` is relative to this instant.
    pub epoch_unix_us: u64,
    /// The finished spans.
    pub events: Vec<TraceEvent>,
}

/// The top-level object every Chrome trace document of the workspace
/// shares: `header` fields, then the event rows.
pub fn chrome_trace_value(header: Vec<(&str, Value)>, events: Vec<Value>) -> Value {
    let tail = [
        ("traceEvents", Value::Arr(events)),
        ("displayTimeUnit", "ms".into()),
    ];
    json::obj(header.into_iter().chain(tail))
}

impl ProcessTrace {
    /// Snapshot this process's span buffer.
    pub fn capture() -> ProcessTrace {
        ProcessTrace {
            pid: std::process::id() as u64,
            epoch_unix_us: epoch_unix_us(),
            events: events(),
        }
    }

    /// The document as a JSON value (what a rank report embeds); all
    /// leaves are strings or unsigned integers.
    pub fn to_value(&self) -> Value {
        let header = vec![
            ("schema", TRACE_SCHEMA.into()),
            ("pid", self.pid.into()),
            ("epoch_unix_us", self.epoch_unix_us.into()),
        ];
        let events = self.events.iter().map(|e| e.to_value(self.pid, 0));
        chrome_trace_value(header, events.collect())
    }

    /// Inverse of [`ProcessTrace::to_value`].
    pub fn from_value(value: &Value) -> Result<ProcessTrace, String> {
        let obj = value.as_obj("trace document")?;
        obj.expect_schema(TRACE_SCHEMA)?;
        let mut events = Vec::new();
        for row in obj.arr("traceEvents")? {
            let row = row.as_obj("trace event")?;
            events.push(TraceEvent {
                name: row.str("name")?.to_string(),
                ts_us: row.u64("ts")?,
                dur_us: row.u64("dur")?,
                tid: row.u64("tid")?,
            });
        }
        Ok(ProcessTrace {
            pid: obj.u64("pid")?,
            epoch_unix_us: obj.u64("epoch_unix_us")?,
            events,
        })
    }

    /// Serialize as compact JSON.
    pub fn to_json(&self) -> String {
        self.to_value().render(Layout::Compact)
    }

    /// Parse a document produced by [`ProcessTrace::to_json`].
    pub fn from_json(text: &str) -> Result<ProcessTrace, String> {
        ProcessTrace::from_value(&json::parse(text)?)
    }
}

/// Write this process's span buffer to `path` (see [`ProcessTrace`]).
pub fn write_chrome_trace(path: &Path) -> io::Result<()> {
    crate::Staged::save_atomic(path, ProcessTrace::capture().to_json())
}

#[cfg(test)]
mod tests {
    use super::*;

    // The event buffer and enable flag are process-global; serialize.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_spans_time_but_do_not_record() {
        let _g = locked();
        set_enabled(false);
        clear();
        let s = span("off.region");
        let secs = s.finish();
        assert!(secs >= 0.0);
        assert_eq!(event_count(), 0);
    }

    #[test]
    fn finish_records_once_and_drop_does_not_double() {
        let _g = locked();
        set_enabled(true);
        clear();
        let s = span("on.finish");
        let _ = s.finish(); // drop runs after finish; must not re-record
        assert_eq!(event_count(), 1);
        {
            let _s = span("on.drop");
        } // recorded by Drop
        assert_eq!(event_count(), 2);
        set_enabled(false);
        clear();
    }

    #[test]
    fn chrome_json_shape() {
        let _g = locked();
        set_enabled(true);
        clear();
        let s = span("shape \"quoted\"");
        std::thread::sleep(std::time::Duration::from_millis(1));
        let secs = s.finish();
        assert!(secs >= 0.001);
        let doc = ProcessTrace::capture();
        let json = doc.to_json();
        assert!(json.starts_with("{\"schema\":\"kagen-trace-sidecar/v1\",\"pid\":"));
        assert!(json.contains(",\"traceEvents\":[{"));
        assert!(json.ends_with("],\"displayTimeUnit\":\"ms\"}"));
        assert!(json.contains("\"ph\":\"X\""));
        assert_eq!(ProcessTrace::from_json(&json).unwrap(), doc);
        assert!(json.contains("\"name\":\"shape \\\"quoted\\\"\""));
        assert!(json.contains("\"dur\":"));
        set_enabled(false);
        clear();
    }

    #[test]
    fn events_snapshot_and_wall_anchor() {
        let _g = locked();
        set_enabled(true);
        clear();
        let s = span("snap.region");
        let _ = s.finish();
        let evs = events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].name, "snap.region");
        assert!(evs[0].tid >= 1);
        // The wall anchor is pinned once and stable across calls.
        let a = epoch_unix_us();
        assert_eq!(a, epoch_unix_us());
        // Sanity: after 2020-01-01 in microseconds.
        assert!(a > 1_577_836_800_000_000);
        set_enabled(false);
        clear();
    }

    #[test]
    fn owned_names_are_accepted() {
        let _g = locked();
        set_enabled(true);
        clear();
        let name = format!("rank-{}", 3);
        let s = span(name);
        let _ = s.finish();
        assert!(events().iter().any(|e| e.name == "rank-3"));
        set_enabled(false);
        clear();
    }
}

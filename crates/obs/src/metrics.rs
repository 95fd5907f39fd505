//! Metrics registry: sharded counters and peak-tracking gauges.
//!
//! Handles are `const`-constructible statics that lazily self-register
//! on first update, so instrumented crates declare metrics next to the
//! code they measure with no init order to manage:
//!
//! ```
//! use kagen_obs::{metrics, Counter};
//!
//! static BATCHES: Counter = Counter::new("doc.batches");
//!
//! metrics::set_enabled(true);
//! BATCHES.add(1);
//! ```
//!
//! Everything is gated on one process-global flag (off by default): a
//! disabled update is a single relaxed load and an early return, and
//! callers only instrument batch/block-granular sites, so the disabled
//! cost is unmeasurable. Values are `u64` throughout, so a snapshot
//! ([`Telemetry`]) serializes to the integer-only JSON of
//! [`crate::json`] and reads back exactly.

use crate::json::{self, Layout, Value};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of counter shards; power of two so the thread index masks.
const SHARDS: usize = 8;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn metric recording on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Release);
}

/// Whether metric recording is currently on.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A registered metric: every handle type pushes itself here once.
enum MetricRef {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
}

static REGISTRY: Mutex<Vec<MetricRef>> = Mutex::new(Vec::new());

/// Per-thread shard index: threads round-robin onto `SHARDS` slots, so
/// concurrent `add`s from a thread pool mostly hit distinct cachelines.
fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static IDX: usize = NEXT.fetch_add(1, Ordering::Relaxed) & (SHARDS - 1);
    }
    IDX.with(|i| *i)
}

/// An atomic counter sharded across cachelines.
#[repr(align(64))]
#[derive(Debug)]
struct Shard(AtomicU64);

/// A monotonically increasing sum, sharded to keep hot multi-threaded
/// sites (one `add` per 4096-edge batch across the PE pool) from
/// bouncing a single cacheline.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    registered: AtomicBool,
    shards: [Shard; SHARDS],
}

impl Counter {
    /// A new counter handle; usable as a `static` initializer.
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            registered: AtomicBool::new(false),
            shards: [const { Shard(AtomicU64::new(0)) }; SHARDS],
        }
    }

    /// Add `n`; no-op while metrics are disabled.
    #[inline]
    pub fn add(&'static self, n: u64) {
        if !enabled() {
            return;
        }
        self.register();
        self.shards[shard_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one; no-op while metrics are disabled.
    #[inline]
    pub fn incr(&'static self) {
        self.add(1);
    }

    /// Current sum across all shards.
    pub fn value(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }

    fn register(&'static self) {
        if !self.registered.load(Ordering::Relaxed) && !self.registered.swap(true, Ordering::AcqRel)
        {
            REGISTRY.lock().unwrap().push(MetricRef::Counter(self));
        }
    }

    fn reset(&self) {
        for s in &self.shards {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

/// A point-in-time value with a high-water mark (e.g. live cache
/// points, live heap bytes). `set`/`add` track the peak automatically;
/// `record_peak` folds in an externally measured maximum.
#[derive(Debug)]
pub struct Gauge {
    name: &'static str,
    registered: AtomicBool,
    value: AtomicU64,
    peak: AtomicU64,
}

impl Gauge {
    /// A new gauge handle; usable as a `static` initializer.
    pub const fn new(name: &'static str) -> Self {
        Gauge {
            name,
            registered: AtomicBool::new(false),
            value: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    /// Set the current value, raising the peak if exceeded.
    #[inline]
    pub fn set(&'static self, v: u64) {
        if !enabled() {
            return;
        }
        self.register();
        self.value.store(v, Ordering::Relaxed);
        self.peak.fetch_max(v, Ordering::Relaxed);
    }

    /// Increase the current value by `n`, raising the peak if exceeded.
    #[inline]
    pub fn add(&'static self, n: u64) {
        if !enabled() {
            return;
        }
        self.register();
        let v = self.value.fetch_add(n, Ordering::Relaxed) + n;
        self.peak.fetch_max(v, Ordering::Relaxed);
    }

    /// Decrease the current value by `n` (saturating at zero).
    #[inline]
    pub fn sub(&'static self, n: u64) {
        if !enabled() {
            return;
        }
        self.register();
        let _ = self
            .value
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
    }

    /// Fold an externally measured maximum into the peak without
    /// touching the current value.
    #[inline]
    pub fn record_peak(&'static self, v: u64) {
        if !enabled() {
            return;
        }
        self.register();
        self.peak.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// High-water mark observed so far.
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    fn register(&'static self) {
        if !self.registered.load(Ordering::Relaxed) && !self.registered.swap(true, Ordering::AcqRel)
        {
            REGISTRY.lock().unwrap().push(MetricRef::Gauge(self));
        }
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
        self.peak.store(0, Ordering::Relaxed);
    }
}

/// A snapshot of one metric's state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricValue {
    /// Counter sum.
    Counter(u64),
    /// Gauge current value and high-water mark.
    Gauge {
        /// Last value set.
        value: u64,
        /// High-water mark.
        peak: u64,
    },
}

/// Snapshot every metric touched so far, sorted by name. Metrics that
/// were never updated (or only while disabled) are absent.
pub fn snapshot() -> Vec<(&'static str, MetricValue)> {
    let reg = REGISTRY.lock().unwrap();
    let mut out: Vec<(&'static str, MetricValue)> = reg
        .iter()
        .map(|m| match m {
            MetricRef::Counter(c) => (c.name, MetricValue::Counter(c.value())),
            MetricRef::Gauge(g) => (
                g.name,
                MetricValue::Gauge {
                    value: g.value(),
                    peak: g.peak(),
                },
            ),
        })
        .collect();
    out.sort_by_key(|(name, _)| *name);
    out
}

/// Counter snapshots only, sorted by name.
pub fn counters() -> Vec<(&'static str, u64)> {
    snapshot()
        .into_iter()
        .filter_map(|(n, v)| match v {
            MetricValue::Counter(c) => Some((n, c)),
            _ => None,
        })
        .collect()
}

/// Every touched metric flattened to sorted `(name, u64)` scalars:
/// counters as-is, gauges as their high-water mark (suffixed `.peak`).
/// This is the flat list federated into per-rank reports and run-wide
/// metrics files — summing a `.peak` entry across ranks bounds the
/// run-wide peak from above.
pub fn scalars() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (name, v) in snapshot() {
        match v {
            MetricValue::Counter(c) => out.push((name.to_string(), c)),
            MetricValue::Gauge { peak, .. } => out.push((format!("{name}.peak"), peak)),
        }
    }
    out.sort();
    out
}

/// Zero every registered metric (registrations persist). For reusing
/// one process across measured regions — benches and tests.
pub fn reset() {
    let reg = REGISTRY.lock().unwrap();
    for m in reg.iter() {
        match m {
            MetricRef::Counter(c) => c.reset(),
            MetricRef::Gauge(g) => g.reset(),
        }
    }
}

/// A `(name, value)` list as a JSON object, in list order.
pub fn counters_value(counters: &[(String, u64)]) -> Value {
    json::obj(counters.iter().map(|(n, v)| (n.as_str(), Value::from(*v))))
}

/// Inverse of [`counters_value`]; anything but an object of unsigned
/// integers is an error.
pub fn counters_from(value: &Value) -> Result<Vec<(String, u64)>, String> {
    let fields = value.as_obj("counters")?.fields();
    fields
        .iter()
        .map(|(name, v)| Ok((name.clone(), v.as_u64(name)?)))
        .collect()
}

/// One process's metrics as a document: the flat [`scalars`] under
/// `"counters"` — the `metrics` member of a worker's rank report
/// (`part-<a>-<b>.json`) and what `kagen worker --metrics-out` writes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Telemetry {
    /// Flat `(name, value)` scalars, sorted by name.
    pub counters: Vec<(String, u64)>,
}

impl Telemetry {
    /// Snapshot this process's registry.
    pub fn capture() -> Telemetry {
        Telemetry {
            counters: scalars(),
        }
    }

    /// The document as a JSON value (what a rank report embeds).
    pub fn to_value(&self) -> Value {
        json::obj([("counters", counters_value(&self.counters))])
    }

    /// Inverse of [`Telemetry::to_value`].
    pub fn from_value(value: &Value) -> Result<Telemetry, String> {
        let obj = value.as_obj("metrics document")?;
        Ok(Telemetry {
            counters: counters_from(obj.get("counters")?)?,
        })
    }

    /// Serialize as compact, integer-only JSON.
    pub fn to_json(&self) -> String {
        self.to_value().render(Layout::Compact)
    }

    /// Parse a document produced by [`Telemetry::to_json`].
    pub fn from_json(text: &str) -> Result<Telemetry, String> {
        Telemetry::from_value(&json::parse(text)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Metric state is process-global; serialize tests that assert on
    // exact values or toggle the enable flag.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_updates_are_noops() {
        static C: Counter = Counter::new("test.noop.counter");
        static G: Gauge = Gauge::new("test.noop.gauge");
        let _g = locked();
        set_enabled(false);
        C.add(7);
        G.set(9);
        assert_eq!(C.value(), 0);
        assert_eq!(G.value(), 0);
        assert_eq!(G.peak(), 0);
        // Never registered, so absent from the snapshot.
        assert!(!snapshot().iter().any(|(n, _)| n.starts_with("test.noop.")));
    }

    #[test]
    fn sharded_counter_merges_across_threads() {
        static C: Counter = Counter::new("test.sharded.counter");
        let _g = locked();
        set_enabled(true);
        C.reset();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        C.add(3);
                    }
                });
            }
        });
        assert_eq!(C.value(), 8 * 1000 * 3);
    }

    #[test]
    fn gauge_tracks_peak() {
        static G: Gauge = Gauge::new("test.gauge.peak");
        let _g = locked();
        set_enabled(true);
        G.reset();
        G.set(10);
        G.add(5);
        G.sub(12);
        assert_eq!(G.value(), 3);
        assert_eq!(G.peak(), 15);
        G.record_peak(100);
        assert_eq!(G.peak(), 100);
        assert_eq!(G.value(), 3);
        G.sub(1000); // saturates, never wraps
        assert_eq!(G.value(), 0);
    }

    #[test]
    fn snapshot_json_is_integer_only_and_sorted() {
        static C1: Counter = Counter::new("test.json.b");
        static C2: Counter = Counter::new("test.json.a");
        static G: Gauge = Gauge::new("test.json.g");
        let _g = locked();
        set_enabled(true);
        C1.add(2);
        C2.add(1);
        G.set(5);
        let doc = Telemetry::capture();
        let names: Vec<_> = doc.counters.iter().map(|(n, _)| n.clone()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        // A gauge flattens to its high-water mark.
        assert!(doc
            .counters
            .iter()
            .any(|(n, v)| n == "test.json.g.peak" && *v >= 5));
        let text = doc.to_json();
        assert!(text.starts_with("{\"counters\":{"), "{text}");
        assert!(text.contains("\"test.json.a\":"));
        assert_eq!(Telemetry::from_json(&text).unwrap(), doc);
    }

    #[test]
    fn counters_must_be_an_object_of_integers() {
        for bad in [
            "{\"counters\":7}",
            "{\"counters\":{\"a\":\"x\"}}",
            "{\"counters\":[]}",
            "{}",
        ] {
            assert!(Telemetry::from_json(bad).is_err(), "{bad}");
        }
    }
}

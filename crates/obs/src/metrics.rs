//! Metrics registry: counters and high-water-mark gauges.
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
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

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

/// Push `metric` into the registry on its first update.
fn register(registered: &AtomicBool, metric: impl FnOnce() -> MetricRef) {
    if !registered.load(Ordering::Relaxed) && !registered.swap(true, Ordering::AcqRel) {
        REGISTRY.lock().unwrap().push(metric());
    }
}

/// A monotonically increasing sum: one relaxed atomic, updated once per
/// 4096-edge batch, block or pass — never per edge.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    registered: AtomicBool,
    value: AtomicU64,
}

impl Counter {
    /// A new counter handle; usable as a `static` initializer.
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            registered: AtomicBool::new(false),
            value: AtomicU64::new(0),
        }
    }

    /// Add `n`; no-op while metrics are disabled. Adding 0 registers the
    /// name, so the snapshot lists it.
    #[inline]
    pub fn add(&'static self, n: u64) {
        if !enabled() {
            return;
        }
        register(&self.registered, || MetricRef::Counter(self));
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one; no-op while metrics are disabled.
    #[inline]
    pub fn incr(&'static self) {
        self.add(1);
    }

    /// Current sum.
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A high-water mark (e.g. the most points one PE held, a stage's heap
/// peak): the largest value recorded.
#[derive(Debug)]
pub struct Gauge {
    name: &'static str,
    registered: AtomicBool,
    peak: AtomicU64,
}

impl Gauge {
    /// A new gauge handle; usable as a `static` initializer.
    pub const fn new(name: &'static str) -> Self {
        Gauge {
            name,
            registered: AtomicBool::new(false),
            peak: AtomicU64::new(0),
        }
    }

    /// Raise the high-water mark to `v` if it is below; no-op while
    /// metrics are disabled. Recording 0 registers the name.
    #[inline]
    pub fn record_peak(&'static self, v: u64) {
        if !enabled() {
            return;
        }
        register(&self.registered, || MetricRef::Gauge(self));
        self.peak.fetch_max(v, Ordering::Relaxed);
    }

    /// High-water mark recorded so far.
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }
}

/// Every metric touched so far as sorted `(name, u64)` scalars:
/// counters as-is, gauges as their high-water mark (suffixed `.peak`).
/// Metrics that were never updated (or only while disabled) are absent.
/// This is the flat list federated into per-rank reports and run-wide
/// metrics files — summing a `.peak` entry across ranks bounds the
/// run-wide peak from above.
pub fn scalars() -> Vec<(String, u64)> {
    let reg = REGISTRY.lock().unwrap();
    let mut out: Vec<(String, u64)> = reg
        .iter()
        .map(|m| match m {
            MetricRef::Counter(c) => (c.name.to_string(), c.value()),
            MetricRef::Gauge(g) => (format!("{}.peak", g.name), g.peak()),
        })
        .collect();
    out.sort();
    out
}

/// Zero every registered metric (registrations persist). For reusing
/// one process across measured regions — benches and tests.
pub fn reset() {
    let reg = REGISTRY.lock().unwrap();
    for m in reg.iter() {
        match m {
            MetricRef::Counter(c) => c.value.store(0, Ordering::Relaxed),
            MetricRef::Gauge(g) => g.peak.store(0, Ordering::Relaxed),
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
        G.record_peak(9);
        assert_eq!(C.value(), 0);
        assert_eq!(G.peak(), 0);
        // Never registered, so absent from the scalars.
        assert!(!scalars().iter().any(|(n, _)| n.starts_with("test.noop.")));
    }

    #[test]
    fn counter_sums_across_threads() {
        static C: Counter = Counter::new("test.threads.counter");
        let _g = locked();
        set_enabled(true);
        reset();
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
        reset();
        G.record_peak(10);
        G.record_peak(15);
        G.record_peak(3);
        assert_eq!(G.peak(), 15);
        G.record_peak(100);
        assert_eq!(G.peak(), 100);
    }

    #[test]
    fn a_recorded_zero_registers_the_name() {
        static C: Counter = Counter::new("test.zero.counter");
        static G: Gauge = Gauge::new("test.zero.gauge");
        let _g = locked();
        set_enabled(true);
        C.add(0);
        G.record_peak(0);
        let found = scalars();
        for name in ["test.zero.counter", "test.zero.gauge.peak"] {
            assert!(found.iter().any(|(n, v)| n == name && *v == 0), "{name}");
        }
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
        G.record_peak(5);
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

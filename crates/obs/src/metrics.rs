//! Metrics registry: sharded counters, gauges, and log2 histograms.
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

/// Number of histogram buckets: one for zero plus one per power of two.
pub const BUCKETS: usize = 65;

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
    Histogram(&'static Histogram),
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

/// Bucket index for a recorded value: 0 holds zeros, bucket `k + 1`
/// holds `v` in `[2^k, 2^(k+1))`.
pub const fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Lower bound of bucket `i` (the smallest value it can hold).
pub const fn bucket_lo(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// A log2-bucketed distribution (batch sizes, run lengths, per-rank
/// wall micros). 65 buckets cover the full `u64` range; `count` and
/// `sum` ride along so means survive federation.
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    registered: AtomicBool,
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Histogram {
    /// A new histogram handle; usable as a `static` initializer.
    pub const fn new(name: &'static str) -> Self {
        Histogram {
            name,
            registered: AtomicBool::new(false),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
        }
    }

    /// Record one observation; no-op while metrics are disabled.
    #[inline]
    pub fn record(&'static self, v: u64) {
        if !enabled() {
            return;
        }
        self.register();
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Non-empty buckets as `(bucket index, count)` pairs.
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let c = b.load(Ordering::Relaxed);
                (c > 0).then_some((i, c))
            })
            .collect()
    }

    fn register(&'static self) {
        if !self.registered.load(Ordering::Relaxed) && !self.registered.swap(true, Ordering::AcqRel)
        {
            REGISTRY.lock().unwrap().push(MetricRef::Histogram(self));
        }
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
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
    /// Histogram totals plus its non-empty log2 buckets.
    Histogram {
        /// Number of observations.
        count: u64,
        /// Sum of observations.
        sum: u64,
        /// `(bucket index, count)` for each non-empty bucket.
        buckets: Vec<(usize, u64)>,
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
            MetricRef::Histogram(h) => (
                h.name,
                MetricValue::Histogram {
                    count: h.count(),
                    sum: h.sum(),
                    buckets: h.nonzero_buckets(),
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
/// counters as-is, gauges as their high-water mark (suffixed `.peak`),
/// histograms as `.count` and `.sum`. This is the flat list federated
/// into per-rank reports and run-wide metrics files — summing
/// a `.peak` entry across ranks bounds the run-wide peak from above.
pub fn scalars() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (name, v) in snapshot() {
        match v {
            MetricValue::Counter(c) => out.push((name.to_string(), c)),
            MetricValue::Gauge { peak, .. } => out.push((format!("{name}.peak"), peak)),
            MetricValue::Histogram { count, sum, .. } => {
                out.push((format!("{name}.count"), count));
                out.push((format!("{name}.sum"), sum));
            }
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
            MetricRef::Histogram(h) => h.reset(),
        }
    }
}

/// A plain-data histogram snapshot: totals plus the sparse non-empty
/// log2 buckets, mergeable bucket-wise so distributions federate across
/// ranks without collapsing to count/sum.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// `(bucket index, count)` pairs, sorted by index, counts > 0.
    pub buckets: Vec<(usize, u64)>,
}

impl HistogramSnapshot {
    /// Fold `other` into `self`: totals add, buckets merge index-wise.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        if other.buckets.is_empty() {
            return;
        }
        let mut merged = Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let (mut a, mut b) = (
            self.buckets.iter().peekable(),
            other.buckets.iter().peekable(),
        );
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(ia, ca)), Some(&&(ib, cb))) => {
                    if ia < ib {
                        merged.push((ia, ca));
                        a.next();
                    } else if ib < ia {
                        merged.push((ib, cb));
                        b.next();
                    } else {
                        merged.push((ia, ca + cb));
                        a.next();
                        b.next();
                    }
                }
                (Some(_), None) => {
                    merged.extend(a.by_ref().copied());
                    break;
                }
                (None, Some(_)) => {
                    merged.extend(b.by_ref().copied());
                    break;
                }
                (None, None) => break,
            }
        }
        self.buckets = merged;
    }

    /// Sum of all bucket counts; equals `count` for any snapshot built
    /// from a single histogram or merged from such snapshots.
    pub fn bucket_total(&self) -> u64 {
        self.buckets.iter().map(|&(_, c)| c).sum()
    }
}

/// Histogram snapshots only, sorted by name.
pub fn histograms() -> Vec<(String, HistogramSnapshot)> {
    snapshot()
        .into_iter()
        .filter_map(|(n, v)| match v {
            MetricValue::Histogram {
                count,
                sum,
                buckets,
            } => Some((
                n.to_string(),
                HistogramSnapshot {
                    count,
                    sum,
                    buckets,
                },
            )),
            _ => None,
        })
        .collect()
}

impl HistogramSnapshot {
    /// `{"count", "sum", "buckets": [{"bucket", "count"}, …]}` — the one
    /// histogram serializer; rank reports and the federated run
    /// document embed it verbatim.
    pub fn to_value(&self) -> Value {
        let buckets = self
            .buckets
            .iter()
            .map(|&(b, c)| json::obj([("bucket", Value::from(b)), ("count", c.into())]));
        json::obj([
            ("count", self.count.into()),
            ("sum", self.sum.into()),
            ("buckets", Value::Arr(buckets.collect())),
        ])
    }

    /// Inverse of [`HistogramSnapshot::to_value`].
    pub fn from_value(value: &Value, what: &str) -> Result<HistogramSnapshot, String> {
        let obj = value.as_obj(what)?;
        let mut buckets = Vec::new();
        for entry in obj.arr("buckets")? {
            let entry = entry.as_obj("bucket entry")?;
            buckets.push((entry.u64("bucket")? as usize, entry.u64("count")?));
        }
        Ok(HistogramSnapshot {
            count: obj.u64("count")?,
            sum: obj.u64("sum")?,
            buckets,
        })
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

/// A `(name, histogram)` list as a JSON object, in list order.
pub fn histograms_value(hists: &[(String, HistogramSnapshot)]) -> Value {
    json::obj(hists.iter().map(|(n, h)| (n.as_str(), h.to_value())))
}

/// Inverse of [`histograms_value`].
pub fn histograms_from(value: &Value) -> Result<Vec<(String, HistogramSnapshot)>, String> {
    let fields = value.as_obj("histograms")?.fields();
    fields
        .iter()
        .map(|(name, h)| Ok((name.clone(), HistogramSnapshot::from_value(h, name)?)))
        .collect()
}

/// One process's metrics as a document: the flat [`scalars`] under
/// `"counters"` plus the full bucket vectors of every histogram under
/// `"histograms"` — the `metrics` member of a worker's rank report
/// (`part-<a>-<b>.json`) and what `kagen worker --metrics-out` writes.
/// Every histogram appears in both halves, and they reconcile:
/// `<name>.count`/`<name>.sum` equal the vector's totals.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Telemetry {
    /// Flat `(name, value)` scalars, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Full histogram snapshots, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl Telemetry {
    /// Snapshot this process's registry.
    pub fn capture() -> Telemetry {
        Telemetry {
            counters: scalars(),
            histograms: histograms(),
        }
    }

    /// The document as a JSON value (what a rank report embeds).
    pub fn to_value(&self) -> Value {
        json::obj([
            ("counters", counters_value(&self.counters)),
            ("histograms", histograms_value(&self.histograms)),
        ])
    }

    /// Inverse of [`Telemetry::to_value`].
    pub fn from_value(value: &Value) -> Result<Telemetry, String> {
        let obj = value.as_obj("metrics document")?;
        Ok(Telemetry {
            counters: counters_from(obj.get("counters")?)?,
            histograms: histograms_from(obj.get("histograms")?)?,
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
        static H: Histogram = Histogram::new("test.noop.hist");
        let _g = locked();
        set_enabled(false);
        C.add(7);
        G.set(9);
        H.record(3);
        assert_eq!(C.value(), 0);
        assert_eq!(G.value(), 0);
        assert_eq!(G.peak(), 0);
        assert_eq!(H.count(), 0);
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
    fn histogram_bucketing() {
        // v = 0 -> bucket 0; v in [2^k, 2^(k+1)) -> bucket k + 1.
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(7), 3);
        assert_eq!(bucket_of(8), 4);
        assert_eq!(bucket_of(4096), 13);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert!(bucket_of(u64::MAX) < BUCKETS);
        // Bucket lower bounds invert the mapping.
        assert_eq!(bucket_lo(0), 0);
        assert_eq!(bucket_lo(1), 1);
        assert_eq!(bucket_lo(13), 4096);
        for v in [0u64, 1, 2, 3, 5, 100, 4096, u64::MAX] {
            let b = bucket_of(v);
            assert!(bucket_lo(b) <= v);
            if b + 1 < BUCKETS {
                assert!(v < bucket_lo(b + 1));
            }
        }
    }

    #[test]
    fn histogram_records_and_snapshots() {
        static H: Histogram = Histogram::new("test.hist.record");
        let _g = locked();
        set_enabled(true);
        H.reset();
        for v in [0u64, 1, 1, 4096, 5000] {
            H.record(v);
        }
        assert_eq!(H.count(), 5);
        assert_eq!(H.sum(), 1 + 1 + 4096 + 5000);
        let buckets = H.nonzero_buckets();
        assert_eq!(buckets, vec![(0, 1), (1, 2), (13, 2)]);
    }

    #[test]
    fn snapshot_json_is_integer_only_and_sorted() {
        static C1: Counter = Counter::new("test.json.b");
        static C2: Counter = Counter::new("test.json.a");
        static H: Histogram = Histogram::new("test.json.h");
        let _g = locked();
        set_enabled(true);
        C1.add(2);
        C2.add(1);
        H.record(5);
        let doc = Telemetry::capture();
        let names: Vec<_> = doc.counters.iter().map(|(n, _)| n.clone()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        // Histograms ride in both halves and reconcile.
        let (_, h) = doc
            .histograms
            .iter()
            .find(|(n, _)| n == "test.json.h")
            .unwrap();
        let scalar = |k: &str| doc.counters.iter().find(|(n, _)| n == k).unwrap().1;
        assert_eq!(h.count, scalar("test.json.h.count"));
        assert_eq!(h.sum, scalar("test.json.h.sum"));
        let text = doc.to_json();
        assert!(text.starts_with("{\"counters\":{"), "{text}");
        assert!(text.contains("\"test.json.a\":"));
        assert_eq!(Telemetry::from_json(&text).unwrap(), doc);
    }

    #[test]
    fn counters_must_be_an_object_of_integers() {
        for bad in [
            "{\"counters\":7,\"histograms\":{}}",
            "{\"counters\":{\"a\":\"x\"},\"histograms\":{}}",
            "{\"counters\":{},\"histograms\":[]}",
            "{\"counters\":{}}",
        ] {
            assert!(Telemetry::from_json(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn histogram_snapshot_merges_bucket_wise() {
        let mut a = HistogramSnapshot {
            count: 3,
            sum: 10,
            buckets: vec![(0, 1), (5, 2)],
        };
        let b = HistogramSnapshot {
            count: 4,
            sum: 90,
            buckets: vec![(5, 1), (7, 3)],
        };
        a.merge(&b);
        assert_eq!(a.count, 7);
        assert_eq!(a.sum, 100);
        assert_eq!(a.buckets, vec![(0, 1), (5, 3), (7, 3)]);
        assert_eq!(a.bucket_total(), a.count);
        // Merging an empty snapshot is a no-op on buckets.
        let before = a.clone();
        a.merge(&HistogramSnapshot::default());
        assert_eq!(a, before);
        // Merging into an empty snapshot copies.
        let mut e = HistogramSnapshot::default();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn histograms_accessor_returns_live_snapshots() {
        static H: Histogram = Histogram::new("test.hist.accessor");
        let _g = locked();
        set_enabled(true);
        H.reset();
        H.record(12);
        H.record(100);
        let hs = histograms();
        let (_, snap) = hs
            .iter()
            .find(|(n, _)| *n == "test.hist.accessor")
            .expect("registered histogram must appear");
        assert_eq!(snap.count, 2);
        assert_eq!(snap.sum, 112);
        assert_eq!(snap.bucket_total(), 2);
    }
}

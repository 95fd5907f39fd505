//! # kagen-obs
//!
//! The observability layer of the workspace: run-wide metrics, span
//! tracing, and a leveled logger — vendored (zero dependencies), and
//! built around one hard rule: **telemetry must never change an output
//! byte**. Nothing in this crate touches an RNG stream, reorders an
//! edge, or adds a field to a manifest; with telemetry on or off, every
//! shard the generators write is bit-identical (enforced by the
//! determinism matrix in `tests/observability.rs`).
//!
//! * [`metrics`] — a registry of named [`Counter`]s (sharded atomics)
//!   and [`Gauge`]s (value + high-water mark); a process's snapshot is
//!   one flat list of `(name, u64)` scalars ([`Telemetry`]), and a fact
//!   a span already times is not recorded again as a metric. Metrics
//!   are **off by default**: a disabled update is one relaxed load and
//!   a predictable branch, and every instrumentation site in the
//!   workspace sits at batch/block granularity (once per 4096-edge
//!   batch, per 128-skip block, per cell) — never per edge.
//! * [`trace`] — scoped span timers ([`span`]) that emit Chrome
//!   trace-event JSON loadable in `chrome://tracing` / Perfetto
//!   (`kagen ... --trace-out trace.json`). Spans double as the
//!   workspace's one wall-clock source: [`Span::finish`] returns the
//!   elapsed seconds, so bench timings and `metrics.json` come off the
//!   same clock.
//! * [`json`] — the workspace's one JSON layer (value tree, parser,
//!   escaper, writer, file helpers); every on-disk document of the
//!   pipeline and the launcher is a struct over it.
//! * [`log`] — the leveled logger behind `-v`/`-q` and `KAGEN_LOG`,
//!   replacing ad-hoc `eprintln!`s with consistent
//!   `kagen <subcmd>:`-prefixed lines on stderr.
//!
//! ## Quickstart
//!
//! ```
//! use kagen_obs::{metrics, Counter};
//!
//! static EDGES: Counter = Counter::new("doc.edges");
//!
//! metrics::set_enabled(true);
//! EDGES.add(4096);
//! assert!(metrics::counters().iter().any(|(n, v)| *n == "doc.edges" && *v >= 4096));
//! ```

pub mod json;
pub mod log;
pub mod metrics;
pub mod trace;

pub use log::Level;
pub use metrics::{Counter, Gauge, MetricValue, Telemetry};
pub use trace::{span, ProcessTrace, Span, TraceEvent};

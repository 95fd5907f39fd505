//! Cross-rank trace federation: the `trace` members of the rank reports
//! in, one Perfetto-loadable timeline out.
//!
//! Each worker process buffers its spans with `kagen_obs::trace` and,
//! when launch telemetry is on, puts them into its rank report
//! (`part-<a>-<b>.json`) as the `trace` member. The member is the
//! same document `kagen stream --trace-out` writes, itself a valid
//! Chrome trace (it has a `traceEvents` array), but its timestamps are
//! microseconds on the *worker's* monotonic clock — so its header
//! carries the wall-clock anchor captured when that clock's epoch was
//! pinned ([`kagen_obs::trace::epoch_unix_us`]), and the coordinator
//! realigns every worker event onto its own timeline:
//!
//! ```text
//! ts' = ts + (worker_anchor − coordinator_anchor)
//! ```
//!
//! [`federate_chrome_trace`] merges the coordinator's own spans with
//! every rank's realigned events into one JSON document: each process
//! keeps its real OS `pid` and gets a `process_name` metadata row
//! (`rank 2 worker (PEs 8..12)`), ranks sort under the coordinator, and
//! a flow arrow links each supervisor `rank-N` span to the worker
//! process-level span it spawned — retries included, because only the
//! successful attempt writes a report, and the arrow starts from the
//! *last* `rank-N` span.

use kagen_obs::json::{self, Layout, Value};
use kagen_obs::trace::chrome_trace_value;
use kagen_obs::{ProcessTrace, TraceEvent};
use std::io;
use std::path::Path;

/// One rank's collected worker trace, tagged with its plan position.
#[derive(Clone, Debug)]
pub struct RankTrace {
    /// Rank id (plan order).
    pub rank: u64,
    /// First PE of the rank's contiguous range.
    pub pe_begin: u64,
    /// One past the rank's last PE.
    pub pe_end: u64,
    /// The `trace` member of the rank's report.
    pub trace: ProcessTrace,
}

/// The two metadata rows naming a process and ordering it in the UI.
fn metadata_rows(pid: u64, name: &str, sort_index: u64) -> [Value; 2] {
    let row = |kind: &str, arg: (&str, Value)| {
        json::obj([
            ("name", kind.into()),
            ("ph", "M".into()),
            ("pid", pid.into()),
            ("tid", 0u64.into()),
            ("args", json::obj([arg])),
        ])
    };
    [
        row("process_name", ("name", name.into())),
        row("process_sort_index", ("sort_index", sort_index.into())),
    ]
}

/// One end of a flow arrow (`ph` `s` = start, `f` = finish) for `rank`.
fn flow_row(rank: u64, ph: &str, ts: u64, pid: u64, tid: u64) -> Value {
    let mut fields = vec![
        ("name", format!("rank-{rank}").as_str().into()),
        ("cat", "flow".into()),
        ("ph", ph.into()),
    ];
    if ph == "f" {
        // Bind to the enclosing slice, not the next one to start.
        fields.push(("bp", "e".into()));
    }
    fields.extend([
        ("id", rank.into()),
        ("ts", ts.into()),
        ("pid", pid.into()),
        ("tid", tid.into()),
    ]);
    json::obj(fields)
}

/// The timestamp/tid anchor of a rank's process-level span: the
/// outermost `worker.generate` span when present, else the earliest
/// event.
fn worker_anchor(events: &[TraceEvent]) -> Option<&TraceEvent> {
    events
        .iter()
        .find(|e| e.name == "worker.generate")
        .or_else(|| events.iter().min_by_key(|e| e.ts_us))
}

/// Merge the coordinator's current span buffer with every rank's
/// trace into one Chrome trace JSON document (see the module docs
/// for the shape). Timestamps are realigned onto the coordinator's
/// clock via the workers' wall anchors.
pub fn federate_chrome_trace(ranks: &[RankTrace]) -> String {
    federate_with(&ProcessTrace::capture(), ranks)
}

/// [`federate_chrome_trace`] against an explicit coordinator view
/// instead of this process's live trace buffer (deterministic tests,
/// offline re-federation of saved traces).
pub fn federate_with(coord: &ProcessTrace, ranks: &[RankTrace]) -> String {
    let shift = |rt: &RankTrace| rt.trace.epoch_unix_us as i64 - coord.epoch_unix_us as i64;

    let mut rows = Vec::new();
    rows.extend(metadata_rows(coord.pid, "kagen launch (coordinator)", 0));
    for rt in ranks {
        let name = format!(
            "rank {} worker (PEs {}..{})",
            rt.rank, rt.pe_begin, rt.pe_end
        );
        rows.extend(metadata_rows(rt.trace.pid, &name, rt.rank + 1));
    }
    rows.extend(coord.events.iter().map(|e| e.to_value(coord.pid, 0)));
    for rt in ranks {
        let events = rt.trace.events.iter();
        rows.extend(events.map(|e| e.to_value(rt.trace.pid, shift(rt))));
    }
    // Flow arrows: supervisor `rank-N` span -> worker process span.
    // A retried rank has several `rank-N` spans; the trace belongs to
    // the successful (last) attempt, so the arrow starts there.
    for rt in ranks {
        let rank_name = format!("rank-{}", rt.rank);
        let Some(rank_span) = coord
            .events
            .iter()
            .filter(|e| e.name == rank_name)
            .max_by_key(|e| e.ts_us)
        else {
            continue;
        };
        let Some(anchor) = worker_anchor(&rt.trace.events) else {
            continue;
        };
        let worker_ts = anchor.shifted_ts(shift(rt));
        rows.push(flow_row(
            rt.rank,
            "s",
            rank_span.ts_us,
            coord.pid,
            rank_span.tid,
        ));
        rows.push(flow_row(rt.rank, "f", worker_ts, rt.trace.pid, anchor.tid));
    }
    chrome_trace_value(Vec::new(), rows).render(Layout::Compact)
}

/// Write the federated timeline (see [`federate_chrome_trace`]) to
/// `path`.
pub fn write_federated_chrome_trace(path: &Path, ranks: &[RankTrace]) -> io::Result<()> {
    kagen_obs::Staged::save_atomic(path, federate_chrome_trace(ranks))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &str, ts_us: u64, dur_us: u64, tid: u64) -> TraceEvent {
        TraceEvent {
            name: name.to_string(),
            ts_us,
            dur_us,
            tid,
        }
    }

    #[test]
    fn sidecar_roundtrip_preserves_events_and_anchor() {
        // Hand-written document with a known anchor.
        let wt = ProcessTrace::from_json(
            "{\"schema\":\"kagen-trace-sidecar/v1\",\"pid\":4242,\
             \"epoch_unix_us\":1000000,\"traceEvents\":[{\"name\":\"worker.generate\",\
             \"cat\":\"kagen\",\"ph\":\"X\",\"ts\":5,\"dur\":90,\"pid\":4242,\"tid\":1}],\
             \"displayTimeUnit\":\"ms\"}",
        )
        .unwrap();
        assert_eq!(wt.pid, 4242);
        assert_eq!(wt.epoch_unix_us, 1_000_000);
        assert_eq!(wt.events, vec![ev("worker.generate", 5, 90, 1)]);
        // Unknown schema is rejected, not silently misread.
        assert!(ProcessTrace::from_json(
            "{\"schema\":\"kagen-trace-sidecar/v9\",\"pid\":1,\"epoch_unix_us\":1,\
             \"traceEvents\":[]}"
        )
        .is_err());
    }

    #[test]
    fn live_sidecar_is_chrome_shaped_and_parses_back() {
        kagen_obs::trace::set_enabled(true);
        let s = kagen_obs::trace::span("test.trace.live");
        let _ = s.finish();
        let wt = ProcessTrace::from_json(&ProcessTrace::capture().to_json()).unwrap();
        assert_eq!(wt.pid, std::process::id() as u64);
        assert_eq!(wt.epoch_unix_us, kagen_obs::trace::epoch_unix_us());
        assert!(wt.events.iter().any(|e| e.name == "test.trace.live"));
        kagen_obs::trace::set_enabled(false);
    }

    #[test]
    fn federation_realigns_names_and_links() {
        // Worker epochs 100us and 250us after the coordinator's: their
        // events must shift forward by exactly that delta.
        let coord_anchor = 5_000_000u64;
        let coord = ProcessTrace {
            pid: 8000,
            epoch_unix_us: coord_anchor,
            events: vec![ev("launch.supervise", 0, 900, 1)],
        };
        let ranks = vec![
            RankTrace {
                rank: 0,
                pe_begin: 0,
                pe_end: 4,
                trace: ProcessTrace {
                    pid: 9001,
                    epoch_unix_us: coord_anchor + 100,
                    events: vec![
                        ev("worker.generate", 10, 500, 1),
                        ev("pipeline.shard", 20, 80, 2),
                    ],
                },
            },
            RankTrace {
                rank: 1,
                pe_begin: 4,
                pe_end: 8,
                trace: ProcessTrace {
                    pid: 9002,
                    epoch_unix_us: coord_anchor + 250,
                    events: vec![ev("worker.generate", 40, 300, 1)],
                },
            },
        ];
        let json_text = federate_with(&coord, &ranks);
        // Parses with the workspace's own (u64-only) parser.
        let doc = json::parse(&json_text).unwrap();
        let events = doc
            .as_obj("trace")
            .unwrap()
            .get("traceEvents")
            .unwrap()
            .as_arr("traceEvents")
            .unwrap()
            .to_vec();
        // Distinct pid rows with names for both workers.
        assert!(json_text.contains("\"rank 0 worker (PEs 0..4)\""));
        assert!(json_text.contains("\"rank 1 worker (PEs 4..8)\""));
        assert!(json_text.contains("\"pid\":9001"));
        assert!(json_text.contains("\"pid\":9002"));
        // Realigned timestamps: 10+100 and 40+250.
        let find = |pid: u64, name: &str| {
            events
                .iter()
                .filter_map(|v| v.as_obj("e").ok())
                .find(|e| {
                    e.get("pid").ok().and_then(|p| p.as_u64("pid").ok()) == Some(pid)
                        && e.get("name")
                            .ok()
                            .and_then(|n| n.as_str("n").ok().map(String::from))
                            == Some(name.to_string())
                })
                .unwrap_or_else(|| panic!("missing event {name} pid {pid}"))
        };
        assert_eq!(
            find(9001, "worker.generate")
                .get("ts")
                .unwrap()
                .as_u64("ts")
                .unwrap(),
            110
        );
        assert_eq!(
            find(9002, "worker.generate")
                .get("ts")
                .unwrap()
                .as_u64("ts")
                .unwrap(),
            290
        );
    }

    #[test]
    fn federation_links_flows_to_last_rank_span() {
        // The coordinator saw two rank-0 spans (a failed and a
        // successful attempt); the flow must start from the later one,
        // because only the successful attempt wrote a report.
        let coord = ProcessTrace {
            pid: 8000,
            epoch_unix_us: 5_000_000,
            events: vec![ev("rank-0", 10, 40, 2), ev("rank-0", 600, 80, 3)],
        };
        let ranks = vec![RankTrace {
            rank: 0,
            pe_begin: 0,
            pe_end: 2,
            trace: ProcessTrace {
                pid: 7001,
                epoch_unix_us: 5_000_000 + 620,
                events: vec![ev("worker.generate", 3, 50, 1)],
            },
        }];
        let json_text = federate_with(&coord, &ranks);
        assert!(
            json_text.contains(
                "\"cat\":\"flow\",\"ph\":\"s\",\"id\":0,\"ts\":600,\"pid\":8000,\"tid\":3"
            ),
            "{json_text}"
        );
        assert!(
            json_text
                .contains("\"ph\":\"f\",\"bp\":\"e\",\"id\":0,\"ts\":623,\"pid\":7001,\"tid\":1"),
            "{json_text}"
        );
        // A rank with no events gets a pid row but no flow arrow.
        let bare = vec![RankTrace {
            rank: 1,
            pe_begin: 2,
            pe_end: 4,
            trace: ProcessTrace::default(),
        }];
        let json_text = federate_with(&coord, &bare);
        assert!(json_text.contains("rank 1 worker"));
        assert!(!json_text.contains("\"id\":1,"));
    }
}

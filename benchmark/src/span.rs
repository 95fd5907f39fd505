//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The product is timed from outside: a span opens before a call into
//! a layer's public function and closes after it. Spans are kept in
//! memory and written as Chrome-trace JSON when the workload's traced
//! run ends. A layer's *self time* is its span minus the part of that
//! interval its child spans cover.

use std::cell::RefCell;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRec {
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<u32>,
    /// The PE the span worked for, where there is one.
    pub pe: Option<u32>,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
struct Recorder {
    epoch: Instant,
    spans: Vec<SpanRec>,
    /// Indices of the open spans, innermost last.
    open: Vec<u32>,
}

thread_local! {
    // The harness is single-threaded; a thread-local lets the timing
    // `Write` wrapper deep inside a sink record spans without a handle
    // being threaded through the product's types.
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording on this thread, dropping whatever was recorded.
pub fn start_recording() {
    RECORDER.with_borrow_mut(|r| {
        *r = Some(Recorder {
            epoch: Instant::now(),
            // Reserved up front (48 MiB of untouched address space), so
            // the recorder does not reallocate inside a measured region
            // and show up in `core.gen_peak_alloc_bytes`.
            spans: Vec::with_capacity(1 << 20),
            open: Vec::with_capacity(16),
        })
    });
}

/// Stop recording and hand back every span.
pub fn take_spans() -> Vec<SpanRec> {
    RECORDER
        .with_borrow_mut(Option::take)
        .map(|r| r.spans)
        .unwrap_or_default()
}

/// Closes its span when dropped.
#[derive(Debug)]
#[must_use = "a span measures until it is dropped"]
pub struct SpanGuard(Option<u32>);

/// Open a span; it nests under the innermost open one. Does nothing
/// when the thread is not recording.
pub fn enter(name: &'static str, pe: Option<usize>) -> SpanGuard {
    SpanGuard(RECORDER.with_borrow_mut(|r| {
        let r = r.as_mut()?;
        let index = u32::try_from(r.spans.len()).ok()?;
        let now = r.epoch.elapsed().as_nanos() as u64;
        r.spans.push(SpanRec {
            name,
            start_ns: now,
            end_ns: now,
            parent: r.open.last().copied(),
            pe: pe.and_then(|pe| u32::try_from(pe).ok()),
        });
        r.open.push(index);
        Some(index)
    }))
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(index) = self.0 else { return };
        RECORDER.with_borrow_mut(|r| {
            if let Some(r) = r.as_mut() {
                r.spans[index as usize].end_ns = r.epoch.elapsed().as_nanos() as u64;
                // Guards drop innermost first; tolerate a stray order
                // by closing everything opened after this span.
                while r.open.pop().is_some_and(|open| open != index) {}
            }
        });
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the span. Children that
/// overlap one another are not subtracted twice.
pub fn self_times_ns(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p as usize].push(i);
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_by_key(|&k| spans[k].start_ns);
            let mut covered = 0;
            let mut frontier = s.start_ns;
            for &k in kids.iter() {
                let start = spans[k].start_ns.clamp(frontier, s.end_ns);
                let end = spans[k].end_ns.clamp(frontier, s.end_ns);
                covered += end - start;
                frontier = end;
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Sum of the self times of every span called `name`, in nanoseconds.
pub fn self_total_ns(spans: &[SpanRec], self_ns: &[u64], name: &str) -> u64 {
    spans
        .iter()
        .zip(self_ns)
        .filter(|(s, _)| s.name == name)
        .map(|(_, &t)| t)
        .sum()
}

/// Chrome trace-event JSON (`chrome://tracing`, ui.perfetto.dev): one
/// complete (`"ph":"X"`) event per span, integer microseconds, plus a
/// metadata row naming the process after the workload. `args` carries
/// the span's own index, its parent's and its PE, so the causal tree
/// survives the export.
pub fn chrome_trace_json(workload: &str, spans: &[SpanRec]) -> String {
    let mut out = String::with_capacity(128 + spans.len() * 120);
    out.push_str("{\"traceEvents\":[");
    out.push_str("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":");
    crate::json::push_str(&mut out, &format!("kagen-benchmark layer pass: {workload}"));
    out.push_str("}}");
    for (i, s) in spans.iter().enumerate() {
        out.push_str(",{\"name\":");
        crate::json::push_str(&mut out, s.name);
        out.push_str(&format!(
            ",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":1,\"args\":{{\"workload\":",
            s.name.split('.').next().unwrap_or(s.name),
            s.start_ns / 1000,
            s.dur_ns() / 1000
        ));
        crate::json::push_str(&mut out, workload);
        out.push_str(&format!(",\"span\":{i}"));
        if let Some(p) = s.parent {
            out.push_str(&format!(",\"parent\":{p}"));
        }
        if let Some(pe) = s.pe {
            out.push_str(&format!(",\"pe\":{pe}"));
        }
        out.push_str("}}");
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> SpanRec {
        SpanRec {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            pe: None,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // shard [0,100] ⊃ encode [10,60] ⊃ write [20,50]
        let spans = [
            rec("shard", 0, 100, None),
            rec("encode", 10, 60, Some(0)),
            rec("write", 20, 50, Some(1)),
        ];
        // The grandchild is the child's business, not the root's.
        assert_eq!(self_times_ns(&spans), vec![50, 20, 30]);
    }

    #[test]
    fn self_time_with_adjacent_children() {
        let spans = [
            rec("shard", 0, 100, None),
            rec("checksum", 10, 30, Some(0)),
            rec("encode", 30, 70, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 20, 40]);
    }

    #[test]
    fn self_time_with_overlapping_and_overhanging_siblings() {
        // [10,50] and [30,70] cover [10,70] = 60, not 80; [90,120]
        // overhangs the parent and is clipped to [90,100].
        let spans = [
            rec("parent", 0, 100, None),
            rec("b", 30, 70, Some(0)),
            rec("a", 10, 50, Some(0)),
            rec("c", 90, 120, Some(0)),
            rec("inside-b", 35, 40, Some(1)),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own[0], 100 - 60 - 10);
        assert_eq!(own[1], 40 - 5);
        assert_eq!(self_total_ns(&spans, &own, "a"), 40);
    }

    #[test]
    fn guards_nest_and_record_parents() {
        start_recording();
        {
            let _shard = enter("pipeline.shard", Some(3));
            {
                let _enc = enter("graph.encode", Some(3));
                let _w = enter("fs.write", Some(3));
            }
            let _sum = enter("pipeline.checksum", Some(3));
        }
        let _top = enter("pipeline.manifest", None);
        drop(_top);
        let spans = take_spans();
        let shape: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            shape,
            vec![
                ("pipeline.shard", None),
                ("graph.encode", Some(0)),
                ("fs.write", Some(1)),
                ("pipeline.checksum", Some(0)),
                ("pipeline.manifest", None),
            ]
        );
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[3].end_ns);
        // Not recording: guards are inert.
        drop(enter("ignored", None));
        assert!(take_spans().is_empty());
    }

    #[test]
    fn chrome_trace_parses_with_the_products_json_parser() {
        let spans = [
            SpanRec {
                name: "pipeline.shard",
                start_ns: 1_500,
                end_ns: 9_000,
                parent: None,
                pe: Some(7),
            },
            rec("fs.write", 2_000, 3_000, Some(0)),
        ];
        let text = chrome_trace_json("rmat \"quoted\"\n", &spans);
        let doc = kagen_pipeline::manifest::json::parse(&text).unwrap();
        let events = doc.as_obj("trace").unwrap().get("traceEvents").unwrap();
        let events = events.as_arr("traceEvents").unwrap();
        assert_eq!(events.len(), 3);
        let shard = events[1].as_obj("event").unwrap();
        assert_eq!(
            shard.get("name").unwrap().as_str("name").unwrap(),
            "pipeline.shard"
        );
        assert_eq!(shard.get("ts").unwrap().as_u64("ts").unwrap(), 1);
        assert_eq!(shard.get("dur").unwrap().as_u64("dur").unwrap(), 7);
        let args = shard.get("args").unwrap().as_obj("args").unwrap();
        assert_eq!(args.get("pe").unwrap().as_u64("pe").unwrap(), 7);
        assert_eq!(
            args.get("workload").unwrap().as_str("workload").unwrap(),
            "rmat \"quoted\"\n"
        );
        let write = events[2].as_obj("event").unwrap();
        let args = write.get("args").unwrap().as_obj("args").unwrap();
        assert_eq!(args.get("parent").unwrap().as_u64("parent").unwrap(), 0);
    }
}

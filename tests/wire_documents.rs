//! Golden wire bytes: the files workers and the coordinator leave for
//! each other are the whole protocol of a communication-free launch, so
//! the exact text of each one is pinned here against literal constants
//! built from fixed inputs — a manifest, a partial manifest (the rank
//! report, without and with telemetry), a ledger with pending and done
//! shards, a heartbeat, a v2 run-metrics document and a federated
//! trace. Strings carry a quote, a backslash, a tab and a control byte
//! so the escaper is pinned with them.

use kagen_repro::cluster::metrics::{RankMetrics, RunMetrics};
use kagen_repro::cluster::trace::{federate_with, RankTrace};
use kagen_repro::cluster::{plan_ranks, Heartbeat, Ledger};
use kagen_repro::obs::{HistogramSnapshot, ProcessTrace, Telemetry, TraceEvent};
use kagen_repro::pipeline::{Manifest, PartialManifest, RunHeader, ShardInfo};

fn shard(pe: u64) -> ShardInfo {
    ShardInfo {
        pe,
        file: format!("shard-{pe:05}.kgc"),
        edges: 1000 + pe,
        checksum: 0xdead_beef_0000_0000 + pe,
    }
}

fn header() -> RunHeader {
    RunHeader {
        model: "rmat".into(),
        params: "n=1024 m=4096 \"q\" \\ \ttab \u{1}".into(),
        seed: 42,
        n: 1024,
        directed: true,
        chunks: 3,
        format: "compressed".into(),
    }
}

fn manifest() -> Manifest {
    header()
        .federate(vec![shard(2), shard(0), shard(1)])
        .unwrap()
}

#[test]
fn manifest_bytes() {
    assert_eq!(
        manifest().to_json(),
        "{\n  \"model\": \"rmat\",\n  \"params\": \"n=1024 m=4096 \\\"q\\\" \\\\ \\ttab \\u0001\",\n  \
         \"seed\": 42,\n  \"n\": 1024,\n  \"directed\": true,\n  \"chunks\": 3,\n  \
         \"format\": \"compressed\",\n  \"edges\": 3003,\n  \"shards\": [\n    \
         {\"pe\": 0, \"file\": \"shard-00000.kgc\", \"edges\": 1000, \"checksum\": 16045690981097406464},\n    \
         {\"pe\": 1, \"file\": \"shard-00001.kgc\", \"edges\": 1001, \"checksum\": 16045690981097406465},\n    \
         {\"pe\": 2, \"file\": \"shard-00002.kgc\", \"edges\": 1002, \"checksum\": 16045690981097406466}\n  \
         ]\n}\n"
    );
    let mut empty = manifest();
    empty.shards.clear();
    assert!(empty
        .to_json()
        .ends_with("  \"edges\": 3003,\n  \"shards\": [\n  ]\n}\n"));
}

#[test]
fn partial_manifest_bytes() {
    let mut part = PartialManifest {
        pe_begin: 1,
        pe_end: 3,
        shards: vec![shard(1), shard(2)],
        metrics: None,
        trace: None,
    };
    assert_eq!(
        part.to_json(),
        "{\n  \"pe_begin\": 1,\n  \"pe_end\": 3,\n  \"shards\": [\n    \
         {\"pe\": 1, \"file\": \"shard-00001.kgc\", \"edges\": 1001, \"checksum\": 16045690981097406465},\n    \
         {\"pe\": 2, \"file\": \"shard-00002.kgc\", \"edges\": 1002, \"checksum\": 16045690981097406466}\n  \
         ]\n}\n"
    );
    // A worker asked for telemetry appends it; the three members above
    // keep their bytes.
    let hist = HistogramSnapshot {
        count: 2,
        sum: 300,
        buckets: vec![(3, 1), (8, 1)],
    };
    part.metrics = Some(Telemetry {
        counters: vec![("gen.edges".into(), 2003)],
        histograms: vec![("sink.shard_wall_us".into(), hist)],
    });
    part.trace = Some(ProcessTrace {
        pid: 9001,
        epoch_unix_us: 5_000_100,
        events: vec![ev("worker.generate \"q\"", 10, 500, 1)],
    });
    assert_eq!(
        part.to_json(),
        "{\n  \"pe_begin\": 1,\n  \"pe_end\": 3,\n  \"shards\": [\n    \
         {\"pe\": 1, \"file\": \"shard-00001.kgc\", \"edges\": 1001, \"checksum\": 16045690981097406465},\n    \
         {\"pe\": 2, \"file\": \"shard-00002.kgc\", \"edges\": 1002, \"checksum\": 16045690981097406466}\n  \
         ],\n  \"metrics\": {\n    \"counters\": {\"gen.edges\": 2003},\n    \
         \"histograms\": {\"sink.shard_wall_us\": {\"count\": 2, \"sum\": 300, \"buckets\": [{\"bucket\": 3, \"count\": 1}, {\"bucket\": 8, \"count\": 1}]}}\n  \
         },\n  \"trace\": {\n    \"schema\": \"kagen-trace-sidecar/v1\",\n    \"pid\": 9001,\n    \
         \"epoch_unix_us\": 5000100,\n    \
         \"traceEvents\": [{\"name\": \"worker.generate \\\"q\\\"\", \"cat\": \"kagen\", \"ph\": \"X\", \"ts\": 10, \"dur\": 500, \"pid\": 9001, \"tid\": 1}],\n    \
         \"displayTimeUnit\": \"ms\"\n  }\n}\n"
    );
}

#[test]
fn ledger_bytes() {
    let mut ledger = Ledger::new(header(), 2, &plan_ranks(3, 2));
    ledger.record_rank_done(0, vec![shard(0)]);
    ledger.record_rank_retry(1);
    ledger.record_rank_failed(1);
    assert_eq!(
        ledger.to_json(),
        "{\n  \"model\": \"rmat\",\n  \"params\": \"n=1024 m=4096 \\\"q\\\" \\\\ \\ttab \\u0001\",\n  \
         \"seed\": 42,\n  \"n\": 1024,\n  \"directed\": true,\n  \"chunks\": 3,\n  \
         \"format\": \"compressed\",\n  \"workers\": 2,\n  \"shards\": [\n    \
         {\"pe\": 0, \"status\": \"done\", \"file\": \"shard-00000.kgc\", \"edges\": 1000, \"checksum\": 16045690981097406464},\n    \
         {\"pe\": 1, \"status\": \"pending\"},\n    \
         {\"pe\": 2, \"status\": \"pending\"}\n  \
         ],\n  \"ranks\": [\n    \
         {\"rank\": 0, \"pe_begin\": 0, \"pe_end\": 1, \"status\": \"done\", \"attempts\": 1},\n    \
         {\"rank\": 1, \"pe_begin\": 1, \"pe_end\": 3, \"status\": \"failed\", \"attempts\": 2}\n  \
         ]\n}\n"
    );
}

#[test]
fn heartbeat_bytes() {
    let hb = Heartbeat {
        pe_begin: 4,
        pe_end: 8,
        stage: "generate".into(),
        pes_done: 2,
        edges: 123_456,
        seq: 7,
        unix_us: 1_700_000_000_000_000,
    };
    assert_eq!(
        hb.to_json(),
        "{\"schema\":\"kagen-heartbeat/v1\",\"pe_begin\":4,\"pe_end\":8,\"stage\":\"generate\",\
         \"pes_done\":2,\"edges\":123456,\"seq\":7,\"unix_us\":1700000000000000}"
    );
}

fn rank(rank: u64, pe_begin: u64, pe_end: u64, edges: u64) -> RankMetrics {
    let hist = HistogramSnapshot {
        count: 2,
        sum: edges + 10,
        buckets: vec![(3, 1), (4 + rank as usize, 1)],
    };
    RankMetrics {
        rank,
        pe_begin,
        pe_end,
        edges,
        wall_us: 1000 + rank,
        attempts: 1 + rank,
        counters: vec![
            ("gen.edges".into(), edges),
            ("sink.shard_wall_us.count".into(), hist.count),
            ("sink.shard_wall_us.sum".into(), hist.sum),
        ],
        histograms: vec![("sink.shard_wall_us".into(), hist)],
    }
}

#[test]
fn run_metrics_bytes() {
    // Rank 1 arrives first and carries no worker telemetry (an
    // in-process rank); PE 2 was reused from an earlier run.
    let mut bare = rank(1, 1, 2, 1001);
    bare.counters.clear();
    bare.histograms.clear();
    let rm = RunMetrics::federate(&manifest(), vec![bare, rank(0, 0, 1, 1000)], 5000);
    assert_eq!(
        rm.to_json(),
        "{\"schema\":\"kagen-metrics/v2\",\"model\":\"rmat\",\"seed\":42,\"chunks\":3,\"edges\":3003,\
         \"reused_shards\":1,\"reused_edges\":1002,\"wall_us\":5000,\"ranks\":[\
         {\"rank\":0,\"pe_begin\":0,\"pe_end\":1,\"edges\":1000,\"wall_us\":1000,\"attempts\":1,\
         \"counters\":{\"gen.edges\":1000,\"sink.shard_wall_us.count\":2,\"sink.shard_wall_us.sum\":1010},\
         \"histograms\":{\"sink.shard_wall_us\":{\"count\":2,\"sum\":1010,\"buckets\":[\
         {\"bucket\":3,\"count\":1},{\"bucket\":4,\"count\":1}]}}},\
         {\"rank\":1,\"pe_begin\":1,\"pe_end\":2,\"edges\":1001,\"wall_us\":1001,\"attempts\":2,\
         \"counters\":{},\"histograms\":{}}],\
         \"totals\":{\"gen.edges\":1000,\"sink.shard_wall_us.count\":2,\"sink.shard_wall_us.sum\":1010},\
         \"histograms\":{\"sink.shard_wall_us\":{\"count\":2,\"sum\":1010,\"buckets\":[\
         {\"bucket\":3,\"count\":1},{\"bucket\":4,\"count\":1}]}}}"
    );
}

fn ev(name: &str, ts_us: u64, dur_us: u64, tid: u64) -> TraceEvent {
    TraceEvent {
        name: name.to_string(),
        ts_us,
        dur_us,
        tid,
    }
}

#[test]
fn federated_trace_bytes() {
    // Rank 0 was retried (two `rank-0` spans; the flow starts at the
    // later one) and its worker clock started 100 us after the
    // coordinator's; rank 1's started 50 us *before*, so its first
    // event clamps at 0; rank 2 traced nothing.
    let coord = ProcessTrace {
        pid: 8000,
        epoch_unix_us: 5_000_000,
        events: vec![
            ev("launch.supervise", 0, 900, 1),
            ev("rank-0", 10, 40, 2),
            ev("rank-0", 600, 80, 3),
            ev("rank-1", 20, 700, 4),
        ],
    };
    let ranks = vec![
        RankTrace {
            rank: 0,
            pe_begin: 0,
            pe_end: 4,
            trace: ProcessTrace {
                pid: 9001,
                epoch_unix_us: 5_000_100,
                events: vec![
                    ev("worker.generate", 10, 500, 1),
                    ev("shard \"q\"\n", 20, 80, 2),
                ],
            },
        },
        RankTrace {
            rank: 1,
            pe_begin: 4,
            pe_end: 8,
            trace: ProcessTrace {
                pid: 9002,
                epoch_unix_us: 4_999_950,
                events: vec![
                    ev("pipeline.shard", 30, 5, 2),
                    ev("pipeline.shard", 90, 5, 1),
                ],
            },
        },
        RankTrace {
            rank: 2,
            pe_begin: 8,
            pe_end: 9,
            trace: ProcessTrace::default(),
        },
    ];
    assert_eq!(
        federate_with(&coord, &ranks),
        "{\"traceEvents\":[{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":8000,\"tid\":0,\"args\":{\"name\":\"kagen launch (coordinator)\"}},\
         {\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":8000,\"tid\":0,\"args\":{\"sort_index\":0}},\
         {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":9001,\"tid\":0,\"args\":{\"name\":\"rank 0 worker (PEs 0..4)\"}},\
         {\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":9001,\"tid\":0,\"args\":{\"sort_index\":1}},\
         {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":9002,\"tid\":0,\"args\":{\"name\":\"rank 1 worker (PEs 4..8)\"}},\
         {\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":9002,\"tid\":0,\"args\":{\"sort_index\":2}},\
         {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"rank 2 worker (PEs 8..9)\"}},\
         {\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"sort_index\":3}},\
         {\"name\":\"launch.supervise\",\"cat\":\"kagen\",\"ph\":\"X\",\"ts\":0,\"dur\":900,\"pid\":8000,\"tid\":1},\
         {\"name\":\"rank-0\",\"cat\":\"kagen\",\"ph\":\"X\",\"ts\":10,\"dur\":40,\"pid\":8000,\"tid\":2},\
         {\"name\":\"rank-0\",\"cat\":\"kagen\",\"ph\":\"X\",\"ts\":600,\"dur\":80,\"pid\":8000,\"tid\":3},\
         {\"name\":\"rank-1\",\"cat\":\"kagen\",\"ph\":\"X\",\"ts\":20,\"dur\":700,\"pid\":8000,\"tid\":4},\
         {\"name\":\"worker.generate\",\"cat\":\"kagen\",\"ph\":\"X\",\"ts\":110,\"dur\":500,\"pid\":9001,\"tid\":1},\
         {\"name\":\"shard \\\"q\\\"\\n\",\"cat\":\"kagen\",\"ph\":\"X\",\"ts\":120,\"dur\":80,\"pid\":9001,\"tid\":2},\
         {\"name\":\"pipeline.shard\",\"cat\":\"kagen\",\"ph\":\"X\",\"ts\":0,\"dur\":5,\"pid\":9002,\"tid\":2},\
         {\"name\":\"pipeline.shard\",\"cat\":\"kagen\",\"ph\":\"X\",\"ts\":40,\"dur\":5,\"pid\":9002,\"tid\":1},\
         {\"name\":\"rank-0\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":0,\"ts\":600,\"pid\":8000,\"tid\":3},\
         {\"name\":\"rank-0\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"id\":0,\"ts\":110,\"pid\":9001,\"tid\":1},\
         {\"name\":\"rank-1\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":1,\"ts\":20,\"pid\":8000,\"tid\":4},\
         {\"name\":\"rank-1\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"id\":1,\"ts\":0,\"pid\":9002,\"tid\":2}],\"displayTimeUnit\":\"ms\"}"
    );
}

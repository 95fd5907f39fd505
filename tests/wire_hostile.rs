//! Hostile input, one table: each of the eight on-disk documents must
//! round-trip exactly, reject every proper prefix of itself, and answer
//! every single-byte substitution with a value or an `Err` — never a
//! panic, never an allocation sized by a number read from the file.

use kagen_repro::cluster::metrics::{RankMetrics, RunMetrics};
use kagen_repro::cluster::{plan_ranks, Heartbeat, Ledger};
use kagen_repro::obs::{ProcessTrace, Telemetry, TraceEvent};
use kagen_repro::pipeline::{Manifest, PartialManifest, RunHeader, ShardInfo};

fn shard(pe: u64) -> ShardInfo {
    ShardInfo {
        pe,
        file: format!("shard-{pe:05}.kgc"),
        edges: 1000 + pe,
        checksum: u64::MAX - pe,
    }
}

fn header() -> RunHeader {
    RunHeader {
        model: "rmat".into(),
        params: "n=8 \"q\" \\ \t \u{1} é".into(),
        seed: 42,
        n: 1024,
        directed: true,
        chunks: 3,
        format: "compressed".into(),
    }
}

fn telemetry() -> Telemetry {
    Telemetry {
        counters: vec![("gen.edges".into(), 12), ("rng.words".into(), 256)],
    }
}

/// Parse; on success re-serialize, so a round trip is a text comparison.
type Reparse = Box<dyn Fn(&str) -> Result<String, String>>;

/// What the table checks of one document, with the concrete type erased.
struct Doc {
    name: &'static str,
    text: String,
    reparse: Reparse,
}

fn doc<T: 'static>(
    name: &'static str,
    value: &T,
    to_json: fn(&T) -> String,
    from_json: fn(&str) -> Result<T, String>,
) -> Doc {
    Doc {
        name,
        text: to_json(value),
        reparse: Box::new(move |text| from_json(text).map(|v| to_json(&v))),
    }
}

fn documents() -> Vec<Doc> {
    let manifest = header()
        .federate(vec![shard(0), shard(1), shard(2)])
        .unwrap();
    let part = PartialManifest {
        pe_begin: 1,
        pe_end: 3,
        shards: vec![shard(1), shard(2)],
        metrics: None,
        trace: None,
    };
    let mut ledger = Ledger::new(header(), 2, &plan_ranks(3, 2));
    ledger.record_rank_done(0, vec![shard(0)]);
    ledger.record_rank_failed(1);
    let heartbeat = Heartbeat {
        pe_begin: 4,
        pe_end: 8,
        stage: "gen\"erate\\".into(),
        pes_done: 2,
        edges: 123_456,
        seq: 7,
        unix_us: 1_700_000_000_000_000,
    };
    let t = telemetry();
    let rank = RankMetrics {
        rank: 0,
        pe_begin: 0,
        pe_end: 2,
        edges: 2001,
        wall_us: 900,
        attempts: 1,
        counters: t.counters.clone(),
    };
    let run = RunMetrics::federate(&manifest, vec![rank], 5000);
    let trace = ProcessTrace {
        pid: 4242,
        epoch_unix_us: 1_000_000,
        events: vec![TraceEvent {
            name: "worker.generate \"q\"\n".into(),
            ts_us: 5,
            dur_us: 90,
            tid: 1,
        }],
    };
    let report = PartialManifest {
        metrics: Some(t.clone()),
        trace: Some(trace.clone()),
        ..part.clone()
    };
    vec![
        doc(
            "manifest",
            &manifest,
            Manifest::to_json,
            Manifest::from_json,
        ),
        doc(
            "partial manifest",
            &part,
            PartialManifest::to_json,
            PartialManifest::from_json,
        ),
        doc(
            "rank report with telemetry",
            &report,
            PartialManifest::to_json,
            PartialManifest::from_json,
        ),
        doc("ledger", &ledger, Ledger::to_json, Ledger::from_json),
        doc(
            "heartbeat",
            &heartbeat,
            Heartbeat::to_json,
            Heartbeat::from_json,
        ),
        doc(
            "metrics sidecar",
            &t,
            Telemetry::to_json,
            Telemetry::from_json,
        ),
        doc(
            "run metrics",
            &run,
            RunMetrics::to_json,
            RunMetrics::from_json,
        ),
        doc(
            "trace sidecar",
            &trace,
            ProcessTrace::to_json,
            ProcessTrace::from_json,
        ),
    ]
}

#[test]
fn every_document_roundtrips_exactly() {
    for d in documents() {
        assert_eq!(
            (d.reparse)(&d.text).as_deref(),
            Ok(d.text.as_str()),
            "{}",
            d.name
        );
    }
}

#[test]
fn every_proper_prefix_is_an_error() {
    for d in documents() {
        // The pretty layout ends in a newline; cutting only that leaves
        // a complete document, so prefixes stop short of it.
        let body = d.text.trim_end().len();
        for cut in (0..body).filter(|&i| d.text.is_char_boundary(i)) {
            assert!(
                (d.reparse)(&d.text[..cut]).is_err(),
                "{}: prefix of {cut} bytes parsed",
                d.name
            );
        }
    }
}

#[test]
fn single_byte_substitutions_never_panic() {
    // Structural bytes, a digit that inflates every count and range it
    // lands in, a letter, and a raw control byte.
    const SUBSTITUTES: &[u8] = b"{}[]\":,\\9a \x01";
    for d in documents() {
        let (mut tried, mut accepted) = (0usize, 0usize);
        for at in 0..d.text.len() {
            for &b in SUBSTITUTES {
                let mut bytes = d.text.clone().into_bytes();
                if bytes[at] == b {
                    continue;
                }
                bytes[at] = b;
                // Non-UTF-8 never reaches a parser: files are read with
                // `read_to_string`.
                let Ok(mutated) = String::from_utf8(bytes) else {
                    continue;
                };
                tried += 1;
                accepted += (d.reparse)(&mutated).is_ok() as usize;
            }
        }
        // Some substitutions (a digit inside a number, a letter inside a
        // string) are still valid documents; most are not.
        assert!(accepted > 0, "{}: nothing parsed", d.name);
        assert!(
            accepted < tried / 2,
            "{}: {accepted} of {tried} mutants parsed",
            d.name
        );
    }
}

#[test]
fn untrusted_numbers_do_not_size_allocations() {
    // `pe_end` of u64::MAX must come back as an error, not a range
    // materialized to compare against.
    let part = PartialManifest {
        pe_begin: 0,
        pe_end: 1,
        shards: vec![shard(0)],
        metrics: None,
        trace: None,
    };
    let huge = part
        .to_json()
        .replace("\"pe_end\": 1", "\"pe_end\": 18446744073709551615");
    assert!(PartialManifest::from_json(&huge)
        .unwrap_err()
        .contains("covers PEs"));
    // A ledger that claims 2^63 chunks has to list that many entries.
    let ledger = Ledger::new(header(), 2, &plan_ranks(3, 2)).to_json();
    let huge = ledger.replace("\"chunks\": 3", "\"chunks\": 9223372036854775808");
    assert!(Ledger::from_json(&huge)
        .unwrap_err()
        .contains("shard entries"));
}

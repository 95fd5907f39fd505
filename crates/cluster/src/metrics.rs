//! Per-rank telemetry federation: rank reports in, one run-wide
//! `metrics.json` out — the metrics mirror of `RunHeader::federate`.
//!
//! Each worker process snapshots its obs counters into the `metrics`
//! member of its rank report (`part-<a>-<b>.json`); the coordinator
//! collects one [`RankMetrics`] per finished rank (the report's
//! counters, shard edge totals, its own wall-clock and attempt
//! bookkeeping) and [`RunMetrics`] federates them into a single
//! document. The same invariant the manifest federation enforces holds
//! here: on a fresh run the per-rank `edges` sum to the manifest's edge
//! count exactly; on a resume the difference is accounted to
//! `reused_edges` (shards validated and kept from a previous run, which
//! no rank of *this* launch generated).
//!
//! Every value is an unsigned integer (wall time is microseconds):
//! the documents are structs over [`kagen_obs::json`], whose subset has
//! no floats.
//!
//! Durations are not metrics: a rank's wall time is its `wall_us`, and
//! per-shard and per-phase times are the spans of `--trace-out`.

use kagen_obs::json::{self, Layout, Value};
use kagen_obs::metrics::{counters_from, counters_value};
use kagen_pipeline::Manifest;
use std::io;
use std::path::Path;

/// Schema tag of the federated metrics document.
pub const METRICS_SCHEMA: &str = "kagen-metrics/v3";

/// One finished rank's telemetry, as the coordinator saw it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RankMetrics {
    /// Rank id (plan order).
    pub rank: u64,
    /// First PE of the rank's contiguous range.
    pub pe_begin: u64,
    /// One past the rank's last PE.
    pub pe_end: u64,
    /// Edges this rank wrote (sum of its shard infos).
    pub edges: u64,
    /// Wall time of the rank's successful attempt, in microseconds,
    /// measured by the coordinator around the worker run.
    pub wall_us: u64,
    /// Attempts consumed (1 = first try succeeded).
    pub attempts: u64,
    /// Worker-side counter snapshot from the rank report (empty when
    /// the worker ran without telemetry or in the coordinator's process).
    pub counters: Vec<(String, u64)>,
}

/// The federated, run-wide metrics document behind `--metrics-out`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunMetrics {
    /// Generator model name (from the manifest).
    pub model: String,
    /// Instance seed.
    pub seed: u64,
    /// PE count.
    pub chunks: u64,
    /// Total edges in the federated manifest.
    pub edges: u64,
    /// Shards reused from a previous run (resume only).
    pub reused_shards: u64,
    /// Edges inside those reused shards — `edges` minus the sum of the
    /// per-rank totals, so the two accountings always reconcile.
    pub reused_edges: u64,
    /// Coordinator wall time for the whole launch, in microseconds.
    pub wall_us: u64,
    /// One entry per rank that finished in this launch, in rank order.
    pub ranks: Vec<RankMetrics>,
}

impl RunMetrics {
    /// Federate per-rank telemetry against the final manifest.
    ///
    /// `reused_edges` is derived, not measured: whatever the ranks of
    /// this launch did not generate must have come from reused shards.
    pub fn federate(manifest: &Manifest, mut ranks: Vec<RankMetrics>, wall_us: u64) -> RunMetrics {
        ranks.sort_by_key(|r| r.rank);
        let rank_edges: u64 = ranks.iter().map(|r| r.edges).sum();
        RunMetrics {
            model: manifest.model.clone(),
            seed: manifest.seed,
            chunks: manifest.chunks,
            edges: manifest.edges,
            reused_shards: manifest.chunks
                - ranks.iter().map(|r| r.pe_end - r.pe_begin).sum::<u64>(),
            reused_edges: manifest.edges - rank_edges,
            wall_us,
            ranks,
        }
    }

    /// Serialize as compact, integer-only JSON (see the module docs).
    pub fn to_json(&self) -> String {
        let rank = |r: &RankMetrics| {
            json::obj([
                ("rank", Value::from(r.rank)),
                ("pe_begin", r.pe_begin.into()),
                ("pe_end", r.pe_end.into()),
                ("edges", r.edges.into()),
                ("wall_us", r.wall_us.into()),
                ("attempts", r.attempts.into()),
                ("counters", counters_value(&r.counters)),
            ])
        };
        json::obj([
            ("schema", METRICS_SCHEMA.into()),
            ("model", self.model.as_str().into()),
            ("seed", self.seed.into()),
            ("chunks", self.chunks.into()),
            ("edges", self.edges.into()),
            ("reused_shards", self.reused_shards.into()),
            ("reused_edges", self.reused_edges.into()),
            ("wall_us", self.wall_us.into()),
            ("ranks", Value::Arr(self.ranks.iter().map(rank).collect())),
            ("totals", counters_value(&self.totals())),
        ])
        .render(Layout::Compact)
    }

    /// Sum of the per-rank worker counters, merged by name (the
    /// run-wide view of `gen.edges`, `rng.words`, ...).
    pub fn totals(&self) -> Vec<(String, u64)> {
        let mut totals: Vec<(String, u64)> = Vec::new();
        for r in &self.ranks {
            for (name, v) in &r.counters {
                match totals.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
                    Ok(i) => totals[i].1 += v,
                    Err(i) => totals.insert(i, (name.clone(), *v)),
                }
            }
        }
        totals
    }

    /// Write the document to `path`.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Parse a document produced by [`RunMetrics::to_json`] (`totals`
    /// is recomputed from the ranks, not read back).
    pub fn from_json(text: &str) -> Result<RunMetrics, String> {
        let doc = json::parse(text)?;
        let obj = doc.as_obj("metrics")?;
        obj.expect_schema(METRICS_SCHEMA)?;
        let mut ranks = Vec::new();
        for v in obj.arr("ranks")? {
            let r = v.as_obj("rank entry")?;
            ranks.push(RankMetrics {
                rank: r.u64("rank")?,
                pe_begin: r.u64("pe_begin")?,
                pe_end: r.u64("pe_end")?,
                edges: r.u64("edges")?,
                wall_us: r.u64("wall_us")?,
                attempts: r.u64("attempts")?,
                counters: counters_from(r.get("counters")?)?,
            });
        }
        Ok(RunMetrics {
            model: obj.str("model")?.to_string(),
            seed: obj.u64("seed")?,
            chunks: obj.u64("chunks")?,
            edges: obj.u64("edges")?,
            reused_shards: obj.u64("reused_shards")?,
            reused_edges: obj.u64("reused_edges")?,
            wall_us: obj.u64("wall_us")?,
            ranks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kagen_obs::Telemetry;

    fn rank(rank: u64, pe_begin: u64, pe_end: u64, edges: u64) -> RankMetrics {
        RankMetrics {
            rank,
            pe_begin,
            pe_end,
            edges,
            wall_us: 1000 + rank,
            attempts: 1,
            counters: vec![("gen.batches".into(), 2), ("gen.edges".into(), edges)],
        }
    }

    fn manifest(chunks: u64, edges: u64) -> Manifest {
        Manifest {
            model: "gnm_directed".into(),
            params: "n=10 m=100".into(),
            seed: 42,
            n: 10,
            directed: true,
            chunks,
            edges,
            format: "compressed".into(),
            shards: Vec::new(),
        }
    }

    #[test]
    fn fresh_run_rank_edges_sum_to_manifest() {
        let m = manifest(4, 100);
        let rm = RunMetrics::federate(&m, vec![rank(1, 2, 4, 60), rank(0, 0, 2, 40)], 5000);
        assert_eq!(rm.reused_shards, 0);
        assert_eq!(rm.reused_edges, 0);
        assert_eq!(rm.ranks.iter().map(|r| r.edges).sum::<u64>(), rm.edges);
        // Sorted by rank regardless of arrival order.
        assert_eq!(rm.ranks[0].rank, 0);
        let totals = rm.totals();
        assert_eq!(
            totals,
            vec![("gen.batches".into(), 4), ("gen.edges".into(), 100)]
        );
    }

    #[test]
    fn resume_accounts_reused_edges() {
        let m = manifest(4, 100);
        // Only PEs 2..4 were regenerated; 0..2 (40 edges) were reused.
        let rm = RunMetrics::federate(&m, vec![rank(0, 2, 4, 60)], 5000);
        assert_eq!(rm.reused_shards, 2);
        assert_eq!(rm.reused_edges, 40);
        assert_eq!(
            rm.ranks.iter().map(|r| r.edges).sum::<u64>() + rm.reused_edges,
            rm.edges
        );
    }

    #[test]
    fn json_roundtrip() {
        let m = manifest(4, 100);
        let rm = RunMetrics::federate(&m, vec![rank(0, 0, 2, 40), rank(1, 2, 4, 60)], 5000);
        let text = rm.to_json();
        let back = RunMetrics::from_json(&text).unwrap();
        assert_eq!(back, rm);
        assert_eq!(back.totals(), rm.totals());
    }

    #[test]
    fn retired_and_unknown_schemas_are_rejected() {
        let m = manifest(2, 10);
        let text = RunMetrics::federate(&m, vec![rank(0, 0, 2, 10)], 99).to_json();
        assert!(RunMetrics::from_json(&text).is_ok());
        for tag in ["kagen-metrics/v1", "kagen-metrics/v2", "kagen-metrics/v9"] {
            let err = RunMetrics::from_json(&text.replace(METRICS_SCHEMA, tag)).unwrap_err();
            assert!(err.contains("unsupported schema"), "{err}");
        }
    }

    #[test]
    fn rank_counters_must_be_an_object() {
        // `"counters": 7` used to fall through an `if let` and load as
        // an empty list.
        let m = manifest(2, 10);
        let mut bare = rank(0, 0, 2, 10);
        bare.counters.clear();
        let text = RunMetrics::federate(&m, vec![bare], 99).to_json();
        assert!(RunMetrics::from_json(&text).is_ok());
        let bad = text.replacen("\"counters\":{}", "\"counters\":7", 1);
        assert_ne!(bad, text);
        let err = RunMetrics::from_json(&bad).unwrap_err();
        assert!(err.contains("counters is not an object"), "{err}");
    }

    #[test]
    fn sidecar_roundtrip() {
        let side =
            Telemetry::from_json("{\"counters\":{\"gen.edges\":12,\"rng.words\":256}}").unwrap();
        assert_eq!(
            side.counters,
            vec![("gen.edges".into(), 12), ("rng.words".into(), 256)]
        );
        let err = Telemetry::from_json("{\"counters\":7}").unwrap_err();
        assert!(err.contains("counters is not an object"), "{err}");
    }

    #[test]
    fn live_sidecar_write_carries_counters() {
        static C: kagen_obs::Counter = kagen_obs::Counter::new("test.cluster.sidecar_counter");
        kagen_obs::metrics::set_enabled(true);
        C.add(100);
        let side = Telemetry::from_json(&Telemetry::capture().to_json()).unwrap();
        let (_, v) = side
            .counters
            .iter()
            .find(|(n, _)| n == "test.cluster.sidecar_counter")
            .expect("recorded counter must appear in the document");
        assert!(*v >= 100);
    }
}

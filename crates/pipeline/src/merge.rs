//! Bounded-memory external merge of shards into the instance's canonical
//! edge list.
//!
//! The in-RAM path (`kagen_graph::merge_pe_edges`) holds every per-PE
//! edge at once — exactly what the streaming pipeline exists to avoid.
//! This module replaces it with the classic external-memory pattern:
//!
//! 1. **Run formation with shard-level parallel reading** — the shard
//!    list is split into one contiguous group per reader worker; every
//!    worker concurrently streams *its own shards* a verified block at
//!    a time (decode, checksum validation and canonicalization all run
//!    in parallel), buffering at most `budget_edges / workers` edges —
//!    spills trigger at exactly that many edges, however the reader
//!    cut the stream into blocks. Each full local buffer is
//!    canonicalized (undirected edges re-oriented to `(min,max)`),
//!    sorted, locally deduplicated and spilled as sorted *runs* in the
//!    compressed shard codec (sorted runs delta-compress to a few bytes
//!    per edge). With enough threads this is one reader per shard; when
//!    there are fewer shards than threads, the leftover threads sort
//!    each spill as concurrent in-place pieces instead.
//! 2. **K-way merge tree with bounded fan-in** — runs are merged with a
//!    binary heap of one cursor per run (a decoded block and an index;
//!    the heap's top is replaced in place as its run advances), at most
//!    [`DEFAULT_FAN_IN`]
//!    (configurable) runs at a time: while more runs exist than the
//!    fan-in cap, contiguous groups are merged into intermediate runs,
//!    then the surviving runs merge into the sink. Cross-PE duplicates
//!    of undirected edges become adjacent in the merged order and are
//!    dropped on the fly (at every pass — dedup of a sorted stream is
//!    idempotent). The merge stays sequential (it is IO- and
//!    heap-bound); its output leaves through [`EdgeSink::push_batch`]
//!    in batches.
//!
//! Peak memory is `budget_edges` × 16 bytes plus at most `fan_in`
//! decoders (plus one writer during an intermediate pass), independent
//! of the instance's edge count — without the fan-in cap, a large
//! instance under a small budget could open
//! thousands of run files at once and trip the process fd limit, and
//! the per-decoder buffers would silently breach the documented
//! `budget × 16 B` contract. The output equals `generate_undirected` /
//! `generate_directed` edge-for-edge — every pass of the merge tree
//! yields a sorted stream with ties broken by original run order, so
//! run count, thread count and fan-in never change the merged stream.

use crate::reader::ShardReader;
use crate::sink::EdgeSink;
use kagen_graph::io::{CompressedEdgeReader, CompressedEdgeWriter};
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::fs::File;
use std::io::{self, BufReader, BufWriter};
use std::path::{Path, PathBuf};

/// What one reader worker brings back from run formation.
struct ReaderReport {
    /// Spilled run files, in spill order.
    runs: Vec<PathBuf>,
    /// Edges this worker read from its shards.
    edges_in: u64,
    /// High-water mark of the worker's local buffer.
    max_buffered: usize,
}

/// Statistics of one external merge.
#[derive(Clone, Debug, Default)]
pub struct MergeStats {
    /// Sorted runs spilled to disk.
    pub runs: usize,
    /// Edges read from the shards (before dedup).
    pub edges_in: u64,
    /// Edges emitted (after dedup for undirected instances).
    pub edges_out: u64,
    /// High-water mark of the run buffer — never exceeds the budget.
    pub max_buffered: usize,
    /// Intermediate merge-tree passes run before the final merge (0
    /// when every run fits under the fan-in cap at once).
    pub merge_passes: usize,
    /// Most run files open *for reading* simultaneously during the
    /// merge — never exceeds the fan-in cap. (An intermediate pass
    /// additionally holds one output file open while it writes the
    /// merged run.)
    pub max_open_runs: usize,
}

/// Edges read from shards by external merges.
static MERGE_EDGES_IN: kagen_obs::Counter = kagen_obs::Counter::new("merge.edges_in");
/// Edges emitted by external merges (after dedup).
static MERGE_EDGES_OUT: kagen_obs::Counter = kagen_obs::Counter::new("merge.edges_out");
/// Sorted runs spilled to disk across external merges.
static MERGE_RUNS: kagen_obs::Counter = kagen_obs::Counter::new("merge.runs");
/// Intermediate merge-tree passes across external merges.
static MERGE_PASSES: kagen_obs::Counter = kagen_obs::Counter::new("merge.passes");
/// High-water marks: run-buffer edges and simultaneously open runs.
static MERGE_MAX_BUFFERED: kagen_obs::Gauge = kagen_obs::Gauge::new("merge.max_buffered");
static MERGE_MAX_OPEN_RUNS: kagen_obs::Gauge = kagen_obs::Gauge::new("merge.max_open_runs");

impl MergeStats {
    /// Fold this merge's totals into the run-wide obs metrics (called
    /// once per completed merge — telemetry, not accounting).
    fn record_metrics(&self) {
        MERGE_EDGES_IN.add(self.edges_in);
        MERGE_EDGES_OUT.add(self.edges_out);
        MERGE_RUNS.add(self.runs as u64);
        MERGE_PASSES.add(self.merge_passes as u64);
        MERGE_MAX_BUFFERED.record_peak(self.max_buffered as u64);
        MERGE_MAX_OPEN_RUNS.record_peak(self.max_open_runs as u64);
    }
}

/// A sorted batch consumer of the k-way merge (one call per
/// [`OUT_BATCH_EDGES`]-sized slice).
type BatchConsumer<'a> = dyn FnMut(&[(u64, u64)]) -> io::Result<()> + 'a;

/// One run's read cursor during the k-way merge: the decoder's current
/// (verified) block and an index into it.
struct RunCursor {
    dec: CompressedEdgeReader<BufReader<File>>,
    at: usize,
}

impl RunCursor {
    fn open(path: &Path) -> io::Result<RunCursor> {
        let dec = CompressedEdgeReader::new(BufReader::new(File::open(path)?))?;
        Ok(RunCursor { dec, at: 0 })
    }

    fn next(&mut self) -> io::Result<Option<(u64, u64)>> {
        if self.at == self.dec.block().len() {
            self.at = 0;
            if self.dec.next_block()?.is_none() {
                return Ok(None);
            }
        }
        let edge = self.dec.block()[self.at];
        self.at += 1;
        Ok(Some(edge))
    }
}

/// Heap entry: min-heap by edge via reversed `Ord`.
#[derive(Clone, Copy)]
struct HeapEntry {
    edge: (u64, u64),
    run: usize,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.edge == other.edge && self.run == other.run
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse: BinaryHeap is a max-heap, we need the smallest edge.
        other
            .edge
            .cmp(&self.edge)
            .then_with(|| other.run.cmp(&self.run))
    }
}

/// Batch size of the merged output stream (edges per `push_batch`) —
/// the pipeline-wide batching granularity.
const OUT_BATCH_EDGES: usize = kagen_core::streaming::BATCH_EDGES;

/// Default fan-in cap of the k-way merge tree: high enough that a
/// single pass covers every realistic run count (64 runs × a multi-GiB
/// budget slice each), low enough to stay far under any fd soft limit
/// and to keep the decoder working set bounded.
pub const DEFAULT_FAN_IN: usize = 64;

/// Minimum edges per parallel spill piece: below this, sorting is cheaper
/// than thread handoff and extra run files.
const MIN_PIECE_EDGES: usize = 1 << 15;

/// Remove adjacent duplicates from a sorted slice in place; returns the
/// deduplicated length (slice variant of `Vec::dedup`, needed because
/// spill pieces are borrowed sub-slices of the run buffer).
fn dedup_in_place(s: &mut [(u64, u64)]) -> usize {
    if s.is_empty() {
        return 0;
    }
    let mut w = 0;
    for r in 1..s.len() {
        if s[r] != s[w] {
            w += 1;
            s[w] = s[r];
        }
    }
    w + 1
}

/// The external merge driver.
#[derive(Debug)]
pub struct ExternalMerge {
    budget_edges: usize,
    run_dir: PathBuf,
    threads: usize,
    fan_in: usize,
}

impl ExternalMerge {
    /// Merger buffering at most `budget_edges` edges in memory and
    /// spilling sorted runs into `run_dir` (created if missing, run
    /// files removed afterwards).
    pub fn new(run_dir: impl Into<PathBuf>, budget_edges: usize) -> ExternalMerge {
        ExternalMerge {
            budget_edges: budget_edges.max(1),
            run_dir: run_dir.into(),
            threads: 0,
            fan_in: DEFAULT_FAN_IN,
        }
    }

    /// Cap the number of runs merged (and files held open) at once;
    /// more runs than this merge in intermediate passes. Clamped to at
    /// least 2.
    pub fn with_fan_in(mut self, fan_in: usize) -> ExternalMerge {
        self.fan_in = fan_in.max(2);
        self
    }

    /// Bound the reader workers of parallel run formation
    /// (`0` = all cores).
    pub fn with_threads(mut self, threads: usize) -> ExternalMerge {
        self.threads = threads;
        self
    }

    /// The effective thread budget (`0` = all cores).
    fn threads_cap(&self) -> usize {
        if self.threads == 0 {
            // kagen-lint: allow(d2) -- core count changes scheduling only; the merged
            // stream is proven thread-invariant (parallel run-formation determinism tests)
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.threads
        }
    }

    /// Reader worker count: never more workers than threads, shards, or
    /// budgeted edges (every worker must own at least one shard and at
    /// least one buffered edge).
    fn reader_workers(&self, shards: usize) -> usize {
        self.threads_cap().min(shards).min(self.budget_edges).max(1)
    }

    /// Sort, dedup and spill one worker's local buffer as one or more
    /// run files. When the worker has spare thread budget
    /// (`piece_threads > 1`, i.e. fewer shards than cores) and the
    /// buffer is large, it is split into disjoint in-place pieces
    /// sorted, deduplicated and encoded concurrently — no copy, peak
    /// memory stays at the budget. Each piece becomes its own run; the
    /// k-way merge absorbs them at one heap entry each.
    fn spill_local(
        run_dir: &Path,
        worker: usize,
        seq: usize,
        piece_threads: usize,
        buf: &mut Vec<(u64, u64)>,
        undirected: bool,
        runs: &mut Vec<PathBuf>,
    ) -> io::Result<()> {
        if buf.is_empty() {
            return Ok(());
        }
        let pieces = piece_threads
            .min(buf.len().div_ceil(MIN_PIECE_EDGES))
            .max(1);
        let piece_len = buf.len().div_ceil(pieces);
        let jobs: Vec<(PathBuf, &mut [(u64, u64)])> = buf
            .chunks_mut(piece_len)
            .enumerate()
            .map(|(i, piece)| {
                let path = run_dir.join(format!("run-w{worker:03}-{seq:05}-p{i:02}.kgc"));
                (path, piece)
            })
            .collect();
        let results: Vec<io::Result<PathBuf>> = if jobs.len() == 1 {
            jobs.into_iter()
                .map(|(path, piece)| Self::encode_piece(path, piece, undirected))
                .collect()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = jobs
                    .into_iter()
                    .map(|(path, piece)| {
                        scope.spawn(move || Self::encode_piece(path, piece, undirected))
                    })
                    .collect();
                // kagen-lint: allow(r1) -- join fails only when the thread panicked: that bug is re-raised here, not lost
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            })
        };
        for r in results {
            runs.push(r?);
        }
        buf.clear();
        Ok(())
    }

    /// Sort + dedup + varint-encode one in-place piece into `path`.
    fn encode_piece(
        path: PathBuf,
        piece: &mut [(u64, u64)],
        undirected: bool,
    ) -> io::Result<PathBuf> {
        piece.sort_unstable();
        let len = if undirected {
            dedup_in_place(piece)
        } else {
            piece.len()
        };
        let mut enc = CompressedEdgeWriter::new(BufWriter::new(File::create(&path)?), 0)?;
        enc.push_slice(&piece[..len])?;
        enc.finish()?;
        Ok(path)
    }

    /// One reader worker: stream the shards in `shard_range`, buffering
    /// at most `local_budget` edges, spilling sorted runs as the buffer
    /// fills. Checksum validation happens inside `stream_shard`, so the
    /// integrity pass parallelizes along with the decode.
    fn read_and_spill(
        &self,
        reader: &ShardReader,
        worker: usize,
        shard_range: std::ops::Range<usize>,
        local_budget: usize,
        piece_threads: usize,
        undirected: bool,
    ) -> io::Result<ReaderReport> {
        let mut report = ReaderReport {
            runs: Vec::new(),
            edges_in: 0,
            max_buffered: 0,
        };
        let mut buf: Vec<(u64, u64)> = Vec::with_capacity(local_budget);
        let mut spill_err: Option<io::Error> = None;
        let mut seq = 0usize;
        for shard in shard_range {
            let mut on_batch = |mut batch: &[(u64, u64)]| {
                report.edges_in += batch.len() as u64;
                // Fill the buffer to exactly `local_budget` before each
                // spill, so run boundaries do not depend on how the
                // shard reader cut the stream.
                while !batch.is_empty() && spill_err.is_none() {
                    let room = local_budget - buf.len();
                    let (head, tail) = batch.split_at(room.min(batch.len()));
                    if undirected {
                        buf.extend(head.iter().map(|&(u, v)| (u.min(v), u.max(v))));
                    } else {
                        buf.extend_from_slice(head);
                    }
                    batch = tail;
                    report.max_buffered = report.max_buffered.max(buf.len());
                    if buf.len() == local_budget {
                        spill_err = Self::spill_local(
                            &self.run_dir,
                            worker,
                            seq,
                            piece_threads,
                            &mut buf,
                            undirected,
                            &mut report.runs,
                        )
                        .err();
                        seq += 1;
                    }
                }
            };
            reader.stream_shard(shard, &mut on_batch)?;
            if let Some(e) = spill_err.take() {
                return Err(e);
            }
        }
        Self::spill_local(
            &self.run_dir,
            worker,
            seq,
            piece_threads,
            &mut buf,
            undirected,
            &mut report.runs,
        )?;
        Ok(report)
    }

    /// Heap-merge the sorted runs in `paths` (≤ fan-in of them) into
    /// sorted batches of at most [`OUT_BATCH_EDGES`] edges, dropping
    /// adjacent duplicates when `undirected`. Ties between runs resolve
    /// in slice order. Holds exactly `paths.len()` files open.
    fn merge_runs(
        paths: &[PathBuf],
        undirected: bool,
        on_batch: &mut BatchConsumer,
    ) -> io::Result<()> {
        let mut cursors = Vec::with_capacity(paths.len());
        let mut heap = BinaryHeap::with_capacity(paths.len());
        for (run, path) in paths.iter().enumerate() {
            let mut cursor = RunCursor::open(path)?;
            if let Some(edge) = cursor.next()? {
                heap.push(HeapEntry { edge, run });
            }
            cursors.push(cursor);
        }
        let mut last: Option<(u64, u64)> = None;
        let mut batch: Vec<(u64, u64)> = Vec::with_capacity(OUT_BATCH_EDGES);
        // The winner is replaced in place (one sift per edge) and only
        // popped when its run is exhausted.
        while let Some(mut top) = heap.peek_mut() {
            let HeapEntry { edge, run } = *top;
            if !(undirected && last == Some(edge)) {
                batch.push(edge);
                if batch.len() >= OUT_BATCH_EDGES {
                    on_batch(&batch)?;
                    batch.clear();
                }
                last = Some(edge);
            }
            match cursors[run].next()? {
                Some(next) => top.edge = next,
                None => {
                    PeekMut::pop(top);
                }
            }
        }
        if !batch.is_empty() {
            on_batch(&batch)?;
        }
        Ok(())
    }

    /// Merge every shard of `reader` into `out`, deduplicating cross-PE
    /// duplicates when the manifest says the instance is undirected
    /// (directed instances keep multi-edges, matching
    /// `generate_directed`). Edges arrive at `out` in sorted order.
    /// `out.finish()` is left to the caller.
    pub fn merge(&self, reader: &ShardReader, out: &mut dyn EdgeSink) -> io::Result<MergeStats> {
        let undirected = !reader.manifest().directed;
        std::fs::create_dir_all(&self.run_dir)?;
        let mut stats = MergeStats::default();
        let mut runs: Vec<PathBuf> = Vec::new();

        // Phase 1: shard-level parallel reading → sorted runs. The shard
        // list is split into one contiguous group per reader worker and
        // the groups stream concurrently, each within its slice of the
        // edge budget — the budget bounds the *sum* of the local buffers.
        let shard_count = reader.manifest().shards.len();
        if shard_count > 0 {
            let workers = self.reader_workers(shard_count);
            let local_budget = (self.budget_edges / workers).max(1);
            // Threads left over when shards < cores go into sorting:
            // each worker may split its spills into this many pieces.
            let piece_threads = self.threads_cap().div_ceil(workers);
            let groups = kagen_runtime::split_ranges(shard_count, workers);
            let reports: Vec<io::Result<ReaderReport>> = std::thread::scope(|scope| {
                let handles: Vec<_> = groups
                    .into_iter()
                    .enumerate()
                    .map(|(worker, group)| {
                        scope.spawn(move || {
                            self.read_and_spill(
                                reader,
                                worker,
                                group,
                                local_budget,
                                piece_threads,
                                undirected,
                            )
                        })
                    })
                    .collect();
                // kagen-lint: allow(r1) -- join fails only when the thread panicked: that bug is re-raised here, not lost
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for r in reports {
                let report = r?;
                stats.edges_in += report.edges_in;
                stats.max_buffered += report.max_buffered;
                runs.extend(report.runs);
            }
        }
        stats.runs = runs.len();

        // Phase 2: k-way merge tree, at most `fan_in` runs (and open
        // files) per merge. Groups are contiguous and in run order, so
        // ties keep resolving in original run order across passes and
        // the final stream is identical to a single unbounded merge.
        let mut pass = 0usize;
        while runs.len() > self.fan_in {
            let mut next_runs: Vec<PathBuf> = Vec::new();
            for (group_idx, group) in runs.chunks(self.fan_in).enumerate() {
                if let [single] = group {
                    // A remainder group of one is already a sorted,
                    // deduplicated run — pass it through instead of
                    // decoding and re-encoding it unchanged.
                    next_runs.push(single.clone());
                    continue;
                }
                stats.max_open_runs = stats.max_open_runs.max(group.len());
                let path = self
                    .run_dir
                    .join(format!("merge-p{pass:02}-{group_idx:05}.kgc"));
                let mut enc = CompressedEdgeWriter::new(BufWriter::new(File::create(&path)?), 0)?;
                Self::merge_runs(group, undirected, &mut |batch| {
                    enc.push_slice(batch)?;
                    Ok(())
                })?;
                enc.finish()?;
                for p in group {
                    std::fs::remove_file(p).ok();
                }
                next_runs.push(path);
            }
            runs = next_runs;
            pass += 1;
            stats.merge_passes = pass;
        }
        stats.max_open_runs = stats.max_open_runs.max(runs.len());
        Self::merge_runs(&runs, undirected, &mut |batch| {
            out.push_batch(batch);
            stats.edges_out += batch.len() as u64;
            Ok(())
        })?;

        for path in runs {
            std::fs::remove_file(path).ok();
        }
        // Remove the run directory too if it is now empty (it may be a
        // pre-existing directory holding other files — leave those).
        std::fs::remove_dir(&self.run_dir).ok();
        stats.record_metrics();
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::FnSink;
    use crate::writer::{write_sharded, InstanceMeta, ShardFormat, StreamConfig};
    use kagen_core::prelude::*;

    fn run_merge<G: kagen_core::Generator>(
        gen: &G,
        model: &str,
        budget: usize,
        tag: &str,
    ) -> (Vec<(u64, u64)>, MergeStats) {
        let dir = std::env::temp_dir().join(format!("kagen_merge_{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        let meta = InstanceMeta {
            model: model.into(),
            params: String::new(),
            seed: 1,
        };
        write_sharded(
            gen,
            &meta,
            &StreamConfig::new(&dir, ShardFormat::Compressed),
        )
        .unwrap();
        let reader = ShardReader::open(&dir).unwrap();
        let mut edges = Vec::new();
        let mut sink = FnSink::new(|u, v| edges.push((u, v)));
        let stats = ExternalMerge::new(dir.join("runs"), budget)
            .merge(&reader, &mut sink)
            .unwrap();
        sink.finish().unwrap();
        std::fs::remove_dir_all(&dir).ok();
        (edges, stats)
    }

    #[test]
    fn undirected_equals_in_ram_merge() {
        let gen = GnmUndirected::new(250, 2000).with_seed(1).with_chunks(8);
        let expect = generate_undirected(&gen);
        for budget in [64usize, 1000, 1_000_000] {
            let (edges, stats) = run_merge(&gen, "gnm_undirected", budget, &format!("u{budget}"));
            assert_eq!(edges, expect.edges, "budget {budget}");
            assert_eq!(stats.edges_out, expect.edges.len() as u64);
            assert!(stats.max_buffered <= budget, "budget violated");
        }
    }

    #[test]
    fn directed_equals_in_ram_merge() {
        let gen = Rmat::new(8, 3000).with_seed(1).with_chunks(5);
        let expect = generate_directed(&gen);
        let (edges, stats) = run_merge(&gen, "rmat", 100, "d");
        // R-MAT may contain duplicate edges; they must all survive.
        assert_eq!(edges, expect.edges);
        assert_eq!(stats.edges_in, 3000);
    }

    #[test]
    fn tiny_budget_many_runs() {
        let gen = GnmUndirected::new(80, 500).with_seed(9).with_chunks(4);
        let expect = generate_undirected(&gen);
        let (edges, stats) = run_merge(&gen, "gnm_undirected", 16, "tiny");
        assert_eq!(edges, expect.edges);
        assert!(stats.runs > 10, "expected many runs, got {}", stats.runs);
    }

    #[test]
    fn parallel_shard_reading_matches_sequential() {
        // Run formation reads shards in parallel, one contiguous shard
        // group per worker, each with its slice of the budget. The
        // merged stream must be identical for every worker count —
        // including more workers than shards — and to the in-RAM merge.
        let gen = GnmUndirected::new(2000, 120_000)
            .with_seed(4)
            .with_chunks(8);
        let expect = generate_undirected(&gen);
        let dir = std::env::temp_dir().join("kagen_merge_par");
        std::fs::remove_dir_all(&dir).ok();
        let meta = InstanceMeta {
            model: "gnm_undirected".into(),
            params: String::new(),
            seed: 4,
        };
        write_sharded(
            &gen,
            &meta,
            &StreamConfig::new(&dir, ShardFormat::Compressed),
        )
        .unwrap();
        let reader = ShardReader::open(&dir).unwrap();
        let mut run_counts = Vec::new();
        let mut edges_in = Vec::new();
        for threads in [1usize, 4, 8, 16] {
            let mut edges = Vec::new();
            let mut sink = FnSink::new(|u, v| edges.push((u, v)));
            let stats = ExternalMerge::new(dir.join("runs"), 1 << 20)
                .with_threads(threads)
                .merge(&reader, &mut sink)
                .unwrap();
            sink.finish().unwrap();
            assert_eq!(edges, expect.edges, "threads={threads}");
            assert!(
                stats.max_buffered <= 1 << 20,
                "budget violated at threads={threads}"
            );
            run_counts.push(stats.runs);
            edges_in.push(stats.edges_in);
        }
        assert!(
            edges_in.iter().all(|&e| e == edges_in[0]),
            "edge intake must not depend on worker count ({edges_in:?})"
        );
        // One run per reader worker here (the budget slice never fills):
        // 1, 4, 8, and 8 again (workers are capped at the shard count).
        assert_eq!(run_counts, vec![1, 4, 8, 8]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn few_shards_many_threads_still_sort_in_parallel() {
        // 2 shards but 8 threads: reader parallelism is capped at 2, so
        // the spare thread budget must go into piece-parallel sorting —
        // more runs than shards, identical merged output.
        let gen = GnmUndirected::new(3000, 200_000)
            .with_seed(6)
            .with_chunks(2);
        let expect = generate_undirected(&gen);
        let dir = std::env::temp_dir().join("kagen_merge_pieces");
        std::fs::remove_dir_all(&dir).ok();
        let meta = InstanceMeta {
            model: "gnm_undirected".into(),
            params: String::new(),
            seed: 6,
        };
        write_sharded(
            &gen,
            &meta,
            &StreamConfig::new(&dir, ShardFormat::Compressed),
        )
        .unwrap();
        let reader = ShardReader::open(&dir).unwrap();
        let mut edges = Vec::new();
        let mut sink = FnSink::new(|u, v| edges.push((u, v)));
        let stats = ExternalMerge::new(dir.join("runs"), 1 << 20)
            .with_threads(8)
            .merge(&reader, &mut sink)
            .unwrap();
        sink.finish().unwrap();
        assert_eq!(edges, expect.edges);
        assert!(
            stats.runs > 2,
            "piece sorting must produce more runs than shards ({})",
            stats.runs
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fan_in_cap_bounds_open_files_and_preserves_stream() {
        // Force far more runs than the fan-in cap: the merge tree must
        // never hold more than `fan_in` run files open, must take
        // multiple passes, and must emit the identical stream a
        // single-pass (unbounded fan-in) merge produces — for both the
        // deduplicating undirected path and the multi-edge-preserving
        // directed path.
        let budget = 64usize; // tiny budget → one run per ~64 edges
        for (directed, tag) in [(false, "fanu"), (true, "fand")] {
            let dir = std::env::temp_dir().join(format!("kagen_merge_{tag}"));
            std::fs::remove_dir_all(&dir).ok();
            let meta = InstanceMeta {
                model: if directed { "rmat" } else { "gnm_undirected" }.into(),
                params: String::new(),
                seed: 5,
            };
            let manifest = if directed {
                let gen = Rmat::new(10, 20_000).with_seed(5).with_chunks(6);
                write_sharded(
                    &gen,
                    &meta,
                    &StreamConfig::new(&dir, ShardFormat::Compressed),
                )
                .unwrap()
            } else {
                let gen = GnmUndirected::new(2000, 20_000).with_seed(5).with_chunks(6);
                write_sharded(
                    &gen,
                    &meta,
                    &StreamConfig::new(&dir, ShardFormat::Compressed),
                )
                .unwrap()
            };
            assert_eq!(manifest.directed, directed);
            let reader = ShardReader::open(&dir).unwrap();

            let mut single = Vec::new();
            let mut sink = FnSink::new(|u, v| single.push((u, v)));
            let huge = ExternalMerge::new(dir.join("runs"), budget)
                .with_fan_in(usize::MAX)
                .merge(&reader, &mut sink)
                .unwrap();
            sink.finish().unwrap();
            assert!(huge.runs > 100, "want many runs, got {}", huge.runs);
            assert_eq!(huge.merge_passes, 0, "unbounded fan-in needs no passes");

            for fan_in in [4usize, 64] {
                let mut edges = Vec::new();
                let mut sink = FnSink::new(|u, v| edges.push((u, v)));
                let stats = ExternalMerge::new(dir.join("runs"), budget)
                    .with_fan_in(fan_in)
                    .merge(&reader, &mut sink)
                    .unwrap();
                sink.finish().unwrap();
                assert_eq!(edges, single, "{tag}: stream differs at fan_in={fan_in}");
                assert!(
                    stats.max_open_runs <= fan_in,
                    "{tag}: {} files open under cap {fan_in}",
                    stats.max_open_runs
                );
                assert!(
                    stats.merge_passes >= 1,
                    "{tag}: cap {fan_in} over {} runs must need passes",
                    stats.runs
                );
                assert!(stats.max_buffered <= budget, "budget violated");
                assert_eq!(stats.edges_out, single.len() as u64);
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn fan_in_leaves_no_intermediate_files() {
        let gen = GnmUndirected::new(500, 5000).with_seed(2).with_chunks(4);
        let dir = std::env::temp_dir().join("kagen_merge_fanclean");
        std::fs::remove_dir_all(&dir).ok();
        let meta = InstanceMeta {
            model: "gnm_undirected".into(),
            params: String::new(),
            seed: 2,
        };
        write_sharded(
            &gen,
            &meta,
            &StreamConfig::new(&dir, ShardFormat::Compressed),
        )
        .unwrap();
        let reader = ShardReader::open(&dir).unwrap();
        let mut sink = FnSink::new(|_, _| {});
        ExternalMerge::new(dir.join("runs"), 32)
            .with_fan_in(3)
            .merge(&reader, &mut sink)
            .unwrap();
        assert!(
            !dir.join("runs").exists(),
            "run directory (and intermediate merge files) must be cleaned up"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_instance() {
        let gen = GnmUndirected::new(10, 0).with_seed(2).with_chunks(2);
        let (edges, stats) = run_merge(&gen, "gnm_undirected", 100, "empty");
        assert!(edges.is_empty());
        assert_eq!(stats.runs, 0);
        assert_eq!(stats.edges_out, 0);
    }
}

//! Bounded-memory external merge of shards into the instance's canonical
//! edge list.
//!
//! Every PE emits the edges of its own vertex range, so turning shards
//! into the sorted edge list is a *distribution* problem: one partition
//! pass over packed keys ([`crate::keys`]), then a sort per bucket.
//!
//! 1. **Partition.** The shard list is split into one contiguous group
//!    per worker. A worker streams its shards through the verified
//!    reader, re-orients undirected edges to `(min, max)` and packs each
//!    into a key; an endpoint that is not below the manifest's `n` is
//!    `InvalidData`. Keys collect in a chunk; a full chunk is scattered,
//!    as bytes, by the top [`FAN_BITS`] key bits, and each bucket's piece
//!    is kept in memory while the pass has room (half the budget), else
//!    appended to the bucket's file: 8 bytes per edge, 16 for `u128`
//!    keys. An instance within the budget never touches disk, unless one
//!    bucket alone outgrows a sorter's share.
//! 2. **Sort and emit.** Sorter threads take the buckets round-robin in
//!    key order: load (kept pieces, then the file), `sort_unstable`, drop
//!    duplicates when undirected, and hand the keys to the calling thread
//!    over a rendezvous channel; it unpacks them into `out` in bucket
//!    order while the sorters work on the next buckets. A bucket above a
//!    sorter's share is scattered again on its next key bits by the same
//!    routine, and one whose key bits are used up — one key, many times —
//!    is sent as copies of that key, so the budget holds under any skew.
//!    A bucket keeps arrival order: shards that are already sorted and
//!    range-disjoint (directed ER, SBM) reach `sort_unstable` sorted, and
//!    it returns after one scan.
//!
//! **Memory.** Key bytes held never exceed `budget_edges × 16 B`: a
//! quarter for the workers' chunks and their scattered bytes, half for
//! what the pass keeps, and, once the chunks are gone, half for the
//! `sorters + 1` buckets between load and emit; each thread also has a
//! reader block or a 32 KiB read buffer. **Scratch space** is what the
//! pass could not keep, once, plus one bucket while it is scattered
//! again — on only as many key bits as make its parts fit, so a part one
//! hub dominates is rewritten up to once per remaining key bit, `2·bits −
//! 7` times at worst. Always 128 parts measured worse: 2–22× as many
//! files for up to 32 % fewer bytes, 1.05–18× the time (`rhg`, `rmat`,
//! `gnm`; budgets 2^6–2^14). A file's first write truncates and a pass
//! removes all its names: a killed merge's leftovers are never read.
//! **Open files:** a bucket's file is shared by all workers and opened
//! per append, so a thread holds one spill file open at most, and at
//! most [`FAN_OUT`] threads run — whatever `-t` is.
//!
//! The output is the sorted edge (multi)set, which no budget, thread
//! count or tie-break can change.

use crate::keys::{scatter_bytes, Key, FAN_BITS, FAN_OUT};
use crate::reader::ShardReader;
use crate::sink::EdgeSink;
use kagen_obs::json::invalid;
use kagen_obs::trace::span;
use std::fs::File;
use std::io::{self, Read, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Mutex;

/// Most keys a worker collects between scatters: enough that a bucket's
/// piece is kilobytes; more would only be held longer.
const CHUNK_KEYS: usize = 1 << 19;
/// Budget, in keys, below which another thread is not worth its share.
const MIN_THREAD_KEYS: usize = 1 << 10;
/// Keys per read call on a spill file.
const IO_KEYS: usize = 1 << 12;
/// Batch size of the merged output stream (edges per `push_batch`) —
/// the pipeline-wide batching granularity.
const OUT_BATCH_EDGES: usize = kagen_core::streaming::BATCH_EDGES;

/// Statistics of one external merge.
#[derive(Clone, Debug, Default)]
pub struct MergeStats {
    /// Spill files written, over every partition pass (0 when the
    /// instance stayed in memory).
    pub runs: usize,
    /// Edges read from the shards (before dedup).
    pub edges_in: u64,
    /// Edges emitted (after dedup for undirected instances).
    pub edges_out: u64,
    /// High-water mark of key bytes held, in 16-byte edges — never
    /// exceeds the budget.
    pub max_buffered: usize,
    /// Deepest re-partition of an over-capacity bucket (0 when the one
    /// partition pass was enough).
    pub merge_passes: usize,
    /// Bytes written to spill files.
    pub spill_bytes: u64,
}

impl MergeStats {
    /// Fold this merge's totals into the run-wide obs metrics (called
    /// once per completed merge — telemetry, not accounting).
    fn record_metrics(&self) {
        use kagen_obs::{Counter, Gauge};
        static EDGES_IN: Counter = Counter::new("merge.edges_in");
        static EDGES_OUT: Counter = Counter::new("merge.edges_out");
        static RUNS: Counter = Counter::new("merge.runs");
        static SPILL_BYTES: Counter = Counter::new("merge.spill_bytes");
        static PASSES: Counter = Counter::new("merge.passes");
        static MAX_BUFFERED: Gauge = Gauge::new("merge.max_buffered");
        EDGES_IN.add(self.edges_in);
        EDGES_OUT.add(self.edges_out);
        RUNS.add(self.runs as u64);
        SPILL_BYTES.add(self.spill_bytes);
        PASSES.add(self.merge_passes as u64);
        MAX_BUFFERED.record_peak(self.max_buffered as u64);
    }
}

/// What every thread of one merge counts into.
#[derive(Default)]
struct Tally {
    /// Partition passes started: the top one and every re-partition.
    passes: AtomicUsize,
    spill_files: AtomicUsize,
    spill_bytes: AtomicU64,
    depth: AtomicUsize,
    /// Keys held right now, and the most ever held.
    held: AtomicUsize,
    peak: AtomicUsize,
}

impl Tally {
    fn hold(&self, keys: usize) {
        let now = self.held.fetch_add(keys, Relaxed) + keys;
        self.peak.fetch_max(now, Relaxed);
    }

    fn release(&self, keys: usize) {
        self.held.fetch_sub(keys, Relaxed);
    }
}

/// One bucket of a partition pass: `kept` pieces of key bytes in memory,
/// then `on_disk` keys in `file` (removed with the bucket, written or
/// not) — in arrival order when one worker filled it.
#[derive(Default)]
struct Bucket {
    file: PathBuf,
    on_disk: u64,
    kept: Vec<Vec<u8>>,
    /// Keys in all of `kept`.
    in_ram: usize,
}

impl Drop for Bucket {
    fn drop(&mut self) {
        std::fs::remove_file(&self.file).ok();
    }
}

impl Bucket {
    /// Append the bucket's keys to `into`, calling `full` — which must
    /// drain it — whenever it holds `cap` keys.
    fn pour<K: Key>(
        &self,
        into: &mut Vec<K>,
        cap: usize,
        full: &mut dyn FnMut(&mut Vec<K>) -> io::Result<()>,
    ) -> io::Result<()> {
        let mut add = |mut bytes: &[u8]| -> io::Result<()> {
            while !bytes.is_empty() {
                let take = (cap - into.len()).min(bytes.len() / K::BYTES);
                let (head, tail) = bytes.split_at(take * K::BYTES);
                K::extend(into, head);
                if into.len() == cap {
                    full(into)?;
                }
                bytes = tail;
            }
            Ok(())
        };
        self.kept.iter().try_for_each(|piece| add(piece))?;
        if self.on_disk > 0 {
            let mut file = File::open(&self.file)?;
            let mut bytes = vec![0u8; self.on_disk.min(IO_KEYS as u64) as usize * K::BYTES];
            let mut left = self.on_disk;
            while left > 0 {
                let take = left.min(IO_KEYS as u64) as usize;
                file.read_exact(&mut bytes[..take * K::BYTES])?;
                add(&bytes[..take * K::BYTES])?;
                left -= take as u64;
            }
        }
        Ok(())
    }
}

/// One partition pass: [`FAN_OUT`] buckets shared by every thread of the
/// pass, their files `keys-<pass>-<digit>` in the spill directory;
/// dropping the pass removes those names, on the error path too.
struct Spill<'a> {
    shift: u32,
    buckets: Vec<Mutex<Bucket>>,
    /// Keys the pass may still keep in memory.
    room: AtomicUsize,
    tally: &'a Tally,
}

impl<'a> Spill<'a> {
    fn new(dir: &Path, shift: u32, room: usize, tally: &'a Tally) -> Spill<'a> {
        let pass = tally.passes.fetch_add(1, Relaxed);
        let bucket = |d| Bucket {
            file: dir.join(format!("keys-{pass}-{d:03}")),
            on_disk: 0,
            kept: Vec::new(),
            in_ram: 0,
        };
        Spill {
            shift,
            buckets: (0..FAN_OUT).map(|d| Mutex::new(bucket(d))).collect(),
            room: AtomicUsize::new(room),
            tally,
        }
    }

    /// Scatter `chunk` through `bytes` and give each bucket its piece, in
    /// memory while there is room, else appended to its file; `chunk`
    /// comes back empty.
    fn scatter<K: Key>(&self, chunk: &mut Vec<K>, bytes: &mut Vec<u8>) -> io::Result<()> {
        let (ends, tally) = (scatter_bytes(chunk, self.shift, bytes), self.tally);
        chunk.clear();
        for d in 0..FAN_OUT {
            let keys = ends[d + 1] - ends[d];
            let piece = &bytes[ends[d] * K::BYTES..ends[d + 1] * K::BYTES];
            if keys == 0 {
                continue;
            }
            // A poisoned bucket is still whole: it changes only after a write.
            let mut bucket = self.buckets[d].lock().unwrap_or_else(|e| e.into_inner());
            let room = |left: usize| left.checked_sub(keys);
            if self.room.fetch_update(Relaxed, Relaxed, room).is_ok() {
                tally.hold(keys);
                bucket.kept.push(piece.to_vec());
                bucket.in_ram += keys;
                continue;
            }
            // The first write truncates: a killed merge may have left the name behind.
            let mut file = if bucket.on_disk == 0 {
                tally.spill_files.fetch_add(1, Relaxed);
                File::create(&bucket.file)?
            } else {
                File::options().append(true).open(&bucket.file)?
            };
            file.write_all(piece)?;
            bucket.on_disk += keys as u64;
            tally.spill_bytes.fetch_add(piece.len() as u64, Relaxed);
        }
        Ok(())
    }

    /// Hand over bucket `d`.
    fn take(&self, d: usize) -> Bucket {
        std::mem::take(&mut *self.buckets[d].lock().unwrap_or_else(|e| e.into_inner()))
    }
}

/// Removes the (emptied) spill directory when the merge ends, however it
/// ends. A directory that holds other files stays.
struct SpillDir<'a>(&'a Path);

impl Drop for SpillDir<'_> {
    fn drop(&mut self) {
        std::fs::remove_dir(self.0).ok();
    }
}

/// One sorter thread: what it sends is a run of sorted keys, or `None`
/// when its current top-level bucket is complete.
struct Sorter<'a, K> {
    dir: &'a Path,
    /// Most keys this sorter holds at once.
    cap: usize,
    undirected: bool,
    tally: &'a Tally,
    tx: SyncSender<Option<Vec<K>>>,
}

impl<K: Key> Sorter<'_, K> {
    /// Fails only when the emitting thread stopped listening, which it
    /// does after another sorter failed: that error is the merge's.
    fn send(&self, keys: Option<Vec<K>>) -> io::Result<()> {
        let hung_up = |_| io::Error::other("external merge aborted");
        self.tx.send(keys).map_err(hung_up)
    }

    /// Sort `bucket`, which a partition pass at `shift` produced `depth`
    /// re-partitions below the top, and send it on in key order.
    fn sort_bucket(&self, bucket: Bucket, shift: u32, depth: usize) -> io::Result<()> {
        let len = bucket.in_ram + bucket.on_disk as usize;
        if len == 0 {
            return Ok(());
        }
        if len <= self.cap {
            let mut keys = Vec::with_capacity(len);
            self.tally.hold(len);
            bucket.pour(&mut keys, usize::MAX, &mut |_| Ok(()))?;
            self.tally.release(bucket.in_ram);
            drop(bucket);
            keys.sort_unstable();
            if self.undirected {
                keys.dedup();
            }
            return self.send(Some(keys));
        }
        if shift == 0 {
            // Every key bit has been a digit: the bucket is one key.
            let mut first = None;
            bucket.pour(&mut Vec::with_capacity(1), 1, &mut |one| {
                first = first.or(one.pop());
                Ok(())
            })?;
            self.tally.release(bucket.in_ram);
            let mut left = if self.undirected { 1 } else { len };
            while let (Some(key), true) = (first, left > 0) {
                let copies = vec![key; left.min(self.cap)];
                self.tally.hold(copies.len());
                left -= copies.len();
                self.send(Some(copies))?;
            }
            return Ok(());
        }
        // Over capacity: the same scatter on as many of the next key bits
        // as make the parts fit (those above `shift` are equal here), half
        // the sorter's share for the chunk and half for its bytes.
        let parts = len.div_ceil(self.cap).next_power_of_two();
        let sub_shift = shift.saturating_sub(parts.ilog2().min(FAN_BITS));
        let sub = Spill::new(self.dir, sub_shift, 0, self.tally);
        self.tally.depth.fetch_max(depth + 1, Relaxed);
        let half = (self.cap / 2).max(1);
        let (mut chunk, mut bytes) = (Vec::<K>::with_capacity(half), Vec::new());
        self.tally.hold(2 * half);
        bucket.pour(&mut chunk, half, &mut |c| sub.scatter(c, &mut bytes))?;
        sub.scatter(&mut chunk, &mut bytes)?;
        self.tally.release(2 * half + bucket.in_ram);
        drop((chunk, bytes, bucket));
        (0..FAN_OUT).try_for_each(|d| self.sort_bucket(sub.take(d), sub_shift, depth + 1))
    }
}

/// The external merge driver.
#[derive(Debug)]
pub struct ExternalMerge {
    budget_edges: usize,
    run_dir: PathBuf,
    threads: usize,
}

impl ExternalMerge {
    /// Merger holding at most `budget_edges × 16` bytes of keys (and no
    /// less than eight keys: a chunk and its bytes, a sorter's and the
    /// emitter's bucket) and spilling what does not fit into `run_dir`:
    /// created if missing, removed afterwards if its spill files were all.
    pub fn new(run_dir: impl Into<PathBuf>, budget_edges: usize) -> ExternalMerge {
        ExternalMerge {
            budget_edges,
            run_dir: run_dir.into(),
            threads: 0,
        }
    }

    /// Bound the partition workers and the sorter threads (`0` = all
    /// cores; the emitting thread is the caller's).
    pub fn with_threads(mut self, threads: usize) -> ExternalMerge {
        self.threads = threads;
        self
    }

    /// The effective thread budget (`0` = all cores): at most
    /// [`FAN_OUT`], and no more than a budget of `keys` gives
    /// [`MIN_THREAD_KEYS`] each.
    fn threads_for(&self, keys: usize) -> usize {
        // kagen-lint: allow(d2) -- scheduling only: no thread count changes the merged stream
        let cores = || std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = (self.threads == 0).then(cores).unwrap_or(self.threads);
        threads.min(FAN_OUT).min(keys / MIN_THREAD_KEYS).max(1)
    }

    /// Merge every shard of `reader` into `out`, deduplicating cross-PE
    /// duplicates when the manifest says the instance is undirected
    /// (directed instances keep multi-edges, as `generate_directed` does).
    /// Edges arrive at `out` in sorted order, and only after every shard
    /// has been verified. `out.finish()` is left to the caller.
    pub fn merge(&self, reader: &ShardReader, out: &mut dyn EdgeSink) -> io::Result<MergeStats> {
        let n = reader.manifest().n;
        let bits = u64::BITS - n.saturating_sub(1).leading_zeros();
        let stats = if 2 * bits <= u64::BITS {
            self.merge_keys::<u64>(reader, out, bits)?
        } else {
            self.merge_keys::<u128>(reader, out, bits)?
        };
        stats.record_metrics();
        Ok(stats)
    }

    /// [`ExternalMerge::merge`] over keys of type `K`, which hold
    /// `2 · bits` bits.
    fn merge_keys<K: Key>(
        &self,
        reader: &ShardReader,
        out: &mut dyn EdgeSink,
        bits: u32,
    ) -> io::Result<MergeStats> {
        let manifest = reader.manifest();
        // A quarter of the byte budget, in keys.
        let quarter = (self.budget_edges.saturating_mul(4) / K::BYTES).max(2);
        let threads = self.threads_for(2 * quarter);
        let tally = Tally::default();
        std::fs::create_dir_all(&self.run_dir)?;
        let _dir = SpillDir(&self.run_dir);
        let top_shift = (2 * bits).saturating_sub(FAN_BITS);
        let top = Spill::new(&self.run_dir, top_shift, 2 * quarter, &tally);

        // Phase 1: one contiguous shard group per worker; their chunks
        // and scattered bytes share a quarter of the budget.
        let partition = span("stream.merge.partition");
        let limit = (quarter / (2 * threads)).clamp(1, CHUNK_KEYS);
        let edges_in =
            kagen_runtime::run_rank_ranges(manifest.shards.len(), threads, |_, group| {
                Self::partition_shards::<K>(reader, group, limit, &top, bits)
            });
        let edges_in = edges_in.into_iter().sum::<io::Result<u64>>()?;
        drop(partition);

        // Phase 2: sorters take the buckets round-robin and rendezvous
        // with this thread, which emits in bucket order. A sorter holds
        // one bucket and this thread one more.
        let cap = 2 * quarter / (threads + 1);
        let undirected = !manifest.directed;
        let (failed, mut stats) = (Mutex::new(None), MergeStats::default());
        std::thread::scope(|scope| {
            let (top, tally, failed) = (&top, &tally, &failed);
            let inbox: Vec<_> = (0..threads)
                .map(|first| {
                    let (tx, rx) = sync_channel(0);
                    scope.spawn(move || {
                        let _span = span("stream.merge.sort");
                        let sorter = Sorter::<K> {
                            dir: &self.run_dir,
                            cap,
                            undirected,
                            tally,
                            tx,
                        };
                        let sorted = (first..FAN_OUT).step_by(threads).try_for_each(|d| {
                            sorter.sort_bucket(top.take(d), top.shift, 0)?;
                            sorter.send(None)
                        });
                        if let Err(e) = sorted {
                            let mut failed = failed.lock().unwrap_or_else(|e| e.into_inner());
                            failed.get_or_insert(e);
                        }
                    });
                    rx
                })
                .collect();

            let _span = span("stream.merge.emit");
            let mut batch: Vec<(u64, u64)> = Vec::with_capacity(OUT_BATCH_EDGES);
            'buckets: for d in 0..FAN_OUT {
                loop {
                    match inbox[d % threads].recv() {
                        Ok(Some(keys)) => {
                            for piece in keys.chunks(OUT_BATCH_EDGES) {
                                batch.clear();
                                batch.extend(piece.iter().map(|k| k.unpack(bits)));
                                out.push_batch(&batch);
                            }
                            stats.edges_out += keys.len() as u64;
                            tally.release(keys.capacity());
                        }
                        Ok(None) => break,
                        // The sorter failed and left its error in `failed`.
                        Err(_) => break 'buckets,
                    }
                }
            }
        });
        let failed = failed.into_inner().unwrap_or_else(|e| e.into_inner());
        failed.map_or(Ok(()), Err)?;

        stats.edges_in = edges_in;
        stats.runs = tally.spill_files.load(Relaxed);
        stats.spill_bytes = tally.spill_bytes.load(Relaxed);
        stats.merge_passes = tally.depth.load(Relaxed);
        stats.max_buffered = (tally.peak.load(Relaxed) * K::BYTES).div_ceil(16);
        Ok(stats)
    }

    /// One partition worker: stream the shards of `group` into a chunk
    /// of at most `limit` keys, scattering it over `top`'s buckets
    /// whenever it is full; returns the edges read. Checksum validation
    /// happens inside `stream_shard`, so the integrity pass parallelizes
    /// along with the decode.
    fn partition_shards<K: Key>(
        reader: &ShardReader,
        group: Range<usize>,
        limit: usize,
        top: &Spill,
        bits: u32,
    ) -> io::Result<u64> {
        let manifest = reader.manifest();
        let (n, undirected) = (manifest.n, !manifest.directed);
        // The manifest's count is a hint until the shards are verified.
        let mine: u64 = manifest.shards[group.clone()].iter().map(|s| s.edges).sum();
        let limit = limit.min(mine.max(1) as usize);
        let (mut chunk, mut bytes) = (Vec::<K>::with_capacity(limit), Vec::new());
        top.tally.hold(2 * limit);
        let mut edges_in = 0u64;
        for shard in group {
            let mut failed: Option<io::Error> = None;
            reader.stream_shard(shard, &mut |mut batch| {
                edges_in += batch.len() as u64;
                while !batch.is_empty() && failed.is_none() {
                    let (head, tail) = batch.split_at((limit - chunk.len()).min(batch.len()));
                    let mut max_id = 0;
                    chunk.extend(head.iter().map(|&(u, v)| {
                        let (lo, hi) = if undirected && u > v { (v, u) } else { (u, v) };
                        max_id = max_id.max(lo).max(hi);
                        K::pack(lo, hi, bits)
                    }));
                    if max_id >= n {
                        let file = &manifest.shards[shard].file;
                        failed = Some(invalid(format!(
                            "shard {file}: vertex id {max_id} in an instance of {n} vertices"
                        )));
                    } else if chunk.len() == limit {
                        failed = top.scatter(&mut chunk, &mut bytes).err();
                    }
                    batch = tail;
                }
            })?;
            failed.map_or(Ok(()), Err)?;
        }
        top.scatter(&mut chunk, &mut bytes)?;
        top.tally.release(2 * limit);
        Ok(edges_in)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::{RunHeader, ShardInfo};
    use crate::sink::{checksum_step, FnSink};
    use crate::writer::{shard_file_name, write_sharded, InstanceMeta, ShardFormat, StreamConfig};
    use kagen_core::prelude::*;

    /// Write `gen`'s shards into a fresh directory.
    fn sharded<G: kagen_core::Generator>(
        gen: &G,
        model: &str,
        tag: &str,
    ) -> (PathBuf, ShardReader) {
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
        (dir, reader)
    }

    /// Hand-written binary shards over `n` vertices, one per slice.
    fn hand_built(n: u64, directed: bool, shards: &[&[(u64, u64)]], tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("kagen_merge_{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let format = ShardFormat::Binary;
        let infos = shards.iter().enumerate().map(|(pe, edges)| {
            let file = shard_file_name(pe, format);
            let mut sink = format
                .sink(File::create(dir.join(&file)).unwrap(), n)
                .unwrap();
            sink.push_batch(edges);
            sink.finish().unwrap();
            ShardInfo {
                pe: pe as u64,
                file,
                edges: edges.len() as u64,
                checksum: edges
                    .iter()
                    .fold(0, |acc, &(u, v)| checksum_step(acc, u, v)),
            }
        });
        RunHeader {
            model: "hand".into(),
            params: String::new(),
            seed: 1,
            n,
            directed,
            chunks: shards.len() as u64,
            format: format.name().into(),
        }
        .federate(infos.collect())
        .unwrap()
        .save(&dir)
        .unwrap();
        dir
    }

    fn merged(
        dir: &Path,
        reader: &ShardReader,
        budget: usize,
        threads: usize,
    ) -> io::Result<(Vec<(u64, u64)>, MergeStats)> {
        let mut edges = Vec::new();
        let mut sink = FnSink::new(|u, v| edges.push((u, v)));
        let stats = ExternalMerge::new(dir.join("runs"), budget)
            .with_threads(threads)
            .merge(reader, &mut sink)?;
        sink.finish()?;
        assert!(!dir.join("runs").exists(), "spill directory left behind");
        Ok((edges, stats))
    }

    #[test]
    fn undirected_equals_in_ram_merge() {
        let gen = GnmUndirected::new(250, 2000).with_seed(1).with_chunks(8);
        let expect = generate_undirected(&gen);
        let (dir, reader) = sharded(&gen, "gnm_undirected", "u");
        for budget in [64usize, 1000, 1_000_000] {
            let (edges, stats) = merged(&dir, &reader, budget, 0).unwrap();
            assert_eq!(edges, expect.edges, "budget {budget}");
            assert_eq!(stats.edges_out, expect.edges.len() as u64);
            assert!(stats.max_buffered <= budget, "budget violated");
            // An instance within the budget never touches disk.
            assert_eq!(stats.runs == 0, budget == 1_000_000, "budget {budget}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn directed_equals_in_ram_merge() {
        let gen = Rmat::new(8, 3000).with_seed(1).with_chunks(5);
        let expect = generate_directed(&gen);
        let (dir, reader) = sharded(&gen, "rmat", "d");
        let (edges, stats) = merged(&dir, &reader, 100, 0).unwrap();
        // R-MAT may contain duplicate edges; they must all survive.
        assert_eq!(edges, expect.edges);
        assert_eq!(stats.edges_in, 3000);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tiny_budget_many_runs() {
        let gen = GnmUndirected::new(80, 500).with_seed(9).with_chunks(4);
        let expect = generate_undirected(&gen);
        let (dir, reader) = sharded(&gen, "gnm_undirected", "tiny");
        let (edges, stats) = merged(&dir, &reader, 16, 0).unwrap();
        assert_eq!(edges, expect.edges);
        assert!(
            stats.runs > 10,
            "expected many spill files, got {}",
            stats.runs
        );
        assert_eq!(stats.spill_bytes % 8, 0);
        assert!(stats.spill_bytes >= 8 * stats.edges_in);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parallel_shard_reading_matches_sequential() {
        // Workers read one contiguous shard group each, within their
        // share of the budget. The merged stream must be identical for
        // every thread count — including more threads than shards — to
        // the in-RAM merge, spilled or not.
        let gen = GnmUndirected::new(2000, 120_000)
            .with_seed(4)
            .with_chunks(8);
        let expect = generate_undirected(&gen);
        let (dir, reader) = sharded(&gen, "gnm_undirected", "par");
        for budget in [1usize << 20, 1 << 14] {
            let mut spill_bytes = Vec::new();
            for threads in [1usize, 4, 8, 16] {
                let (edges, stats) = merged(&dir, &reader, budget, threads).unwrap();
                assert_eq!(edges, expect.edges, "threads={threads}");
                assert!(
                    stats.max_buffered <= budget,
                    "budget violated at threads={threads}"
                );
                assert_eq!(stats.edges_in, reader.manifest().edges);
                spill_bytes.push(stats.spill_bytes);
            }
            // What the pass has no room to keep (half the byte budget
            // is `budget` 8-byte keys) is spilled once — again where more
            // sorters leave each a share below its buckets — or nothing.
            if budget == 1 << 14 {
                let spilled = 8 * (reader.manifest().edges - budget as u64);
                assert_eq!(spill_bytes[0], spilled);
                let all = 8 * reader.manifest().edges;
                assert!(spill_bytes.iter().all(|&b| b >= spilled && b <= 2 * all));
            } else {
                assert_eq!(spill_bytes, vec![0; 4]);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn few_shards_many_threads_still_sort_in_parallel() {
        // 2 shards but 8 threads: two partition workers, and the buckets
        // they fill go round all 8 sorters.
        let gen = GnmUndirected::new(3000, 200_000)
            .with_seed(6)
            .with_chunks(2);
        let expect = generate_undirected(&gen);
        let (dir, reader) = sharded(&gen, "gnm_undirected", "pieces");
        let (edges, stats) = merged(&dir, &reader, 1 << 16, 8).unwrap();
        assert_eq!(edges, expect.edges);
        assert!(stats.max_buffered <= 1 << 16);
        // Ids below 3000 reach 94 of the 128 top-level buckets.
        assert_eq!(stats.runs, 94, "one spill file per bucket");
        assert_eq!(stats.merge_passes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn skewed_buckets_are_repartitioned_within_the_budget() {
        // Budgets below a bucket: over-capacity buckets are partitioned
        // again on their next key bits, the budget holds at every thread
        // count, and the stream is the in-RAM merge — for the
        // deduplicating undirected path and the multi-edge-preserving
        // directed path. (1 << 10 edges are one thread's worth whatever
        // `-t` says, 1 << 12 four threads', 1 << 14 sixteen.)
        let rmat = Rmat::new(10, 60_000).with_seed(5).with_chunks(6);
        let gnm = GnmUndirected::new(2000, 150_000)
            .with_seed(5)
            .with_chunks(6);
        let cases = [
            (sharded(&rmat, "rmat", "skewd"), generate_directed(&rmat)),
            (
                sharded(&gnm, "gnm_undirected", "skewu"),
                generate_undirected(&gnm),
            ),
        ];
        for ((dir, reader), expect) in cases {
            for (budget, threads) in [
                (1usize << 10, 1usize),
                (1 << 10, 16),
                (1 << 12, 4),
                (1 << 14, 16),
            ] {
                let (edges, stats) = merged(&dir, &reader, budget, threads).unwrap();
                let what = format!("budget {budget}, {threads} threads");
                assert!(edges == expect.edges, "{what}: stream differs");
                assert!(stats.merge_passes >= 1, "{what}: no bucket re-partitioned");
                assert!(
                    stats.max_buffered <= budget,
                    "{what}: {} edges held",
                    stats.max_buffered
                );
                assert_eq!(stats.edges_out, expect.edges.len() as u64);
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn stale_spill_files_are_not_read_back() {
        // What a killed merge left in the spill directory, under the names
        // the top pass and the first re-partitions use: a bucket's first
        // write starts its file over, and the pass removes all its names.
        let gen = GnmUndirected::new(2000, 150_000)
            .with_seed(5)
            .with_chunks(6);
        let expect = generate_undirected(&gen);
        let (dir, reader) = sharded(&gen, "gnm_undirected", "stale");
        for (budget, passes) in [(1usize << 10, 3), (1 << 14, 1)] {
            std::fs::create_dir_all(dir.join("runs")).unwrap();
            for (pass, d) in (0..passes).flat_map(|pass| (0..FAN_OUT).map(move |d| (pass, d))) {
                let stale = dir.join("runs").join(format!("keys-{pass}-{d:03}"));
                std::fs::write(stale, [0xAB; 80]).unwrap();
            }
            let (edges, stats) = merged(&dir, &reader, budget, 1).unwrap();
            assert!(edges == expect.edges, "budget {budget}: stream differs");
            assert_eq!(stats.merge_passes > 0, passes > 1);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn one_key_over_capacity_is_emitted_as_a_count() {
        // 5000 copies of one edge among a few others, budget 16: no
        // number of partition passes can split the copies.
        let mut shard = vec![(3u64, 4u64); 5000];
        shard.extend([(0, 1), (3, 5), (9, 9), (3, 3)]);
        let mut expect = shard.clone();
        expect.sort_unstable();
        let dir = hand_built(10, true, &[&shard[..2000], &shard[2000..]], "repeat");
        let reader = ShardReader::open(&dir).unwrap();
        let (edges, stats) = merged(&dir, &reader, 16, 2).unwrap();
        assert_eq!(edges, expect);
        assert!(stats.max_buffered <= 16);
        // 8 key bits: the second pass uses them up.
        assert_eq!(stats.merge_passes, 1);
        // Undirected, the copies are one edge.
        let dir_u = hand_built(10, false, &[&shard[..2000], &shard[2000..]], "repeat_u");
        let reader = ShardReader::open(&dir_u).unwrap();
        let (edges, _) = merged(&dir_u, &reader, 16, 2).unwrap();
        expect.dedup();
        assert_eq!(edges, expect);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&dir_u).ok();
    }

    #[test]
    fn endpoint_beyond_n_is_invalid_data_naming_the_shard() {
        // Checksum-consistent, so every other reader accepts it; packed
        // into a key it would sort as some other edge.
        let shards: [&[(u64, u64)]; 2] = [&[(0, 1), (5, 99)], &[(7, 2), (5, 100), (1, 1)]];
        for directed in [true, false] {
            let dir = hand_built(100, directed, &shards, "beyond_n");
            let reader = ShardReader::open(&dir).unwrap();
            reader.read_all().unwrap();
            for budget in [2usize, 1000] {
                let err = merged(&dir, &reader, budget, 2).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidData);
                let line = err.to_string();
                assert!(
                    line.contains("shard-00001.bin") && line.contains("100"),
                    "{line}"
                );
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn wide_ids_merge_through_u128_keys() {
        // n = 2^40: 80 key bits. The reference order is the tuple order
        // `generate_directed` / `generate_undirected` sort by.
        let n = 1u64 << 40;
        let (a, b, c) = (n - 1, n / 2 + 12345, 1u64 << 33);
        let shards: [&[(u64, u64)]; 3] = [
            &[(a, 0), (0, a), (c, b), (b, c), (a, a)],
            &[(0, 0), (c, b), (b, b), (5, a)],
            &[(a, 5), (c, c), (0, a)],
        ];
        for directed in [true, false] {
            let mut expect: Vec<(u64, u64)> = shards.concat();
            if !directed {
                expect = expect.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
            }
            expect.sort_unstable();
            if !directed {
                expect.dedup();
            }
            let dir = hand_built(n, directed, &shards, "wide");
            let reader = ShardReader::open(&dir).unwrap();
            for budget in [2usize, 4, 1000] {
                let (edges, stats) = merged(&dir, &reader, budget, 2).unwrap();
                assert_eq!(edges, expect, "directed={directed}, budget {budget}");
                assert_eq!(stats.edges_in, 12);
                assert_eq!(stats.spill_bytes % 16, 0);
                assert_eq!(stats.runs == 0, budget == 1000);
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn sorted_disjoint_shards_cost_no_extra_pass() {
        // Directed ER shards are sorted and range-disjoint; one worker
        // delivers every bucket in order, at any budget.
        let gen = GnmDirected::new(4000, 60_000).with_seed(2).with_chunks(8);
        let expect = generate_directed(&gen);
        let (dir, reader) = sharded(&gen, "gnm_directed", "sorted");
        for budget in [1usize << 12, 1 << 20] {
            let (edges, stats) = merged(&dir, &reader, budget, 1).unwrap();
            assert_eq!(edges, expect.edges);
            assert_eq!(stats.merge_passes, 0);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_instance() {
        let gen = GnmUndirected::new(10, 0).with_seed(2).with_chunks(2);
        let (dir, reader) = sharded(&gen, "gnm_undirected", "empty");
        let (edges, stats) = merged(&dir, &reader, 100, 0).unwrap();
        assert!(edges.is_empty());
        assert_eq!(stats.runs, 0);
        assert_eq!(stats.edges_out, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}

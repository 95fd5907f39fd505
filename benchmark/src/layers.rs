//! The layer pass of a traced run: the product path restated in-process
//! from its public pieces, single-threaded over all PEs so every figure
//! is per core, with a span around each call into a layer.
//!
//! `write_shard` is restated as `stream_pe_batched` → `checksum_step`
//! fold → `CompressedSink`/`BinarySink::push_batch` over `BufWriter`
//! over a timing `Write` wrapper around the `File`; then
//! `RunHeader::federate` + `Manifest::save`, `validate_shard` per shard,
//! for a merge workload `ExternalMerge::merge` into a timing sink, for a
//! launch `Ledger::new`/`record_rank_done`/`save` per planned rank. The
//! pass's manifest and shard sizes must equal the CLI run's, which ties
//! this outside restatement to the product.

use crate::span::{self, SpanRec};
use crate::workloads::{Kind, Workload, MERGED_FILE};
use kagen_cluster::{plan_ranks, Ledger};
use kagen_core::streaming::{StreamingGenerator, BATCH_EDGES};
use kagen_pipeline::{
    checksum_step, shard_file_name, validate_shard, BinarySink, CompressedSink, EdgeSink,
    ExternalMerge, Manifest, MergeStats, ShardFormat, ShardInfo, ShardReader, TextSink,
};
use kagen_util::alloc::CountingAlloc;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Span names. A span's layer is the part before the dot.
pub mod names {
    /// One PE's shard, file creation to sink close. Its self time is
    /// the generator's: everything below is a child.
    pub const SHARD: &str = "pipeline.shard";
    pub const CREATE: &str = "fs.create";
    pub const CHECKSUM: &str = "pipeline.checksum";
    /// `push_batch` and `finish` of the shard sink; the writes it
    /// issues are children, so its self time is encoding alone.
    pub const ENCODE: &str = "graph.encode";
    pub const WRITE: &str = "fs.write";
    pub const MANIFEST: &str = "pipeline.manifest";
    pub const VALIDATE: &str = "pipeline.validate";
    /// `ExternalMerge::merge`; the output sink's calls are children.
    pub const MERGE: &str = "pipeline.merge";
    pub const MERGE_OUT: &str = "pipeline.merge_out";
    pub const LEDGER: &str = "cluster.ledger";
}

/// The default `--merge-budget` of `kagen stream`.
const MERGE_BUDGET_EDGES: usize = 1 << 22;

/// A `File` whose writes are spans.
struct TimedFile {
    file: File,
    pe: Option<usize>,
}

impl Write for TimedFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let _span = span::enter(names::WRITE, self.pe);
        self.file.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }
}

fn format_sink(file: TimedFile, format: ShardFormat, n: u64) -> io::Result<Box<dyn EdgeSink>> {
    let file = BufWriter::new(file);
    Ok(match format {
        ShardFormat::EdgeList => Box::new(TextSink::new(file)),
        ShardFormat::Binary => Box::new(BinarySink::new(file)),
        ShardFormat::Compressed => Box::new(CompressedSink::new(file, n)?),
    })
}

/// A sink whose calls are spans (the merge's output side).
struct TimedSink(Box<dyn EdgeSink>);

impl EdgeSink for TimedSink {
    fn accept(&mut self, u: u64, v: u64) {
        self.push_batch(&[(u, v)]);
    }

    fn push_batch(&mut self, edges: &[(u64, u64)]) {
        let _span = span::enter(names::MERGE_OUT, None);
        self.0.push_batch(edges);
    }

    fn finish(&mut self) -> io::Result<u64> {
        let _span = span::enter(names::MERGE_OUT, None);
        self.0.finish()
    }
}

/// `kagen_pipeline::write_shard`, restated with spans. Returns the
/// manifest entry and the peak heap allocated while the PE streamed.
fn write_shard_traced(
    gen: &dyn StreamingGenerator,
    pe: usize,
    dir: &Path,
    format: ShardFormat,
) -> io::Result<(ShardInfo, u64)> {
    let _shard = span::enter(names::SHARD, Some(pe));
    let file = shard_file_name(pe, format);
    let mut sink = {
        let _span = span::enter(names::CREATE, Some(pe));
        let file = TimedFile {
            file: File::create(dir.join(&file))?,
            pe: Some(pe),
        };
        format_sink(file, format, gen.num_vertices())?
    };
    let mut checksum = 0u64;
    let mut buf = Vec::with_capacity(BATCH_EDGES);
    let baseline = CountingAlloc::reset_peak();
    gen.stream_pe_batched(pe, &mut buf, &mut |edges| {
        {
            let _span = span::enter(names::CHECKSUM, Some(pe));
            for &(u, v) in edges {
                checksum = checksum_step(checksum, u, v);
            }
        }
        let _span = span::enter(names::ENCODE, Some(pe));
        sink.push_batch(edges);
    });
    let peak_alloc = CountingAlloc::peak_above(baseline);
    let edges = {
        let _span = span::enter(names::ENCODE, Some(pe));
        sink.finish()?
    };
    let info = ShardInfo {
        pe: pe as u64,
        file,
        edges,
        checksum,
    };
    Ok((info, peak_alloc))
}

/// What the layer pass produced besides its spans.
#[derive(Debug)]
pub struct LayerPass {
    pub spans: Vec<SpanRec>,
    /// The manifest federated in-process.
    pub manifest: Manifest,
    /// Shard file sizes, in PE order.
    pub shard_sizes: Vec<u64>,
    /// Size of the `manifest.json` the pass saved.
    pub manifest_bytes: u64,
    /// The product's own counters over the pass (`kagen_obs` scalars).
    pub counters: Vec<(String, u64)>,
    /// Largest per-PE peak of heap bytes above the pre-shard baseline
    /// while the PE streamed (generator state, plus the ≤ 0.2 MiB the
    /// sink's block buffer grows to on its first block).
    pub gen_peak_alloc_bytes: u64,
    /// Merge statistics and the merged output's `(edges, checksum)`.
    pub merge: Option<(MergeStats, (u64, u64))>,
    /// Size of the `ledger.json` a launch of this instance keeps.
    pub ledger_bytes: Option<u64>,
}

impl LayerPass {
    /// Read one of the product's counters; 0 when it was never touched.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }
}

/// Run the layer pass of `w` into the empty directory `dir`.
pub fn layer_pass(w: &Workload, seed: u64, p: usize, dir: &Path) -> io::Result<LayerPass> {
    let (gen, meta) = w.build(seed);
    let gen = gen.as_ref();
    let header = meta.header(gen, w.format);
    kagen_obs::metrics::set_enabled(true);
    kagen_obs::metrics::reset();
    span::start_recording();

    let mut shards = Vec::with_capacity(w.chunks);
    let mut gen_peak_alloc_bytes = 0;
    for pe in 0..w.chunks {
        let (info, peak) = write_shard_traced(gen, pe, dir, w.format)?;
        gen_peak_alloc_bytes = gen_peak_alloc_bytes.max(peak);
        shards.push(info);
    }
    let manifest = {
        let _span = span::enter(names::MANIFEST, None);
        let manifest = header.clone().federate(shards).map_err(io::Error::other)?;
        manifest.save(dir)?;
        manifest
    };
    for shard in &manifest.shards {
        let _span = span::enter(names::VALIDATE, Some(shard.pe as usize));
        validate_shard(dir, w.format, shard)?;
    }

    let ledger_bytes = match w.kind {
        Kind::Launch => {
            let _span = span::enter(names::LEDGER, None);
            let tasks = plan_ranks(w.chunks, p);
            let mut ledger = Ledger::new(header, p, &tasks);
            ledger.save(dir)?;
            for task in &tasks {
                ledger.record_rank_done(task.rank, manifest.shards[task.pes()].to_vec());
                ledger.save(dir)?;
            }
            Some(std::fs::metadata(dir.join(kagen_cluster::LEDGER_FILE))?.len())
        }
        _ => None,
    };

    let merge = match w.kind {
        Kind::Merge => {
            let merged = dir.join(MERGED_FILE);
            let stats = {
                let _span = span::enter(names::MERGE, None);
                let reader = ShardReader::open(dir)?;
                let file = TimedFile {
                    file: File::create(&merged)?,
                    pe: None,
                };
                let mut sink = TimedSink(format_sink(file, w.format, manifest.n)?);
                let stats = ExternalMerge::new(dir.join("runs"), MERGE_BUDGET_EDGES)
                    .with_threads(1)
                    .merge(&reader, &mut sink)?;
                sink.finish()?;
                stats
            };
            let digest = crate::checks::merged_digest(&merged).map_err(io::Error::other)?;
            Some((stats, digest))
        }
        _ => None,
    };

    let spans = span::take_spans();
    let counters = kagen_obs::metrics::scalars();
    kagen_obs::metrics::set_enabled(false);
    let mut shard_sizes = Vec::with_capacity(manifest.shards.len());
    for shard in &manifest.shards {
        shard_sizes.push(std::fs::metadata(dir.join(&shard.file))?.len());
    }
    Ok(LayerPass {
        spans,
        shard_sizes,
        manifest_bytes: std::fs::metadata(dir.join(kagen_pipeline::MANIFEST_FILE))?.len(),
        manifest,
        counters,
        gen_peak_alloc_bytes,
        merge,
        ledger_bytes,
    })
}

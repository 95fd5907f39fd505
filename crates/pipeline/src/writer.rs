//! The sharded parallel writer: run every PE of a [`Generator`]
//! on the `kagen-runtime` thread pool and stream each PE's edges straight
//! into its own shard file — one shard per PE, a `manifest.json` tying
//! them together, and peak memory per worker equal to the generator's
//! state (no edge vector exists anywhere on this path).

use crate::manifest::{Manifest, RunHeader, ShardInfo};
use crate::sink::{EdgeSink, FileSink};
use kagen_core::streaming::BatchEmit;
use kagen_core::Generator;
use kagen_graph::io::{
    decode_binary, decode_compressed, decode_text, BinaryEncoder, CompressedEdgeWriter,
    EdgeEncoder, TextEncoder,
};
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

/// On-disk shard encoding, and the one table of what each encoding is:
/// its names, and which codec of `kagen_graph::io` writes and reads it.
/// A new shard format is a variant here, a row in each `match` below,
/// and its encoder/decoder pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardFormat {
    /// `u v` text lines.
    EdgeList,
    /// Raw little-endian `u64` pairs.
    Binary,
    /// Varint+delta compressed (`KGSHRD02`).
    Compressed,
}

impl ShardFormat {
    /// Parse a CLI/manifest format name.
    pub fn parse(name: &str) -> Option<ShardFormat> {
        match name {
            "edge-list" => Some(ShardFormat::EdgeList),
            "binary" => Some(ShardFormat::Binary),
            "compressed" => Some(ShardFormat::Compressed),
            _ => None,
        }
    }

    /// Canonical name (manifest `format` field).
    pub fn name(&self) -> &'static str {
        match self {
            ShardFormat::EdgeList => "edge-list",
            ShardFormat::Binary => "binary",
            ShardFormat::Compressed => "compressed",
        }
    }

    /// Shard file extension.
    pub fn extension(&self) -> &'static str {
        match self {
            ShardFormat::EdgeList => "txt",
            ShardFormat::Binary => "bin",
            ShardFormat::Compressed => "kgc",
        }
    }

    /// Open a sink writing this format over `n` vertices to `w` (wrap
    /// files in a `BufWriter`).
    pub fn sink<'w, W: Write + 'w>(self, w: W, n: u64) -> io::Result<ShardSink<'w>> {
        let enc: Box<dyn EdgeEncoder + 'w> = match self {
            ShardFormat::EdgeList => Box::new(TextEncoder::new(w)),
            ShardFormat::Binary => Box::new(BinaryEncoder::new(w)),
            ShardFormat::Compressed => Box::new(CompressedEdgeWriter::new(w, n)?),
        };
        Ok(FileSink::over(enc))
    }

    /// Stream the file at `path` through `emit` as verified slices of
    /// at most one restart block's worth of edges
    /// ([`kagen_graph::io::COMPRESSED_BLOCK_EDGES`]), and return the
    /// stream's checksum ([`crate::checksum_step`] from 0), folded by
    /// the decoder as it decodes.
    pub fn stream_file(self, path: &Path, emit: &mut BatchEmit) -> io::Result<u64> {
        let file = File::open(path)?;
        match self {
            ShardFormat::EdgeList => decode_text(BufReader::new(file), emit),
            ShardFormat::Binary => decode_binary(file, emit),
            ShardFormat::Compressed => decode_compressed(BufReader::new(file), emit),
        }
    }
}

/// The sink [`ShardFormat::sink`] opens: the file sink over whichever
/// format's encoder.
pub type ShardSink<'w> = FileSink<Box<dyn EdgeEncoder + 'w>>;

/// File name of PE `pe`'s shard.
pub fn shard_file_name(pe: usize, format: ShardFormat) -> String {
    format!("shard-{pe:05}.{}", format.extension())
}

/// Configuration of a sharded streaming run.
#[derive(Clone, Debug)]
pub struct StreamConfig {
    /// Output directory (created if missing).
    pub dir: PathBuf,
    /// Shard encoding.
    pub format: ShardFormat,
    /// Worker threads (0 = all cores).
    pub threads: usize,
}

impl StreamConfig {
    /// Config writing `format` shards into `dir` with default threads.
    pub fn new(dir: impl Into<PathBuf>, format: ShardFormat) -> Self {
        StreamConfig {
            dir: dir.into(),
            format,
            threads: 0,
        }
    }

    /// Set the worker thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// Descriptive metadata the manifest records about the instance.
#[derive(Clone, Debug)]
pub struct InstanceMeta {
    /// Model name.
    pub model: String,
    /// Human-readable parameter string.
    pub params: String,
    /// Instance seed.
    pub seed: u64,
}

impl InstanceMeta {
    /// The run-identity header for `gen` written as `format` shards —
    /// the fields every flavor of manifest (and the cluster ledger)
    /// agree on.
    pub fn header<G: Generator + ?Sized>(&self, gen: &G, format: ShardFormat) -> RunHeader {
        RunHeader {
            model: self.model.clone(),
            params: self.params.clone(),
            seed: self.seed,
            n: gen.num_vertices(),
            directed: gen.directed(),
            chunks: gen.num_chunks() as u64,
            format: format.name().to_string(),
        }
    }
}

/// Stream one PE into a shard file; returns its manifest entry.
///
/// Runs on the batched path: the generator fills a worker-local batch
/// buffer ([`kagen_core::streaming::BATCH_EDGES`] edges) and the sink
/// consumes whole slices, one virtual call per batch. The encoder folds
/// the manifest checksum in its encode loop, so each edge is walked
/// once.
pub fn write_shard<G: Generator + ?Sized>(
    gen: &G,
    pe: usize,
    dir: &Path,
    format: ShardFormat,
) -> io::Result<ShardInfo> {
    let shard_span = kagen_obs::span("pipeline.write_shard");
    let file = shard_file_name(pe, format);
    let out = BufWriter::new(File::create(dir.join(&file))?);
    let mut sink = format.sink(out, gen.num_vertices())?;
    let mut buf = Vec::with_capacity(kagen_core::streaming::BATCH_EDGES);
    gen.stream_pe_batched(pe, &mut buf, &mut |edges| sink.push_batch(edges));
    let edges = sink.finish()?;
    let checksum = sink.checksum();
    drop(shard_span);
    Ok(ShardInfo {
        pe: pe as u64,
        file,
        edges,
        checksum,
    })
}

/// Generate the whole instance as one shard file per PE, in parallel,
/// and write the manifest. Per-worker memory is the generator state plus
/// one write buffer; it does not grow with the edge count.
///
/// Shard bytes are a pure function of `(generator, pe, format)` — the
/// thread count changes neither content nor file boundaries.
pub fn write_sharded<G: Generator + ?Sized>(
    gen: &G,
    meta: &InstanceMeta,
    cfg: &StreamConfig,
) -> io::Result<Manifest> {
    std::fs::create_dir_all(&cfg.dir)?;
    let results: Vec<io::Result<ShardInfo>> =
        kagen_runtime::run_chunks(gen.num_chunks(), cfg.threads, |pe| {
            write_shard(gen, pe, &cfg.dir, cfg.format)
        });
    let mut shards = Vec::with_capacity(results.len());
    for r in results {
        shards.push(r?);
    }
    // Same constructor the multi-process coordinator uses — the two
    // paths cannot drift apart structurally.
    let manifest = meta
        .header(gen, cfg.format)
        .federate(shards)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    manifest.save(&cfg.dir)?;
    Ok(manifest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kagen_core::prelude::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("kagen_writer_{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn writes_one_shard_per_pe_plus_manifest() {
        let gen = GnmDirected::new(200, 1500).with_seed(3).with_chunks(4);
        let dir = tmp_dir("shards");
        let meta = InstanceMeta {
            model: "gnm_directed".into(),
            params: "n=200 m=1500".into(),
            seed: 3,
        };
        let cfg = StreamConfig::new(&dir, ShardFormat::Compressed);
        let manifest = write_sharded(&gen, &meta, &cfg).unwrap();
        assert_eq!(manifest.chunks, 4);
        assert_eq!(manifest.edges, 1500);
        assert_eq!(manifest.shards.len(), 4);
        for s in &manifest.shards {
            assert!(dir.join(&s.file).exists(), "missing {}", s.file);
        }
        assert!(dir.join("manifest.json").exists());
        let loaded = Manifest::load(&dir).unwrap();
        assert_eq!(loaded, manifest);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn thread_count_never_changes_shard_bytes() {
        let gen = GnmUndirected::new(300, 2500).with_seed(7).with_chunks(6);
        let meta = InstanceMeta {
            model: "gnm_undirected".into(),
            params: String::new(),
            seed: 7,
        };
        let d1 = tmp_dir("t1");
        let dn = tmp_dir("tn");
        for format in [
            ShardFormat::EdgeList,
            ShardFormat::Binary,
            ShardFormat::Compressed,
        ] {
            let m1 = write_sharded(&gen, &meta, &StreamConfig::new(&d1, format).with_threads(1))
                .unwrap();
            let mn = write_sharded(&gen, &meta, &StreamConfig::new(&dn, format).with_threads(8))
                .unwrap();
            assert_eq!(m1, mn);
            for s in &m1.shards {
                let a = std::fs::read(d1.join(&s.file)).unwrap();
                let b = std::fs::read(dn.join(&s.file)).unwrap();
                assert_eq!(a, b, "{:?} shard {} differs by thread count", format, s.pe);
            }
        }
        std::fs::remove_dir_all(&d1).ok();
        std::fs::remove_dir_all(&dn).ok();
    }

    #[test]
    fn format_names_roundtrip() {
        for f in [
            ShardFormat::EdgeList,
            ShardFormat::Binary,
            ShardFormat::Compressed,
        ] {
            assert_eq!(ShardFormat::parse(f.name()), Some(f));
        }
        assert_eq!(ShardFormat::parse("nonsense"), None);
    }
}

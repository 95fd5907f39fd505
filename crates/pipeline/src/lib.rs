//! # kagen-pipeline
//!
//! Bounded-memory streaming output for the communication-free generators
//! — the §9 future-work direction ("extend our remaining generators to
//! use a streaming approach") turned into a production output path.
//!
//! The seed crates could already *generate* edges as a stream
//! ([`Generator::stream_pe_batched`]), but every consumer
//! materialized a full edge vector, capping instance size at RAM. This
//! crate keeps the whole path at generator-state memory:
//!
//! * [`sink`] — the [`EdgeSink`] trait plus composable sinks: counting,
//!   checksumming, degree statistics, tees and closure adapters, and the
//!   one file sink ([`FileSink`]): an error-latching adapter over the
//!   text / binary / compressed encoders of `kagen_graph::io`, where
//!   each on-disk format is encoded and decoded in one place.
//! * [`writer`] — [`ShardFormat`], the one table from a format name to
//!   its file extension, its sink ([`ShardFormat::sink`]) and its
//!   verified block reader ([`ShardFormat::stream_file`]); and the
//!   sharded parallel writer: one shard file per PE,
//!   written concurrently on the `kagen-runtime` pool, plus a
//!   `manifest.json` recording model, params, seed, per-shard edge counts
//!   and checksums. Shard bytes are independent of the thread count.
//!   [`write_shard`] is the single-PE building block the multi-process
//!   cluster workers reuse.
//! * [`reader`] — stream shards back a verified block at a time
//!   ([`stream_shard_file`], the read-side mirror of
//!   [`EdgeSink::push_batch`]; validating the checksums),
//!   [`validate_shard`] against recorded info (the resume-time integrity
//!   check), or reassemble an [`EdgeList`](kagen_graph::EdgeList).
//! * [`manifest`] — manifest (de)serialization, plus the multi-process
//!   pieces: [`PartialManifest`] (one worker's slice) and
//!   [`RunHeader::federate`] (parts → final manifest, identical to the
//!   single-process constructor).
//! * [`merge`] — bounded-memory external merge: shard-level parallel
//!   reading scatters packed edge keys into buckets, a sort per bucket
//!   reproduces `generate_undirected` / `generate_directed` exactly,
//!   with peak memory set by an explicit edge budget instead of the
//!   instance size.
//!
//! ## Quickstart
//!
//! ```
//! use kagen_core::prelude::*;
//! use kagen_pipeline::{stream_into, CountingSink};
//!
//! // Drive a generator into a sink without materializing edges.
//! let gen = GnmDirected::new(1000, 5000).with_seed(42).with_chunks(8);
//! let mut sink = CountingSink::new();
//! let edges = stream_into(&gen, &mut sink).unwrap();
//! assert_eq!(edges, 5000);
//! ```
//!
//! Sharded write → merge round trip:
//!
//! ```
//! use kagen_core::prelude::*;
//! use kagen_pipeline::{
//!     external_merge_to_vec, write_sharded, InstanceMeta, ShardFormat,
//!     ShardReader, StreamConfig,
//! };
//!
//! let gen = GnmUndirected::new(300, 2000).with_seed(7).with_chunks(4);
//! let dir = std::env::temp_dir().join("kagen_pipeline_doc");
//! let meta = InstanceMeta {
//!     model: "gnm_undirected".into(),
//!     params: "n=300 m=2000".into(),
//!     seed: 7,
//! };
//! write_sharded(&gen, &meta, &StreamConfig::new(&dir, ShardFormat::Compressed)).unwrap();
//!
//! let reader = ShardReader::open(&dir).unwrap();
//! let (edges, _stats) = external_merge_to_vec(&reader, &dir.join("runs"), 1 << 16).unwrap();
//! assert_eq!(edges, generate_undirected(&gen).edges);
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

mod keys;
pub mod manifest;
pub mod merge;
pub mod reader;
pub mod sink;
pub mod writer;

pub use kagen_graph::io::COMPRESSED_BLOCK_EDGES;
pub use manifest::{Manifest, PartialManifest, RunHeader, ShardInfo, MANIFEST_FILE};
pub use merge::{ExternalMerge, MergeStats};
pub use reader::{stream_shard_file, validate_shard, validate_shard_sampled, ShardReader};
pub use sink::{
    checksum_step, BinarySink, ChecksumSink, CompressedSink, CountingSink, DegreeStatsSink,
    EdgeSink, FileSink, FnSink, TeeSink, TextSink,
};
pub use writer::{
    shard_file_name, write_shard, write_sharded, InstanceMeta, ShardFormat, ShardSink, StreamConfig,
};

use kagen_core::Generator;
use std::io;

/// Drive every PE of `gen` sequentially into `sink` and finish it.
/// Returns the edge count. This is the single-consumer driver; for
/// parallel per-PE output use [`write_sharded`].
pub fn stream_into<G: Generator + ?Sized, S: EdgeSink>(gen: &G, sink: &mut S) -> io::Result<u64> {
    gen.stream_all_batched(&mut Vec::new(), &mut |edges| sink.push_batch(edges));
    sink.finish()
}

/// Convenience wrapper around [`ExternalMerge`]: merge a shard directory
/// into a sorted, canonical edge vector (tests and small instances).
pub fn external_merge_to_vec(
    reader: &ShardReader,
    run_dir: &std::path::Path,
    budget_edges: usize,
) -> io::Result<(Vec<(u64, u64)>, MergeStats)> {
    let mut edges = Vec::new();
    let stats = {
        let mut sink = FnSink::new(|u, v| edges.push((u, v)));
        let stats = ExternalMerge::new(run_dir, budget_edges).merge(reader, &mut sink)?;
        sink.finish()?;
        stats
    };
    Ok((edges, stats))
}

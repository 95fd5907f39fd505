//! Streaming pipeline: generate a graph **larger than you would want in
//! RAM** straight to sharded files, then merge it into canonical form —
//! all with bounded memory.
//!
//! ```text
//! cargo run --release --example streaming_pipeline
//! ```
//!
//! The §9 future-work scenario of the paper: every PE streams its edges
//! through an `EdgeSink` into its own compressed shard; the only
//! per-worker memory is the generator state and a write buffer. The
//! external merge then rebuilds the exact `generate_undirected` instance
//! using a fixed edge budget of RAM (one partition pass over packed keys
//! + a sort per bucket), never the whole edge list.

use kagen_repro::core::prelude::*;
use kagen_repro::pipeline::{
    external_merge_to_vec, stream_into, write_sharded, CountingSink, DegreeStatsSink, InstanceMeta,
    ShardFormat, ShardReader, StreamConfig, TeeSink,
};

fn main() {
    let dir = std::env::temp_dir().join("kagen_streaming_example");
    std::fs::remove_dir_all(&dir).ok();

    // An R-MAT instance with 2^22 edges: ~67 MB as raw pairs, but the
    // streaming path never holds more than one PE's generator state.
    let rmat = Rmat::new(18, 1 << 22).with_seed(42).with_chunks(64);
    let meta = InstanceMeta {
        model: "rmat".into(),
        params: format!("scale=18 m={}", 1u64 << 22),
        seed: 42,
    };
    let started = std::time::Instant::now();
    let manifest = write_sharded(
        &rmat,
        &meta,
        &StreamConfig::new(&dir, ShardFormat::Compressed),
    )
    .expect("shard write failed");
    let shard_bytes: u64 = manifest
        .shards
        .iter()
        .map(|s| {
            std::fs::metadata(dir.join(&s.file))
                .map(|m| m.len())
                .unwrap_or(0)
        })
        .sum();
    println!(
        "wrote {} shards / {} edges in {:.2}s — {:.1} MB compressed ({:.1} bytes/edge vs 16 raw)",
        manifest.chunks,
        manifest.edges,
        started.elapsed().as_secs_f64(),
        shard_bytes as f64 / 1e6,
        shard_bytes as f64 / manifest.edges as f64,
    );

    // Stream the shards back a block at a time, validating checksums.
    let reader = ShardReader::open(&dir).expect("cannot open shards");
    let mut histogram = [0u64; 8];
    reader
        .stream(&mut |batch| {
            // Bucket sources by their top 3 bits: R-MAT skew at a glance.
            for &(u, _v) in batch {
                histogram[(u >> 15) as usize] += 1;
            }
        })
        .expect("stream-back failed");
    println!("source-vertex octant masses (R-MAT skew): {histogram:?}");

    // Degree statistics without materializing: tee counting + degrees.
    let mut sinks = TeeSink::new(
        CountingSink::new(),
        DegreeStatsSink::new(rmat.num_vertices(), true),
    );
    stream_into(&rmat, &mut sinks).expect("stream failed");
    let (out_deg, in_deg) = sinks.b.stats();
    println!(
        "streamed degree stats: out max {}, in max {}, mean {:.2}",
        out_deg.max,
        in_deg.expect("directed").max,
        out_deg.mean,
    );

    // Bounded-memory canonical merge of an undirected instance.
    let rgg = Rgg2d::new(50_000, 0.004).with_seed(7).with_chunks(32);
    let rgg_dir = std::env::temp_dir().join("kagen_streaming_example_rgg");
    std::fs::remove_dir_all(&rgg_dir).ok();
    write_sharded(
        &rgg,
        &InstanceMeta {
            model: "rgg2d".into(),
            params: "n=50000 r=0.004".into(),
            seed: 7,
        },
        &StreamConfig::new(&rgg_dir, ShardFormat::Compressed),
    )
    .expect("shard write failed");
    let reader = ShardReader::open(&rgg_dir).expect("cannot open shards");
    let budget = 1 << 16;
    let (edges, stats) =
        external_merge_to_vec(&reader, &rgg_dir.join("runs"), budget).expect("merge failed");
    println!(
        "external merge: {} raw -> {} canonical edges via {} runs (peak buffer {} ≤ budget {})",
        stats.edges_in, stats.edges_out, stats.runs, stats.max_buffered, budget,
    );
    assert_eq!(edges.len() as u64, stats.edges_out);

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&rgg_dir).ok();
}

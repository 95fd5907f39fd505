//! End-to-end coverage of the `kagen-pipeline` subsystem: shard
//! write→read round trips for every format, external merge equivalence
//! with the in-RAM merge paths, determinism under threading, and the
//! acceptance property that shards reassemble to exactly the instance
//! `generate_directed` / `generate_undirected` defines.

use kagen_repro::core::prelude::*;
use kagen_repro::core::Generator;
use kagen_repro::pipeline::{
    external_merge_to_vec, stream_into, write_sharded, CountingSink, DegreeStatsSink, InstanceMeta,
    Manifest, ShardFormat, ShardReader, StreamConfig, TeeSink,
};
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kagen_it_{tag}"));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn meta(model: &str, seed: u64) -> InstanceMeta {
    InstanceMeta {
        model: model.into(),
        params: String::new(),
        seed,
    }
}

/// Shard round trip for one format: on-disk bytes decode to exactly the
/// per-PE stream order, for a directed and an undirected model.
fn roundtrip_format(format: ShardFormat) {
    let tag = format!("rt_{}", format.extension());

    let directed = Rmat::new(9, 4000).with_seed(3).with_chunks(8);
    let dir = tmp_dir(&tag);
    let manifest = write_sharded(
        &directed,
        &meta("rmat", 3),
        &StreamConfig::new(&dir, format),
    )
    .unwrap();
    assert_eq!(manifest.format, format.name());
    let reader = ShardReader::open(&dir).unwrap();
    let back = reader.read_all().unwrap();
    let mut expect = Vec::new();
    directed.stream_all_batched(&mut Vec::new(), &mut |e| expect.extend_from_slice(e));
    assert_eq!(back.edges, expect, "{tag}: directed stream order");
    std::fs::remove_dir_all(&dir).ok();

    let undirected = GnmUndirected::new(400, 3000).with_seed(5).with_chunks(7);
    let dir = tmp_dir(&format!("{tag}_u"));
    write_sharded(
        &undirected,
        &meta("gnm_undirected", 5),
        &StreamConfig::new(&dir, format),
    )
    .unwrap();
    let reader = ShardReader::open(&dir).unwrap();
    let back = reader.read_all().unwrap();
    let mut expect = Vec::new();
    undirected.stream_all_batched(&mut Vec::new(), &mut |e| expect.extend_from_slice(e));
    assert_eq!(back.edges, expect, "{tag}: undirected stream order");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shard_roundtrip_edge_list_format() {
    roundtrip_format(ShardFormat::EdgeList);
}

#[test]
fn shard_roundtrip_binary_format() {
    roundtrip_format(ShardFormat::Binary);
}

#[test]
fn shard_roundtrip_compressed_format() {
    roundtrip_format(ShardFormat::Compressed);
}

#[test]
fn shards_reassemble_to_generate_directed() {
    // The acceptance criterion: reading a streamed R-MAT run back yields
    // exactly the edges `generate_directed` produces for the same seed.
    let gen = Rmat::new(12, 50_000).with_seed(1).with_chunks(64);
    let dir = tmp_dir("accept");
    write_sharded(
        &gen,
        &meta("rmat", 1),
        &StreamConfig::new(&dir, ShardFormat::Compressed),
    )
    .unwrap();
    let mut streamed = ShardReader::open(&dir).unwrap().read_all().unwrap();
    streamed.edges.sort_unstable();
    let reference = generate_directed(&gen);
    assert_eq!(streamed.edges, reference.edges);
    assert_eq!(streamed.n, reference.n);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn external_merge_equals_generate_undirected() {
    // Index-based, spatial and hyperbolic models; small budgets force
    // multi-run merges.
    let dir = tmp_dir("xmerge_gnm");
    let gen = GnmUndirected::new(500, 6000).with_seed(11).with_chunks(9);
    write_sharded(
        &gen,
        &meta("gnm_undirected", 11),
        &StreamConfig::new(&dir, ShardFormat::Compressed),
    )
    .unwrap();
    let reader = ShardReader::open(&dir).unwrap();
    let (edges, stats) = external_merge_to_vec(&reader, &dir.join("runs"), 500).unwrap();
    assert_eq!(edges, generate_undirected(&gen).edges);
    assert!(stats.max_buffered <= 500);
    assert!(stats.runs >= 2, "budget 500 must spill multiple runs");
    std::fs::remove_dir_all(&dir).ok();

    let dir = tmp_dir("xmerge_rgg");
    let rgg = Rgg2d::new(600, 0.05).with_seed(4).with_chunks(16);
    write_sharded(
        &rgg,
        &meta("rgg2d", 4),
        &StreamConfig::new(&dir, ShardFormat::Binary),
    )
    .unwrap();
    let reader = ShardReader::open(&dir).unwrap();
    let (edges, _) = external_merge_to_vec(&reader, &dir.join("runs"), 1000).unwrap();
    assert_eq!(edges, generate_undirected(&rgg).edges);
    std::fs::remove_dir_all(&dir).ok();

    let dir = tmp_dir("xmerge_rhg");
    let rhg = Rhg::new(400, 6.0, 2.8).with_seed(8).with_chunks(5);
    write_sharded(
        &rhg,
        &meta("rhg", 8),
        &StreamConfig::new(&dir, ShardFormat::Compressed),
    )
    .unwrap();
    let reader = ShardReader::open(&dir).unwrap();
    let (edges, _) = external_merge_to_vec(&reader, &dir.join("runs"), 2000).unwrap();
    assert_eq!(edges, generate_undirected(&rhg).edges);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn external_merge_equals_generate_directed() {
    // Directed instances keep multi-edges (R-MAT can repeat an edge).
    let gen = Rmat::new(7, 6000).with_seed(2).with_chunks(6);
    let dir = tmp_dir("xmerge_dir");
    write_sharded(
        &gen,
        &meta("rmat", 2),
        &StreamConfig::new(&dir, ShardFormat::Compressed),
    )
    .unwrap();
    let reader = ShardReader::open(&dir).unwrap();
    let (edges, stats) = external_merge_to_vec(&reader, &dir.join("runs"), 512).unwrap();
    let reference = generate_directed(&gen);
    assert_eq!(edges, reference.edges);
    assert_eq!(stats.edges_out, 6000, "directed merge must keep duplicates");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shards_byte_identical_across_thread_counts() {
    // Determinism under threading, across formats and models.
    let models: Vec<(&str, Box<dyn Generator>)> = vec![
        (
            "ba",
            Box::new(BarabasiAlbert::new(600, 3).with_seed(6).with_chunks(12)),
        ),
        (
            "gnp_undirected",
            Box::new(GnpUndirected::new(300, 0.05).with_seed(9).with_chunks(8)),
        ),
    ];
    for (name, gen) in &models {
        for format in [
            ShardFormat::EdgeList,
            ShardFormat::Binary,
            ShardFormat::Compressed,
        ] {
            let d1 = tmp_dir(&format!("det1_{name}_{}", format.extension()));
            let dn = tmp_dir(&format!("detn_{name}_{}", format.extension()));
            let m1 = write_sharded(
                gen.as_ref(),
                &meta(name, 0),
                &StreamConfig::new(&d1, format).with_threads(1),
            )
            .unwrap();
            let mn = write_sharded(
                gen.as_ref(),
                &meta(name, 0),
                &StreamConfig::new(&dn, format).with_threads(8),
            )
            .unwrap();
            assert_eq!(m1, mn, "{name}: manifests must match");
            for s in &m1.shards {
                let a = std::fs::read(d1.join(&s.file)).unwrap();
                let b = std::fs::read(dn.join(&s.file)).unwrap();
                assert_eq!(a, b, "{name} {:?} shard {}", format, s.pe);
            }
            std::fs::remove_dir_all(&d1).ok();
            std::fs::remove_dir_all(&dn).ok();
        }
    }
}

#[test]
fn manifest_records_instance_metadata() {
    let gen = GnmDirected::new(256, 2000).with_seed(77).with_chunks(4);
    let dir = tmp_dir("meta");
    let written = write_sharded(
        &gen,
        &InstanceMeta {
            model: "gnm_directed".into(),
            params: "n=256 m=2000".into(),
            seed: 77,
        },
        &StreamConfig::new(&dir, ShardFormat::Compressed),
    )
    .unwrap();
    let loaded = Manifest::load(&dir).unwrap();
    assert_eq!(loaded, written);
    assert_eq!(loaded.model, "gnm_directed");
    assert_eq!(loaded.params, "n=256 m=2000");
    assert_eq!(loaded.seed, 77);
    assert_eq!(loaded.n, 256);
    assert!(loaded.directed);
    assert_eq!(loaded.chunks, 4);
    assert_eq!(loaded.edges, 2000);
    assert_eq!(loaded.shards.len(), 4);
    let sum: u64 = loaded.shards.iter().map(|s| s.edges).sum();
    assert_eq!(sum, 2000);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sink_composition_matches_materialized_stats() {
    // Tee a counting sink with a degree accumulator; the streaming stats
    // must equal those computed from the materialized instance.
    let gen = GnpDirected::new(500, 0.01).with_seed(13).with_chunks(6);
    let mut tee = TeeSink::new(
        CountingSink::new(),
        DegreeStatsSink::new(gen.num_vertices(), true),
    );
    let count = stream_into(&gen, &mut tee).unwrap();
    let el = generate_directed(&gen);
    assert_eq!(count, el.edges.len() as u64);
    let (out_deg, in_deg) = tee.b.stats();
    let expect = kagen_repro::graph::stats::DegreeStats::directed(&el);
    assert_eq!(out_deg, expect.out_deg);
    assert_eq!(in_deg.unwrap(), expect.in_deg);
}

#[test]
fn streaming_mode_never_materializes() {
    // A structural guarantee stand-in for the RSS acceptance test (which
    // the CLI demonstrates): drive a 10^6-edge instance through the sink
    // driver while keeping only O(1) state.
    let gen = Rmat::new(16, 1 << 20).with_seed(1).with_chunks(32);
    let mut sink = CountingSink::new();
    let n = stream_into(&gen, &mut sink).unwrap();
    assert_eq!(n, 1 << 20);
}

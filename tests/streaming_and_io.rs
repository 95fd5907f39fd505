//! Cross-crate integration: streaming generation piped straight into the
//! IO writers (the §9 "generate graphs too large for memory" workflow),
//! plus CLI-level format round trips.

use kagen_repro::core::prelude::*;
use kagen_repro::core::Generator;
use kagen_repro::graph::io::{decode_binary, decode_text};
use kagen_repro::graph::EdgeList;
use kagen_repro::pipeline::{EdgeSink, ShardFormat};
use std::io::Write;

/// Every edge `decode` hands out, over `n` vertices.
fn decoded(
    n: u64,
    decode: impl FnOnce(&mut dyn FnMut(&[(u64, u64)])) -> std::io::Result<u64>,
) -> EdgeList {
    let mut edges = Vec::new();
    decode(&mut |block| edges.extend_from_slice(block)).unwrap();
    EdgeList::new(n, edges)
}

#[test]
fn stream_to_text_writer_without_materializing() {
    // Generate → format → parse back, never holding a Vec of edges for
    // the generation side.
    let gen = GnmDirected::new(500, 8000).with_seed(7).with_chunks(4);
    let mut text = Vec::new();
    for pe in 0..4 {
        let mut w = std::io::BufWriter::new(&mut text);
        gen.stream_pe_batched(pe, &mut Vec::new(), &mut |edges| {
            for (u, v) in edges {
                writeln!(w, "{u} {v}").unwrap();
            }
        });
        w.flush().unwrap();
    }
    let parsed = decoded(500, |emit| decode_text(&text[..], emit));
    let mut direct = generate_directed(&gen);
    let mut sorted = parsed.clone();
    sorted.sort_dedup();
    direct.sort_dedup();
    assert_eq!(sorted, direct);
}

#[test]
fn stream_to_binary_roundtrip() {
    let gen = GnmUndirected::new(300, 2000).with_seed(9).with_chunks(3);
    let mut bytes = Vec::new();
    for pe in 0..3 {
        gen.stream_pe_batched(pe, &mut Vec::new(), &mut |edges| {
            for (u, v) in edges {
                bytes.extend_from_slice(&u.to_le_bytes());
                bytes.extend_from_slice(&v.to_le_bytes());
            }
        });
    }
    let mut parsed = decoded(300, |emit| decode_binary(&bytes[..], emit));
    parsed.canonicalize();
    let direct = generate_undirected(&gen);
    assert_eq!(parsed, direct);
}

#[test]
fn streamed_counts_match_generated() {
    /// PE `pe`'s edges counted off its stream, checked against its
    /// materialized part.
    fn count(g: &dyn Generator, pe: usize) -> u64 {
        let mut count = 0;
        g.stream_pe_batched(pe, &mut Vec::new(), &mut |e| count += e.len() as u64);
        assert_eq!(count as usize, g.generate_pe(pe).edges.len());
        count
    }
    let gens: Vec<Box<dyn Generator>> = vec![
        Box::new(GnpDirected::new(400, 0.01).with_seed(1).with_chunks(8)),
        Box::new(Rmat::new(10, 5000).with_seed(2).with_chunks(8)),
        Box::new(
            StochasticBlockModel::planted(400, 4, 0.05, 0.005)
                .with_seed(3)
                .with_chunks(8),
        ),
    ];
    for g in &gens {
        let total: u64 = (0..8).map(|pe| count(g.as_ref(), pe)).sum();
        assert!(total > 0);
    }
}

#[test]
fn writers_produce_consistent_formats() {
    let gen = Rgg2d::new(200, 0.1).with_seed(4).with_chunks(4);
    let el = generate_undirected(&gen);
    // edge-list text
    let mut text = Vec::new();
    let mut sink = ShardFormat::EdgeList.sink(&mut text, el.n).unwrap();
    sink.push_batch(&el.edges);
    sink.finish().unwrap();
    drop(sink);
    let parsed = decoded(el.n, |emit| decode_text(&text[..], emit));
    assert_eq!(parsed.edges, el.edges);
    // metis header line consistency
    let mut metis = Vec::new();
    kagen_repro::graph::io::write_metis(&mut metis, &el).unwrap();
    let header = String::from_utf8(metis)
        .unwrap()
        .lines()
        .next()
        .unwrap()
        .to_string();
    assert_eq!(header, format!("{} {}", el.n, el.edges.len()));
}

#[test]
fn merged_streams_equal_merged_pegraphs() {
    let gen = BarabasiAlbert::new(400, 3).with_seed(5).with_chunks(8);
    let mut streamed: Vec<(u64, u64)> = Vec::new();
    for pe in 0..8 {
        gen.stream_pe_batched(pe, &mut Vec::new(), &mut |e| streamed.extend_from_slice(e));
    }
    streamed.sort_unstable();
    let mut via_pegraph = generate_directed(&gen);
    via_pegraph.edges.sort_unstable();
    assert_eq!(EdgeList::new(400, streamed), via_pegraph);
}

//! Golden shard bytes: the `KGSHRD02` bytes `CompressedSink` writes for
//! a fixed set of streams, pinned as `(length, FNV-1a 64 digest)`
//! literals. The codec's on-disk format is pinned here directly, so a
//! rebuilt encoder needs no second encoder to compare against.
//!
//! Every stream is fed in ragged batches (sizes cycle through
//! [`BATCHES`], which includes empty and block-straddling slices): how a
//! stream is cut must never show in the bytes.
//!
//! On a mismatch the failure message prints every differing row in
//! source form.

use kagen_repro::core::prelude::*;
use kagen_repro::graph::io::read_compressed;
use kagen_repro::pipeline::{CompressedSink, EdgeSink};

/// Batch sizes the streams are cut into, cycled until the stream ends.
const BATCHES: &[usize] = &[1, 0, 7, 4096, 33, 5000, 2, 4095, 8193, 64];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The shard bytes of `edges` over `n` vertices, written through
/// `CompressedSink` in ragged batches.
fn shard_bytes(n: u64, edges: &[(u64, u64)]) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut sink = CompressedSink::new(&mut bytes, n).unwrap();
    let mut rest = edges;
    for &size in BATCHES.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (head, tail) = rest.split_at(size.min(rest.len()));
        sink.push_batch(head);
        rest = tail;
    }
    assert_eq!(sink.finish().unwrap(), edges.len() as u64);
    drop(sink);
    bytes
}

fn generated(gen: &dyn Generator) -> Vec<(u64, u64)> {
    let mut edges = Vec::new();
    gen.stream_all(&mut |u, v| edges.push((u, v)));
    edges
}

/// `m` edges of a sorted-source stream with small forward and backward
/// target deltas.
fn ramp(m: u64) -> Vec<(u64, u64)> {
    (0..m).map(|i| (i / 3, (i * 7919) % 100_003)).collect()
}

/// `(name, n, edges)` of a pinned stream.
type Stream = (&'static str, u64, Vec<(u64, u64)>);

fn streams() -> Vec<Stream> {
    let rmat = Rmat::new(22, 40_000)
        .with_seed(7)
        .with_chunks(4)
        .with_kernel(RmatKernel::Linear { levels: 8 });
    let gnm = GnmDirected::new(50_000, 30_000).with_seed(7).with_chunks(4);
    // 65-bit deltas on both endpoints of every edge: the encoder's and
    // the decoder's cold path.
    let extremes: Vec<(u64, u64)> = (0..5000u64)
        .map(|i| {
            if i % 2 == 0 {
                (u64::MAX - i, 0)
            } else {
                (i, u64::MAX)
            }
        })
        .collect();
    vec![
        ("rmat_unsorted", 1 << 22, generated(&rmat)),
        ("gnm_sorted", 50_000, generated(&gnm)),
        ("edges_4096", 100_003, ramp(4096)),
        ("edges_4097", 100_003, ramp(4097)),
        ("edges_8192", 100_003, ramp(8192)),
        ("single_edge", 10, vec![(3, 9)]),
        ("empty", 10, Vec::new()),
        ("u64_extremes", u64::MAX, extremes),
    ]
}

#[rustfmt::skip]
const GOLDEN: &[(&str, usize, u64)] = &[
    ("rmat_unsorted", 274024, 9943916169154001903),
    ("gnm_sorted", 110930, 16371741775902183679),
    ("edges_4096", 12639, 9859692272511900647),
    ("edges_4097", 12654, 6932249652301243042),
    ("edges_8192", 25265, 7821706374491375255),
    ("single_edge", 28, 5875590315231281517),
    ("empty", 16, 5652242737273412398),
    ("u64_extremes", 100024, 10119355037296152521),
];

#[test]
fn compressed_shard_bytes_match_golden() {
    let mut wrong = String::new();
    let streams = streams();
    assert_eq!(streams.len(), GOLDEN.len());
    for ((name, n, edges), &(golden_name, len, digest)) in streams.iter().zip(GOLDEN) {
        assert_eq!(*name, golden_name, "GOLDEN rows out of order");
        let bytes = shard_bytes(*n, edges);
        if (bytes.len(), fnv1a(&bytes)) != (len, digest) {
            wrong.push_str(&format!(
                "    (\"{name}\", {}, {}),\n",
                bytes.len(),
                fnv1a(&bytes)
            ));
        }
        // The bytes must also mean the stream they were written from.
        let back = read_compressed(&bytes[..]).unwrap();
        assert_eq!((back.n, &back.edges), (*n, edges), "{name}: round trip");
    }
    assert!(wrong.is_empty(), "shard bytes moved:\n{wrong}");
}

#[test]
fn streams_cover_what_their_names_say() {
    for (name, _, edges) in streams() {
        let sorted = edges.windows(2).all(|w| w[0].0 <= w[1].0);
        match name {
            "rmat_unsorted" => assert!(!sorted && edges.len() == 40_000),
            "gnm_sorted" => assert!(sorted && edges.len() == 30_000),
            _ => {}
        }
    }
}

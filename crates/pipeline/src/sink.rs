//! The [`EdgeSink`] trait and the composable sinks that terminate a
//! streaming generation run.
//!
//! A sink receives edges a slice at a time via [`EdgeSink::push_batch`]
//! — the one delivery primitive, matching the generators'
//! `stream_pe_batched` — and is closed with [`EdgeSink::finish`];
//! [`EdgeSink::accept`] is the provided one-edge adapter over it.
//! Every sink counts the edges it accepts; `finish` returns that count.
//!
//! There is one file sink, [`FileSink`]: an adapter from `push_batch`
//! to an `EdgeEncoder` of `kagen_graph::io`, where each format's bytes
//! are defined. `push_batch` stays infallible (it sits on the hot
//! path): the adapter latches the first IO error and `finish` surfaces
//! it. [`TextSink`], [`BinarySink`] and [`CompressedSink`] are that
//! adapter over the three encoders; `ShardFormat::sink` picks one by
//! format. The encoder folds the manifest checksum as it encodes
//! ([`FileSink::checksum`]), so a shard's edges are walked once.

use kagen_graph::io::{BinaryEncoder, CompressedEdgeWriter, EdgeEncoder, TextEncoder};
use kagen_graph::stats::DegreeStats;
use std::io::{self, Write};

/// A streaming consumer of edges.
pub trait EdgeSink {
    /// Consume a batch of edges, in order. How a stream is cut into
    /// batches never changes what a sink produces.
    fn push_batch(&mut self, edges: &[(u64, u64)]);

    /// Consume one edge: a one-element [`EdgeSink::push_batch`].
    #[inline]
    fn accept(&mut self, u: u64, v: u64) {
        self.push_batch(&[(u, v)]);
    }

    /// Close the sink: flush buffers, surface any deferred IO error, and
    /// return the number of edges accepted.
    fn finish(&mut self) -> io::Result<u64>;
}

/// `None` is the disabled sink: it accepts everything, counts nothing.
/// Lets optional pipeline branches (e.g. `--stats`) compose without a
/// separate code path.
impl<S: EdgeSink> EdgeSink for Option<S> {
    #[inline]
    fn push_batch(&mut self, edges: &[(u64, u64)]) {
        if let Some(s) = self {
            s.push_batch(edges);
        }
    }

    fn finish(&mut self) -> io::Result<u64> {
        match self {
            Some(s) => s.finish(),
            None => Ok(0),
        }
    }
}

impl<S: EdgeSink + ?Sized> EdgeSink for Box<S> {
    #[inline]
    fn push_batch(&mut self, edges: &[(u64, u64)]) {
        (**self).push_batch(edges)
    }

    fn finish(&mut self) -> io::Result<u64> {
        (**self).finish()
    }
}

/// Step function of the order-dependent shard checksum — the same mix
/// the compressed format's per-block checksums use
/// ([`kagen_graph::io::edge_checksum_step`]).
#[inline]
pub fn checksum_step(acc: u64, u: u64, v: u64) -> u64 {
    kagen_graph::io::edge_checksum_step(acc, u, v)
}

/// Counts edges; the cheapest possible sink.
#[derive(Default, Debug)]
pub struct CountingSink {
    count: u64,
}

impl CountingSink {
    /// New counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Edges accepted so far.
    pub fn count(&self) -> u64 {
        self.count
    }
}

impl EdgeSink for CountingSink {
    #[inline]
    fn push_batch(&mut self, edges: &[(u64, u64)]) {
        self.count += edges.len() as u64;
    }

    fn finish(&mut self) -> io::Result<u64> {
        Ok(self.count)
    }
}

/// Maintains the order-dependent checksum of the stream — the value the
/// shard manifests record.
#[derive(Default, Debug)]
pub struct ChecksumSink {
    count: u64,
    checksum: u64,
}

impl ChecksumSink {
    /// New checksum accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checksum of the edges accepted so far.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Edges accepted so far.
    pub fn count(&self) -> u64 {
        self.count
    }
}

impl EdgeSink for ChecksumSink {
    fn push_batch(&mut self, edges: &[(u64, u64)]) {
        let mut acc = self.checksum;
        for &(u, v) in edges {
            acc = checksum_step(acc, u, v);
        }
        self.checksum = acc;
        self.count += edges.len() as u64;
    }

    fn finish(&mut self) -> io::Result<u64> {
        Ok(self.count)
    }
}

/// Accumulates in-/out-degree counts without storing edges. Memory is
/// O(n) — the per-vertex counters — never O(m).
#[derive(Debug)]
pub struct DegreeStatsSink {
    directed: bool,
    out_deg: Vec<u64>,
    in_deg: Vec<u64>,
    count: u64,
    /// The first edge with an endpoint outside `0..n` (edges may come
    /// from a file); `finish` reports it.
    out_of_range: Option<(u64, u64)>,
}

impl DegreeStatsSink {
    /// Accumulator over `n` vertices. For undirected streams both
    /// endpoints count toward one degree sequence.
    pub fn new(n: u64, directed: bool) -> Self {
        DegreeStatsSink {
            directed,
            out_deg: vec![0; n as usize],
            in_deg: if directed {
                vec![0; n as usize]
            } else {
                Vec::new()
            },
            count: 0,
            out_of_range: None,
        }
    }

    /// Degree summary: `(out or undirected, in)`; the in-component is
    /// `None` for undirected streams.
    pub fn stats(&self) -> (DegreeStats, Option<DegreeStats>) {
        let first = DegreeStats::from_degrees(&self.out_deg);
        let second = self
            .directed
            .then(|| DegreeStats::from_degrees(&self.in_deg));
        (first, second)
    }
}

impl EdgeSink for DegreeStatsSink {
    fn push_batch(&mut self, edges: &[(u64, u64)]) {
        self.count += edges.len() as u64;
        let n = self.out_deg.len() as u64;
        for &(u, v) in edges {
            if u >= n || v >= n {
                self.out_of_range.get_or_insert((u, v));
                continue;
            }
            self.out_deg[u as usize] += 1;
            if self.directed {
                self.in_deg[v as usize] += 1;
            } else {
                self.out_deg[v as usize] += 1;
            }
        }
    }

    fn finish(&mut self) -> io::Result<u64> {
        if let Some((u, v)) = self.out_of_range {
            let n = self.out_deg.len();
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("edge ({u}, {v}) has an endpoint outside the {n} vertices"),
            ));
        }
        Ok(self.count)
    }
}

/// The one file sink: every on-disk format is this adapter over the
/// format's encoder in `kagen_graph::io`. It counts the edges, pushes
/// each batch into the encoder a slice at a time, latches the first IO
/// error (later batches are counted and dropped) and surfaces it from
/// `finish`, which otherwise ends the stream and flushes the writer.
#[derive(Debug)]
pub struct FileSink<E: EdgeEncoder> {
    enc: E,
    count: u64,
    err: Option<io::Error>,
}

impl<E: EdgeEncoder> FileSink<E> {
    pub(crate) fn over(enc: E) -> Self {
        FileSink {
            enc,
            count: 0,
            err: None,
        }
    }

    /// The manifest checksum ([`checksum_step`] from 0) of the edges
    /// accepted so far, folded by the encoder in its encode loop. After
    /// an IO error it covers what reached the encoder, and `finish`
    /// reports the error.
    pub fn checksum(&self) -> u64 {
        self.enc.checksum()
    }
}

impl<E: EdgeEncoder> EdgeSink for FileSink<E> {
    fn push_batch(&mut self, edges: &[(u64, u64)]) {
        self.count += edges.len() as u64;
        if self.err.is_none() {
            self.err = self.enc.push_slice(edges).err();
        }
    }

    fn finish(&mut self) -> io::Result<u64> {
        if let Some(e) = self.err.take() {
            return Err(e);
        }
        self.enc.close()?;
        Ok(self.count)
    }
}

/// Writes `u v` text lines (the KaGen tool's output format).
pub type TextSink<W> = FileSink<TextEncoder<W>>;

impl<W: Write> TextSink<W> {
    /// Sink writing to `w` (wrap files in a `BufWriter`).
    pub fn new(w: W) -> Self {
        FileSink::over(TextEncoder::new(w))
    }
}

/// Writes raw little-endian `u64` pairs (16 bytes per edge).
pub type BinarySink<W> = FileSink<BinaryEncoder<W>>;

impl<W: Write> BinarySink<W> {
    /// Sink writing to `w` (wrap files in a `BufWriter`).
    pub fn new(w: W) -> Self {
        FileSink::over(BinaryEncoder::new(w))
    }
}

/// Writes the compressed varint+delta shard format
/// (`kagen_graph::io::CompressedEdgeWriter`).
pub type CompressedSink<W> = FileSink<CompressedEdgeWriter<W>>;

impl<W: Write> CompressedSink<W> {
    /// Sink writing a compressed stream over `n` vertices to `w`.
    pub fn new(w: W, n: u64) -> io::Result<Self> {
        Ok(FileSink::over(CompressedEdgeWriter::new(w, n)?))
    }
}

/// Duplicates the stream into two sinks (e.g. a file plus running stats).
#[derive(Debug)]
pub struct TeeSink<A: EdgeSink, B: EdgeSink> {
    /// First branch.
    pub a: A,
    /// Second branch.
    pub b: B,
}

impl<A: EdgeSink, B: EdgeSink> TeeSink<A, B> {
    /// Tee into `a` and `b`.
    pub fn new(a: A, b: B) -> Self {
        TeeSink { a, b }
    }
}

impl<A: EdgeSink, B: EdgeSink> EdgeSink for TeeSink<A, B> {
    #[inline]
    fn push_batch(&mut self, edges: &[(u64, u64)]) {
        self.a.push_batch(edges);
        self.b.push_batch(edges);
    }

    fn finish(&mut self) -> io::Result<u64> {
        // Finish both branches even if the first fails, so neither sink
        // is left unflushed; report the first error.
        let ra = self.a.finish();
        let rb = self.b.finish();
        let count = ra?;
        rb?;
        Ok(count)
    }
}

/// Adapts a closure into a sink (the bridge from sink-land back to the
/// `FnMut(u64, u64)` emit-style APIs of `kagen_core::streaming`).
pub struct FnSink<F: FnMut(u64, u64)> {
    f: F,
    count: u64,
}

// Manual impl: the wrapped closure has no `Debug`; the edge count is
// the only stable field.
impl<F: FnMut(u64, u64)> std::fmt::Debug for FnSink<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnSink")
            .field("count", &self.count)
            .finish_non_exhaustive()
    }
}

impl<F: FnMut(u64, u64)> FnSink<F> {
    /// Sink invoking `f` per edge.
    pub fn new(f: F) -> Self {
        FnSink { f, count: 0 }
    }
}

impl<F: FnMut(u64, u64)> EdgeSink for FnSink<F> {
    fn push_batch(&mut self, edges: &[(u64, u64)]) {
        self.count += edges.len() as u64;
        for &(u, v) in edges {
            (self.f)(u, v);
        }
    }

    fn finish(&mut self) -> io::Result<u64> {
        Ok(self.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_and_checksum() {
        let mut c = CountingSink::new();
        let mut s = ChecksumSink::new();
        for (u, v) in [(0u64, 1u64), (1, 2), (2, 0)] {
            c.accept(u, v);
            s.accept(u, v);
        }
        assert_eq!(c.finish().unwrap(), 3);
        assert_eq!(s.count(), 3);
        assert_ne!(s.checksum(), 0);
        // Order-dependent: swapped stream has a different checksum.
        let mut s2 = ChecksumSink::new();
        for (u, v) in [(1u64, 2u64), (0, 1), (2, 0)] {
            s2.accept(u, v);
        }
        assert_ne!(s.checksum(), s2.checksum());
    }

    #[test]
    fn degree_stats_directed_and_undirected() {
        let mut d = DegreeStatsSink::new(3, true);
        d.accept(0, 1);
        d.accept(0, 2);
        let (out_deg, in_deg) = d.stats();
        assert_eq!(out_deg.max, 2);
        assert_eq!(in_deg.unwrap().max, 1);

        let mut u = DegreeStatsSink::new(3, false);
        u.accept(0, 1);
        u.accept(0, 2);
        let (deg, none) = u.stats();
        assert_eq!(deg.max, 2);
        assert_eq!(deg.min, 1);
        assert!(none.is_none());
    }

    #[test]
    fn text_binary_compressed_agree() {
        let edges = [(5u64, 7u64), (5, 8), (6, 0)];
        let (mut text_bytes, mut bin_bytes, mut comp_bytes) = (Vec::new(), Vec::new(), Vec::new());
        let mut text = TextSink::new(&mut text_bytes);
        let mut bin = BinarySink::new(&mut bin_bytes);
        let mut comp = CompressedSink::new(&mut comp_bytes, 10).unwrap();
        for &(u, v) in &edges {
            text.accept(u, v);
            bin.accept(u, v);
            comp.accept(u, v);
        }
        assert_eq!(text.finish().unwrap(), 3);
        assert_eq!(bin.finish().unwrap(), 3);
        assert_eq!(comp.finish().unwrap(), 3);
        drop((text, bin, comp));
        assert_eq!(String::from_utf8(text_bytes).unwrap(), "5 7\n5 8\n6 0\n");
        assert_eq!(bin_bytes.len(), 3 * 16);
        let back = kagen_graph::io::read_compressed(&comp_bytes[..]).unwrap();
        assert_eq!((back.n, &back.edges[..]), (10, &edges[..]));
    }

    #[test]
    fn degree_stats_reports_an_id_outside_the_vertex_range() {
        for directed in [true, false] {
            let mut d = DegreeStatsSink::new(3, directed);
            d.push_batch(&[(0, 1), (0, 3), (7, 7), (2, 2)]);
            let err = d.finish().unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("(0, 3)"), "{err}");
        }
        assert!(DegreeStatsSink::new(0, true).finish().is_ok());
    }

    /// A writer that fails once `budget` bytes have been written.
    struct FailingWriter {
        budget: usize,
        flushed: bool,
    }

    impl Write for FailingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if buf.len() > self.budget {
                return Err(io::Error::other("disk full"));
            }
            self.budget -= buf.len();
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            self.flushed = true;
            Ok(())
        }
    }

    #[test]
    fn file_sink_latches_the_first_error_and_keeps_counting() {
        let edges: Vec<(u64, u64)> = (0..100).map(|i| (i, i + 1)).collect();
        let mut w = FailingWriter {
            budget: 64,
            flushed: false,
        };
        let mut sink = BinarySink::new(&mut w);
        sink.push_batch(&edges[..4]); // 64 bytes: fits
        sink.push_batch(&edges[4..8]); // fails
        sink.push_batch(&edges[8..]); // dropped, not retried
        assert_eq!(sink.finish().unwrap_err().to_string(), "disk full");
        drop(sink);
        assert!(!w.flushed && w.budget == 0);
        // The same adapter for every format.
        let mut w = FailingWriter {
            budget: 0,
            flushed: false,
        };
        let mut sink = TextSink::new(&mut w);
        sink.push_batch(&edges);
        assert!(sink.finish().is_err());
        assert!(CompressedSink::new(&mut w, 10).is_err());
    }

    #[test]
    fn push_batch_equals_per_edge_for_every_sink() {
        // Long enough to cross two compressed block boundaries and the
        // text/binary scratch chunk size.
        let m = 2 * kagen_graph::io::COMPRESSED_BLOCK_EDGES + 1234;
        let edges: Vec<(u64, u64)> = (0..m).map(|i| (i / 3, (i * 7) % 41)).collect();

        // Feed the same stream once as 1-slices (`accept`), once in
        // ragged batches (including an empty one); every sink must
        // produce identical output, counts and checksums.
        macro_rules! both {
            ($mk:expr, $extract:expr) => {{
                let mut per_edge = $mk;
                for &(u, v) in &edges {
                    per_edge.accept(u, v);
                }
                let mut batched = $mk;
                batched.push_batch(&edges[..33]);
                batched.push_batch(&[]);
                batched.push_batch(&edges[33..34]);
                batched.push_batch(&edges[34..]);
                let a = $extract(&mut per_edge);
                let b = $extract(&mut batched);
                assert!(a == b, "{} differs", stringify!($mk));
                assert_eq!(per_edge.finish().unwrap(), m);
                assert_eq!(batched.finish().unwrap(), m);
            }};
        }

        both!(CountingSink::new(), |s: &mut CountingSink| s.count());
        both!(ChecksumSink::new(), |s: &mut ChecksumSink| s.checksum());
        // File sinks: what matters is the bytes behind them once closed.
        macro_rules! both_files {
            ($w:ident => $mk:expr) => {{
                let (mut a, mut b) = (Vec::new(), Vec::new());
                let $w = &mut a;
                let mut per_edge = $mk;
                for &(u, v) in &edges {
                    per_edge.accept(u, v);
                }
                let $w = &mut b;
                let mut batched = $mk;
                batched.push_batch(&edges[..33]);
                batched.push_batch(&[]);
                batched.push_batch(&edges[33..34]);
                batched.push_batch(&edges[34..]);
                assert_eq!(per_edge.finish().unwrap(), m);
                assert_eq!(batched.finish().unwrap(), m);
                drop((per_edge, batched));
                assert!(!a.is_empty() && a == b, "{} differs", stringify!($mk));
            }};
        }
        both_files!(w => TextSink::new(w));
        both_files!(w => BinarySink::new(w));
        both_files!(w => CompressedSink::new(w, m).unwrap());
        both!(
            DegreeStatsSink::new(m, true),
            |s: &mut DegreeStatsSink| format!("{:?}", s.stats())
        );
        both!(
            TeeSink::new(CountingSink::new(), ChecksumSink::new()),
            |s: &mut TeeSink<CountingSink, ChecksumSink>| (s.a.count(), s.b.checksum())
        );
        let (mut one, mut many) = (Vec::new(), Vec::new());
        let mut per_edge = FnSink::new(|u, v| one.push((u, v)));
        edges.iter().for_each(|&(u, v)| per_edge.accept(u, v));
        let mut batched = FnSink::new(|u, v| many.push((u, v)));
        batched.push_batch(&edges);
        assert_eq!(per_edge.finish().unwrap(), batched.finish().unwrap());
        assert_eq!(one, edges);
        assert_eq!(many, edges);
    }

    #[test]
    fn tee_feeds_both() {
        let mut tee = TeeSink::new(CountingSink::new(), ChecksumSink::new());
        tee.accept(1, 2);
        tee.accept(3, 4);
        assert_eq!(tee.finish().unwrap(), 2);
        assert_eq!(tee.b.count(), 2);
    }

    #[test]
    fn fn_sink_bridges_closures() {
        let mut seen = Vec::new();
        {
            let mut sink = FnSink::new(|u, v| seen.push((u, v)));
            sink.accept(9, 1);
            assert_eq!(sink.finish().unwrap(), 1);
        }
        assert_eq!(seen, vec![(9, 1)]);
    }
}

//! The [`EdgeSink`] trait and the composable sinks that terminate a
//! streaming generation run.
//!
//! A sink receives edges a slice at a time via [`EdgeSink::push_batch`]
//! — the one delivery primitive, matching the generators'
//! `stream_pe_batched` — and is closed with [`EdgeSink::finish`];
//! [`EdgeSink::accept`] is the provided one-edge adapter over it. IO
//! sinks buffer writes internally and defer errors: `push_batch` stays
//! infallible (it sits on the hot path), the first IO error is latched
//! and surfaced by `finish`. Every sink counts the edges it accepts;
//! `finish` returns that count.

use kagen_graph::io::CompressedEdgeWriter;
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
        // Directedness is per-sink, not per-edge: branch once per batch.
        self.count += edges.len() as u64;
        if self.directed {
            for &(u, v) in edges {
                self.out_deg[u as usize] += 1;
                self.in_deg[v as usize] += 1;
            }
        } else {
            for &(u, v) in edges {
                self.out_deg[u as usize] += 1;
                self.out_deg[v as usize] += 1;
            }
        }
    }

    fn finish(&mut self) -> io::Result<u64> {
        Ok(self.count)
    }
}

/// Writes `u v` text lines (the KaGen tool's output format).
#[derive(Debug)]
pub struct TextSink<W: Write> {
    w: W,
    count: u64,
    err: Option<io::Error>,
    /// Reusable format buffer for batched writes.
    scratch: String,
}

impl<W: Write> TextSink<W> {
    /// Sink writing to `w` (wrap files in a `BufWriter`).
    pub fn new(w: W) -> Self {
        TextSink {
            w,
            count: 0,
            err: None,
            scratch: String::new(),
        }
    }
}

impl<W: Write> EdgeSink for TextSink<W> {
    fn push_batch(&mut self, edges: &[(u64, u64)]) {
        use std::fmt::Write as _;
        self.count += edges.len() as u64;
        if self.err.is_some() {
            return;
        }
        // Chunked so one huge slice cannot balloon the scratch buffer.
        for chunk in edges.chunks(4096) {
            self.scratch.clear();
            for &(u, v) in chunk {
                let _ = writeln!(self.scratch, "{u} {v}");
            }
            if let Err(e) = self.w.write_all(self.scratch.as_bytes()) {
                self.err = Some(e);
                return;
            }
        }
    }

    fn finish(&mut self) -> io::Result<u64> {
        if let Some(e) = self.err.take() {
            return Err(e);
        }
        self.w.flush()?;
        Ok(self.count)
    }
}

/// Writes raw little-endian `u64` pairs (16 bytes per edge).
#[derive(Debug)]
pub struct BinarySink<W: Write> {
    w: W,
    count: u64,
    err: Option<io::Error>,
    /// Reusable encode buffer for batched writes.
    scratch: Vec<u8>,
}

impl<W: Write> BinarySink<W> {
    /// Sink writing to `w` (wrap files in a `BufWriter`).
    pub fn new(w: W) -> Self {
        BinarySink {
            w,
            count: 0,
            err: None,
            scratch: Vec::new(),
        }
    }
}

impl<W: Write> EdgeSink for BinarySink<W> {
    fn push_batch(&mut self, edges: &[(u64, u64)]) {
        self.count += edges.len() as u64;
        if self.err.is_some() {
            return;
        }
        // Chunked so one huge slice cannot balloon the scratch buffer.
        for chunk in edges.chunks(4096) {
            self.scratch.clear();
            for &(u, v) in chunk {
                self.scratch.extend_from_slice(&u.to_le_bytes());
                self.scratch.extend_from_slice(&v.to_le_bytes());
            }
            if let Err(e) = self.w.write_all(&self.scratch) {
                self.err = Some(e);
                return;
            }
        }
    }

    fn finish(&mut self) -> io::Result<u64> {
        if let Some(e) = self.err.take() {
            return Err(e);
        }
        self.w.flush()?;
        Ok(self.count)
    }
}

/// Writes the compressed varint+delta shard format
/// (`kagen_graph::io::CompressedEdgeWriter`).
#[derive(Debug)]
pub struct CompressedSink<W: Write> {
    enc: Option<CompressedEdgeWriter<W>>,
    count: u64,
    err: Option<io::Error>,
}

impl<W: Write> CompressedSink<W> {
    /// Sink writing a compressed stream over `n` vertices to `w`.
    pub fn new(w: W, n: u64) -> io::Result<Self> {
        Ok(CompressedSink {
            enc: Some(CompressedEdgeWriter::new(w, n)?),
            count: 0,
            err: None,
        })
    }
}

impl<W: Write> EdgeSink for CompressedSink<W> {
    fn push_batch(&mut self, edges: &[(u64, u64)]) {
        // Whole-slice varint encode into the encoder's reusable scratch
        // buffer; one buffered write per batch.
        self.count += edges.len() as u64;
        if self.err.is_none() {
            if let Some(enc) = self.enc.as_mut() {
                if let Err(e) = enc.push_slice(edges) {
                    self.err = Some(e);
                }
            }
        }
    }

    fn finish(&mut self) -> io::Result<u64> {
        if let Some(e) = self.err.take() {
            return Err(e);
        }
        if let Some(enc) = self.enc.take() {
            enc.finish()?;
        }
        Ok(self.count)
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
        let mut text = TextSink::new(Vec::new());
        let mut bin = BinarySink::new(Vec::new());
        let mut comp = CompressedSink::new(Vec::new(), 10).unwrap();
        for &(u, v) in &edges {
            text.accept(u, v);
            bin.accept(u, v);
            comp.accept(u, v);
        }
        assert_eq!(text.finish().unwrap(), 3);
        assert_eq!(bin.finish().unwrap(), 3);
        assert_eq!(comp.finish().unwrap(), 3);
        assert_eq!(String::from_utf8(text.w).unwrap(), "5 7\n5 8\n6 0\n");
        assert_eq!(bin.w.len(), 3 * 16);
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
        both!(TextSink::new(Vec::new()), |s: &mut TextSink<Vec<u8>>| s
            .w
            .clone());
        both!(BinarySink::new(Vec::new()), |s: &mut BinarySink<
            Vec<u8>,
        >| s.w.clone());
        // Take the encoder out to reach the encoded bytes; `finish`
        // then only reports the count.
        both!(
            CompressedSink::new(Vec::new(), m).unwrap(),
            |s: &mut CompressedSink<Vec<u8>>| s.enc.take().unwrap().finish().unwrap().0
        );
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

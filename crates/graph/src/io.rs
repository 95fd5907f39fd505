//! Writers and readers for the on-disk graph formats, including the
//! compressed varint+delta shard codec used by `kagen-pipeline`.

use crate::EdgeList;
use std::io::{self, BufRead, BufWriter, Read, Write};

/// Magic prefix of the compressed edge-stream format (version 2:
/// restart blocks with per-block checksums — random access and sampled
/// validation without decoding the whole stream).
pub const COMPRESSED_MAGIC: [u8; 8] = *b"KGSHRD02";

/// Edges per restart block of the compressed format. Delta encoding
/// restarts at every block boundary, so any block can be decoded (and
/// validated) standalone given its byte offset.
pub const COMPRESSED_BLOCK_EDGES: u64 = 4096;

/// Step function of the order-dependent edge checksum used both for the
/// per-block checksums of the compressed format and (via
/// `kagen_pipeline::checksum_step`) for the manifest's shard checksums:
/// an FNV-style mix of the running value with both endpoints.
#[inline]
pub fn edge_checksum_step(acc: u64, u: u64, v: u64) -> u64 {
    let mut h = acc ^ u.rotate_left(17) ^ v.wrapping_mul(0x9E3779B97F4A7C15);
    h = h.wrapping_mul(0x100000001b3);
    h ^ (h >> 29)
}

/// Encoded length of a varint in bytes.
pub fn varint_len(mut x: u128) -> u64 {
    let mut len = 1;
    while x >= 0x80 {
        x >>= 7;
        len += 1;
    }
    len
}

/// Encode `x` as a LEB128 varint (7 bits per byte, MSB = continuation).
pub fn write_varint<W: Write>(w: &mut W, mut x: u128) -> io::Result<()> {
    loop {
        let byte = (x & 0x7f) as u8;
        x >>= 7;
        if x == 0 {
            return w.write_all(&[byte]);
        }
        w.write_all(&[byte | 0x80])?;
    }
}

/// Decode one LEB128 varint; `Ok(None)` on clean EOF before the first
/// byte, an error on truncation mid-number.
pub fn read_varint<R: Read>(r: &mut R) -> io::Result<Option<u128>> {
    let mut x = 0u128;
    let mut shift = 0u32;
    let mut buf = [0u8; 1];
    loop {
        match r.read(&mut buf)? {
            0 => {
                return if shift == 0 {
                    Ok(None)
                } else {
                    Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "truncated varint",
                    ))
                };
            }
            _ => {
                let payload = (buf[0] & 0x7f) as u128;
                // Reject both too-long varints and a final byte whose
                // high payload bits would be shifted out of u128.
                if shift >= 128 || (shift > 121 && payload >> (128 - shift) != 0) {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "varint overflows u128",
                    ));
                }
                x |= payload << shift;
                if buf[0] & 0x80 == 0 {
                    return Ok(Some(x));
                }
                shift += 7;
            }
        }
    }
}

/// Zigzag-map a signed delta to an unsigned varint payload.
#[inline]
fn zigzag(d: i128) -> u128 {
    ((d << 1) ^ (d >> 127)) as u128
}

/// Inverse of [`zigzag`].
#[inline]
fn unzigzag(z: u128) -> i128 {
    ((z >> 1) as i128) ^ -((z & 1) as i128)
}

/// Streaming encoder of the compressed edge format: a `KGSHRD02` magic,
/// the vertex count, then **restart blocks** of at most
/// [`COMPRESSED_BLOCK_EDGES`] edges. Each block is
/// `varint(edge_count) · varint(payload_len) · u64-LE checksum ·
/// payload`, where the payload holds one zigzag-varint **delta pair**
/// per edge (`u − prev_u`, `v − prev_v`) with `prev` restarting at
/// `(0, 0)` — so any block decodes standalone given its offset, and the
/// per-block checksum ([`edge_checksum_step`] folded over the block's
/// edges) lets validators sample blocks instead of re-reading the whole
/// shard. Sorted or spatially clustered streams compress to a few bytes
/// per edge; arbitrary streams still round-trip.
pub struct CompressedEdgeWriter<W: Write> {
    w: W,
    prev_u: u64,
    prev_v: u64,
    count: u64,
    block_count: u64,
    block_checksum: u64,
    /// Pending block payload; at most one block (~152 KiB) is ever
    /// buffered.
    scratch: Vec<u8>,
    header: Vec<u8>,
}

// Manual impl: `W` need not be `Debug`, and the scratch buffers are
// noise — report the stream position instead.
impl<W: Write> std::fmt::Debug for CompressedEdgeWriter<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompressedEdgeWriter")
            .field("count", &self.count)
            .field("block_count", &self.block_count)
            .finish_non_exhaustive()
    }
}

impl<W: Write> CompressedEdgeWriter<W> {
    /// Start a stream over `n` vertices (writes the header immediately).
    pub fn new(mut w: W, n: u64) -> io::Result<Self> {
        w.write_all(&COMPRESSED_MAGIC)?;
        w.write_all(&n.to_le_bytes())?;
        Ok(CompressedEdgeWriter {
            w,
            prev_u: 0,
            prev_v: 0,
            count: 0,
            block_count: 0,
            block_checksum: 0,
            scratch: Vec::new(),
            header: Vec::new(),
        })
    }

    #[inline]
    fn encode_edge(&mut self, u: u64, v: u64) {
        // Writing into a Vec cannot fail; unwrap keeps the loop tight.
        write_varint(&mut self.scratch, zigzag(u as i128 - self.prev_u as i128)).unwrap();
        write_varint(&mut self.scratch, zigzag(v as i128 - self.prev_v as i128)).unwrap();
        self.prev_u = u;
        self.prev_v = v;
        self.block_checksum = edge_checksum_step(self.block_checksum, u, v);
        self.block_count += 1;
        self.count += 1;
    }

    fn flush_block(&mut self) -> io::Result<()> {
        if self.block_count == 0 {
            return Ok(());
        }
        self.header.clear();
        write_varint(&mut self.header, self.block_count as u128).unwrap();
        write_varint(&mut self.header, self.scratch.len() as u128).unwrap();
        self.w.write_all(&self.header)?;
        self.w.write_all(&self.block_checksum.to_le_bytes())?;
        self.w.write_all(&self.scratch)?;
        self.scratch.clear();
        self.block_count = 0;
        self.block_checksum = 0;
        self.prev_u = 0;
        self.prev_v = 0;
        Ok(())
    }

    /// Append one edge.
    #[inline]
    pub fn push(&mut self, u: u64, v: u64) -> io::Result<()> {
        self.encode_edge(u, v);
        if self.block_count == COMPRESSED_BLOCK_EDGES {
            self.flush_block()?;
        }
        Ok(())
    }

    /// Append a whole slice of edges — byte-identical to pushing them
    /// one at a time (both feed the same block state machine); the
    /// pending-block buffer bounds memory regardless of slice length.
    pub fn push_slice(&mut self, edges: &[(u64, u64)]) -> io::Result<()> {
        for &(u, v) in edges {
            self.encode_edge(u, v);
            if self.block_count == COMPRESSED_BLOCK_EDGES {
                self.flush_block()?;
            }
        }
        Ok(())
    }

    /// Number of edges written so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Flush (including the final ragged block) and return the
    /// underlying writer and the edge count.
    pub fn finish(mut self) -> io::Result<(W, u64)> {
        self.flush_block()?;
        self.w.flush()?;
        Ok((self.w, self.count))
    }
}

/// Streaming decoder of the compressed edge format; memory footprint is
/// O(1) regardless of stream length.
pub struct CompressedEdgeReader<R: BufRead> {
    r: R,
    n: u64,
    prev_u: u64,
    prev_v: u64,
    /// Edges left in the current block (0 = at a block boundary).
    remaining: u64,
    /// The current block's stored checksum, verified at the block
    /// boundary — reads are self-validating even without a manifest.
    expected_checksum: u64,
    running_checksum: u64,
}

// Manual impl: `R` need not be `Debug`.
impl<R: BufRead> std::fmt::Debug for CompressedEdgeReader<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompressedEdgeReader")
            .field("n", &self.n)
            .field("remaining", &self.remaining)
            .finish_non_exhaustive()
    }
}

impl<R: BufRead> CompressedEdgeReader<R> {
    /// Open a stream, validating the magic header.
    pub fn new(mut r: R) -> io::Result<Self> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if magic != COMPRESSED_MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not a KGSHRD02 compressed edge stream",
            ));
        }
        let mut n_bytes = [0u8; 8];
        r.read_exact(&mut n_bytes)?;
        Ok(CompressedEdgeReader {
            r,
            n: u64::from_le_bytes(n_bytes),
            prev_u: 0,
            prev_v: 0,
            remaining: 0,
            expected_checksum: 0,
            running_checksum: 0,
        })
    }

    /// Vertex count recorded in the header.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Decode the next edge; `Ok(None)` at end of stream.
    pub fn next_edge(&mut self) -> io::Result<Option<(u64, u64)>> {
        if self.remaining == 0 {
            // Block boundary: read the next block header (or clean EOF).
            let Some(count) = read_varint(&mut self.r)? else {
                return Ok(None);
            };
            let Some(_len) = read_varint(&mut self.r)? else {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "block header truncated after edge count",
                ));
            };
            let mut checksum = [0u8; 8];
            self.r.read_exact(&mut checksum)?;
            let count = u64::try_from(count).map_err(|_| {
                io::Error::new(io::ErrorKind::InvalidData, "block edge count overflows u64")
            })?;
            if count == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "empty compressed block",
                ));
            }
            self.remaining = count;
            self.prev_u = 0;
            self.prev_v = 0;
            self.expected_checksum = u64::from_le_bytes(checksum);
            self.running_checksum = 0;
        }
        let Some(zu) = read_varint(&mut self.r)? else {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "block truncated mid-payload",
            ));
        };
        let Some(zv) = read_varint(&mut self.r)? else {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "edge record truncated after u-delta",
            ));
        };
        let u = self.prev_u as i128 + unzigzag(zu);
        let v = self.prev_v as i128 + unzigzag(zv);
        let (Ok(u), Ok(v)) = (u64::try_from(u), u64::try_from(v)) else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "edge delta decodes outside the u64 vertex-id range",
            ));
        };
        self.prev_u = u;
        self.prev_v = v;
        self.running_checksum = edge_checksum_step(self.running_checksum, u, v);
        self.remaining -= 1;
        if self.remaining == 0 && self.running_checksum != self.expected_checksum {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "block checksum mismatch (corrupt block)",
            ));
        }
        Ok(Some((u, v)))
    }
}

/// Decode one standalone restart-block payload (`count` edges, deltas
/// starting from `(0, 0)`), returning the folded
/// [`edge_checksum_step`] checksum. Errors on truncation, trailing
/// bytes, or deltas outside the u64 id range — the single decoder
/// shared by [`CompressedEdgeReader`] consumers that random-access
/// blocks (e.g. sampled shard validation).
pub fn decode_block(payload: &[u8], count: u64) -> io::Result<u64> {
    let mut cursor = payload;
    let (mut prev_u, mut prev_v) = (0i128, 0i128);
    let mut checksum = 0u64;
    for _ in 0..count {
        let (Some(zu), Some(zv)) = (read_varint(&mut cursor)?, read_varint(&mut cursor)?) else {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "block truncated mid-payload",
            ));
        };
        let u = prev_u + unzigzag(zu);
        let v = prev_v + unzigzag(zv);
        let (Ok(uu), Ok(vv)) = (u64::try_from(u), u64::try_from(v)) else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "edge delta decodes outside the u64 vertex-id range",
            ));
        };
        checksum = edge_checksum_step(checksum, uu, vv);
        (prev_u, prev_v) = (u, v);
    }
    if !cursor.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "block has trailing bytes",
        ));
    }
    Ok(checksum)
}

/// Write a whole edge list in the compressed varint+delta format.
pub fn write_compressed<W: Write>(w: W, el: &EdgeList) -> io::Result<()> {
    let mut enc = CompressedEdgeWriter::new(BufWriter::new(w), el.n)?;
    for &(u, v) in &el.edges {
        enc.push(u, v)?;
    }
    enc.finish()?;
    Ok(())
}

/// Read a whole compressed edge stream back (inverse of
/// [`write_compressed`]).
pub fn read_compressed<R: BufRead>(r: R) -> io::Result<EdgeList> {
    let mut dec = CompressedEdgeReader::new(r)?;
    let mut edges = Vec::new();
    while let Some(e) = dec.next_edge()? {
        edges.push(e);
    }
    Ok(EdgeList::new(dec.n(), edges))
}

/// Write one `u v` pair per line (the format the KaGen tool emits).
pub fn write_edge_list<W: Write>(w: W, el: &EdgeList) -> io::Result<()> {
    let mut w = BufWriter::new(w);
    for &(u, v) in &el.edges {
        writeln!(w, "{u} {v}")?;
    }
    w.flush()
}

/// Write METIS format: header `n m`, then one line of 1-based neighbors per
/// vertex. Expects a canonical undirected edge list.
pub fn write_metis<W: Write>(w: W, el: &EdgeList) -> io::Result<()> {
    let mut w = BufWriter::new(w);
    let csr = crate::Csr::undirected(el);
    writeln!(w, "{} {}", el.n, el.edges.len())?;
    for v in 0..el.n {
        let neigh = csr.neighbors(v);
        let mut first = true;
        for &u in neigh {
            if first {
                write!(w, "{}", u + 1)?;
                first = false;
            } else {
                write!(w, " {}", u + 1)?;
            }
        }
        writeln!(w)?;
    }
    w.flush()
}

/// Write raw little-endian `u64` pairs (binary edge list).
pub fn write_binary<W: Write>(w: W, el: &EdgeList) -> io::Result<()> {
    let mut w = BufWriter::new(w);
    for &(u, v) in &el.edges {
        w.write_all(&u.to_le_bytes())?;
        w.write_all(&v.to_le_bytes())?;
    }
    w.flush()
}

/// Read raw little-endian `u64` pairs back (inverse of [`write_binary`]).
pub fn read_binary(bytes: &[u8], n: u64) -> EdgeList {
    assert_eq!(bytes.len() % 16, 0, "truncated binary edge list");
    let mut edges = Vec::with_capacity(bytes.len() / 16);
    for chunk in bytes.chunks_exact(16) {
        let u = u64::from_le_bytes(chunk[0..8].try_into().unwrap());
        let v = u64::from_le_bytes(chunk[8..16].try_into().unwrap());
        edges.push((u, v));
    }
    EdgeList::new(n, edges)
}

/// Parse a text edge list (`u v` per line; `#`/`%` comment lines skipped).
/// `n` is inferred as max id + 1 unless given.
pub fn read_edge_list(text: &str, n: Option<u64>) -> Result<EdgeList, String> {
    let mut edges = Vec::new();
    let mut max_id = 0u64;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let mut it = line.split_whitespace();
        let parse = |tok: Option<&str>| -> Result<u64, String> {
            tok.ok_or_else(|| format!("line {}: missing field", lineno + 1))?
                .parse::<u64>()
                .map_err(|e| format!("line {}: {e}", lineno + 1))
        };
        let u = parse(it.next())?;
        let v = parse(it.next())?;
        max_id = max_id.max(u).max(v);
        edges.push((u, v));
    }
    let n = n.unwrap_or(if edges.is_empty() { 0 } else { max_id + 1 });
    Ok(EdgeList::new(n, edges))
}

/// Write Graphviz DOT (undirected), for visualizing small instances.
pub fn write_dot<W: Write>(w: W, el: &EdgeList, name: &str) -> io::Result<()> {
    let mut w = BufWriter::new(w);
    writeln!(w, "graph {name} {{")?;
    for &(u, v) in &el.edges {
        writeln!(w, "  {u} -- {v};")?;
    }
    writeln!(w, "}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EdgeList {
        EdgeList::new(4, vec![(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn edge_list_format() {
        let mut buf = Vec::new();
        write_edge_list(&mut buf, &sample()).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), "0 1\n1 2\n2 3\n");
    }

    #[test]
    fn metis_format() {
        let mut buf = Vec::new();
        write_metis(&mut buf, &sample()).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "4 3");
        assert_eq!(lines[1], "2");
        assert_eq!(lines[2], "1 3");
        assert_eq!(lines[3], "2 4");
        assert_eq!(lines[4], "3");
    }

    #[test]
    fn binary_roundtrip() {
        let el = sample();
        let mut buf = Vec::new();
        write_binary(&mut buf, &el).unwrap();
        assert_eq!(buf.len(), 3 * 16);
        let back = read_binary(&buf, 4);
        assert_eq!(back, el);
    }

    #[test]
    fn text_roundtrip() {
        let el = sample();
        let mut buf = Vec::new();
        write_edge_list(&mut buf, &el).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let back = read_edge_list(&text, None).unwrap();
        assert_eq!(back, el);
    }

    #[test]
    fn read_skips_comments_and_infers_n() {
        let el = read_edge_list("# header\n0 1\n% meta\n5 2\n", None).unwrap();
        assert_eq!(el.n, 6);
        assert_eq!(el.edges, vec![(0, 1), (5, 2)]);
    }

    #[test]
    fn read_reports_errors() {
        assert!(read_edge_list("0\n", None).is_err());
        assert!(read_edge_list("a b\n", None).is_err());
        assert_eq!(read_edge_list("", None).unwrap().n, 0);
    }

    #[test]
    fn varint_roundtrip_boundaries() {
        let mut buf = Vec::new();
        let values = [0u128, 1, 127, 128, 300, u64::MAX as u128, u128::MAX];
        for &x in &values {
            write_varint(&mut buf, x).unwrap();
        }
        let mut r = &buf[..];
        for &x in &values {
            assert_eq!(read_varint(&mut r).unwrap(), Some(x));
        }
        assert_eq!(read_varint(&mut r).unwrap(), None);
    }

    #[test]
    fn varint_truncation_is_an_error() {
        let mut buf = Vec::new();
        write_varint(&mut buf, 1u128 << 40).unwrap();
        let mut r = &buf[..buf.len() - 1];
        assert!(read_varint(&mut r).is_err());
    }

    #[test]
    fn varint_overflow_is_an_error() {
        // 19 continuation bytes: more than 128 bits of payload.
        let mut buf = vec![0x80u8; 19];
        buf.push(0x01);
        assert!(read_varint(&mut &buf[..]).is_err());
        // 19th byte present but with payload bits beyond bit 127.
        let mut buf = vec![0xffu8; 18];
        buf.push(0x04); // shift 126, payload 4 needs bit 128
        assert!(read_varint(&mut &buf[..]).is_err());
        // Same position with a fitting payload is fine (u128::MAX).
        let mut buf = vec![0xffu8; 18];
        buf.push(0x03);
        assert_eq!(read_varint(&mut &buf[..]).unwrap(), Some(u128::MAX));
    }

    #[test]
    fn compressed_roundtrip() {
        let el = EdgeList::new(10, vec![(0, 1), (0, 9), (3, 2), (3, 3), (9, 0), (9, 9)]);
        let mut buf = Vec::new();
        write_compressed(&mut buf, &el).unwrap();
        let back = read_compressed(&buf[..]).unwrap();
        assert_eq!(back, el);
    }

    #[test]
    fn push_slice_bytes_identical_to_per_edge_push() {
        let edges = vec![(0u64, 1u64), (0, 9), (3, 2), (3, 3), (9, 0), (9, 9)];
        let mut per_edge = CompressedEdgeWriter::new(Vec::new(), 10).unwrap();
        for &(u, v) in &edges {
            per_edge.push(u, v).unwrap();
        }
        let (a, count_a) = per_edge.finish().unwrap();

        // Mixed granularities: slice, single push, slice, empty slice.
        let mut sliced = CompressedEdgeWriter::new(Vec::new(), 10).unwrap();
        sliced.push_slice(&edges[..3]).unwrap();
        sliced.push(edges[3].0, edges[3].1).unwrap();
        sliced.push_slice(&edges[4..]).unwrap();
        sliced.push_slice(&[]).unwrap();
        let (b, count_b) = sliced.finish().unwrap();

        assert_eq!(a, b);
        assert_eq!(count_a, count_b);
    }

    #[test]
    fn push_slice_bytes_identical_to_per_edge_push_at_varint_boundaries() {
        // Every ordered pair of ids around the 1-, 8- and 9-byte varint
        // boundaries (a zigzagged delta d ≥ 0 encodes 2d, so the
        // half-values sit exactly on them) and the ends of the id
        // range: deltas of every encoded length from 1 to 10 bytes, in
        // both directions.
        let ids = [
            0u64,
            (1 << 6) - 1,
            1 << 6,
            (1 << 7) - 1,
            1 << 7,
            (1 << 55) - 1,
            1 << 55,
            (1 << 56) - 1,
            1 << 56,
            (1 << 63) - 1,
            1 << 63,
            u64::MAX,
        ];
        let mut edges = Vec::new();
        for &a in &ids {
            for &b in &ids {
                edges.push((a, b));
                edges.push((b, a));
            }
        }
        let mut per_edge = CompressedEdgeWriter::new(Vec::new(), u64::MAX).unwrap();
        for &(u, v) in &edges {
            per_edge.push(u, v).unwrap();
        }
        let (a, _) = per_edge.finish().unwrap();
        for cut in [1usize, 5, edges.len()] {
            let mut sliced = CompressedEdgeWriter::new(Vec::new(), u64::MAX).unwrap();
            for chunk in edges.chunks(cut) {
                sliced.push_slice(chunk).unwrap();
            }
            let (b, _) = sliced.finish().unwrap();
            assert_eq!(a, b, "cut {cut}");
        }
        let back = read_compressed(&a[..]).unwrap();
        assert_eq!(back.edges, edges);
        let lens: std::collections::BTreeSet<u64> = edges
            .windows(2)
            .flat_map(|w| {
                [
                    varint_len(zigzag(w[1].0 as i128 - w[0].0 as i128)),
                    varint_len(zigzag(w[1].1 as i128 - w[0].1 as i128)),
                ]
            })
            .collect();
        assert!(
            [1, 2, 8, 9, 10].iter().all(|l| lens.contains(l)),
            "{lens:?}"
        );
    }

    #[test]
    fn compressed_empty_stream() {
        let el = EdgeList::new(5, vec![]);
        let mut buf = Vec::new();
        write_compressed(&mut buf, &el).unwrap();
        let back = read_compressed(&buf[..]).unwrap();
        assert_eq!(back.n, 5);
        assert!(back.edges.is_empty());
    }

    #[test]
    fn compressed_sorted_stream_is_compact() {
        // Sorted edge lists take ~2-3 bytes per edge vs 16 raw.
        let edges: Vec<(u64, u64)> = (0..1000u64).map(|i| (i / 4, i % 997)).collect();
        let el = EdgeList::new(1000, edges);
        let mut buf = Vec::new();
        write_compressed(&mut buf, &el).unwrap();
        assert!(
            buf.len() < 1000 * 4 + 16,
            "compressed size {} too large",
            buf.len()
        );
        assert_eq!(read_compressed(&buf[..]).unwrap(), el);
    }

    #[test]
    fn compressed_rejects_bad_magic() {
        let buf = b"NOTMAGIC\0\0\0\0\0\0\0\0".to_vec();
        assert!(read_compressed(&buf[..]).is_err());
    }

    #[test]
    fn compressed_rejects_underflowing_delta() {
        // A first record whose u-delta is negative would decode to a
        // vertex id below zero: must be InvalidData, not a wrapped id.
        let mut buf = Vec::new();
        buf.extend_from_slice(&COMPRESSED_MAGIC);
        buf.extend_from_slice(&5u64.to_le_bytes());
        write_varint(&mut buf, 1).unwrap(); // zigzag(-1)
        write_varint(&mut buf, 0).unwrap(); // zigzag(0)
        assert!(read_compressed(&buf[..]).is_err());
    }

    #[test]
    fn compressed_multi_block_roundtrip() {
        // Cross several restart-block boundaries, including a ragged
        // final block; deltas restart per block so the stream must still
        // round-trip exactly.
        let m = COMPRESSED_BLOCK_EDGES as usize * 2 + 1234;
        let edges: Vec<(u64, u64)> = (0..m as u64).map(|i| (i / 3, (i * 7) % 5000)).collect();
        let el = EdgeList::new(5000, edges);
        let mut buf = Vec::new();
        write_compressed(&mut buf, &el).unwrap();
        assert_eq!(read_compressed(&buf[..]).unwrap(), el);

        // Byte identity between push and push_slice across block
        // boundaries.
        let mut per_edge = CompressedEdgeWriter::new(Vec::new(), 5000).unwrap();
        for &(u, v) in &el.edges {
            per_edge.push(u, v).unwrap();
        }
        let (a, _) = per_edge.finish().unwrap();
        let mut sliced = CompressedEdgeWriter::new(Vec::new(), 5000).unwrap();
        sliced.push_slice(&el.edges).unwrap();
        let (b, _) = sliced.finish().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn compressed_reader_verifies_block_checksums() {
        // Corrupting the stored block checksum (metadata the decoded
        // stream wouldn't otherwise notice) must fail the read: the
        // format is self-validating without a manifest.
        let el = EdgeList::new(100, (0..500u64).map(|i| (i % 100, (i + 1) % 100)).collect());
        let mut buf = Vec::new();
        write_compressed(&mut buf, &el).unwrap();
        // Bytes 16.. : varint(count), varint(len), then the checksum.
        let mut r = &buf[16..];
        let c = read_varint(&mut r).unwrap().unwrap();
        let l = read_varint(&mut r).unwrap().unwrap();
        let checksum_at = 16 + (varint_len(c) + varint_len(l)) as usize;
        let mut corrupt = buf.clone();
        corrupt[checksum_at] ^= 0x01;
        assert!(read_compressed(&corrupt[..]).is_err());
        // A payload flip is caught by the same check.
        let mut corrupt = buf.clone();
        corrupt[checksum_at + 9] ^= 0x01;
        assert!(read_compressed(&corrupt[..]).is_err());
        // The pristine stream still round-trips.
        assert_eq!(read_compressed(&buf[..]).unwrap(), el);
    }

    #[test]
    fn compressed_block_headers_are_walkable() {
        // The block headers alone must reproduce the edge count: this is
        // what sampled shard validation's structural walk relies on.
        let m = COMPRESSED_BLOCK_EDGES as usize + 77;
        let el = EdgeList::new(
            100,
            (0..m as u64).map(|i| (i % 100, (i + 1) % 100)).collect(),
        );
        let mut buf = Vec::new();
        write_compressed(&mut buf, &el).unwrap();
        let mut r = &buf[16..];
        let mut total = 0u64;
        let mut blocks = 0;
        while let Some(count) = read_varint(&mut r).unwrap() {
            let len = read_varint(&mut r).unwrap().unwrap() as usize;
            let mut ck = [0u8; 8];
            r.read_exact(&mut ck).unwrap();
            r = &r[len..];
            total += count as u64;
            blocks += 1;
        }
        assert_eq!(total, m as u64);
        assert_eq!(blocks, 2);
    }

    #[test]
    fn dot_output() {
        let mut buf = Vec::new();
        write_dot(&mut buf, &sample(), "g").unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("graph g {"));
        assert!(text.contains("  1 -- 2;"));
        assert!(text.trim_end().ends_with('}'));
    }
}

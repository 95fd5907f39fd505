//! The on-disk edge formats: one streaming encoder ([`EdgeEncoder`])
//! and one block decoder per format — text ([`TextEncoder`],
//! [`decode_text`]), binary ([`BinaryEncoder`], [`decode_binary`]) and
//! the compressed varint+delta shard codec ([`CompressedEdgeWriter`],
//! [`decode_compressed`]) — plus the METIS writer. There is no
//! whole-[`EdgeList`] reader or writer: files of these formats are
//! written and read through `kagen_pipeline::ShardFormat::{sink,
//! stream_file}`, whatever the front end.
//!
//! **One pass per edge.** Every encoder ([`EdgeEncoder`]) and decoder
//! folds the stream checksum the shard manifests record
//! ([`edge_checksum_step`] from 0 over every edge) in the same loop that
//! writes or parses the edge: `kagen_pipeline` neither writes nor reads
//! a shard's edges a second time to checksum them. The compressed codec
//! folds its per-block checksum in that loop too; both folds share the
//! endpoints' half of the mix.
//!
//! **Varints of 2 to 8 bytes** (zigzagged deltas below 2^56) are stored
//! and loaded as one 8-byte word. The 7-bit groups are spread into the
//! bytes by one `pdep`, and gathered back by one `pext`, when the build
//! targets BMI2 (`cfg(target_feature = "bmi2")`, which the workspace's
//! `target-cpu=native` turns on where the host has it); otherwise by
//! three shift/mask steps. Both give the same bytes. AMD Zen 1 and Zen 2
//! run `pdep`/`pext` in microcode (tens of cycles, data-dependent), so
//! on those hosts build with BMI2 off (e.g.
//! `RUSTFLAGS="-C target-cpu=native -C target-feature=-bmi2"`). One-byte
//! varints, the common case of sorted and spatial streams, keep a branch
//! of their own; 9- and 10-byte ones take the bytewise path. The decoder
//! takes both varints of an edge from one load when they fit in it, so
//! where the next edge starts is known one load per edge, not one per
//! varint.

use crate::EdgeList;
use std::io::{self, BufRead, BufWriter, IoSlice, Read, Seek, Write};

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
/// an FNV-style mix of the running value with both endpoints. The
/// endpoints' half is grouped on its own, so two folds over one edge
/// compute it once.
#[inline]
pub fn edge_checksum_step(acc: u64, u: u64, v: u64) -> u64 {
    let mut h = acc ^ (u.rotate_left(17) ^ v.wrapping_mul(0x9E3779B97F4A7C15));
    h = h.wrapping_mul(0x100000001b3);
    h ^ (h >> 29)
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

/// Decode one LEB128 varint from a byte source (`Ok(None)` = no more
/// bytes): `Ok(None)` when the source ends before the first byte, an
/// error when it ends mid-number or the number overflows `u128`.
fn varint_from(mut next_byte: impl FnMut() -> io::Result<Option<u8>>) -> io::Result<Option<u128>> {
    let mut x = 0u128;
    let mut shift = 0u32;
    loop {
        let Some(byte) = next_byte()? else {
            return if shift == 0 {
                Ok(None)
            } else {
                Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "truncated varint",
                ))
            };
        };
        let payload = (byte & 0x7f) as u128;
        // Reject both too-long varints and a final byte whose high
        // payload bits would be shifted out of u128.
        if shift >= 128 || (shift > 121 && payload >> (128 - shift) != 0) {
            return Err(invalid_data("varint overflows u128"));
        }
        x |= payload << shift;
        if byte & 0x80 == 0 {
            return Ok(Some(x));
        }
        shift += 7;
    }
}

/// Decode one LEB128 varint; `Ok(None)` on clean EOF before the first
/// byte, an error on truncation mid-number.
pub fn read_varint<R: Read>(r: &mut R) -> io::Result<Option<u128>> {
    let mut buf = [0u8; 1];
    varint_from(|| Ok((r.read(&mut buf)? != 0).then_some(buf[0])))
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

/// Longest varint [`read_varint`] accepts (a full `u128`).
const MAX_VARINT_BYTES: usize = 19;

/// Upper bound on a block's payload length per edge: two varints of
/// [`MAX_VARINT_BYTES`]. Readers reject a block header claiming more
/// before they allocate for it.
const MAX_EDGE_BYTES: usize = 2 * MAX_VARINT_BYTES;

/// The most the encoder writes for one edge: two zigzagged deltas of
/// 65 bits, 10 bytes each. Its scratch is sized by it.
const MAX_WRITTEN_EDGE_BYTES: usize = 20;

/// Longest block header: `varint(count ≤ 4096)` (2 bytes),
/// `varint(len ≤ 4096 · 38)` (3 bytes), 8 checksum bytes — rounded up.
const HEADER_RESERVE: usize = 16;

const BLOCK_EDGES: usize = COMPRESSED_BLOCK_EDGES as usize;

/// Finished blocks wait in the encoder's scratch until they add up to
/// this many bytes, then leave in one vectored write: file systems take
/// a few large writes faster than many block-sized ones.
const WRITE_BYTES: usize = 64 << 10;

/// Bit 7 of every byte of a word: the varint continuation bits.
const CONT_BITS: u64 = 0x8080_8080_8080_8080;

/// Bits 0–6 of every byte of a word: the varint payload bits.
const GROUP_BITS: u64 = !CONT_BITS;

/// The 7-bit groups of `z < 2^56`, one per byte from the low end: the
/// payload bits of `z`'s varint, continuation bits clear.
#[cfg(all(target_arch = "x86_64", target_feature = "bmi2"))]
#[inline(always)]
fn spread7(z: u64) -> u64 {
    // SAFETY: `pdep` is a BMI2 instruction, and this function is only
    // compiled for targets with BMI2 (the `cfg` above).
    unsafe { std::arch::x86_64::_pdep_u64(z, GROUP_BITS) }
}

#[cfg(not(all(target_arch = "x86_64", target_feature = "bmi2")))]
use portable::spread7;

/// The 7-bit groups of the low bytes of `w` that `bytes` covers (every
/// bit of the low 1 to 8 bytes), closed up: the value of the varint
/// that fills those bytes.
#[cfg(all(target_arch = "x86_64", target_feature = "bmi2"))]
#[inline(always)]
fn gather7(w: u64, bytes: u64) -> u64 {
    // SAFETY: `pext` is a BMI2 instruction, and this function is only
    // compiled for targets with BMI2 (the `cfg` above).
    unsafe { std::arch::x86_64::_pext_u64(w, bytes & GROUP_BITS) }
}

#[cfg(not(all(target_arch = "x86_64", target_feature = "bmi2")))]
use portable::gather7;

/// [`spread7`] and [`gather7`] without BMI2: three shift/mask steps each.
#[cfg(any(test, not(all(target_arch = "x86_64", target_feature = "bmi2"))))]
mod portable {
    use super::GROUP_BITS;

    /// Spread the 7-bit groups one per byte: 28|28, then 14|14 in each
    /// half, then 7|7 in each quarter.
    #[inline(always)]
    pub(super) fn spread7(z: u64) -> u64 {
        let mut x = ((z & 0x00ff_ffff_f000_0000) << 4) | (z & 0x0000_0000_0fff_ffff);
        x = ((x & 0x0fff_c000_0fff_c000) << 2) | (x & 0x0000_3fff_0000_3fff);
        ((x & 0x3f80_3f80_3f80_3f80) << 1) | (x & 0x007f_007f_007f_007f)
    }

    /// Drop the bytes outside `bytes` and the continuation bits, then
    /// close up the 7-bit groups: [`spread7`] in reverse.
    #[inline(always)]
    pub(super) fn gather7(w: u64, bytes: u64) -> u64 {
        let mut x = w & bytes & GROUP_BITS;
        x = ((x & 0x7f00_7f00_7f00_7f00) >> 1) | (x & 0x007f_007f_007f_007f);
        x = ((x & 0x3fff_0000_3fff_0000) >> 2) | (x & 0x0000_3fff_0000_3fff);
        ((x & 0x0fff_ffff_0000_0000) >> 4) | (x & 0x0000_0000_0fff_ffff)
    }
}

/// Store the varint of `z` at `buf[pos..]` and return the position
/// after it. Writes up to 8 bytes past `pos` for values below 2^56
/// (callers keep that slack), exactly the varint's bytes above.
#[inline(always)]
fn put_varint(buf: &mut [u8], pos: usize, z: u64) -> usize {
    if z < 0x80 {
        buf[pos] = z as u8;
        return pos + 1;
    }
    put_varint_multi(buf, pos, z)
}

/// [`put_varint`] of `z ≥ 0x80`. Below 2^56 (2..=8 bytes, no loop):
/// the groups spread one per byte, the continuation bit set on every
/// byte but the last, 8 bytes stored.
#[inline]
fn put_varint_multi(buf: &mut [u8], pos: usize, z: u64) -> usize {
    if z >> 56 != 0 {
        return put_varint_wide(buf, pos, z as u128);
    }
    let x = spread7(z);
    // The top nonzero byte of `x` is the varint's last: round its
    // leading zeros up to whole bytes.
    let skip = (x.leading_zeros() + 7) & !7;
    buf[pos..pos + 8].copy_from_slice(&(x | CONT_BITS >> skip).to_le_bytes());
    pos + 9 - (skip >> 3) as usize
}

/// The bytewise encoder ([`write_varint`]) for 9- and 10-byte varints:
/// deltas at or beyond ±2^55, up to the 65-bit deltas between ids at
/// opposite ends of the `u64` range.
#[cold]
fn put_varint_wide(buf: &mut [u8], pos: usize, z: u128) -> usize {
    let end = buf.len();
    let mut rest = &mut buf[pos..];
    // kagen-lint: allow(r1) -- the scratch is sized for a block of worst-case (10-byte) varints plus slack, so the slice never runs out
    write_varint(&mut rest, z).expect("the scratch holds a worst-case block");
    end - rest.len()
}

/// Store the zigzag-varint of the delta `to − from` at `buf[pos..]`
/// (with [`put_varint`]'s slack) and return the position after it.
#[inline(always)]
fn put_delta(buf: &mut [u8], pos: usize, from: u64, to: u64) -> usize {
    let d = to.wrapping_sub(from) as i64;
    if (d >= 0) == (to >= from) {
        put_varint(buf, pos, ((d << 1) ^ (d >> 63)) as u64)
    } else {
        // The delta needs 65 bits (never, for ids below 2^63).
        put_varint_wide(buf, pos, zigzag(to as i128 - from as i128))
    }
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
    /// The stream checksum ([`EdgeEncoder::checksum`]).
    checksum: u64,
    block_count: usize,
    block_checksum: u64,
    /// Finished blocks (`finished`, in stream order), then the pending
    /// one from `block_at`: [`HEADER_RESERVE`] bytes its header is
    /// right-aligned into when it is finished, then the payload (`pos`
    /// is its end). Sized once for [`WRITE_BYTES`] plus a worst-case
    /// block (144 KiB; pages a stream never fills stay untouched).
    scratch: Vec<u8>,
    block_at: usize,
    pos: usize,
    finished: Vec<std::ops::Range<usize>>,
}

// Manual impl: `W` need not be `Debug`, and the scratch buffer is
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
            checksum: 0,
            block_count: 0,
            block_checksum: 0,
            scratch: vec![
                0;
                WRITE_BYTES + HEADER_RESERVE + BLOCK_EDGES * MAX_WRITTEN_EDGE_BYTES + 8
            ],
            block_at: 0,
            pos: HEADER_RESERVE,
            finished: Vec::new(),
        })
    }

    /// Encode `edges` (which fit the pending block) into the scratch,
    /// folding the block and the stream checksum as it goes.
    fn encode(&mut self, edges: &[(u64, u64)]) {
        let buf = &mut self.scratch[..];
        let (mut prev_u, mut prev_v) = (self.prev_u, self.prev_v);
        let (mut block, mut stream) = (self.block_checksum, self.checksum);
        let mut pos = self.pos;
        for &(u, v) in edges {
            pos = put_delta(buf, pos, prev_u, u);
            pos = put_delta(buf, pos, prev_v, v);
            block = edge_checksum_step(block, u, v);
            stream = edge_checksum_step(stream, u, v);
            (prev_u, prev_v) = (u, v);
        }
        (self.prev_u, self.prev_v) = (prev_u, prev_v);
        (self.block_checksum, self.checksum) = (block, stream);
        self.pos = pos;
        self.block_count += edges.len();
        self.count += edges.len() as u64;
    }

    /// Finish the pending block: its header goes right-aligned against
    /// the payload, and the next block starts behind it. Finished
    /// blocks are written out once they reach [`WRITE_BYTES`].
    fn finish_block(&mut self) -> io::Result<()> {
        if self.block_count == 0 {
            return Ok(());
        }
        let payload_at = self.block_at + HEADER_RESERVE;
        let mut header = [0u8; HEADER_RESERVE];
        let mut rest = &mut header[..];
        write_varint(&mut rest, self.block_count as u128)?;
        write_varint(&mut rest, (self.pos - payload_at) as u128)?;
        rest.write_all(&self.block_checksum.to_le_bytes())?;
        let header_len = HEADER_RESERVE - rest.len();
        let start = payload_at - header_len;
        self.scratch[start..payload_at].copy_from_slice(&header[..header_len]);
        self.finished.push(start..self.pos);
        self.block_at = self.pos;
        self.pos = self.block_at + HEADER_RESERVE;
        self.block_count = 0;
        self.block_checksum = 0;
        self.prev_u = 0;
        self.prev_v = 0;
        if self.block_at >= WRITE_BYTES {
            self.write_finished()?;
        }
        Ok(())
    }

    /// Hand the finished blocks to the writer in one vectored write (or
    /// as many as it takes) and start the scratch over — after a failed
    /// write too, so a caller that pushes on cannot run off its end.
    fn write_finished(&mut self) -> io::Result<()> {
        let mut slices: Vec<IoSlice> = self
            .finished
            .iter()
            .map(|block| IoSlice::new(&self.scratch[block.clone()]))
            .collect();
        let mut rest = &mut slices[..];
        let written = loop {
            if rest.is_empty() {
                break Ok(());
            }
            match self.w.write_vectored(rest) {
                Ok(0) => break Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => IoSlice::advance_slices(&mut rest, n),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => break Err(e),
            }
        };
        self.finished.clear();
        self.block_at = 0;
        self.pos = HEADER_RESERVE;
        written
    }

    /// Append one edge: a one-element [`Self::push_slice`].
    #[inline]
    pub fn push(&mut self, u: u64, v: u64) -> io::Result<()> {
        self.push_slice(&[(u, v)])
    }

    /// Append a slice of edges. How a stream is cut into slices never
    /// shows in the bytes; the pending block bounds memory regardless
    /// of slice length.
    pub fn push_slice(&mut self, mut edges: &[(u64, u64)]) -> io::Result<()> {
        while !edges.is_empty() {
            let room = BLOCK_EDGES - self.block_count;
            let (head, tail) = edges.split_at(room.min(edges.len()));
            self.encode(head);
            if self.block_count == BLOCK_EDGES {
                self.finish_block()?;
            }
            edges = tail;
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
        self.close()?;
        Ok((self.w, self.count))
    }
}

fn invalid_data(msg: impl Into<Box<dyn std::error::Error + Send + Sync>>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

#[cold]
fn truncated_payload() -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, "block truncated mid-payload")
}

#[cold]
fn id_out_of_range() -> io::Error {
    invalid_data("edge delta decodes outside the u64 vertex-id range")
}

/// Decode the edge at `payload[*pos..]` (two zigzag-varint deltas)
/// against `prev`, advancing `pos`. When both varints end inside one
/// 8-byte load — two one-byte deltas, or any two that take 8 bytes
/// together — the edge's length comes from that load alone, so the
/// next edge's load need not wait for the first varint's end.
#[inline(always)]
fn next_edge(payload: &[u8], pos: &mut usize, prev: (u64, u64)) -> io::Result<(u64, u64)> {
    let at = *pos;
    if let Some(word) = payload.get(at..at + 8) {
        // kagen-lint: allow(r1) -- `get(at..at + 8)` yields exactly 8 bytes or `None`
        let w = u64::from_le_bytes(word.try_into().expect("an 8-byte slice"));
        if w & 0x8080 == 0 {
            // Sorted and spatial streams are mostly one-byte deltas.
            *pos = at + 2;
            return Ok((
                apply_delta(prev.0, w & 0x7f)?,
                apply_delta(prev.1, w >> 8 & 0x7f)?,
            ));
        }
        // The lowest byte without a continuation bit ends the u-varint,
        // the next one the v-varint.
        let stops = !w & CONT_BITS;
        let second = stops & stops.wrapping_sub(1);
        if second != 0 {
            let split = stops.trailing_zeros() + 1;
            let v_stops = second >> split;
            *pos = at + ((second.trailing_zeros() as usize + 1) >> 3);
            let zu = gather7(w, stops ^ (stops - 1));
            let zv = gather7(w >> split, v_stops ^ (v_stops - 1));
            return Ok((apply_delta(prev.0, zu)?, apply_delta(prev.1, zv)?));
        }
    }
    Ok((
        next_id(payload, pos, prev.0)?,
        next_id(payload, pos, prev.1)?,
    ))
}

/// `prev` moved by the zigzagged delta `z`, or the error for an id
/// outside the `u64` range.
#[inline(always)]
fn apply_delta(prev: u64, z: u64) -> io::Result<u64> {
    let delta = ((z >> 1) as i64) ^ -((z & 1) as i64);
    prev.checked_add_signed(delta).ok_or_else(id_out_of_range)
}

/// Decode the zigzag-varint delta at `payload[*pos..]` and apply it to
/// `prev`, advancing `pos`: [`next_edge`]'s path for one varint.
#[inline(always)]
fn next_id(payload: &[u8], pos: &mut usize, prev: u64) -> io::Result<u64> {
    let at = *pos;
    let Some(word) = payload.get(at..at + 8) else {
        return next_id_wide(payload, pos, prev);
    };
    // kagen-lint: allow(r1) -- `get(at..at + 8)` yields exactly 8 bytes or `None`
    let w = u64::from_le_bytes(word.try_into().expect("an 8-byte slice"));
    // The lowest byte without a continuation bit ends the varint.
    let stops = !w & CONT_BITS;
    if stops == 0 {
        return next_id_wide(payload, pos, prev);
    }
    *pos = at + ((stops.trailing_zeros() as usize + 1) >> 3);
    apply_delta(prev, gather7(w, stops ^ (stops - 1)))
}

/// The bytewise decoder — the rules of [`read_varint`] (any length up
/// to a full `u128`, overflow rejected) — for varints of 9 bytes and
/// more and for the last 8 bytes of a payload.
#[cold]
fn next_id_wide(payload: &[u8], pos: &mut usize, prev: u64) -> io::Result<u64> {
    let mut rest = payload[*pos..].iter();
    let z = varint_from(|| Ok(rest.next().copied()))?.ok_or_else(truncated_payload)?;
    *pos = payload.len() - rest.as_slice().len();
    (prev as i128)
        .checked_add(unzigzag(z))
        .and_then(|id| u64::try_from(id).ok())
        .ok_or_else(id_out_of_range)
}

/// Decode one standalone restart-block payload (`count` edges, deltas
/// starting from `(0, 0)`) into `out`, replacing its contents, and
/// return `(block, stream)`: the block's own [`edge_checksum_step`]
/// checksum (folded from 0) and the running stream checksum `stream`
/// folded on over the block's edges — both in the decode loop. Errors
/// on truncation, trailing bytes, varint overflow and deltas outside
/// the `u64` id range. The one decoder of the format: every reader
/// fetches blocks through [`CompressedEdgeReader::next_block`], which
/// runs it.
fn decode_block_into(
    payload: &[u8],
    count: usize,
    out: &mut Vec<(u64, u64)>,
    stream: u64,
) -> io::Result<(u64, u64)> {
    out.clear();
    // An edge takes at least two bytes, so this also keeps `count` —
    // a number from a file — from sizing `out` beyond the payload.
    if payload.len() / 2 < count {
        return Err(truncated_payload());
    }
    out.reserve(count);
    let (mut prev_u, mut prev_v) = (0u64, 0u64);
    let (mut block, mut stream) = (0u64, stream);
    let mut pos = 0usize;
    for _ in 0..count {
        (prev_u, prev_v) = next_edge(payload, &mut pos, (prev_u, prev_v))?;
        block = edge_checksum_step(block, prev_u, prev_v);
        stream = edge_checksum_step(stream, prev_u, prev_v);
        out.push((prev_u, prev_v));
    }
    if pos != payload.len() {
        return Err(invalid_data("block has trailing bytes"));
    }
    Ok((block, stream))
}

/// Block-at-a-time decoder of the compressed edge format. A block is
/// exposed only after its length and checksum have been verified, so
/// reads are self-validating even without a manifest. Memory is one
/// payload buffer and one block of edges, both capped by the format's
/// block limits whatever the file claims.
pub struct CompressedEdgeReader<R: BufRead> {
    r: R,
    n: u64,
    /// [`Self::checksum`].
    checksum: u64,
    payload: Vec<u8>,
    /// The current block's edges (empty before the first block and
    /// after the last).
    edges: Vec<(u64, u64)>,
}

// Manual impl: `R` need not be `Debug`, and the buffers are noise.
impl<R: BufRead> std::fmt::Debug for CompressedEdgeReader<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompressedEdgeReader")
            .field("n", &self.n)
            .finish_non_exhaustive()
    }
}

/// A block header that passed the format's limits.
struct BlockHeader {
    count: usize,
    len: usize,
    checksum: u64,
}

impl<R: BufRead> CompressedEdgeReader<R> {
    /// Open a stream, validating the magic header.
    pub fn new(mut r: R) -> io::Result<Self> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if magic != COMPRESSED_MAGIC {
            return Err(invalid_data("not a KGSHRD02 compressed edge stream"));
        }
        let mut n_bytes = [0u8; 8];
        r.read_exact(&mut n_bytes)?;
        Ok(CompressedEdgeReader {
            r,
            n: u64::from_le_bytes(n_bytes),
            checksum: 0,
            payload: Vec::new(),
            edges: Vec::new(),
        })
    }

    /// Vertex count recorded in the header.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// The stream checksum ([`edge_checksum_step`] from 0) of every edge
    /// [`Self::next_block`] has returned, folded as the blocks decoded.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Read the next block header; `Ok(None)` on clean EOF before its
    /// first byte. Enforces `1 ≤ count ≤ COMPRESSED_BLOCK_EDGES` and
    /// `len ≤ MAX_EDGE_BYTES · count`, so nothing downstream sizes a
    /// buffer or a seek by an unchecked number from the file.
    fn read_header(&mut self) -> io::Result<Option<BlockHeader>> {
        let Some(count) = read_varint(&mut self.r)? else {
            return Ok(None);
        };
        let Some(len) = read_varint(&mut self.r)? else {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "block header truncated after edge count",
            ));
        };
        let mut checksum = [0u8; 8];
        self.r.read_exact(&mut checksum)?;
        if count == 0 || count > COMPRESSED_BLOCK_EDGES as u128 {
            return Err(invalid_data("block edge count outside 1..=4096"));
        }
        if len > (count as usize * MAX_EDGE_BYTES) as u128 {
            return Err(invalid_data("block length exceeds 38 bytes per edge"));
        }
        Ok(Some(BlockHeader {
            count: count as usize,
            len: len as usize,
            checksum: u64::from_le_bytes(checksum),
        }))
    }

    /// Fetch, decode and verify the next block; `Ok(None)` at end of
    /// stream. The slice is also available from [`Self::block`] until
    /// the next call.
    pub fn next_block(&mut self) -> io::Result<Option<&[(u64, u64)]>> {
        self.edges.clear();
        let Some(header) = self.read_header()? else {
            return Ok(None);
        };
        self.payload.resize(header.len, 0);
        self.r.read_exact(&mut self.payload)?;
        let decoded =
            decode_block_into(&self.payload, header.count, &mut self.edges, self.checksum);
        match decoded {
            Ok((block, stream)) if block == header.checksum => self.checksum = stream,
            Ok(_) => {
                self.edges.clear();
                return Err(invalid_data("block checksum mismatch (corrupt block)"));
            }
            Err(e) => {
                self.edges.clear();
                return Err(e);
            }
        }
        Ok(Some(&self.edges))
    }

    /// The block the last [`Self::next_block`] returned (empty before
    /// the first block, after the last, and after an error).
    pub fn block(&self) -> &[(u64, u64)] {
        &self.edges
    }
}

impl<R: BufRead + Seek> CompressedEdgeReader<R> {
    /// Step over the next block without reading its payload; returns
    /// its edge count, `Ok(None)` at end of stream. Seeking does not
    /// notice a payload that ends early — compare the final position
    /// with the file length.
    pub fn skip_block(&mut self) -> io::Result<Option<u64>> {
        self.edges.clear();
        let Some(header) = self.read_header()? else {
            return Ok(None);
        };
        self.r.seek_relative(header.len as i64)?;
        Ok(Some(header.count as u64))
    }

    /// Byte offset of the next unread byte of the stream.
    pub fn position(&mut self) -> io::Result<u64> {
        self.r.stream_position()
    }
}

/// A streaming encoder of one on-disk edge format — the one place that
/// format's bytes are produced. How a stream is cut into slices never
/// shows in the bytes.
pub trait EdgeEncoder {
    /// Append a slice of edges.
    fn push_slice(&mut self, edges: &[(u64, u64)]) -> io::Result<()>;

    /// End the stream: write out what is pending and flush the
    /// underlying writer.
    fn close(&mut self) -> io::Result<()>;

    /// The stream checksum of every edge pushed so far
    /// ([`edge_checksum_step`] folded from 0), folded in the loop that
    /// encodes the edges.
    fn checksum(&self) -> u64;
}

impl<E: EdgeEncoder + ?Sized> EdgeEncoder for Box<E> {
    fn push_slice(&mut self, edges: &[(u64, u64)]) -> io::Result<()> {
        (**self).push_slice(edges)
    }

    fn close(&mut self) -> io::Result<()> {
        (**self).close()
    }

    fn checksum(&self) -> u64 {
        (**self).checksum()
    }
}

/// What a decoder hands verified blocks of edges to.
type Emit<'a> = dyn FnMut(&[(u64, u64)]) + 'a;

impl<W: Write> EdgeEncoder for CompressedEdgeWriter<W> {
    fn push_slice(&mut self, edges: &[(u64, u64)]) -> io::Result<()> {
        CompressedEdgeWriter::push_slice(self, edges)
    }

    fn close(&mut self) -> io::Result<()> {
        self.finish_block()?;
        self.write_finished()?;
        self.w.flush()
    }

    fn checksum(&self) -> u64 {
        self.checksum
    }
}

/// Decode a compressed edge stream block by block: `emit` sees a block
/// only after its length and checksum have been verified. Returns the
/// stream checksum ([`CompressedEdgeReader::checksum`]).
pub fn decode_compressed<R: BufRead>(r: R, emit: &mut Emit) -> io::Result<u64> {
    let mut dec = CompressedEdgeReader::new(r)?;
    while let Some(block) = dec.next_block()? {
        emit(block);
    }
    Ok(dec.checksum())
}

/// Encoder of the text format: one `u v` line per edge (the format the
/// KaGen tool emits). Lines are formatted into a scratch of at most one
/// block of edges and leave in one `write_all` per block.
#[derive(Debug)]
pub struct TextEncoder<W: Write> {
    w: W,
    scratch: String,
    checksum: u64,
}

impl<W: Write> TextEncoder<W> {
    /// Encoder writing to `w`.
    pub fn new(w: W) -> Self {
        TextEncoder {
            w,
            scratch: String::new(),
            checksum: 0,
        }
    }
}

impl<W: Write> EdgeEncoder for TextEncoder<W> {
    fn push_slice(&mut self, edges: &[(u64, u64)]) -> io::Result<()> {
        use std::fmt::Write as _;
        // Chunked so one huge slice cannot balloon the scratch buffer.
        for chunk in edges.chunks(BLOCK_EDGES) {
            self.scratch.clear();
            for &(u, v) in chunk {
                // Formatting integers into a `String` cannot fail.
                let _ = writeln!(self.scratch, "{u} {v}");
                self.checksum = edge_checksum_step(self.checksum, u, v);
            }
            self.w.write_all(self.scratch.as_bytes())?;
        }
        Ok(())
    }

    fn close(&mut self) -> io::Result<()> {
        self.w.flush()
    }

    fn checksum(&self) -> u64 {
        self.checksum
    }
}

/// Longest line the text decoder buffers; a longer one is an error, so
/// a file without newlines cannot size an allocation.
const MAX_LINE_BYTES: usize = 1 << 16;

/// One field of a text line: the canonical decimal form of a `u64`.
fn parse_field(field: &[u8]) -> Option<u64> {
    if field.is_empty() || (field[0] == b'0' && field.len() > 1) {
        return None;
    }
    field.iter().try_fold(0u64, |acc, &b| {
        let digit = b.checked_sub(b'0').filter(|&d| d <= 9)?;
        acc.checked_mul(10)?.checked_add(digit as u64)
    })
}

/// One line of the text format (without its `\n`): `None` for a blank
/// or comment line, the edge otherwise.
fn parse_line(line: &[u8]) -> Result<Option<(u64, u64)>, &'static str> {
    if line.len() > MAX_LINE_BYTES {
        return Err("longer than 65536 bytes");
    }
    let blank = |b: &u8| *b == b' ' || *b == b'\t';
    let mut fields = line.split(blank).filter(|f| !f.is_empty());
    let Some(first) = fields.next() else {
        return Ok(None);
    };
    if first[0] == b'#' || first[0] == b'%' {
        return Ok(None);
    }
    let second = fields.next().ok_or("missing field")?;
    if fields.next().is_some() {
        return Err("more than two fields");
    }
    match (parse_field(first), parse_field(second)) {
        (Some(u), Some(v)) => Ok(Some((u, v))),
        _ => Err("a field is not a canonical decimal u64"),
    }
}

/// Decode the text format, handing `emit` blocks of at most
/// [`COMPRESSED_BLOCK_EDGES`] edges whose lines all parsed, and return
/// the stream checksum ([`edge_checksum_step`] from 0), folded as the
/// lines parse. The
/// grammar, stated here once: a line (ended by `\n` or the end of
/// input) is blank (spaces and tabs only), a comment (first non-blank
/// byte `#` or `%`), or exactly two fields separated by spaces or tabs,
/// each the canonical decimal form of a `u64` — digits only, no sign,
/// no leading zero. Everything else — a third token, `+5`, a lone
/// field, a number above `u64::MAX`, a NUL, a carriage return — is
/// `InvalidData` naming the line.
pub fn decode_text<R: BufRead>(mut r: R, emit: &mut Emit) -> io::Result<u64> {
    let mut edges = Vec::with_capacity(BLOCK_EDGES);
    let mut line = Vec::new();
    let mut lineno = 0u64;
    let mut checksum = 0u64;
    loop {
        line.clear();
        let limit = MAX_LINE_BYTES as u64 + 1;
        if (&mut r).take(limit).read_until(b'\n', &mut line)? == 0 {
            break;
        }
        lineno += 1;
        if line.last() == Some(&b'\n') {
            line.pop();
        }
        let parsed = parse_line(&line);
        if let Some((u, v)) =
            parsed.map_err(|what| invalid_data(format!("line {lineno}: {what}")))?
        {
            checksum = edge_checksum_step(checksum, u, v);
            edges.push((u, v));
        }
        if edges.len() == BLOCK_EDGES {
            emit(&edges);
            edges.clear();
        }
    }
    if !edges.is_empty() {
        emit(&edges);
    }
    Ok(checksum)
}

/// Write METIS format: header `n m`, then one line of 1-based neighbors per
/// vertex. Expects a canonical undirected edge list.
pub fn write_metis<W: Write>(w: W, el: &EdgeList) -> io::Result<()> {
    let csr = crate::Csr::try_undirected(el)?;
    let mut w = BufWriter::new(w);
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

/// Encoder of the binary format: raw little-endian `u64` pairs, 16
/// bytes per edge, one `write_all` per block of edges.
#[derive(Debug)]
pub struct BinaryEncoder<W: Write> {
    w: W,
    scratch: Vec<u8>,
    checksum: u64,
}

impl<W: Write> BinaryEncoder<W> {
    /// Encoder writing to `w`.
    pub fn new(w: W) -> Self {
        BinaryEncoder {
            w,
            scratch: Vec::with_capacity(BLOCK_EDGES * 16),
            checksum: 0,
        }
    }
}

impl<W: Write> EdgeEncoder for BinaryEncoder<W> {
    fn push_slice(&mut self, edges: &[(u64, u64)]) -> io::Result<()> {
        // Chunked so one huge slice cannot balloon the scratch buffer.
        for chunk in edges.chunks(BLOCK_EDGES) {
            self.scratch.clear();
            for &(u, v) in chunk {
                self.scratch.extend_from_slice(&u.to_le_bytes());
                self.scratch.extend_from_slice(&v.to_le_bytes());
                self.checksum = edge_checksum_step(self.checksum, u, v);
            }
            self.w.write_all(&self.scratch)?;
        }
        Ok(())
    }

    fn close(&mut self) -> io::Result<()> {
        self.w.flush()
    }

    fn checksum(&self) -> u64 {
        self.checksum
    }
}

/// Decode the binary format, handing `emit` blocks of at most
/// [`COMPRESSED_BLOCK_EDGES`] records (64 KiB), and return the stream
/// checksum ([`edge_checksum_step`] from 0), folded as the records
/// decode. Input that ends inside a 16-byte record is `UnexpectedEof`.
pub fn decode_binary<R: Read>(mut r: R, emit: &mut Emit) -> io::Result<u64> {
    let mut bytes = vec![0u8; BLOCK_EDGES * 16];
    let mut edges = Vec::with_capacity(BLOCK_EDGES);
    let mut checksum = 0u64;
    loop {
        // Fill the buffer; only the end of input leaves it short.
        let mut filled = 0;
        while filled < bytes.len() {
            match r.read(&mut bytes[filled..]) {
                Ok(0) => break,
                Ok(k) => filled += k,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let (words, rest) = bytes[..filled].as_chunks::<8>();
        if !rest.is_empty() || words.len() % 2 != 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "binary edge list ends inside a 16-byte record",
            ));
        }
        if words.is_empty() {
            return Ok(checksum);
        }
        edges.clear();
        for uv in words.chunks_exact(2) {
            let (u, v) = (u64::from_le_bytes(uv[0]), u64::from_le_bytes(uv[1]));
            checksum = edge_checksum_step(checksum, u, v);
            edges.push((u, v));
        }
        emit(&edges);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Encoded length of a varint in bytes.
    fn varint_len(mut x: u128) -> u64 {
        let mut len = 1;
        while x >= 0x80 {
            x >>= 7;
            len += 1;
        }
        len
    }

    fn sample() -> EdgeList {
        EdgeList::new(4, vec![(0, 1), (1, 2), (2, 3)])
    }

    /// `edges` through a fresh encoder.
    fn encoded<E: EdgeEncoder>(mut enc: E, edges: &[(u64, u64)]) -> E {
        enc.push_slice(edges).unwrap();
        enc.close().unwrap();
        enc
    }

    /// The text bytes of `edges`.
    fn text(edges: &[(u64, u64)]) -> Vec<u8> {
        encoded(TextEncoder::new(Vec::new()), edges).w
    }

    /// The compressed stream of `edges` over `n` vertices.
    fn compressed(n: u64, edges: &[(u64, u64)]) -> Vec<u8> {
        encoded(CompressedEdgeWriter::new(Vec::new(), n).unwrap(), edges).w
    }

    /// Every edge `decode` hands out.
    fn decoded(decode: impl FnOnce(&mut Emit) -> io::Result<u64>) -> io::Result<Vec<(u64, u64)>> {
        let mut edges = Vec::new();
        decode(&mut |block| edges.extend_from_slice(block))?;
        Ok(edges)
    }

    /// A text stream decoded.
    fn parse_text(text: &str) -> io::Result<Vec<(u64, u64)>> {
        decoded(|emit| decode_text(text.as_bytes(), emit))
    }

    /// A whole compressed stream decoded, with its vertex count.
    fn decompressed(stream: &[u8]) -> io::Result<EdgeList> {
        let mut dec = CompressedEdgeReader::new(stream)?;
        let mut edges = Vec::new();
        while let Some(block) = dec.next_block()? {
            edges.extend_from_slice(block);
        }
        Ok(EdgeList::new(dec.n(), edges))
    }

    #[test]
    fn edge_list_format() {
        assert_eq!(text(&sample().edges), b"0 1\n1 2\n2 3\n");
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
        let buf = encoded(BinaryEncoder::new(Vec::new()), &el.edges).w;
        assert_eq!(buf.len(), 3 * 16);
        assert_eq!(
            decoded(|emit| decode_binary(&buf[..], emit)).unwrap(),
            el.edges
        );
        // Every cut inside a record is an error, never a panic.
        for cut in 0..buf.len() {
            let res = decoded(|emit| decode_binary(&buf[..cut], emit));
            if cut % 16 == 0 {
                assert_eq!(res.unwrap(), el.edges[..cut / 16]);
            } else {
                assert_eq!(res.unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
            }
        }
    }

    #[test]
    fn text_roundtrip() {
        let el = sample();
        let text = String::from_utf8(text(&el.edges)).unwrap();
        assert_eq!(parse_text(&text).unwrap(), el.edges);
    }

    #[test]
    fn read_skips_comments() {
        let edges = parse_text("# header\n0 1\n% meta\n5 2\n").unwrap();
        assert_eq!(edges, vec![(0, 1), (5, 2)]);
    }

    #[test]
    fn read_reports_errors() {
        assert!(parse_text("0\n").is_err());
        assert!(parse_text("a b\n").is_err());
        assert!(parse_text("").unwrap().is_empty());
    }

    #[test]
    fn text_grammar_is_exactly_two_canonical_fields() {
        let max = u64::MAX;
        for (text, edges) in [
            ("5 7", vec![(5, 7)]),
            ("5 7\n\n \t\n0 0\n", vec![(5, 7), (0, 0)]),
            (" 5\t 7 \n", vec![(5, 7)]),
            ("  # 1 2 3\n%x\n", vec![]),
            ("18446744073709551615 0\n", vec![(max, 0)]),
        ] {
            assert_eq!(parse_text(text).unwrap(), edges, "{text:?}");
        }
        for (text, line) in [
            ("1 2\n65 57 999 junk\n", 2),
            ("+66 41\n", 1),
            ("66 -41\n", 1),
            ("1 2\n\n3\n", 3),
            ("18446744073709551616 0\n", 1),
            ("1 99999999999999999999999\n", 1),
            ("01 2\n", 1),
            ("1 00\n", 1),
            ("1 2\r\n", 1),
            ("# c\n1\x002\n", 2),
            ("1 2\x00\n", 1),
            ("1 2\x0b3 4\n", 1),
            ("1 2 # trailing comment\n", 1),
            ("1 \u{663}\n", 1),
            ("0x10 2\n", 1),
            ("1e3 2\n", 1),
        ] {
            let err = parse_text(text).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{text:?}");
            assert!(
                err.to_string().starts_with(&format!("line {line}: ")),
                "{text:?}: {err}"
            );
        }
        // A line the decoder will not buffer, with and without an end.
        let long = "#".repeat(MAX_LINE_BYTES + 1);
        assert!(parse_text(&long).is_err());
        assert!(parse_text(&format!("{long}\n1 2\n")).is_err());
        let longest = format!("{}\n1 2\n", "#".repeat(MAX_LINE_BYTES));
        assert_eq!(parse_text(&longest).unwrap(), [(1, 2)]);
    }

    #[test]
    fn text_decoder_cuts_blocks_without_changing_the_stream() {
        let m = 2 * BLOCK_EDGES as u64 + 5;
        let el = EdgeList::new(m, (0..m).map(|i| (i, m - 1 - i)).collect());
        let text = text(&el.edges);
        let mut sizes = Vec::new();
        let mut edges = Vec::new();
        decode_text(&text[..], &mut |block| {
            sizes.push(block.len());
            edges.extend_from_slice(block);
        })
        .unwrap();
        assert_eq!(sizes, [BLOCK_EDGES, BLOCK_EDGES, 5]);
        assert_eq!(edges, el.edges);
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
    fn word_steps_agree_with_the_portable_steps_and_the_bytewise_codec() {
        // Both sides of every length boundary of the word path, then a
        // log-uniform sweep.
        let mut zs = vec![0x80, (1 << 56) - 1];
        for k in 2..8 {
            zs.extend([(1u64 << (7 * k)) - 1, 1 << (7 * k)]);
        }
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..20_000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            zs.push((x >> 8) >> (x >> 58));
        }
        for z in zs.into_iter().filter(|z| (0x80..1 << 56).contains(z)) {
            assert_eq!(spread7(z), portable::spread7(z), "{z:#x}");
            let mut word = [0u8; 16];
            let end = put_varint(&mut word, 0, z);
            let mut bytewise = Vec::new();
            write_varint(&mut bytewise, z as u128).unwrap();
            assert_eq!(word[..end], bytewise[..], "{z:#x}");
            // Bytes behind the varint do not leak into the value.
            word[end..8].fill(0xa5);
            let w = u64::from_le_bytes(word[..8].try_into().unwrap());
            let bytes = u64::MAX >> (64 - 8 * end);
            assert_eq!(gather7(w, bytes), z, "{z:#x}");
            assert_eq!(portable::gather7(w, bytes), z, "{z:#x}");
        }
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
        let back = decompressed(&compressed(el.n, &el.edges)).unwrap();
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
        let back = decompressed(&a).unwrap();
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
    fn compressed_writer_survives_pushes_after_a_failed_write() {
        /// Accepts `budget` bytes, then fails every write.
        struct Failing(usize);
        impl Write for Failing {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                let n = buf.len().min(self.0);
                self.0 -= n;
                if n == 0 {
                    return Err(io::Error::other("disk full"));
                }
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        // 65-bit deltas on both endpoints: 20 bytes an edge, so the
        // scratch fills as fast as it can.
        let edges: Vec<(u64, u64)> = (0..20_000u64)
            .map(|i| {
                if i % 2 == 0 {
                    (u64::MAX, 0)
                } else {
                    (0, u64::MAX)
                }
            })
            .collect();
        let mut w = CompressedEdgeWriter::new(Failing(100_000), u64::MAX).unwrap();
        let failed = edges
            .chunks(1000)
            .filter(|c| w.push_slice(c).is_err())
            .count();
        assert!(failed > 0);
        assert!(w.close().is_err());
    }

    #[test]
    fn compressed_empty_stream() {
        let back = decompressed(&compressed(5, &[])).unwrap();
        assert_eq!(back.n, 5);
        assert!(back.edges.is_empty());
    }

    #[test]
    fn compressed_sorted_stream_is_compact() {
        // Sorted edge lists take ~2-3 bytes per edge vs 16 raw.
        let edges: Vec<(u64, u64)> = (0..1000u64).map(|i| (i / 4, i % 997)).collect();
        let el = EdgeList::new(1000, edges);
        let buf = compressed(el.n, &el.edges);
        assert!(
            buf.len() < 1000 * 4 + 16,
            "compressed size {} too large",
            buf.len()
        );
        assert_eq!(decompressed(&buf).unwrap(), el);
    }

    #[test]
    fn compressed_rejects_bad_magic() {
        let buf = b"NOTMAGIC\0\0\0\0\0\0\0\0".to_vec();
        assert!(decompressed(&buf).is_err());
    }

    /// A one-block stream over 5 vertices with the given header fields
    /// and payload.
    fn raw_stream(count: u128, len: u128, checksum: u64, payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&COMPRESSED_MAGIC);
        buf.extend_from_slice(&5u64.to_le_bytes());
        write_varint(&mut buf, count).unwrap();
        write_varint(&mut buf, len).unwrap();
        buf.extend_from_slice(&checksum.to_le_bytes());
        buf.extend_from_slice(payload);
        buf
    }

    fn kind_of(stream: &[u8]) -> io::ErrorKind {
        decompressed(stream).unwrap_err().kind()
    }

    #[test]
    fn compressed_rejects_underflowing_delta() {
        // A first record whose u-delta is negative would decode to a
        // vertex id below zero: must be InvalidData, not a wrapped id.
        // zigzag(-1) = 1, zigzag(0) = 0.
        let buf = raw_stream(1, 2, 0, &[1, 0]);
        assert_eq!(kind_of(&buf), io::ErrorKind::InvalidData);
        // Same on the bytewise path (a padded ten-byte zigzag(-1)).
        let mut wide = vec![0x81u8; 1];
        wide.extend_from_slice(&[0x80; 8]);
        wide.extend_from_slice(&[0, 0]);
        let buf = raw_stream(1, wide.len() as u128, 0, &wide);
        assert_eq!(kind_of(&buf), io::ErrorKind::InvalidData);
        // And past the top of the id range: u64::MAX then +1.
        let mut payload = Vec::new();
        write_varint(&mut payload, zigzag(u64::MAX as i128)).unwrap();
        payload.extend_from_slice(&[0, 2, 0]);
        let buf = raw_stream(2, payload.len() as u128, 0, &payload);
        assert_eq!(kind_of(&buf), io::ErrorKind::InvalidData);
        // The largest delta a varint can carry, on top of a nonzero id.
        let mut payload = vec![2, 0];
        write_varint(&mut payload, u128::MAX - 1).unwrap();
        payload.push(0);
        let buf = raw_stream(2, payload.len() as u128, 0, &payload);
        assert_eq!(kind_of(&buf), io::ErrorKind::InvalidData);
    }

    #[test]
    fn block_length_field_must_match_the_payload() {
        // A `len` that lies by one in either direction is an error even
        // when count, checksum and every varint are intact.
        let edges = [(1u64, 2u64), (300, 2), (300, 70_000)];
        let mut payload = Vec::new();
        let mut checksum = 0;
        let (mut pu, mut pv) = (0i128, 0i128);
        for &(u, v) in &edges {
            write_varint(&mut payload, zigzag(u as i128 - pu)).unwrap();
            write_varint(&mut payload, zigzag(v as i128 - pv)).unwrap();
            (pu, pv) = (u as i128, v as i128);
            checksum = edge_checksum_step(checksum, u, v);
        }
        let len = payload.len() as u128;
        let good = raw_stream(3, len, checksum, &payload);
        assert_eq!(decompressed(&good).unwrap().edges, edges);
        // The writer produces exactly these bytes.
        assert_eq!(compressed(5, &edges), good);

        assert!(decompressed(&raw_stream(3, len - 1, checksum, &payload)).is_err());
        assert!(decompressed(&raw_stream(3, len + 1, checksum, &payload)).is_err());
        // One byte too long with the byte present: the block has
        // trailing bytes.
        let mut padded = payload.clone();
        padded.push(0);
        let buf = raw_stream(3, len + 1, checksum, &padded);
        assert_eq!(kind_of(&buf), io::ErrorKind::InvalidData);
    }

    #[test]
    fn block_header_limits_are_checked_before_the_payload_is_read() {
        // No payload follows any of these headers: a reader that sized
        // a buffer by them, or tried to read the payload first, would
        // report UnexpectedEof (or abort) instead.
        let block = COMPRESSED_BLOCK_EDGES as u128;
        for (count, len) in [
            (0, 0),
            (block + 1, 2 * (block + 1)),
            (1 << 60, 1 << 61),
            (u64::MAX as u128 + 1, 2),
            (1, MAX_EDGE_BYTES as u128 + 1),
            (block, block * MAX_EDGE_BYTES as u128 + 1),
            (2, 1 << 40),
            (2, u128::MAX),
        ] {
            let buf = raw_stream(count, len, 0, &[]);
            assert_eq!(
                kind_of(&buf),
                io::ErrorKind::InvalidData,
                "count {count} len {len}"
            );
        }
        // The limits themselves are legal headers (here: truncated).
        let buf = raw_stream(block, block * MAX_EDGE_BYTES as u128, 0, &[]);
        assert_eq!(kind_of(&buf), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn decoder_accepts_every_encoding_read_varint_accepts() {
        // Reference: the payload decoded varint by varint.
        fn reference(mut payload: &[u8], count: usize) -> io::Result<Vec<(u64, u64)>> {
            let mut out = Vec::new();
            let (mut pu, mut pv) = (0i128, 0i128);
            for _ in 0..count {
                let (Some(zu), Some(zv)) = (read_varint(&mut payload)?, read_varint(&mut payload)?)
                else {
                    return Err(truncated_payload());
                };
                (pu, pv) = (pu + unzigzag(zu), pv + unzigzag(zv));
                let (Ok(u), Ok(v)) = (u64::try_from(pu), u64::try_from(pv)) else {
                    return Err(id_out_of_range());
                };
                out.push((u, v));
            }
            if payload.is_empty() {
                Ok(out)
            } else {
                Err(invalid_data("trailing bytes"))
            }
        }
        // Zero-padded encodings of every length up to the 19-byte cap,
        // for small and large values, followed by enough one-byte
        // records that the long varint is also met away from the
        // payload's last 8 bytes.
        let mut out = Vec::new();
        for value in [0u128, 1, 2, 0x7e, 0x3ffe, (1 << 56) - 2, 1 << 56, 1 << 64] {
            for total_len in varint_len(value) as usize..=MAX_VARINT_BYTES + 1 {
                let mut payload = Vec::new();
                write_varint(&mut payload, value).unwrap();
                while payload.len() < total_len {
                    *payload.last_mut().unwrap() |= 0x80;
                    payload.push(0);
                }
                payload.push(0); // v-delta of the first edge
                for tail in [0usize, 12] {
                    let mut payload = payload.clone();
                    payload.resize(payload.len() + 2 * tail, 0);
                    let want = reference(&payload, 1 + tail);
                    let got = decode_block_into(&payload, 1 + tail, &mut out, 0);
                    match want {
                        Ok(edges) => {
                            got.unwrap();
                            assert_eq!(out, edges, "value {value} in {total_len} bytes");
                        }
                        Err(e) => assert_eq!(got.unwrap_err().kind(), e.kind()),
                    }
                }
            }
        }
        // A count the payload cannot hold is refused before `out` grows.
        let mut out = Vec::new();
        assert!(decode_block_into(&[0, 0], usize::MAX, &mut out, 0).is_err());
        assert_eq!(out.capacity(), 0);
    }

    #[test]
    fn a_block_that_fails_verification_is_never_exposed() {
        let m = COMPRESSED_BLOCK_EDGES + 10;
        let el = EdgeList::new(100, (0..m).map(|i| (i % 100, (i + 1) % 100)).collect());
        let mut buf = compressed(el.n, &el.edges);
        let last = buf.len() - 1;
        buf[last] ^= 0x01; // inside the second block's payload
        let mut dec = CompressedEdgeReader::new(&buf[..]).unwrap();
        assert_eq!(
            dec.next_block().unwrap().unwrap(),
            &el.edges[..COMPRESSED_BLOCK_EDGES as usize]
        );
        assert!(dec.next_block().is_err());
        assert!(dec.block().is_empty());
    }

    #[test]
    fn compressed_multi_block_roundtrip() {
        // Cross several restart-block boundaries, including a ragged
        // final block; deltas restart per block so the stream must still
        // round-trip exactly.
        let m = COMPRESSED_BLOCK_EDGES as usize * 2 + 1234;
        let edges: Vec<(u64, u64)> = (0..m as u64).map(|i| (i / 3, (i * 7) % 5000)).collect();
        let el = EdgeList::new(5000, edges);
        assert_eq!(decompressed(&compressed(el.n, &el.edges)).unwrap(), el);

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
        let buf = compressed(el.n, &el.edges);
        // Bytes 16.. : varint(count), varint(len), then the checksum.
        let mut r = &buf[16..];
        let c = read_varint(&mut r).unwrap().unwrap();
        let l = read_varint(&mut r).unwrap().unwrap();
        let checksum_at = 16 + (varint_len(c) + varint_len(l)) as usize;
        let mut corrupt = buf.clone();
        corrupt[checksum_at] ^= 0x01;
        assert!(decompressed(&corrupt).is_err());
        // A payload flip is caught by the same check.
        let mut corrupt = buf.clone();
        corrupt[checksum_at + 9] ^= 0x01;
        assert!(decompressed(&corrupt).is_err());
        // The pristine stream still round-trips.
        assert_eq!(decompressed(&buf).unwrap(), el);
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
        let buf = compressed(el.n, &el.edges);
        let mut dec = CompressedEdgeReader::new(io::Cursor::new(&buf)).unwrap();
        let mut total = 0u64;
        let mut blocks = 0;
        while let Some(count) = dec.skip_block().unwrap() {
            total += count;
            blocks += 1;
        }
        assert_eq!(dec.position().unwrap(), buf.len() as u64);
        assert_eq!(total, m as u64);
        assert_eq!(blocks, 2);
    }
}

//! Reading shard directories back: stream shards edge-by-edge with O(1)
//! memory (validating the manifest checksums as it goes), or reassemble
//! the whole instance into an [`EdgeList`] when it fits.

use crate::manifest::{Manifest, ShardInfo};
use crate::sink::checksum_step;
use crate::writer::ShardFormat;
use kagen_graph::io::CompressedEdgeReader;
use kagen_graph::EdgeList;
use kagen_obs::json::invalid;
use std::fs::File;
use std::io::{self, BufRead, BufReader, Read};
use std::path::{Path, PathBuf};

/// A shard directory opened for reading.
#[derive(Debug)]
pub struct ShardReader {
    manifest: Manifest,
    format: ShardFormat,
    dir: PathBuf,
}

impl ShardReader {
    /// Open `dir` by loading and validating its `manifest.json`.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<ShardReader> {
        let dir = dir.into();
        let manifest = Manifest::load(&dir)?;
        let format = ShardFormat::parse(&manifest.format)
            .ok_or_else(|| invalid(format!("unknown shard format '{}'", manifest.format)))?;
        Ok(ShardReader {
            manifest,
            format,
            dir,
        })
    }

    /// The run's manifest.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Stream one shard through `emit`, verifying its edge count and
    /// checksum against the manifest. Returns the edge count.
    pub fn stream_shard(&self, index: usize, emit: &mut dyn FnMut(u64, u64)) -> io::Result<u64> {
        let info = self.manifest.shards.get(index).ok_or_else(|| {
            invalid(format!(
                "shard index {index} out of range ({} shards)",
                self.manifest.shards.len()
            ))
        })?;
        let path = self.dir.join(&info.file);
        let mut count = 0u64;
        let mut checksum = 0u64;
        let mut counted_emit = |u: u64, v: u64| {
            count += 1;
            checksum = checksum_step(checksum, u, v);
            emit(u, v);
        };
        stream_shard_file(&path, self.format, &mut counted_emit)?;
        if count != info.edges {
            return Err(invalid(format!(
                "shard {}: {count} edges on disk, {} in manifest",
                info.file, info.edges
            )));
        }
        if checksum != info.checksum {
            return Err(invalid(format!(
                "shard {}: checksum mismatch (corrupt or reordered)",
                info.file
            )));
        }
        Ok(count)
    }

    /// Stream every shard in PE order; total memory stays O(1).
    /// Returns the total edge count.
    pub fn stream(&self, emit: &mut dyn FnMut(u64, u64)) -> io::Result<u64> {
        let mut total = 0;
        for i in 0..self.manifest.shards.len() {
            total += self.stream_shard(i, emit)?;
        }
        Ok(total)
    }

    /// Reassemble the whole instance in memory, exactly as the per-PE
    /// streams concatenate (no dedup, no sort — see
    /// [`crate::merge::external_merge`] for canonical merging).
    pub fn read_all(&self) -> io::Result<EdgeList> {
        // Cap the pre-allocation: the manifest is untrusted input until
        // the per-shard counts and checksums have been validated.
        let cap = (self.manifest.edges as usize).min(1 << 20);
        let mut edges = Vec::with_capacity(cap);
        self.stream(&mut |u, v| edges.push((u, v)))?;
        Ok(EdgeList::new(self.manifest.n, edges))
    }
}

/// Stream one shard *file* (no manifest required) through `emit`.
pub fn stream_shard_file(
    path: &Path,
    format: ShardFormat,
    emit: &mut dyn FnMut(u64, u64),
) -> io::Result<()> {
    match format {
        ShardFormat::EdgeList => stream_text(path, emit),
        ShardFormat::Binary => stream_binary(path, emit),
        ShardFormat::Compressed => stream_compressed(path, emit),
    }
}

/// Re-read the shard described by `info` from `dir` and verify its edge
/// count and checksum. This is the resume-time integrity check: a
/// missing, truncated, corrupted or reordered shard comes back as an
/// error; `Ok(())` means the bytes on disk still produce exactly the
/// edge stream recorded at generation time.
pub fn validate_shard(dir: &Path, format: ShardFormat, info: &ShardInfo) -> io::Result<()> {
    let path = dir.join(&info.file);
    let mut count = 0u64;
    let mut checksum = 0u64;
    stream_shard_file(&path, format, &mut |u, v| {
        count += 1;
        checksum = checksum_step(checksum, u, v);
    })?;
    if count != info.edges {
        return Err(invalid(format!(
            "shard {}: {count} edges on disk, {} expected",
            info.file, info.edges
        )));
    }
    if checksum != info.checksum {
        return Err(invalid(format!(
            "shard {}: checksum mismatch (corrupt or reordered)",
            info.file
        )));
    }
    Ok(())
}

/// Fast-path shard validation: a size/structure check plus
/// `sample_blocks` fully decoded (and checksum-verified) restart blocks,
/// instead of [`validate_shard`]'s full re-read.
///
/// * **binary** — exact: the file length must equal `16 · edges`
///   (metadata only, no read).
/// * **compressed** — walk the block headers (seeking over payloads),
///   verify the header-derived edge total against the manifest, then
///   decode `sample_blocks` evenly spaced blocks and verify their
///   stored per-block checksums. O(blocks + samples·block) instead of
///   O(edges).
/// * **edge-list** — text has no sampled structure; falls back to the
///   full re-read.
///
/// Sampled validation catches deletion, truncation, reordering of whole
/// blocks and any corruption inside a sampled block; a flipped byte in
/// an *unsampled* compressed block can escape it — that is the
/// documented latency trade, and why the full re-read stays the
/// default.
pub fn validate_shard_sampled(
    dir: &Path,
    format: ShardFormat,
    info: &ShardInfo,
    sample_blocks: usize,
) -> io::Result<()> {
    let path = dir.join(&info.file);
    match format {
        ShardFormat::Binary => {
            let len = std::fs::metadata(&path)?.len();
            if len != info.edges * 16 {
                return Err(invalid(format!(
                    "shard {}: {len} bytes on disk, {} expected for {} edges",
                    info.file,
                    info.edges * 16,
                    info.edges
                )));
            }
            Ok(())
        }
        ShardFormat::EdgeList => validate_shard(dir, format, info),
        ShardFormat::Compressed => validate_compressed_sampled(&path, info, sample_blocks),
    }
}

/// Walk every restart block of an open compressed shard positioned
/// right after the 16-byte file header. `on_block(index, count,
/// checksum, reader)` returns whether it consumed the payload itself
/// (`len` bytes); otherwise the walk seeks over it. Returns
/// `(blocks, total_edges, end_pos)`. Memory is O(1) — the huge-run fast
/// path must not materialize per-block metadata.
fn walk_blocks(
    r: &mut BufReader<File>,
    file: &str,
    mut on_block: impl FnMut(u64, u64, u64, u64, &mut BufReader<File>) -> io::Result<bool>,
) -> io::Result<(u64, u64, u64)> {
    use kagen_graph::io::{read_varint, varint_len};
    let mut pos = 16u64;
    let mut blocks = 0u64;
    let mut total = 0u64;
    while let Some(count) = read_varint(r)? {
        let Some(len) = read_varint(r)? else {
            return Err(invalid(format!("shard {file}: block header truncated")));
        };
        let mut ck = [0u8; 8];
        r.read_exact(&mut ck)?;
        let (Ok(count), Ok(len)) = (u64::try_from(count), u64::try_from(len)) else {
            return Err(invalid(format!("shard {file}: block header overflows u64")));
        };
        if count == 0 {
            return Err(invalid(format!("shard {file}: empty block")));
        }
        pos += varint_len(count as u128) + varint_len(len as u128) + 8;
        total = total
            .checked_add(count)
            .ok_or_else(|| invalid(format!("shard {file}: edge total overflows")))?;
        if !on_block(blocks, count, len, u64::from_le_bytes(ck), r)? {
            r.seek_relative(
                i64::try_from(len)
                    .map_err(|_| invalid(format!("shard {file}: implausible block length")))?,
            )?;
        }
        pos += len;
        blocks += 1;
    }
    Ok((blocks, total, pos))
}

fn validate_compressed_sampled(
    path: &Path,
    info: &ShardInfo,
    sample_blocks: usize,
) -> io::Result<()> {
    use kagen_graph::io::{decode_block, COMPRESSED_MAGIC};
    use std::io::Seek;
    let open = |path: &Path| -> io::Result<BufReader<File>> {
        let mut r = BufReader::new(File::open(path)?);
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if magic != COMPRESSED_MAGIC {
            return Err(invalid(format!(
                "shard {}: not a compressed edge stream",
                info.file
            )));
        }
        let mut n_bytes = [0u8; 8];
        r.read_exact(&mut n_bytes)?;
        Ok(r)
    };

    // Pass 1 — structural walk, headers only, O(1) memory.
    let mut r = open(path)?;
    let (blocks, total, pos) = walk_blocks(&mut r, &info.file, |_, _, _, _, _| Ok(false))?;
    if total != info.edges {
        return Err(invalid(format!(
            "shard {}: {total} edges in block headers, {} in manifest",
            info.file, info.edges
        )));
    }
    // The walk's end position must be the exact file size: seeking does
    // not notice a truncated final payload, the byte count does.
    let file_len = std::fs::metadata(path)?.len();
    if pos != file_len {
        return Err(invalid(format!(
            "shard {}: {file_len} bytes on disk, {pos} accounted by block headers",
            info.file
        )));
    }

    // Pass 2 — decode the evenly spaced sample blocks in stream order
    // and verify their stored checksums.
    let picks = sample_blocks.min(blocks as usize) as u64;
    if picks == 0 {
        return Ok(());
    }
    let mut next_sample = 0u64;
    let mut payload = Vec::new();
    let mut r = open(path)?;
    r.seek(io::SeekFrom::Start(16))?;
    walk_blocks(&mut r, &info.file, |idx, count, len, checksum, r| {
        if next_sample >= picks || idx != next_sample * blocks / picks {
            return Ok(false);
        }
        next_sample += 1;
        payload.resize(len as usize, 0);
        r.read_exact(&mut payload)?;
        let got = decode_block(&payload, count)
            .map_err(|e| invalid(format!("shard {}: sampled block: {e}", info.file)))?;
        if got != checksum {
            return Err(invalid(format!(
                "shard {}: sampled block checksum mismatch (corrupt)",
                info.file
            )));
        }
        Ok(true)
    })?;
    Ok(())
}

fn stream_text(path: &Path, emit: &mut dyn FnMut(u64, u64)) -> io::Result<()> {
    let r = BufReader::new(File::open(path)?);
    for (lineno, line) in r.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let mut it = line.split_whitespace();
        let mut field = || -> io::Result<u64> {
            it.next()
                .ok_or_else(|| invalid(format!("line {}: missing field", lineno + 1)))?
                .parse::<u64>()
                .map_err(|e| invalid(format!("line {}: {e}", lineno + 1)))
        };
        let u = field()?;
        let v = field()?;
        emit(u, v);
    }
    Ok(())
}

fn stream_binary(path: &Path, emit: &mut dyn FnMut(u64, u64)) -> io::Result<()> {
    let mut r = BufReader::new(File::open(path)?);
    let mut rec = [0u8; 16];
    loop {
        match r.read_exact(&mut rec) {
            Ok(()) => {
                let u = u64::from_le_bytes(rec[..8].try_into().unwrap());
                let v = u64::from_le_bytes(rec[8..].try_into().unwrap());
                emit(u, v);
            }
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(e) => return Err(e),
        }
    }
}

fn stream_compressed(path: &Path, emit: &mut dyn FnMut(u64, u64)) -> io::Result<()> {
    let mut dec = CompressedEdgeReader::new(BufReader::new(File::open(path)?))?;
    while let Some((u, v)) = dec.next_edge()? {
        emit(u, v);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::{write_sharded, InstanceMeta, StreamConfig};
    use kagen_core::prelude::*;
    use kagen_core::streaming::StreamingGenerator;

    fn roundtrip(format: ShardFormat, tag: &str) {
        let gen = GnmDirected::new(150, 900).with_seed(11).with_chunks(3);
        let dir = std::env::temp_dir().join(format!("kagen_reader_{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        let meta = InstanceMeta {
            model: "gnm_directed".into(),
            params: String::new(),
            seed: 11,
        };
        write_sharded(&gen, &meta, &StreamConfig::new(&dir, format)).unwrap();

        let reader = ShardReader::open(&dir).unwrap();
        let back = reader.read_all().unwrap();
        let mut expect = Vec::new();
        gen.stream_all(&mut |u, v| expect.push((u, v)));
        assert_eq!(back.edges, expect, "{tag}: stream order must be preserved");
        assert_eq!(back.n, 150);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn roundtrip_every_format() {
        roundtrip(ShardFormat::EdgeList, "text");
        roundtrip(ShardFormat::Binary, "bin");
        roundtrip(ShardFormat::Compressed, "comp");
    }

    #[test]
    fn corruption_is_detected() {
        let gen = GnmDirected::new(100, 400).with_seed(5).with_chunks(2);
        let dir = std::env::temp_dir().join("kagen_reader_corrupt");
        std::fs::remove_dir_all(&dir).ok();
        let meta = InstanceMeta {
            model: "gnm_directed".into(),
            params: String::new(),
            seed: 5,
        };
        let manifest =
            write_sharded(&gen, &meta, &StreamConfig::new(&dir, ShardFormat::Binary)).unwrap();
        // Flip one byte in some non-empty shard (small instances may leave
        // leading PEs without blocks, hence without edges).
        let victim = manifest.shards.iter().find(|s| s.edges > 0).unwrap();
        let path = dir.join(&victim.file);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8] ^= 0xff;
        std::fs::write(&path, bytes).unwrap();

        let reader = ShardReader::open(&dir).unwrap();
        let err = reader.read_all().unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sampled_validation_accepts_valid_shards_of_every_format() {
        // Enough edges for multiple compressed restart blocks per shard.
        let gen = GnmDirected::new(2000, 20_000).with_seed(3).with_chunks(2);
        for (format, tag) in [
            (ShardFormat::EdgeList, "s_text"),
            (ShardFormat::Binary, "s_bin"),
            (ShardFormat::Compressed, "s_comp"),
        ] {
            let dir = std::env::temp_dir().join(format!("kagen_sampled_{tag}"));
            std::fs::remove_dir_all(&dir).ok();
            let meta = InstanceMeta {
                model: "gnm_directed".into(),
                params: String::new(),
                seed: 3,
            };
            let manifest = write_sharded(&gen, &meta, &StreamConfig::new(&dir, format)).unwrap();
            for info in &manifest.shards {
                validate_shard_sampled(&dir, format, info, 4).unwrap();
                // Degenerate sample counts behave.
                validate_shard_sampled(&dir, format, info, 0).unwrap();
                validate_shard_sampled(&dir, format, info, 1000).unwrap();
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn sampled_validation_catches_structural_damage() {
        let gen = GnmDirected::new(2000, 20_000).with_seed(5).with_chunks(2);
        let dir = std::env::temp_dir().join("kagen_sampled_damage");
        std::fs::remove_dir_all(&dir).ok();
        let meta = InstanceMeta {
            model: "gnm_directed".into(),
            params: String::new(),
            seed: 5,
        };
        let manifest = write_sharded(
            &gen,
            &meta,
            &StreamConfig::new(&dir, ShardFormat::Compressed),
        )
        .unwrap();
        let info = manifest.shards.iter().find(|s| s.edges > 0).unwrap();
        let path = dir.join(&info.file);
        let pristine = std::fs::read(&path).unwrap();

        // Truncation: the last block's payload ends early.
        std::fs::write(&path, &pristine[..pristine.len() - 3]).unwrap();
        assert!(validate_shard_sampled(&dir, ShardFormat::Compressed, info, 2).is_err());

        // Corruption inside the first (always sampled) block: the
        // per-block checksum catches it even when the varints stay
        // well-formed.
        let mut corrupt = pristine.clone();
        corrupt[40] ^= 0x01;
        std::fs::write(&path, &corrupt).unwrap();
        assert!(validate_shard_sampled(&dir, ShardFormat::Compressed, info, 2).is_err());

        // Deletion.
        std::fs::remove_file(&path).unwrap();
        assert!(validate_shard_sampled(&dir, ShardFormat::Compressed, info, 2).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sampled_validation_checks_binary_size_exactly() {
        let gen = GnmDirected::new(500, 3000).with_seed(7).with_chunks(1);
        let dir = std::env::temp_dir().join("kagen_sampled_binsize");
        std::fs::remove_dir_all(&dir).ok();
        let meta = InstanceMeta {
            model: "gnm_directed".into(),
            params: String::new(),
            seed: 7,
        };
        let manifest =
            write_sharded(&gen, &meta, &StreamConfig::new(&dir, ShardFormat::Binary)).unwrap();
        let info = &manifest.shards[0];
        validate_shard_sampled(&dir, ShardFormat::Binary, info, 4).unwrap();
        let path = dir.join(&info.file);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0u8; 16]);
        std::fs::write(&path, bytes).unwrap();
        assert!(validate_shard_sampled(&dir, ShardFormat::Binary, info, 4).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_manifest_is_an_error() {
        let dir = std::env::temp_dir().join("kagen_reader_nomanifest");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(ShardReader::open(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}

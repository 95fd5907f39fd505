//! Reading shard directories back: stream shards a slice at a time with
//! O(block) memory (validating the manifest checksums as it goes), or
//! reassemble the whole instance into an [`EdgeList`] when it fits.
//!
//! [`stream_shard_file`] is the read-side batch primitive, the mirror of
//! [`crate::EdgeSink::push_batch`]: every format delivers
//! `&[(u64, u64)]` slices of at most one restart block's worth of edges
//! (`COMPRESSED_BLOCK_EDGES`) from its decoder in `kagen_graph::io`,
//! and a block is delivered only after everything its format can check
//! has been verified (a compressed block's length and checksum, a text
//! block's grammar, a binary block's record size).

use crate::manifest::{Manifest, ShardInfo};
use crate::writer::ShardFormat;
use kagen_core::streaming::BatchEmit;
use kagen_graph::io::CompressedEdgeReader;
use kagen_graph::EdgeList;
use kagen_obs::json::invalid;
use std::fs::File;
use std::io::{self, BufReader};
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
    pub fn stream_shard(&self, index: usize, emit: &mut BatchEmit) -> io::Result<u64> {
        let info = self.manifest.shards.get(index).ok_or_else(|| {
            invalid(format!(
                "shard index {index} out of range ({} shards)",
                self.manifest.shards.len()
            ))
        })?;
        stream_verified(&self.dir, self.format, info, emit)?;
        Ok(info.edges)
    }

    /// Stream every shard in PE order; total memory stays O(block).
    /// Returns the total edge count.
    pub fn stream(&self, emit: &mut BatchEmit) -> io::Result<u64> {
        let mut total = 0;
        for i in 0..self.manifest.shards.len() {
            total += self.stream_shard(i, emit)?;
        }
        Ok(total)
    }

    /// Reassemble the whole instance in memory, exactly as the per-PE
    /// streams concatenate (no dedup, no sort — see
    /// [`crate::merge::ExternalMerge`] for canonical merging).
    pub fn read_all(&self) -> io::Result<EdgeList> {
        // Cap the pre-allocation: the manifest is untrusted input until
        // the per-shard counts and checksums have been validated.
        let cap = (self.manifest.edges as usize).min(1 << 20);
        let mut edges = Vec::with_capacity(cap);
        self.stream(&mut |batch| edges.extend_from_slice(batch))?;
        Ok(EdgeList::new(self.manifest.n, edges))
    }
}

/// Stream one shard *file* (no manifest required) through `emit` and
/// return its checksum: [`ShardFormat::stream_file`] under the name
/// readers use.
pub fn stream_shard_file(
    path: &Path,
    format: ShardFormat,
    emit: &mut BatchEmit,
) -> io::Result<u64> {
    format.stream_file(path, emit)
}

/// Stream the shard described by `info` through `emit`, then verify its
/// edge count and checksum (the decoder's fold) against `info`.
fn stream_verified(
    dir: &Path,
    format: ShardFormat,
    info: &ShardInfo,
    emit: &mut BatchEmit,
) -> io::Result<()> {
    let mut count = 0u64;
    let checksum = stream_shard_file(&dir.join(&info.file), format, &mut |batch| {
        count += batch.len() as u64;
        emit(batch);
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

/// Re-read the shard described by `info` from `dir` and verify its edge
/// count and checksum. This is the resume-time integrity check: a
/// missing, truncated, corrupted or reordered shard comes back as an
/// error; `Ok(())` means the bytes on disk still produce exactly the
/// edge stream recorded at generation time.
pub fn validate_shard(dir: &Path, format: ShardFormat, info: &ShardInfo) -> io::Result<()> {
    stream_verified(dir, format, info, &mut |_| {})
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
///   lengths and stored per-block checksums. O(blocks + samples·block)
///   instead of O(edges).
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
            if Some(len) != info.edges.checked_mul(16) {
                return Err(invalid(format!(
                    "shard {}: {len} bytes on disk, 16 expected for each of {} edges",
                    info.file, info.edges
                )));
            }
            Ok(())
        }
        ShardFormat::EdgeList => validate_shard(dir, format, info),
        ShardFormat::Compressed => validate_compressed_sampled(&path, info.edges, sample_blocks)
            .map_err(|e| io::Error::new(e.kind(), format!("shard {}: {e}", info.file))),
    }
}

/// The compressed half of [`validate_shard_sampled`]. Both passes hold
/// O(block) memory — the huge-run fast path must not materialize
/// per-block metadata.
fn validate_compressed_sampled(path: &Path, edges: u64, sample_blocks: usize) -> io::Result<()> {
    let open = || CompressedEdgeReader::new(BufReader::new(File::open(path)?));

    // Pass 1 — structural walk, headers only.
    let mut dec = open()?;
    let mut blocks = 0u64;
    let mut total = 0u64;
    while let Some(count) = dec.skip_block()? {
        blocks += 1;
        total += count;
    }
    if total != edges {
        return Err(invalid(format!(
            "{total} edges in block headers, {edges} in manifest"
        )));
    }
    // The walk's end position must be the exact file size: seeking does
    // not notice a truncated final payload, the byte count does.
    let (pos, file_len) = (dec.position()?, std::fs::metadata(path)?.len());
    if pos != file_len {
        return Err(invalid(format!(
            "{file_len} bytes on disk, {pos} accounted by block headers"
        )));
    }

    // Pass 2 — fetch the evenly spaced sample blocks in stream order;
    // the fetch verifies their lengths and stored checksums.
    let picks = (sample_blocks as u64).min(blocks);
    let mut dec = open()?;
    let mut next_sample = 0u64;
    for idx in 0..blocks {
        if next_sample == picks {
            break;
        }
        if idx as u128 == next_sample as u128 * blocks as u128 / picks as u128 {
            next_sample += 1;
            dec.next_block()
                .map_err(|e| io::Error::new(e.kind(), format!("sampled block {idx}: {e}")))?;
        } else {
            dec.skip_block()?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::{write_sharded, InstanceMeta, StreamConfig};
    use kagen_core::prelude::*;
    use kagen_core::Generator;

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
    fn lying_block_length_fails_full_and_sampled_validation() {
        // A first block header whose `len` is off by one — count,
        // checksum and payload intact — must fail every reader alike.
        use kagen_graph::io::{read_compressed, read_varint, write_varint};
        let gen = GnmDirected::new(2000, 20_000).with_seed(9).with_chunks(1);
        let dir = std::env::temp_dir().join("kagen_reader_lying_len");
        std::fs::remove_dir_all(&dir).ok();
        let meta = InstanceMeta {
            model: "gnm_directed".into(),
            params: String::new(),
            seed: 9,
        };
        let format = ShardFormat::Compressed;
        let manifest = write_sharded(&gen, &meta, &StreamConfig::new(&dir, format)).unwrap();
        let info = &manifest.shards[0];
        let path = dir.join(&info.file);
        let pristine = std::fs::read(&path).unwrap();
        let mut rest = &pristine[16..];
        let count = read_varint(&mut rest).unwrap().unwrap();
        let len = read_varint(&mut rest).unwrap().unwrap();
        assert!(info.edges as u128 > count, "want more than one block");

        for lie in [len - 1, len + 1] {
            let mut bytes = pristine[..16].to_vec();
            write_varint(&mut bytes, count).unwrap();
            write_varint(&mut bytes, lie).unwrap();
            bytes.extend_from_slice(rest);
            std::fs::write(&path, &bytes).unwrap();
            assert!(validate_shard(&dir, format, info).is_err(), "full, {lie}");
            assert!(
                validate_shard_sampled(&dir, format, info, 1).is_err(),
                "sampled, {lie}"
            );
            assert!(
                read_compressed(&bytes[..]).is_err(),
                "read_compressed, {lie}"
            );
        }
        std::fs::write(&path, &pristine).unwrap();
        validate_shard(&dir, format, info).unwrap();
        validate_shard_sampled(&dir, format, info, 1).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn binary_shard_ending_inside_a_record_is_an_error() {
        let dir = std::env::temp_dir().join("kagen_reader_ragged_bin");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ragged.bin");
        let mut bytes = Vec::new();
        for x in 0..3u64 {
            bytes.extend_from_slice(&x.to_le_bytes());
        }
        std::fs::write(&path, &bytes).unwrap();
        let mut seen = Vec::new();
        let res = stream_shard_file(&path, ShardFormat::Binary, &mut |batch| {
            seen.extend_from_slice(batch)
        });
        assert!(res.is_err());
        assert!(seen.is_empty());
        std::fs::write(&path, &bytes[..16]).unwrap();
        stream_shard_file(&path, ShardFormat::Binary, &mut |batch| {
            seen.extend_from_slice(batch)
        })
        .unwrap();
        assert_eq!(seen, vec![(0, 1)]);
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

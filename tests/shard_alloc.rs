//! Nothing read from a shard file sizes an allocation: validation of a
//! compressed shard holds one block, whatever the file's block headers
//! claim and however long the shard is. Measured with the counting
//! global allocator, inside a single `#[test]` so no sibling test's
//! allocations pollute the high-water mark.

use kagen_repro::graph::io::{write_varint, COMPRESSED_MAGIC};
use kagen_repro::pipeline::{
    validate_shard, validate_shard_sampled, CompressedSink, EdgeSink, ShardFormat, ShardInfo,
};
use kagen_util::alloc::CountingAlloc;
use std::io::Write;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const MIB: u64 = 1 << 20;

/// A shard file holding one block header (and no payload bytes).
fn header_only(count: u128, len: u128) -> Vec<u8> {
    let mut bytes = COMPRESSED_MAGIC.to_vec();
    bytes.extend_from_slice(&8u64.to_le_bytes());
    write_varint(&mut bytes, count).unwrap();
    write_varint(&mut bytes, len).unwrap();
    bytes.extend_from_slice(&0u64.to_le_bytes());
    bytes
}

#[test]
fn shard_validation_memory_is_one_block_whatever_the_file_claims() {
    let dir = std::env::temp_dir().join("kagen_shard_alloc");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let format = ShardFormat::Compressed;
    let info = |edges: u64| ShardInfo {
        pe: 0,
        file: "shard-00000.kgc".into(),
        edges,
        checksum: 0,
    };
    let path = dir.join(&info(0).file);
    let both_fail_within = |info: &ShardInfo, what: &str| {
        let mut results = Vec::new();
        let peak = CountingAlloc::peak_during(|| {
            results.push(validate_shard(&dir, format, info).is_err());
            results.push(validate_shard_sampled(&dir, format, info, 4).is_err());
        });
        assert_eq!(results, [true, true], "{what}: must be Err");
        assert!(peak < MIB, "{what}: {peak} bytes allocated");
    };

    // A 31-byte "shard" whose one block claims a 1 TiB payload.
    std::fs::write(&path, header_only(1, 1 << 40)).unwrap();
    both_fail_within(&info(1), "len = 2^40");

    // The same claim backed by the file's size (a sparse 64 MiB file):
    // the header walk finds nothing wrong, so only the per-edge length
    // limit stands between `len` and the payload buffer.
    let claimed = 64 * MIB;
    let mut file = std::fs::File::create(&path).unwrap();
    file.write_all(&header_only(1, claimed as u128)).unwrap();
    let header_len = file.metadata().unwrap().len();
    file.set_len(header_len + claimed).unwrap();
    drop(file);
    both_fail_within(&info(1), "len = 64 MiB, file that long");

    // An edge count far beyond a block's.
    let mut bytes = header_only(1 << 60, 2);
    bytes.extend_from_slice(&[0, 0]);
    std::fs::write(&path, bytes).unwrap();
    both_fail_within(&info(1 << 60), "count = 2^60");

    // A real shard of 300 000 edges (74 blocks) validates in one
    // block's worth of memory: a payload buffer, 64 KiB of edges, the
    // file buffer.
    let edges: Vec<(u64, u64)> = (0..300_000u64)
        .map(|i| (i / 5, i.wrapping_mul(0x9E37_79B9) % 1_000_003))
        .collect();
    let mut sink = CompressedSink::new(std::fs::File::create(&path).unwrap(), 1_000_003).unwrap();
    sink.push_batch(&edges);
    sink.finish().unwrap();
    drop(sink);
    let checksum = edges.iter().fold(0, |acc, &(u, v)| {
        kagen_repro::pipeline::checksum_step(acc, u, v)
    });
    let real = ShardInfo {
        checksum,
        ..info(edges.len() as u64)
    };
    let peak = CountingAlloc::peak_during(|| {
        validate_shard(&dir, format, &real).unwrap();
        validate_shard_sampled(&dir, format, &real, 4).unwrap();
    });
    assert!(peak < MIB / 2, "valid shard: {peak} bytes allocated");
    std::fs::remove_dir_all(&dir).ok();
}

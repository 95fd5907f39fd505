//! Hostile shards, one table: for a two-block compressed shard, a
//! binary shard and a text shard, every proper prefix and every
//! single-byte substitution goes through every reader —
//! `ShardFormat::stream_file`, `validate_shard`, `validate_shard_sampled` (all
//! blocks), `ShardReader::read_all` and `ExternalMerge::merge` — and
//! each answers `Err` or the exact original stream: never a panic, never
//! a different stream. And because blocks are verified before they are
//! exposed, the batch callback never sees an edge of a compressed block
//! whose checksum or length check fails, and a text file is accepted
//! only if it is what the encoder writes for the edges read from it.

use kagen_repro::core::prelude::*;
use kagen_repro::pipeline::{
    checksum_step, external_merge_to_vec, validate_shard, validate_shard_sampled, write_sharded,
    CompressedSink, CountingSink, EdgeSink, ExternalMerge, InstanceMeta, RunHeader, ShardFormat,
    ShardInfo, ShardReader, StreamConfig,
};
use std::path::PathBuf;

/// The largest vertex id a manifest can admit (`n = u64::MAX`): the
/// merge refuses an endpoint that is not below `n`.
const TOP: u64 = u64::MAX - 1;

/// A one-shard directory with its manifest, and what the shard means.
struct Fixture {
    dir: PathBuf,
    format: ShardFormat,
    info: ShardInfo,
    /// The shard file's pristine bytes.
    bytes: Vec<u8>,
    edges: Vec<(u64, u64)>,
    /// Edges in the first block (compressed).
    first_block: usize,
    reader: ShardReader,
}

/// The two restart blocks of the compressed shard: one-byte deltas
/// then 2–5-byte varints, and a short block with widths up to the
/// 65-bit cold path. Blocks are kept far below `COMPRESSED_BLOCK_EDGES`
/// (readers take any block of 1..=4096 edges) so the table can afford
/// every byte position.
fn compressed_blocks() -> [Vec<(u64, u64)>; 2] {
    let mut first: Vec<(u64, u64)> = (0..250u64).map(|i| (i / 4, (i * 3) % 50)).collect();
    first.extend((0..50u64).map(|i| (i * 1000 % 70_001, i * 7919 % (1 << 33))));
    let second = vec![
        (5, 5),
        (300, 2),
        (70_000, 1 << 40),
        (1 << 62, 7),
        (TOP, 0),
        (0, TOP),
        (3, 3),
        (3, 4),
    ];
    [first, second]
}

/// A `KGSHRD02` file of exactly these blocks: each is written as a
/// stream of its own (deltas restart per block) and the streams are
/// joined under the first one's file header.
fn compressed_bytes(blocks: &[Vec<(u64, u64)>]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for block in blocks {
        let mut stream = Vec::new();
        let mut sink = CompressedSink::new(&mut stream, u64::MAX).unwrap();
        sink.push_batch(block);
        sink.finish().unwrap();
        drop(sink);
        let skip = if bytes.is_empty() { 0 } else { 16 };
        bytes.extend_from_slice(&stream[skip..]);
    }
    bytes
}

fn binary_edges() -> Vec<(u64, u64)> {
    (0..40u64).map(|i| (i * i, TOP - i)).collect()
}

/// Ids of every decimal width from one digit to twenty, zeros on both
/// sides, and both ends of the id range.
fn text_edges() -> Vec<(u64, u64)> {
    let mut edges: Vec<(u64, u64)> = (0..20u32)
        .map(|w| (10u64.pow(w) - w as u64 % 2, 10u64.pow(19 - w)))
        .collect();
    edges.extend([(0, 0), (TOP, 0), (0, TOP), (10, 100), (9, 99)]);
    edges
}

/// `test` keeps the concurrently running tests' directories apart.
fn fixture(format: ShardFormat, blocks: &[Vec<(u64, u64)>], test: &str) -> Fixture {
    let tag = format.extension();
    let dir = std::env::temp_dir().join(format!("kagen_shard_hostile_{test}_{tag}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let edges = blocks.concat();
    let bytes = match format {
        ShardFormat::Compressed => compressed_bytes(blocks),
        ShardFormat::Binary | ShardFormat::EdgeList => {
            let mut bytes = Vec::new();
            let mut sink = format.sink(&mut bytes, u64::MAX).unwrap();
            sink.push_batch(&edges);
            sink.finish().unwrap();
            drop(sink);
            bytes
        }
    };
    let info = ShardInfo {
        pe: 0,
        file: format!("shard-00000.{tag}"),
        edges: edges.len() as u64,
        checksum: edges
            .iter()
            .fold(0, |acc, &(u, v)| checksum_step(acc, u, v)),
    };
    RunHeader {
        model: "hostile".into(),
        params: String::new(),
        seed: 1,
        n: u64::MAX,
        directed: true,
        chunks: 1,
        format: format.name().into(),
    }
    .federate(vec![info.clone()])
    .unwrap()
    .save(&dir)
    .unwrap();
    Fixture {
        reader: ShardReader::open(&dir).unwrap(),
        dir,
        format,
        info,
        bytes,
        edges,
        first_block: blocks[0].len(),
    }
}

/// What the readers made of one mutant.
#[derive(Default)]
struct Tally {
    /// Readers that answered `Err`.
    rejected: usize,
    /// Readers that answered the original stream.
    exact: usize,
}

impl Fixture {
    /// Put `mutant` in the shard's place and hold every reader to "an
    /// error or the original stream".
    fn check(&self, mutant: &[u8], what: &str, tally: &mut Tally) {
        let path = self.dir.join(&self.info.file);
        std::fs::write(&path, mutant).unwrap();
        let mut note = |ok: bool| {
            if ok {
                tally.exact += 1;
            } else {
                tally.rejected += 1;
            }
        };

        // The file alone, no manifest. A compressed shard verifies
        // itself: whatever reached the callback is a run of whole,
        // verified blocks off the front of the stream.
        let mut seen: Vec<(u64, u64)> = Vec::new();
        let streamed = self
            .format
            .stream_file(&path, &mut |batch| seen.extend_from_slice(batch));
        if self.format == ShardFormat::Compressed {
            assert!(
                self.edges.starts_with(&seen),
                "{what}: the callback saw edges that are not in the stream"
            );
            assert!(
                streamed.is_ok() || seen.is_empty() || seen.len() == self.first_block,
                "{what}: the callback saw {} edges, part of a block that failed",
                seen.len()
            );
        }
        // Text has no checksum of its own, but (without blank lines and
        // comments, which no substitution here creates) the grammar
        // accepts exactly what the encoder writes, final newline aside.
        if self.format == ShardFormat::EdgeList && streamed.is_ok() {
            let mut rewritten = Vec::new();
            let mut sink = self.format.sink(&mut rewritten, u64::MAX).unwrap();
            sink.push_batch(&seen);
            sink.finish().unwrap();
            drop(sink);
            assert!(
                rewritten == mutant || rewritten == [mutant, b"\n"].concat(),
                "{what}: text accepted that is not the canonical form of its edges"
            );
        }
        let stream_intact = streamed.is_ok() && seen == self.edges;

        // Validators accept only what streams back intact. (Sampled
        // validation of a binary shard is its length, by contract.)
        let full = validate_shard(&self.dir, self.format, &self.info).is_ok();
        assert!(!full || stream_intact, "{what}: validate_shard accepted");
        note(full);
        let sampled =
            validate_shard_sampled(&self.dir, self.format, &self.info, usize::MAX).is_ok();
        match self.format {
            ShardFormat::Binary => assert!(
                !sampled || mutant.len() == self.bytes.len(),
                "{what}: sampled validation accepted a binary shard of another length"
            ),
            _ => assert!(!sampled || stream_intact, "{what}: sampled accepted"),
        }
        note(sampled);

        let all = self.reader.read_all();
        if let Ok(el) = &all {
            assert_eq!(el.edges, self.edges, "{what}: read_all");
        }
        note(all.is_ok());

        let runs = self.dir.join("runs");
        let merged = external_merge_to_vec(&self.reader, &runs, 1 << 16);
        if let Ok((edges, _)) = &merged {
            let mut sorted = self.edges.clone();
            sorted.sort_unstable();
            assert_eq!(edges, &sorted, "{what}: merge");
        }
        note(merged.is_ok());
        std::fs::remove_dir_all(&runs).ok();
    }
}

fn table(test: &str) -> Vec<Fixture> {
    vec![
        fixture(ShardFormat::Compressed, &compressed_blocks(), test),
        fixture(ShardFormat::Binary, &[binary_edges()], test),
        fixture(ShardFormat::EdgeList, &[text_edges()], test),
    ]
}

#[test]
fn pristine_shards_read_back_exactly() {
    for fx in table("pristine") {
        let mut tally = Tally::default();
        fx.check(&fx.bytes, "pristine", &mut tally);
        assert_eq!((tally.exact, tally.rejected), (4, 0), "{:?}", fx.format);
        std::fs::remove_dir_all(&fx.dir).ok();
    }
}

#[test]
fn every_proper_prefix_is_an_error() {
    for fx in table("prefix") {
        for cut in 0..fx.bytes.len() {
            let mut tally = Tally::default();
            fx.check(
                &fx.bytes[..cut],
                &format!("prefix of {cut} bytes"),
                &mut tally,
            );
            // The one prefix that cuts no record: a text shard without
            // its final newline is the same stream to every reader.
            let whole = fx.format == ShardFormat::EdgeList && cut == fx.bytes.len() - 1;
            assert_eq!(
                tally.exact,
                if whole { 4 } else { 0 },
                "{:?}: prefix of {cut} bytes",
                fx.format
            );
        }
        std::fs::remove_dir_all(&fx.dir).ok();
    }
}

#[test]
fn single_byte_substitutions_never_panic_or_change_the_stream() {
    for fx in table("substitution") {
        let mut tally = Tally::default();
        for at in 0..fx.bytes.len() {
            // Both ends of a byte (a varint's low bit and its
            // continuation bit), and the two constants that zero or
            // saturate a count, a length or a delta.
            let original = fx.bytes[at];
            for b in [original ^ 0x01, original ^ 0x80, 0x00, 0xff] {
                if b == original {
                    continue;
                }
                let mut mutant = fx.bytes.clone();
                mutant[at] = b;
                fx.check(&mutant, &format!("byte {at} := {b:#04x}"), &mut tally);
            }
        }
        // The vertex-count field of a compressed shard (8 bytes no
        // checksum covers) can change without changing the stream, and
        // a binary shard's sampled validation is its length; everything
        // else — every substitution in a text shard — must be refused.
        let benign = match fx.format {
            ShardFormat::Compressed => 8 * 4 * 4,
            ShardFormat::Binary => fx.bytes.len() * 4,
            ShardFormat::EdgeList => 0,
        };
        assert!(
            tally.exact <= benign,
            "{:?}: {} mutant reads accepted, at most {benign} are benign",
            fx.format,
            tally.exact
        );
        std::fs::remove_dir_all(&fx.dir).ok();
    }
}

/// One flipped byte in shard 40 of 64: the merge fails with one line
/// naming the shard, nothing has reached the sink, and the spill files
/// both workers had written by then are gone with their directory.
#[test]
fn failed_merge_leaves_no_spill_files() {
    let dir = std::env::temp_dir().join("kagen_shard_hostile_spill");
    std::fs::remove_dir_all(&dir).ok();
    let gen = GnmUndirected::new(5000, 40_000)
        .with_seed(3)
        .with_chunks(64);
    let meta = InstanceMeta {
        model: "gnm_undirected".into(),
        params: String::new(),
        seed: 3,
    };
    let manifest =
        write_sharded(&gen, &meta, &StreamConfig::new(&dir, ShardFormat::Binary)).unwrap();
    // A budget of two shards or so: shards 32..40 overflow the second
    // worker's share before it meets the bad one.
    assert!(manifest.shards.iter().all(|s| s.edges > 600));
    let path = dir.join(&manifest.shards[40].file);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[8] ^= 0x01;
    std::fs::write(&path, bytes).unwrap();

    let reader = ShardReader::open(&dir).unwrap();
    let mut sink = CountingSink::new();
    let err = ExternalMerge::new(dir.join("runs"), 4096)
        .with_threads(2)
        .merge(&reader, &mut sink)
        .unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let line = err.to_string();
    assert!(
        line.contains("shard-00040.bin") && !line.contains('\n'),
        "{line}"
    );
    assert_eq!(
        sink.finish().unwrap(),
        0,
        "edges emitted before the shards were verified"
    );
    assert!(!dir.join("runs").exists(), "spill files leaked");
    std::fs::remove_dir_all(&dir).ok();
}

/// An 8-byte varint — the longest the decoder loads as one word — whose
/// last byte gains a continuation bit: the varint now runs past the
/// 8-byte window, onto the bytewise path, and every reader refuses the
/// shard with the error that path gives.
#[test]
fn continuation_bit_on_the_last_byte_of_the_word_window_is_rejected() {
    // u = 2^54: the first delta's zigzag is 2^55, an 8-byte varint
    // opening the payload; then deltas of every width after it.
    let block: Vec<(u64, u64)> = vec![(1 << 54, 5), (1 << 54, 1 << 54), (3, 2), (TOP, 0), (9, 9)];
    let fx = fixture(ShardFormat::Compressed, &[block], "window");
    // File header (16 bytes), varint(count = 5), varint(len < 128),
    // the block checksum (8 bytes): the payload starts at byte 26.
    let last = 26 + 7;
    assert_eq!(fx.bytes[26..last], [0x80; 7]);
    assert_eq!(fx.bytes[last], 0x40);
    let mut mutant = fx.bytes.clone();
    mutant[last] |= 0x80;

    let mut tally = Tally::default();
    fx.check(&mutant, "continuation bit on byte 8", &mut tally);
    assert_eq!((tally.exact, tally.rejected), (0, 4));
    let path = fx.dir.join(&fx.info.file);
    let mut seen = 0;
    let err = fx
        .format
        .stream_file(&path, &mut |batch| seen += batch.len())
        .unwrap_err();
    assert_eq!(seen, 0, "a block that failed reached the callback");
    // The varint swallows the next one's byte, every later varint
    // lands in the wrong field, and a v-delta then steps below id 0.
    let refusal = "edge delta decodes outside the u64 vertex-id range";
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert_eq!(err.to_string(), refusal);
    let err = validate_shard(&fx.dir, fx.format, &fx.info).unwrap_err();
    assert_eq!(err.to_string(), refusal);
    std::fs::remove_dir_all(&fx.dir).ok();
}

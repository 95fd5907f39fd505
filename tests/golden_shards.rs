//! Golden output bytes: what `CompressedSink` (`KGSHRD02`), `TextSink`
//! and `BinarySink` write for a fixed set of streams, and what the
//! `kagen` binary writes to stdout and to `merged.*`, pinned as
//! `(length, FNV-1a 64 digest)` literals. Every on-disk format is pinned
//! here directly, so a rebuilt encoder needs no second encoder to
//! compare against.
//!
//! Every stream is fed in ragged batches (sizes cycle through
//! [`BATCHES`], which includes empty and block-straddling slices): how a
//! stream is cut must never show in the bytes. `ShardFormat::sink` fed
//! the whole list in one batch — how `kagen <model> -o` writes — must
//! produce the same bytes.
//!
//! On a mismatch the failure message prints every differing row in
//! source form.

use kagen_repro::core::prelude::*;
use kagen_repro::graph::io::CompressedEdgeReader;
use kagen_repro::pipeline::{
    BinarySink, CompressedSink, EdgeSink, Manifest, ShardFormat, TextSink,
};
use std::process::Command;

/// Batch sizes the streams are cut into, cycled until the stream ends.
const BATCHES: &[usize] = &[1, 0, 7, 4096, 33, 5000, 2, 4095, 8193, 64];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Push `edges` into `sink` in ragged batches and close it.
fn feed(sink: &mut dyn EdgeSink, edges: &[(u64, u64)]) {
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
}

/// The shard bytes of `edges` over `n` vertices, written through
/// `CompressedSink` in ragged batches.
fn shard_bytes(n: u64, edges: &[(u64, u64)]) -> Vec<u8> {
    let mut bytes = Vec::new();
    feed(&mut CompressedSink::new(&mut bytes, n).unwrap(), edges);
    bytes
}

/// The same through `TextSink`.
fn text_bytes(edges: &[(u64, u64)]) -> Vec<u8> {
    let mut bytes = Vec::new();
    feed(&mut TextSink::new(&mut bytes), edges);
    bytes
}

/// The same through `BinarySink`.
fn binary_bytes(edges: &[(u64, u64)]) -> Vec<u8> {
    let mut bytes = Vec::new();
    feed(&mut BinarySink::new(&mut bytes), edges);
    bytes
}

fn generated(gen: &dyn Generator) -> Vec<(u64, u64)> {
    let mut edges = Vec::new();
    gen.stream_all_batched(&mut Vec::new(), &mut |e| edges.extend_from_slice(e));
    edges
}

/// `m` edges of a sorted-source stream with small forward and backward
/// target deltas.
fn ramp(m: u64) -> Vec<(u64, u64)> {
    (0..m).map(|i| (i / 3, (i * 7919) % 100_003)).collect()
}

/// Ids alternating between 0 and each of `xs`: a step 0 → x is the
/// delta +x (zigzag 2x), the step back −x (zigzag 2x − 1).
fn seesaw(xs: &[u64], len: usize) -> impl Iterator<Item = u64> + '_ {
    (0..len).map(|i| {
        if i % 2 == 0 {
            0
        } else {
            xs[(i / 2) % xs.len()]
        }
    })
}

/// Deltas of every varint length from 1 to 10 bytes on both endpoints.
/// x = 2^(7k − 1) puts the zigzags 2^(7k) − 1 and 2^(7k) — the longest
/// k-byte and the shortest (k + 1)-byte varint — next to each other;
/// k = 8 is z = 2^56 − 1 and 2^56, where the 8-byte word path hands
/// over to the bytewise one. Mid-length values and the 65-bit deltas
/// of the id range's ends fill in; `v` walks the list in reverse, so an
/// edge pairs lengths that differ.
fn varint_lengths() -> Vec<(u64, u64)> {
    let mut xs = vec![1, 2, 3, 0x7f, (1 << 62) + 12345, 1 << 63, u64::MAX];
    for k in 1..=9 {
        xs.push(1 << (7 * k - 1));
        xs.push((1 << (7 * k - 1)) - 1);
        xs.push(0x5a5a_5a5a_5a5a_5a5a >> (64 - 7 * k));
    }
    let rev: Vec<u64> = xs.iter().rev().copied().collect();
    let len = 4 * xs.len() + 4100;
    seesaw(&xs, len)
        .zip(seesaw(&rev, len + 1).skip(1))
        .collect()
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
        ("varint_lengths", u64::MAX, varint_lengths()),
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
    ("varint_lengths", 43553, 7841064123947545956),
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
        let mut dec = CompressedEdgeReader::new(&bytes[..]).unwrap();
        let mut back = Vec::new();
        while let Some(block) = dec.next_block().unwrap() {
            back.extend_from_slice(block);
        }
        assert_eq!((dec.n(), &back), (*n, edges), "{name}: round trip");
    }
    assert!(wrong.is_empty(), "shard bytes moved:\n{wrong}");
}

/// Byte length of the zigzag varint of the delta `to − from`.
fn delta_varint_len(from: u64, to: u64) -> u32 {
    let d = to as i128 - from as i128;
    let z = ((d << 1) ^ (d >> 127)) as u128;
    (128 - z.leading_zeros()).div_ceil(7).max(1)
}

#[test]
fn streams_cover_what_their_names_say() {
    for (name, _, edges) in streams() {
        let sorted = edges.windows(2).all(|w| w[0].0 <= w[1].0);
        match name {
            "rmat_unsorted" => assert!(!sorted && edges.len() == 40_000),
            "gnm_sorted" => assert!(sorted && edges.len() == 30_000),
            "varint_lengths" => {
                // Within the first restart block (deltas restart at
                // (0, 0) every 4096 edges): every length on both
                // endpoints, and the 8-byte/9-byte hand-over exactly.
                let block = &edges[..4096];
                let mut lens = [std::collections::BTreeSet::new(), Default::default()];
                let mut zs = std::collections::BTreeSet::new();
                for w in block.windows(2) {
                    lens[0].insert(delta_varint_len(w[0].0, w[1].0));
                    lens[1].insert(delta_varint_len(w[0].1, w[1].1));
                    for (a, b) in [(w[0].0, w[1].0), (w[0].1, w[1].1)] {
                        let d = b as i128 - a as i128;
                        zs.insert(((d << 1) ^ (d >> 127)) as u128);
                    }
                }
                for endpoint in &lens {
                    assert!(endpoint.iter().copied().eq(1..=10), "{endpoint:?}");
                }
                assert!(zs.contains(&((1 << 56) - 1)) && zs.contains(&(1 << 56)));
                assert!(edges.len() > 4096);
            }
            _ => {}
        }
    }
}

/// Hold the bytes `produce` yields per stream against a golden table of
/// `(name, length, digest)` rows; on a mismatch the table as found comes
/// back in source form.
fn moved_rows(golden: &[(&str, usize, u64)], produce: impl Fn(&Stream) -> Vec<u8>) -> String {
    let mut found = String::new();
    let mut moved = false;
    for (i, stream) in streams().iter().enumerate() {
        let bytes = produce(stream);
        let row = (stream.0, bytes.len(), fnv1a(&bytes));
        found.push_str(&format!("    ({:?}, {}, {}),\n", row.0, row.1, row.2));
        moved |= golden.get(i) != Some(&row);
    }
    if moved {
        found
    } else {
        String::new()
    }
}

#[rustfmt::skip]
const TEXT_GOLDEN: &[(&str, usize, u64)] = &[
    ("rmat_unsorted", 561823, 4053334411900743830),
    ("gnm_sorted", 346689, 17446932748703243171),
    ("edges_4096", 41268, 4330542821808397941),
    ("edges_4097", 41279, 17442204464960001265),
    ("edges_8192", 85873, 10473585815210286246),
    ("single_edge", 4, 15577443145084039621),
    ("empty", 0, 14695981039346656037),
    ("u64_extremes", 121945, 4062948975470486677),
    ("varint_lengths", 56716, 2390375156565579465),
];

#[rustfmt::skip]
const BINARY_GOLDEN: &[(&str, usize, u64)] = &[
    ("rmat_unsorted", 640000, 11159922467359396497),
    ("gnm_sorted", 480000, 10913037378052322777),
    ("edges_4096", 65536, 5984336220889306204),
    ("edges_4097", 65552, 15617694990731879249),
    ("edges_8192", 131072, 17094042009724552823),
    ("single_edge", 16, 17144980386569131983),
    ("empty", 0, 14695981039346656037),
    ("u64_extremes", 80000, 12255906778321021061),
    ("varint_lengths", 67776, 2655997361574126703),
];

#[test]
fn text_and_binary_sink_bytes_match_golden() {
    let text = moved_rows(TEXT_GOLDEN, |(_, _, edges)| text_bytes(edges));
    assert!(text.is_empty(), "TextSink bytes moved:\n{text}");
    let binary = moved_rows(BINARY_GOLDEN, |(_, _, edges)| binary_bytes(edges));
    assert!(binary.is_empty(), "BinarySink bytes moved:\n{binary}");
    // What the bytes are, stated once: a line per edge, 16 bytes per edge.
    assert_eq!(
        text_bytes(&[(3, 9), (u64::MAX, 0)]),
        b"3 9\n18446744073709551615 0\n"
    );
    let mut record = 3u64.to_le_bytes().to_vec();
    record.extend_from_slice(&9u64.to_le_bytes());
    assert_eq!(binary_bytes(&[(3, 9)]), record);
}

#[test]
fn whole_list_writers_produce_their_sinks_bytes() {
    for (name, n, edges) in streams() {
        for (format, want) in [
            (ShardFormat::EdgeList, text_bytes(&edges)),
            (ShardFormat::Binary, binary_bytes(&edges)),
            (ShardFormat::Compressed, shard_bytes(n, &edges)),
        ] {
            let mut bytes = Vec::new();
            let mut sink = format.sink(&mut bytes, n).unwrap();
            sink.push_batch(&edges);
            assert_eq!(sink.finish().unwrap(), edges.len() as u64);
            drop(sink);
            assert!(bytes == want, "{name}: {format:?} sink, one batch");
        }
    }
}

const KAGEN: &str = env!("CARGO_BIN_EXE_kagen");

/// Run the binary (`{dir}` = a fresh scratch directory) and hand back
/// its stdout and the scratch directory.
fn kagen(tag: &str, argv: &str) -> (Vec<u8>, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("kagen_golden_cli_{tag}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let args: Vec<String> = argv
        .split_whitespace()
        .map(|a| a.replace("{dir}", dir.to_str().unwrap()))
        .collect();
    let out = Command::new(KAGEN)
        .args(&args)
        .env_remove("KAGEN_LOG")
        .output()
        .expect("cannot spawn kagen");
    assert!(
        out.status.success(),
        "kagen {argv}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    (out.stdout, dir)
}

/// `(argv, length, digest)` of what `kagen <model>` prints to stdout.
#[rustfmt::skip]
const STDOUT_GOLDEN: &[(&str, usize, u64)] = &[
    ("gnm_undirected -n 300 -m 2000 -s 7 -c 4 -f edge-list", 14475, 11076644396988639121),
    ("gnm_undirected -n 300 -m 2000 -s 7 -c 4 -f metis", 14508, 6843079015031989027),
    ("gnm_undirected -n 300 -m 2000 -s 7 -c 4 -f binary", 32000, 12358274296402922961),
    ("gnm_undirected -n 300 -m 2000 -s 7 -c 4 -f compressed", 4267, 6304041679203840380),
    ("gnm_directed -n 300 -m 2000 -s 7 -c 4 -f edge-list", 14489, 5895063307713877490),
    ("gnm_directed -n 300 -m 2000 -s 7 -c 4 -f binary", 32000, 9775753591261264366),
    ("gnm_directed -n 300 -m 2000 -s 7 -c 4 -f compressed", 4619, 308565907327326405),
    ("gnm_directed -n 300 -m 2000 -s 7 -c 4", 14489, 5895063307713877490),
];

const STDOUT_ARGVS: &[&str] = &[
    "gnm_undirected -n 300 -m 2000 -s 7 -c 4 -f edge-list",
    "gnm_undirected -n 300 -m 2000 -s 7 -c 4 -f metis",
    "gnm_undirected -n 300 -m 2000 -s 7 -c 4 -f binary",
    "gnm_undirected -n 300 -m 2000 -s 7 -c 4 -f compressed",
    "gnm_directed -n 300 -m 2000 -s 7 -c 4 -f edge-list",
    "gnm_directed -n 300 -m 2000 -s 7 -c 4 -f binary",
    "gnm_directed -n 300 -m 2000 -s 7 -c 4 -f compressed",
    // No -f: the default format.
    "gnm_directed -n 300 -m 2000 -s 7 -c 4",
];

#[test]
fn kagen_model_stdout_matches_golden() {
    let mut found = String::new();
    let mut moved = false;
    for (i, argv) in STDOUT_ARGVS.iter().enumerate() {
        let (stdout, dir) = kagen(&format!("stdout_{i}"), argv);
        std::fs::remove_dir_all(&dir).ok();
        let row = (*argv, stdout.len(), fnv1a(&stdout));
        found.push_str(&format!("    ({:?}, {}, {}),\n", row.0, row.1, row.2));
        moved |= STDOUT_GOLDEN.get(i) != Some(&row);
        // `-o` and stdout are one writer.
        let (_, dir) = kagen(&format!("file_{i}"), &format!("{argv} -o {{dir}}/out"));
        assert!(
            std::fs::read(dir.join("out")).unwrap() == stdout,
            "{argv}: -o differs from stdout"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
    assert!(
        !moved && STDOUT_GOLDEN.len() == STDOUT_ARGVS.len(),
        "kagen <model> stdout moved; the table as found:\n{found}"
    );
}

/// `(format, merged file, its length and digest, digest of the whole
/// shard directory)` of `kagen stream … --merge external`.
#[rustfmt::skip]
const MERGED_GOLDEN: &[(&str, &str, usize, u64, u64)] = &[
    ("edge-list", "merged.txt", 14475, 11076644396988639121, 8672265443592805612),
    ("binary", "merged.bin", 32000, 12358274296402922961, 13034527439592220906),
    ("compressed", "merged.kgc", 4267, 6304041679203840380, 11001588430470773085),
];

/// One digest over every file of `dir` (names and bytes, sorted by
/// name; the merge's emptied `runs/` directory is skipped).
fn dir_digest(dir: &std::path::Path) -> u64 {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap())
        .filter(|e| e.file_type().unwrap().is_file())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    files.sort();
    let mut all = Vec::new();
    for name in files {
        all.extend_from_slice(name.as_bytes());
        all.extend_from_slice(&std::fs::read(dir.join(&name)).unwrap());
    }
    fnv1a(&all)
}

#[test]
fn kagen_stream_merged_output_matches_golden() {
    let mut found = String::new();
    let mut moved = false;
    let formats = [
        ("edge-list", "merged.txt"),
        ("binary", "merged.bin"),
        ("compressed", "merged.kgc"),
    ];
    for (i, (format, merged)) in formats.into_iter().enumerate() {
        let (_, dir) = kagen(
            &format!("merged_{format}"),
            &format!(
                "stream gnm_undirected -n 300 -m 2000 -s 7 -c 4 -t 1 \
                 --shard-dir {{dir}} -f {format} --merge external"
            ),
        );
        let bytes = std::fs::read(dir.join(merged)).unwrap();
        let row = (format, merged, bytes.len(), fnv1a(&bytes), dir_digest(&dir));
        found.push_str(&format!(
            "    ({:?}, {:?}, {}, {}, {}),\n",
            row.0, row.1, row.2, row.3, row.4
        ));
        moved |= MERGED_GOLDEN.get(i) != Some(&row);
        // The merged file is the materializing front-end's output.
        let (stdout, ref_dir) = kagen(
            &format!("merged_ref_{format}"),
            &format!("gnm_undirected -n 300 -m 2000 -s 7 -c 4 -f {format}"),
        );
        assert!(
            stdout == bytes,
            "{format}: merged differs from kagen <model>"
        );
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&ref_dir).ok();
    }
    assert!(
        !moved && MERGED_GOLDEN.len() == formats.len(),
        "kagen stream --merge external output moved; the table as found:\n{found}"
    );
}

/// `(model argv, format, length and digest of merged.*)` of `kagen
/// stream … --merge external`. A binary row holds at every `--merge-budget`
/// of [`MERGE_BUDGETS`] and every `-t` of 1, 2, 4 (the merged file is the
/// sorted edge (multi)set: no budget, thread count or tie-break can show
/// in it); the text and compressed rows run at one combination.
#[rustfmt::skip]
const GOLDEN_MERGED: &[(&str, &str, usize, u64)] = &[
    ("gnp_undirected -n 3000 -p 0.002 -s 3 -c 16", "binary", 146880, 5480271719102261867),
    ("gnm_directed -n 2000 -m 12000 -s 3 -c 16", "binary", 192000, 7150711867164262285),
    // Multi-edges are kept: 12000 edges in, 12000 out.
    ("rmat -n 1024 -m 12000 -s 3 -c 16", "binary", 192000, 7317404787042555822),
    // Hub skew: the low ids take most of the edges.
    ("rhg -n 4000 -d 8 -g 2.4 -s 3 -c 16", "binary", 232816, 16958533502513050620),
    ("ba -n 3000 -d 4 -s 3 -c 16", "binary", 192000, 5642701739184469350),
    ("gnp_undirected -n 3000 -p 0.002 -s 3 -c 16", "edge-list", 85094, 2851106999204037742),
    ("rmat -n 1024 -m 12000 -s 3 -c 16", "compressed", 26212, 1844308087560362027),
];

/// `--merge-budget` of the binary [`GOLDEN_MERGED`] rows: a budget far
/// below a shard, one below the instance, and the default.
const MERGE_BUDGETS: &[&str] = &["--merge-budget 16", "--merge-budget 1000", ""];

#[test]
fn kagen_stream_merged_output_is_budget_and_thread_invariant() {
    let mut found = String::new();
    let mut moved = false;
    for (i, &(model, format, len, digest)) in GOLDEN_MERGED.iter().enumerate() {
        let combos: Vec<(&str, usize)> = if format == "binary" {
            MERGE_BUDGETS
                .iter()
                .flat_map(|&b| [1, 2, 4].map(|t| (b, t)))
                .collect()
        } else {
            vec![(MERGE_BUDGETS[1], 2)]
        };
        let mut rows = std::collections::BTreeSet::new();
        for (budget, threads) in combos {
            let (_, dir) = kagen(
                &format!("golden_merged_{i}"),
                &format!(
                    "stream {model} -t {threads} --shard-dir {{dir}} -f {format} \
                     --merge external {budget} -o {{dir}}/merged"
                ),
            );
            let bytes = std::fs::read(dir.join("merged")).unwrap();
            rows.insert((bytes.len(), fnv1a(&bytes)));
            assert!(
                !dir.join("runs").exists(),
                "{model} {budget} -t {threads}: the merge left its scratch directory behind"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
        moved |= rows != std::collections::BTreeSet::from([(len, digest)]);
        for (len, digest) in rows {
            found.push_str(&format!("    ({model:?}, {format:?}, {len}, {digest}),\n"));
        }
    }
    assert!(
        !moved,
        "merged output moved, or differs between budgets / thread counts (a row per \
         distinct output); the table as found:\n{found}"
    );
}

/// `(model argv, -c, format, the manifest checksum of every shard)` of
/// `kagen stream`: the fold of each PE's edge stream the manifest
/// records, pinned per format because each format's write path
/// computes it.
#[rustfmt::skip]
const GOLDEN_SHARD_CHECKSUMS: &[(&str, u64, &str, &[u64])] = &[
    ("rmat -n 4096 -m 30000 -s 5", 1, "edge-list", &[10532212436546467604]),
    ("rmat -n 4096 -m 30000 -s 5", 1, "binary", &[10532212436546467604]),
    ("rmat -n 4096 -m 30000 -s 5", 1, "compressed", &[10532212436546467604]),
    ("rmat -n 4096 -m 30000 -s 5", 7, "edge-list", &[3852380415789699810, 8452805476460919528, 11293885080746242876, 6924098669313479200, 10906739660419475636, 16813765830012840640, 7912853537362911543]),
    ("rmat -n 4096 -m 30000 -s 5", 7, "binary", &[3852380415789699810, 8452805476460919528, 11293885080746242876, 6924098669313479200, 10906739660419475636, 16813765830012840640, 7912853537362911543]),
    ("rmat -n 4096 -m 30000 -s 5", 7, "compressed", &[3852380415789699810, 8452805476460919528, 11293885080746242876, 6924098669313479200, 10906739660419475636, 16813765830012840640, 7912853537362911543]),
    ("gnm_directed -n 3000 -m 20000 -s 5", 1, "edge-list", &[16945248689204493877]),
    ("gnm_directed -n 3000 -m 20000 -s 5", 1, "binary", &[16945248689204493877]),
    ("gnm_directed -n 3000 -m 20000 -s 5", 1, "compressed", &[16945248689204493877]),
    ("gnm_directed -n 3000 -m 20000 -s 5", 7, "edge-list", &[2395400772408127680, 16008278515781136286, 6602185998449461845, 13108866159146417220, 9514683183176473752, 16944580585848191664, 1776620548197452111]),
    ("gnm_directed -n 3000 -m 20000 -s 5", 7, "binary", &[2395400772408127680, 16008278515781136286, 6602185998449461845, 13108866159146417220, 9514683183176473752, 16944580585848191664, 1776620548197452111]),
    ("gnm_directed -n 3000 -m 20000 -s 5", 7, "compressed", &[2395400772408127680, 16008278515781136286, 6602185998449461845, 13108866159146417220, 9514683183176473752, 16944580585848191664, 1776620548197452111]),
    ("rgg2d -n 6000 -s 5", 1, "edge-list", &[12640410235796329474]),
    ("rgg2d -n 6000 -s 5", 1, "binary", &[12640410235796329474]),
    ("rgg2d -n 6000 -s 5", 1, "compressed", &[12640410235796329474]),
    ("rgg2d -n 6000 -s 5", 7, "edge-list", &[6160588341845295575, 12706340483874592174, 5148440525987248004, 17522063875603976383]),
    ("rgg2d -n 6000 -s 5", 7, "binary", &[6160588341845295575, 12706340483874592174, 5148440525987248004, 17522063875603976383]),
    ("rgg2d -n 6000 -s 5", 7, "compressed", &[6160588341845295575, 12706340483874592174, 5148440525987248004, 17522063875603976383]),
];

#[test]
fn kagen_stream_manifest_checksums_match_golden() {
    let models = [
        "rmat -n 4096 -m 30000 -s 5",
        "gnm_directed -n 3000 -m 20000 -s 5",
        "rgg2d -n 6000 -s 5",
    ];
    let mut found = String::new();
    let mut rows = Vec::new();
    for model in models {
        for chunks in [1u64, 7] {
            for format in ["edge-list", "binary", "compressed"] {
                let (_, dir) = kagen(
                    &format!("checksums_{chunks}_{format}"),
                    &format!("stream {model} -c {chunks} -t 2 -f {format} --shard-dir {{dir}}"),
                );
                let manifest = Manifest::load(&dir).unwrap();
                let sums: Vec<u64> = manifest.shards.iter().map(|s| s.checksum).collect();
                found.push_str(&format!(
                    "    ({model:?}, {chunks}, {format:?}, &{sums:?}),\n"
                ));
                rows.push((model, chunks, format, sums));
                std::fs::remove_dir_all(&dir).ok();
            }
        }
    }
    let same = rows.len() == GOLDEN_SHARD_CHECKSUMS.len()
        && rows
            .iter()
            .zip(GOLDEN_SHARD_CHECKSUMS)
            .all(|(row, golden)| {
                (row.0, row.1, row.2, &row.3[..]) == (golden.0, golden.1, golden.2, golden.3)
            });
    assert!(
        same,
        "manifest checksums moved; the table as found:\n{found}"
    );
}

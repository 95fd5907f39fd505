//! Peak-allocation regression tests for the cell-cursor streaming core:
//! the per-PE working set of the spatial/hyperbolic generators must stay
//! **sublinear in the per-PE edge count** — the whole point of replacing
//! the materializing fallback — and for RHG, whose §7.1 engine holds what
//! it touches, within a small multiple of n/P points. Two instruments:
//!
//! * a counting global allocator (every byte allocated during a
//!   `stream_pe` pass, high-water above the pre-pass baseline), and
//! * the generators' own accounting in points: the sweep frontier and
//!   halo ring RGG holds (`Rgg::stream_cells`' `peak_points`), the RHG
//!   query engine's `peak_points` (`Rhg::stream_query`) and the most
//!   points one RDG block held with its halo (`Rdg::stream_cells`).
//!
//! The tests take turns (`SERIAL`) so no sibling's allocations pollute
//! the high-water mark.

use kagen_repro::core::prelude::*;
use kagen_util::alloc::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Peak bytes allocated while `f` runs, above the entry baseline.
fn alloc_peak_during(f: impl FnOnce()) -> u64 {
    CountingAlloc::peak_during(f)
}

static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// RDG's working set is one block of cells with its certified halo, not
/// the chunk: at the same points per cell, 16× the points per PE leave
/// the most points a PE ever holds where it was, under a small multiple
/// of what a block's own cells expect to hold.
#[test]
fn rdg_working_set_is_a_block_not_a_chunk() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    fn peak<const D: usize>(gen: kagen_repro::core::rdg::Rdg<D>) -> u64 {
        gen.stream_cells(0, &mut |_, _| {}).peak_points
    }
    // 2-D, one level of chunks: 16 × 16 and 64 × 64 cells per chunk at
    // 9.8 points per cell, blocks of 16 × 16 in both. Two halo rings
    // make a block (16 + 4)² / 16² = 1.56 of its own points.
    let small = peak(Rdg2d::new(10_000).with_seed(3).with_chunks(4));
    let large = peak(Rdg2d::new(160_000).with_seed(3).with_chunks(4));
    assert!(4 * large <= 5 * small, "2-D peak grew {small} -> {large}");
    let block = 256.0 * 160_000.0 / 16_384.0;
    assert!(
        (large as f64) < 2.0 * block,
        "2-D block holds {large} points, its own cells expect {block}"
    );
    // 3-D, where 4 chunks round down to one: 8³ cells (19.5 points per
    // cell) against 32³ (4.9), blocks of 8³ in both. (8 + 4)³ / 8³ = 3.4.
    let small = peak(Rdg3d::new(10_000).with_seed(3).with_chunks(4));
    let large = peak(Rdg3d::new(160_000).with_seed(3).with_chunks(4));
    assert!(4 * large <= 5 * small, "3-D peak grew {small} -> {large}");
    let block = 512.0 * 160_000.0 / 32_768.0;
    assert!(
        (large as f64) < 4.0 * block,
        "3-D block holds {large} points, its own cells expect {block}"
    );
}

/// RGG's working set is one `u64` per cell of the PE's range (the id
/// prefixes its `GridCells` keeps) plus the points of the sweep frontier
/// and the halo ring — the chunk's perimeter, not its area.
#[test]
fn rgg_working_set_is_the_chunk_perimeter_not_its_area() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let peak = |n: u64, r: f64, chunks: usize| -> u64 {
        let gen = Rgg2d::new(n, r).with_seed(3).with_chunks(chunks);
        assert_eq!(gen.num_chunks(), chunks);
        let pes = 0..chunks;
        pes.map(|pe| gen.stream_cells(pe, &mut |_, _| {}).peak_points)
            .max()
            .unwrap()
    };
    // r = 0.01 makes a 64 × 64 grid whatever n is. A chunk of s × s cells
    // has a halo ring of 4s + 4 cells (2s + 1 at a corner of the unit
    // square); with the sweep's frontier inside the chunk a PE holds 0.85
    // of that ring's expected points at 4 chunks and 1.1–1.2 at 64.
    for n in [20_000u64, 320_000] {
        let mean = n as f64 / 4096.0;
        for (chunks, side) in [(4, 32.0), (64, 8.0)] {
            let held = peak(n, 0.01, chunks);
            let perimeter = (4.0 * side + 4.0) * mean;
            assert!(
                (held as f64) < 2.0 * perimeter,
                "n = {n}, {chunks} chunks: {held} points held, \
                 the halo ring expects {perimeter}"
            );
        }
    }
    // Eight points per cell at 4 chunks: 16× the points per PE are 16×
    // the cells of a chunk and 4× its perimeter (measured: 4.06×).
    let small = peak(1 << 17, 1.0 / 128.0, 4);
    let large = peak(1 << 21, 1.0 / 512.0, 4);
    assert!(
        large < 6 * small,
        "16x the chunk area took the peak {small} -> {large}"
    );
}

#[test]
fn streaming_working_set_is_sublinear_in_per_pe_edges() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // ---- RGG, counting allocator ------------------------------------
    // Fixed radius ⇒ fixed grid; growing n grows the per-PE edge count
    // ~quadratically (denser cells) while the sweep holds only its
    // frontier and the halo ring (~linear in n). The allocator sees
    // everything: the held cells' vectors, the map they sit in, and the
    // source's 8 B per range cell and memoised tree nodes.
    let run_rgg = |n: u64| -> (u64, u64) {
        let gen = Rgg2d::new(n, 0.05).with_seed(3).with_chunks(4);
        let mut edges = 0u64;
        let peak = alloc_peak_during(|| {
            gen.stream_pe(0, &mut |_, _| edges += 1);
        });
        (edges, peak)
    };
    let (edges_small, peak_small) = run_rgg(8_000);
    let (edges_large, peak_large) = run_rgg(32_000);
    let edge_ratio = edges_large as f64 / edges_small as f64;
    let peak_ratio = peak_large as f64 / peak_small.max(1) as f64;
    assert!(edge_ratio > 10.0, "edge growth too small: {edge_ratio}");
    assert!(
        peak_ratio * 2.0 < edge_ratio,
        "RGG streaming peak allocation must grow much slower than edges: \
         peak {peak_small} -> {peak_large} bytes (x{peak_ratio:.1}), \
         edges {edges_small} -> {edges_large} (x{edge_ratio:.1})"
    );
    // Absolute bound: far below the materialized edge list (16 B/edge).
    assert!(
        peak_large * 8 < edges_large * 16,
        "peak {peak_large} B is not small against {} B of materialized edges",
        edges_large * 16
    );

    // ---- RGG, frontier accounting -----------------------------------
    // The generator's own high-water mark tells the same story in points.
    let frontier_rgg = |n: u64| -> (u64, u64) {
        let gen = Rgg2d::new(n, 0.05).with_seed(3).with_chunks(4);
        let mut edges = 0u64;
        let stats = gen.stream_cells(0, &mut |_, _| edges += 1);
        (edges, stats.peak_points)
    };
    let (e1, p1) = frontier_rgg(2_000);
    let (e2, p2) = frontier_rgg(32_000);
    assert!(e2 > 100 * e1, "edges must explode: {e1} -> {e2}");
    assert!(
        p2 < 40 * p1.max(1),
        "RGG frontier points must stay ~linear in n: {p1} -> {p2} \
         while edges went {e1} -> {e2}"
    );

    // ---- RHG, held-state accounting -----------------------------------
    // The query engine is the paper's §7.1: it generates every cell its
    // queries touch once and holds it to the end of the PE, so its state
    // is the sector plus the query halo — a small multiple of n/P points,
    // whatever the degree and however many edges the PE emits (sRHG is
    // the bounded-memory generator of the same graph).
    let held_rhg = |gen: &Rhg, pe: usize| -> (u64, u64) {
        let mut edges = 0u64;
        let stats = gen.stream_query(pe, &mut |_, _| edges += 1);
        (edges, stats.peak_points)
    };
    let grown = |n: u64| Rhg::new(n, 8.0, 2.8).with_seed(3).with_chunks(8);
    let (h1, q1) = held_rhg(&grown(4_000), 0);
    let (h2, q2) = held_rhg(&grown(64_000), 0);
    let edge_ratio = h2 as f64 / h1 as f64;
    assert!(edge_ratio > 8.0, "edge growth too small: {edge_ratio}");
    let bench = Rhg::new(81_920, 16.0, 2.8).with_seed(7).with_chunks(64);
    let q3 = (0..64).map(|pe| held_rhg(&bench, pe).1).max().unwrap();
    for (held, n, chunks) in [(q1, 4_000u64, 8u64), (q2, 64_000, 8), (q3, 81_920, 64)] {
        assert!(
            held <= 3 * n.div_ceil(chunks),
            "RHG holds {held} points on a PE of n = {n} at {chunks} chunks: \
             more than 3 x n/P"
        );
    }

    // ---- RHG, counting allocator: flat against degree growth --------
    // Same n, heavier instance (per-PE edges grow with the average
    // degree): the full working set must stay far below the
    // materialized edge list.
    let run_rhg_alloc = |deg: f64| -> (u64, u64) {
        let gen = Rhg::new(30_000, deg, 2.8).with_seed(3).with_chunks(8);
        let mut edges = 0u64;
        let peak = alloc_peak_during(|| {
            gen.stream_pe(0, &mut |_, _| edges += 1);
        });
        (edges, peak)
    };
    let (d1_edges, _) = run_rhg_alloc(6.0);
    let (d2_edges, d2_peak) = run_rhg_alloc(24.0);
    assert!(d2_edges > 2 * d1_edges);
    assert!(
        d2_peak * 2 < d2_edges * 16,
        "RHG streaming peak {d2_peak} B is not small against {} B of \
         materialized edges",
        d2_edges * 16
    );
}

/// The external merge holds `budget × 16 B` of keys plus, per running
/// thread, one reader block and its I/O buffers — [`MERGE_FIXED_BYTES`]
/// bounds those — however skewed the instance: RHG hubs and R-MAT
/// multi-edges put far more than a budget into one bucket, which is
/// partitioned again rather than loaded. (What `kagen stream` reports as
/// `alloc.peak_bytes.merge`, less its output sink.) The merge's own
/// accounting (`max_buffered`) stays within the budget at every thread
/// count.
#[test]
fn external_merge_stays_within_its_budget_under_skew() {
    use kagen_repro::pipeline::{
        write_sharded, CountingSink, ExternalMerge, InstanceMeta, ShardFormat, ShardReader,
        StreamConfig,
    };
    /// A verified 4096-edge block (64 KiB) and its encoded bytes, a
    /// `BufReader`, the 128 bucket counters of each partition level and a
    /// spill-file read buffer: what one thread holds besides keys.
    const MERGE_FIXED_BYTES: u64 = 128 << 10;
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let rhg = Rhg::new(20_000, 8.0, 2.8).with_seed(3).with_chunks(16);
    let rmat = Rmat::new(10, 50_000).with_seed(3).with_chunks(16);
    let cases: [(&dyn Generator, &str); 2] = [(&rhg, "rhg"), (&rmat, "rmat")];
    for (gen, model) in cases {
        let dir = std::env::temp_dir().join(format!("kagen_merge_memory_{model}"));
        std::fs::remove_dir_all(&dir).ok();
        let meta = InstanceMeta {
            model: model.into(),
            params: String::new(),
            seed: 3,
        };
        let cfg = StreamConfig::new(&dir, ShardFormat::Compressed);
        let manifest = write_sharded(gen, &meta, &cfg).unwrap();
        let reader = ShardReader::open(&dir).unwrap();
        // `running`: a budget below 1024 keys a thread runs one thread
        // whatever `-t` is; the emitting thread comes on top.
        for (budget, threads, running) in [
            (64usize, 1usize, 1u64),
            (64, 4, 1),
            (64, 16, 1),
            (1 << 12, 4, 4),
        ] {
            assert!(manifest.edges > 8 * budget as u64);
            let mut sink = CountingSink::new();
            let mut stats = None;
            let peak = alloc_peak_during(|| {
                let merge = ExternalMerge::new(dir.join("runs"), budget).with_threads(threads);
                stats = Some(merge.merge(&reader, &mut sink).unwrap());
            });
            let stats = stats.unwrap();
            let what = format!("{model}, budget {budget}, {threads} threads");
            assert!(
                stats.merge_passes >= 1,
                "{what}: no bucket was partitioned again"
            );
            assert!(
                stats.max_buffered <= budget,
                "{what}: {} edges buffered",
                stats.max_buffered
            );
            assert!(
                peak <= budget as u64 * 16 + (running + 1) * MERGE_FIXED_BYTES,
                "{what}: merge peak {peak} B"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

//! Property-based tests for the substrate crates: geometry, graph data
//! structures, the shard codec and seed derivation. These
//! complement `proptest_invariants.rs` (which targets the samplers and
//! generators) by pinning the invariants every generator builds on.

use kagen_repro::core::ba::Reciprocal;
use kagen_repro::core::er::{
    directed_edge_to_index, directed_index_to_edge, triangle_index_to_pair,
};
use kagen_repro::core::prelude::*;
use kagen_repro::geometry::{morton, CellGrid, CountTree, GridCells};
use kagen_repro::graph::components::connected_components;
use kagen_repro::graph::io::{
    edge_checksum_step, read_compressed, read_varint, write_compressed, write_varint,
    COMPRESSED_MAGIC,
};
use kagen_repro::graph::{bfs_distances, merge_pe_edges, Csr, EdgeList};
use kagen_repro::pipeline::{stream_shard_file, ChecksumSink, EdgeSink, ShardFormat};
use kagen_repro::util::seed::{stream, SeedTree};
use kagen_repro::util::{derive_seed, Mt64, Rng64};
use proptest::prelude::*;

/// A PE's [`GridCells`] against the stateless reference: for one aligned
/// Morton range of a `levels`-deep grid, `cell(m)` is `(prefix_before(m),
/// leaf_count(m))` for every cell of the range and of the two rings of
/// cells around it, wrapped on the torus — whether the cells are asked
/// for ring by ring, in Morton order or shuffled (the memo makes the
/// answer independent of what was asked before).
fn grid_cells_agree<const D: usize>(seed: u64, n: u64, levels: u32, chunk_levels: u32, pick: u64) {
    let tree = CountTree::<D>::new(seed, n, levels);
    let chunks = GridCells::<D>::num_chunks(levels, chunk_levels);
    let pe = (pick % chunks as u64) as usize;
    let range = GridCells::<D>::new(seed, n, levels, chunk_levels, pe).range();
    let grid = CellGrid::<D>::new(levels);
    let g = grid.cells_per_dim() as i64;
    let side = g / (1 << chunk_levels.min(levels));
    let origin = grid.coords_of(range.start).map(|x| x as i64);
    // Range first, then ring 1, then ring 2.
    let mut asked: Vec<u64> = range.clone().collect();
    for h in 1..=2i64 {
        let width = side + 2 * h;
        for at in 0..width.pow(D as u32) {
            let offset: [i64; D] = std::array::from_fn(|i| at / width.pow(i as u32) % width);
            if offset.iter().any(|&o| o == 0 || o == width - 1) {
                let raw: [i64; D] = std::array::from_fn(|i| origin[i] - h + offset[i]);
                asked.push(grid.morton_of(raw.map(|x| x.rem_euclid(g) as u64)));
            }
        }
    }
    let mut sorted = asked.clone();
    sorted.sort_unstable();
    let mut shuffled = asked.clone();
    let mut rng = Mt64::new(pick);
    for i in (1..shuffled.len()).rev() {
        shuffled.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    for (order, cells) in [("ring", asked), ("morton", sorted), ("shuffled", shuffled)] {
        let mut source = GridCells::<D>::new(seed, n, levels, chunk_levels, pe);
        prop_assert_eq!(source.first_id(), tree.prefix_before(range.start));
        prop_assert_eq!(source.end_id() - source.first_id(), {
            let mut sum = 0;
            tree.for_leaf_counts(range.start, range.end, &mut |_, c| sum += c);
            sum
        });
        for cell in cells {
            prop_assert_eq!(
                source.cell(cell),
                (tree.prefix_before(cell), tree.leaf_count(cell)),
                "{}-D, {} levels, PE {} of {}, {} order, cell {}",
                D,
                levels,
                pe,
                chunks,
                order,
                cell
            );
        }
    }
}

/// The compressed codec stores a varint of 2..=8 bytes as one word (a
/// `pdep` spread with BMI2, shift/mask steps without) and loads it as
/// one word (`pext` / shift/mask). Both must agree with the bytewise
/// `write_varint` / `read_varint` for the zigzag `z` of every delta: an
/// edge whose u-delta is `z` encodes to exactly the bytewise bytes, and
/// those bytes decode back, with the word of the varint followed by
/// unrelated bytes or ending the payload.
fn word_varint_matches_bytewise(z: u64) {
    // From the middle of the id range every 64-bit zigzag is a delta
    // to another id: z even steps up z / 2, z odd steps down (z + 1) / 2.
    let a = 1u64 << 63;
    let b = if z.is_multiple_of(2) {
        a + z / 2
    } else {
        a - (z / 2 + 1)
    };
    let zigzag = |d: i128| ((d << 1) ^ (d >> 127)) as u128;
    for tail in [0u64, 3, 1 << 40] {
        let edges = vec![(a, 0), (b, 0), (b, tail)];
        let mut payload = Vec::new();
        let (mut pu, mut pv, mut checksum) = (0u64, 0u64, 0u64);
        for &(u, v) in &edges {
            write_varint(&mut payload, zigzag(u as i128 - pu as i128)).unwrap();
            write_varint(&mut payload, zigzag(v as i128 - pv as i128)).unwrap();
            (pu, pv) = (u, v);
            checksum = edge_checksum_step(checksum, u, v);
        }
        let mut want = COMPRESSED_MAGIC.to_vec();
        want.extend_from_slice(&u64::MAX.to_le_bytes());
        write_varint(&mut want, edges.len() as u128).unwrap();
        write_varint(&mut want, payload.len() as u128).unwrap();
        want.extend_from_slice(&checksum.to_le_bytes());
        want.extend_from_slice(&payload);
        let mut got = Vec::new();
        write_compressed(&mut got, &EdgeList::new(u64::MAX, edges.clone())).unwrap();
        prop_assert!(got == want, "z = {z:#x}, tail {tail}: encoded bytes differ");
        prop_assert_eq!(
            read_compressed(&want[..]).unwrap().edges,
            edges,
            "z = {:#x}",
            z
        );
    }
    let mut bytes = Vec::new();
    write_varint(&mut bytes, z as u128).unwrap();
    prop_assert_eq!(read_varint(&mut &bytes[..]).unwrap(), Some(z as u128));
}

#[test]
fn word_varints_match_bytewise_at_every_length_boundary() {
    let mut zs = vec![0, 1, u64::MAX - 1, u64::MAX];
    for k in 1..=9 {
        let b = 1u64 << (7 * k);
        zs.extend([b - 2, b - 1, b, b + 1]);
    }
    for z in zs {
        word_varint_matches_bytewise(z);
    }
}

/// Push `edges` into `sink` in batches of the sizes `cuts` cycles
/// through (zeros included), then close it.
fn feed_in_cuts(sink: &mut dyn EdgeSink, edges: &[(u64, u64)], cuts: &[usize]) {
    let mut rest = edges;
    for &size in cuts.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (head, tail) = rest.split_at(size.min(rest.len()));
        sink.push_batch(head);
        rest = tail;
    }
    sink.finish().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn word_varints_match_bytewise(x in any::<u64>(), shift in 0u32..64) {
        // Log-uniform: every varint length is as likely as the next.
        word_varint_matches_bytewise(x >> shift);
    }

    #[test]
    fn morton2_roundtrip(x in 0u64..(1 << 24), y in 0u64..(1 << 24)) {
        let code = morton::encode2(x, y);
        prop_assert_eq!(morton::decode2(code), (x, y));
        prop_assert_eq!(morton::decode::<2>(code), [x, y]);
    }

    #[test]
    fn morton3_roundtrip(x in 0u64..(1 << 16), y in 0u64..(1 << 16), z in 0u64..(1 << 16)) {
        let code = morton::encode3(x, y, z);
        prop_assert_eq!(morton::decode3(code), (x, y, z));
        prop_assert_eq!(morton::encode::<3>([x, y, z]), code);
    }

    #[test]
    fn morton_preserves_locality_order_within_quadrant(
        x in 0u64..(1 << 10),
        y in 0u64..(1 << 10),
    ) {
        // Z-order invariant: the code of a point is at least the code of
        // the quadrant corner below it.
        let code = morton::encode2(x, y);
        let corner = morton::encode2(x & !1, y & !1);
        prop_assert!(code >= corner);
        prop_assert!(code - corner <= 3);
    }

    #[test]
    fn directed_index_edge_roundtrip(n in 2u64..5000, frac in 0.0f64..1.0) {
        let universe = (n as u128) * (n as u128 - 1);
        let idx = ((universe as f64) * frac) as u128;
        let idx = idx.min(universe - 1);
        let (u, v) = directed_index_to_edge(n, idx);
        prop_assert!(u < n && v < n && u != v);
        prop_assert_eq!(directed_edge_to_index(n, u, v), idx);
    }

    #[test]
    fn ba_reciprocal_quotient_is_exact(
        wide in 1u64..=(1 << 63),
        bits in 0u32..64,
        multiple in any::<u64>(),
        nudge in 0u64..5,
    ) {
        // Divisors of every magnitude; dividends at 0, either side of a
        // multiple of `d`, and at the top of the domain `x < 2^63`.
        const TOP: u64 = (1 << 63) - 1;
        let d = (wide >> bits).max(1);
        let by_d = Reciprocal::new(d);
        let near = (multiple % (TOP / d + 1) * d).saturating_add(nudge).min(TOP);
        for x in [0, near.saturating_sub(2), near, TOP - nudge, multiple >> 1] {
            prop_assert_eq!(by_d.quotient(x), x / d, "{} / {}", x, d);
        }
    }

    #[test]
    fn triangle_index_roundtrip(t in 0u128..(1u128 << 80)) {
        let (u, v) = triangle_index_to_pair(t);
        prop_assert!(v < u);
        let below = (u as u128) * (u as u128 - 1) / 2;
        prop_assert_eq!(below + v as u128, t);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cell_grid_point_location_consistent(
        levels in 1u32..8,
        x in 0.0f64..1.0,
        y in 0.0f64..1.0,
    ) {
        let grid: CellGrid<2> = CellGrid::new(levels);
        let coords = grid.cell_of(&[x, y]);
        let (lo, hi) = grid.cell_bounds(coords);
        prop_assert!(x >= lo[0] && x < hi[0] + 1e-15);
        prop_assert!(y >= lo[1] && y < hi[1] + 1e-15);
        // Morton code round-trips through coords.
        let code = grid.morton_of(coords);
        prop_assert_eq!(grid.coords_of(code), coords);
        prop_assert!(code < grid.num_cells());
    }

    #[test]
    fn cell_grid_neighbor_counts(levels in 1u32..6, cx in 0u64..32, cy in 0u64..32) {
        let grid: CellGrid<2> = CellGrid::new(levels);
        let g = grid.cells_per_dim();
        let coords = [cx % g, cy % g];
        let mut wrapped = 0;
        grid.for_neighbors(coords, true, &mut |_, _| wrapped += 1);
        prop_assert_eq!(wrapped, 9, "torus neighborhoods are always 3^2");
        let mut clipped = Vec::new();
        grid.for_neighbors(coords, false, &mut |n, _| clipped.push(n));
        for n in &clipped {
            prop_assert!(n[0] < g && n[1] < g);
        }
        prop_assert!(clipped.len() <= 9);
        let interior = coords.iter().all(|&c| c > 0 && c + 1 < g);
        if interior {
            prop_assert_eq!(clipped.len(), 9);
        }
    }

    #[test]
    fn count_tree_conserves_and_prefixes(
        levels in 1u32..6,
        total in 0u64..5000,
        seed in any::<u64>(),
    ) {
        let tree = CountTree::<2>::new(seed, total, levels);
        let leaves = tree.num_leaves();
        let mut sum = 0u64;
        let mut running = 0u64;
        for leaf in 0..leaves {
            prop_assert_eq!(tree.prefix_before(leaf), running, "prefix at {}", leaf);
            let c = tree.leaf_count(leaf);
            running += c;
            sum += c;
        }
        prop_assert_eq!(sum, total);
        // Range visitor agrees with per-leaf queries.
        let mut via_range = 0u64;
        tree.for_leaf_counts(0, leaves, &mut |_, c| via_range += c);
        prop_assert_eq!(via_range, total);
    }

    #[test]
    fn grid_cells_answer_as_the_stateless_count_tree(
        levels in 0u32..5,
        chunk_levels in 0u32..4,
        total in 0u64..3000,
        seed in any::<u64>(),
        pick in any::<u64>(),
    ) {
        grid_cells_agree::<2>(seed, total, levels, chunk_levels, pick);
        grid_cells_agree::<3>(seed, total, levels.min(3), chunk_levels, pick);
    }

    #[test]
    fn seed_tree_children_deterministic_and_distinct(
        base in any::<u64>(),
        arity in 2u64..5,
    ) {
        let root = SeedTree::root(base, stream::SPLIT, arity);
        let mut seeds = std::collections::HashSet::new();
        for i in 0..arity {
            let c = root.child(i);
            // Recomputing the child gives the identical seed.
            prop_assert_eq!(c.seed(), root.child(i).seed());
            seeds.insert(c.seed());
        }
        // Children are pairwise distinct (hash collisions are 2^-64).
        prop_assert_eq!(seeds.len() as u64, arity);
    }

    #[test]
    fn derive_seed_order_sensitive(a in any::<u64>(), b in any::<u64>(), s in any::<u64>()) {
        prop_assume!(a != b);
        prop_assert_ne!(derive_seed(s, &[a, b]), derive_seed(s, &[b, a]));
        prop_assert_eq!(derive_seed(s, &[a, b]), derive_seed(s, &[a, b]));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn csr_agrees_with_edge_list(
        n in 1u64..200,
        edges in proptest::collection::vec((0u64..200, 0u64..200), 0..400),
    ) {
        let edges: Vec<(u64, u64)> = edges
            .into_iter()
            .map(|(u, v)| (u % n, v % n))
            .filter(|&(u, v)| u != v)
            .collect();
        let mut el = EdgeList::new(n, edges);
        el.canonicalize();
        let csr = Csr::undirected(&el);
        prop_assert_eq!(csr.n() as u64, n);
        prop_assert_eq!(csr.arcs(), el.edges.len() * 2);
        for &(u, v) in &el.edges {
            prop_assert!(csr.has_edge(u, v));
            prop_assert!(csr.has_edge(v, u));
        }
        let degrees = el.degrees_undirected();
        for v in 0..n {
            prop_assert_eq!(csr.degree(v) as u64, degrees[v as usize]);
        }
    }

    #[test]
    fn merge_pe_edges_canonicalizes_any_split(
        n in 2u64..100,
        edges in proptest::collection::vec((0u64..100, 0u64..100), 1..200),
        parts in 1usize..6,
        seed in any::<u64>(),
    ) {
        let edges: Vec<(u64, u64)> = edges
            .into_iter()
            .map(|(u, v)| (u % n, v % n))
            .filter(|&(u, v)| u != v)
            .collect();
        prop_assume!(!edges.is_empty());
        // Ground truth: merge as one part.
        let whole = merge_pe_edges(n, vec![edges.clone()]);
        // Split randomly into parts, duplicating some edges across parts
        // (as redundant recomputation does), flipping some orientations.
        let mut rng = Mt64::new(seed);
        let mut split: Vec<Vec<(u64, u64)>> = vec![Vec::new(); parts];
        for &(u, v) in &edges {
            let k = (rng.next_u64() as usize) % parts;
            split[k].push((u, v));
            if rng.next_u64().is_multiple_of(3) {
                let k2 = (rng.next_u64() as usize) % parts;
                split[k2].push((v, u)); // duplicate, reversed
            }
        }
        let merged = merge_pe_edges(n, split);
        prop_assert_eq!(whole, merged);
    }

    #[test]
    fn bfs_distances_on_a_path(n in 2u64..300, source_frac in 0.0f64..1.0) {
        let edges: Vec<(u64, u64)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let el = EdgeList::new(n, edges);
        let csr = Csr::undirected(&el);
        let s = ((n - 1) as f64 * source_frac) as u64;
        let dist = bfs_distances(&csr, s);
        for v in 0..n {
            prop_assert_eq!(dist[v as usize] as u64, v.abs_diff(s));
        }
        let mut uf = connected_components(&el);
        prop_assert_eq!(uf.component_count(), 1);
        prop_assert_eq!(uf.largest_component(), n as usize);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn soft_rhg_chunk_invariance(
        n in 50u64..250,
        temp in 0.05f64..0.95,
        seed in any::<u64>(),
    ) {
        let mk = |chunks| {
            generate_undirected(
                &SoftRhg::new(n, 6.0, 2.8, temp).with_seed(seed).with_chunks(chunks),
            )
        };
        let a = mk(1);
        prop_assert_eq!(&a, &mk(5));
        prop_assert_eq!(&a, &mk(16));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fused_checksums_equal_a_checksum_sink_fold(
        seed in any::<u64>(),
        m in 0usize..9000,
        cuts in proptest::collection::vec(0usize..5000, 1..6),
    ) {
        // Small, large and wrapping deltas mixed, across restart blocks.
        let mut rng = Mt64::new(seed);
        let edges: Vec<(u64, u64)> = (0..m as u64)
            .map(|i| {
                let w = rng.next_u64();
                (i / 3 + (w & 7), w >> (w % 64))
            })
            .collect();
        let mut reference = ChecksumSink::new();
        feed_in_cuts(&mut reference, &edges, &cuts);
        let dir = std::env::temp_dir().join("kagen_proptest_fused_checksum");
        std::fs::create_dir_all(&dir).unwrap();
        for format in [ShardFormat::EdgeList, ShardFormat::Binary, ShardFormat::Compressed] {
            let mut bytes = Vec::new();
            let mut sink = format.sink(&mut bytes, u64::MAX).unwrap();
            feed_in_cuts(&mut sink, &edges, &cuts);
            prop_assert_eq!(sink.checksum(), reference.checksum(), "{:?} encoder", format);
            drop(sink);
            let path = dir.join(format!("shard.{}", format.extension()));
            std::fs::write(&path, &bytes).unwrap();
            let mut count = 0;
            let decoded = stream_shard_file(&path, format, &mut |batch| count += batch.len());
            prop_assert_eq!(decoded.unwrap(), reference.checksum(), "{:?} decoder", format);
            prop_assert_eq!(count, m);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

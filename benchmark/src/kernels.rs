//! Kernel probes: the sub-layers the layer pass cannot separate from
//! `core.gen_ns_per_edge` by timing from outside (`dist`, `sampling`,
//! `geometry`, `delaunay`), timed alone on fixed synthetic inputs, plus
//! the in-memory generator rate of the models without a workload. They
//! say *which* part of a slow generator is slow until spans exist inside
//! the program. Inputs depend on the seed only; about two seconds in all.

use kagen_core::prelude::*;
use kagen_delaunay::Delaunay2;
use kagen_dist::{binomial, hypergeometric, AliasTable};
use kagen_geometry::{cell_points::cell_points, CellGrid};
use kagen_sampling::{bernoulli_sample_batched, sample_sorted_batched};
use kagen_util::{Mt64, Rng64};
use std::hint::black_box;
use std::time::Instant;

/// Nanoseconds per item of `work`, which reports how many items it did.
fn ns_per_item(work: impl FnOnce() -> u64) -> f64 {
    let started = Instant::now();
    let items = work();
    started.elapsed().as_secs_f64() * 1e9 / items.max(1) as f64
}

/// Names of every kernel-probe metric, in reporting order.
pub const NAMES: [&str; 11] = [
    "dist.alias_ns_per_draw",
    "dist.binomial_ns_per_draw",
    "dist.hypergeometric_ns_per_draw",
    "sampling.skip_ns_per_index",
    "sampling.methodd_ns_per_index",
    "geometry.cell_points_ns_per_point",
    "delaunay.tri2_ns_per_point",
    "core.gen_ns_per_edge.srhg",
    "core.gen_ns_per_edge.soft-rhg",
    "core.gen_ns_per_edge.rgg3d",
    "core.gen_ns_per_edge.sbm",
];

/// Run every probe; values in the order of [`NAMES`].
pub fn run(seed: u64) -> Vec<(&'static str, f64)> {
    let mut rng = Mt64::new(seed);
    let mut values = Vec::with_capacity(NAMES.len());

    // A 4096-outcome table, the size of an R-MAT path block.
    let weights: Vec<f64> = (0..4096).map(|_| rng.next_f64() + 1e-3).collect();
    let table = AliasTable::new(&weights);
    values.push(ns_per_item(|| {
        const DRAWS: u64 = 1 << 22;
        let mut acc = 0;
        for _ in 0..DRAWS {
            acc ^= table.sample(&mut rng);
        }
        black_box(acc);
        DRAWS
    }));

    // Count splits as the ER generators draw them: a huge universe, a
    // mean of 10^4 to 10^5.
    values.push(ns_per_item(|| {
        const DRAWS: u64 = 200_000;
        let mut acc = 0;
        for i in 0..DRAWS {
            acc ^= binomial(&mut rng, 1 << 32, 1e-5 * (1 + i % 8) as f64);
        }
        black_box(acc);
        DRAWS
    }));
    values.push(ns_per_item(|| {
        const DRAWS: u64 = 200_000;
        let mut acc = 0;
        for i in 0..DRAWS {
            acc ^= hypergeometric(&mut rng, 1 << 40, (1 << 39) + i as u128, 1 << 20);
        }
        black_box(acc);
        DRAWS
    }));

    // G(n,p) leaves: geometric skips over a sparse universe.
    values.push(ns_per_item(|| {
        let mut indices = 0;
        bernoulli_sample_batched(&mut rng, 1 << 34, 1.0 / 4096.0, &mut |block| {
            black_box(block);
            indices += block.len() as u64;
        });
        indices
    }));
    // G(n,m) leaves: Vitter's Method D, exact count.
    values.push(ns_per_item(|| {
        const K: u64 = 1 << 21;
        let mut acc = 0;
        sample_sorted_batched(&mut rng, 1 << 40, K, &mut |index| acc ^= index);
        black_box(acc);
        K
    }));

    // Points of 4096 cells of 256 points, as the spatial generators
    // (re)compute them.
    let grid: CellGrid<2> = CellGrid::new(8);
    let mut points = Vec::with_capacity(256);
    values.push(ns_per_item(|| {
        for morton in 0..4096 {
            points.clear();
            cell_points(&grid, seed, morton, 256, &mut points);
            black_box(&points);
        }
        4096 * 256
    }));

    // One triangulation the size of an RDG chunk with its halo.
    let sites: Vec<[f64; 2]> = (0..4096)
        .map(|_| [rng.next_f64(), rng.next_f64()])
        .collect();
    values.push(ns_per_item(|| {
        black_box(Delaunay2::new(black_box(&sites)));
        sites.len() as u64
    }));

    // The models without a workload, in memory, at sizes that take
    // ≈ 0.2 s each.
    let r3 = Rgg3d::threshold_radius(1 << 15, 1);
    let unbenched: [Box<dyn StreamingGenerator>; 4] = [
        Box::new(Srhg::new(1 << 13, 8.0, 2.8).with_seed(seed).with_chunks(8)),
        Box::new(
            SoftRhg::new(1 << 10, 8.0, 2.8, 0.5)
                .with_seed(seed)
                .with_chunks(8),
        ),
        Box::new(Rgg3d::new(1 << 15, r3).with_seed(seed).with_chunks(8)),
        Box::new(
            StochasticBlockModel::planted(1 << 14, 4, 0.01, 0.001)
                .with_seed(seed)
                .with_chunks(8),
        ),
    ];
    for gen in unbenched {
        values.push(ns_per_item(|| {
            let mut edges = 0;
            let mut buf = Vec::new();
            gen.stream_all_batched(&mut buf, &mut |batch| {
                black_box(batch);
                edges += batch.len() as u64;
            });
            edges
        }));
    }
    NAMES.into_iter().zip(values).collect()
}

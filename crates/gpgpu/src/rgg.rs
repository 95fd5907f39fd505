//! GPGPU random geometric graphs (§5.3).
//!
//! The paper's two-phase accelerator pipeline:
//!
//! * **Phase 1 — points.** The host generates "the appropriate seeds and
//!   vertex numbers for the cells" (the binomial count tree); the device
//!   samples the points. "Depending on the expected number of vertices per
//!   cell, a cell is either processed by a whole block with several
//!   threads or by a single thread, therefore grouping several cells in
//!   one block" — [`plan_point_blocks`] implements that grouping rule.
//! * **Phase 2 — edges,** three steps: (1) one block per cell *counts* the
//!   edges shorter than `r` against its 3^d neighborhood; (2) a device
//!   prefix sum turns counts into offsets and the total; (3) the host
//!   allocates the edge array and a second pass re-runs the comparisons,
//!   now *writing* every edge at its offset. "Each cell is processed by
//!   one block on the GPGPU to avoid any load-balancing issues."
//!
//! The per-cell PRNG seeds are the same as the CPU generator's, so the
//! output is bit-identical to [`kagen_core::Rgg2d`]/[`Rgg3d`]
//! (asserted in tests).
//!
//! [`Rgg3d`]: kagen_core::Rgg3d

use crate::device::{BlockCtx, Device};
use crate::scan::exclusive_scan;
use kagen_core::rgg::{cell_pairs, HitWord, Rgg};
use kagen_geometry::cell_points::cell_points;
use kagen_geometry::{CellGrid, Point};

/// Random geometric graph on the simulated device.
#[derive(Clone, Debug)]
pub struct GpuRgg<const D: usize> {
    inner: Rgg<D>,
    radius: f64,
    seed: u64,
}

/// 2D specialization.
pub type GpuRgg2d = GpuRgg<2>;
/// 3D specialization.
pub type GpuRgg3d = GpuRgg<3>;

/// One phase-1 block: the cells it samples (cell, count, first vertex id).
type PointBlock = Vec<(u64, u64, u64)>;

/// Group cells into device blocks: a cell with at least half a block of
/// expected points gets its own block; runs of smaller cells share one
/// block until they fill it (§5.3 phase 1).
pub fn plan_point_blocks(cells: &[(u64, u64, u64)], threads_per_block: u64) -> Vec<PointBlock> {
    let mut blocks: Vec<PointBlock> = Vec::new();
    let mut open: PointBlock = Vec::new();
    let mut open_count = 0u64;
    for &(cell, count, first) in cells {
        if count >= threads_per_block / 2 {
            // Whole-block cell; flush the open group first so blocks keep
            // Morton order.
            if !open.is_empty() {
                blocks.push(std::mem::take(&mut open));
                open_count = 0;
            }
            blocks.push(vec![(cell, count, first)]);
            continue;
        }
        if open_count + count > threads_per_block && !open.is_empty() {
            blocks.push(std::mem::take(&mut open));
            open_count = 0;
        }
        open.push((cell, count, first));
        open_count += count;
    }
    if !open.is_empty() {
        blocks.push(open);
    }
    blocks
}

impl<const D: usize> GpuRgg<D> {
    /// `n` points in `[0,1)^D`, connection radius `radius`.
    pub fn new(n: u64, radius: f64) -> Self {
        GpuRgg {
            inner: Rgg::<D>::new(n, radius),
            radius,
            seed: 1,
        }
    }

    /// Set the instance seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.inner = self.inner.clone().with_seed(seed);
        self.seed = seed;
        self
    }

    /// Phase 1: sample all points on the device; returns per-cell point
    /// vectors (dense, Morton order) and each cell's first global id.
    fn device_points(&self, dev: &Device, grid: &CellGrid<D>) -> (Vec<Vec<Point<D>>>, Vec<u64>) {
        let (_, tree) = self.inner.instance_grid();
        let num_cells = grid.num_cells();
        // Host side: counts + id prefixes for every cell (the "seeds and
        // vertex numbers" of §5.3).
        let mut cells: Vec<(u64, u64, u64)> = Vec::with_capacity(num_cells as usize);
        let mut first = 0u64;
        {
            let mut acc: Vec<(u64, u64)> = Vec::with_capacity(num_cells as usize);
            tree.for_leaf_counts(0, num_cells, &mut |cell, count| acc.push((cell, count)));
            for (cell, count) in acc {
                cells.push((cell, count, first));
                first += count;
            }
        }
        let mut firsts = vec![0u64; num_cells as usize];
        for &(cell, _, f) in &cells {
            firsts[cell as usize] = f;
        }
        // Device side: grouped sampling.
        let plan = plan_point_blocks(&cells, dev.cfg.threads_per_block as u64);
        let seed = self.seed;
        let sampled: Vec<Vec<(u64, Vec<Point<D>>)>> = dev.launch(plan, move |ctx, block| {
            block
                .into_iter()
                .map(|(cell, count, _)| {
                    let mut pts = Vec::new();
                    cell_points(grid, seed, cell, count, &mut pts);
                    ctx.simd_for(pts.len(), |_| true);
                    ctx.gmem_write(pts.len() * 8 * D);
                    (cell, pts)
                })
                .collect()
        });
        let mut points: Vec<Vec<Point<D>>> = vec![Vec::new(); num_cells as usize];
        for (cell, pts) in sampled.into_iter().flatten() {
            points[cell as usize] = pts;
        }
        (points, firsts)
    }

    /// Visit every candidate pair of cell `cell` in deterministic order:
    /// within-cell pairs `(i < j)`, then cross pairs against each 3^d
    /// neighbor with a higher Morton rank (each unordered pair visited
    /// exactly once device-wide). The pairs are the CPU kernel's
    /// ([`cell_pairs`]): each row word it reports runs as one `simd_for`
    /// over its lanes, which branch on their hit bit; rows the box bound
    /// rules out are never launched.
    fn for_cell_pairs(
        ctx: &mut BlockCtx,
        grid: &CellGrid<D>,
        points: &[Vec<Point<D>>],
        firsts: &[u64],
        cell: u64,
        r2: f64,
        mut sink: impl FnMut(u64, u64),
    ) {
        let pts = &points[cell as usize];
        if pts.is_empty() {
            return;
        }
        let first = firsts[cell as usize];
        let mut row = |ctx: &mut BlockCtx, nfirst: u64, w: HitWord| {
            // One coordinate fetch for the pivot, one per candidate lane.
            ctx.gmem_read(8 * D * (1 + w.lanes));
            ctx.simd_for(w.lanes, |lane| w.mask >> lane & 1 != 0);
            for j in w.hits() {
                sink(first + w.row as u64, nfirst + j as u64);
            }
        };
        cell_pairs(pts, None, r2, |w| row(ctx, first, w));
        // Cross pairs against higher-ranked neighbor cells.
        let mut neighbors: Vec<(u64, [u64; D])> = Vec::new();
        grid.for_neighbors(grid.coords_of(cell), false, &mut |ncoords, _| {
            let ncell = grid.morton_of(ncoords);
            if ncell > cell && !points[ncell as usize].is_empty() {
                neighbors.push((ncell, ncoords));
            }
        });
        neighbors.sort_unstable();
        for (ncell, ncoords) in neighbors {
            let bounds = grid.cell_bounds(ncoords);
            let other = Some((&points[ncell as usize][..], &bounds));
            cell_pairs(pts, other, r2, |w| row(ctx, firsts[ncell as usize], w));
        }
    }

    /// Generate the whole instance on `dev`. Returns the canonical sorted
    /// undirected edge list — identical to the merged CPU output.
    pub fn generate(&self, dev: &Device) -> Vec<(u64, u64)> {
        let (grid, _) = self.inner.instance_grid();
        let (points, firsts) = self.device_points(dev, &grid);
        let r2 = self.radius * self.radius;
        let num_cells = grid.num_cells();

        // Step 1: count kernel — one block per cell.
        let counts: Vec<u64> = dev.launch((0..num_cells).collect(), |ctx, cell| {
            let mut count = 0u64;
            Self::for_cell_pairs(ctx, &grid, &points, &firsts, cell, r2, |_, _| count += 1);
            count
        });

        // Step 2: offsets via the device prefix sum.
        let (offsets, total) = exclusive_scan(dev, &counts);
        debug_assert_eq!(offsets.len() as u64, num_cells);

        // Step 3: fill kernel — host allocates, blocks write disjoint
        // slices at their offsets.
        let mut edges: Vec<(u64, u64)> = vec![(0, 0); total as usize];
        let mut slices: Vec<(u64, &mut [(u64, u64)])> = Vec::with_capacity(num_cells as usize);
        {
            let mut rest: &mut [(u64, u64)] = &mut edges;
            let mut at = 0u64;
            for cell in 0..num_cells {
                debug_assert_eq!(at, offsets[cell as usize], "offset mismatch");
                let len = counts[cell as usize] as usize;
                let (head, tail) = rest.split_at_mut(len);
                slices.push((cell, head));
                rest = tail;
                at += len as u64;
            }
        }
        dev.launch(slices, |ctx, (cell, out)| {
            let mut k = 0usize;
            Self::for_cell_pairs(ctx, &grid, &points, &firsts, cell, r2, |u, v| {
                out[k] = (u.min(v), u.max(v));
                k += 1;
            });
            ctx.gmem_write(k * 16);
            debug_assert_eq!(k, out.len(), "fill must match the counted total");
        });
        edges.sort_unstable();
        edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kagen_core::{generate_undirected, Rgg2d, Rgg3d};

    #[test]
    fn bit_identical_to_cpu_2d() {
        for &(n, r, seed) in &[(400u64, 0.08f64, 3u64), (1000, 0.03, 11), (50, 0.4, 2)] {
            let dev = Device::default();
            let gpu = GpuRgg2d::new(n, r).with_seed(seed).generate(&dev);
            let cpu = generate_undirected(&Rgg2d::new(n, r).with_seed(seed));
            assert_eq!(gpu, cpu.edges, "n={n} r={r} seed={seed}");
        }
    }

    #[test]
    fn bit_identical_to_cpu_3d() {
        let dev = Device::default();
        let gpu = GpuRgg3d::new(300, 0.15).with_seed(5).generate(&dev);
        let cpu = generate_undirected(&Rgg3d::new(300, 0.15).with_seed(5));
        assert_eq!(gpu, cpu.edges);
    }

    #[test]
    fn three_phase_launch_structure() {
        let dev = Device::default();
        GpuRgg2d::new(500, 0.05).with_seed(7).generate(&dev);
        // points + count + 3 (scan) + fill = 6 kernel launches.
        assert_eq!(dev.stats().kernel_launches, 6);
    }

    #[test]
    fn count_blocks_cover_every_cell() {
        let n = 600u64;
        let r = 0.09;
        let dev = Device::default();
        let gen = GpuRgg2d::new(n, r).with_seed(13);
        let (grid, _) = Rgg2d::new(n, r).with_seed(13).instance_grid();
        gen.generate(&dev);
        // Count kernel and fill kernel run one block per cell each.
        assert!(dev.stats().blocks_executed >= 2 * grid.num_cells());
    }

    #[test]
    fn divergence_is_observed() {
        // Radius chosen so some candidate pairs hit and others miss —
        // mixed warps must register as divergent.
        let dev = Device::default();
        GpuRgg2d::new(800, 0.07).with_seed(1).generate(&dev);
        let s = dev.stats();
        assert!(s.divergent_warps > 0, "no divergence in {s:?}");
        assert!(s.divergent_warps <= s.warp_steps);
    }

    #[test]
    fn point_block_planning_rules() {
        // Big cells isolated, small cells grouped, nothing lost.
        let cells: Vec<(u64, u64, u64)> = vec![
            (0, 10, 0),
            (1, 300, 10), // >= 128: own block
            (2, 20, 310),
            (3, 30, 330),
            (4, 200, 360), // own block
            (5, 5, 560),
        ];
        let blocks = plan_point_blocks(&cells, 256);
        let flat: Vec<u64> = blocks.iter().flatten().map(|&(c, _, _)| c).collect();
        assert_eq!(flat, vec![0, 1, 2, 3, 4, 5], "all cells, stable order");
        // The two big cells (1 and 4) each get a block of their own.
        for big in [1u64, 4] {
            let b = blocks.iter().find(|b| b.iter().any(|&(c, _, _)| c == big));
            assert_eq!(b.unwrap().len(), 1, "cell {big} must be alone");
        }
        for b in &blocks {
            if b.len() > 1 {
                let sum: u64 = b.iter().map(|&(_, c, _)| c).sum();
                assert!(sum <= 256 + 256 / 2, "grouped block overfull: {sum}");
            }
        }
    }

    #[test]
    fn grouping_respects_capacity() {
        let cells: Vec<(u64, u64, u64)> = (0..40).map(|i| (i, 100, i * 100)).collect();
        let blocks = plan_point_blocks(&cells, 256);
        for b in &blocks {
            let sum: u64 = b.iter().map(|&(_, c, _)| c).sum();
            assert!(sum <= 300, "block of {sum} expected points");
        }
        assert_eq!(blocks.iter().map(|b| b.len()).sum::<usize>(), 40);
    }

    #[test]
    fn empty_and_tiny_instances() {
        let dev = Device::default();
        let edges = GpuRgg2d::new(1, 0.5).with_seed(1).generate(&dev);
        assert!(edges.is_empty());
        let edges = GpuRgg2d::new(2, 0.99).with_seed(1).generate(&dev);
        let cpu = generate_undirected(&Rgg2d::new(2, 0.99).with_seed(1));
        assert_eq!(edges, cpu.edges);
    }
}

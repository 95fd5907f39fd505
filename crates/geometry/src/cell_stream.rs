//! What one PE holds of the cells of a spatial generator.
//!
//! The paper generates geometric graphs cell by cell over a
//! pseudorandomized grid: a cell's point count comes from the
//! count-splitting tree, its points from `(seed, cell)`, so a PE derives
//! its own chunk *and* the halo around it without communication (§5.1,
//! §6) — and, having derived a thing once, keeps it:
//!
//! * [`GridCells`] — the one cell source of the Euclidean grid
//!   generators (RGG, RDG). Its constructor walks the count tree over the
//!   PE's aligned Morton range once and keeps every range cell's
//!   global-id prefix (one `u64` per cell), so a range cell never costs a
//!   tree descent; a cell outside the range — the halo — costs one
//!   descent that yields count and prefix together, through a memo of the
//!   node splits already drawn, so a PE draws each tree node at most once.
//!   What to do with a cell's points is the generator's business: RGG
//!   keeps the sweep frontier and the halo ring, RDG one block at a time.
//! * [`WrappedRun`] — the cell store of the hyperbolic query generators
//!   (§7.1), which hold every cell they touch, O(sector + query halo):
//!   slots for the contiguous run of an annulus' cells around the PE's
//!   sector.
//!
//! [`CountTree::leaf_count`] and [`CountTree::prefix_before`] stay as the
//! stateless reference the source is tested against.

use crate::cell_points::cell_points;
use crate::counts::CountTree;
use crate::grid::CellGrid;
use crate::point::Point;
use kagen_obs::{Counter, Gauge};
use kagen_util::seed::SeedTree;
use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;

/// Cells whose points a PE asked for, run-wide: against
/// `geo.cursor_cells`, the paper's recomputation cost.
static GEO_CELLS_GENERATED: Counter = Counter::new("geo.cells_generated");
/// The most points one PE held at once, run-wide.
static GEO_FRONTIER_POINTS: Gauge = Gauge::new("geo.frontier_points");
/// Cells of the PEs' own Morton ranges (counted once per pass).
static GEO_CURSOR_CELLS: Counter = Counter::new("geo.cursor_cells");

/// Account one PE's finished pass under the `geo.*` names: the cells it
/// generated and the most points it held at once. Every spatial pass
/// reports here, once, from its [`FrontierStats`] — over a
/// [`GridCells`] (RGG, RDG) and the RHG query engine alike. A zero is
/// not recorded: a pass that generated or held nothing adds no name.
pub fn record_held(stats: FrontierStats) {
    if stats.generated_cells > 0 {
        GEO_CELLS_GENERATED.add(stats.generated_cells);
    }
    if stats.peak_points > 0 {
        GEO_FRONTIER_POINTS.record_peak(stats.peak_points);
    }
}

/// What one PE's pass over its cell source cost and held.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrontierStats {
    /// Cells whose points were asked for, empty cells included, each
    /// once ([`GridCells::points`] calls: range cells, the rest is halo).
    pub generated_cells: u64,
    /// Count-tree nodes split: each node on the way to a cell asked for,
    /// once.
    pub nodes_drawn: u64,
    /// High-water mark of the points the generator held
    /// ([`GridCells::note_held`]) — the quantity the streaming-memory
    /// tests bound.
    pub peak_points: u64,
}

/// One PE's view of the cells of a `2^levels`-per-side grid whose Morton
/// order is cut into `2^(D·chunk_levels)` aligned chunks: `(first global
/// id, count)` and points of any cell, bit for bit
/// `(`[`CountTree::prefix_before`]`, `[`CountTree::leaf_count`]`)` and
/// [`cell_points`].
#[derive(Debug)]
pub struct GridCells<const D: usize> {
    grid: CellGrid<D>,
    tree: CountTree<D>,
    seed: u64,
    /// First cell of the PE's range.
    lo: u64,
    /// `first[i]` is the global id of the first vertex of range cell
    /// `lo + i`; one more entry closes the last cell.
    first: Vec<u64>,
    /// The drawn splits, by `(depth, rank)`, of the nodes above the
    /// range's subtree and on the way to every halo cell asked for.
    memo: BTreeMap<(u64, u64), [u64; 8]>,
    stats: FrontierStats,
}

impl<const D: usize> GridCells<D> {
    /// The chunk refinement `with_chunks(chunks)` asks for: the largest
    /// `b` with `2^(D·b) ≤ chunks`.
    pub fn chunk_levels(chunks: usize) -> u32 {
        chunks.ilog2() / D as u32
    }

    /// Chunks of a grid of `grid_levels`: a chunk is a whole number of
    /// cells, so the refinement asked for is capped by the grid's.
    pub fn num_chunks(grid_levels: u32, chunk_levels: u32) -> usize {
        1 << (D as u32 * chunk_levels.min(grid_levels))
    }

    /// Chunk `pe`'s source: walks the count tree of `n` points over the
    /// chunk's cells, once.
    pub fn new(seed: u64, n: u64, grid_levels: u32, chunk_levels: u32, pe: usize) -> Self {
        assert!(pe < Self::num_chunks(grid_levels, chunk_levels));
        let chunk_levels = chunk_levels.min(grid_levels);
        let cells = 1u64 << (D as u32 * (grid_levels - chunk_levels));
        let mut source = GridCells {
            grid: CellGrid::new(grid_levels),
            tree: CountTree::new(seed, n, grid_levels),
            seed,
            lo: pe as u64 * cells,
            first: Vec::with_capacity(cells as usize + 1),
            memo: BTreeMap::new(),
            stats: FrontierStats::default(),
        };
        let (mut next, count, node) = source.descend(pe as u64, chunk_levels);
        let (tree, lo, first) = (source.tree, source.lo, &mut source.first);
        let drawn = &mut source.stats.nodes_drawn;
        let mut split = |node: &_, count| {
            *drawn += 1;
            tree.split(node, count)
        };
        let range = (lo, lo + cells);
        tree.walk(&node, range, count, range, &mut split, &mut |_, count| {
            first.push(next);
            next += count;
        });
        first.push(next);
        GEO_CURSOR_CELLS.add(cells);
        source
    }

    /// [`CountTree::descend`] through the memo.
    fn descend(&mut self, rank: u64, depth: u32) -> (u64, u64, SeedTree) {
        let (tree, memo, drawn) = (self.tree, &mut self.memo, &mut self.stats.nodes_drawn);
        tree.descend(rank, depth, &mut |node, count| {
            *memo.entry((node.level(), node.rank())).or_insert_with(|| {
                *drawn += 1;
                tree.split(node, count)
            })
        })
    }

    /// The grid the cells are of.
    pub fn grid(&self) -> &CellGrid<D> {
        &self.grid
    }

    /// The PE's cells, an aligned Morton range.
    pub fn range(&self) -> Range<u64> {
        self.lo..self.lo + self.first.len() as u64 - 1
    }

    /// Whether `cell` lies inside the PE's range.
    pub fn contains(&self, cell: u64) -> bool {
        self.range().contains(&cell)
    }

    /// The range's first global vertex id.
    pub fn first_id(&self) -> u64 {
        self.first[0]
    }

    /// One past the range's last global vertex id.
    pub fn end_id(&self) -> u64 {
        self.first[self.first.len() - 1]
    }

    /// `(first global id, count)` of any cell of the grid: a lookup inside
    /// the range, one memoised descent outside it.
    pub fn cell(&mut self, morton: u64) -> (u64, u64) {
        if self.contains(morton) {
            let at = (morton - self.lo) as usize;
            return (self.first[at], self.first[at + 1] - self.first[at]);
        }
        let (first, count, _) = self.descend(morton, self.tree.levels());
        (first, count)
    }

    /// Append the points of cell `morton` to `out` and return
    /// [`Self::cell`] of it.
    pub fn points(&mut self, morton: u64, out: &mut Vec<Point<D>>) -> (u64, u64) {
        let (first, count) = self.cell(morton);
        self.stats.generated_cells += 1;
        if count > 0 {
            cell_points(&self.grid, self.seed, morton, count, out);
        }
        (first, count)
    }

    /// The generator holds `points` points now.
    pub fn note_held(&mut self, points: u64) {
        self.stats.peak_points = self.stats.peak_points.max(points);
    }

    /// The accounting so far.
    pub fn stats(&self) -> FrontierStats {
        self.stats
    }
}

/// Slots for a wrapped contiguous run of the indices `0..size` of a
/// circle (`size` a power of two, passed per call): what a PE of a
/// hyperbolic generator touches of one annulus' cells is such a run
/// around its sector. Memory is the run's length, not `size`; an index
/// outside the run extends it on the nearer side, and slots never asked
/// for in between stay `None`.
#[derive(Debug)]
pub struct WrappedRun<T> {
    first: u64,
    slots: VecDeque<Option<T>>,
}

impl<T> WrappedRun<T> {
    /// The slot of index `x < size`, extending the run to it if needed.
    pub fn slot(&mut self, x: u64, size: u64) -> &mut Option<T> {
        debug_assert!(size.is_power_of_two() && x < size);
        let len = self.slots.len() as u64;
        if len == 0 {
            self.first = x;
        }
        let mut offset = x.wrapping_sub(self.first) & (size - 1);
        if offset >= len {
            let (right, left) = (offset + 1 - len, size - offset);
            if right <= left {
                self.slots.extend((0..right).map(|_| None));
            } else {
                (0..left).for_each(|_| self.slots.push_front(None));
                (self.first, offset) = (x, 0);
            }
        }
        &mut self.slots[offset as usize]
    }
}

impl<T> Default for WrappedRun<T> {
    /// An empty run.
    fn default() -> Self {
        WrappedRun {
            first: 0,
            slots: VecDeque::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrapped_run_grows_on_the_nearer_side_and_spans_only_what_it_touched() {
        let mut run: WrappedRun<u64> = WrappedRun::default();
        let size = 64;
        // Around the seam of the circle: 62, 63, 1 (skipping 0), then 60
        // on the left.
        for x in [62, 63, 1, 60] {
            assert_eq!(*run.slot(x, size), None, "index {x} is new");
            *run.slot(x, size) = Some(x);
        }
        assert_eq!((run.first, run.slots.len()), (60, 6), "60..=1 wrapped");
        for x in [60, 62, 63, 1] {
            assert_eq!(*run.slot(x, size), Some(x));
        }
        for x in [61, 0] {
            assert_eq!(*run.slot(x, size), None, "untouched slot inside the run");
        }
        assert_eq!(run.slots.len(), 6, "lookups inside the run do not grow it");
        // The far side of the circle is reached by the shorter way round,
        // and the run never exceeds the circle.
        *run.slot(30, size) = Some(30);
        assert_eq!((run.first, run.slots.len()), (60, 35));
        *run.slot(31, size) = Some(31);
        *run.slot(59, size) = Some(59);
        assert_eq!((run.first, run.slots.len()), (59, 37));
        for x in 0..size {
            run.slot(x, size);
        }
        assert_eq!(run.slots.len(), 64);
        assert_eq!(*run.slot(30, size), Some(30));
        assert_eq!(*run.slot(59, size), Some(59));
        // A one-slot circle (an annulus with a single cell).
        let mut one: WrappedRun<u8> = WrappedRun::default();
        *one.slot(0, 1) = Some(7);
        assert_eq!((*one.slot(0, 1), one.slots.len()), (Some(7), 1));
    }

    #[test]
    fn cursor_ids_match_tree_prefixes() {
        let tree: CountTree<2> = CountTree::new(11, 500, 3);
        // The second of two chunks of a 3-level grid at one chunk level…
        let mut source: GridCells<2> = GridCells::new(11, 500, 3, 1, 1);
        assert_eq!(source.range(), 16..32);
        assert_eq!(source.first_id(), tree.prefix_before(16));
        assert_eq!(source.end_id(), tree.prefix_before(32));
        for cell in 0..64 {
            assert_eq!(source.contains(cell), (16..32).contains(&cell));
            let (first, count) = source.cell(cell);
            assert_eq!(first, tree.prefix_before(cell), "cell {cell}");
            assert_eq!(count, tree.leaf_count(cell), "cell {cell}");
        }
        // … and the full range, where end_id is the total.
        let full: GridCells<2> = GridCells::new(11, 500, 3, 0, 0);
        assert_eq!((full.first_id(), full.end_id()), (0, 500));
        assert_eq!(full.range(), 0..64);
    }

    /// Every node on the root-to-cell paths of the cells asked for — the
    /// range's and a few outside it — is drawn once, nodes without
    /// points never, and asking again draws nothing.
    #[test]
    fn nodes_drawn_is_the_distinct_nodes_on_the_paths_asked_for() {
        use std::collections::BTreeSet;
        fn check<const D: usize>(n: u64, levels: u32, chunk_levels: u32, pe: usize, halo: &[u64]) {
            let tree: CountTree<D> = CountTree::new(5, n, levels);
            let mut source: GridCells<D> = GridCells::new(5, n, levels, chunk_levels, pe);
            let mut nodes = BTreeSet::new();
            let path = |nodes: &mut BTreeSet<(u32, u64)>, cell: u64| {
                for depth in 0..levels {
                    let shift = D as u32 * (levels - depth);
                    let (a, b) = (cell >> shift << shift, ((cell >> shift) + 1) << shift);
                    let end = if b == tree.num_leaves() {
                        n
                    } else {
                        tree.prefix_before(b)
                    };
                    if end > tree.prefix_before(a) {
                        nodes.insert((depth, cell >> shift));
                    }
                }
            };
            source.range().for_each(|cell| path(&mut nodes, cell));
            assert_eq!(source.stats().nodes_drawn, nodes.len() as u64, "range");
            for (asked, &cell) in halo.iter().enumerate() {
                path(&mut nodes, cell);
                let mut pts = Vec::new();
                let (first, count) = source.points(cell, &mut pts);
                assert_eq!(
                    (first, count),
                    (tree.prefix_before(cell), tree.leaf_count(cell))
                );
                assert_eq!(pts.len() as u64, count);
                assert_eq!(
                    source.stats().nodes_drawn,
                    nodes.len() as u64,
                    "cell {cell}"
                );
                assert_eq!(source.stats().generated_cells, asked as u64 + 1);
            }
            let drawn = source.stats().nodes_drawn;
            for cell in source.range().chain(halo.iter().copied()) {
                source.cell(cell);
            }
            assert_eq!(
                source.stats().nodes_drawn,
                drawn,
                "asking again draws nothing"
            );
        }
        check::<2>(3_000, 4, 1, 2, &[127, 0, 192, 255, 37, 37, 126]);
        check::<2>(40, 4, 2, 5, &[79, 96, 255, 0]); // most subtrees empty
        check::<3>(2_000, 3, 1, 7, &[0, 447, 100, 63]);
        check::<3>(2_000, 2, 5, 9, &[8, 63]); // chunk levels capped by the grid's
        check::<2>(0, 3, 1, 0, &[20, 63]); // no points: nothing to split
    }
}

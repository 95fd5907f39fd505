//! The cell-cursor streaming core of the spatial generators, and the
//! cell store of the hyperbolic ones.
//!
//! The paper generates geometric graphs cell by cell over a
//! pseudorandomized grid: any PE can *recompute* any cell's points from
//! `(seed, cell)`, so the working set of a streaming pass never needs to
//! exceed the neighborhood of the cell currently being processed. This
//! module provides the two pieces of such an evicting pass (RGG is the
//! cache's only caller; RDG walks the cursor and keeps nothing between
//! its blocks):
//!
//! * [`FrontierCache`] — a regenerate-on-miss cell cache with
//!   retire-rank eviction. Callers tag each cached cell with the last
//!   sweep position that can still reference it; [`FrontierCache::advance`]
//!   evicts everything behind the sweep. Eviction is *purely* a memory
//!   policy: a cell fetched after its eviction is transparently
//!   regenerated (the paper's recomputation trick), so any retire
//!   estimate — even a wrong one — yields the identical edge stream.
//! * [`CellRangeCursor`] — a walk over a PE's Morton cell range that
//!   carries the running global-id prefix, so vertex ids fall out of the
//!   traversal without a second count-tree query per cell.
//!
//! Together they replace the per-PE materialization RGG used before:
//! memory becomes O(active cell neighborhood), not O(per-PE edges).
//!
//! The hyperbolic query generators (§7.1) evict nothing — a PE holds
//! every cell it touches, O(sector + query halo) — and keep them in the
//! third piece, [`WrappedRun`]: slots for the contiguous run of an
//! annulus' cells around the PE's sector.

use crate::counts::CountTree;
use crate::grid::CellGrid;
use kagen_obs::{Counter, Gauge};
use std::collections::{BTreeMap, VecDeque};

/// Cells generated (including regenerations after eviction) across all
/// frontier caches — the paper's recomputation cost, run-wide.
static GEO_CELLS_GENERATED: Counter = Counter::new("geo.cells_generated");
/// Live/peak points held by frontier caches (value tracks the cache
/// that updated last; the peak is the run-wide high-water mark).
static GEO_FRONTIER_POINTS: Gauge = Gauge::new("geo.frontier_points");
/// Cells visited by cell-range cursors (counted once per sweep).
static GEO_CURSOR_CELLS: Counter = Counter::new("geo.cursor_cells");

/// Account a pass without an evicting frontier under the same `geo.*`
/// names: `cells` generated and the most `points` held at once — by the
/// RHG query engine, which holds every cell it generates, at its end; by
/// RDG, which holds nothing between blocks, in its largest block.
pub fn record_held(cells: u64, points: u64) {
    GEO_CELLS_GENERATED.add(cells);
    GEO_FRONTIER_POINTS.set(points);
}

/// Memory accounting of a [`FrontierCache`] (the `abl-mem`-style
/// footprint proxy: every held point carries its precomputed terms).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrontierStats {
    /// Cells generated over the whole pass, counting regenerations — the
    /// paper's recomputation cost.
    pub generated_cells: u64,
    /// Points currently held.
    pub live_points: u64,
    /// High-water mark of held points — the quantity that must stay
    /// bounded by the cell neighborhood for the streaming claim to hold.
    pub peak_points: u64,
}

/// Cache values report how many points they hold so the cache can keep
/// its high-water accounting without knowing the value type.
pub trait Weighted {
    /// Number of points (or equivalent units) this value holds.
    fn weight(&self) -> u64;
}

impl<T> Weighted for (u64, Vec<T>) {
    fn weight(&self) -> u64 {
        self.1.len() as u64
    }
}

impl<A, B> Weighted for (Vec<A>, Vec<B>) {
    fn weight(&self) -> u64 {
        self.0.len() as u64
    }
}

/// A regenerate-on-miss cell cache with retire-rank eviction.
///
/// Each entry carries a `retire` rank: the last sweep position (caller
/// defined, monotone over the pass) that may still reference it.
/// [`FrontierCache::advance`] drops every entry whose rank has passed. A
/// later fetch of an evicted key simply regenerates it — correctness
/// never depends on the retire estimate, only the memory/recompute trade
/// does.
pub struct FrontierCache<K, V> {
    map: BTreeMap<K, (u64, V)>,
    stats: FrontierStats,
    /// Points the caller currently holds outside the cache (the taken
    /// center cell); included in every peak update so the reported
    /// high-water covers the full working set, not just cached cells.
    external: u64,
}

// Manual impl: prints occupancy and stats without requiring
// `K: Debug` / `V: Debug`.
impl<K, V> std::fmt::Debug for FrontierCache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrontierCache")
            .field("len", &self.map.len())
            .field("stats", &self.stats)
            .field("external", &self.external)
            .finish()
    }
}

impl<K: Ord + Copy, V: Weighted> FrontierCache<K, V> {
    /// An empty cache.
    pub fn new() -> Self {
        FrontierCache {
            map: BTreeMap::new(),
            stats: FrontierStats::default(),
            external: 0,
        }
    }

    fn bump_peak(&mut self) {
        self.stats.peak_points = self
            .stats
            .peak_points
            .max(self.stats.live_points + self.external);
        GEO_FRONTIER_POINTS.record_peak(self.stats.peak_points);
    }

    /// Fetch `key`, generating it with `gen` on a miss. `retire` extends
    /// the entry's lifetime (ranks only ever grow — a re-fetch from a
    /// later sweep position keeps the cell alive longer).
    pub fn get(&mut self, key: K, retire: u64, gen: impl FnOnce() -> V) -> &V {
        let stats = &mut self.stats;
        let external = self.external;
        let entry = self.map.entry(key).or_insert_with(|| {
            let v = gen();
            stats.generated_cells += 1;
            stats.live_points += v.weight();
            // The peak can only move on an insertion; count the
            // caller's externally held points too.
            stats.peak_points = stats.peak_points.max(stats.live_points + external);
            GEO_CELLS_GENERATED.incr();
            GEO_FRONTIER_POINTS.set(stats.live_points + external);
            (0, v)
        });
        entry.0 = entry.0.max(retire);
        &entry.1
    }

    /// Remove and return `key` (generating it if absent) — for the
    /// center cell of a pass, whose points the caller iterates while
    /// fetching neighbors from the cache.
    pub fn take(&mut self, key: K, gen: impl FnOnce() -> V) -> V {
        match self.map.remove(&key) {
            Some((_, v)) => {
                self.stats.live_points -= v.weight();
                v
            }
            None => {
                self.stats.generated_cells += 1;
                GEO_CELLS_GENERATED.incr();
                gen()
            }
        }
    }

    /// Evict every entry whose retire rank is behind `now`.
    pub fn advance(&mut self, now: u64) {
        let stats = &mut self.stats;
        self.map.retain(|_, (retire, v)| {
            let keep = *retire >= now;
            if !keep {
                stats.live_points -= v.weight();
            }
            keep
        });
        GEO_FRONTIER_POINTS.set(self.stats.live_points + self.external);
    }

    /// Current accounting. `live_points` excludes values handed out via
    /// [`FrontierCache::take`].
    pub fn stats(&self) -> FrontierStats {
        self.stats
    }

    /// Record the points the caller holds outside the cache (the taken
    /// center cell) — included in every peak update until the next call
    /// replaces it, so the reported high-water covers the full working
    /// set while neighbor fetches grow the frontier.
    pub fn note_external(&mut self, points: u64) {
        self.external = points;
        self.bump_peak();
    }
}

impl<K: Ord + Copy, V: Weighted> Default for FrontierCache<K, V> {
    fn default() -> Self {
        FrontierCache::new()
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

/// A walk over one PE's aligned Morton cell range carrying the running
/// global-id prefix: the communication-free vertex ids of §5.1 fall out
/// of the traversal (one `prefix_before` for the range start, then a
/// running sum), instead of one O(levels·2^d) tree query per cell.
#[derive(Debug)]
pub struct CellRangeCursor<'a, const D: usize> {
    grid: &'a CellGrid<D>,
    tree: &'a CountTree<D>,
    lo: u64,
    hi: u64,
}

impl<'a, const D: usize> CellRangeCursor<'a, D> {
    /// Cursor over the Morton cell range `[lo, hi)`.
    pub fn new(grid: &'a CellGrid<D>, tree: &'a CountTree<D>, lo: u64, hi: u64) -> Self {
        CellRangeCursor { grid, tree, lo, hi }
    }

    /// The range's first global vertex id.
    pub fn first_id(&self) -> u64 {
        self.tree.prefix_before(self.lo)
    }

    /// One past the range's last global vertex id.
    pub fn end_id(&self) -> u64 {
        if self.hi == self.tree.num_leaves() {
            self.tree.total()
        } else {
            self.tree.prefix_before(self.hi)
        }
    }

    /// Visit every cell of the range in Morton order as
    /// `f(cell, count, first_id)`, where `first_id` is the global id of
    /// the cell's first vertex.
    pub fn for_cells(&self, f: &mut impl FnMut(u64, u64, u64)) {
        let mut next_id = self.first_id();
        let mut visited = 0u64;
        self.tree
            .for_leaf_counts(self.lo, self.hi, &mut |cell, count| {
                visited += 1;
                f(cell, count, next_id);
                next_id += count;
            });
        GEO_CURSOR_CELLS.add(visited);
    }

    /// Whether `cell` lies inside the range.
    pub fn contains(&self, cell: u64) -> bool {
        (self.lo..self.hi).contains(&cell)
    }

    /// The retire rank of `cell` for a center-cell sweep over this
    /// range: the largest in-range Morton rank among `cell` and its 3^d
    /// neighborhood — the last center cell whose pair enumeration can
    /// reference it. Cells outside every in-range neighborhood retire
    /// immediately (rank 0).
    pub fn last_referencing_center(&self, cell: u64) -> u64 {
        let mut last = if self.contains(cell) { cell } else { 0 };
        self.grid
            .for_neighbors(self.grid.coords_of(cell), false, &mut |ncoords, _| {
                let ncell = self.grid.morton_of(ncoords);
                if self.contains(ncell) {
                    last = last.max(ncell);
                }
            });
        last
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<T> Weighted for Vec<T> {
        fn weight(&self) -> u64 {
            self.len() as u64
        }
    }

    #[test]
    fn cache_regenerates_after_eviction() {
        let mut cache: FrontierCache<u64, Vec<u32>> = FrontierCache::new();
        let mut gens = 0;
        let fetch = |cache: &mut FrontierCache<u64, Vec<u32>>, k: u64, retire: u64| {
            let mut local = 0;
            let v = cache
                .get(k, retire, || {
                    local += 1;
                    vec![k as u32; 3]
                })
                .clone();
            (v, local)
        };
        let (v1, g1) = fetch(&mut cache, 7, 2);
        gens += g1;
        let (v2, g2) = fetch(&mut cache, 7, 1);
        gens += g2;
        assert_eq!(v1, v2);
        assert_eq!(gens, 1, "second fetch must hit");
        // The retire rank was extended to 2 by the first fetch; rank 2
        // keeps it, rank 3 evicts it.
        cache.advance(2);
        let (_, g3) = fetch(&mut cache, 7, 5);
        assert_eq!(g3, 0, "rank 2 entry must survive advance(2)");
        cache.advance(6);
        let (v4, g4) = fetch(&mut cache, 7, 9);
        assert_eq!(g4, 1, "evicted entry must regenerate");
        assert_eq!(v4, v1, "regeneration must be deterministic");
    }

    #[test]
    fn cache_accounts_points() {
        let mut cache: FrontierCache<u64, Vec<u32>> = FrontierCache::new();
        cache.get(1, 10, || vec![0; 5]);
        cache.get(2, 10, || vec![0; 7]);
        assert_eq!(cache.stats().live_points, 12);
        assert_eq!(cache.stats().peak_points, 12);
        assert_eq!(cache.stats().generated_cells, 2);
        cache.advance(11);
        assert_eq!(cache.stats().live_points, 0);
        assert_eq!(cache.stats().peak_points, 12, "peak is a high-water mark");
        let taken = cache.take(3, || vec![0; 2]);
        assert_eq!(taken.len(), 2);
        assert_eq!(cache.stats().generated_cells, 3);
    }

    #[test]
    fn take_removes_cached_entry() {
        let mut cache: FrontierCache<u64, Vec<u32>> = FrontierCache::new();
        cache.get(4, 9, || vec![1, 2]);
        let v = cache.take(4, || unreachable!("must come from the cache"));
        assert_eq!(v, vec![1, 2]);
        assert_eq!(cache.stats().live_points, 0);
        let mut regenerated = false;
        cache.get(4, 9, || {
            regenerated = true;
            vec![1, 2]
        });
        assert!(regenerated, "take must remove the entry");
    }

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
        let grid: CellGrid<2> = CellGrid::new(3);
        let tree: CountTree<2> = CountTree::new(11, 500, 3);
        let cursor = CellRangeCursor::new(&grid, &tree, 16, 48);
        assert_eq!(cursor.first_id(), tree.prefix_before(16));
        assert_eq!(cursor.end_id(), tree.prefix_before(48));
        let mut seen = Vec::new();
        cursor.for_cells(&mut |cell, count, first| seen.push((cell, count, first)));
        assert_eq!(seen.len(), 32);
        for &(cell, count, first) in &seen {
            assert_eq!(first, tree.prefix_before(cell), "cell {cell}");
            assert_eq!(count, tree.leaf_count(cell), "cell {cell}");
        }
        // Full range: end_id is the total.
        let full = CellRangeCursor::new(&grid, &tree, 0, tree.num_leaves());
        assert_eq!(full.end_id(), 500);
    }

    #[test]
    fn last_referencing_center_is_max_in_range_neighbor() {
        let grid: CellGrid<2> = CellGrid::new(3);
        let tree: CountTree<2> = CountTree::new(1, 100, 3);
        let cursor = CellRangeCursor::new(&grid, &tree, 0, 64);
        for cell in 0..64u64 {
            let mut expect = cell;
            grid.for_neighbors(grid.coords_of(cell), false, &mut |nc, _| {
                expect = expect.max(grid.morton_of(nc));
            });
            assert_eq!(cursor.last_referencing_center(cell), expect, "cell {cell}");
        }
        // A restricted range clamps to in-range neighbors only.
        let half = CellRangeCursor::new(&grid, &tree, 0, 32);
        for cell in 0..64u64 {
            let got = half.last_referencing_center(cell);
            assert!(got < 32 || (cell < 32 && got == cell) || got == 0);
        }
    }
}

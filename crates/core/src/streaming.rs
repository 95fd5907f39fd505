//! Streaming edge output (§9 future work: "extend our remaining
//! generators to use a streaming approach … drastically reduce the memory
//! needed").
//!
//! [`StreamingGenerator::stream_pe_batched`] is the one edge-delivery
//! primitive: a PE's edges arrive as slices of a caller-provided batch
//! buffer instead of a materialized [`PeGraph`](crate::PeGraph), so a
//! PE's memory footprint is its generator state (cells, counts, PRNGs)
//! plus one batch — not its output. Per-edge delivery, counting and the
//! whole-instance drivers are provided adapters over that one method.
//! For the index-based generators (ER, BA, R-MAT, SBM) the state is
//! O(log)-sized; for the spatial/hyperbolic family it is the active cell
//! neighborhood of the cell-cursor core (`kagen_geometry::cell_stream`):
//! the current cell group plus an evicting frontier of recomputable
//! cells (RGG/RDG), the active query window (RHG/soft RHG), or
//! replicated globals plus the active-request windows (sRHG).
//!
//! Every implementation emits exactly `generate_pe`'s edge *set* in a
//! deterministic, chunk-stable order (asserted in tests): streaming
//! changes the delivery, never the instance. All generators except RDG
//! and sRHG preserve `generate_pe`'s edge *order* too; those two emit in
//! generation-sweep order (per cell group / per sweep annulus), because
//! reproducing the materialized path's globally sorted order would
//! require buffering the very output the streaming path exists to
//! avoid.

use crate::ba::BarabasiAlbert;
use crate::er::{GnmDirected, GnmUndirected, GnpDirected, GnpUndirected};
use crate::rdg::Rdg;
use crate::rgg::Rgg;
use crate::rhg::{Rhg, SoftRhg};
use crate::rmat::Rmat;
use crate::sbm::StochasticBlockModel;
use crate::srhg::Srhg;
use crate::Generator;
use kagen_obs::Counter;

/// Edges delivered by the generators (counted once per flushed batch).
static GEN_EDGES: Counter = Counter::new("gen.edges");
/// Batches flushed by the generators.
static GEN_BATCHES: Counter = Counter::new("gen.batches");

/// Default batch size (edges): large enough to amortize per-batch costs
/// (seed hashing, virtual dispatch, slice encoding), small enough to stay
/// L1/L2-resident (64 KiB of pairs).
pub const BATCH_EDGES: usize = 4096;

/// The buffer-and-flush protocol, in one place: push edges, emit a full
/// slice whenever the buffer reaches its capacity, and emit the ragged
/// final slice at the end. The `push` call is concrete and inlined, so
/// generators streaming through a `Batcher` keep their monomorphized hot
/// loop.
struct Batcher<'a, 'e> {
    buf: &'a mut Vec<(u64, u64)>,
    emit: &'a mut BatchEmit<'e>,
    cap: usize,
}

impl Batcher<'_, '_> {
    /// Run `produce` against a batcher over `buf` (its capacity sets the
    /// batch size; reserved to [`BATCH_EDGES`] if empty), then flush the
    /// ragged tail.
    fn run(buf: &mut Vec<(u64, u64)>, emit: &mut BatchEmit, produce: impl FnOnce(&mut Batcher)) {
        buf.clear();
        if buf.capacity() == 0 {
            buf.reserve(BATCH_EDGES);
        }
        let cap = buf.capacity();
        let mut b = Batcher { buf, emit, cap };
        produce(&mut b);
        if !b.buf.is_empty() {
            b.flush();
        }
    }

    #[inline(always)]
    fn push(&mut self, u: u64, v: u64) {
        self.buf.push((u, v));
        if self.buf.len() >= self.cap {
            self.flush();
        }
    }

    fn flush(&mut self) {
        GEN_EDGES.add(self.buf.len() as u64);
        GEN_BATCHES.incr();
        (self.emit)(self.buf);
        self.buf.clear();
    }
}

/// Shared driver for range-fill generators (R-MAT, BA): carve the index
/// range into capacity-sized sub-ranges, let `fill` append each one to
/// the buffer, emit every full buffer.
fn fill_range_batched(
    range: std::ops::Range<u64>,
    buf: &mut Vec<(u64, u64)>,
    emit: &mut BatchEmit,
    fill: impl Fn(std::ops::Range<u64>, &mut Vec<(u64, u64)>),
) {
    Batcher::run(buf, emit, |b| {
        let mut lo = range.start;
        while lo < range.end {
            let hi = (lo + b.cap as u64).min(range.end);
            fill(lo..hi, b.buf);
            b.flush();
            lo = hi;
        }
    });
}

/// The slice-consumer side of [`StreamingGenerator::stream_pe_batched`].
pub type BatchEmit<'a> = dyn FnMut(&[(u64, u64)]) + 'a;

/// Edge-streaming extension of [`Generator`]. Implementors supply
/// [`stream_pe_batched`](Self::stream_pe_batched); everything else is an
/// adapter over it.
pub trait StreamingGenerator: Generator {
    /// Emit every edge PE `pe` is responsible for — exactly
    /// `generate_pe`'s edge set, in a deterministic order that is stable
    /// across thread counts and batch sizes (for most generators it is
    /// `generate_pe`'s order; RDG and sRHG stream in generation-sweep
    /// order, see the module docs) — as non-empty slices. `buf` is a
    /// caller-provided scratch buffer (its capacity sets the batch size;
    /// reserved to [`BATCH_EDGES`] if empty) and `emit` receives each
    /// filled slice. The concatenation of all slices is the PE's stream:
    /// the batch size changes delivery granularity, never the instance.
    fn stream_pe_batched(&self, pe: usize, buf: &mut Vec<(u64, u64)>, emit: &mut BatchEmit);

    /// PE `pe`'s stream, one edge per `emit` call.
    fn stream_pe(&self, pe: usize, emit: &mut dyn FnMut(u64, u64)) {
        self.stream_pe_batched(pe, &mut Vec::new(), &mut |edges| {
            for &(u, v) in edges {
                emit(u, v);
            }
        });
    }

    /// Count a PE's edges without materializing them.
    fn count_pe(&self, pe: usize) -> u64 {
        let mut count = 0;
        self.stream_pe_batched(pe, &mut Vec::new(), &mut |edges| {
            count += edges.len() as u64
        });
        count
    }

    /// Drive every PE in order through `emit`, one edge per call. Peak
    /// memory is generator state plus one batch.
    fn stream_all(&self, emit: &mut dyn FnMut(u64, u64)) {
        self.stream_all_batched(&mut Vec::new(), &mut |edges| {
            for &(u, v) in edges {
                emit(u, v);
            }
        });
    }

    /// Drive every PE in order through `emit` — the sequential sink
    /// driver used by the output pipeline when a single consumer wants
    /// the whole instance as one stream. Peak memory is generator state
    /// plus one batch.
    fn stream_all_batched(&self, buf: &mut Vec<(u64, u64)>, emit: &mut BatchEmit) {
        for pe in 0..self.num_chunks() {
            self.stream_pe_batched(pe, buf, emit);
        }
    }

    /// Total edge count of the instance without materializing it.
    fn count_edges(&self) -> u64 {
        let mut count = 0;
        self.stream_all_batched(&mut Vec::new(), &mut |edges| count += edges.len() as u64);
        count
    }
}

impl StreamingGenerator for GnmDirected {
    fn stream_pe_batched(&self, pe: usize, buf: &mut Vec<(u64, u64)>, emit: &mut BatchEmit) {
        Batcher::run(buf, emit, |b| {
            self.stream_edges(pe, &mut |u, v| b.push(u, v))
        });
    }
}

impl StreamingGenerator for GnpDirected {
    fn stream_pe_batched(&self, pe: usize, buf: &mut Vec<(u64, u64)>, emit: &mut BatchEmit) {
        Batcher::run(buf, emit, |b| {
            self.stream_edges(pe, &mut |u, v| b.push(u, v))
        });
    }
}

impl StreamingGenerator for GnmUndirected {
    fn stream_pe_batched(&self, pe: usize, buf: &mut Vec<(u64, u64)>, emit: &mut BatchEmit) {
        Batcher::run(buf, emit, |b| {
            self.stream_edges(pe, &mut |u, v| b.push(u, v))
        });
    }
}

impl StreamingGenerator for GnpUndirected {
    fn stream_pe_batched(&self, pe: usize, buf: &mut Vec<(u64, u64)>, emit: &mut BatchEmit) {
        Batcher::run(buf, emit, |b| {
            self.stream_edges(pe, &mut |u, v| b.push(u, v))
        });
    }
}

impl StreamingGenerator for BarabasiAlbert {
    /// Range fill: the hashed resolve-base seed is derived once per
    /// batch instead of once per edge.
    fn stream_pe_batched(&self, pe: usize, buf: &mut Vec<(u64, u64)>, emit: &mut BatchEmit) {
        fill_range_batched(self.pe_slot_range(pe), buf, emit, |r, out| {
            self.fill_edges(r, out)
        });
    }
}

impl StreamingGenerator for Rmat {
    /// Range fill: one hashed seed per edge block and one kernel
    /// dispatch per batch (see [`Rmat::fill_edges`]) — the §8.6.1 variate
    /// cost drops from hash+descent to `mix2`+descent per edge.
    fn stream_pe_batched(&self, pe: usize, buf: &mut Vec<(u64, u64)>, emit: &mut BatchEmit) {
        fill_range_batched(self.pe_edge_range(pe), buf, emit, |r, out| {
            self.fill_edges(r, out)
        });
    }
}

impl StreamingGenerator for StochasticBlockModel {
    fn stream_pe_batched(&self, pe: usize, buf: &mut Vec<(u64, u64)>, emit: &mut BatchEmit) {
        Batcher::run(buf, emit, |b| {
            self.stream_edges(pe, &mut |u, v| b.push(u, v))
        });
    }
}

impl<const D: usize> StreamingGenerator for Rgg<D> {
    /// Cell-cursor streaming (§5): Morton walk with an evicting frontier
    /// of recomputable cells — memory is the active 3^d neighborhood,
    /// the stream is edge-for-edge `generate_pe`'s.
    fn stream_pe_batched(&self, pe: usize, buf: &mut Vec<(u64, u64)>, emit: &mut BatchEmit) {
        Batcher::run(buf, emit, |b| {
            self.stream_cells(pe, &mut |u, v| b.push(u, v));
        });
    }
}

impl<const D: usize> StreamingGenerator for Rdg<D> {
    /// Per-cell-group triangulation (§6): each local cell is
    /// triangulated with its certified halo rings and emits only the
    /// edges it owns — memory is one cell group plus the distance-1
    /// halo frontier. The stream is ordered cell-by-cell (sorted within
    /// a cell); as a set it equals `generate_pe`'s sorted list.
    fn stream_pe_batched(&self, pe: usize, buf: &mut Vec<(u64, u64)>, emit: &mut BatchEmit) {
        Batcher::run(buf, emit, |b| {
            self.stream_cells(pe, &mut |u, v| b.push(u, v));
        });
    }
}

impl StreamingGenerator for Rhg {
    /// Streaming Δθ queries (§7.1) over the evicting frontier cache —
    /// memory is the active query window, the stream is edge-for-edge
    /// `generate_pe`'s sorted list.
    fn stream_pe_batched(&self, pe: usize, buf: &mut Vec<(u64, u64)>, emit: &mut BatchEmit) {
        Batcher::run(buf, emit, |b| {
            self.stream_query(pe, &mut |u, v| b.push(u, v));
        });
    }
}

impl StreamingGenerator for Srhg {
    /// The request-centric sweep (§7.2) with sliding request insertion —
    /// live state is replicated globals + active-request windows. The
    /// stream is emitted in sweep order: as a set it equals
    /// `generate_pe`'s (sorted) list; cross-PE duplicates deduplicate on
    /// merge as for every undirected generator.
    fn stream_pe_batched(&self, pe: usize, buf: &mut Vec<(u64, u64)>, emit: &mut BatchEmit) {
        Batcher::run(buf, emit, |b| {
            self.sweep(pe, &mut |u, v| b.push(u, v), None);
        });
    }
}

impl StreamingGenerator for SoftRhg {
    /// Streaming truncated-radius queries (§9 soft model) over the
    /// evicting frontier cache; edge-for-edge `generate_pe`'s list.
    fn stream_pe_batched(&self, pe: usize, buf: &mut Vec<(u64, u64)>, emit: &mut BatchEmit) {
        Batcher::run(buf, emit, |b| {
            self.stream_query(pe, &mut |u, v| b.push(u, v));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    fn assert_stream_matches<G: StreamingGenerator>(gen: &G) {
        for pe in 0..gen.num_chunks().min(5) {
            let materialized = gen.generate_pe(pe).edges;
            let mut streamed = Vec::new();
            gen.stream_pe(pe, &mut |u, v| streamed.push((u, v)));
            assert_eq!(materialized, streamed, "PE {pe}");
            assert_eq!(gen.count_pe(pe) as usize, materialized.len());
        }
        assert_batched_matches(gen);
    }

    /// Like [`assert_stream_matches`], for generators whose native
    /// stream order is the generation sweep, not `generate_pe`'s sorted
    /// list: the streams must be equal as *sets* (and duplicate-free),
    /// and the batched path must equal the per-edge stream exactly.
    fn assert_stream_set_matches<G: StreamingGenerator>(gen: &G) {
        for pe in 0..gen.num_chunks().min(5) {
            let materialized = gen.generate_pe(pe).edges;
            let mut streamed = Vec::new();
            gen.stream_pe(pe, &mut |u, v| streamed.push((u, v)));
            assert_eq!(gen.count_pe(pe) as usize, streamed.len());
            let mut sorted = streamed.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), streamed.len(), "PE {pe}: duplicate edges");
            let mut reference = materialized;
            reference.sort_unstable();
            assert_eq!(reference, sorted, "PE {pe}: edge sets differ");
            // Batched delivery must reproduce the per-edge stream
            // edge-for-edge (order included).
            let mut buf = Vec::with_capacity(7);
            let mut batched = Vec::new();
            gen.stream_pe_batched(pe, &mut buf, &mut |edges| batched.extend_from_slice(edges));
            assert_eq!(streamed, batched, "PE {pe}: batched order differs");
        }
    }

    /// The batched path must yield edge-for-edge the same stream as
    /// `generate_pe`/`stream_pe`, for every PE and any batch capacity.
    fn assert_batched_matches<G: StreamingGenerator + ?Sized>(gen: &G) {
        for pe in 0..gen.num_chunks() {
            let materialized = gen.generate_pe(pe).edges;
            // Default capacity, plus a tiny odd one that forces many
            // flushes and ragged final slices.
            for cap in [0usize, 7] {
                let mut buf = Vec::with_capacity(cap);
                let mut batched = Vec::new();
                let mut batches = 0usize;
                gen.stream_pe_batched(pe, &mut buf, &mut |edges| {
                    assert!(!edges.is_empty(), "empty batch emitted");
                    batched.extend_from_slice(edges);
                    batches += 1;
                });
                assert_eq!(materialized, batched, "PE {pe} cap {cap}");
                if cap == 7 && materialized.len() > 7 {
                    assert!(batches > 1, "PE {pe}: tiny capacity must flush often");
                }
            }
        }
    }

    #[test]
    fn gnm_directed_stream() {
        assert_stream_matches(&GnmDirected::new(300, 2000).with_seed(3).with_chunks(5));
    }

    #[test]
    fn gnm_undirected_stream() {
        assert_stream_matches(&GnmUndirected::new(300, 2000).with_seed(3).with_chunks(5));
    }

    #[test]
    fn gnp_streams() {
        assert_stream_matches(&GnpDirected::new(200, 0.05).with_seed(4).with_chunks(4));
        assert_stream_matches(&GnpUndirected::new(200, 0.05).with_seed(4).with_chunks(4));
    }

    #[test]
    fn ba_stream() {
        assert_stream_matches(&BarabasiAlbert::new(500, 3).with_seed(5).with_chunks(8));
    }

    #[test]
    fn rmat_stream() {
        assert_stream_matches(&Rmat::new(9, 3000).with_seed(6).with_chunks(8));
        assert_stream_matches(
            &Rmat::new(9, 3000)
                .with_seed(6)
                .with_chunks(8)
                .with_kernel(crate::RmatKernel::Linear { levels: 4 }),
        );
        // Above scale 32, where u and v no longer fit one interleaved word.
        assert_stream_matches(
            &Rmat::new(33, 3000)
                .with_seed(6)
                .with_chunks(8)
                .with_kernel(crate::RmatKernel::Linear { levels: 8 }),
        );
    }

    #[test]
    fn sbm_stream() {
        assert_stream_matches(
            &StochasticBlockModel::planted(300, 3, 0.1, 0.01)
                .with_seed(7)
                .with_chunks(6),
        );
    }

    #[test]
    fn rgg_stream() {
        assert_stream_matches(&Rgg2d::new(400, 0.08).with_seed(8).with_chunks(16));
    }

    #[test]
    fn spatial_and_hyperbolic_streams() {
        assert_stream_set_matches(&Rdg2d::new(200).with_seed(9).with_chunks(4));
        assert_stream_matches(&Rhg::new(300, 6.0, 2.8).with_seed(10).with_chunks(4));
        assert_stream_set_matches(&Srhg::new(300, 6.0, 2.8).with_seed(10).with_chunks(4));
        assert_stream_matches(
            &SoftRhg::new(300, 6.0, 2.8, 0.4)
                .with_seed(11)
                .with_chunks(4),
        );
    }

    #[test]
    fn batched_equivalence_across_chunk_counts() {
        // Every generator with a batched path, at ≥2 chunk counts each:
        // the batched stream must equal the per-edge stream exactly.
        for chunks in [1usize, 3, 8] {
            assert_batched_matches(&GnmDirected::new(300, 2000).with_seed(3).with_chunks(chunks));
            assert_batched_matches(
                &GnmUndirected::new(300, 2000)
                    .with_seed(3)
                    .with_chunks(chunks),
            );
            assert_batched_matches(&GnpDirected::new(200, 0.05).with_seed(4).with_chunks(chunks));
            assert_batched_matches(
                &GnpUndirected::new(200, 0.05)
                    .with_seed(4)
                    .with_chunks(chunks),
            );
            assert_batched_matches(&BarabasiAlbert::new(500, 3).with_seed(5).with_chunks(chunks));
            assert_batched_matches(&Rmat::new(9, 3000).with_seed(6).with_chunks(chunks));
            assert_batched_matches(
                &Rmat::new(9, 3000)
                    .with_seed(6)
                    .with_chunks(chunks)
                    .with_kernel(crate::RmatKernel::Linear { levels: 4 }),
            );
            assert_batched_matches(
                &Rmat::new(33, 3000)
                    .with_seed(6)
                    .with_chunks(chunks)
                    .with_kernel(crate::RmatKernel::Linear { levels: 8 }),
            );
            assert_batched_matches(
                &StochasticBlockModel::planted(300, 3, 0.1, 0.01)
                    .with_seed(7)
                    .with_chunks(chunks),
            );
        }
    }

    #[test]
    fn spatial_streams_across_chunk_counts() {
        // Every spatial/hyperbolic generator, at three chunk counts,
        // through both the per-edge and batched entry points: the
        // streamed edge set must equal `generate_pe`'s for every PE
        // (order included where the generator preserves it).
        for chunks in [1usize, 3, 8] {
            assert_stream_matches(&Rgg2d::new(300, 0.07).with_seed(8).with_chunks(chunks));
            assert_stream_matches(&Rgg3d::new(250, 0.14).with_seed(8).with_chunks(chunks));
            assert_stream_set_matches(&Rdg2d::new(250).with_seed(9).with_chunks(chunks));
            assert_stream_matches(&Rhg::new(300, 6.0, 2.8).with_seed(10).with_chunks(chunks));
            assert_stream_set_matches(&Srhg::new(300, 6.0, 2.8).with_seed(10).with_chunks(chunks));
            assert_stream_matches(
                &SoftRhg::new(250, 6.0, 2.8, 0.4)
                    .with_seed(11)
                    .with_chunks(chunks),
            );
        }
        // 3D Delaunay is the most expensive group pass; one chunked and
        // one unchunked instance cover it.
        assert_stream_set_matches(&Rdg3d::new(200).with_seed(9).with_chunks(1));
        assert_stream_set_matches(&Rdg3d::new(200).with_seed(9).with_chunks(8));
    }

    #[test]
    fn spatial_streams_agree_between_generators() {
        // The RHG family samples one instance per seed: the *streamed*
        // union across PEs must agree between the query-centric and
        // request-centric generators, exactly like the materialized
        // paths do.
        let rhg = Rhg::new(400, 7.0, 2.7).with_seed(13).with_chunks(4);
        let srhg = Srhg::new(400, 7.0, 2.7).with_seed(13).with_chunks(4);
        let collect = |gen: &dyn StreamingGenerator| {
            let mut edges = Vec::new();
            gen.stream_all(&mut |u, v| edges.push((u.min(v), u.max(v))));
            edges.sort_unstable();
            edges.dedup();
            edges
        };
        assert_eq!(collect(&rhg), collect(&srhg));
    }

    #[test]
    fn stream_all_batched_concatenates_pes() {
        let gen = Rmat::new(9, 2500).with_seed(12).with_chunks(6);
        let mut whole = Vec::new();
        gen.stream_all(&mut |u, v| whole.push((u, v)));
        let mut buf = Vec::new();
        let mut batched = Vec::new();
        gen.stream_all_batched(&mut buf, &mut |edges| batched.extend_from_slice(edges));
        assert_eq!(whole, batched);
    }

    #[test]
    fn stream_all_concatenates_pes() {
        let gen = GnmDirected::new(300, 2000).with_seed(3).with_chunks(5);
        let mut streamed = Vec::new();
        gen.stream_all(&mut |u, v| streamed.push((u, v)));
        let mut materialized = Vec::new();
        for pe in 0..5 {
            materialized.extend(gen.generate_pe(pe).edges);
        }
        assert_eq!(streamed, materialized);
        assert_eq!(gen.count_edges(), 2000);
    }

    /// A generator that supplies only the required method.
    struct Ramp;

    impl Generator for Ramp {
        fn num_vertices(&self) -> u64 {
            64
        }
        fn num_chunks(&self) -> usize {
            4
        }
        fn directed(&self) -> bool {
            true
        }
        fn generate_pe(&self, pe: usize) -> PeGraph {
            let mut out = PeGraph {
                pe,
                ..PeGraph::default()
            };
            self.stream_pe(pe, &mut |u, v| out.edges.push((u, v)));
            out
        }
    }

    impl StreamingGenerator for Ramp {
        fn stream_pe_batched(&self, pe: usize, buf: &mut Vec<(u64, u64)>, emit: &mut BatchEmit) {
            // PE 0 is empty; the others end on a ragged batch.
            Batcher::run(buf, emit, |b| {
                for i in 0..pe as u64 * 5 {
                    b.push(pe as u64, i);
                }
            });
        }
    }

    #[test]
    fn provided_adapters_equal_the_concatenated_batches() {
        let rmat = Rmat::new(9, 2500).with_seed(12).with_chunks(6);
        for gen in [&Ramp as &dyn StreamingGenerator, &rmat] {
            for cap in [1usize, 7, 0] {
                let mut buf = Vec::with_capacity(cap);
                let mut whole = Vec::new();
                for pe in 0..gen.num_chunks() {
                    let mut batched = Vec::new();
                    gen.stream_pe_batched(pe, &mut buf, &mut |edges| {
                        assert!(!edges.is_empty(), "empty batch emitted");
                        batched.extend_from_slice(edges);
                    });
                    let mut streamed = Vec::new();
                    gen.stream_pe(pe, &mut |u, v| streamed.push((u, v)));
                    assert_eq!(streamed, batched, "PE {pe} cap {cap}");
                    assert_eq!(gen.count_pe(pe), batched.len() as u64);
                    whole.extend(batched);
                }
                let mut all = Vec::new();
                gen.stream_all(&mut |u, v| all.push((u, v)));
                assert_eq!(all, whole, "cap {cap}");
                assert_eq!(gen.count_edges(), whole.len() as u64);
            }
        }
        assert_eq!(Ramp.count_edges(), 5 + 10 + 15);
    }

    #[test]
    fn trait_is_object_safe() {
        // The CLI streams through `&dyn StreamingGenerator`.
        let gen = Rmat::new(8, 500).with_seed(2).with_chunks(4);
        let dyn_gen: &dyn StreamingGenerator = &gen;
        assert_eq!(dyn_gen.count_edges(), 500);
        let mut count = 0u64;
        dyn_gen.stream_all(&mut |_, _| count += 1);
        assert_eq!(count, 500);
    }

    #[test]
    fn streaming_needs_no_edge_buffer() {
        // A "write-to-sink" consumer: peak allocation is the generator
        // state, demonstrated by only keeping a running checksum.
        let gen = GnmDirected::new(2000, 50_000).with_seed(9).with_chunks(4);
        let mut checksum = 0u64;
        let mut count = 0u64;
        for pe in 0..4 {
            gen.stream_pe(pe, &mut |u, v| {
                checksum = checksum.wrapping_mul(31).wrapping_add(u ^ v);
                count += 1;
            });
        }
        assert_eq!(count, 50_000);
        assert_ne!(checksum, 0);
    }
}

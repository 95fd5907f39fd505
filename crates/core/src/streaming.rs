//! Streaming edge output (§9 future work: "extend our remaining
//! generators to use a streaming approach … drastically reduce the memory
//! needed"), and the batching protocol every model's stream is written
//! against.
//!
//! [`Generator::stream_pe_batched`] is the one edge-delivery primitive
//! and the one method with edge code a model must write: a PE's edges
//! arrive as slices of a caller-provided batch buffer instead of a
//! materialized [`PeGraph`](crate::PeGraph), so a PE's memory footprint
//! is its generator state (cells, counts, PRNGs) plus one batch — not
//! its output. The whole-instance driver
//! [`Generator::stream_all_batched`] and the materialized
//! [`Generator::generate_pe`] are provided adapters over that one
//! method. For the index-based generators (ER, BA, R-MAT, SBM) the
//! state is O(log)-sized; for the spatial/hyperbolic family it
//! is what the cell structures of `kagen_geometry::cell_stream` hold:
//! the id prefixes of the PE's cells plus the sweep's frontier and the
//! halo ring (RGG) or one block of cells with its certified halo (RDG), the
//! sector plus its query halo, every touched cell generated once and
//! held (RHG/soft RHG, §7.1), or replicated globals plus the
//! active-request windows (sRHG).
//!
//! `generate_pe` returns exactly the stream's edge *set* for every
//! model, and for all but RDG and sRHG its *order* too (asserted in the
//! tests below and pinned by `tests/golden_streams.rs`): ER, BA, R-MAT,
//! SBM and RGG collect the stream, RHG and soft RHG run the stream's
//! own pass with a hook that records the coordinates (as RDG does, over
//! the chunk as one block).
//! RDG and sRHG stream in generation-sweep order (per cell / per
//! sweep annulus) and materialize sorted, because streaming the globally
//! sorted order would require buffering the very output the streaming
//! path exists to avoid.

use kagen_obs::Counter;

// The trait's former second name, from when streaming was an extension
// trait. It exists solely because `benchmark/src/{layers,workloads,
// kernels}.rs` import it from here and from the prelude, call
// `stream_pe_batched`/`stream_all_batched` through it, and the PR that
// merged the traits was not allowed to edit `benchmark/`. The next PR
// that may edit that directory ports those three files and deletes
// both alias lines.
pub use crate::Generator as StreamingGenerator;

/// Edges delivered by the generators (counted once per flushed batch).
static GEN_EDGES: Counter = Counter::new("gen.edges");
/// Batches flushed by the generators.
static GEN_BATCHES: Counter = Counter::new("gen.batches");

/// Default batch size (edges): large enough to amortize per-batch costs
/// (seed hashing, virtual dispatch, slice encoding), small enough to stay
/// L1/L2-resident (64 KiB of pairs).
pub const BATCH_EDGES: usize = 4096;

/// The slice-consumer side of [`Generator::stream_pe_batched`].
pub type BatchEmit<'a> = dyn FnMut(&[(u64, u64)]) + 'a;

/// The buffer-and-flush protocol, in one place: push edges, emit a full
/// slice whenever the buffer reaches its capacity, and emit the ragged
/// final slice at the end. The `push` call is concrete and inlined, so
/// generators streaming through a `Batcher` keep their monomorphized hot
/// loop.
pub(crate) struct Batcher<'a, 'e> {
    buf: &'a mut Vec<(u64, u64)>,
    emit: &'a mut BatchEmit<'e>,
    cap: usize,
}

impl Batcher<'_, '_> {
    /// Run `produce` against a batcher over `buf` (its capacity sets the
    /// batch size; reserved to [`BATCH_EDGES`] if empty), then flush the
    /// ragged tail.
    pub(crate) fn run(
        buf: &mut Vec<(u64, u64)>,
        emit: &mut BatchEmit,
        produce: impl FnOnce(&mut Batcher),
    ) {
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
    pub(crate) fn push(&mut self, u: u64, v: u64) {
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

/// Shared driver for range-fill generators (R-MAT, BA, and the Graph 500
/// baseline): carve the index range into capacity-sized sub-ranges, let
/// `fill` append each one to the buffer, emit every full buffer.
pub fn fill_range_batched(
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    /// PE `pe`'s stream through a batch buffer of capacity `cap` (0: the
    /// default), collected.
    fn pe_stream<G: Generator + ?Sized>(gen: &G, pe: usize, cap: usize) -> Vec<(u64, u64)> {
        let mut edges = Vec::new();
        gen.stream_pe_batched(pe, &mut Vec::with_capacity(cap), &mut |batch| {
            edges.extend_from_slice(batch)
        });
        edges
    }

    /// Every PE's stream in PE order, through `stream_all_batched`.
    fn whole_stream<G: Generator + ?Sized>(gen: &G) -> Vec<(u64, u64)> {
        let mut edges = Vec::new();
        gen.stream_all_batched(&mut Vec::new(), &mut |batch| edges.extend_from_slice(batch));
        edges
    }

    /// `generate_pe`'s edge list equals the stream, order included.
    /// For ER, BA, R-MAT, SBM and RGG `generate_pe` is the provided
    /// collect, so this proves batch-capacity independence (capacity 7
    /// and one edge per batch vs the default the collect uses); for RHG
    /// and soft RHG it compares two engines.
    fn assert_stream_matches<G: Generator>(gen: &G) {
        for pe in 0..gen.num_chunks().min(5) {
            let materialized = gen.generate_pe(pe).edges;
            assert_eq!(materialized, pe_stream(gen, pe, 1), "PE {pe}");
        }
        assert_batched_matches(gen);
    }

    /// Like [`assert_stream_matches`], for generators whose native
    /// stream order is the generation sweep, not `generate_pe`'s sorted
    /// list: the streams must be equal as *sets* (and duplicate-free),
    /// and every batch capacity must give the same stream exactly. For
    /// RDG this compares one engine at two box sizes (the chunk vs blocks
    /// of cells), for sRHG the sweep with itself sorted.
    fn assert_stream_set_matches<G: Generator>(gen: &G) {
        for pe in 0..gen.num_chunks().min(5) {
            let materialized = gen.generate_pe(pe).edges;
            let streamed = pe_stream(gen, pe, 1);
            let mut sorted = streamed.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), streamed.len(), "PE {pe}: duplicate edges");
            let mut reference = materialized;
            reference.sort_unstable();
            assert_eq!(reference, sorted, "PE {pe}: edge sets differ");
            // Another batch capacity must reproduce the stream
            // edge-for-edge (order included).
            assert_eq!(
                streamed,
                pe_stream(gen, pe, 7),
                "PE {pe}: batched order differs"
            );
        }
    }

    /// The batched path must yield edge-for-edge the same stream as
    /// `generate_pe`, for every PE and any batch capacity.
    fn assert_batched_matches<G: Generator + ?Sized>(gen: &G) {
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
        let collect = |gen: &dyn Generator| {
            let mut edges: Vec<_> = whole_stream(gen)
                .into_iter()
                .map(|(u, v)| (u.min(v), u.max(v)))
                .collect();
            edges.sort_unstable();
            edges.dedup();
            edges
        };
        assert_eq!(collect(&rhg), collect(&srhg));
    }

    #[test]
    fn stream_all_batched_concatenates_pes() {
        let gen = Rmat::new(9, 2500).with_seed(12).with_chunks(6);
        let per_pe: Vec<_> = (0..6).flat_map(|pe| pe_stream(&gen, pe, 1)).collect();
        assert_eq!(whole_stream(&gen), per_pe);
    }

    #[test]
    fn stream_all_concatenates_pes() {
        let gen = GnmDirected::new(300, 2000).with_seed(3).with_chunks(5);
        let streamed = whole_stream(&gen);
        let mut materialized = Vec::new();
        for pe in 0..5 {
            materialized.extend(gen.generate_pe(pe).edges);
        }
        assert_eq!(streamed, materialized);
        assert_eq!(streamed.len(), 2000);
    }

    /// A generator that supplies only the four required methods.
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
        for gen in [&Ramp as &dyn Generator, &rmat] {
            for cap in [1usize, 7, 0] {
                let mut buf = Vec::with_capacity(cap);
                let mut whole = Vec::new();
                for pe in 0..gen.num_chunks() {
                    let mut batched = Vec::new();
                    gen.stream_pe_batched(pe, &mut buf, &mut |edges| {
                        assert!(!edges.is_empty(), "empty batch emitted");
                        batched.extend_from_slice(edges);
                    });
                    let part = gen.generate_pe(pe);
                    assert_eq!((part.pe, &part.edges), (pe, &batched), "cap {cap}");
                    whole.extend(batched);
                }
                assert_eq!(whole_stream(gen), whole, "cap {cap}");
            }
        }
        assert_eq!(whole_stream(&Ramp).len(), 5 + 10 + 15);
        // No `pe_vertices` override: the empty range, no coordinates.
        let part = Ramp.generate_pe(3);
        assert_eq!((part.vertex_begin, part.vertex_end), (0, 0));
        assert!(part.coords2.is_empty() && part.coords3.is_empty());
    }

    #[test]
    fn trait_is_object_safe() {
        // The CLI holds a `Box<dyn Generator>`: it streams through it
        // and `run_materialized` calls `generate_pe` through it.
        let dyn_gen: Box<dyn Generator> = Box::new(Rmat::new(8, 500).with_seed(2).with_chunks(4));
        assert_eq!(whole_stream(dyn_gen.as_ref()).len(), 500);
        let parts = crate::generate_parallel(dyn_gen.as_ref(), 1);
        assert_eq!(parts.iter().map(|p| p.edges.len()).sum::<usize>(), 500);
        let ramp: Box<dyn Generator> = Box::new(Ramp);
        assert_eq!(ramp.generate_pe(2).edges.len(), 10);
    }

    #[test]
    fn streaming_needs_no_edge_buffer() {
        // A "write-to-sink" consumer: peak allocation is the generator
        // state, demonstrated by only keeping a running checksum.
        let gen = GnmDirected::new(2000, 50_000).with_seed(9).with_chunks(4);
        let mut checksum = 0u64;
        let mut count = 0u64;
        for pe in 0..4 {
            gen.stream_pe_batched(pe, &mut Vec::new(), &mut |edges| {
                for &(u, v) in edges {
                    checksum = checksum.wrapping_mul(31).wrapping_add(u ^ v);
                    count += 1;
                }
            });
        }
        assert_eq!(count, 50_000);
        assert_ne!(checksum, 0);
    }
}

//! # kagen-core
//!
//! The paper's contribution: communication-free distributed graph
//! generators.
//!
//! Every generator implements the one trait [`Generator`]: the instance
//! is fully defined by its parameters plus a seed, and the part of it
//! belonging to logical PE `pe` — all edges incident to the PE's local
//! vertices — is a pure function of `(parameters, seed, pe)`. PEs never
//! communicate; overlap regions are recomputed deterministically through
//! seed derivation (see `kagen-util::seed`).
//!
//! A model supplies four methods: `num_vertices`, `num_chunks`,
//! `directed` and the batched stream
//! [`stream_pe_batched`](Generator::stream_pe_batched) (see
//! [`streaming`]). Everything else is provided over the stream: per-edge
//! delivery, counting, the whole-instance drivers, and
//! [`generate_pe`](Generator::generate_pe), which collects the PE's
//! batches into a [`PeGraph`] and takes the vertex range and coordinates
//! from [`pe_vertices`](Generator::pe_vertices). [`Rhg`], [`SoftRhg`]
//! and RDG override it to run their one engine's pass with a hook that
//! records the coordinates (the provided collect would generate the
//! PE's points twice) — RDG with the chunk as its one block, because a
//! block pays for its halo and `generate_pe` holds the chunk anyway
//! (README "Memory model" has the table), and sorted — and [`Srhg`] to
//! return its sweep sorted. For every other model `generate_pe` *is*
//! the stream, collected.
//!
//! | Model | Type | Paper section |
//! |-------|------|---------------|
//! | [`GnmDirected`], [`GnmUndirected`] | Erdős–Rényi G(n,m) | §4.1, §4.2 |
//! | [`GnpDirected`], [`GnpUndirected`] | Gilbert G(n,p) | §4.3 |
//! | [`Rgg2d`], [`Rgg3d`] | random geometric | §5 |
//! | [`Rdg2d`], [`Rdg3d`] | random Delaunay (torus) | §6 |
//! | [`Rhg`] | random hyperbolic, query-centric | §7.1 |
//! | [`Srhg`] | random hyperbolic, streaming | §7.2 |
//! | [`SoftRhg`] | binomial/probabilistic hyperbolic | §9 (future work) |
//! | [`BarabasiAlbert`] | preferential attachment | §3.5.1 |
//! | [`Rmat`] | recursive matrix (baseline) | §3.5.2 |

pub mod ba;
pub mod er;
pub mod rdg;
pub mod rgg;
pub mod rhg;
pub mod rmat;
pub mod sbm;
pub mod srhg;
pub mod streaming;

use kagen_graph::EdgeList;
use streaming::BatchEmit;

/// Per-PE output: the subgraph a single processing element generates.
#[derive(Clone, Debug, Default)]
pub struct PeGraph {
    /// The PE index this output belongs to.
    pub pe: usize,
    /// Local vertex id range `[vertex_begin, vertex_end)` for generators
    /// with contiguous ownership; spatial generators list ids in `coords*`.
    pub vertex_begin: u64,
    /// End of the local vertex range (exclusive).
    pub vertex_end: u64,
    /// All edges incident to local vertices (directed generators: exactly
    /// the locally-owned edges; undirected: cross-PE edges appear on both
    /// owning PEs and deduplicate on merge).
    pub edges: Vec<(u64, u64)>,
    /// 2D coordinates of local vertices (spatial generators).
    pub coords2: Vec<(u64, [f64; 2])>,
    /// 3D coordinates of local vertices (spatial generators).
    pub coords3: Vec<(u64, [f64; 3])>,
}

/// A communication-free graph generator. Implementors supply the three
/// instance facts and [`stream_pe_batched`](Self::stream_pe_batched);
/// everything else is an adapter over that stream.
pub trait Generator: Sync {
    /// Total number of vertices of the instance.
    fn num_vertices(&self) -> u64;
    /// Number of logical PEs (chunks) the instance is divided into.
    fn num_chunks(&self) -> usize;
    /// Whether emitted edges are directed.
    fn directed(&self) -> bool;

    /// Emit every edge PE `pe` is responsible for — a pure function of
    /// `(parameters, seed, pe)`, in a deterministic order that is stable
    /// across thread counts and batch sizes — as non-empty slices. `buf`
    /// is a caller-provided scratch buffer (its capacity sets the batch
    /// size; reserved to [`BATCH_EDGES`](streaming::BATCH_EDGES) if
    /// empty) and `emit` receives each filled slice. The concatenation
    /// of all slices is the PE's stream: the batch size changes delivery
    /// granularity, never the instance.
    fn stream_pe_batched(&self, pe: usize, buf: &mut Vec<(u64, u64)>, emit: &mut BatchEmit);

    /// PE `pe`'s local vertices — id range and, for the spatial models,
    /// coordinates — as a [`PeGraph`] without edges. Models with no
    /// contiguous ownership keep the default empty range.
    fn pe_vertices(&self, pe: usize) -> PeGraph {
        PeGraph {
            pe,
            ..PeGraph::default()
        }
    }

    /// PE `pe`'s part of the instance, materialized: its vertices plus
    /// its stream collected in order. RHG, soft RHG and RDG override
    /// this with their stream's pass plus a coordinate hook (RDG's over
    /// the whole chunk as one block, sorted), and sRHG sorts its sweep
    /// — see the crate docs for why those stay.
    fn generate_pe(&self, pe: usize) -> PeGraph {
        let mut out = self.pe_vertices(pe);
        self.stream_pe_batched(pe, &mut Vec::new(), &mut |edges| {
            out.edges.extend_from_slice(edges)
        });
        out
    }

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

/// Part `i` of `total` items split into `parts` contiguous, balanced
/// parts: `⌊total · i / parts⌋ .. ⌊total · (i + 1) / parts⌋`. The
/// products are taken in `u128`: `total · i` passes 2^64 from
/// `total · parts ≥ 2^64` on (n = 2^61 at 2^40 PEs), and a release build
/// would wrap it silently.
#[inline]
pub fn even_split(total: u64, parts: usize, i: usize) -> std::ops::Range<u64> {
    debug_assert!(i < parts);
    let begin = |i: usize| (total as u128 * i as u128 / parts as u128) as u64;
    begin(i)..begin(i + 1)
}

/// Run all PEs of a generator on `threads` worker threads.
pub fn generate_parallel<G: Generator + ?Sized>(gen: &G, threads: usize) -> Vec<PeGraph> {
    kagen_runtime::run_chunks(gen.num_chunks(), threads, |pe| gen.generate_pe(pe))
}

/// Generate every PE on `threads` worker threads (0 = all cores) and
/// merge into the canonical instance. Undirected: cross-PE duplicates
/// removed. Directed: edges concatenated and sorted (PEs own disjoint
/// edge sets, so no deduplication is involved).
pub fn generate_merged<G: Generator + ?Sized>(gen: &G, threads: usize) -> EdgeList {
    let parts = generate_parallel(gen, threads);
    if gen.directed() {
        let mut edges: Vec<(u64, u64)> = parts.into_iter().flat_map(|p| p.edges).collect();
        edges.sort_unstable();
        EdgeList::new(gen.num_vertices(), edges)
    } else {
        kagen_graph::merge_pe_edges(gen.num_vertices(), parts.into_iter().map(|p| p.edges))
    }
}

/// [`generate_merged`] on all cores, for an undirected generator.
pub fn generate_undirected<G: Generator + ?Sized>(gen: &G) -> EdgeList {
    assert!(!gen.directed());
    generate_merged(gen, 0)
}

/// [`generate_merged`] on all cores, for a directed generator.
pub fn generate_directed<G: Generator + ?Sized>(gen: &G) -> EdgeList {
    assert!(gen.directed());
    generate_merged(gen, 0)
}

/// Convenient re-exports.
pub mod prelude {
    pub use crate::ba::BarabasiAlbert;
    pub use crate::er::{GnmDirected, GnmUndirected, GnpDirected, GnpLeaves, GnpUndirected};
    pub use crate::rdg::{Rdg2d, Rdg3d};
    pub use crate::rgg::{Rgg2d, Rgg3d};
    pub use crate::rhg::{Rhg, SoftRhg};
    pub use crate::rmat::{Rmat, RmatKernel};
    pub use crate::sbm::StochasticBlockModel;
    pub use crate::srhg::Srhg;
    pub use crate::{
        generate_directed, generate_merged, generate_parallel, generate_undirected, Generator,
        PeGraph,
    };
    // The trait's former second name; `streaming` says why the alias
    // exists and when it goes.
    pub use crate::Generator as StreamingGenerator;
}

pub use prelude::*;

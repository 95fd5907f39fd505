//! # kagen-baselines
//!
//! Rust reimplementations of the competitors the paper evaluates against.
//! Each preserves the *algorithmic shape* that drives its cost profile:
//!
//! * [`boost_er`] — Boost-style sequential Erdős–Rényi generator: skip
//!   sampling that *builds an adjacency-list graph structure*, hence the
//!   n-dependent running time visible in Fig. 6;
//! * [`holtgrewe_rgg`] — the communicating distributed RGG generator of
//!   Holtgrewe et al.: random points, redistribution to cell owners and a
//!   border-halo exchange over channels (O(n/P) communication volume —
//!   the cost KaGen eliminates, Fig. 9);
//! * [`nkgen_rhg`] — NkGen-style query-centric RHG: per-query live
//!   trigonometry, binary searches in sorted annuli, unstructured memory
//!   access (the slowest series of Fig. 14);
//! * [`hypergen_rhg`] — HyperGen-style streaming RHG: request sweep with a
//!   per-event priority queue, *without* the cell batching of sRHG.

pub mod boost_er;
pub mod holtgrewe_rgg;
pub mod hypergen_rhg;
pub mod nkgen_rhg;

pub use boost_er::{boost_gnm_directed, boost_gnm_undirected};
pub use holtgrewe_rgg::HoltgreweRgg;
pub use hypergen_rhg::hypergen_edges;
pub use nkgen_rhg::nkgen_edges;

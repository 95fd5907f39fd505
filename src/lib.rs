//! # kagen-repro — umbrella crate
//!
//! Re-exports the whole workspace under one roof so examples, integration
//! tests and downstream users can depend on a single crate.
//!
//! This library is a from-scratch Rust reproduction of
//! *"Communication-free Massively Distributed Graph Generation"*
//! (Funke et al., IPDPS 2018 / arXiv:1710.07565): scalable generators for
//! Erdős–Rényi graphs (G(n,m), G(n,p), directed and undirected), random
//! geometric graphs (2D/3D), random Delaunay graphs (2D/3D), random
//! hyperbolic graphs (query-centric and streaming), Barabási–Albert graphs and
//! R-MAT graphs — all *communication-free*: each processing element derives
//! its share of one well-defined random instance purely from the seed.
//!
//! ## Quickstart
//!
//! ```
//! use kagen_repro::prelude::*;
//!
//! // An undirected Erdős–Rényi graph with 1000 vertices and 5000 edges,
//! // generated in 8 independent chunks (e.g. one per PE).
//! let gen = GnmUndirected::new(1000, 5000).with_seed(42).with_chunks(8);
//! let graph = generate_undirected(&gen);
//! assert_eq!(graph.edges.len(), 5000);
//! ```

pub mod cli;

pub use kagen_baselines as baselines;
pub use kagen_cluster as cluster;
pub use kagen_core as core;
pub use kagen_delaunay as delaunay;
pub use kagen_dist as dist;
pub use kagen_geometry as geometry;
pub use kagen_graph as graph;
pub use kagen_obs as obs;
pub use kagen_pipeline as pipeline;
pub use kagen_runtime as runtime;
pub use kagen_sampling as sampling;
pub use kagen_stats as stats;
pub use kagen_util as util;

/// The most common imports in one place.
pub mod prelude {
    pub use kagen_core::prelude::*;
    pub use kagen_graph::{Csr, EdgeList};
    pub use kagen_util::{Mt64, Rng64};
}

//! # kagen-util
//!
//! Foundation utilities for the KaGen reproduction: pseudorandomization
//! primitives that every generator builds on.
//!
//! The paper's communication-free paradigm rests on one idea: every random
//! decision is made by a PRNG whose seed is a *hash of the decision's
//! identity* (a recursion-tree node id, a chunk id, a cell id, ...) combined
//! with the global instance seed. Any PE that needs the same decision
//! recomputes the same hash, seeds the same PRNG and obtains the same value —
//! without communication.
//!
//! This crate provides, implemented from scratch:
//!
//! * [`hash`] — SpookyHash V2 (the hash function used by the reference
//!   KaGen implementation),
//! * [`morton`] — Z-order (Morton) bit interleaving in 2 and 3
//!   dimensions: the cell order of the spatial grids and the insertion
//!   order of the Delaunay triangulator,
//! * [`mt`] — the MT19937-64 Mersenne Twister (the reference PRNG),
//! * [`splitmix`] — SplitMix64, a cheap statistically-strong mixer used for
//!   per-position randomness (e.g. the Barabási–Albert edge chains),
//! * [`rng`] — the [`rng::Rng64`] trait with unbiased bounded
//!   sampling and float conversion helpers,
//! * [`seed`] — the seed-derivation scheme tying it all together.

pub mod alloc;
pub mod cache;
pub mod hash;
pub mod morton;
pub mod mt;
pub mod rng;
pub mod seed;
pub mod splitmix;

pub use cache::l2_cache_bytes;
pub use hash::spooky_short128;
pub use mt::Mt64;
pub use rng::{f64_open_of_word, BlockRng, Rng64};
pub use seed::{derive_seed, rng_at, SeedTree};
pub use splitmix::SplitMix64;

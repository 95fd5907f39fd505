//! # kagen-sampling
//!
//! Sampling algorithms underlying all KaGen generators.
//!
//! Every Erdős–Rényi-family leaf — a G(n,m) block, a G(n,p) block or
//! chunk, an SBM piece — is drawn by **one leaf
//! sampler**, [`sample_leaf`], with two arms: exactly `k` offsets
//! ([`sample_sorted_batched`]: Vitter's Method A or D) or each offset
//! with probability `p` ([`bernoulli_sample_batched`]: geometric skips).
//! [`sample_sorted`] and [`bernoulli_sample`] are the per-draw references
//! the batched arms are tested against, and what the Boost-style
//! baseline runs.
//!
//! * [`vitter`] — sequential sampling without replacement in sorted order:
//!   Vitter's Algorithm A (linear scan) and Algorithm D (skip-based,
//!   expected O(k) for k samples) [Vitter 1987].
//! * [`skip`] — Bernoulli sampling with geometric skips (Batagelj–Brandes).
//! * [`distributed`] — the divide-and-conquer sampler of Sanders et al.
//!   \[18\]: the universe is split into blocks, sample counts per block are
//!   derived by recursive hypergeometric splitting with subtree-seeded
//!   PRNGs, and each block is one leaf. Any PE can compute the counts and
//!   samples of any block range *without communication*, and all PEs
//!   agree bit-for-bit.

pub mod distributed;
pub mod skip;
pub mod vitter;

pub use distributed::DistributedSampler;
pub use skip::{bernoulli_sample, bernoulli_sample_batched};
pub use vitter::{sample_sorted, sample_sorted_batched, vitter_a, vitter_d};

use kagen_util::Mt64;

/// Which offsets of a leaf to take.
#[derive(Clone, Copy, Debug)]
pub enum Take {
    /// Exactly `k` distinct offsets, uniformly (Method A or D).
    Exact(u64),
    /// Every offset independently with probability `p` (geometric skips).
    Bernoulli(f64),
}

/// The one leaf sampler: emit the offsets `take` draws from `[0, len)`,
/// in increasing order, from an `Mt64` seeded with the caller's leaf
/// seed. `Exact(0)` returns before anything is seeded — nothing would
/// be emitted and no draw observed, so skipping the PRNG moves no byte.
/// The PRNG lives only for this call, so the batched arms' read-ahead is
/// never observed.
#[inline]
pub fn sample_leaf(seed: u64, len: u64, take: Take, emit: &mut impl FnMut(u64)) {
    match take {
        Take::Exact(0) => {}
        Take::Exact(k) => sample_sorted_batched(&mut Mt64::new(seed), len, k, emit),
        Take::Bernoulli(p) => bernoulli_sample_batched(&mut Mt64::new(seed), len, p, &mut |idxs| {
            for &i in idxs {
                emit(i);
            }
        }),
    }
}

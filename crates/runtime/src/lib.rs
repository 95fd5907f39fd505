//! # kagen-runtime
//!
//! The processing-element (PE) execution model.
//!
//! The paper runs one MPI rank per core on SuperMUC. Because the KaGen
//! generators are *communication-free*, a PE's output is a pure function of
//! `(seed, params, pe id)` — so logical PEs can be executed as tasks on a
//! shared-memory thread pool and the code path is identical to what MPI
//! ranks would run (`kagen launch` runs it as processes: README,
//! "Distributed runs").
//!
//! * [`pe`] — [`run_chunks`] runs `k` logical PEs on `t` scoped threads
//!   that take PEs off one shared cursor; it is the workspace's one PE
//!   pool. [`split_ranges`] is the rank plan shared with the
//!   multi-process `kagen_cluster` launcher, and [`run_rank_ranges`]
//!   executes it in-process on the same pool (one task per rank range
//!   instead of per PE). The launcher runs on it too: its rank
//!   supervision (one item per rank, retried in place by the slot that
//!   ran it) and its shard validation (one item per shard).
//! * [`comm`] — a channel-based all-to-all communicator with volume
//!   accounting, used **only** by the communicating Holtgrewe baseline
//!   (the point of the paper is to not need this).

pub mod comm;
pub mod pe;

pub use comm::Communicator;
pub use pe::{run_chunks, run_rank_ranges, split_ranges};

//! # kagen-gpgpu
//!
//! A simulated GPGPU accelerator and the paper's GPGPU adaptations of the
//! KaGen generators (§2.3, §4.3.1, §5.3).
//!
//! The paper describes an accelerator model in which "computations are
//! organized in blocks of threads. All threads of a block have access to
//! some common memory block [...]. Blocks, on the other hand, are scheduled
//! independent from each other and have no means of synchronization or
//! communication. The threads of a block are processed in a SIMD-style
//! manner" (§2.3). No GPU is available in this reproduction environment, so
//! this crate implements that *execution model* as a simulation:
//!
//! * [`device`] — a [`device::Device`] executes kernels as a grid
//!   of independent blocks on the rayon pool (blocks never communicate,
//!   mirroring CUDA semantics); inside a block, work items advance in
//!   warp-sized lockstep groups, with branch divergence and global-memory
//!   traffic accounted in [`device::DeviceStats`].
//! * [`scan`] — device-side exclusive prefix sum (the reduce–scan–downsweep
//!   three-kernel scheme every GPU edge-output pipeline relies on, §5.3
//!   step 2).
//! * [`er`] — §4.3.1: the CPU computes chunk sample sizes and PRNG seeds;
//!   the device samples the edges. Output is bit-identical to the CPU
//!   [`kagen_core::GnmDirected`]/[`kagen_core::GnpDirected`] generators.
//! * [`rgg`] — §5.3: per-cell point sampling (big cells get a block of
//!   their own, small cells are grouped), then the three-step
//!   count → prefix-sum → fill edge generation into a preallocated edge
//!   array. Output is identical to the CPU [`kagen_core::Rgg2d`].
//! * [`rmat`] — the linear-work composed-table R-MAT kernel: one device
//!   block per seed block of edge indices, bit-identical to
//!   [`kagen_core::Rmat`] for every descent kernel.
//! * [`ba`] — Barabási–Albert chain recomputation per slot block, with
//!   the chains' variable length surfacing as warp divergence;
//!   bit-identical to [`kagen_core::BarabasiAlbert`].
//!
//! Because the simulation executes the same arithmetic as the CPU path,
//! the value of this crate is *structural*: it demonstrates (and tests)
//! that the communication-free decomposition maps onto an accelerator's
//! block model exactly as §4.3.1/§5.3 claim — chunk seeds and counts are
//! computed host-side, bulk sampling is embarrassingly block-parallel, and
//! edge output needs only a prefix sum, never inter-block communication.

pub mod ba;
pub mod device;
pub mod er;
pub mod rgg;
pub mod rmat;
pub mod scan;

pub use ba::GpuBarabasiAlbert;
pub use device::{Device, DeviceConfig, DeviceStats, StatsSnapshot};
pub use er::{GpuGnmDirected, GpuGnpDirected};
pub use rgg::{GpuRgg, GpuRgg2d, GpuRgg3d};
pub use rmat::GpuRmat;
pub use scan::exclusive_scan;

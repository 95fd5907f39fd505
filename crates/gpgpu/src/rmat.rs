//! GPGPU R-MAT generation — the linear-work kernel on the device.
//!
//! R-MAT is embarrassingly edge-parallel: every edge is a pure function of
//! `(instance seed, edge index)`, so the host only plans the grid — one
//! device block per [`kagen_core::rmat::SEED_BLOCK_EDGES`]-aligned slice of
//! the edge-index range, matching the per-block hashed reseed of the CPU
//! fill — and each block runs the same composed-table descent the CPU
//! kernel runs. Randomness is derived from decision identities, never from
//! execution order, so the concatenated device output is **bit-identical**
//! to [`kagen_core::Rmat::fill_edges`] for both kernels
//! ([`RmatKernel::Plain`], [`RmatKernel::Linear`]) — asserted in tests and
//! smoked via `cmp` in CI.
//!
//! Device model notes: the composed alias table is built host-side once
//! and shared read-only by all blocks (on a real GPU it would live in
//! constant/L2 memory — it is L2-cache-sized by construction). Each draw
//! reads one 8-byte alias slot; each edge writes 16 bytes; the descent has
//! no data-dependent branching, so warps never diverge.

use crate::device::Device;
use kagen_core::rmat::SEED_BLOCK_EDGES;
use kagen_core::{Rmat, RmatKernel};

/// R-MAT on the simulated device, bit-identical to the CPU [`Rmat`].
#[derive(Clone, Debug)]
pub struct GpuRmat {
    inner: Rmat,
    m: u64,
}

impl GpuRmat {
    /// `n = 2^scale` vertices, `m` edges, Graph 500 probabilities, the
    /// linear-work kernel with `levels` path-block levels.
    pub fn new(scale: u32, m: u64, levels: u32) -> Self {
        Self::from_generator(Rmat::new(scale, m).with_kernel(RmatKernel::Linear { levels }))
    }

    /// Wrap an already-configured CPU generator (any kernel, seed,
    /// probabilities): the device reproduces exactly that instance.
    pub fn from_generator(inner: Rmat) -> Self {
        let m = inner.num_edges();
        GpuRmat { inner, m }
    }

    /// Set the instance seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.inner = self.inner.with_seed(seed);
        self
    }

    /// Generate the whole instance on `dev`, in edge-index order — the
    /// byte-identical device twin of `fill_edges(0..m)`.
    pub fn generate(&self, dev: &Device) -> Vec<(u64, u64)> {
        // Host: grid planning only. One device block per seed block of
        // edge indices (the reseed granularity of the CPU fill).
        let jobs: Vec<(u64, u64)> = (0..self.m.div_ceil(SEED_BLOCK_EDGES))
            .map(|b| {
                let lo = b * SEED_BLOCK_EDGES;
                (lo, (lo + SEED_BLOCK_EDGES).min(self.m))
            })
            .collect();
        let inner = &self.inner;
        let draw_bytes = match inner.kernel() {
            // One fused 8-byte alias slot per table draw, remainder draw
            // included: ⌈scale/levels⌉ draws per edge.
            RmatKernel::Linear { levels } => 8 * inner.scale().div_ceil(levels) as usize,
            RmatKernel::Plain => 0,
        };
        let per_block: Vec<Vec<(u64, u64)>> = dev.launch(jobs, move |ctx, (lo, hi)| {
            let mut out = Vec::with_capacity((hi - lo) as usize);
            inner.fill_edges(lo..hi, &mut out);
            // Lockstep accounting: one lane per edge, no divergence (the
            // descent is branchless), table reads + the 16-byte store.
            ctx.simd_for(out.len(), |_| true);
            ctx.gmem_read(out.len() * draw_bytes);
            ctx.gmem_write(out.len() * 16);
            out
        });
        per_block.concat()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceConfig;

    fn device_matches_cpu(gen: Rmat) {
        let dev = Device::new(DeviceConfig::default());
        let gpu = GpuRmat::from_generator(gen.clone()).generate(&dev);
        let mut cpu = Vec::new();
        gen.fill_edges(0..gen.num_edges(), &mut cpu);
        assert_eq!(gpu, cpu, "device stream must be bit-identical");
        assert!(dev.stats().blocks_executed > 0);
    }

    #[test]
    fn linear_kernel_bit_identical() {
        device_matches_cpu(
            Rmat::new(20, 3 * SEED_BLOCK_EDGES + 17)
                .with_seed(11)
                .with_kernel(RmatKernel::Linear { levels: 8 }),
        );
    }

    #[test]
    fn linear_kernel_bit_identical_large_scale() {
        device_matches_cpu(
            Rmat::new(34, SEED_BLOCK_EDGES + 5)
                .with_seed(3)
                .with_kernel(RmatKernel::Linear { levels: 7 }),
        );
    }

    #[test]
    fn plain_and_table_kernels_bit_identical() {
        device_matches_cpu(Rmat::new(12, 2 * SEED_BLOCK_EDGES).with_seed(7));
        // 5 ∤ 12: the final composed-table draw is truncated.
        device_matches_cpu(
            Rmat::new(12, 2 * SEED_BLOCK_EDGES)
                .with_seed(7)
                .with_kernel(RmatKernel::Linear { levels: 5 }),
        );
    }

    #[test]
    fn accounts_table_reads() {
        let dev = Device::new(DeviceConfig::default());
        let m = SEED_BLOCK_EDGES;
        GpuRmat::new(20, m, 8).with_seed(1).generate(&dev);
        let s = dev.stats();
        // 20 levels / 8 per draw → 3 draws of 8 bytes per edge.
        assert_eq!(s.gmem_read, m * 24);
        assert_eq!(s.gmem_write, m * 16);
    }
}

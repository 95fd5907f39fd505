//! GPGPU Erdős–Rényi generation (§4.3.1).
//!
//! "Since the ER generators are a direct application of sampling, the
//! GPGPU implementation from \[18\] can be used \[...\] each PE is assigned a
//! chunk and computes the correct sample size and seeds for the
//! pseudorandom generator on the CPU and then invokes the GPGPU algorithm
//! to sample the edges of the graph."
//!
//! The host side therefore asks the CPU generator for its leaf plan —
//! for G(n,m) the divide-and-conquer count recursion (hypergeometric
//! splits), for G(n,p) just the number of leaf blocks — and hands each
//! leaf block to one device block, which runs the CPU generator's own
//! leaf ([`GnmDirected::leaf`], [`GnpDirected::leaf`]: Method D for
//! G(n,m), geometric skips for G(n,p)). The device output is therefore
//! **bit-identical** to [`GnmDirected`] / [`GnpDirected`] — asserted in
//! tests.

use crate::device::{BlockCtx, Device};
use kagen_core::{GnmDirected, GnpDirected};

/// Directed G(n,m) on the simulated device.
#[derive(Clone, Debug)]
pub struct GpuGnmDirected {
    n: u64,
    m: u64,
    seed: u64,
}

impl GpuGnmDirected {
    /// `n` vertices, exactly `m` directed edges.
    pub fn new(n: u64, m: u64) -> Self {
        let universe = (n as u128) * (n as u128).saturating_sub(1);
        assert!((m as u128) <= universe, "m exceeds the directed universe");
        GpuGnmDirected { n, m, seed: 1 }
    }

    /// Set the instance seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generate the whole instance on `dev`; edges are returned in global
    /// index order (the concatenation of the sorted per-block samples).
    pub fn generate(&self, dev: &Device) -> Vec<(u64, u64)> {
        let cpu = GnmDirected::new(self.n, self.m).with_seed(self.seed);
        let Some(sampler) = cpu.sampler() else {
            return Vec::new();
        };
        // Host: the count recursion, down to the leaves that hold edges.
        let mut jobs: Vec<(u64, u64)> = Vec::new();
        sampler.for_block_counts(0, sampler.blocks(), &mut |block, count| {
            jobs.push((block, count))
        });
        // Device: one block per leaf.
        let per_block = dev.launch(jobs, |ctx, (block, count)| {
            let mut out = Vec::with_capacity(count as usize);
            cpu.leaf(&sampler, block, count, &mut |u, v| out.push((u, v)));
            store(ctx, out)
        });
        per_block.concat()
    }
}

/// Lockstep accounting of a device block's edges: each is one lane of
/// work ending in a 16-byte global-memory store.
fn store(ctx: &mut BlockCtx, out: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    ctx.simd_for(out.len(), |_| true);
    ctx.gmem_write(out.len() * 16);
    out
}

/// Directed G(n,p) on the simulated device.
#[derive(Clone, Debug)]
pub struct GpuGnpDirected {
    n: u64,
    p: f64,
    seed: u64,
}

impl GpuGnpDirected {
    /// `n` vertices, each ordered pair kept with probability `p`.
    pub fn new(n: u64, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be in [0,1]");
        GpuGnpDirected { n, p, seed: 1 }
    }

    /// Set the instance seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generate the whole instance on `dev` (global index order).
    pub fn generate(&self, dev: &Device) -> Vec<(u64, u64)> {
        let cpu = GnpDirected::new(self.n, self.p).with_seed(self.seed);
        // Host: the leaf decomposition only — geometric skip sampling
        // needs no predetermined counts, each device block draws its own
        // skips from the leaf-seeded PRNG (the chunk distribution stays
        // "predetermined" in the §4.3 sense: it is a pure function of
        // the leaf id).
        let blocks = cpu.blocks();
        let per_block = dev.launch((0..blocks).collect(), |ctx, b| {
            let mut out = Vec::new();
            cpu.leaf(blocks, b, &mut |u, v| out.push((u, v)));
            store(ctx, out)
        });
        per_block.concat()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kagen_core::generate_directed;

    #[test]
    fn gnm_bit_identical_to_cpu() {
        for &(n, m, seed) in &[(100u64, 800u64, 1u64), (500, 20_000, 7), (64, 64 * 63, 3)] {
            let dev = Device::default();
            let mut gpu = GpuGnmDirected::new(n, m).with_seed(seed).generate(&dev);
            let cpu = generate_directed(&GnmDirected::new(n, m).with_seed(seed));
            gpu.sort_unstable();
            assert_eq!(gpu, cpu.edges, "n={n} m={m} seed={seed}");
        }
    }

    #[test]
    fn gnp_bit_identical_to_cpu() {
        for &(n, p, seed) in &[(300u64, 0.01f64, 2u64), (100, 0.3, 9)] {
            let dev = Device::default();
            let mut gpu = GpuGnpDirected::new(n, p).with_seed(seed).generate(&dev);
            let cpu = generate_directed(&GnpDirected::new(n, p).with_seed(seed));
            gpu.sort_unstable();
            assert_eq!(gpu, cpu.edges, "n={n} p={p} seed={seed}");
        }
    }

    #[test]
    fn gnm_exact_count_and_write_volume() {
        let dev = Device::default();
        let edges = GpuGnmDirected::new(400, 5000).with_seed(4).generate(&dev);
        assert_eq!(edges.len(), 5000);
        // Every edge leaves the device exactly once: 16 bytes per edge.
        assert_eq!(dev.stats().gmem_write, 5000 * 16);
        assert_eq!(dev.stats().kernel_launches, 1);
    }

    #[test]
    fn blocks_match_host_plan() {
        let n = 1000u64;
        let m = 100_000u64;
        let dev = Device::default();
        GpuGnmDirected::new(n, m).with_seed(1).generate(&dev);
        assert_eq!(
            dev.stats().blocks_executed,
            GnmDirected::new(n, m).sampler().unwrap().blocks(),
            "one device block per leaf block"
        );
    }

    #[test]
    fn empty_instances() {
        let dev = Device::default();
        assert!(GpuGnmDirected::new(5, 0).generate(&dev).is_empty());
        assert!(GpuGnpDirected::new(5, 0.0).generate(&dev).is_empty());
        assert!(GpuGnpDirected::new(1, 0.5).generate(&dev).is_empty());
    }
}

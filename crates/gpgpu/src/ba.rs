//! GPGPU Barabási–Albert generation.
//!
//! The Sanders–Schulz recomputation scheme makes BA edge slots independent:
//! slot `i`'s target is resolved by replaying a hash-seeded chain of
//! virtual-array reads, a pure function of `(instance seed, slot)`. That is
//! exactly the shape the accelerator model wants — the host plans one
//! device block per fixed-size slot range and every block resolves its
//! chains with no inter-block communication, so the concatenated output is
//! **bit-identical** to [`kagen_core::BarabasiAlbert::fill_edges`].
//!
//! Unlike R-MAT's branchless descent, chain resolution *does* diverge:
//! each step halves the position in expectation, so chain lengths vary
//! across a warp (O(1) expected, O(log) w.h.p.). The simulation surfaces
//! that as divergent warp steps — the realistic cost of running BA on a
//! SIMD device, visible in [`crate::device::DeviceStats`].

use crate::device::Device;
use kagen_core::ba::draw;
use kagen_core::BarabasiAlbert;

/// Slots per device block: matches the R-MAT seed-block granularity so
/// grid sizes stay comparable across generators.
const SLOT_BLOCK: u64 = 4096;

/// Barabási–Albert on the simulated device, bit-identical to the CPU
/// [`BarabasiAlbert`].
#[derive(Clone, Debug)]
pub struct GpuBarabasiAlbert {
    n: u64,
    d: u64,
    seed: u64,
}

impl GpuBarabasiAlbert {
    /// `n` vertices each attaching `d` edges.
    pub fn new(n: u64, d: u64) -> Self {
        GpuBarabasiAlbert { n, d, seed: 1 }
    }

    /// Set the instance seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generate all edge slots on `dev`, in slot order — the byte-identical
    /// device twin of `fill_edges(0..n·d)`.
    pub fn generate(&self, dev: &Device) -> Vec<(u64, u64)> {
        let slots = self.n * self.d;
        let jobs: Vec<(u64, u64)> = (0..slots.div_ceil(SLOT_BLOCK))
            .map(|b| {
                let lo = b * SLOT_BLOCK;
                (lo, (lo + SLOT_BLOCK).min(slots))
            })
            .collect();
        let inner = BarabasiAlbert::new(self.n, self.d).with_seed(self.seed);
        let inner = &inner;
        // The CPU resolver's base seed, for replaying draws below.
        let base = inner.resolve_base();
        let per_block: Vec<Vec<(u64, u64)>> = dev.launch(jobs, move |ctx, (lo, hi)| {
            let mut out = Vec::with_capacity((hi - lo) as usize);
            inner.fill_edges(lo..hi, &mut out);
            // Divergence accounting: a lane whose chain resolves on the
            // first replay (the drawn position is even) retires early;
            // longer chains keep their warp stepping. Replay each slot's
            // first draw to classify the lanes.
            ctx.simd_for(out.len(), |i| draw(base, 2 * (lo + i as u64) + 1) & 1 == 0);
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

    #[test]
    fn device_bit_identical_to_cpu() {
        let (n, d) = (3000u64, 3u64);
        let cpu_gen = BarabasiAlbert::new(n, d).with_seed(77);
        let mut cpu = Vec::new();
        cpu_gen.fill_edges(0..n * d, &mut cpu);
        let dev = Device::new(DeviceConfig::default());
        let gpu = GpuBarabasiAlbert::new(n, d).with_seed(77).generate(&dev);
        assert_eq!(gpu, cpu);
        let s = dev.stats();
        assert_eq!(s.blocks_executed, (n * d).div_ceil(SLOT_BLOCK));
        assert!(s.divergent_warps > 0, "BA chains must show divergence");
    }

    #[test]
    fn partial_slot_range_blocks() {
        // A slot count that is not a multiple of the block size still
        // covers every slot exactly once.
        let (n, d) = (1234u64, 5u64);
        let dev = Device::new(DeviceConfig::default());
        let gpu = GpuBarabasiAlbert::new(n, d).with_seed(9).generate(&dev);
        assert_eq!(gpu.len() as u64, n * d);
        for (slot, &(u, _)) in gpu.iter().enumerate() {
            assert_eq!(u, slot as u64 / d);
        }
    }
}

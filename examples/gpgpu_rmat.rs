//! R-MAT and BA on the simulated GPGPU device (§2.3): the linear-work
//! composed-table descent and the preferential-attachment chain resolver,
//! both bit-identical to their CPU generators.
//!
//! ```text
//! cargo run --release --example gpgpu_rmat [OUT_DIR]
//! ```
//!
//! R-MAT is the friendliest possible device kernel: every edge is a pure
//! function of `(seed, edge index)`, the composed alias table is built
//! host-side once (L2-cache-sized by construction, constant-memory
//! resident on a real GPU), and the descent has no data-dependent
//! branching — zero warp divergence. BA's recomputation chains *do*
//! diverge (chain lengths vary across a warp), which the device model
//! surfaces as divergent warp steps.
//!
//! With `OUT_DIR` set, the CPU and device edge streams are also written
//! as text files so an external `cmp` can verify bit-identity without
//! trusting this process's own `assert_eq!` — the CI smoke path.

use kagen_repro::gpgpu::{Device, DeviceConfig, GpuBarabasiAlbert, GpuRmat};
use kagen_repro::prelude::*;
use std::fmt::Write as _;

fn write_edges(dir: &std::path::Path, name: &str, edges: &[(u64, u64)]) {
    let mut text = String::with_capacity(edges.len() * 12);
    for &(u, v) in edges {
        let _ = writeln!(text, "{u} {v}");
    }
    std::fs::write(dir.join(name), text).expect("cannot write edge file");
}

fn main() {
    let out_dir = std::env::args().nth(1).map(std::path::PathBuf::from);
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("cannot create OUT_DIR");
    }
    let seed = 2018;

    // ---- R-MAT, linear-work kernel (scale 20) --------------------------
    let (scale, m) = (20u32, 1u64 << 18);
    let cpu_gen = Rmat::new(scale, m)
        .with_seed(seed)
        .with_kernel(RmatKernel::Linear { levels: 8 });
    let mut cpu = Vec::new();
    cpu_gen.fill_edges(0..m, &mut cpu);
    let dev = Device::new(DeviceConfig::default());
    let gpu = GpuRmat::from_generator(cpu_gen).generate(&dev);
    assert_eq!(gpu, cpu, "device must equal host");
    let s = dev.stats();
    println!("R-MAT scale=20 m=2^18, linear kernel (levels=8) on the device:");
    println!("  edges             {}", gpu.len());
    println!("  kernel launches   {}", s.kernel_launches);
    println!("  blocks executed   {}", s.blocks_executed);
    println!(
        "  divergent warps   {} of {} — branchless descent, lockstep warps",
        s.divergent_warps, s.warp_steps
    );
    println!(
        "  gmem read/written {} / {} MiB (alias draws / edge stores)",
        s.gmem_read >> 20,
        s.gmem_write >> 20
    );
    println!("  == CPU generator bit-for-bit\n");
    if let Some(dir) = &out_dir {
        write_edges(dir, "rmat_cpu.txt", &cpu);
        write_edges(dir, "rmat_gpu.txt", &gpu);
    }

    // ---- R-MAT beyond scale 32 -----------------------------------------
    // u and v no longer fit one interleaved word; the composed kernel
    // accumulates them separately and runs unchanged.
    let (scale, m) = (34u32, 1u64 << 16);
    let cpu_gen = Rmat::new(scale, m)
        .with_seed(seed)
        .with_kernel(RmatKernel::Linear { levels: 8 });
    let mut cpu = Vec::new();
    cpu_gen.fill_edges(0..m, &mut cpu);
    let dev = Device::new(DeviceConfig::default());
    let gpu = GpuRmat::from_generator(cpu_gen).generate(&dev);
    assert_eq!(gpu, cpu, "device must equal host at scale 34");
    println!("R-MAT scale=34 m=2^16 (composed-only territory):");
    println!("  edges             {}", gpu.len());
    println!("  == CPU generator bit-for-bit\n");
    if let Some(dir) = &out_dir {
        write_edges(dir, "rmat_s34_cpu.txt", &cpu);
        write_edges(dir, "rmat_s34_gpu.txt", &gpu);
    }

    // ---- Barabási–Albert chain resolution ------------------------------
    let (n, d) = (1u64 << 14, 8u64);
    let cpu_gen = BarabasiAlbert::new(n, d).with_seed(seed);
    let mut cpu = Vec::new();
    cpu_gen.fill_edges(0..n * d, &mut cpu);
    let dev = Device::new(DeviceConfig::default());
    let gpu = GpuBarabasiAlbert::new(n, d).with_seed(seed).generate(&dev);
    assert_eq!(gpu, cpu, "device must equal host");
    let s = dev.stats();
    println!("BA n=2^14 d=8, recomputation chains on the device:");
    println!("  edge slots        {}", gpu.len());
    println!("  blocks executed   {}", s.blocks_executed);
    println!(
        "  divergent warps   {} of {} ({:.1}%) — chain lengths vary per lane",
        s.divergent_warps,
        s.warp_steps,
        100.0 * s.divergent_warps as f64 / s.warp_steps.max(1) as f64
    );
    println!("  == CPU generator bit-for-bit");
    if let Some(dir) = &out_dir {
        write_edges(dir, "ba_cpu.txt", &cpu);
        write_edges(dir, "ba_gpu.txt", &gpu);
    }
}

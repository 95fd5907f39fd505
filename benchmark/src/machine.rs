//! The machine the numbers come from: the environment record every
//! results document carries, and the ceilings the `*_frac` figures
//! divide by, measured in the same run on the same box.

use crate::json::{obj, Json};
use kagen_util::{Rng64, SplitMix64};
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// `min(nproc, 4)`: threads (`-t`) or worker processes (`--workers`)
/// inside the product. The harness itself drives one command at a time.
pub fn parallelism() -> (usize, usize) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    (nproc, nproc.min(4))
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Size in bytes of the largest cache cpu0 reports (its last level), or
/// the product's L2 figure when sysfs shows none.
pub fn llc_bytes() -> u64 {
    let sizes = (0..8).filter_map(|i| {
        let text =
            std::fs::read_to_string(format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size"))
                .ok()?;
        let text = text.trim();
        let (digits, unit) = match text.as_bytes().last()? {
            b'K' => (&text[..text.len() - 1], 1 << 10),
            b'M' => (&text[..text.len() - 1], 1 << 20),
            _ => (text, 1),
        };
        digits.parse::<u64>().ok().map(|v| v * unit)
    });
    sizes.max().unwrap_or(kagen_util::l2_cache_bytes() as u64)
}

/// Where and on what the benchmark ran.
#[derive(Clone, Debug)]
pub struct Environment {
    pub nproc: usize,
    pub p: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub git_commit: String,
    pub scratch_fs: String,
    pub llc_bytes: u64,
    pub l2_bytes: u64,
}

impl Environment {
    pub fn record(repo_root: &Path, scratch_fs: &str) -> Environment {
        let (nproc, p) = parallelism();
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                let line = text.lines().find(|l| l.starts_with("model name"))?;
                Some(line.split_once(':')?.1.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let root = repo_root.to_string_lossy();
        Environment {
            nproc,
            p,
            cpu_model,
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string()),
            // The driver's checkout is not a git repository.
            git_commit: command_line("git", &["-C", &root, "rev-parse", "HEAD"])
                .unwrap_or_else(|| "unknown".to_string()),
            scratch_fs: scratch_fs.to_string(),
            llc_bytes: llc_bytes(),
            l2_bytes: kagen_util::l2_cache_bytes() as u64,
        }
    }

    pub fn to_json(&self) -> Json {
        obj([
            ("nproc", Json::Int(self.nproc as u64)),
            ("p", Json::Int(self.p as u64)),
            ("cpu_model", self.cpu_model.as_str().into()),
            ("rustc", self.rustc.as_str().into()),
            ("git_commit", self.git_commit.as_str().into()),
            ("scratch_fs", self.scratch_fs.as_str().into()),
            ("llc_bytes", Json::Int(self.llc_bytes)),
            ("l2_bytes", Json::Int(self.l2_bytes)),
        ])
    }
}

/// The ceilings, measured once while the harness prepares.
#[derive(Clone, Copy, Debug)]
pub struct Ceilings {
    /// One `SplitMix64` word: the floor under any variate.
    pub splitmix_ns_per_word: f64,
    /// `copy_from_slice` between two buffers of `memcpy_buffer_bytes`.
    pub memcpy_gib_s: f64,
    /// Each buffer: `min(4 × LLC, 512 MiB)`, so the copy cannot live in
    /// cache unless the cap bites (it does on the build box: 260 MiB of
    /// L3 against the 512 MiB cap; both sizes are in the record).
    pub memcpy_buffer_bytes: u64,
    /// 256 MiB in 64 KiB writes to a file on the scratch filesystem.
    pub file_write_mib_s: f64,
    /// The benchmark's own minimal delta + LEB128 over a sorted stream,
    /// into memory: what a varint codec costs with nothing around it.
    pub varint_ns_per_edge: f64,
}

fn splitmix_ns_per_word(seed: u64) -> f64 {
    const WORDS: u64 = 1 << 25;
    let mut rng = SplitMix64::new(seed);
    let started = Instant::now();
    let mut acc = 0u64;
    for _ in 0..WORDS {
        acc ^= rng.next_u64();
    }
    black_box(acc);
    started.elapsed().as_secs_f64() * 1e9 / WORDS as f64
}

fn memcpy_gib_s(buffer_bytes: usize) -> f64 {
    let src = vec![0x5au8; buffer_bytes];
    let mut dst = vec![0u8; buffer_bytes];
    // The first copy faults `dst` in; the second is the measurement.
    dst.copy_from_slice(black_box(&src));
    let started = Instant::now();
    dst.copy_from_slice(black_box(&src));
    let secs = started.elapsed().as_secs_f64();
    black_box(&dst);
    buffer_bytes as f64 / secs / (1u64 << 30) as f64
}

fn file_write_mib_s(dir: &Path) -> std::io::Result<f64> {
    const TOTAL: usize = 256 << 20;
    const CHUNK: usize = 64 << 10;
    let path = dir.join("ceiling.bin");
    let chunk = vec![0xa5u8; CHUNK];
    let mut file = std::fs::File::create(&path)?;
    let started = Instant::now();
    for _ in 0..TOTAL / CHUNK {
        file.write_all(&chunk)?;
    }
    file.flush()?;
    let secs = started.elapsed().as_secs_f64();
    drop(file);
    std::fs::remove_file(&path)?;
    Ok((TOTAL >> 20) as f64 / secs)
}

/// Write `x` as an LEB128 varint at `out[at..]`; returns the end.
#[inline]
fn put_varint(out: &mut [u8], mut at: usize, mut x: u64) -> usize {
    while x >= 0x80 {
        out[at] = x as u8 | 0x80;
        x >>= 7;
        at += 1;
    }
    out[at] = x as u8;
    at + 1
}

/// Bytes [`encode_sorted`] needs at most per edge: two 10-byte varints.
pub const MAX_BYTES_PER_EDGE: usize = 20;

/// Delta + LEB128 of a stream sorted by `(u, v)` into `out`, which must
/// hold [`MAX_BYTES_PER_EDGE`] per edge: `u` as the gap to the previous
/// `u`, `v` as the gap to the previous `v` under the same `u` (absolute
/// after `u` moves). No blocks, no checksums, no zigzag. Returns the
/// encoded length.
pub fn encode_sorted(edges: &[(u64, u64)], out: &mut [u8]) -> usize {
    let (mut prev_u, mut prev_v, mut at) = (0, 0, 0);
    for &(u, v) in edges {
        if u != prev_u {
            prev_v = 0;
        }
        at = put_varint(out, at, u - prev_u);
        at = put_varint(out, at, v - prev_v);
        (prev_u, prev_v) = (u, v);
    }
    at
}

fn varint_ns_per_edge(seed: u64) -> f64 {
    const EDGES: usize = 1 << 22;
    // A sorted stream shaped like a sparse graph's: 16 edges per source
    // on average, targets spread over 2^22 vertices.
    let mut rng = SplitMix64::new(seed);
    let mut edges = Vec::with_capacity(EDGES);
    let (mut u, mut v) = (0u64, 0u64);
    for _ in 0..EDGES {
        let word = rng.next_u64();
        if word.is_multiple_of(16) {
            u += 1;
            v = 0;
        }
        v += 1 + (word >> 32) % (1 << 18);
        edges.push((u, v));
    }
    // Touched before the clock starts, so no page fault is timed.
    let mut out = vec![1u8; EDGES * MAX_BYTES_PER_EDGE];
    let started = Instant::now();
    let len = encode_sorted(black_box(&edges), &mut out);
    let secs = started.elapsed().as_secs_f64();
    black_box(&out[..len]);
    secs * 1e9 / EDGES as f64
}

impl Ceilings {
    /// The ceilings as per-layer metrics.
    pub fn metrics(&self) -> [(&'static str, f64); 4] {
        [
            ("machine.splitmix_ns_per_word", self.splitmix_ns_per_word),
            ("machine.memcpy_gib_s", self.memcpy_gib_s),
            ("machine.file_write_mib_s", self.file_write_mib_s),
            ("machine.varint_ns_per_edge", self.varint_ns_per_edge),
        ]
    }

    pub fn measure(seed: u64, scratch: &Path) -> std::io::Result<Ceilings> {
        let memcpy_buffer_bytes = (4 * llc_bytes()).min(512 << 20);
        Ok(Ceilings {
            splitmix_ns_per_word: splitmix_ns_per_word(seed),
            memcpy_gib_s: memcpy_gib_s(memcpy_buffer_bytes as usize),
            memcpy_buffer_bytes,
            file_write_mib_s: file_write_mib_s(scratch)?,
            varint_ns_per_edge: varint_ns_per_edge(seed),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_varint(bytes: &mut impl Iterator<Item = u8>) -> Option<u64> {
        let (mut x, mut shift) = (0u64, 0);
        loop {
            let b = bytes.next()?;
            x |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Some(x);
            }
            shift += 7;
        }
    }

    #[test]
    fn minimal_codec_round_trips_a_sorted_stream() {
        let edges = [
            (0, 0),
            (0, 5),
            (0, 300),
            (2, 1),
            (2, 1 << 40),
            (u64::MAX, 7),
        ];
        let mut out = vec![0; edges.len() * MAX_BYTES_PER_EDGE];
        let len = encode_sorted(&edges, &mut out);
        let mut bytes = out[..len].iter().copied();
        let (mut u, mut v) = (0, 0);
        let mut decoded = Vec::new();
        while let Some(du) = read_varint(&mut bytes) {
            let dv = read_varint(&mut bytes).unwrap();
            if du != 0 {
                v = 0;
            }
            u += du;
            v += dv;
            decoded.push((u, v));
        }
        assert_eq!(decoded, edges);
    }

    #[test]
    fn parallelism_is_capped_at_four() {
        let (nproc, p) = parallelism();
        assert!((1..=4).contains(&p) && p <= nproc);
    }

    #[test]
    fn last_level_cache_is_at_least_the_l2() {
        assert!(llc_bytes() >= kagen_util::l2_cache_bytes() as u64);
    }
}

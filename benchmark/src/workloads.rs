//! The benchmark's workloads: each one a `kagen` command line, the
//! reason it exists, and the same instance built in-process the way
//! the CLI builds it.

use kagen_core::prelude::*;
use kagen_pipeline::{InstanceMeta, ShardFormat};
use std::ops::Range;
use std::path::Path;

/// A generator and its parameters, as `kagen <model> <flags>` spells
/// them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Model {
    Rmat { n: u64, m: u64 },
    Ba { n: u64, d: u64 },
    GnmDirected { n: u64, m: u64 },
    GnmUndirected { n: u64, m: u64 },
    GnpUndirected { n: u64, p: f64 },
    Rgg2d { n: u64 },
    Rdg2d { n: u64 },
    Rhg { n: u64, d: f64, gamma: f64 },
}

impl Model {
    /// Model name and parameter flags of the command line.
    pub fn cli_args(&self) -> Vec<String> {
        let (name, n, rest): (&str, u64, Vec<(&str, String)>) = match *self {
            Model::Rmat { n, m } => ("rmat", n, vec![("-m", m.to_string())]),
            Model::Ba { n, d } => ("ba", n, vec![("-d", d.to_string())]),
            Model::GnmDirected { n, m } => ("gnm_directed", n, vec![("-m", m.to_string())]),
            Model::GnmUndirected { n, m } => ("gnm_undirected", n, vec![("-m", m.to_string())]),
            Model::GnpUndirected { n, p } => ("gnp_undirected", n, vec![("-p", p.to_string())]),
            Model::Rgg2d { n } => ("rgg2d", n, vec![]),
            Model::Rdg2d { n } => ("rdg2d", n, vec![]),
            Model::Rhg { n, d, gamma } => (
                "rhg",
                n,
                vec![("-d", d.to_string()), ("-g", gamma.to_string())],
            ),
        };
        let mut args = vec![name.to_string(), "-n".to_string(), n.to_string()];
        for (flag, value) in rest {
            args.extend([flag.to_string(), value]);
        }
        args
    }

    /// Scale and levels per table draw of an R-MAT model as the CLI
    /// resolves them on this host: the table is sized to the L2 cache,
    /// so another cache means another instance.
    pub fn rmat_scale_levels(&self) -> Option<(u32, u32)> {
        let Model::Rmat { n, .. } = *self else {
            return None;
        };
        let scale = n.next_power_of_two().ilog2().max(1);
        let levels = Rmat::auto_linear_levels(scale, kagen_util::l2_cache_bytes()).min(scale);
        Some((scale, levels))
    }

    /// Build the generator exactly as `build_generator` in
    /// `src/bin/kagen.rs` does, with the params string the manifest
    /// records. That function lives in the binary, so it is restated
    /// here; the byte-identical-manifest check ties the two together.
    pub fn build(&self, seed: u64, chunks: usize) -> (Box<dyn StreamingGenerator>, InstanceMeta) {
        let (model, gen, params): (&str, Box<dyn StreamingGenerator>, String) = match *self {
            Model::Rmat { m, .. } => {
                let (scale, levels) = self.rmat_scale_levels().expect("an R-MAT model");
                (
                    "rmat",
                    Box::new(
                        Rmat::new(scale, m)
                            .with_seed(seed)
                            .with_chunks(chunks)
                            .with_kernel(RmatKernel::Linear { levels }),
                    ),
                    format!("scale={scale} m={m} kernel=linear levels={levels}"),
                )
            }
            Model::Ba { n, d } => (
                "ba",
                Box::new(
                    BarabasiAlbert::new(n, d)
                        .with_seed(seed)
                        .with_chunks(chunks),
                ),
                format!("n={n} d={d}"),
            ),
            Model::GnmDirected { n, m } => (
                "gnm_directed",
                Box::new(GnmDirected::new(n, m).with_seed(seed).with_chunks(chunks)),
                format!("n={n} m={m}"),
            ),
            Model::GnmUndirected { n, m } => (
                "gnm_undirected",
                Box::new(GnmUndirected::new(n, m).with_seed(seed).with_chunks(chunks)),
                format!("n={n} m={m}"),
            ),
            Model::GnpUndirected { n, p } => (
                "gnp_undirected",
                Box::new(
                    GnpUndirected::new(n, p)
                        .with_seed(seed)
                        .with_chunks(chunks)
                        .with_leaves(GnpLeaves::Skip),
                ),
                format!("n={n} p={p} leaves=skip"),
            ),
            Model::Rgg2d { n } => {
                let r = Rgg2d::threshold_radius(n, 1);
                (
                    "rgg2d",
                    Box::new(Rgg2d::new(n, r).with_seed(seed).with_chunks(chunks)),
                    format!("n={n} r={r}"),
                )
            }
            Model::Rdg2d { n } => (
                "rdg2d",
                Box::new(Rdg2d::new(n).with_seed(seed).with_chunks(chunks)),
                format!("n={n}"),
            ),
            Model::Rhg { n, d, gamma } => (
                "rhg",
                Box::new(Rhg::new(n, d, gamma).with_seed(seed).with_chunks(chunks)),
                format!("n={n} d={d} gamma={gamma}"),
            ),
        };
        let meta = InstanceMeta {
            model: model.to_string(),
            params,
            seed,
        };
        (gen, meta)
    }

    /// The same model with ≈ 1/64 of the edges (`--quick`).
    fn quick(&self) -> Model {
        match *self {
            Model::Rmat { n, m } => Model::Rmat {
                n: n / 64,
                m: m / 64,
            },
            Model::Ba { n, d } => Model::Ba { n: n / 64, d },
            Model::GnmDirected { n, m } => Model::GnmDirected {
                n: n / 64,
                m: m / 64,
            },
            Model::GnmUndirected { n, m } => Model::GnmUndirected {
                n: n / 64,
                m: m / 64,
            },
            // Edges grow with n².
            Model::GnpUndirected { n, p } => Model::GnpUndirected { n: n / 8, p },
            Model::Rgg2d { n } => Model::Rgg2d { n: n / 64 },
            Model::Rdg2d { n } => Model::Rdg2d { n: n / 64 },
            Model::Rhg { n, d, gamma } => Model::Rhg {
                n: n / 64,
                d,
                gamma,
            },
        }
    }
}

/// Which product path the workload's command line takes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `kagen stream`: shards and a manifest.
    Stream,
    /// `kagen stream --merge external`: shards, then the merged list.
    Merge,
    /// `kagen launch`: worker processes, ledger, validation, federation.
    Launch,
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists — which layers it loads and which it
    /// bypasses. Printed, and recorded in `BENCHMARK.json`.
    pub why: &'static str,
    pub model: Model,
    pub chunks: usize,
    pub format: ShardFormat,
    pub kind: Kind,
    /// Listed in `BENCHMARK.json`: the driver runs it and holds it to
    /// the bounds.
    pub gated: bool,
}

/// A variation of a workload's command line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Shape {
    /// The workload's own command at `p` threads (stream) or worker
    /// processes (launch).
    Own { p: usize },
    /// A launch without the post-run re-read of the shards.
    NoValidate { p: usize },
    /// `kagen stream -t p` of a launch workload's instance.
    StreamTwin { p: usize },
    /// One rank of a launch, run by hand as `kagen worker`.
    Rank { rank: usize, pes: Range<usize> },
}

/// Name of the merged output inside a `Kind::Merge` shard directory.
pub const MERGED_FILE: &str = "merged.bin";

impl Workload {
    /// Arguments after `kagen` for `shape`, writing into `dir`.
    pub fn cli(&self, shape: &Shape, seed: u64, dir: &Path) -> Vec<String> {
        let launch = self.kind == Kind::Launch;
        let mode = match shape {
            Shape::Own { .. } | Shape::NoValidate { .. } if launch => "launch",
            Shape::Rank { .. } => "worker",
            _ => "stream",
        };
        let mut args = vec![mode.to_string()];
        args.extend(self.model.cli_args());
        let mut flag = |name: &str, value: String| {
            args.push(name.to_string());
            args.push(value);
        };
        match shape {
            Shape::Own { p } | Shape::NoValidate { p } if launch => {
                flag("--workers", p.to_string());
                flag("-t", "1".to_string());
            }
            Shape::Own { p } | Shape::NoValidate { p } | Shape::StreamTwin { p } => {
                flag("-t", p.to_string())
            }
            Shape::Rank { rank, pes } => {
                flag("-t", "1".to_string());
                flag("--pe-range", format!("{}..{}", pes.start, pes.end));
                flag("--rank", rank.to_string());
            }
        }
        flag("-f", self.format.name().to_string());
        match shape {
            Shape::Own { .. } if launch => flag("--validate", "full".to_string()),
            Shape::NoValidate { .. } => flag("--validate", "none".to_string()),
            Shape::Own { .. } if self.kind == Kind::Merge => {
                flag("--merge", "external".to_string())
            }
            _ => {}
        }
        flag("-c", self.chunks.to_string());
        flag("-s", seed.to_string());
        flag("--shard-dir", dir.to_string_lossy().into_owned());
        args
    }

    /// The generator and manifest metadata the CLI builds for `seed`.
    pub fn build(&self, seed: u64) -> (Box<dyn StreamingGenerator>, InstanceMeta) {
        self.model.build(seed, self.chunks)
    }

    /// The workload at ≈ 1/64 size (`--quick`): same path, same checks,
    /// timings not comparable with anything.
    pub fn quick(&self) -> Workload {
        Workload {
            model: self.model.quick(),
            chunks: if self.chunks > 64 {
                self.chunks / 64
            } else {
                self.chunks
            },
            ..*self
        }
    }
}

/// Every workload, in the order they run. All use `-s <seed>`; `P`
/// (`min(nproc, 4)`) replaces `-t` / `--workers`.
///
/// Instances are sized so one command takes 1.0–1.4 s at P = 2 on the
/// 2-vCPU build box: at least a second, because sub-second commands did
/// not repeat within a tenth, and no longer, because the driver's time
/// cap leaves 13 s to measure in and seven repetitions are owed.
pub const WORKLOADS: [Workload; 8] = [
    Workload {
        name: "rmat_stream",
        why: "Fastest generator (~6 ns/edge) into the varint codec: graph encode and fs write do most of the work, core little, so a sink or codec optimisation shows here.",
        model: Model::Rmat { n: 1 << 22, m: 1 << 26 },
        chunks: 64,
        format: ShardFormat::Compressed,
        kind: Kind::Stream,
        gated: true,
    },
    Workload {
        name: "ba_stream",
        why: "Same path as rmat_stream but the generator dominates and the sorted-source stream encodes to ~4 B/edge: a core gain shows here, a codec gain on rmat_stream.",
        model: Model::Ba { n: 3 << 21, d: 8 },
        chunks: 64,
        format: ShardFormat::Compressed,
        kind: Kind::Stream,
        gated: true,
    },
    Workload {
        name: "gnm_launch",
        why: "The multi-process path: exact-count ER (sampling/dist splits, Method D), worker spawn, ledger, full shard validation (the codec used for reading), federation.",
        model: Model::GnmUndirected { n: 1 << 22, m: 3 << 22 },
        chunks: 64,
        format: ShardFormat::Compressed,
        kind: Kind::Launch,
        gated: true,
    },
    Workload {
        name: "gnp_merge",
        why: "pipeline::merge does most of the work (read back, sort, spill, k-way, dedup) over the binary sink/reader pair; generator and varint codec changes must not move it.",
        model: Model::GnpUndirected { n: 1 << 21, p: 0.0000025 },
        chunks: 64,
        format: ShardFormat::Binary,
        kind: Kind::Merge,
        gated: true,
    },
    Workload {
        name: "rgg2d_stream",
        why: "geometry::cell_stream + core::rgg at the connectivity-threshold radius: ~98 % generator, ~2 B/edge output, so sink changes must show nothing here.",
        model: Model::Rgg2d { n: 1 << 20 },
        chunks: 64,
        format: ShardFormat::Compressed,
        kind: Kind::Stream,
        gated: true,
    },
    Workload {
        name: "rdg2d_stream",
        why: "delaunay + halo recomputation (~10 us/edge): the only workload where the triangulator and the recompute ratio decide the result.",
        model: Model::Rdg2d { n: 40_000 },
        chunks: 64,
        format: ShardFormat::Compressed,
        kind: Kind::Stream,
        gated: true,
    },
    Workload {
        name: "rhg_stream",
        why: "core::rhg query path over geometry::hyperbolic; skewed annuli make it the load-balance workload (core.pe_imbalance, runtime.parallel_efficiency).",
        model: Model::Rhg { n: 81_920, d: 16.0, gamma: 2.8 },
        chunks: 64,
        format: ShardFormat::Compressed,
        kind: Kind::Stream,
        gated: true,
    },
    Workload {
        name: "small_shards_launch",
        why: "gnm_launch's writer, ledger, manifest and validator used the opposite way: 49152 shards of 128 edges, so per-shard open/close, ledger/manifest size and per-file validation dominate.",
        model: Model::GnmDirected { n: 1 << 22, m: 3 << 21 },
        chunks: 49_152,
        format: ShardFormat::Compressed,
        kind: Kind::Launch,
        // The driver's contract keeps scratch inside the checkout: on
        // the build box an ext4 volume mounted `discard` on a virtual
        // disk, where creating a small file costs 25 us or 250 us
        // depending on the journal's state, which flips every few tens
        // of seconds (8192 shards: 0.22-2.8 s; 32 runs of 4096 shards in
        // a row all slow). This workload measures exactly that cost and
        // can meet no bound there; it is for a tmpfs scratch.
        gated: false,
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(w: &Workload, shape: Shape) -> String {
        w.cli(&shape, 7, Path::new("/s")).join(" ")
    }

    #[test]
    fn command_lines_match_the_documented_table() {
        let w = by_name("rmat_stream").unwrap();
        assert_eq!(
            line(w, Shape::Own { p: 2 }),
            "stream rmat -n 4194304 -m 67108864 -t 2 -f compressed -c 64 -s 7 --shard-dir /s"
        );
        let w = by_name("gnp_merge").unwrap();
        assert_eq!(
            line(w, Shape::Own { p: 4 }),
            "stream gnp_undirected -n 2097152 -p 0.0000025 -t 4 -f binary --merge external \
             -c 64 -s 7 --shard-dir /s"
        );
        let w = by_name("rhg_stream").unwrap();
        assert_eq!(
            line(w, Shape::Own { p: 1 }),
            "stream rhg -n 81920 -d 16 -g 2.8 -t 1 -f compressed -c 64 -s 7 --shard-dir /s"
        );
    }

    #[test]
    fn launch_shapes() {
        let w = by_name("gnm_launch").unwrap();
        assert_eq!(
            line(w, Shape::Own { p: 2 }),
            "launch gnm_undirected -n 4194304 -m 12582912 --workers 2 -t 1 -f compressed \
             --validate full -c 64 -s 7 --shard-dir /s"
        );
        assert_eq!(
            line(w, Shape::NoValidate { p: 2 }),
            "launch gnm_undirected -n 4194304 -m 12582912 --workers 2 -t 1 -f compressed \
             --validate none -c 64 -s 7 --shard-dir /s"
        );
        assert_eq!(
            line(w, Shape::StreamTwin { p: 2 }),
            "stream gnm_undirected -n 4194304 -m 12582912 -t 2 -f compressed -c 64 -s 7 \
             --shard-dir /s"
        );
        assert_eq!(
            line(
                w,
                Shape::Rank {
                    rank: 1,
                    pes: 32..64
                }
            ),
            "worker gnm_undirected -n 4194304 -m 12582912 -t 1 --pe-range 32..64 --rank 1 \
             -f compressed -c 64 -s 7 --shard-dir /s"
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contracts_alphabet() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert!(w
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn quick_instances_keep_the_path_and_shrink_the_work() {
        for w in &WORKLOADS {
            let q = w.quick();
            assert_eq!((q.kind, q.format, q.name), (w.kind, w.format, w.name));
            let (gen, meta) = q.build(3);
            assert_eq!(gen.num_chunks(), q.chunks);
            assert_eq!(meta.seed, 3);
        }
        assert_eq!(by_name("small_shards_launch").unwrap().quick().chunks, 768);
    }

    #[test]
    fn params_strings_are_the_clis() {
        let meta = |name: &str| by_name(name).unwrap().quick().build(1).1;
        assert_eq!(meta("gnp_merge").params, "n=262144 p=0.0000025 leaves=skip");
        assert_eq!(meta("rhg_stream").params, "n=1280 d=16 gamma=2.8");
        assert_eq!(meta("ba_stream").params, "n=98304 d=8");
        assert!(meta("rmat_stream")
            .params
            .starts_with("scale=16 m=1048576 kernel=linear levels="));
    }
}

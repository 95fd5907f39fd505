//! The untraced, timed repetitions of one workload and the checks on
//! what they wrote: the source of every end-to-end metric.

use crate::checks::{self, Ops};
use crate::run::Bench;
use crate::stats::Summary;
use crate::workloads::{Kind, Shape, Workload, MERGED_FILE};
use kagen_pipeline::Manifest;
use std::time::Instant;

/// How many repetitions to time. There is no warm-up run: every timing
/// metric is the fastest repetition, which a cold first one never is.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Time at least this many repetitions…
    pub min_reps: usize,
    /// …then keep going while another one fits in `seconds`, up to this
    /// many.
    pub max_reps: usize,
    pub seconds: f64,
}

impl Plan {
    /// The comparable plan: 7 to 12 repetitions. Never fewer than 7:
    /// single runs scatter by a fifth on the build box.
    pub fn timed(seconds: f64) -> Plan {
        Plan {
            min_reps: 7,
            max_reps: 12,
            seconds,
        }
    }

    /// One repetition, every check (`--quick`, `--bless`).
    pub fn once() -> Plan {
        Plan {
            min_reps: 1,
            max_reps: 1,
            seconds: 0.0,
        }
    }

    fn wants_another(&self, done: usize, spent_s: f64, last_s: f64) -> bool {
        done < self.min_reps || (done < self.max_reps && spent_s + last_s <= self.seconds)
    }
}

/// What the untraced pass measured for one workload.
#[derive(Clone, Debug)]
pub struct Untraced {
    pub wall_s: Summary,
    pub peak_rss_mib: Summary,
    pub cpu_s: Summary,
    pub setup_s: Summary,
    /// `manifest.json` `edges`.
    pub edges: u64,
    /// Shard files, plus the merged output for `gnp_merge`.
    pub bytes: u64,
    pub manifest_digest: u64,
    /// Checksum of the merged output (`Kind::Merge`).
    pub merged_checksum: Option<u64>,
}

impl Untraced {
    pub fn meps(&self) -> f64 {
        self.edges as f64 / self.wall_s.best() / 1e6
    }

    pub fn bytes_per_edge(&self) -> f64 {
        self.bytes as f64 / self.edges as f64
    }
}

/// Time to first batch: build the workload's generator the way the CLI
/// does and run PE 0 until its first batch arrives — the one-off work
/// (alias-table build, grid or annulus set-up, count recursion) every
/// run pays before an edge exists. The rest of PE 0 runs on untimed,
/// since a batch callback cannot stop the generator.
pub fn time_to_first_batch(w: &Workload, seed: u64) -> f64 {
    let started = Instant::now();
    let (gen, _meta) = w.build(seed);
    let mut first_batch_s = None;
    let mut buf = Vec::with_capacity(kagen_core::streaming::BATCH_EDGES);
    gen.stream_pe_batched(0, &mut buf, &mut |edges| {
        std::hint::black_box(edges);
        first_batch_s.get_or_insert_with(|| started.elapsed().as_secs_f64());
    });
    // A PE without edges never calls back: its set-up is the whole call.
    first_batch_s.unwrap_or_else(|| started.elapsed().as_secs_f64())
}

/// The harness's own sub-command that prints [`time_to_first_batch`].
pub const FIRST_BATCH_COMMAND: &str = "first-batch";

/// One set-up sample, taken in a fresh process of this harness: cold
/// allocator and cold caches, as `kagen` pays it. Sampled in-process the
/// figure followed the heap the harness had grown by then (R-MAT's table
/// build: 1.6 ms on fresh pages, 1.1 ms on recycled ones).
fn setup_sample(w: &Workload, bench: &Bench) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this harness: {e}"))?;
    let size = if bench.quick { "quick" } else { "full" };
    let out = std::process::Command::new(exe)
        .args([FIRST_BATCH_COMMAND, w.name, &bench.seed.to_string(), size])
        .output()
        .map_err(|e| format!("cannot run this harness: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse() {
        Ok(seconds) if out.status.success() => Ok(seconds),
        _ => Err(format!(
            "{FIRST_BATCH_COMMAND} {} ended with {}",
            w.name, out.status
        )),
    }
}

/// Set-up samples taken between two CLI repetitions: spreading them
/// over the run keeps a slow phase of the machine from colouring every
/// sample.
fn setup_slot(w: &Workload, bench: &Bench, ops: &mut Ops, samples: &mut Vec<f64>) {
    for _ in 0..2 {
        samples.extend(ops.record("set-up sample", setup_sample(w, bench)));
    }
}

/// Run the untraced pass of `w`. `None` when the pass produced nothing
/// to report (every failure is already in `ops`).
pub fn untraced(w: &Workload, bench: &Bench, plan: Plan, ops: &mut Ops) -> Option<Untraced> {
    let (seed, p) = (bench.seed, bench.p);
    let mut setup = Vec::new();
    let (mut wall, mut rss, mut cpu) = (Vec::new(), Vec::new(), Vec::new());
    // Manifest bytes of every invocation.
    let mut manifests: Vec<Vec<u8>> = Vec::new();
    let mut merged: Vec<(u64, u64)> = Vec::new();
    let dir = bench.scratch.run_dir();

    let mut invoke = |ops: &mut Ops| -> Option<f64> {
        setup_slot(w, bench, ops, &mut setup);
        let inv = bench.invoke(ops, w.name, &|dir| w.cli(&Shape::Own { p }, seed, dir))?;
        wall.push(inv.wall_s);
        rss.push(inv.peak_rss_mib);
        cpu.push(inv.cpu_s);
        manifests.extend(std::fs::read(dir.join(kagen_pipeline::MANIFEST_FILE)));
        Some(inv.wall_s)
    };
    // Reading the merged list back takes 0.1 s, so it is digested after
    // the first and the last invocation only.
    let mut digest_merged = |ops: &mut Ops| {
        if w.kind == Kind::Merge {
            let digest = checks::merged_digest(&dir.join(MERGED_FILE));
            merged.extend(ops.record("merged output strictly increasing", digest));
        }
    };

    let measuring = Instant::now();
    let (mut done, mut last_s) = (0, 0.0);
    while plan.wants_another(done, measuring.elapsed().as_secs_f64(), last_s) {
        done += 1;
        last_s = invoke(ops).unwrap_or(0.0);
        if done == 1 && plan.max_reps > 1 {
            digest_merged(ops);
        }
    }
    digest_merged(ops);
    setup_slot(w, bench, ops, &mut setup);

    // The checks below read the last repetition's directory.
    let manifest_bytes = manifests.last()?.clone();
    ops.record(
        "manifest bytes identical across repetitions",
        match manifests.iter().position(|m| *m != manifest_bytes) {
            None if manifests.len() == done => Ok(()),
            None => Err("an invocation wrote no manifest".to_string()),
            Some(i) => Err(format!("invocation {i} wrote a different manifest")),
        },
    );
    let manifest = ops.record(
        "manifest parses",
        Manifest::load(&dir).map_err(|e| e.to_string()),
    )?;
    ops.record(
        "every shard validates against the manifest",
        checks::validate_all(&dir, &manifest, p),
    );
    let sizes = ops.record("shard sizes", checks::shard_sizes(&dir, &manifest))?;
    let mut bytes: u64 = sizes.iter().sum();
    let mut merged_checksum = None;
    if w.kind == Kind::Merge {
        ops.record(
            "merged output identical across repetitions",
            match merged.as_slice() {
                [first, rest @ ..] if rest.iter().all(|m| m == first) => Ok(()),
                _ => Err(format!("(edges, checksum) per digested run: {merged:?}")),
            },
        );
        let &(merged_edges, checksum) = merged.last()?;
        bytes += merged_edges * 16;
        merged_checksum = Some(checksum);
    }
    Some(Untraced {
        wall_s: Summary::of(&wall)?,
        peak_rss_mib: Summary::of(&rss)?,
        cpu_s: Summary::of(&cpu)?,
        setup_s: Summary::of(&setup)?,
        edges: manifest.edges,
        bytes,
        manifest_digest: checks::fnv1a64(&manifest_bytes),
        merged_checksum,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_times_at_least_min_then_fills_the_budget() {
        let plan = Plan::timed(10.0);
        assert!(plan.wants_another(0, 0.0, 0.0));
        // Seven are owed even when the budget is spent.
        assert!(plan.wants_another(6, 30.0, 5.0));
        // An eighth only if it fits…
        assert!(plan.wants_another(7, 8.4, 1.2));
        assert!(!plan.wants_another(7, 9.1, 1.3));
        // …and never a thirteenth.
        assert!(!plan.wants_another(12, 1.0, 0.1));
        let once = Plan::once();
        assert!(once.wants_another(0, 0.0, 0.0) && !once.wants_another(1, 0.0, 0.0));
    }

    #[test]
    fn first_batch_arrives_before_the_pe_ends() {
        let w = crate::workloads::by_name("ba_stream").unwrap().quick();
        let started = Instant::now();
        let first = time_to_first_batch(&w, 1);
        assert!(first > 0.0 && first <= started.elapsed().as_secs_f64());
    }
}

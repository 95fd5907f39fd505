//! `kagen-benchmark` — the repository's benchmark: the cost of an edge
//! from `kagen stream`/`launch` on the command line to validated bytes
//! on disk, and where that cost sits.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- run
//!     [--workload NAME]…  only these workloads (default: all eight)
//!     [--seed N]          instance seed, passed to kagen as -s (default 1)
//!     [--seconds S]       measuring budget per workload (default 13)
//!     [--trace [0|1]]     the traced run: per-layer metrics + Chrome traces
//!     [--quick]           ≈ 1/64 size, 1 repetition, every check; not comparable
//!     [--aa]              the untraced pass twice; fails if the two disagree
//!     [--bless]           rewrite benchmark/expected.json from a seed-1 run
//!     [--kagen PATH]      measure this binary instead of building the tree's
//!     [--scratch DIR]     scratch parent (default: /dev/shm if it is a
//!                         tmpfs with 2 GiB free, else benchmark/out)
//! cargo run --release --manifest-path benchmark/Cargo.toml -- describe
//!                         print BENCHMARK.json as generated from the tables
//! ```
//!
//! Run it from the repository root: cargo reads `.cargo/config.toml`
//! (the product's `target-cpu=native`) from the working directory.
//!
//! One client, closed loop: one command at a time, `P = min(nproc, 4)`
//! threads or workers inside the product. The last line of standard
//! output of a one-workload run is the result object the driver reads.
//! Exit code 0 means every operation succeeded.

mod checks;
mod json;
mod kernels;
mod layers;
mod machine;
mod measure;
mod metrics;
mod procfs;
mod report;
mod run;
mod scratch;
mod span;
mod stats;
mod traced;
mod workloads;

use checks::{Expected, Golden, Ops, GOLDEN_SEED};
use json::{obj, Json};
use machine::{Ceilings, Environment};
use measure::{Plan, Untraced};
use metrics::{END_TO_END, PER_LAYER};
use report::{
    end_to_end_values, print_aa, print_untraced, result_line, sig6, untraced_json, Report,
};
use run::{Bench, Kagen};
use scratch::Scratch;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Kind, Shape, Workload, WORKLOADS};

/// Counts the harness's own heap, so the layer pass can report the
/// generator's peak allocation.
#[global_allocator]
static ALLOC: kagen_util::alloc::CountingAlloc = kagen_util::alloc::CountingAlloc;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Untraced,
    Traced,
    Quick,
    Aa,
    Bless,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Untraced => "untraced",
            Mode::Traced => "traced",
            Mode::Quick => "quick",
            Mode::Aa => "aa",
            Mode::Bless => "bless",
        }
    }
}

struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    mode: Mode,
    kagen: Option<PathBuf>,
    scratch: Option<PathBuf>,
}

fn usage(problem: &str) -> ! {
    eprintln!("kagen-benchmark: {problem}");
    let text = include_str!("main.rs");
    for line in text.lines().skip_while(|l| !l.contains("```text")).skip(1) {
        if line.contains("```") {
            break;
        }
        eprintln!("{}", line.trim_start_matches("//!"));
    }
    std::process::exit(2)
}

fn parse(args: impl Iterator<Item = String>) -> Options {
    let mut o = Options {
        workloads: Vec::new(),
        seed: GOLDEN_SEED,
        seconds: metrics::RUN_SECONDS as f64,
        mode: Mode::Untraced,
        kagen: None,
        scratch: None,
    };
    let mut modes = Vec::new();
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} wants {what}")))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name");
                let w = workloads::by_name(&name)
                    .unwrap_or_else(|| usage(&format!("no workload '{name}'")));
                o.workloads.push(*w);
            }
            "--seed" => {
                o.seed = value("a number")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed wants a number"))
            }
            "--seconds" => {
                o.seconds = value("a number")
                    .parse()
                    .unwrap_or_else(|_| usage("--seconds wants a number"))
            }
            // The driver says `--trace 0` or `--trace 1`; by hand a bare
            // `--trace` means 1.
            "--trace" => {
                if args
                    .next_if(|v| v == "0" || v == "1")
                    .is_none_or(|v| v == "1")
                {
                    modes.push(Mode::Traced);
                }
            }
            "--quick" => modes.push(Mode::Quick),
            "--aa" => modes.push(Mode::Aa),
            "--bless" => modes.push(Mode::Bless),
            "--kagen" => o.kagen = Some(PathBuf::from(value("a path"))),
            "--scratch" => o.scratch = Some(PathBuf::from(value("a directory"))),
            other => usage(&format!("unknown argument '{other}'")),
        }
    }
    match modes.as_slice() {
        [] => {}
        [mode] => o.mode = *mode,
        _ => usage("--trace, --quick, --aa and --bless exclude one another"),
    }
    if o.workloads.is_empty() {
        o.workloads = WORKLOADS.to_vec();
    }
    if o.mode == Mode::Quick {
        o.workloads = o.workloads.iter().map(Workload::quick).collect();
    }
    if o.mode == Mode::Bless {
        // Golden values are seed 1's, and the file holds all eight.
        o.seed = GOLDEN_SEED;
        o.workloads = WORKLOADS.to_vec();
    }
    o
}

/// The repository this benchmark was built in.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository root")
        .to_path_buf()
}

/// Build the tree's `kagen` (a no-op when it is fresh) and say where it
/// is. The working directory is left alone so a relative
/// `CARGO_TARGET_DIR` names the directory the outer cargo used.
fn build_kagen(root: &Path) -> Result<PathBuf, String> {
    let manifest = root.join("Cargo.toml");
    let status = std::process::Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "kagen",
        ])
        .arg("--manifest-path")
        .arg(&manifest)
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!(
            "building kagen from {} failed: {status}",
            manifest.display()
        ));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or(root.join("target"), PathBuf::from);
    Ok(target.join("release").join("kagen"))
}

/// The binary must exist, be executable, and generate what the library
/// this harness links generates: a stale or foreign binary would make
/// the layer pass describe some other program.
fn probe_binary(kagen: &Kagen, scratch: &Scratch, seed: u64) -> Result<(), String> {
    use std::os::unix::fs::PermissionsExt;
    let exe = kagen.exe.display();
    let meta = std::fs::metadata(&kagen.exe).map_err(|e| format!("kagen binary {exe}: {e}"))?;
    if !meta.is_file() || meta.permissions().mode() & 0o111 == 0 {
        return Err(format!("kagen binary {exe} is not an executable file"));
    }
    let probe = Workload {
        name: "probe",
        why: "",
        model: workloads::Model::GnmDirected { n: 256, m: 2048 },
        chunks: 4,
        format: kagen_pipeline::ShardFormat::Binary,
        kind: Kind::Stream,
        gated: false,
    };
    const FILES: [&str; 3] = ["manifest.json", "shard-00000.bin", "shard-00003.bin"];
    let read_all = |dir: &Path| -> Result<Vec<Vec<u8>>, String> {
        let read = |file| std::fs::read(dir.join(file)).map_err(|e| format!("{file}: {e}"));
        FILES.into_iter().map(read).collect()
    };
    let dir = scratch.fresh_run_dir().map_err(|e| e.to_string())?;
    kagen.run(&probe.cli(&Shape::Own { p: 1 }, seed, &dir))?;
    let from_binary = read_all(&dir)?;
    let dir = scratch.fresh_run_dir().map_err(|e| e.to_string())?;
    let (gen, meta) = probe.build(seed);
    let cfg = kagen_pipeline::StreamConfig::new(&dir, probe.format).with_threads(1);
    kagen_pipeline::write_sharded(gen.as_ref(), &meta, &cfg).map_err(|e| e.to_string())?;
    if from_binary != read_all(&dir)? {
        return Err(format!(
            "kagen binary {exe} and the linked library disagree on the probe instance \
             ({FILES:?}); is the binary stale?"
        ));
    }
    Ok(())
}

/// The digests `expected.json` keeps for one workload.
fn golden_of(u: &Untraced) -> Golden {
    Golden {
        manifest: checks::hex(u.manifest_digest),
        merged: u.merged_checksum.map(checks::hex),
    }
}

/// Compare a seed-1, full-size run with `expected.json`.
fn golden_check(w: &Workload, u: &Untraced, expected: &Expected) -> Result<(), String> {
    if let Some((_, levels)) = w.model.rmat_scale_levels() {
        if u64::from(levels) != expected.rmat_levels {
            println!(
                "  golden value skipped: blessed for R-MAT levels={}, this host's L2 cache \
                 resolves levels={levels}",
                expected.rmat_levels
            );
            return Ok(());
        }
    }
    let golden = expected
        .get(w.name)
        .ok_or("no entry in expected.json; run --bless")?;
    let ours = golden_of(u);
    if *golden == ours {
        Ok(())
    } else {
        Err(format!(
            "expected.json has {golden:?}, the run produced {ours:?}"
        ))
    }
}

fn header(w: &Workload, seed: u64, p: usize) {
    let args = w.cli(&Shape::Own { p }, seed, Path::new("<dir>"));
    println!("== {} == kagen {}", w.name, args.join(" "));
}

fn run_untraced(
    o: &Options,
    bench: &Bench,
    expected: &Result<Expected, String>,
    ops: &mut Ops,
) -> Report {
    let mut report = Report::default();
    let plan = match o.mode {
        Mode::Quick | Mode::Bless => Plan::once(),
        _ => Plan::timed(o.seconds),
    };
    for w in &o.workloads {
        header(w, bench.seed, bench.p);
        let Some(u) = measure::untraced(w, bench, plan, ops) else {
            continue;
        };
        // Other seeds and sizes skip the golden comparison only.
        if o.mode != Mode::Quick && o.mode != Mode::Bless && bench.seed == GOLDEN_SEED {
            let check = expected.clone().and_then(|e| golden_check(w, &u, &e));
            ops.record("golden values of expected.json", check);
        }
        print_untraced(&u);
        let values = end_to_end_values(&u);
        report.line = END_TO_END
            .iter()
            .zip(values)
            .map(|((def, _), value)| (def.name, def.unit, value))
            .collect();
        report
            .workloads
            .push((w.name.to_string(), obj([("end_to_end", untraced_json(&u))])));
        report.aa.push((w.name, values, [0.0; 5]));
        report.golden.push((w.name.to_string(), golden_of(&u)));
    }
    if o.mode == Mode::Aa {
        println!("-- second set --");
        for (w, row) in o.workloads.iter().zip(&mut report.aa) {
            header(w, bench.seed, bench.p);
            if let Some(u) = measure::untraced(w, bench, plan, ops) {
                print_untraced(&u);
                row.2 = end_to_end_values(&u);
            }
        }
    }
    report
}

fn run_traced(o: &Options, bench: &Bench, out_dir: &Path, ops: &mut Ops) -> Report {
    let mut report = Report::default();
    // Harness preparation, once: the ceilings, the floor under every
    // command, the kernel probes.
    let ceilings = Ceilings::measure(bench.seed, bench.scratch.path()).map_err(|e| e.to_string());
    let Some(ceilings) = ops.record("machine ceilings", ceilings) else {
        return report;
    };
    let min_run_ms = traced::min_run_ms(bench, ops);
    let probes = kernels::run(bench.seed);
    for w in &o.workloads {
        header(w, bench.seed, bench.p);
        let mut m = traced::traced(w, bench, &ceilings, out_dir, ops);
        m.extend(ceilings.metrics());
        m.extend(min_run_ms.map(|ms| ("cli.min_run_ms", ms)));
        m.extend(probes.iter().copied());
        report.line.clear();
        for def in &PER_LAYER {
            let value = m.get(def.name).copied();
            let text = value.map_or("n/a".to_string(), sig6);
            println!("  {:<36}{text:>16} {}", def.name, def.unit);
            // What does not apply to the workload reads 0.
            report.line.push((def.name, def.unit, value.unwrap_or(0.0)));
        }
        let mut fields: Vec<(String, Json)> = report
            .line
            .iter()
            .map(|&(name, _, value)| (name.to_string(), Json::Num(value)))
            .collect();
        fields.push((
            "machine.memcpy_buffer_bytes".to_string(),
            Json::Int(ceilings.memcpy_buffer_bytes),
        ));
        report
            .workloads
            .push((w.name.to_string(), obj([("per_layer", Json::Obj(fields))])));
    }
    report
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("run") => {}
        Some("describe") => {
            print!("{}", metrics::benchmark_json());
            return ExitCode::SUCCESS;
        }
        // What the harness runs itself as for one `setup_s` sample.
        Some(measure::FIRST_BATCH_COMMAND) => {
            let (name, seed, size) = (args.next(), args.next(), args.next());
            let w = name.as_deref().and_then(workloads::by_name);
            let seed = seed.and_then(|seed| seed.parse().ok());
            let (Some(w), Some(seed)) = (w, seed) else {
                usage("first-batch wants a workload, a seed and quick|full")
            };
            let w = if size.as_deref() == Some("quick") {
                w.quick()
            } else {
                *w
            };
            println!("{}", measure::time_to_first_batch(&w, seed));
            return ExitCode::SUCCESS;
        }
        Some("--help" | "-h") | None => usage("usage"),
        Some(other) => usage(&format!("unknown command '{other}'")),
    }
    let o = parse(args);
    let root = repo_root();
    let out_dir = root.join("benchmark").join("out");
    let mut ops = Ops::default();

    let scratch_parent = o
        .scratch
        .clone()
        .unwrap_or_else(|| scratch::default_parent(&out_dir));
    let scratch = match Scratch::create(&scratch_parent) {
        Ok(scratch) => scratch,
        Err(e) => {
            eprintln!("kagen-benchmark: no scratch directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let env = Environment::record(&root, &scratch.fs_type);
    println!(
        "kagen-benchmark {}: seed {}, P = {} of {} cores, {}, {}, scratch {} on {}, LLC {} KiB, \
         commit {}",
        o.mode.name(),
        o.seed,
        env.p,
        env.nproc,
        env.cpu_model,
        env.rustc,
        scratch.path().display(),
        env.scratch_fs,
        env.llc_bytes >> 10,
        env.git_commit
    );
    if o.mode == Mode::Quick {
        println!("QUICK: 1/64-size instances, one repetition; NOT comparable with any other run");
    }

    // A missing, stale or foreign binary is a failed operation naming
    // the path, and nothing is measured with it.
    let exe = match &o.kagen {
        Some(path) => Ok(path.clone()),
        None => build_kagen(&root),
    };
    let kagen = ops.record("kagen binary", exe).map(|exe| Kagen {
        exe,
        stderr_log: scratch.path().join("stderr.log"),
    });
    let kagen = kagen.filter(|kagen| {
        let probe = probe_binary(kagen, &scratch, o.seed);
        ops.record("kagen binary agrees with the linked library", probe)
            .is_some()
    });

    let expected_path = root.join("benchmark").join("expected.json");
    let mut report = Report::default();
    if let Some(kagen) = &kagen {
        let bench = Bench {
            kagen,
            scratch: &scratch,
            seed: o.seed,
            nproc: env.nproc,
            p: env.p,
            quick: o.mode == Mode::Quick,
        };
        report = if o.mode == Mode::Traced {
            run_traced(&o, &bench, &out_dir, &mut ops)
        } else {
            let expected = std::fs::read_to_string(&expected_path)
                .map_err(|e| format!("{}: {e}", expected_path.display()))
                .and_then(|text| Expected::from_json(&text));
            run_untraced(&o, &bench, &expected, &mut ops)
        };
    }
    let aa = if o.mode == Mode::Aa {
        print_aa(&report, &mut ops)
    } else {
        Vec::new()
    };

    if o.mode == Mode::Bless {
        let blessed = if ops.failed == 0 && report.golden.len() == WORKLOADS.len() {
            let expected = Expected {
                rmat_levels: WORKLOADS
                    .iter()
                    .find_map(|w| w.model.rmat_scale_levels())
                    .map_or(0, |(_, levels)| u64::from(levels)),
                workloads: std::mem::take(&mut report.golden),
            };
            std::fs::write(&expected_path, expected.to_json()).map_err(|e| e.to_string())
        } else {
            Err("an operation failed; expected.json is untouched".to_string())
        };
        if ops.record("expected.json rewritten", blessed).is_some() {
            println!("blessed {}", expected_path.display());
        }
    }

    println!(
        "failed_share {} fraction ({} of {} operations failed)",
        ops.failed_share(),
        ops.failed,
        ops.attempted
    );
    for failure in &ops.failures {
        println!("  FAILED {failure}");
    }
    let doc = obj([
        ("schema", "kagen-benchmark/v1".into()),
        ("mode", o.mode.name().into()),
        ("comparable", Json::Bool(o.mode != Mode::Quick)),
        ("seed", Json::Int(o.seed)),
        ("environment", env.to_json()),
        ("workloads", Json::Obj(report.workloads)),
        ("aa", Json::Arr(aa)),
        ("attempted", Json::Int(ops.attempted)),
        ("failed", Json::Int(ops.failed)),
        (
            "failures",
            Json::Arr(ops.failures.iter().map(|f| f.as_str().into()).collect()),
        ),
    ]);
    let doc_path = out_dir.join(format!("results-{}-seed{}.json", o.mode.name(), o.seed));
    match std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(&doc_path, doc.to_pretty()))
    {
        Ok(()) => println!("results document: {}", doc_path.display()),
        Err(e) => eprintln!("kagen-benchmark: cannot write {}: {e}", doc_path.display()),
    }
    // The driver asks for one workload and reads the last line.
    if o.workloads.len() == 1 && !report.line.is_empty() {
        println!("{}", result_line(&ops, &report.line));
    }
    drop(scratch);
    if ops.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! Golden CLI contract: what the `kagen` binary does with every flag in
//! every mode, with every model at the edges of its parameter ranges,
//! and with a list of argvs that are rejected for a reason of their own.
//!
//! Each cell runs the real binary in an empty scratch directory and pins
//! three things as a checked-in constant, `"<exit> <disk> <line>"`:
//! the exit code, whether the run changed anything on disk (`D`) or not
//! (`-`), and the first non-blank line of stderr with the scratch path, panic
//! location details and timings scrubbed. `{mode}` in an expectation
//! stands for the prefix of the mode's own error lines (`kagen <model>`,
//! `kagen stream`, `kagen launch`, `kagen worker`), so a row whose four
//! cells differ only by that prefix is written once.
//!
//! On a mismatch the test prints the whole table as it found it, in
//! source form.
//!
//! The last tests read the tables the binary is built from
//! (`kagen_repro::cli::{FLAGS, MODELS}`) directly: their rows are
//! well-formed, a model's `check` refuses exactly the corner rows whose
//! constructor would panic, and the argv `launch` hands a worker parses
//! back to the same instance.

use kagen_repro::cli::{self, Forward, Options, FLAGS, MODELS};
use std::path::Path;
use std::process::Command;

const KAGEN: &str = env!("CARGO_BIN_EXE_kagen");

#[derive(Clone, Copy, PartialEq, Debug)]
enum Mode {
    Materialize,
    Stream,
    Launch,
    Worker,
}
use Mode::*;

const MODES: [Mode; 4] = [Materialize, Stream, Launch, Worker];

impl Mode {
    fn prefix(self) -> &'static str {
        match self {
            Materialize => "kagen <model>",
            Stream => "kagen stream",
            Launch => "kagen launch",
            Worker => "kagen worker",
        }
    }

    /// `model_args` as this mode runs them: the mode word, one thread
    /// and one worker (so log lines come in one order), and the flags
    /// the mode cannot run without. `extra` goes last and wins.
    fn argv(self, model_args: &str, extra: &str) -> String {
        let (word, required) = match self {
            Materialize => ("", ""),
            Stream => ("stream", "--shard-dir {root}/shards"),
            Launch => ("launch", "--shard-dir {root}/shards --workers 1"),
            Worker => ("worker", "--shard-dir {root}/shards --pe-range 0..1"),
        };
        format!("{word} {model_args} -t 1 {required} {extra}")
    }
}

/// The expected outcome of one row across the four modes.
enum Want {
    /// The same text in every mode once `{mode}` is expanded.
    All(&'static str),
    /// Materialize, stream, launch, worker.
    Each([&'static str; 4]),
}
use Want::*;

/// Every regular file under `dir`, relative path and bytes, sorted.
fn snapshot(dir: &Path) -> Vec<(String, Vec<u8>)> {
    fn walk(dir: &Path, rel: &str, out: &mut Vec<(String, Vec<u8>)>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let entry = entry.unwrap();
            let name = format!("{rel}/{}", entry.file_name().to_string_lossy());
            if entry.file_type().unwrap().is_dir() {
                out.push((format!("{name}/"), Vec::new()));
                walk(&entry.path(), &name, out);
            } else {
                out.push((name, std::fs::read(entry.path()).unwrap()));
            }
        }
    }
    let mut out = Vec::new();
    walk(dir, "", &mut out);
    out.sort();
    out
}

/// Replace every `<digits>.<digits>s` (a printed duration) by `<t>s`.
fn scrub_durations(line: &str) -> String {
    let bytes = line.as_bytes();
    let mut out = String::new();
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        let mut j = i;
        while j < bytes.len() && bytes[j].is_ascii_digit() {
            j += 1;
        }
        if j > start && j < bytes.len() && bytes[j] == b'.' {
            let mut k = j + 1;
            while k < bytes.len() && bytes[k].is_ascii_digit() {
                k += 1;
            }
            if k > j + 1 && k < bytes.len() && bytes[k] == b's' {
                out.push_str("<t>s");
                i = k + 1;
                continue;
            }
        }
        let end = j.max(start + 1);
        out.push_str(&line[start..end]);
        i = end;
    }
    out
}

/// The first non-blank stderr line, made comparable across runs and machines.
fn scrub(stderr: &str, root: &Path) -> String {
    let line = stderr.lines().find(|l| !l.trim().is_empty()).unwrap_or("");
    let line = line.replace(root.to_str().unwrap(), "<tmp>");
    // `thread 'main' (1234) panicked at crates/x/src/y.rs:12:9:` keeps
    // only the file: thread ids and line numbers are not a contract.
    if let Some((_, at)) = line.split_once(" panicked at ") {
        if line.starts_with("thread '") {
            let file = at.split(':').next().unwrap_or(at);
            return format!("panicked at {file}");
        }
    }
    scrub_durations(&line)
}

/// Run `argv` (whitespace-separated, `{root}` = a fresh scratch
/// directory holding `precreated` files) and describe what happened.
fn run_cell(tag: &str, argv: &str, precreated: &[(&str, &str)]) -> String {
    run_cell_stderr(tag, argv, precreated).0
}

/// [`run_cell`], and the whole of stderr (scratch path scrubbed).
fn run_cell_stderr(tag: &str, argv: &str, precreated: &[(&str, &str)]) -> (String, String) {
    let root = std::env::temp_dir().join(format!("kagen_cli_contract_{tag}"));
    std::fs::remove_dir_all(&root).ok();
    std::fs::create_dir_all(&root).unwrap();
    for (name, content) in precreated {
        std::fs::write(root.join(name), content).unwrap();
    }
    let before = snapshot(&root);
    let args: Vec<String> = argv
        .split_whitespace()
        .map(|a| a.replace("{root}", root.to_str().unwrap()))
        .collect();
    let out = Command::new(KAGEN)
        .args(&args)
        .env_remove("KAGEN_LOG")
        .output()
        .expect("cannot spawn kagen");
    let code = match out.status.code() {
        Some(c) => c.to_string(),
        None => "signal".to_string(),
    };
    let disk = if snapshot(&root) == before { '-' } else { 'D' };
    let stderr = String::from_utf8_lossy(&out.stderr).replace(root.to_str().unwrap(), "<tmp>");
    let line = scrub(&stderr, &root);
    std::fs::remove_dir_all(&root).ok();
    let cell = format!("{code} {disk} {line}").trim_end().to_string();
    (cell, stderr)
}

/// Run a `(row label, argv per mode)` table and compare it against the
/// checked-in expectations.
fn check_table(table: &str, rows: &[(String, [String; 4], &Want)]) {
    let mut found = String::new();
    let mut mismatches = Vec::new();
    for (i, (label, argvs, want)) in rows.iter().enumerate() {
        let got: Vec<String> = MODES
            .iter()
            .zip(argvs)
            .map(|(mode, argv)| run_cell(&format!("{table}_{i}_{mode:?}"), argv, &[]))
            .collect();
        // Source form: `{mode}` back in, one string if all four agree.
        let folded: Vec<String> = MODES
            .iter()
            .zip(&got)
            .map(|(m, g)| g.replacen(&format!("{}:", m.prefix()), "{mode}:", 1))
            .collect();
        if folded.iter().all(|f| *f == folded[0]) {
            found.push_str(&format!("    ({label:?}, All({:?})),\n", folded[0]));
        } else {
            found.push_str(&format!("    ({label:?}, Each([\n"));
            for f in &folded {
                found.push_str(&format!("        {f:?},\n"));
            }
            found.push_str("    ])),\n");
        }
        for (k, mode) in MODES.iter().enumerate() {
            let want = match want {
                All(w) => w,
                Each(w) => w[k],
            }
            .replace("{mode}", mode.prefix());
            if got[k] != want {
                mismatches.push(format!(
                    "{label} [{mode:?}]\n  want: {want}\n  got:  {}",
                    got[k]
                ));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} cells of the {table} table differ:\n{}\n\nthe table as found:\n{found}",
        mismatches.len(),
        mismatches.join("\n")
    );
}

/// The model every flag cell runs.
const TINY: &str = "gnm_undirected -n 64 -m 128 -c 4";

/// Every spelling the parser knows, with a value it accepts.
#[rustfmt::skip] // one row per line (or five), so a flipped row is a one-row diff
const FLAG_MATRIX: &[(&str, Want)] = &[
    ("-n 64", Each([
        "0 -",
        "0 D {mode}: wrote 4 shards, 228 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 228 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 63 edges in <t>s",
    ])),
    ("-m 128", Each([
        "0 -",
        "0 D {mode}: wrote 4 shards, 228 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 228 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 63 edges in <t>s",
    ])),
    ("-p 0.5", Each([
        "0 -",
        "0 D {mode}: wrote 4 shards, 228 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 228 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 63 edges in <t>s",
    ])),
    ("-r 0.5", Each([
        "0 -",
        "0 D {mode}: wrote 4 shards, 228 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 228 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 63 edges in <t>s",
    ])),
    ("-d 4", Each([
        "0 -",
        "0 D {mode}: wrote 4 shards, 228 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 228 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 63 edges in <t>s",
    ])),
    ("-g 3", Each([
        "0 -",
        "0 D {mode}: wrote 4 shards, 228 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 228 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 63 edges in <t>s",
    ])),
    ("-T 0.5", Each([
        "0 -",
        "0 D {mode}: wrote 4 shards, 228 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 228 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 63 edges in <t>s",
    ])),
    ("-b 2", Each([
        "0 -",
        "0 D {mode}: wrote 4 shards, 228 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 228 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 63 edges in <t>s",
    ])),
    ("--p-in 0.1", Each([
        "0 -",
        "0 D {mode}: wrote 4 shards, 228 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 228 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 63 edges in <t>s",
    ])),
    ("--p-out 0.1", Each([
        "0 -",
        "0 D {mode}: wrote 4 shards, 228 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 228 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 63 edges in <t>s",
    ])),
    ("--rmat-levels 4", Each([
        "0 -",
        "0 D {mode}: wrote 4 shards, 228 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 228 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 63 edges in <t>s",
    ])),
    ("--rmat-kernel linear", Each([
        "0 -",
        "0 D {mode}: wrote 4 shards, 228 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 228 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 63 edges in <t>s",
    ])),
    ("--gnp-leaves skip", Each([
        "0 -",
        "0 D {mode}: wrote 4 shards, 228 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 228 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 63 edges in <t>s",
    ])),
    ("-s 7", Each([
        "0 -",
        "0 D {mode}: wrote 4 shards, 226 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 226 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 62 edges in <t>s",
    ])),
    ("-c 4", Each([
        "0 -",
        "0 D {mode}: wrote 4 shards, 228 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 228 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 63 edges in <t>s",
    ])),
    ("-t 1", Each([
        "0 -",
        "0 D {mode}: wrote 4 shards, 228 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 228 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 63 edges in <t>s",
    ])),
    ("-o {root}/out", Each([
        "0 D",
        "2 - {mode}: -o requires --merge external (shards go to --shard-dir)",
        "2 - {mode}: -o requires `kagen stream --merge external` or `kagen <model>`",
        "2 - {mode}: -o requires `kagen stream --merge external` or `kagen <model>`",
    ])),
    ("-f binary", Each([
        "0 -",
        "0 D {mode}: wrote 4 shards, 228 edges, format binary -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 228 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 63 edges in <t>s",
    ])),
    ("--stats", Each([
        "0 - kagen: n = 64, m = 128, degrees 0/4.00/10, generated in <t>s",
        "0 D {mode}: wrote 4 shards, 228 edges, format compressed -> <tmp>/shards in <t>s",
        "2 - {mode}: --stats requires `kagen <model>` or `kagen stream`",
        "2 - {mode}: --stats requires `kagen <model>` or `kagen stream`",
    ])),
    ("--shard-dir {root}/shards", Each([
        "2 - {mode}: --shard-dir requires `kagen stream|launch|worker`",
        "0 D {mode}: wrote 4 shards, 228 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 228 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 63 edges in <t>s",
    ])),
    ("--merge external", Each([
        "2 - {mode}: --merge requires `kagen stream`",
        "0 D {mode}: wrote 4 shards, 228 edges, format compressed -> <tmp>/shards in <t>s",
        "2 - {mode}: --merge requires `kagen stream`",
        "2 - {mode}: --merge requires `kagen stream`",
    ])),
    ("--merge-budget 1000", Each([
        "2 - {mode}: --merge-budget requires `kagen stream`",
        "2 - {mode}: --merge-budget requires --merge external",
        "2 - {mode}: --merge-budget requires `kagen stream`",
        "2 - {mode}: --merge-budget requires `kagen stream`",
    ])),
    ("--workers 1", Each([
        "2 - {mode}: --workers requires `kagen launch`",
        "2 - {mode}: --workers requires `kagen launch`",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 228 edges in <t>s",
        "2 - {mode}: --workers requires `kagen launch`",
    ])),
    ("--resume", Each([
        "2 - {mode}: --resume requires `kagen launch`",
        "2 - {mode}: --resume requires `kagen launch`",
        "1 D {mode}: No such file or directory (os error 2)",
        "2 - {mode}: --resume requires `kagen launch`",
    ])),
    ("--no-validate", All("2 - {mode}: --no-validate is retired; spell it `--validate none`")),
    ("--validate full", Each([
        "2 - {mode}: --validate requires `kagen launch`",
        "2 - {mode}: --validate requires `kagen launch`",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 228 edges in <t>s",
        "2 - {mode}: --validate requires `kagen launch`",
    ])),
    ("--retries 1", Each([
        "2 - {mode}: --retries requires `kagen launch`",
        "2 - {mode}: --retries requires `kagen launch`",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 228 edges in <t>s",
        "2 - {mode}: --retries requires `kagen launch`",
    ])),
    ("--pe-range 0..1", Each([
        "2 - {mode}: --pe-range requires `kagen worker`",
        "2 - {mode}: --pe-range requires `kagen worker`",
        "2 - {mode}: --pe-range requires `kagen worker` (launch plans ranks itself)",
        "0 D {mode}: PEs 0..1 -> 1 shards, 63 edges in <t>s",
    ])),
    ("--rank 3", Each([
        "2 - {mode}: --rank requires `kagen worker`",
        "2 - {mode}: --rank requires `kagen worker`",
        "2 - {mode}: --rank requires `kagen worker`",
        "0 D kagen worker rank 3: PEs 0..1 -> 1 shards, 63 edges in <t>s",
    ])),
    ("-v", Each([
        "0 -",
        "0 D {mode}: wrote 4 shards, 228 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 228 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 63 edges in <t>s",
    ])),
    ("-vv", Each([
        "0 -",
        "0 D {mode}: wrote 4 shards, 228 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 228 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 63 edges in <t>s",
    ])),
    ("-q", Each([
        "0 -",
        "0 D",
        "0 D",
        "0 D",
    ])),
    ("-qq", Each([
        "0 -",
        "0 D",
        "0 D",
        "0 D",
    ])),
    ("--metrics-out {root}/m.json", Each([
        "2 - {mode}: --metrics-out requires `kagen stream|launch|worker`",
        "0 D {mode}: wrote 4 shards, 228 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 228 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 63 edges in <t>s",
    ])),
    ("--trace-out {root}/t.json", Each([
        "0 D",
        "0 D {mode}: wrote 4 shards, 228 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 228 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 63 edges in <t>s",
    ])),
    ("--metrics-sidecar", Each([
        "2 - {mode}: --metrics-sidecar requires `kagen worker` (launch --metrics-out sets it)",
        "2 - {mode}: --metrics-sidecar requires `kagen worker` (launch --metrics-out sets it)",
        "2 - {mode}: --metrics-sidecar requires `kagen worker` (launch --metrics-out sets it)",
        "0 D {mode}: PEs 0..1 -> 1 shards, 63 edges in <t>s",
    ])),
    ("--trace-sidecar", Each([
        "2 - {mode}: --trace-sidecar requires `kagen worker` (launch --trace-out sets it)",
        "2 - {mode}: --trace-sidecar requires `kagen worker` (launch --trace-out sets it)",
        "2 - {mode}: --trace-sidecar requires `kagen worker` (launch --trace-out sets it)",
        "0 D {mode}: PEs 0..1 -> 1 shards, 63 edges in <t>s",
    ])),
    ("--heartbeat", Each([
        "2 - {mode}: --heartbeat requires `kagen worker` (launch --progress/--stall-timeout set it)",
        "2 - {mode}: --heartbeat requires `kagen worker` (launch --progress/--stall-timeout set it)",
        "2 - {mode}: --heartbeat requires `kagen worker` (launch --progress/--stall-timeout set it)",
        "0 D {mode}: PEs 0..1 -> 1 shards, 63 edges in <t>s",
    ])),
    ("--progress 1", Each([
        "2 - {mode}: --progress requires `kagen launch`",
        "2 - {mode}: --progress requires `kagen launch`",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 228 edges in <t>s",
        "2 - {mode}: --progress requires `kagen launch`",
    ])),
    ("--stall-timeout 5", Each([
        "2 - {mode}: --stall-timeout requires `kagen launch`",
        "2 - {mode}: --stall-timeout requires `kagen launch`",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 228 edges in <t>s",
        "2 - {mode}: --stall-timeout requires `kagen launch`",
    ])),
];

#[test]
fn flag_by_mode_matrix() {
    let rows: Vec<_> = FLAG_MATRIX
        .iter()
        .map(|(flag, want)| {
            let argvs = MODES.map(|m| m.argv(TINY, flag));
            (flag.to_string(), argvs, want)
        })
        .collect();
    check_table("flags", &rows);
}

/// Each model at, just inside and just outside every range its
/// constructor asserts (`-c 4` unless the row says otherwise).
#[rustfmt::skip] // one row per line (or five), so a flipped row is a one-row diff
const MODEL_CORNERS: &[(&str, Want)] = &[
    ("gnm_directed -n 10 -m 89", Each([
        "0 -",
        "0 D {mode}: wrote 4 shards, 89 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 89 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 0 edges in <t>s",
    ])),
    ("gnm_directed -n 10 -m 90", Each([
        "0 -",
        "0 D {mode}: wrote 4 shards, 90 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 90 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 0 edges in <t>s",
    ])),
    ("gnm_directed -n 10 -m 91", All("2 - {mode}: gnm_directed: -m must be <= n(n-1) = 90, got 91")),
    ("gnm_directed -n 0 -m 0", Each([
        "0 -",
        "0 D {mode}: wrote 4 shards, 0 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 0 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 0 edges in <t>s",
    ])),
    ("gnm_directed -n 0 -m 1", All("2 - {mode}: gnm_directed: -m must be <= n(n-1) = 0, got 1")),
    ("gnm_directed -n 12738103345051545 -m 10", Each([
        "0 -",
        "0 D {mode}: wrote 4 shards, 10 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 10 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 0 edges in <t>s",
    ])),
    ("gnm_directed -n 12738103345051546 -m 10", All("2 - {mode}: gnm_directed: -n must be small enough that n(n-1) <= 2^107, got 12738103345051546")),
    ("gnm_directed -n 1152921504606846976 -m 10 -c 1", All("2 - {mode}: gnm_directed: -n must be small enough that n(n-1) <= 2^107, got 1152921504606846976")),
    ("gnm_undirected -n 10 -m 44", Each([
        "0 -",
        "0 D {mode}: wrote 4 shards, 80 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 80 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 17 edges in <t>s",
    ])),
    ("gnm_undirected -n 10 -m 45", Each([
        "0 -",
        "0 D {mode}: wrote 4 shards, 82 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 82 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 17 edges in <t>s",
    ])),
    ("gnm_undirected -n 10 -m 46", All("2 - {mode}: gnm_undirected: -m must be <= n(n-1)/2 = 45, got 46")),
    ("gnm_undirected -n 64 -m 128 -c 1", Each([
        "0 -",
        "0 D {mode}: wrote 1 shards, 128 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..1 -> 1 shards, 128 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 128 edges in <t>s",
    ])),
    ("gnm_undirected -n 64 -m 128 -c 0", Each([
        "2 - {mode}: gnm_undirected: -c must be >= 1, got 0",
        "2 - {mode}: gnm_undirected: -c must be >= 1, got 0",
        "2 - {mode}: gnm_undirected: -c must be >= 1, got 0",
        "2 - {mode}: --pe-range 0..1 is not a non-empty sub-range of 0..0 (-c)",
    ])),
    ("gnm_undirected -n 8589934592 -m 3000 -c 1", All("2 - {mode}: gnm_undirected: -c must be >= 3 for n = 8589934592 (a chunk's vertex pairs must fit 64 bits), got 1")),
    ("gnm_undirected -n 8589934592 -m 3000 -c 2", All("2 - {mode}: gnm_undirected: -c must be >= 3 for n = 8589934592 (a chunk's vertex pairs must fit 64 bits), got 2")),
    ("gnm_undirected -n 8589934592 -m 3000 -c 3", Each([
        "0 -",
        "0 D {mode}: wrote 3 shards, 5042 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..3 -> 3 shards, 5042 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 1652 edges in <t>s",
    ])),
    ("gnp_directed -n 64 -p 0", Each([
        "0 -",
        "0 D {mode}: wrote 4 shards, 0 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 0 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 0 edges in <t>s",
    ])),
    ("gnp_directed -n 64 -p 0.01", Each([
        "0 -",
        "0 D {mode}: wrote 4 shards, 41 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 41 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 0 edges in <t>s",
    ])),
    ("gnp_directed -n 64 -p 1", Each([
        "0 -",
        "0 D {mode}: wrote 4 shards, 4032 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 4032 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 1008 edges in <t>s",
    ])),
    ("gnp_directed -n 64 -p 1.01", All("2 - {mode}: gnp_directed: -p must be in [0, 1], got 1.01")),
    ("gnp_directed -n 64 -p -0.01", All("2 - {mode}: gnp_directed: -p must be in [0, 1], got -0.01")),
    ("gnp_directed -n 64 -p nan", All("2 - {mode}: gnp_directed: -p must be in [0, 1], got NaN")),
    ("gnp_directed -n 12738103345051545 -p 0", Each([
        "0 -",
        "0 D {mode}: wrote 4 shards, 0 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 0 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 0 edges in <t>s",
    ])),
    ("gnp_directed -n 12738103345051546 -p 0", All("2 - {mode}: gnp_directed: -n must be small enough that n(n-1) <= 2^107, got 12738103345051546")),
    ("gnp_directed -n 1152921504606846976 -p 1e-35 -c 1", All("2 - {mode}: gnp_directed: -n must be small enough that n(n-1) <= 2^107, got 1152921504606846976")),
    ("gnp_undirected -n 64 -p 0", Each([
        "0 -",
        "0 D {mode}: wrote 4 shards, 0 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 0 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 0 edges in <t>s",
    ])),
    ("gnp_undirected -n 64 -p 0.99", Each([
        "0 -",
        "0 D {mode}: wrote 4 shards, 3518 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 3518 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 881 edges in <t>s",
    ])),
    ("gnp_undirected -n 64 -p 1", Each([
        "0 -",
        "0 D {mode}: wrote 4 shards, 3552 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 3552 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 888 edges in <t>s",
    ])),
    ("gnp_undirected -n 64 -p 2", All("2 - {mode}: gnp_undirected: -p must be in [0, 1], got 2")),
    ("gnp_undirected -n 64 -p -0.01", All("2 - {mode}: gnp_undirected: -p must be in [0, 1], got -0.01")),
    ("gnp_undirected -n 8589934592 -p 1e-16 -c 1", All("2 - {mode}: gnp_undirected: -c must be >= 3 for n = 8589934592 (a chunk's vertex pairs must fit 64 bits), got 1")),
    ("gnp_undirected -n 8589934592 -p 1e-16 -c 3", Each([
        "0 -",
        "0 D {mode}: wrote 3 shards, 6266 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..3 -> 3 shards, 6266 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 2073 edges in <t>s",
    ])),
    ("rgg2d -n 0", All("2 - {mode}: rgg2d: -n must be >= 1, got 0")),
    ("rgg2d -n 1", Each([
        "0 -",
        "0 D {mode}: wrote 1 shards, 0 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..1 -> 1 shards, 0 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 0 edges in <t>s",
    ])),
    ("rgg2d -n 64 -r 0", All("2 - {mode}: rgg2d: -r must be in (0, 1), got 0")),
    ("rgg2d -n 64 -r 0.01", Each([
        "0 -",
        "0 D {mode}: wrote 4 shards, 2 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 2 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 2 edges in <t>s",
    ])),
    ("rgg2d -n 64 -r 0.99", Each([
        "0 -",
        "0 D {mode}: wrote 1 shards, 1959 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..1 -> 1 shards, 1959 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 1959 edges in <t>s",
    ])),
    ("rgg2d -n 64 -r 1", All("2 - {mode}: rgg2d: -r must be in (0, 1), got 1")),
    ("rgg2d -n 64 -r 5", All("2 - {mode}: rgg2d: -r must be in (0, 1), got 5")),
    ("rgg3d -n 0", All("2 - {mode}: rgg3d: -n must be >= 1, got 0")),
    ("rgg3d -n 1", Each([
        "0 -",
        "0 D {mode}: wrote 1 shards, 0 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..1 -> 1 shards, 0 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 0 edges in <t>s",
    ])),
    ("rgg3d -n 64 -r 0", All("2 - {mode}: rgg3d: -r must be in (0, 1), got 0")),
    ("rgg3d -n 64 -r 0.02", Each([
        "0 -",
        "0 D {mode}: wrote 1 shards, 0 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..1 -> 1 shards, 0 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 0 edges in <t>s",
    ])),
    ("rgg3d -n 64 -r 0.99", Each([
        "0 -",
        "0 D {mode}: wrote 1 shards, 1840 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..1 -> 1 shards, 1840 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 1840 edges in <t>s",
    ])),
    ("rgg3d -n 64 -r 1", All("2 - {mode}: rgg3d: -r must be in (0, 1), got 1")),
    ("rdg2d -n 3", All("2 - {mode}: rdg2d: -n must be >= 4, got 3")),
    ("rdg2d -n 4", Each([
        "0 -",
        "0 D {mode}: wrote 1 shards, 6 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..1 -> 1 shards, 6 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 6 edges in <t>s",
    ])),
    ("rdg2d -n 5", Each([
        "0 -",
        "0 D {mode}: wrote 1 shards, 9 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..1 -> 1 shards, 9 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 9 edges in <t>s",
    ])),
    ("rdg2d -n 12 -s 2", Each([
        "0 -",
        "0 D {mode}: wrote 4 shards, 59 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 59 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 17 edges in <t>s",
    ])),
    ("rdg3d -n 4", All("2 - {mode}: rdg3d: -n must be >= 5, got 4")),
    ("rdg3d -n 5", Each([
        "0 -",
        "0 D {mode}: wrote 1 shards, 10 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..1 -> 1 shards, 10 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 10 edges in <t>s",
    ])),
    ("rdg3d -n 6", Each([
        "0 -",
        "0 D {mode}: wrote 1 shards, 15 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..1 -> 1 shards, 15 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 15 edges in <t>s",
    ])),
    ("rdg3d -n 32", Each([
        "0 -",
        "0 D {mode}: wrote 1 shards, 238 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..1 -> 1 shards, 238 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 238 edges in <t>s",
    ])),
    ("rhg -n 1 -d 0.5 -g 3", All("2 - {mode}: rhg: -n must be >= 2, got 1")),
    ("rhg -n 2 -d 0.5 -g 3", Each([
        "0 -",
        "0 D {mode}: wrote 4 shards, 0 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 0 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 0 edges in <t>s",
    ])),
    ("rhg -n 64 -d 0 -g 3", All("2 - {mode}: rhg: -d must be > 0, got 0")),
    ("rhg -n 64 -d 0.01 -g 3", Each([
        "0 -",
        "0 D {mode}: wrote 4 shards, 0 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 0 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 0 edges in <t>s",
    ])),
    ("rhg -n 64 -d 4 -g 2", All("2 - {mode}: rhg: -g must be > 2, got 2")),
    ("rhg -n 64 -d 4 -g 2.01", Each([
        "0 -",
        "0 D {mode}: wrote 4 shards, 0 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 0 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 0 edges in <t>s",
    ])),
    ("rhg -n 64 -d 4 -g 1.5", All("2 - {mode}: rhg: -g must be > 2, got 1.5")),
    ("rhg -n 2 -d 8 -g 2.8", All("2 - {mode}: rhg: -d must be small enough for n = 2 (disk radius -0.43203326795337516 <= 0), got 8")),
    ("rhg -n 3 -d 8 -g 2.8", Each([
        "0 -",
        "0 D {mode}: wrote 4 shards, 5 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 5 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 0 edges in <t>s",
    ])),
    ("srhg -n 1 -d 0.5 -g 3", All("2 - {mode}: srhg: -n must be >= 2, got 1")),
    ("srhg -n 2 -d 0.5 -g 3", Each([
        "0 -",
        "0 D {mode}: wrote 4 shards, 0 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 0 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 0 edges in <t>s",
    ])),
    ("srhg -n 64 -d 0 -g 3", All("2 - {mode}: srhg: -d must be > 0, got 0")),
    ("srhg -n 64 -d 0.01 -g 3", Each([
        "0 -",
        "0 D {mode}: wrote 4 shards, 0 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 0 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 0 edges in <t>s",
    ])),
    ("srhg -n 64 -d 4 -g 2", All("2 - {mode}: srhg: -g must be > 2, got 2")),
    ("srhg -n 64 -d 4 -g 2.01", Each([
        "0 -",
        "0 D {mode}: wrote 4 shards, 0 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 0 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 0 edges in <t>s",
    ])),
    ("srhg -n 2 -d 8 -g 2.8", All("2 - {mode}: srhg: -d must be small enough for n = 2 (disk radius -0.43203326795337516 <= 0), got 8")),
    ("srhg -n 3 -d 8 -g 2.8", Each([
        "0 -",
        "0 D {mode}: wrote 4 shards, 3 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 3 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 0 edges in <t>s",
    ])),
    ("soft-rhg -n 1 -d 0.5 -g 3", All("2 - {mode}: soft-rhg: -n must be >= 2, got 1")),
    ("soft-rhg -n 2 -d 0.5 -g 3", Each([
        "0 -",
        "0 D {mode}: wrote 4 shards, 0 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 0 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 0 edges in <t>s",
    ])),
    ("soft-rhg -n 64 -d 0 -g 3", All("2 - {mode}: soft-rhg: -d must be > 0, got 0")),
    ("soft-rhg -n 64 -d 0.01 -g 3", Each([
        "0 -",
        "0 D {mode}: wrote 4 shards, 0 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 0 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 0 edges in <t>s",
    ])),
    ("soft-rhg -n 64 -d 4 -g 2", All("2 - {mode}: soft-rhg: -g must be > 2, got 2")),
    ("soft-rhg -n 64 -d 4 -g 2.01", Each([
        "0 -",
        "0 D {mode}: wrote 4 shards, 0 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 0 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 0 edges in <t>s",
    ])),
    ("soft-rhg -n 2 -d 8 -g 2.8", All("2 - {mode}: soft-rhg: -d must be small enough for n = 2 (disk radius -0.43203326795337516 <= 0), got 8")),
    ("soft-rhg -n 3 -d 8 -g 2.8", Each([
        "0 -",
        "0 D {mode}: wrote 4 shards, 5 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 5 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 0 edges in <t>s",
    ])),
    ("soft-rhg -n 64 -d 4 -g 3 -T 0", All("2 - {mode}: soft-rhg: -T must be in (0, 1), got 0")),
    ("soft-rhg -n 64 -d 4 -g 3 -T 0.01", Each([
        "0 -",
        "0 D {mode}: wrote 4 shards, 114 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 114 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 28 edges in <t>s",
    ])),
    ("soft-rhg -n 64 -d 4 -g 3 -T 0.99", Each([
        "0 -",
        "0 D {mode}: wrote 4 shards, 483 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 483 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 107 edges in <t>s",
    ])),
    ("soft-rhg -n 64 -d 4 -g 3 -T 1", All("2 - {mode}: soft-rhg: -T must be in (0, 1), got 1")),
    ("ba -n 64 -d 0", All("2 - {mode}: ba: -d must be a positive integer (with n*d <= 2^63), got 0")),
    ("ba -n 64 -d 0.5", All("2 - {mode}: ba: -d must be a positive integer (with n*d <= 2^63), got 0.5")),
    ("ba -n 64 -d 1", Each([
        "0 -",
        "0 D {mode}: wrote 4 shards, 64 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 64 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 16 edges in <t>s",
    ])),
    ("ba -n 64 -d 2", Each([
        "0 -",
        "0 D {mode}: wrote 4 shards, 128 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 128 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 32 edges in <t>s",
    ])),
    ("ba -n 64 -d 2.7", All("2 - {mode}: ba: -d must be a positive integer (with n*d <= 2^63), got 2.7")),
    ("ba -n 64 -d -1", All("2 - {mode}: ba: -d must be a positive integer (with n*d <= 2^63), got -1")),
    ("ba -n 3458764513820540928 -d 4", All("2 - {mode}: ba: -d must be a positive integer (with n*d <= 2^63), got 4")),
    ("rmat -n 9223372036854775808 -m 16", Each([
        "0 -",
        "0 D {mode}: wrote 4 shards, 16 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 16 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 4 edges in <t>s",
    ])),
    ("rmat -n 9223372036854775809 -m 16", All("2 - {mode}: rmat: needs n <= 2^63, got 9223372036854775809")),
    ("rmat -n 64 -m 128 --rmat-levels 1", Each([
        "0 -",
        "0 D {mode}: wrote 4 shards, 128 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 128 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 32 edges in <t>s",
    ])),
    ("rmat -n 64 -m 128 --rmat-levels 12", Each([
        "0 -",
        "0 D {mode}: wrote 4 shards, 128 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 128 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 32 edges in <t>s",
    ])),
    ("rmat -n 64 -m 128 --rmat-levels 13", All("2 - {mode}: --rmat-levels 13 out of range (want 1..=12)")),
    ("sbm -n 64 -b 0", All("2 - {mode}: sbm: -b must be in 1..=n, got 0")),
    ("sbm -n 64 -b 1", Each([
        "0 -",
        "0 D {mode}: wrote 4 shards, 23 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 23 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 23 edges in <t>s",
    ])),
    ("sbm -n 64 -b 64", Each([
        "0 -",
        "0 D {mode}: wrote 4 shards, 4 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 4 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 0 edges in <t>s",
    ])),
    ("sbm -n 64 -b 65", All("2 - {mode}: sbm: -b must be in 1..=n, got 65")),
    ("sbm -n 8589934592 -b 1 --p-in 1e-16 --p-out 0", All("2 - {mode}: sbm: -b must be >= 3 for n = 8589934592 (a block pair's vertex pairs must fit 64 bits), got 1")),
    ("sbm -n 8589934592 -b 2 --p-in 0 --p-out 1e-16", All("2 - {mode}: sbm: -b must be >= 3 for n = 8589934592 (a block pair's vertex pairs must fit 64 bits), got 2")),
    ("sbm -n 8589934592 -b 3 --p-in 0 --p-out 1e-16", Each([
        "0 -",
        "0 D {mode}: wrote 4 shards, 2416 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 2416 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 745 edges in <t>s",
    ])),
    ("sbm -n 64 -b 2 --p-in 0", Each([
        "0 -",
        "0 D {mode}: wrote 4 shards, 0 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 0 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 0 edges in <t>s",
    ])),
    ("sbm -n 64 -b 2 --p-in 1", Each([
        "0 -",
        "0 D {mode}: wrote 4 shards, 992 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 992 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 496 edges in <t>s",
    ])),
    ("sbm -n 64 -b 2 --p-in 1.01", All("2 - {mode}: sbm: --p-in must be in [0, 1], got 1.01")),
    ("sbm -n 64 -b 2 --p-in -0.01", All("2 - {mode}: sbm: --p-in must be in [0, 1], got -0.01")),
    ("sbm -n 64 -b 2 --p-out 0", Each([
        "0 -",
        "0 D {mode}: wrote 4 shards, 9 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 9 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 6 edges in <t>s",
    ])),
    ("sbm -n 64 -b 2 --p-out 1", Each([
        "0 -",
        "0 D {mode}: wrote 4 shards, 1033 edges, format compressed -> <tmp>/shards in <t>s",
        "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 1033 edges in <t>s",
        "0 D {mode}: PEs 0..1 -> 1 shards, 6 edges in <t>s",
    ])),
    ("sbm -n 64 -b 2 --p-out 1.01", All("2 - {mode}: sbm: --p-out must be in [0, 1], got 1.01")),
    ("sbm -n 64 -b 2 --p-out -0.01", All("2 - {mode}: sbm: --p-out must be in [0, 1], got -0.01")),
];

#[test]
fn model_parameter_corners() {
    let rows: Vec<_> = MODEL_CORNERS
        .iter()
        .map(|(model_args, want)| {
            let chunks = if model_args.contains(" -c ") {
                ""
            } else {
                "-c 4"
            };
            let argvs = MODES.map(|m| m.argv(model_args, chunks));
            (model_args.to_string(), argvs, want)
        })
        .collect();
    check_table("corners", &rows);
}

/// `(name, content)` of files present before a run.
type Files = &'static [(&'static str, &'static str)];

/// Argvs rejected (or accepted) for a reason of their own: one mode
/// each, `{root}` holding the listed files beforehand.
#[rustfmt::skip] // one row per line (or five), so a flipped row is a one-row diff
const SPECIAL: &[(&str, Files, &str)] = &[
    ("", &[], "2 - kagen: no model given (see `kagen --help`)"),
    ("--help", &[], "0 -"),
    ("frobnicate -n 64", &[], "2 - kagen <model>: unknown model 'frobnicate' (see `kagen --help`)"),
    ("stream", &[], "2 - kagen stream: no model given (see `kagen --help`)"),
    ("gnm_undirected -n 64 -m 128 -c 4 --foo", &[], "2 - kagen <model>: unknown option '--foo' (see `kagen --help`)"),
    ("stream gnm_undirected -n 64 -m 128 -c 4 --shard-dir {root}/s --foo", &[], "2 - kagen stream: unknown option '--foo' (see `kagen --help`)"),
    ("launch gnm_undirected -n 64 -m 128 -c 4 --shard-dir {root}/s --foo", &[], "2 - kagen launch: unknown option '--foo' (see `kagen --help`)"),
    ("gnm_undirected -n 64 -m 128 -c 4 -n", &[], "2 - kagen <model>: -n wants a value <vertices>"),
    ("gnm_undirected -n 64 -m 128 -c 4 -n abc", &[], "2 - kagen <model>: -n wants a number, got 'abc'"),
    ("worker gnm_undirected -n 64 -m 128 -c 4 --shard-dir {root}/s --pe-range 3", &[], "2 - kagen worker: --pe-range wants `a..b`, got '3'"),
    ("worker gnm_undirected -n 64 -m 128 -c 4 --shard-dir {root}/s --pe-range a..b", &[], "2 - kagen worker: --pe-range wants a number, got 'a'"),
    ("gnm_directed -n 64 -m 128 -f bogus -o {root}/x.txt", &[("x.txt", "keep\n")], "2 - kagen <model>: unknown format 'bogus' (want edge-list | metis | binary | compressed)"),
    ("gnm_directed -n 64 -m 128 -f bogus", &[], "2 - kagen <model>: unknown format 'bogus' (want edge-list | metis | binary | compressed)"),
    ("gnm_directed -n 64 -m 128 -f metis -o {root}/x.txt", &[("x.txt", "keep\n")], "0 D"),
    ("stream gnm_undirected -n 64 -m 128 -c 4 --shard-dir {root}/s -f metis", &[], "2 - kagen stream: unknown shard format 'metis'"),
    ("stream gnm_undirected -n 64 -m 128 -c 4 --shard-dir {root}/s -f bogus", &[], "2 - kagen stream: unknown shard format 'bogus'"),
    ("launch gnm_undirected -n 64 -m 128 -c 4 --shard-dir {root}/s -f bogus", &[], "2 - kagen launch: unknown shard format 'bogus'"),
    ("stream gnm_undirected -n 64 -m 128 -c 4 --shard-dir {root}/s --merge sideways", &[], "2 - kagen stream: unknown merge mode 'sideways'"),
    ("stream gnm_undirected -n 64 -m 128 -c 4 --shard-dir {root}/s -o {root}/merged", &[], "2 - kagen stream: -o requires --merge external (shards go to --shard-dir)"),
    ("stream gnm_undirected -n 64 -m 128 -c 4 --shard-dir {root}/s --merge-budget 10", &[], "2 - kagen stream: --merge-budget requires --merge external"),
    ("stream gnm_undirected -n 64 -m 128 -c 4 --shard-dir {root}/s --merge none --merge-budget 10", &[], "2 - kagen stream: --merge-budget requires --merge external"),
    ("stream gnm_undirected -n 64 -m 128 -c 4 --shard-dir {root}/s --merge external --merge-budget 0", &[], "2 - kagen stream: --merge-budget must be >= 1"),
    ("stream gnm_undirected -n 64 -m 128 -c 4 --shard-dir {root}/s --merge external --merge-budget 1", &[], "0 D kagen stream: wrote 4 shards, 228 edges, format compressed -> <tmp>/s in <t>s"),
    ("launch gnm_undirected -n 64 -m 128 -c 4 --shard-dir {root}/s --workers 1 --no-validate", &[], "2 - kagen launch: --no-validate is retired; spell it `--validate none`"),
    ("launch gnm_undirected -n 64 -m 128 -c 4 --shard-dir {root}/s --workers 1 --no-validate --validate none", &[], "2 - kagen launch: --no-validate is retired; spell it `--validate none`"),
    ("launch gnm_undirected -n 64 -m 128 -c 4 --shard-dir {root}/s --workers 1 --no-validate --validate full", &[], "2 - kagen launch: --no-validate is retired; spell it `--validate none`"),
    ("launch gnm_undirected -n 64 -m 128 -c 4 --shard-dir {root}/s --workers 1 --validate none", &[], "0 D kagen worker rank 0: PEs 0..4 -> 4 shards, 228 edges in <t>s"),
    ("launch gnm_undirected -n 64 -m 128 -c 4 --shard-dir {root}/s --workers 1 --validate maybe", &[], "2 - kagen launch: unknown validate mode 'maybe'"),
    ("launch gnm_undirected -n 64 -m 128 -c 4 --shard-dir {root}/s --workers 0", &[], "2 - kagen launch: --workers must be >= 1"),
    ("rmat -n 64 -m 128 -c 4 --rmat-levels 0", &[], "2 - kagen <model>: --rmat-levels 0 is retired; spell plain descent --rmat-kernel plain (same instance, same params string)"),
    ("stream rmat -n 64 -m 128 -c 4 --shard-dir {root}/s --rmat-levels 0", &[], "2 - kagen stream: --rmat-levels 0 is retired; spell plain descent --rmat-kernel plain (same instance, same params string)"),
    ("stream rmat -n 64 -m 128 -c 4 --shard-dir {root}/s --rmat-kernel plain --rmat-levels 0", &[], "2 - kagen stream: --rmat-levels 0 is retired; spell plain descent --rmat-kernel plain (same instance, same params string)"),
    ("stream rmat -n 64 -m 128 -c 4 --shard-dir {root}/s --rmat-kernel linear --rmat-levels 0", &[], "2 - kagen stream: --rmat-levels 0 is retired; spell plain descent --rmat-kernel plain (same instance, same params string)"),
    ("stream rmat -n 64 -m 128 -c 4 --shard-dir {root}/s --rmat-kernel plain --rmat-levels 4", &[], "2 - kagen stream: --rmat-levels 4 conflicts with --rmat-kernel plain (only 0 allowed)"),
    ("stream rmat -n 64 -m 128 -c 4 --shard-dir {root}/s --rmat-kernel plain", &[], "0 D kagen stream: wrote 4 shards, 128 edges, format compressed -> <tmp>/s in <t>s"),
    ("stream rmat -n 64 -m 128 -c 4 --shard-dir {root}/s --rmat-kernel table", &[], "2 - kagen stream: --rmat-kernel table is retired (slower than linear wherever it ran, capped at scale < 32); use --rmat-kernel linear, which defines a different instance per seed"),
    ("stream rmat -n 64 -m 128 -c 4 --shard-dir {root}/s --rmat-kernel liner", &[], "2 - kagen stream: unknown --rmat-kernel 'liner' (want linear | plain)"),
    ("worker ba -n 2305843009213693952 -d 4 -c 1125899906842624 --shard-dir {root}/s --pe-range 1125899906842623..1125899906842624", &[], "0 D kagen worker: PEs 1125899906842623..1125899906842624 -> 1 shards, 8192 edges in <t>s"),
    ("worker ba -n 2305843009213693953 -d 4 -c 1125899906842624 --shard-dir {root}/s --pe-range 1125899906842623..1125899906842624", &[], "2 - kagen worker: ba: -d must be a positive integer (with n*d <= 2^63), got 4"),
    ("stream rhg -n 1000 -c 18446744073709551615 --shard-dir {root}/s", &[], "2 - kagen stream: rhg: -c must be <= 192153584101141162 (one shard record per chunk must fit one allocation), got 18446744073709551615"),
    ("stream gnm_directed -n 1000 -c 18446744073709551615 --shard-dir {root}/s", &[], "2 - kagen stream: gnm_directed: -c must be <= 192153584101141162 (one shard record per chunk must fit one allocation), got 18446744073709551615"),
    ("stream ba -n 1000 -c 18446744073709551615 --shard-dir {root}/s", &[], "2 - kagen stream: ba: -c must be <= 192153584101141162 (one shard record per chunk must fit one allocation), got 18446744073709551615"),
    ("stream rmat -n 1000 -c 18446744073709551615 --shard-dir {root}/s", &[], "2 - kagen stream: rmat: -c must be <= 192153584101141162 (one shard record per chunk must fit one allocation), got 18446744073709551615"),
    ("stream gnp_directed -n 64 -c 4 --shard-dir {root}/s --gnp-leaves algo-d", &[], "0 D kagen stream: wrote 4 shards, 6 edges, format compressed -> <tmp>/s in <t>s"),
    ("stream gnp_directed -n 64 -c 4 --shard-dir {root}/s --gnp-leaves vitter", &[], "2 - kagen stream: unknown --gnp-leaves 'vitter' (want skip | algo-d)"),
    ("launch rhg -n 1000 -d 8 -g 1.5 -c 8 --shard-dir {root}/s --workers 2 --retries 2", &[], "2 - kagen launch: rhg: -g must be > 2, got 1.5"),
    ("launch gnm_undirected -n 64 -m 128 -c 4 --shard-dir {root}/s --progress 0", &[], "2 - kagen launch: --progress wants a positive interval, got 0"),
    ("worker gnm_undirected -n 64 -m 128 -c 4 --shard-dir {root}/s --pe-range 2..2", &[], "2 - kagen worker: --pe-range 2..2 is not a non-empty sub-range of 0..4 (-c)"),
    ("worker gnm_undirected -n 64 -m 128 -c 4 --shard-dir {root}/s --pe-range 0..5", &[], "2 - kagen worker: --pe-range 0..5 is not a non-empty sub-range of 0..4 (-c)"),
    ("worker gnm_undirected -n 64 -m 128 -c 4 --shard-dir {root}/s", &[], "2 - kagen worker: --pe-range is required"),
    ("stream gnm_undirected -n 64 -m 128 -c 4", &[], "2 - kagen stream: --shard-dir is required"),
];

#[test]
fn special_cases() {
    let mut found = String::new();
    let mut mismatches = Vec::new();
    for (i, (argv, precreated, want)) in SPECIAL.iter().enumerate() {
        let got = run_cell(&format!("special_{i}"), argv, precreated);
        found.push_str(&format!("    ({argv:?}, &{precreated:?}, {got:?}),\n"));
        if got != *want {
            mismatches.push(format!("{argv}\n  want: {want}\n  got:  {got}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} special cases differ:\n{}\n\nthe table as found:\n{found}",
        mismatches.len(),
        mismatches.join("\n")
    );
}

/// I/O failures past argument parsing: exit 1 and one line naming the
/// path, in every mode — never a panic (exit 101) with a backtrace.
/// (`-q` keeps the progress line of the stage that did succeed out.)
#[rustfmt::skip] // one row per line, so a flipped row is a one-row diff
const IO_FAILURES: &[(&str, Files, &str, &str)] = &[
    ("gnm_directed -n 64 -m 128 -o /nonexistent/x.txt", &[], "/nonexistent/x.txt", "1 - kagen: cannot create /nonexistent/x.txt: No such file or directory (os error 2)"),
    ("gnm_directed -n 64 -m 128 -f metis -o {root}/f/x.txt", &[("f", "")], "<tmp>/f/x.txt", "1 - kagen: cannot create <tmp>/f/x.txt: Not a directory (os error 20)"),
    ("stream gnm_directed -n 64 -m 128 -c 4 --shard-dir /proc/x", &[], "/proc/x", "1 - kagen stream: cannot write shards to /proc/x: No such file or directory (os error 2)"),
    ("stream gnm_directed -n 64 -m 128 -c 4 --shard-dir {root}/f/s", &[("f", "")], "<tmp>/f/s", "1 - kagen stream: cannot write shards to <tmp>/f/s: Not a directory (os error 20)"),
    ("stream gnm_directed -n 64 -m 128 -c 4 -q --shard-dir {root}/s --merge external -o /nonexistent/m.txt", &[], "/nonexistent/m.txt", "1 D kagen stream: cannot create /nonexistent/m.txt: No such file or directory (os error 2)"),
    ("stream gnm_directed -n 64 -m 128 -c 4 -q --shard-dir {root}/s --metrics-out {root}/f/m.json", &[("f", "")], "<tmp>/f/m.json", "1 D kagen stream: cannot write metrics file <tmp>/f/m.json: Not a directory (os error 20)"),
    ("worker gnm_directed -n 64 -m 128 -c 4 --shard-dir {root}/f --pe-range 0..1", &[("f", "")], "<tmp>/f", "1 - kagen worker: cannot write shards to <tmp>/f: File exists (os error 17)"),
    ("worker gnm_directed -n 64 -m 128 -c 4 -q --shard-dir {root}/s --pe-range 0..1 --trace-out {root}/f/t.json", &[("f", "")], "<tmp>/f/t.json", "1 D kagen worker: cannot write trace file <tmp>/f/t.json: Not a directory (os error 20)"),
    ("launch gnm_directed -n 64 -m 128 -c 4 --workers 1 --shard-dir {root}/f", &[("f", "")], "<tmp>/f", "1 - kagen launch: cannot create <tmp>/f: File exists (os error 17)"),
];

#[test]
fn io_failures_are_exit_codes_not_panics() {
    let mut found = String::new();
    let mut mismatches = Vec::new();
    for (i, (argv, precreated, path, want)) in IO_FAILURES.iter().enumerate() {
        let (got, stderr) = run_cell_stderr(&format!("io_{i}"), argv, precreated);
        found.push_str(&format!(
            "    ({argv:?}, &{precreated:?}, {path:?}, {got:?}),\n"
        ));
        if got != *want {
            mismatches.push(format!("{argv}\n  want: {want}\n  got:  {got}"));
        }
        let lines: Vec<&str> = stderr.lines().collect();
        assert!(
            lines.len() == 1 && lines[0].starts_with("kagen") && lines[0].contains(path),
            "{argv}: want one `kagen …` line naming {path}, got:\n{stderr}"
        );
        assert!(
            !stderr.contains("panicked") && !stderr.contains("stack backtrace"),
            "{argv}:\n{stderr}"
        );
    }
    assert!(
        mismatches.is_empty(),
        "{} I/O failure rows differ:\n{}\n\nthe table as found:\n{found}",
        mismatches.len(),
        mismatches.join("\n")
    );
}

/// `kagen <model> | head -1`: the reader going away is not an error.
#[test]
fn closed_stdout_ends_kagen_model_silently() {
    use std::io::{BufRead, BufReader};
    for format in ["edge-list", "metis", "binary", "compressed"] {
        // Far more output than a pipe buffers.
        let mut child = Command::new(KAGEN)
            .args("gnm_undirected -n 20000 -m 200000 -c 4 -f".split_whitespace())
            .arg(format)
            .env_remove("KAGEN_LOG")
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("cannot spawn kagen");
        let mut stdout = BufReader::new(child.stdout.take().unwrap());
        let mut first = Vec::new();
        stdout.read_until(b'\n', &mut first).unwrap();
        assert!(!first.is_empty(), "{format}: no output");
        drop(stdout);
        let out = child.wait_with_output().unwrap();
        assert_eq!(out.status.code(), Some(0), "{format}");
        assert!(
            out.stderr.is_empty(),
            "{format}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn scrubbing_keeps_what_matters() {
    let root = Path::new("/tmp/x");
    assert_eq!(
        scrub(
            "thread 'main' (9537) panicked at crates/core/src/er/directed.rs:54:9:\nm=91",
            root
        ),
        "panicked at crates/core/src/er/directed.rs"
    );
    assert_eq!(
        scrub(
            "kagen stream: wrote 4 shards -> /tmp/x/shards in 0.012s",
            root
        ),
        "kagen stream: wrote 4 shards -> <tmp>/shards in <t>s"
    );
    assert_eq!(
        scrub_durations("p=0.5 n=12 1.5x 10.25s."),
        "p=0.5 n=12 1.5x <t>s."
    );
}

fn strings(args: &str) -> Vec<String> {
    args.split_whitespace().map(String::from).collect()
}

#[test]
fn table_rows_are_well_formed() {
    let mut spellings: Vec<&str> = FLAGS.iter().flat_map(|f| f.names).copied().collect();
    let count = spellings.len();
    spellings.sort_unstable();
    spellings.dedup();
    assert_eq!(spellings.len(), count, "a spelling appears twice");
    for flag in FLAGS {
        assert!(!flag.names.is_empty());
        assert!(!flag.help.is_empty(), "{} has no help text", flag.name());
        assert_ne!(flag.modes(), 0, "{} is accepted nowhere", flag.name());
    }
    for model in MODELS {
        for flag in model.flags {
            assert!(
                FLAGS.iter().any(|f| std::ptr::eq(*f, *flag)),
                "{} reads {}, which is not in FLAGS",
                model.name,
                flag.name()
            );
            assert!(
                matches!(flag.forward, Forward::Param(_)),
                "{} reads {}, which is not forwarded as a parameter",
                model.name,
                flag.name()
            );
        }
    }
    // Every flag cell of the matrix is a real spelling and vice versa.
    let in_matrix: Vec<&str> = FLAG_MATRIX
        .iter()
        .map(|(cell, _)| cell.split_whitespace().next().unwrap())
        .filter(|name| *name != "--no-validate")
        .collect();
    assert_eq!(in_matrix.len(), count);
    assert!(in_matrix.iter().all(|name| spellings.contains(name)));
}

/// The corner row as `Options`, range checks bypassed: the model's
/// defaults with the row's values put in by the flags' own setters.
/// `None` if a setter refuses a value outright.
fn corner_options(row: &str) -> Option<Options> {
    let mut words = row.split_whitespace();
    let mut o = cli::parse(&strings(words.next().unwrap())).expect("defaults are valid");
    o.chunks = 4;
    while let Some(name) = words.next() {
        let flag = FLAGS.iter().find(|f| f.names.contains(&name)).unwrap();
        (flag.set)(&mut o, name, words.next().unwrap()).ok()?;
    }
    Some(o)
}

/// `check` and the constructors' own asserts state the same ranges: on
/// every corner row, `check` is `Ok` exactly when building the
/// generator and streaming PE 0 does not panic.
#[test]
fn check_refuses_exactly_what_would_panic() {
    for (row, _) in MODEL_CORNERS {
        let Some(o) = corner_options(row) else {
            continue;
        };
        let survives = std::panic::catch_unwind(|| {
            let mut edges = 0usize;
            o.build()
                .stream_pe_batched(0, &mut Vec::new(), &mut |batch| edges += batch.len());
        })
        .is_ok();
        // The one place `check` is stricter: a fractional BA degree ran,
        // silently truncated.
        let truncated = *row == "ba -n 64 -d 2.7";
        assert_eq!(
            o.check_model().is_ok() || truncated,
            survives,
            "{row}: check says {:?}",
            o.check_model()
        );
    }
}

/// What `launch` forwards, parsed as a worker would, is the same
/// instance: same params string, seed, chunks, format, telemetry.
#[test]
fn forwarded_argv_reparses_to_the_same_instance() {
    let common = "-s 9 -c 5 -f binary --shard-dir /tmp/x --metrics-out /tmp/m -v --progress 1";
    for extra in [
        "gnm_directed -n 400 -m 2000",
        "gnm_undirected -n 400 -m 2000",
        "gnp_directed -n 400 -p 0.01",
        "gnp_undirected -n 400 -p 0.01 --gnp-leaves algo-d",
        "rgg2d -n 300",
        "rgg3d -n 300 -r 0.2",
        "rdg2d -n 300",
        "rdg3d -n 200",
        "rhg -n 300 -d 6 -g 2.9",
        "srhg -n 300 -d 6 -g 2.9",
        "soft-rhg -n 300 -d 6 -g 2.9 -T 0.4",
        "ba -n 400 -d 4",
        "rmat -n 512 -m 4000",
        "rmat -n 512 -m 4000 --rmat-levels 3",
        "rmat -n 512 -m 4000 --rmat-kernel plain",
        "sbm -n 400 -b 3 --p-in 0.02 --p-out 0.002",
    ] {
        let launch = cli::parse(&strings(&format!("launch {extra} {common}"))).unwrap();
        let mut argv = vec!["worker".to_string()];
        argv.extend(cli::worker_args(&launch));
        argv.extend(strings("--pe-range 0..5 --rank 0"));
        let worker = cli::parse(&argv).unwrap_or_else(|e| panic!("{argv:?}: {e}"));
        assert_eq!(worker.params(), launch.params(), "{extra}");
        assert_eq!(worker.model.name, launch.model.name);
        assert_eq!(
            (worker.seed, worker.chunks, worker.threads, worker.verbosity),
            (9, 5, 1, 1),
            "{argv:?}"
        );
        assert_eq!(worker.shard_format(), launch.shard_format());
        assert_eq!(worker.shard_dir(), launch.shard_dir());
        assert!(worker.metrics_sidecar && worker.heartbeat && !worker.trace_sidecar);
        // Only the model's own parameters travel.
        for flag in FLAGS
            .iter()
            .filter(|f| matches!(f.forward, Forward::Param(_)))
        {
            let reads = launch.model.flags.iter().any(|f| std::ptr::eq(*f, *flag));
            assert!(
                reads || !argv.contains(&flag.name().to_string()),
                "{argv:?}"
            );
        }
    }
    assert_eq!(MODELS.len(), 14, "a new model wants a row above");
}

//! Multi-process integration tests of `kagen launch` / `kagen worker`:
//! real child processes, real shard files, real resume.
//!
//! The acceptance bar (ISSUE 3): a multi-process launch produces a
//! federated `manifest.json` **byte-identical** to a single-process
//! `kagen stream` run of the same `(seed, params)`, and `--resume` after
//! a killed worker or corrupted/deleted shard regenerates only the
//! damaged shards.

use std::path::PathBuf;
use std::process::Command;

const KAGEN: &str = env!("CARGO_BIN_EXE_kagen");

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kagen_it_cluster_{tag}"));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Run the kagen binary; returns (success, stderr).
fn kagen(args: &[&str], envs: &[(&str, &str)]) -> (bool, String) {
    let mut cmd = Command::new(KAGEN);
    cmd.args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("cannot spawn kagen");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// The stderr summary line of a successful launch, e.g.
/// `kagen launch: 2 ranks spawned, regenerated=[2, 6] reused=6 -> ...`.
fn launch_summary(stderr: &str) -> &str {
    stderr
        .lines()
        .find(|l| l.contains("federated manifest"))
        .unwrap_or_else(|| panic!("no launch summary in stderr:\n{stderr}"))
}

fn model_args(dir: &str) -> Vec<String> {
    [
        "gnm_undirected",
        "-n",
        "3000",
        "-m",
        "24000",
        "-c",
        "8",
        "-s",
        "42",
        "--shard-dir",
        dir,
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

fn read_manifest(dir: &std::path::Path) -> String {
    std::fs::read_to_string(dir.join("manifest.json")).expect("missing manifest.json")
}

#[test]
fn launch_matches_stream_byte_for_byte() {
    let launch_dir = tmp("fed_launch");
    let stream_dir = tmp("fed_stream");

    let mut args: Vec<String> = vec!["launch".into()];
    args.extend(model_args(launch_dir.to_str().unwrap()));
    args.extend(["--workers".into(), "3".into()]);
    let (ok, stderr) = kagen(&args.iter().map(|s| s.as_str()).collect::<Vec<_>>(), &[]);
    assert!(ok, "launch failed:\n{stderr}");
    assert!(stderr.contains("3 ranks spawned"), "{stderr}");

    let mut args: Vec<String> = vec!["stream".into()];
    args.extend(model_args(stream_dir.to_str().unwrap()));
    let (ok, stderr) = kagen(&args.iter().map(|s| s.as_str()).collect::<Vec<_>>(), &[]);
    assert!(ok, "stream failed:\n{stderr}");

    assert_eq!(
        read_manifest(&launch_dir),
        read_manifest(&stream_dir),
        "federated manifest must be byte-identical to the single-process run"
    );
    // Every shard file byte-identical too.
    for entry in std::fs::read_dir(&stream_dir).unwrap() {
        let name = entry.unwrap().file_name();
        let name = name.to_str().unwrap();
        if name.starts_with("shard-") {
            let a = std::fs::read(stream_dir.join(name)).unwrap();
            let b = std::fs::read(launch_dir.join(name)).unwrap();
            assert_eq!(a, b, "shard {name} differs between launch and stream");
        }
    }
    // The launch dir additionally holds the ledger and nothing else: no
    // rank report survives a successful run.
    for entry in std::fs::read_dir(&launch_dir).unwrap() {
        let name = entry.unwrap().file_name().into_string().unwrap();
        assert!(
            name.starts_with("shard-") || name == "manifest.json" || name == "ledger.json",
            "{name} left in the launch directory"
        );
    }
    assert!(launch_dir.join("ledger.json").exists());

    std::fs::remove_dir_all(&launch_dir).ok();
    std::fs::remove_dir_all(&stream_dir).ok();
}

#[test]
fn killed_worker_is_resumable_and_resume_spawns_only_missing_ranges() {
    let dir = tmp("killed");
    let mut args: Vec<String> = vec!["launch".into()];
    args.extend(model_args(dir.to_str().unwrap()));
    args.extend(["--workers".into(), "3".into()]);
    let argv: Vec<&str> = args.iter().map(|s| s.as_str()).collect();

    // The worker owning PE 4 (rank 1, PEs 2..5 for 8 chunks / 3
    // workers) writes PEs 2 and 3, then dies before PE 4 — so it never
    // reports a partial manifest and all three of its PEs stay pending.
    let (ok, stderr) = kagen(&argv, &[("KAGEN_WORKER_FAIL_PE", "4")]);
    assert!(!ok, "launch must fail when a worker dies:\n{stderr}");
    assert!(stderr.contains("resumable"), "{stderr}");
    assert!(!dir.join("manifest.json").exists());
    assert!(dir.join("ledger.json").exists());

    // Resume without the injection: only the dead rank's PEs re-run.
    let mut resume_args = args.clone();
    resume_args.push("--resume".into());
    let (ok, stderr) = kagen(
        &resume_args.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
        &[],
    );
    assert!(ok, "resume failed:\n{stderr}");
    let summary = launch_summary(&stderr);
    assert!(
        summary.contains("regenerated=[2, 3, 4]") && summary.contains("reused=5"),
        "resume must regenerate exactly the dead worker's range: {summary}"
    );

    // And the result matches a fresh single-process run.
    let stream_dir = tmp("killed_stream");
    let mut args: Vec<String> = vec!["stream".into()];
    args.extend(model_args(stream_dir.to_str().unwrap()));
    let (ok, _) = kagen(&args.iter().map(|s| s.as_str()).collect::<Vec<_>>(), &[]);
    assert!(ok);
    assert_eq!(read_manifest(&dir), read_manifest(&stream_dir));

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&stream_dir).ok();
}

/// The rank report is a worker's completion record: a worker that dies
/// mid-range leaves its earlier shards but no report, and one that
/// finishes leaves exactly one, written after its shards.
#[test]
fn rank_report_is_written_last_or_not_at_all() {
    let dir = tmp("report_last");
    let mut args: Vec<String> = vec!["worker".into()];
    args.extend(model_args(dir.to_str().unwrap()));
    args.extend(["--pe-range".into(), "2..5".into()]);
    let argv: Vec<&str> = args.iter().map(|s| s.as_str()).collect();
    let names = |dir: &std::path::Path| {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    };

    let (ok, stderr) = kagen(&argv, &[("KAGEN_WORKER_FAIL_PE", "4")]);
    assert!(!ok, "the injected failure must fail the worker:\n{stderr}");
    assert_eq!(names(&dir), ["shard-00002.kgc", "shard-00003.kgc"]);

    let (ok, stderr) = kagen(&argv, &[]);
    assert!(ok, "worker failed:\n{stderr}");
    assert_eq!(
        names(&dir),
        [
            "part-00002-00005.json",
            "shard-00002.kgc",
            "shard-00003.kgc",
            "shard-00004.kgc"
        ]
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_regenerates_exactly_corrupted_and_deleted_shards() {
    let dir = tmp("repair");
    let mut args: Vec<String> = vec!["launch".into()];
    args.extend(model_args(dir.to_str().unwrap()));
    args.extend(["--workers".into(), "3".into()]);
    let argv: Vec<&str> = args.iter().map(|s| s.as_str()).collect();
    let (ok, stderr) = kagen(&argv, &[]);
    assert!(ok, "launch failed:\n{stderr}");
    let before = read_manifest(&dir);

    // Corrupt shard 2's payload; delete shard 6 outright.
    let corrupt = dir.join("shard-00002.kgc");
    let mut bytes = std::fs::read(&corrupt).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    std::fs::write(&corrupt, bytes).unwrap();
    std::fs::remove_file(dir.join("shard-00006.kgc")).unwrap();

    let mut resume_args = args.clone();
    resume_args.push("--resume".into());
    let (ok, stderr) = kagen(
        &resume_args.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
        &[],
    );
    assert!(ok, "resume failed:\n{stderr}");
    let summary = launch_summary(&stderr);
    assert!(
        summary.contains("regenerated=[2, 6]") && summary.contains("reused=6"),
        "resume must regenerate exactly the damaged shards: {summary}"
    );
    assert!(
        summary.contains("2 ranks spawned"),
        "two non-contiguous repairs want two one-PE workers: {summary}"
    );
    assert_eq!(
        read_manifest(&dir),
        before,
        "manifest must be restored bit-for-bit"
    );

    // A second resume finds nothing to do.
    let (ok, stderr) = kagen(
        &resume_args.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
        &[],
    );
    assert!(ok, "idempotent resume failed:\n{stderr}");
    assert!(
        launch_summary(&stderr).contains("regenerated=[] reused=8"),
        "{stderr}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// A text shard edited so that the old two-fields-and-ignore-the-rest
/// parser still read the generated stream out of it (a third token, a
/// sign) is no longer the generated bytes: `--resume` under the default
/// full validation must regenerate it, and restore it byte for byte.
#[test]
fn resume_regenerates_a_text_shard_with_trailing_tokens_or_signs() {
    let dir = tmp("tampered_text");
    let dir_arg = dir.to_str().unwrap();
    let argv = [
        "launch",
        "gnm_undirected",
        "-n",
        "256",
        "-m",
        "1024",
        "-c",
        "4",
        "-s",
        "3",
        "--workers",
        "2",
        "-f",
        "edge-list",
        "--shard-dir",
        dir_arg,
    ];
    let (ok, stderr) = kagen(&argv, &[]);
    assert!(ok, "launch failed:\n{stderr}");
    let shard = dir.join("shard-00001.txt");
    let pristine = std::fs::read_to_string(&shard).unwrap();
    let lines: Vec<&str> = pristine.lines().collect();
    assert!(lines.len() > 2, "shard 1 is too small to tamper with");

    let mut resume = argv.to_vec();
    resume.push("--resume");
    for (what, tampered) in [
        (
            "a third token",
            vec![format!("{} 999 junk", lines[0]), lines[1].to_string()],
        ),
        (
            "a sign",
            vec![lines[0].to_string(), format!("+{}", lines[1])],
        ),
    ] {
        let mut text = tampered.join("\n");
        text.push('\n');
        for line in &lines[2..] {
            text.push_str(line);
            text.push('\n');
        }
        std::fs::write(&shard, text).unwrap();
        let (ok, stderr) = kagen(&resume, &[]);
        assert!(ok, "resume failed:\n{stderr}");
        assert!(
            launch_summary(&stderr).contains("regenerated=[1] reused=3"),
            "{what}: {stderr}"
        );
        assert_eq!(std::fs::read_to_string(&shard).unwrap(), pristine, "{what}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The acceptance criterion verbatim: for EVERY model, a multi-process
/// launch federates a manifest with per-shard checksums identical to a
/// single-process `kagen stream` run of the same `(seed, params)`.
#[test]
fn every_model_federates_identically_to_stream() {
    let models: &[&[&str]] = &[
        &["gnm_directed", "-n", "400", "-m", "2000"],
        &["gnm_undirected", "-n", "400", "-m", "2000"],
        &["gnp_directed", "-n", "400", "-p", "0.01"],
        &["gnp_undirected", "-n", "400", "-p", "0.01"],
        &["rgg2d", "-n", "300"],
        &["rgg3d", "-n", "300"],
        &["rdg2d", "-n", "300"],
        &["rdg3d", "-n", "200"],
        &["rhg", "-n", "300", "-d", "6", "-g", "2.9"],
        &["srhg", "-n", "300", "-d", "6", "-g", "2.9"],
        &["soft-rhg", "-n", "300", "-d", "6", "-g", "2.9", "-T", "0.4"],
        &["ba", "-n", "400", "-d", "4"],
        &["rmat", "-n", "512", "-m", "4000"],
        &[
            "sbm", "-n", "400", "-b", "3", "--p-in", "0.02", "--p-out", "0.002",
        ],
    ];
    for model in models {
        let name = model[0];
        let launch_dir = tmp(&format!("all_{name}_launch"));
        let stream_dir = tmp(&format!("all_{name}_stream"));
        let common = ["-c", "5", "-s", "9"];

        let mut args = vec!["launch"];
        args.extend_from_slice(model);
        args.extend_from_slice(&common);
        args.extend([
            "--shard-dir",
            launch_dir.to_str().unwrap(),
            "--workers",
            "3",
        ]);
        let (ok, stderr) = kagen(&args, &[]);
        assert!(ok, "{name} launch failed:\n{stderr}");

        let mut args = vec!["stream"];
        args.extend_from_slice(model);
        args.extend_from_slice(&common);
        args.extend(["--shard-dir", stream_dir.to_str().unwrap()]);
        let (ok, stderr) = kagen(&args, &[]);
        assert!(ok, "{name} stream failed:\n{stderr}");

        assert_eq!(
            read_manifest(&launch_dir),
            read_manifest(&stream_dir),
            "{name}: federated manifest differs from single-process stream"
        );
        std::fs::remove_dir_all(&launch_dir).ok();
        std::fs::remove_dir_all(&stream_dir).ok();
    }
}

/// `--retries` rescues a transient worker fault in-launch: the first
/// worker attempt fails (fail-once marker), the respawn succeeds, and
/// the run completes without any `--resume` — byte-identical to a clean
/// stream run.
#[test]
fn transient_worker_failure_is_retried_with_budget() {
    let dir = tmp("retry_cli");
    let marker = std::env::temp_dir().join("kagen_it_retry_marker");
    std::fs::remove_file(&marker).ok();

    let mut args: Vec<String> = vec!["launch".into()];
    args.extend(model_args(dir.to_str().unwrap()));
    args.extend([
        "--workers".into(),
        "2".into(),
        "--retries".into(),
        "2".into(),
    ]);
    let (ok, stderr) = kagen(
        &args.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
        &[("KAGEN_WORKER_FAIL_ONCE", marker.to_str().unwrap())],
    );
    assert!(
        ok,
        "launch with --retries must survive the fault:\n{stderr}"
    );
    assert!(
        stderr.contains("retrying: "),
        "the retry must be reported: {stderr}"
    );
    assert!(dir.join("manifest.json").exists());

    let stream_dir = tmp("retry_cli_stream");
    let mut args: Vec<String> = vec!["stream".into()];
    args.extend(model_args(stream_dir.to_str().unwrap()));
    let (ok, _) = kagen(&args.iter().map(|s| s.as_str()).collect::<Vec<_>>(), &[]);
    assert!(ok);
    assert_eq!(read_manifest(&dir), read_manifest(&stream_dir));

    // Without a budget the same fault fails the launch (resumable).
    let dir2 = tmp("retry_cli_nobudget");
    std::fs::remove_file(&marker).ok();
    let mut args: Vec<String> = vec!["launch".into()];
    args.extend(model_args(dir2.to_str().unwrap()));
    args.extend(["--workers".into(), "2".into()]);
    let (ok, stderr) = kagen(
        &args.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
        &[("KAGEN_WORKER_FAIL_ONCE", marker.to_str().unwrap())],
    );
    assert!(!ok, "without --retries the fault must fail the launch");
    assert!(stderr.contains("resumable"), "{stderr}");

    std::fs::remove_file(&marker).ok();
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&dir2).ok();
    std::fs::remove_dir_all(&stream_dir).ok();
}

/// `--stall-timeout` turns a wedged worker (alive but making no
/// progress) into an ordinary failure the retry budget rescues: the
/// watchdog kills the stalled process, the respawn proceeds past the
/// one-shot stall marker, and the final manifest is byte-identical to a
/// clean stream run.
#[test]
fn stalled_worker_is_killed_and_retried() {
    let dir = tmp("stall_cli");
    let marker = std::env::temp_dir().join("kagen_it_stall_marker");
    std::fs::remove_file(&marker).ok();

    let mut args: Vec<String> = vec!["launch".into()];
    args.extend(model_args(dir.to_str().unwrap()));
    args.extend([
        "--workers".into(),
        "1".into(),
        "--retries".into(),
        "2".into(),
        "--stall-timeout".into(),
        "1".into(),
    ]);
    let (ok, stderr) = kagen(
        &args.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
        &[("KAGEN_WORKER_STALL_ONCE", marker.to_str().unwrap())],
    );
    assert!(
        ok,
        "launch with --retries must survive the stall:\n{stderr}"
    );
    assert!(
        stderr.contains("stalled: no heartbeat advance"),
        "the stall must be diagnosed as such, not a generic exit: {stderr}"
    );
    assert!(stderr.contains("retrying: "), "{stderr}");
    assert!(dir.join("manifest.json").exists());

    let stream_dir = tmp("stall_cli_stream");
    let mut args: Vec<String> = vec!["stream".into()];
    args.extend(model_args(stream_dir.to_str().unwrap()));
    let (ok, _) = kagen(&args.iter().map(|s| s.as_str()).collect::<Vec<_>>(), &[]);
    assert!(ok);
    assert_eq!(
        read_manifest(&dir),
        read_manifest(&stream_dir),
        "a launch that recovered from a stall must still be byte-identical"
    );

    // Without a retry budget the same stall fails the launch — but
    // resumable, like any other worker death.
    let dir2 = tmp("stall_cli_nobudget");
    std::fs::remove_file(&marker).ok();
    let mut args: Vec<String> = vec!["launch".into()];
    args.extend(model_args(dir2.to_str().unwrap()));
    args.extend([
        "--workers".into(),
        "1".into(),
        "--stall-timeout".into(),
        "1".into(),
    ]);
    let (ok, stderr) = kagen(
        &args.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
        &[("KAGEN_WORKER_STALL_ONCE", marker.to_str().unwrap())],
    );
    assert!(!ok, "without --retries the stall must fail the launch");
    assert!(stderr.contains("resumable"), "{stderr}");

    std::fs::remove_file(&marker).ok();
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&dir2).ok();
    std::fs::remove_dir_all(&stream_dir).ok();
}

/// `--validate sampled` resumes a damaged run: a truncated shard is
/// caught by the structural walk and regenerated, valid shards are
/// reused without the full re-read.
#[test]
fn sampled_validation_resume_via_cli() {
    let dir = tmp("sampled_cli");
    let mut args: Vec<String> = vec!["launch".into()];
    args.extend(model_args(dir.to_str().unwrap()));
    args.extend(["--workers".into(), "2".into()]);
    let argv: Vec<&str> = args.iter().map(|s| s.as_str()).collect();
    let (ok, stderr) = kagen(&argv, &[]);
    assert!(ok, "launch failed:\n{stderr}");
    let before = read_manifest(&dir);

    let victim = dir.join("shard-00005.kgc");
    let bytes = std::fs::read(&victim).unwrap();
    std::fs::write(&victim, &bytes[..bytes.len() - 2]).unwrap();

    let mut resume_args = args.clone();
    resume_args.extend(["--resume".into(), "--validate".into(), "sampled".into()]);
    let (ok, stderr) = kagen(
        &resume_args.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
        &[],
    );
    assert!(ok, "sampled resume failed:\n{stderr}");
    let summary = launch_summary(&stderr);
    assert!(
        summary.contains("regenerated=[5] reused=7"),
        "sampled resume must regenerate exactly the truncated shard: {summary}"
    );
    assert_eq!(read_manifest(&dir), before);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn launch_rejects_invalid_flags_before_spawning_workers() {
    let dir = tmp("reject");
    let dir_s = dir.to_str().unwrap();
    for (args, needle) in [
        (
            vec![
                "launch",
                "gnm_undirected",
                "--shard-dir",
                dir_s,
                "--merge",
                "external",
            ],
            "--merge requires",
        ),
        (
            vec![
                "launch",
                "gnm_undirected",
                "--shard-dir",
                dir_s,
                "--pe-range",
                "0..4",
            ],
            "--pe-range requires",
        ),
        (
            vec![
                "launch",
                "gnm_undirected",
                "--shard-dir",
                dir_s,
                "-f",
                "metis",
            ],
            "unknown shard format",
        ),
        (
            vec![
                "launch",
                "gnm_undirected",
                "--shard-dir",
                dir_s,
                "--workers",
                "0",
            ],
            "--workers must be",
        ),
        (vec!["launch", "gnm_undirected"], "--shard-dir is required"),
        (
            vec![
                "launch",
                "gnm_undirected",
                "--shard-dir",
                dir_s,
                "--validate",
                "maybe",
            ],
            "unknown validate mode",
        ),
        (
            vec![
                "launch",
                "gnm_undirected",
                "--shard-dir",
                dir_s,
                "--no-validate",
            ],
            "--no-validate is retired",
        ),
        // The lazily-validated hyperbolic models are the sharp case:
        // this used to pass validation, spawn six workers that each
        // panicked, and leave a ledger behind as "resumable".
        (
            vec![
                "launch",
                "rhg",
                "-n",
                "1000",
                "-d",
                "8",
                "-g",
                "1.5",
                "--workers",
                "2",
                "-c",
                "8",
                "--retries",
                "2",
                "--shard-dir",
                dir_s,
            ],
            "rhg: -g must be > 2, got 1.5",
        ),
        (
            vec![
                "stream",
                "gnm_undirected",
                "--shard-dir",
                dir_s,
                "--retries",
                "2",
            ],
            "--retries requires",
        ),
        (
            vec!["worker", "gnm_undirected", "--shard-dir", dir_s],
            "--pe-range is required",
        ),
        (
            vec![
                "worker",
                "gnm_undirected",
                "--shard-dir",
                dir_s,
                "--pe-range",
                "5..3",
            ],
            "not a non-empty sub-range",
        ),
        (
            vec![
                "launch",
                "rmat",
                "--shard-dir",
                dir_s,
                "--rmat-levels",
                "13",
            ],
            "--rmat-levels is retired",
        ),
    ] {
        let (ok, stderr) = kagen(&args, &[]);
        assert!(!ok, "{args:?} must be rejected");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(!stderr.contains("resumable"), "{args:?}: {stderr}");
        // A spawned worker would have prefixed its lines with its rank.
        assert!(!stderr.contains("kagen worker rank"), "{args:?}: {stderr}");
        assert!(
            !dir.exists(),
            "{args:?} must be rejected before anything is written"
        );
    }
}

/// Every use of the retired `flag` — each of `values`, after each of the
/// model argument lists `models` — exits 2 in every mode with one stderr
/// line containing `"{flag} is retired"` and each of `needles`, before a
/// worker spawns or a byte is written.
fn assert_retired(tag: &str, models: &[&[&str]], flag: &str, values: &[&str], needles: &[&str]) {
    let dir = tmp(tag);
    let dir_s = dir.to_str().unwrap();
    for model in models {
        for value in values {
            for (word, required) in [
                (Some("stream"), vec!["--shard-dir", dir_s]),
                (Some("launch"), vec!["--shard-dir", dir_s]),
                (
                    Some("worker"),
                    vec!["--shard-dir", dir_s, "--pe-range", "0..1"],
                ),
                (None, vec![]),
            ] {
                let mut argv: Vec<&str> = word.into_iter().collect();
                argv.extend(model.iter().chain(&required));
                argv.extend([flag, value]);
                let out = Command::new(KAGEN)
                    .args(&argv)
                    .output()
                    .expect("cannot spawn kagen");
                let stderr = String::from_utf8_lossy(&out.stderr);
                assert_eq!(out.status.code(), Some(2), "{argv:?}: {stderr}");
                assert_eq!(stderr.lines().count(), 1, "{argv:?}: {stderr}");
                let retired = format!("{flag} is retired");
                for needle in needles.iter().chain([&retired.as_str()]) {
                    assert!(stderr.contains(needle), "{argv:?}: {stderr}");
                }
                assert!(out.stdout.is_empty(), "{argv:?} wrote to stdout");
                assert!(!dir.exists(), "{argv:?} created the shard dir");
            }
        }
    }
}

/// `--rmat-kernel` is retired with every value it took (`plain`, `linear`)
/// and the one it retired before (`table`): every mode exits 2 with one
/// stderr line naming the removal, before a worker spawns or a byte is
/// written, at scale 11 and at scale 33.
#[test]
fn retired_rmat_table_kernel_exits_2_in_every_mode() {
    assert_retired(
        "retired_table",
        &[
            &["rmat", "-n", "2048", "-m", "4000"],
            &["rmat", "-n", "8589934592", "-m", "4000"],
        ],
        "--rmat-kernel",
        &["plain", "linear", "table"],
        &["Graph500Rmat"],
    );
}

/// `--rmat-levels` (R-MAT's levels are a constant) and `--gnp-leaves`
/// (G(n,p) has one leaf sampler) are retired with any value — the ones
/// they took, one out of range, one that never parsed — in every mode.
#[test]
fn retired_levels_and_leaves_flags_exit_2_in_every_mode() {
    assert_retired(
        "retired_levels",
        &[
            &["rmat", "-n", "2048", "-m", "4000"],
            &["rmat", "-n", "8589934592", "-m", "4000"],
        ],
        "--rmat-levels",
        &["8", "5", "0", "13"],
        &["8 levels per table lookup"],
    );
    assert_retired(
        "retired_leaves",
        &[
            &["gnp_directed", "-n", "2000", "-p", "0.002"],
            &["gnp_undirected", "-n", "2000", "-p", "0.004"],
        ],
        "--gnp-leaves",
        &["skip", "algo-d", "vitter"],
        &["GnpAlgoD"],
    );
}

/// Launch `base` (which writes `dir`), then rewrite the params string of
/// its ledger — found by its prefix `marker` — to each of `eras`: every
/// `--resume` must fail with `resume parameter mismatch` naming that
/// string, and leave every file of the run dir as it was.
fn assert_resume_refuses(dir: &std::path::Path, base: &[&str], marker: &str, eras: &[&str]) {
    let (ok, stderr) = kagen(base, &[]);
    assert!(ok, "launch failed:\n{stderr}");
    let ledger_path = dir.join("ledger.json");
    let ledger = std::fs::read_to_string(&ledger_path).unwrap();
    let start = ledger
        .find(marker)
        .expect("the params string in the ledger");
    let len = ledger[start..].find('"').unwrap();
    let params = &ledger[start..start + len];

    let snapshot = |dir: &std::path::Path| {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                let meta = e.metadata().unwrap();
                (
                    e.file_name(),
                    meta.modified().unwrap(),
                    std::fs::read(e.path()).unwrap(),
                )
            })
            .collect();
        files.sort();
        files
    };
    for era in eras {
        std::fs::write(&ledger_path, ledger.replace(params, era)).unwrap();
        let before = snapshot(dir);
        let mut args = base.to_vec();
        args.push("--resume");
        let (ok, stderr) = kagen(&args, &[]);
        assert!(!ok, "{args:?} must not resume a run of `{era}`");
        assert!(
            stderr.contains("resume parameter mismatch") && stderr.contains(era),
            "{args:?}: {stderr}"
        );
        assert_eq!(snapshot(dir), before, "{args:?} touched the run dir");
    }
    std::fs::remove_dir_all(dir).ok();
}

/// A run directory left behind by a retired R-MAT instance matches the
/// surviving spelling (`scale=.. m=.. kernel=linear levels=8`) no more:
/// the table kernel's ledger params `scale=.. m=.. levels=8` and the
/// plain descent's `levels=0`, neither with the `kernel=linear` marker,
/// and a linear run at another level count (`--rmat-levels 5`).
/// `--resume` refuses each and leaves every file as it was.
#[test]
fn resume_refuses_a_table_era_ledger() {
    let dir = tmp("table_era");
    let base = [
        "launch",
        "rmat",
        "-n",
        "2048",
        "-m",
        "4000",
        "-c",
        "4",
        "--workers",
        "2",
        "--shard-dir",
        dir.to_str().unwrap(),
    ];
    assert_resume_refuses(
        &dir,
        &base,
        "scale=11 m=4000 kernel=linear levels=",
        &[
            "scale=11 m=4000 levels=8",
            "scale=11 m=4000 levels=0",
            "scale=11 m=4000 kernel=linear levels=5",
        ],
    );
}

/// A G(n,p) run directory of the binomial + Method D instance (ledger
/// params `n=.. p=..`, no `leaves=` marker) is no longer resumed by the
/// one leaf sampler's `n=.. p=.. leaves=skip`.
#[test]
fn resume_refuses_an_algo_d_era_ledger() {
    for model in ["gnp_directed", "gnp_undirected"] {
        let dir = tmp(&format!("algo_d_era_{model}"));
        let base = [
            "launch",
            model,
            "-n",
            "2000",
            "-p",
            "0.002",
            "-c",
            "4",
            "--workers",
            "2",
            "--shard-dir",
            dir.to_str().unwrap(),
        ];
        assert_resume_refuses(
            &dir,
            &base,
            "n=2000 p=0.002 leaves=skip",
            &["n=2000 p=0.002"],
        );
    }
}

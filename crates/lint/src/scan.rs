//! Workspace walking and crate classification.
//!
//! What gets scanned: `crates/*/src/**/*.rs` plus the umbrella binary's
//! `src/**/*.rs`. What does not: `vendor/` (third-party API stand-ins),
//! `target/`, and test-shaped trees (`tests/`, `benches/`, `examples/`,
//! `fixtures/`) — in-file `#[cfg(test)]` code is masked separately by
//! the rules engine.

use crate::rules::{lint_source, RuleSet, Violation};
use std::path::{Path, PathBuf};

/// Crates whose iteration order can reach output bytes (rule D1).
const DETERMINISTIC_OUTPUT: [&str; 6] = [
    "core", "pipeline", "geometry", "dist", "sampling", "delaunay",
];

/// Crates allowed to read clocks/env/core counts (rule D2 allowlist):
/// observability, process supervision, and benchmarking — their reads
/// are proven byte-neutral by `tests/observability.rs`.
const CLOCK_ALLOWLISTED: [&str; 3] = ["obs", "cluster", "bench"];

/// File-level D2 allowlist additions (module granularity).
const CLOCK_ALLOWLISTED_FILES: [&str; 1] = ["crates/util/src/cache.rs"];

/// Crates that construct generator RNG streams (rule D3).
const GENERATOR: [&str; 6] = [
    "core",
    "sampling",
    "dist",
    "geometry",
    "delaunay",
    "baselines",
];

/// Crates running parallel numeric work that feeds output (rule F1).
const PARALLEL_NUMERIC: [&str; 8] = [
    "core",
    "pipeline",
    "geometry",
    "dist",
    "sampling",
    "delaunay",
    "runtime",
    "baselines",
];

/// Crates that read files, argv and child processes (rule R1), whole.
const IO_PATH: [&str; 2] = ["pipeline", "cluster"];

/// File- and directory-level R1 additions: the front-end and the edge
/// codecs.
const IO_PATH_FILES: [&str; 3] = ["src/bin/", "src/cli.rs", "crates/graph/src/io.rs"];

/// Directory names never descended into.
const SKIP_DIRS: [&str; 7] = [
    "target", "vendor", "tests", "benches", "examples", "fixtures", ".git",
];

/// Classify a workspace-relative path into the rule sets that apply.
/// Unknown layouts get S1-only (the always-on rule set).
pub fn classify(rel_path: &str) -> RuleSet {
    let rel = rel_path.replace('\\', "/");
    if CLOCK_ALLOWLISTED_FILES.iter().any(|f| rel.ends_with(f)) {
        return RuleSet {
            clock_allowlisted: true,
            ..RuleSet::default()
        };
    }
    let krate = if let Some(rest) = rel.strip_prefix("crates/") {
        rest.split('/').next().unwrap_or("")
    } else if rel.starts_with("src/") {
        // The umbrella CLI binary and library.
        "kagen"
    } else {
        ""
    };
    RuleSet {
        deterministic_output: DETERMINISTIC_OUTPUT.contains(&krate),
        clock_allowlisted: CLOCK_ALLOWLISTED.contains(&krate),
        generator: GENERATOR.contains(&krate),
        parallel_numeric: PARALLEL_NUMERIC.contains(&krate),
        io_path: IO_PATH.contains(&krate) || IO_PATH_FILES.iter().any(|f| rel.starts_with(f)),
    }
}

/// One file's findings.
#[derive(Debug)]
pub struct FileReport {
    pub path: String,
    pub violations: Vec<Violation>,
}

/// Whole-workspace report.
#[derive(Debug, Default)]
pub struct Report {
    pub files_scanned: usize,
    pub files: Vec<FileReport>,
}

impl Report {
    pub fn violation_count(&self) -> usize {
        self.files.iter().map(|f| f.violations.len()).sum()
    }
}

/// Lint every in-scope `.rs` file under `root` (the workspace root).
pub fn lint_workspace(root: &Path) -> std::io::Result<Report> {
    let mut files = Vec::new();
    for top in ["crates", "src"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut files)?;
        }
    }
    files.sort();

    let mut report = Report::default();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(&path)?;
        let violations = lint_source(&src, classify(&rel));
        report.files_scanned += 1;
        if !violations.is_empty() {
            report.files.push(FileReport {
                path: rel,
                violations,
            });
        }
    }
    Ok(report)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matrix() {
        let core = classify("crates/core/src/rmat.rs");
        assert!(core.deterministic_output && core.generator && !core.clock_allowlisted);

        let obs = classify("crates/obs/src/trace.rs");
        assert!(obs.clock_allowlisted && !obs.deterministic_output);

        let cache = classify("crates/util/src/cache.rs");
        assert!(cache.clock_allowlisted);
        let util = classify("crates/util/src/rng.rs");
        assert!(!util.clock_allowlisted);

        let cli = classify("src/bin/kagen.rs");
        assert!(!cli.clock_allowlisted && !cli.deterministic_output);

        let runtime = classify("crates/runtime/src/pe.rs");
        assert!(runtime.parallel_numeric && !runtime.deterministic_output);

        for io_path in [
            "src/bin/kagen.rs",
            "src/cli.rs",
            "crates/pipeline/src/reader.rs",
            "crates/cluster/src/launch.rs",
            "crates/graph/src/io.rs",
        ] {
            assert!(classify(io_path).io_path, "{io_path}");
        }
        for other in [
            "src/lib.rs",
            "crates/graph/src/csr.rs",
            "crates/core/src/rmat.rs",
        ] {
            assert!(!classify(other).io_path, "{other}");
        }
    }
}

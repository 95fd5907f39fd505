//! Running one `kagen` command line: wall time from spawn to exit, and
//! the process tree's memory and CPU sampled while it runs.

use crate::checks::Ops;
use crate::procfs::TreeUsage;
use crate::scratch::Scratch;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// How often the wait loop reads `/proc` for the command's tree.
const POLL: Duration = Duration::from_millis(5);

/// What one invocation cost.
#[derive(Clone, Debug)]
pub struct Invocation {
    /// Spawn → exit, seconds.
    pub wall_s: f64,
    /// Sum over the process tree of each process's last-sampled `VmHWM`.
    pub peak_rss_mib: f64,
    /// Sum over the process tree of last-sampled user + system time.
    pub cpu_s: f64,
}

/// The `kagen` binary under test.
#[derive(Clone, Debug)]
pub struct Kagen {
    pub exe: PathBuf,
    /// Where each invocation's stderr goes: `kagen launch` prints the
    /// regenerated PE list (hundreds of KiB with 49152 shards), which
    /// would fill an undrained pipe and block the product.
    pub stderr_log: PathBuf,
}

impl Kagen {
    /// Run `kagen <args>` to completion. `Err` is a failed operation:
    /// the binary could not be spawned or exited non-zero; the message
    /// names the binary, the arguments and the tail of its stderr.
    pub fn run(&self, args: &[String]) -> Result<Invocation, String> {
        let describe = || format!("`{} {}`", self.exe.display(), args.join(" "));
        let stderr = std::fs::File::create(&self.stderr_log)
            .map_err(|e| format!("cannot create {}: {e}", self.stderr_log.display()))?;
        let started = Instant::now();
        let mut child = Command::new(&self.exe)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot run {}: {e}", describe()))?;
        let pid = child.id();
        let mut usage = TreeUsage::default();
        // A second thread blocks in `wait`, so the exit is timed when it
        // happens and not at the next poll; this thread only samples.
        let (status, wall_s) = std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                let status = child.wait();
                (status, started.elapsed().as_secs_f64())
            });
            while !waiter.is_finished() {
                usage.sample(pid);
                std::thread::sleep(POLL);
            }
            waiter.join().expect("the waiter thread only waits")
        });
        let status = status.map_err(|e| format!("cannot wait for {}: {e}", describe()))?;
        if !status.success() {
            return Err(format!(
                "{} exited with {status}; stderr ends: {}",
                describe(),
                stderr_tail(&self.stderr_log)
            ));
        }
        Ok(Invocation {
            wall_s,
            peak_rss_mib: usage.peak_rss_mib(),
            cpu_s: usage.cpu_s(),
        })
    }
}

/// What every measurement of a run shares: the binary, where it writes,
/// the instance seed and the machine's width.
pub struct Bench<'a> {
    pub kagen: &'a Kagen,
    pub scratch: &'a Scratch,
    pub seed: u64,
    pub nproc: usize,
    /// `min(nproc, 4)` threads or workers inside the product.
    pub p: usize,
    /// The workloads are the 1/64-size ones of `--quick`.
    pub quick: bool,
}

impl Bench<'_> {
    /// One operation: empty the run directory and run `kagen` with the
    /// arguments `args` builds for it.
    pub fn invoke(
        &self,
        ops: &mut Ops,
        what: &str,
        args: &dyn Fn(&Path) -> Vec<String>,
    ) -> Option<Invocation> {
        let dir = self.scratch.fresh_run_dir().map_err(|e| e.to_string());
        let dir = ops.record("scratch directory", dir)?;
        ops.record(what, self.kagen.run(&args(&dir)))
    }
}

/// The last few hundred bytes of a stderr log, on one line.
fn stderr_tail(log: &Path) -> String {
    let text = std::fs::read(log).unwrap_or_default();
    let tail = &text[text.len().saturating_sub(400)..];
    String::from_utf8_lossy(tail).trim().replace('\n', " | ")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shell() -> Kagen {
        Kagen {
            exe: PathBuf::from("/bin/sh"),
            stderr_log: std::env::temp_dir()
                .join(format!("kagen-bench-run-test-{}.log", std::process::id())),
        }
    }

    #[test]
    fn times_and_samples_a_process_tree() {
        let sh = shell();
        let args = ["-c".to_string(), "sleep 0.05 & sleep 0.1; wait".to_string()];
        let inv = sh.run(&args).unwrap();
        assert!(inv.wall_s >= 0.1 && inv.wall_s < 5.0, "{inv:?}");
        assert!(inv.peak_rss_mib > 0.0);
        std::fs::remove_file(&sh.stderr_log).unwrap();
    }

    #[test]
    fn failure_names_the_command_and_its_stderr() {
        let sh = Kagen {
            stderr_log: std::env::temp_dir().join(format!(
                "kagen-bench-run-test-fail-{}.log",
                std::process::id()
            )),
            ..shell()
        };
        let err = sh
            .run(&[
                "-c".to_string(),
                "echo broken shard >&2; exit 3".to_string(),
            ])
            .unwrap_err();
        assert!(
            err.contains("/bin/sh") && err.contains("broken shard"),
            "{err}"
        );
        std::fs::remove_file(&sh.stderr_log).unwrap();

        let missing = Kagen {
            exe: PathBuf::from("/nonexistent/kagen"),
            ..shell()
        };
        let err = missing.run(&[]).unwrap_err();
        assert!(err.contains("/nonexistent/kagen"), "{err}");
    }
}

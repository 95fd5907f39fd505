//! The directory the product writes into while it is measured.
//!
//! By hand it goes to a tmpfs when one has room, so the product's
//! writes cost memory bandwidth and not the disk's mood, else to
//! `benchmark/out/`. The driver's command line says `--scratch
//! benchmark/out`: its contract keeps every read and write inside the
//! checkout. The directory is emptied between repetitions and removed
//! when the guard drops — on success, on failure and while a panic
//! unwinds.

use std::io;
use std::path::{Path, PathBuf};

/// Refuse to start below this much free space: the largest workload
/// holds ≈ 0.5 GiB of shards, and a full disk would read as a slow or
/// failing product.
pub const MIN_FREE_BYTES: u64 = 2 << 30;

/// Filesystem type of the mount holding `path`, from the text of
/// `/proc/mounts` (the longest mount point that is a prefix of `path`;
/// later lines win ties, as later mounts shadow earlier ones).
pub fn fs_type_of(mounts: &str, path: &Path) -> Option<String> {
    let mut best: Option<(usize, &str)> = None;
    for line in mounts.lines() {
        let mut fields = line.split_whitespace();
        let (Some(_dev), Some(mount), Some(fs)) = (fields.next(), fields.next(), fields.next())
        else {
            continue;
        };
        if path.starts_with(mount) && best.is_none_or(|(len, _)| mount.len() >= len) {
            best = Some((mount.len(), fs));
        }
    }
    best.map(|(_, fs)| fs.to_string())
}

/// Available bytes from the output of `df -Pk <path>`.
pub fn parse_df_available(df_output: &str) -> Option<u64> {
    let row = df_output.lines().nth(1)?;
    let kib: u64 = row.split_whitespace().nth(3)?.parse().ok()?;
    Some(kib * 1024)
}

fn free_bytes(path: &Path) -> io::Result<u64> {
    let out = std::process::Command::new("df")
        .arg("-Pk")
        .arg(path)
        .output()?;
    parse_df_available(&String::from_utf8_lossy(&out.stdout))
        .ok_or_else(|| io::Error::other(format!("cannot read free space of {}", path.display())))
}

/// Where scratch goes when `--scratch` does not say: `/dev/shm` if it
/// is a tmpfs with [`MIN_FREE_BYTES`] free, else `fallback`.
pub fn default_parent(fallback: &Path) -> PathBuf {
    let shm = Path::new("/dev/shm");
    let is_tmpfs = std::fs::read_to_string("/proc/mounts")
        .is_ok_and(|mounts| fs_type_of(&mounts, shm).as_deref() == Some("tmpfs"));
    if is_tmpfs && free_bytes(shm).is_ok_and(|free| free >= MIN_FREE_BYTES) {
        shm.to_path_buf()
    } else {
        fallback.to_path_buf()
    }
}

/// Make `dir` an existing, empty directory.
fn recreate(dir: &Path) -> io::Result<()> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
        _ => {}
    }
    std::fs::create_dir(dir)
}

/// An existing, empty scratch directory; removed on drop.
#[derive(Debug)]
pub struct Scratch {
    dir: PathBuf,
    /// Filesystem type of the directory (`ext4`, `tmpfs`, …), for the
    /// environment record: `fs.*` figures mean nothing without it.
    pub fs_type: String,
}

impl Scratch {
    /// Create `<parent>/kagen-bench-<pid>`, refusing when the filesystem
    /// has less than [`MIN_FREE_BYTES`] free.
    pub fn create(parent: &Path) -> io::Result<Scratch> {
        std::fs::create_dir_all(parent)?;
        let parent = parent.canonicalize()?;
        let free = free_bytes(&parent)?;
        if free < MIN_FREE_BYTES {
            return Err(io::Error::other(format!(
                "{} has {} MiB free; the benchmark needs {} MiB",
                parent.display(),
                free >> 20,
                MIN_FREE_BYTES >> 20
            )));
        }
        let fs_type = std::fs::read_to_string("/proc/mounts")
            .ok()
            .and_then(|mounts| fs_type_of(&mounts, &parent))
            .unwrap_or_else(|| "unknown".to_string());
        let dir = parent.join(format!("kagen-bench-{}", std::process::id()));
        // A crashed run with a recycled pid may have left one behind.
        recreate(&dir)?;
        Ok(Scratch { dir, fs_type })
    }

    /// The scratch directory itself.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// The one directory every command writes into, so the footprint
    /// stays at one instance. (Memory the guest touches for the first
    /// time costs the build box's hypervisor twice the CPU of recycled
    /// memory; a second directory would bill that to whichever command
    /// ran next.)
    pub fn run_dir(&self) -> PathBuf {
        self.dir.join("run")
    }

    /// Empty [`Scratch::run_dir`] of what the last command left.
    pub fn fresh_run_dir(&self) -> io::Result<PathBuf> {
        let dir = self.run_dir();
        recreate(&dir)?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Nothing useful can be done with a failure here, and a panic
        // in `drop` while another unwinds would abort.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MOUNTS: &str = "/dev/vda / ext4 rw,relatime 0 0\n\
                          proc /proc proc rw 0 0\n\
                          tmpfs /dev/shm tmpfs rw,relatime,size=16482316k 0 0\n\
                          /dev/vdb /root/data xfs rw 0 0\n";

    #[test]
    fn picks_the_longest_mount_prefix() {
        let fs = |p: &str| fs_type_of(MOUNTS, Path::new(p));
        assert_eq!(fs("/dev/shm/kagen-bench-1").as_deref(), Some("tmpfs"));
        assert_eq!(fs("/root/data/x").as_deref(), Some("xfs"));
        assert_eq!(fs("/root/database").as_deref(), Some("ext4"));
        assert_eq!(fs_type_of("", Path::new("/tmp")), None);
    }

    #[test]
    fn reads_df_available_column() {
        let out = "Filesystem     1024-blocks     Used Available Capacity Mounted on\n\
                   /dev/vda         264212084 14098392  18594900      44% /\n";
        assert_eq!(parse_df_available(out), Some(18594900 * 1024));
        assert_eq!(parse_df_available("Filesystem\n"), None);
    }

    #[test]
    fn guard_removes_the_directory_on_drop_and_on_panic() {
        let parent = std::env::temp_dir().join(format!("kagen-bench-test-{}", std::process::id()));
        let dir = {
            let scratch = Scratch::create(&parent).unwrap();
            let run = scratch.fresh_run_dir().unwrap();
            std::fs::write(run.join("shard"), b"x").unwrap();
            // What an earlier repetition left is gone.
            assert!(!scratch.fresh_run_dir().unwrap().join("shard").exists());
            scratch.path().to_path_buf()
        };
        assert!(!dir.exists());

        let parent2 = parent.clone();
        let panicked = std::panic::catch_unwind(move || {
            let scratch = Scratch::create(&parent2).unwrap();
            std::fs::write(scratch.path().join("file"), b"x").unwrap();
            panic!("a failing run");
        });
        assert!(panicked.is_err());
        assert!(!dir.exists());
        std::fs::remove_dir_all(&parent).unwrap();
    }
}

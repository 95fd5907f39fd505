//! The one writer of the documents a run leaves for a reader (manifest,
//! rank report, ledger, heartbeat, metrics and trace files) and of
//! `kagen -o` / `merged.*`: a reader sees the old file or the whole new
//! one, never a torn or empty one. A regular or missing path is written
//! as `<path>.kagen-tmp` and renamed over it by [`Staged::commit`], or
//! removed if dropped uncommitted; a FIFO, a device or a symlink is
//! written in place, since a rename would replace it. Shards are written
//! directly: each is checksummed, and the manifest or rank report is
//! their completion record.

use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// The name a file being written is published under.
#[derive(Debug)]
pub struct Staged {
    path: PathBuf,
    /// The staging name, until committed.
    tmp: Option<PathBuf>,
}

impl Staged {
    /// Create the file `path` will hold.
    pub fn create(path: &Path) -> io::Result<(File, Staged)> {
        let staged = match std::fs::symlink_metadata(path) {
            Ok(meta) => meta.is_file(),
            Err(e) => e.kind() == io::ErrorKind::NotFound,
        };
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".kagen-tmp");
        let tmp = staged.then(|| PathBuf::from(tmp));
        let file = File::create(tmp.as_deref().unwrap_or(path))?;
        let path = path.to_owned();
        Ok((file, Staged { path, tmp }))
    }

    /// Give the written file its name.
    pub fn commit(mut self) -> io::Result<()> {
        if let Some(tmp) = &self.tmp {
            std::fs::rename(tmp, &self.path)?;
            self.tmp = None;
        }
        Ok(())
    }

    /// Write `bytes` to `path` through a staged file.
    pub fn save_atomic(path: &Path, bytes: impl AsRef<[u8]>) -> io::Result<()> {
        let (mut file, staged) = Staged::create(path)?;
        file.write_all(bytes.as_ref())?;
        drop(file);
        staged.commit()
    }
}

impl Drop for Staged {
    fn drop(&mut self) {
        if let Some(tmp) = &self.tmp {
            std::fs::remove_file(tmp).ok();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh scratch directory for one test.
    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("kagen_obs_staged_{name}"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The names in `dir`, sorted.
    fn names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn commit_renames_over_an_existing_file() {
        let dir = scratch("commit");
        let path = dir.join("doc.json");
        std::fs::write(&path, "old").unwrap();
        let (mut file, staged) = Staged::create(&path).unwrap();
        file.write_all(b"new").unwrap();
        // Until the commit a reader still sees the old document.
        assert_eq!(std::fs::read(&path).unwrap(), b"old");
        assert_eq!(names(&dir), ["doc.json", "doc.json.kagen-tmp"]);
        staged.commit().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new");
        assert_eq!(names(&dir), ["doc.json"]);
        Staged::save_atomic(&dir.join("fresh.json"), "[1]").unwrap();
        assert_eq!(names(&dir), ["doc.json", "fresh.json"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_uncommitted_drop_keeps_the_old_file_and_no_staging_file() {
        let dir = scratch("drop");
        let path = dir.join("doc.json");
        std::fs::write(&path, "old").unwrap();
        let (mut file, staged) = Staged::create(&path).unwrap();
        file.write_all(b"half a docu").unwrap();
        drop(staged);
        assert_eq!(std::fs::read(&path).unwrap(), b"old");
        assert_eq!(names(&dir), ["doc.json"]);
        // A missing target stays missing.
        drop(Staged::create(&dir.join("never.json")).unwrap());
        assert_eq!(names(&dir), ["doc.json"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_device_is_written_in_place() {
        let (mut file, staged) = Staged::create(Path::new("/dev/null")).unwrap();
        assert!(staged.tmp.is_none());
        file.write_all(b"gone").unwrap();
        staged.commit().unwrap();
        Staged::save_atomic(Path::new("/dev/null"), "gone").unwrap();
    }

    #[test]
    fn a_failed_rename_leaves_no_staging_file() {
        let dir = scratch("rename");
        // A non-empty directory where the document should go.
        let target = dir.join("doc.json");
        std::fs::create_dir(&target).unwrap();
        std::fs::write(target.join("inside"), "x").unwrap();
        assert!(Staged::save_atomic(&target, "[1]").is_err());
        assert_eq!(names(&dir), ["doc.json"]);
        assert_eq!(names(&target), ["inside"]);
        // The same directory appearing between create and commit: the
        // rename itself fails, and the staging file still goes.
        let late = dir.join("late.json");
        let (mut file, staged) = Staged::create(&late).unwrap();
        file.write_all(b"[1]").unwrap();
        std::fs::create_dir(&late).unwrap();
        std::fs::write(late.join("inside"), "x").unwrap();
        assert!(staged.commit().is_err());
        assert_eq!(names(&dir), ["doc.json", "late.json"]);
        assert_eq!(names(&late), ["inside"]);
        std::fs::remove_dir_all(&dir).ok();
    }
}

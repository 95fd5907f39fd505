//! Correctness checks on what the product wrote, and the count of
//! operations attempted and failed.
//!
//! An operation is one CLI invocation (non-zero exit = failed) or one
//! correctness check.

use kagen_pipeline::manifest::json as product_json;
use kagen_pipeline::{checksum_step, validate_shard, Manifest, ShardFormat};
use std::io::Read;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Operations attempted and failed, with what went wrong.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Ops {
    /// Count one operation; a failure is printed at once and kept.
    pub fn record<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(why) => {
                self.failed += 1;
                eprintln!("FAILED {what}: {why}");
                self.failures.push(format!("{what}: {why}"));
                None
            }
        }
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// FNV-1a, 64 bit: the digest of manifests in `expected.json`. Not the
/// product's hash, so a change to the product's hashing cannot move a
/// golden value and the value it is compared with together.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Sizes of the shard files `manifest` lists, in PE order.
pub fn shard_sizes(dir: &Path, manifest: &Manifest) -> Result<Vec<u64>, String> {
    manifest
        .shards
        .iter()
        .map(|shard| {
            let path = dir.join(&shard.file);
            std::fs::metadata(&path)
                .map(|meta| meta.len())
                .map_err(|e| format!("{}: {e}", path.display()))
        })
        .collect()
}

/// Every shard must decode to the edge count and checksum its manifest
/// entry records. Nothing is being timed while this runs, so it takes
/// `threads` threads: re-reading the largest instance on one costs half
/// of what measuring it did.
pub fn validate_all(dir: &Path, manifest: &Manifest, threads: usize) -> Result<(), String> {
    let format = ShardFormat::parse(&manifest.format)
        .ok_or_else(|| format!("unknown shard format '{}'", manifest.format))?;
    let next = AtomicUsize::new(0);
    let validate_some = || {
        let mut bad = Vec::new();
        // `Relaxed`: the counter hands out indices and publishes nothing.
        while let Some(shard) = manifest.shards.get(next.fetch_add(1, Ordering::Relaxed)) {
            bad.extend(
                validate_shard(dir, format, shard)
                    .err()
                    .map(|e| (shard.pe, format!("{}: {e}", shard.file))),
            );
        }
        bad
    };
    let mut bad: Vec<(u64, String)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.max(1))
            .map(|_| scope.spawn(validate_some))
            .collect();
        workers
            .into_iter()
            .flat_map(|w| {
                w.join()
                    .expect("validation returns its errors, it does not panic")
            })
            .collect()
    });
    bad.sort();
    match bad.first() {
        None => Ok(()),
        Some((_, first)) => Err(format!(
            "{} of {} shards invalid; first: {first}",
            bad.len(),
            manifest.shards.len()
        )),
    }
}

/// Edge count and order-dependent checksum of a merged binary edge
/// list (little-endian `u64` pairs), which must be strictly increasing:
/// sorted, with every cross-PE duplicate dropped.
pub fn merged_digest(path: &Path) -> Result<(u64, u64), String> {
    let file = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut reader = std::io::BufReader::with_capacity(1 << 20, file);
    let (mut count, mut checksum) = (0u64, 0u64);
    let mut prev: Option<(u64, u64)> = None;
    let mut record = [0u8; 16];
    loop {
        match reader.read_exact(&mut record) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => break,
            Err(e) => return Err(format!("{}: {e}", path.display())),
        }
        let u = u64::from_le_bytes(record[..8].try_into().expect("8 of 16 bytes"));
        let v = u64::from_le_bytes(record[8..].try_into().expect("8 of 16 bytes"));
        if prev.is_some_and(|p| p >= (u, v)) {
            return Err(format!(
                "{}: edge {count} ({u},{v}) does not follow {prev:?} in strictly increasing order",
                path.display()
            ));
        }
        prev = Some((u, v));
        checksum = checksum_step(checksum, u, v);
        count += 1;
    }
    let len = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
    if len != count * 16 {
        return Err(format!(
            "{}: {len} bytes is not whole edges",
            path.display()
        ));
    }
    Ok((count, checksum))
}

/// What a seed-1 run must reproduce, from `benchmark/expected.json`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Golden {
    /// FNV-1a of `manifest.json`, 16 hex digits.
    pub manifest: String,
    /// Checksum of the merged output (`gnp_merge` only), 16 hex digits.
    pub merged: Option<String>,
}

/// The seed the golden values were taken with.
pub const GOLDEN_SEED: u64 = 1;

/// `expected.json`: written by `run --bless`, never by `run`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Expected {
    /// R-MAT levels the blessing host's L2 cache resolved to. The
    /// product sizes its R-MAT table to the cache, so a host with
    /// another L2 generates another `rmat_stream` instance and that one
    /// golden value does not apply there.
    pub rmat_levels: u64,
    pub workloads: Vec<(String, Golden)>,
}

impl Expected {
    pub fn get(&self, workload: &str) -> Option<&Golden> {
        self.workloads
            .iter()
            .find(|(name, _)| name == workload)
            .map(|(_, golden)| golden)
    }

    pub fn to_json(&self) -> String {
        use crate::json::{obj, Json};
        let workloads = self
            .workloads
            .iter()
            .map(|(name, g)| {
                let mut fields = vec![("manifest_fnv1a64".to_string(), g.manifest.as_str().into())];
                if let Some(merged) = &g.merged {
                    fields.push(("merged_checksum".to_string(), merged.as_str().into()));
                }
                (name.clone(), Json::Obj(fields))
            })
            .collect();
        obj([
            ("seed", Json::Int(GOLDEN_SEED)),
            ("rmat_levels", Json::Int(self.rmat_levels)),
            ("workloads", Json::Obj(workloads)),
        ])
        .to_pretty()
    }

    pub fn from_json(text: &str) -> Result<Expected, String> {
        let doc = product_json::parse(text)?;
        let doc = doc.as_obj("expected.json")?;
        if doc.get("seed")?.as_u64("seed")? != GOLDEN_SEED {
            return Err(format!("expected.json is not for seed {GOLDEN_SEED}"));
        }
        let product_json::Value::Obj(entries) = doc.get("workloads")? else {
            return Err("expected.json: workloads is not an object".to_string());
        };
        let mut workloads = Vec::new();
        for (name, entry) in entries {
            let entry = entry.as_obj(name)?;
            workloads.push((
                name.clone(),
                Golden {
                    manifest: entry
                        .get("manifest_fnv1a64")?
                        .as_str("manifest_fnv1a64")?
                        .to_string(),
                    merged: entry
                        .get("merged_checksum")
                        .ok()
                        .map(|v| v.as_str("merged_checksum").map(str::to_string))
                        .transpose()?,
                },
            ));
        }
        Ok(Expected {
            rmat_levels: doc.get("rmat_levels")?.as_u64("rmat_levels")?,
            workloads,
        })
    }
}

/// 16 hex digits, the spelling of digests in `expected.json`.
pub fn hex(x: u64) -> String {
    format!("{x:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_published_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn ops_count_attempts_and_failures() {
        let mut ops = Ops::default();
        assert_eq!(ops.record("first", Ok(5)), Some(5));
        assert_eq!(ops.record::<()>("second", Err("flipped byte".into())), None);
        assert_eq!((ops.attempted, ops.failed), (2, 1));
        assert_eq!(ops.failed_share(), 0.5);
        assert_eq!(ops.failures, vec!["second: flipped byte"]);
        assert_eq!(Ops::default().failed_share(), 0.0);
    }

    #[test]
    fn expected_json_round_trips() {
        let expected = Expected {
            rmat_levels: 8,
            workloads: vec![
                (
                    "rmat_stream".to_string(),
                    Golden {
                        manifest: hex(0xabc),
                        merged: None,
                    },
                ),
                (
                    "gnp_merge".to_string(),
                    Golden {
                        manifest: hex(u64::MAX),
                        merged: Some(hex(7)),
                    },
                ),
            ],
        };
        let text = expected.to_json();
        assert_eq!(Expected::from_json(&text), Ok(expected.clone()));
        assert_eq!(
            expected.get("gnp_merge").unwrap().merged.as_deref(),
            Some("0000000000000007")
        );
        assert!(expected.get("ba_stream").is_none());
        assert!(Expected::from_json(&text.replace("\"seed\": 1", "\"seed\": 2")).is_err());
    }

    #[test]
    fn merged_digest_demands_strictly_increasing_whole_edges() {
        let path = std::env::temp_dir().join(format!("kagen-bench-merged-{}", std::process::id()));
        let write = |edges: &[(u64, u64)], extra: &[u8]| {
            let mut bytes = Vec::new();
            for &(u, v) in edges {
                bytes.extend_from_slice(&u.to_le_bytes());
                bytes.extend_from_slice(&v.to_le_bytes());
            }
            bytes.extend_from_slice(extra);
            std::fs::write(&path, bytes).unwrap();
        };
        write(&[(0, 1), (0, 2), (1, 0)], &[]);
        let expect = [(0, 1), (0, 2), (1, 0)]
            .iter()
            .fold(0, |acc, &(u, v)| checksum_step(acc, u, v));
        assert_eq!(merged_digest(&path), Ok((3, expect)));
        write(&[(0, 1), (0, 1)], &[]);
        assert!(merged_digest(&path)
            .unwrap_err()
            .contains("strictly increasing"));
        write(&[(0, 1)], &[0; 5]);
        assert!(merged_digest(&path).unwrap_err().contains("whole edges"));
        std::fs::remove_file(&path).unwrap();
    }
}

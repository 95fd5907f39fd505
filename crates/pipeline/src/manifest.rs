//! The shard-directory manifest: a JSON file describing one sharded
//! generation run (model, parameters, seed, format, per-shard edge counts
//! and checksums) so shards can be validated and reassembled later —
//! including by tools that never saw the generator.
//!
//! Multi-process runs (`kagen_cluster`) split the PE range across worker
//! processes; each worker records its slice as a [`PartialManifest`]
//! (`part-<a>-<b>.json`, its rank report) and the coordinator
//! *federates* the parts into the final `manifest.json` with
//! [`RunHeader::federate`] — byte-identical
//! to what a single-process [`crate::write_sharded`] run would have
//! written, because every field is a pure function of `(model, params,
//! seed, format)` plus the per-shard infos.
//!
//! Both documents are structs over the workspace's JSON layer
//! ([`kagen_obs::json`], re-exported here as [`json`]): `to_json` builds
//! a [`Value`] and renders it in the [`Layout::Pretty`] layout,
//! `from_json` parses and reads the fields back.

pub use kagen_obs::json;
pub use kagen_obs::json::push_str_value;

use json::{Layout, Obj, Value};
use kagen_obs::Staged;
use std::io;
use std::path::Path;

/// File name of the manifest inside a shard directory.
pub const MANIFEST_FILE: &str = "manifest.json";

/// One shard's metadata.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardInfo {
    /// The PE (chunk) index this shard holds.
    pub pe: u64,
    /// File name relative to the shard directory.
    pub file: String,
    /// Number of edges in the shard.
    pub edges: u64,
    /// Order-dependent checksum of the shard's edge stream
    /// (see `kagen_pipeline::sink::checksum_step`).
    pub checksum: u64,
}

impl ShardInfo {
    /// The `file`/`edges`/`checksum` fields — what a manifest entry and
    /// a done ledger entry both append after their `pe` (and status).
    pub fn payload_fields(&self) -> [(&'static str, Value); 3] {
        [
            ("file", self.file.as_str().into()),
            ("edges", self.edges.into()),
            ("checksum", self.checksum.into()),
        ]
    }

    /// Read a shard entry (inverse of `pe` + [`ShardInfo::payload_fields`]).
    pub fn from_json_obj(obj: &Obj<'_>) -> Result<ShardInfo, String> {
        Ok(ShardInfo {
            pe: obj.u64("pe")?,
            file: obj.str("file")?.to_string(),
            edges: obj.u64("edges")?,
            checksum: obj.u64("checksum")?,
        })
    }
}

/// The run-identity fields of a [`Manifest`] — everything known *before*
/// any shard is written. A multi-worker coordinator carries a header
/// through the run and [federates](RunHeader::federate) it with the
/// collected per-shard infos at the end; the single-process writer uses
/// the same constructor, so both paths produce identical manifests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunHeader {
    /// Model name (e.g. `rmat`, `gnm_undirected`).
    pub model: String,
    /// Human-readable parameter string.
    pub params: String,
    /// Instance seed.
    pub seed: u64,
    /// Vertex count.
    pub n: u64,
    /// Whether the edges are directed.
    pub directed: bool,
    /// Number of logical PEs == number of shards.
    pub chunks: u64,
    /// Shard format name (`edge-list`, `binary`, `compressed`).
    pub format: String,
}

impl RunHeader {
    /// Combine the header with per-shard infos into the final manifest.
    ///
    /// The shards may arrive in any order (workers finish when they
    /// finish); they are sorted by PE and verified to cover exactly
    /// `0..chunks`, each PE once — a gap, duplicate or out-of-range shard
    /// is an error, not a silently wrong manifest.
    pub fn federate(self, mut shards: Vec<ShardInfo>) -> Result<Manifest, String> {
        shards.sort_by_key(|s| s.pe);
        if shards.len() as u64 != self.chunks {
            return Err(format!(
                "federation: {} shards for {} chunks",
                shards.len(),
                self.chunks
            ));
        }
        for (i, s) in shards.iter().enumerate() {
            if s.pe != i as u64 {
                return Err(format!(
                    "federation: expected shard for PE {i}, found PE {} (gap or duplicate)",
                    s.pe
                ));
            }
        }
        let edges = shards.iter().map(|s| s.edges).sum();
        Ok(Manifest {
            model: self.model,
            params: self.params,
            seed: self.seed,
            n: self.n,
            directed: self.directed,
            chunks: self.chunks,
            format: self.format,
            edges,
            shards,
        })
    }

    /// Parse the header fields out of a JSON object that embeds them
    /// (a manifest or a cluster ledger).
    pub fn from_json_obj(obj: &Obj<'_>) -> Result<RunHeader, String> {
        Ok(RunHeader {
            model: obj.str("model")?.to_string(),
            params: obj.str("params")?.to_string(),
            seed: obj.u64("seed")?,
            n: obj.u64("n")?,
            directed: obj.bool("directed")?,
            chunks: obj.u64("chunks")?,
            format: obj.str("format")?.to_string(),
        })
    }

    /// The header as the leading fields of a document (callers append
    /// their own fields after).
    pub fn json_fields(&self) -> Vec<(&'static str, Value)> {
        vec![
            ("model", self.model.as_str().into()),
            ("params", self.params.as_str().into()),
            ("seed", self.seed.into()),
            ("n", self.n.into()),
            ("directed", self.directed.into()),
            ("chunks", self.chunks.into()),
            ("format", self.format.as_str().into()),
        ]
    }
}

/// Metadata of a complete sharded run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// Model name (e.g. `rmat`, `gnm_undirected`).
    pub model: String,
    /// Human-readable parameter string (e.g. `n=1048576 m=16777216`).
    pub params: String,
    /// Instance seed.
    pub seed: u64,
    /// Vertex count.
    pub n: u64,
    /// Whether the edges are directed.
    pub directed: bool,
    /// Number of logical PEs == number of shards.
    pub chunks: u64,
    /// Shard format name (`edge-list`, `binary`, `compressed`).
    pub format: String,
    /// Total edge count over all shards.
    pub edges: u64,
    /// Per-shard metadata, in PE order.
    pub shards: Vec<ShardInfo>,
}

fn shards_value(shards: &[ShardInfo]) -> Value {
    let entry = |s: &ShardInfo| {
        let pe = [("pe", Value::from(s.pe))];
        json::obj(pe.into_iter().chain(s.payload_fields()))
    };
    Value::Arr(shards.iter().map(entry).collect())
}

fn shards_from(obj: &Obj<'_>) -> Result<Vec<ShardInfo>, String> {
    let mut shards = Vec::new();
    for (i, entry) in obj.arr("shards")?.iter().enumerate() {
        shards.push(ShardInfo::from_json_obj(
            &entry.as_obj(&format!("shards[{i}]"))?,
        )?);
    }
    Ok(shards)
}

impl Manifest {
    /// The run-identity fields, for comparing against a ledger or a
    /// resumed run's parameters.
    pub fn header(&self) -> RunHeader {
        RunHeader {
            model: self.model.clone(),
            params: self.params.clone(),
            seed: self.seed,
            n: self.n,
            directed: self.directed,
            chunks: self.chunks,
            format: self.format.clone(),
        }
    }

    /// Serialize to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut fields = self.header().json_fields();
        fields.push(("edges", self.edges.into()));
        fields.push(("shards", shards_value(&self.shards)));
        json::obj(fields).render(Layout::Pretty)
    }

    /// Parse from JSON (inverse of [`Manifest::to_json`]).
    pub fn from_json(text: &str) -> Result<Manifest, String> {
        let value = json::parse(text)?;
        let obj = value.as_obj("manifest")?;
        let header = RunHeader::from_json_obj(&obj)?;
        Ok(Manifest {
            model: header.model,
            params: header.params,
            seed: header.seed,
            n: header.n,
            directed: header.directed,
            chunks: header.chunks,
            format: header.format,
            edges: obj.u64("edges")?,
            shards: shards_from(&obj)?,
        })
    }

    /// Publish `manifest.json` in `dir` (staged, see [`Staged`]).
    pub fn save(&self, dir: &Path) -> io::Result<()> {
        Staged::save_atomic(&dir.join(MANIFEST_FILE), self.to_json())
    }

    /// Load `manifest.json` from `dir`.
    pub fn load(dir: &Path) -> io::Result<Manifest> {
        json::load(&dir.join(MANIFEST_FILE), Manifest::from_json)
    }
}

/// One worker's rank report: the shards it wrote for its contiguous PE
/// range `pe_begin..pe_end`, plus — when the worker was asked for them —
/// its metrics and its spans. Workers persist this as `part-<a>-<b>.json`
/// in the shard directory, last, so the file is their completion record;
/// the coordinator reads it, moves its content into the ledger and the
/// federated documents, and deletes it. A report without telemetry is
/// the three-member document older coordinators read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartialManifest {
    /// First PE of the worker's range.
    pub pe_begin: u64,
    /// One past the last PE of the worker's range.
    pub pe_end: u64,
    /// Shard infos for exactly the PEs in `pe_begin..pe_end`, in order.
    pub shards: Vec<ShardInfo>,
    /// The worker's counter and gauge scalars (`--metrics-sidecar`).
    pub metrics: Option<kagen_obs::Telemetry>,
    /// The worker's span buffer (`--trace-sidecar`).
    pub trace: Option<kagen_obs::ProcessTrace>,
}

impl PartialManifest {
    /// File name a worker for `pe_begin..pe_end` writes — unique per
    /// task because task ranges never overlap within one run.
    pub fn file_name(pe_begin: u64, pe_end: u64) -> String {
        format!("part-{pe_begin:05}-{pe_end:05}.json")
    }

    /// Serialize to pretty-printed JSON; absent telemetry leaves no key.
    pub fn to_json(&self) -> String {
        let mut fields = vec![
            ("pe_begin", self.pe_begin.into()),
            ("pe_end", self.pe_end.into()),
            ("shards", shards_value(&self.shards)),
        ];
        fields.extend(self.metrics.as_ref().map(|m| ("metrics", m.to_value())));
        fields.extend(self.trace.as_ref().map(|t| ("trace", t.to_value())));
        json::obj(fields).render(Layout::Pretty)
    }

    /// Parse from JSON (inverse of [`PartialManifest::to_json`]).
    pub fn from_json(text: &str) -> Result<PartialManifest, String> {
        let value = json::parse(text)?;
        let obj = value.as_obj("partial manifest")?;
        let member = |key: &str| obj.fields().iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let part = PartialManifest {
            pe_begin: obj.u64("pe_begin")?,
            pe_end: obj.u64("pe_end")?,
            shards: shards_from(&obj)?,
            metrics: member("metrics")
                .map(kagen_obs::Telemetry::from_value)
                .transpose()?,
            trace: member("trace")
                .map(kagen_obs::ProcessTrace::from_value)
                .transpose()?,
        };
        // Compare without materializing the range — the file is
        // untrusted input, and a corrupt `pe_end` must come back as a
        // parse error, not an absurd allocation.
        let count_ok = part.pe_end.checked_sub(part.pe_begin) == Some(part.shards.len() as u64);
        let pes_ok = part
            .shards
            .iter()
            .zip(part.pe_begin..)
            .all(|(s, pe)| s.pe == pe);
        if !count_ok || !pes_ok {
            let got: Vec<u64> = part.shards.iter().map(|s| s.pe).collect();
            return Err(format!(
                "partial manifest {}..{} covers PEs {got:?}",
                part.pe_begin, part.pe_end
            ));
        }
        Ok(part)
    }

    /// Publish `part-<a>-<b>.json` in `dir` (staged, see [`Staged`]);
    /// returns the path.
    pub fn save(&self, dir: &Path) -> io::Result<std::path::PathBuf> {
        let path = dir.join(Self::file_name(self.pe_begin, self.pe_end));
        Staged::save_atomic(&path, self.to_json())?;
        Ok(path)
    }

    /// Load and validate a worker's partial manifest from `dir`.
    pub fn load(dir: &Path, pe_begin: u64, pe_end: u64) -> io::Result<PartialManifest> {
        let path = dir.join(Self::file_name(pe_begin, pe_end));
        json::load(&path, PartialManifest::from_json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            model: "rmat".to_string(),
            params: "n=1024 m=4096".to_string(),
            seed: 42,
            n: 1024,
            directed: true,
            chunks: 2,
            format: "compressed".to_string(),
            edges: 4096,
            shards: vec![
                ShardInfo {
                    pe: 0,
                    file: "shard-00000.kgc".to_string(),
                    edges: 2048,
                    checksum: 0xdeadbeef,
                },
                ShardInfo {
                    pe: 1,
                    file: "shard-00001.kgc".to_string(),
                    edges: 2048,
                    checksum: 0xfeedface,
                },
            ],
        }
    }

    #[test]
    fn json_roundtrip() {
        let m = sample();
        let text = m.to_json();
        let back = Manifest::from_json(&text).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn escapes_roundtrip() {
        let mut m = sample();
        m.params = "weird \"quoted\" \\ tab\there\nnewline".to_string();
        let back = Manifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back.params, m.params);
    }

    #[test]
    fn empty_shard_list() {
        let mut m = sample();
        m.shards.clear();
        let back = Manifest::from_json(&m.to_json()).unwrap();
        assert!(back.shards.is_empty());
    }

    #[test]
    fn missing_key_is_an_error() {
        let err = Manifest::from_json("{\"model\": \"x\"}").unwrap_err();
        assert!(err.contains("missing key"), "{err}");
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(Manifest::from_json("{").is_err());
        assert!(Manifest::from_json("[1, 2").is_err());
        assert!(Manifest::from_json("{\"a\": 1} trailing").is_err());
    }

    #[test]
    fn federate_accepts_out_of_order_parts_and_matches_direct_build() {
        let m = sample();
        let mut shards = m.shards.clone();
        shards.reverse(); // workers finish in any order
        let federated = m.header().federate(shards).unwrap();
        assert_eq!(federated, m);
        assert_eq!(federated.to_json(), m.to_json());
    }

    #[test]
    fn federate_rejects_gaps_duplicates_and_wrong_counts() {
        let m = sample();
        // Missing shard.
        let err = m.header().federate(m.shards[..1].to_vec()).unwrap_err();
        assert!(err.contains("1 shards for 2 chunks"), "{err}");
        // Duplicate PE.
        let dup = vec![m.shards[0].clone(), m.shards[0].clone()];
        let err = m.header().federate(dup).unwrap_err();
        assert!(err.contains("gap or duplicate"), "{err}");
        // Out-of-range PE.
        let mut wild = m.shards.clone();
        wild[1].pe = 7;
        let err = m.header().federate(wild).unwrap_err();
        assert!(err.contains("gap or duplicate"), "{err}");
    }

    #[test]
    fn partial_manifest_roundtrip() {
        let m = sample();
        let mut part = PartialManifest {
            pe_begin: 0,
            pe_end: 2,
            shards: m.shards.clone(),
            metrics: None,
            trace: None,
        };
        let back = PartialManifest::from_json(&part.to_json()).unwrap();
        assert_eq!(back, part);
        // Telemetry members round-trip, and a malformed one fails the
        // whole report — naming the file when it is loaded from one.
        part.metrics = Some(kagen_obs::Telemetry {
            counters: vec![("gen.edges".into(), 4096)],
        });
        part.trace = Some(kagen_obs::ProcessTrace::default());
        let text = part.to_json();
        assert_eq!(PartialManifest::from_json(&text).unwrap(), part);
        part.metrics = None;
        part.trace = None;

        let dir = std::env::temp_dir().join("kagen_partial_manifest_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = part.save(&dir).unwrap();
        assert_eq!(path.file_name().unwrap(), "part-00000-00002.json");
        let loaded = PartialManifest::load(&dir, 0, 2).unwrap();
        assert_eq!(loaded, part);
        std::fs::write(&path, text.replace("\"counters\": {", "\"counters\": [")).unwrap();
        let err = PartialManifest::load(&dir, 0, 2).unwrap_err();
        assert!(err.to_string().contains("part-00000-00002.json"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn partial_manifest_rejects_range_mismatch() {
        let m = sample();
        let part = PartialManifest {
            pe_begin: 3,
            pe_end: 5, // but the shards are PEs 0 and 1
            shards: m.shards.clone(),
            metrics: None,
            trace: None,
        };
        let err = PartialManifest::from_json(&part.to_json()).unwrap_err();
        assert!(err.contains("covers PEs"), "{err}");
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = std::env::temp_dir().join("kagen_manifest_test");
        std::fs::create_dir_all(&dir).unwrap();
        let m = sample();
        m.save(&dir).unwrap();
        let back = Manifest::load(&dir).unwrap();
        assert_eq!(back, m);
        std::fs::remove_dir_all(&dir).ok();
    }
}

//! The run ledger: `ledger.json`, the durable record that makes a
//! multi-process run resumable.
//!
//! The ledger lives next to the shards and tracks two levels of state:
//!
//! * **per-shard** — the authoritative record: every PE is `pending` or
//!   `done`, and a done entry carries the generation-time
//!   [`ShardInfo`] (file, edge count, checksum) so resume can re-verify
//!   the bytes on disk against what the worker actually produced;
//! * **per-rank** — the latest spawn plan with each rank's status and
//!   attempt count, for observability and for reporting which ranks a
//!   `--resume` actually re-ran.
//!
//! The coordinator rewrites the ledger (atomically, via rename) after
//! every rank completion, so a killed coordinator loses at most the
//! in-flight ranks — their PEs simply remain `pending` and are
//! regenerated on resume. The document is a struct over
//! [`kagen_obs::json`], in the manifest's layout.

use crate::plan::RankTask;
use kagen_obs::json::{self, Layout, Value};
use kagen_obs::Staged;
use kagen_pipeline::{RunHeader, ShardInfo};
use std::io;
use std::path::Path;

/// File name of the ledger inside a shard directory.
pub const LEDGER_FILE: &str = "ledger.json";

/// Per-shard state: generated (with its generation-time info) or not.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardState {
    /// Not yet generated (or invalidated by a failed validation).
    Pending,
    /// Generated; carries the worker-reported shard info.
    Done(ShardInfo),
}

/// Status of one rank of the current spawn plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RankStatus {
    /// Not yet spawned, or spawned and not yet finished.
    Pending,
    /// Worker exited successfully and its rank report was merged.
    Done,
    /// Worker exited with an error; its PEs stay pending.
    Failed,
}

impl RankStatus {
    fn name(&self) -> &'static str {
        match self {
            RankStatus::Pending => "pending",
            RankStatus::Done => "done",
            RankStatus::Failed => "failed",
        }
    }

    fn parse(name: &str) -> Result<RankStatus, String> {
        match name {
            "pending" => Ok(RankStatus::Pending),
            "done" => Ok(RankStatus::Done),
            "failed" => Ok(RankStatus::Failed),
            other => Err(format!("ledger: unknown rank status '{other}'")),
        }
    }
}

/// One rank of the current spawn plan, with its outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RankRecord {
    /// Rank id within the plan.
    pub rank: usize,
    /// First PE of the rank's range.
    pub pe_begin: usize,
    /// One past the last PE.
    pub pe_end: usize,
    /// Outcome of the most recent spawn.
    pub status: RankStatus,
    /// How many times this range has been spawned.
    pub attempts: u64,
}

/// The resumable run ledger.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ledger {
    /// Run identity — must match the CLI parameters on resume.
    pub header: RunHeader,
    /// Worker count of the most recent launch.
    pub workers: usize,
    /// Per-PE shard state, indexed by PE.
    pub shards: Vec<ShardState>,
    /// The current spawn plan.
    pub ranks: Vec<RankRecord>,
}

impl Ledger {
    /// Fresh ledger: every shard pending, plan = `tasks`.
    pub fn new(header: RunHeader, workers: usize, tasks: &[RankTask]) -> Ledger {
        let shards = vec![ShardState::Pending; header.chunks as usize];
        let mut ledger = Ledger {
            header,
            workers,
            shards,
            ranks: Vec::new(),
        };
        ledger.set_plan(tasks);
        ledger
    }

    /// Install a new spawn plan (fresh launch or resume repairs),
    /// resetting the per-rank records. Shard states are untouched.
    pub fn set_plan(&mut self, tasks: &[RankTask]) {
        self.ranks = tasks
            .iter()
            .map(|t| RankRecord {
                rank: t.rank,
                pe_begin: t.pe_begin,
                pe_end: t.pe_end,
                status: RankStatus::Pending,
                attempts: 0,
            })
            .collect();
    }

    /// Record a successful rank: its shards become done, its record is
    /// marked done, attempts incremented.
    pub fn record_rank_done(&mut self, rank: usize, shards: Vec<ShardInfo>) {
        for info in shards {
            let pe = info.pe as usize;
            self.shards[pe] = ShardState::Done(info);
        }
        let r = &mut self.ranks[rank];
        r.status = RankStatus::Done;
        r.attempts += 1;
    }

    /// Record a failed rank; its PEs remain pending.
    pub fn record_rank_failed(&mut self, rank: usize) {
        let r = &mut self.ranks[rank];
        r.status = RankStatus::Failed;
        r.attempts += 1;
    }

    /// Record a failed attempt that the supervisor will retry in-launch:
    /// the attempt counts, but the rank goes back to pending instead of
    /// failed (so a coordinator killed mid-retry resumes it like any
    /// other unfinished rank).
    pub fn record_rank_retry(&mut self, rank: usize) {
        let r = &mut self.ranks[rank];
        r.status = RankStatus::Pending;
        r.attempts += 1;
    }

    /// Mark a shard pending again (failed resume-time validation).
    pub fn invalidate_shard(&mut self, pe: usize) {
        self.shards[pe] = ShardState::Pending;
    }

    /// PEs whose shards are not `done`, ascending.
    pub fn missing_pes(&self) -> Vec<usize> {
        self.shards
            .iter()
            .enumerate()
            .filter_map(|(pe, s)| matches!(s, ShardState::Pending).then_some(pe))
            .collect()
    }

    /// The shard infos of every done shard, in PE order.
    pub fn done_shards(&self) -> Vec<ShardInfo> {
        self.shards
            .iter()
            .filter_map(|s| match s {
                ShardState::Done(info) => Some(info.clone()),
                ShardState::Pending => None,
            })
            .collect()
    }

    /// Serialize to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let shard = |(pe, state): (usize, &ShardState)| match state {
            ShardState::Pending => json::obj([("pe", pe.into()), ("status", "pending".into())]),
            ShardState::Done(info) => {
                let head = [("pe", Value::from(pe)), ("status", "done".into())];
                json::obj(head.into_iter().chain(info.payload_fields()))
            }
        };
        let rank = |r: &RankRecord| {
            json::obj([
                ("rank", Value::from(r.rank)),
                ("pe_begin", r.pe_begin.into()),
                ("pe_end", r.pe_end.into()),
                ("status", r.status.name().into()),
                ("attempts", r.attempts.into()),
            ])
        };
        let mut fields = self.header.json_fields();
        fields.push(("workers", self.workers.into()));
        let shards = self.shards.iter().enumerate().map(shard);
        fields.push(("shards", Value::Arr(shards.collect())));
        fields.push(("ranks", Value::Arr(self.ranks.iter().map(rank).collect())));
        json::obj(fields).render(Layout::Pretty)
    }

    /// Parse from JSON (inverse of [`Ledger::to_json`]).
    pub fn from_json(text: &str) -> Result<Ledger, String> {
        let value = json::parse(text)?;
        let obj = value.as_obj("ledger")?;
        let header = RunHeader::from_json_obj(&obj)?;
        let workers = obj.u64("workers")? as usize;

        let shard_values = obj.arr("shards")?;
        if shard_values.len() as u64 != header.chunks {
            return Err(format!(
                "ledger: {} shard entries for {} chunks",
                shard_values.len(),
                header.chunks
            ));
        }
        let mut shards = Vec::with_capacity(shard_values.len());
        for (i, sv) in shard_values.iter().enumerate() {
            let so = sv.as_obj(&format!("shards[{i}]"))?;
            let pe = so.u64("pe")?;
            if pe != i as u64 {
                return Err(format!("ledger: shard entry {i} has pe {pe}"));
            }
            shards.push(match so.str("status")? {
                "pending" => ShardState::Pending,
                "done" => ShardState::Done(ShardInfo::from_json_obj(&so)?),
                other => return Err(format!("ledger: unknown shard status '{other}'")),
            });
        }

        let mut ranks = Vec::new();
        for (i, rv) in obj.arr("ranks")?.iter().enumerate() {
            let ro = rv.as_obj(&format!("ranks[{i}]"))?;
            ranks.push(RankRecord {
                rank: ro.u64("rank")? as usize,
                pe_begin: ro.u64("pe_begin")? as usize,
                pe_end: ro.u64("pe_end")? as usize,
                status: RankStatus::parse(ro.str("status")?)?,
                attempts: ro.u64("attempts")?,
            });
        }

        Ok(Ledger {
            header,
            workers,
            shards,
            ranks,
        })
    }

    /// Publish `ledger.json` in `dir` (staged, see [`Staged`]) — a
    /// crash mid-save never leaves a truncated ledger behind.
    pub fn save(&self, dir: &Path) -> io::Result<()> {
        Staged::save_atomic(&dir.join(LEDGER_FILE), self.to_json())
    }

    /// Load `ledger.json` from `dir`.
    pub fn load(dir: &Path) -> io::Result<Ledger> {
        json::load(&dir.join(LEDGER_FILE), Ledger::from_json)
    }

    /// Whether a ledger exists in `dir`.
    pub fn exists(dir: &Path) -> bool {
        dir.join(LEDGER_FILE).exists()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::plan_ranks;

    fn header() -> RunHeader {
        RunHeader {
            model: "gnm_undirected".into(),
            params: "n=100 m=500".into(),
            seed: 7,
            n: 100,
            directed: false,
            chunks: 4,
            format: "compressed".into(),
        }
    }

    fn info(pe: u64) -> ShardInfo {
        ShardInfo {
            pe,
            file: format!("shard-{pe:05}.kgc"),
            edges: 10 * pe,
            checksum: 0x1234 + pe,
        }
    }

    #[test]
    fn fresh_ledger_has_all_pes_missing() {
        let ledger = Ledger::new(header(), 2, &plan_ranks(4, 2));
        assert_eq!(ledger.missing_pes(), vec![0, 1, 2, 3]);
        assert!(ledger.done_shards().is_empty());
        assert_eq!(ledger.ranks.len(), 2);
    }

    #[test]
    fn json_roundtrip_mixed_states() {
        let mut ledger = Ledger::new(header(), 2, &plan_ranks(4, 2));
        ledger.record_rank_done(0, vec![info(0), info(1)]);
        ledger.record_rank_failed(1);
        let back = Ledger::from_json(&ledger.to_json()).unwrap();
        assert_eq!(back, ledger);
        assert_eq!(back.missing_pes(), vec![2, 3]);
        assert_eq!(back.done_shards(), vec![info(0), info(1)]);
        assert_eq!(back.ranks[1].status, RankStatus::Failed);
        assert_eq!(back.ranks[1].attempts, 1);
    }

    #[test]
    fn save_load_roundtrip_and_atomic_tmp_cleanup() {
        let dir = std::env::temp_dir().join("kagen_ledger_test");
        std::fs::create_dir_all(&dir).unwrap();
        let mut ledger = Ledger::new(header(), 2, &plan_ranks(4, 2));
        ledger.record_rank_done(1, vec![info(2), info(3)]);
        ledger.save(&dir).unwrap();
        assert!(
            !dir.join("ledger.json.kagen-tmp").exists(),
            "tmp not renamed"
        );
        let back = Ledger::load(&dir).unwrap();
        assert_eq!(back, ledger);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chunk_count_mismatch_is_an_error() {
        let mut ledger = Ledger::new(header(), 2, &plan_ranks(4, 2));
        ledger.shards.pop();
        let err = Ledger::from_json(&ledger.to_json()).unwrap_err();
        assert!(err.contains("shard entries"), "{err}");
    }
}

//! The write-ahead job journal.
//!
//! # Frame format
//!
//! Both durability logs — the [`ResultStore`](crate::ResultStore) spill
//! and the job journal — share the checksummed record framing in
//! [`crate::frame`] (also the binary wire codec's envelope), designed so
//! a reader can always tell a *complete, intact* record from a torn or
//! corrupt tail. [`frame`], [`read_frames`], and [`RecoveryReport`] are
//! re-exported here for the recovery-facing callers that grew up when
//! the framing lived in this module.
//!
//! # The journal
//!
//! [`Journal`] is the write-ahead log of the scheduler's admissions:
//! every fresh job appends an `admit` record *before* any worker can
//! pick it up, and every terminal outcome appends a `settle` record.
//! On restart, [`replay`] folds the two streams: admits without a
//! matching settle are the jobs the previous process accepted but never
//! finished, and the service re-enqueues them (unless the warmed result
//! store already has their result, which means only the settle record
//! was lost). [`compact`] then rewrites the journal to just those
//! unfinished admits, so the file stays proportional to outstanding
//! work rather than to service uptime.

use std::collections::HashMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

use ra_obs::{json_object, JsonField};

pub use crate::frame::{frame, read_frames, RecoveryReport};
pub(crate) use crate::frame::FrameWriter;

use crate::json::Json;
use crate::scheduler::Priority;
use crate::spec::JobKey;

/// A journaled-but-unfinished job: admitted by a previous process, never
/// settled, and (after the spill replay) not memoized either — it must
/// run again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnfinishedJob {
    /// Content hash of the canonical spec.
    pub key: JobKey,
    /// Canonical spec text, re-parseable into a `JobSpec`.
    pub spec: String,
    /// The priority it was admitted at.
    pub priority: Priority,
}

/// A journaled intent to re-run a degraded answer at full fidelity: the
/// service published a brownout answer and owes the client's cache an
/// upgrade. Cleared by an `upgraded` record when the full run lands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpgradeIntent {
    /// Content hash of the canonical spec.
    pub key: JobKey,
    /// Canonical spec text, re-parseable into a `JobSpec`.
    pub spec: String,
}

/// What [`replay`] recovered from a journal file.
#[derive(Debug, Clone, Default)]
pub struct JournalRecovery {
    /// Admitted jobs with no settle record, in admission order.
    pub unfinished: Vec<UnfinishedJob>,
    /// Degraded answers whose full-fidelity upgrade never landed, in
    /// intent order.
    pub pending_upgrades: Vec<UpgradeIntent>,
    /// Frame-level accounting for the pass.
    pub report: RecoveryReport,
}

/// The write-ahead job journal: checksummed `admit` / `settle` records.
///
/// Append failures are swallowed after the first (the journal is a
/// durability aid; a full disk must not take the service down), but the
/// first error is remembered and surfaced by [`Journal::sync`].
pub struct Journal {
    writer: Mutex<JournalWriter>,
    path: std::path::PathBuf,
    fsync_every: u64,
}

struct JournalWriter {
    frames: FrameWriter,
    /// First append error, reported once by `sync`.
    error: Option<io::Error>,
    /// Current journal file length in bytes (frames appended since open
    /// plus whatever was already there), kept so the scheduler can
    /// trigger compaction without a stat per settle.
    bytes: u64,
    /// Completed runtime compactions.
    compactions: u64,
}

impl Journal {
    /// Opens (creating or appending to) the journal at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying open failure.
    pub fn open(path: &Path, fsync_every: u64) -> io::Result<Journal> {
        let frames = FrameWriter::append_to(path, fsync_every)?;
        let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        Ok(Journal {
            writer: Mutex::new(JournalWriter {
                frames,
                error: None,
                bytes,
                compactions: 0,
            }),
            path: path.to_path_buf(),
            fsync_every,
        })
    }

    fn append(&self, payload: &str) {
        let mut writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        if writer.error.is_some() {
            return;
        }
        match writer.frames.append(payload) {
            Ok(()) => writer.bytes += frame(payload).len() as u64,
            Err(err) => writer.error = Some(err),
        }
    }

    /// Current journal file length in bytes, as tracked by the writer.
    pub fn len_bytes(&self) -> u64 {
        self.writer.lock().unwrap_or_else(|e| e.into_inner()).bytes
    }

    /// Completed runtime compactions since open.
    pub fn compactions(&self) -> u64 {
        let writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        writer.compactions
    }

    /// Rewrites the journal in place to exactly `unfinished` plus
    /// `upgrades`, with the same tmp + fsync + rename discipline as the
    /// startup [`compact`]. The writer lock is held across the rewrite,
    /// so no append can interleave with the rename; the caller must pass
    /// sets consistent with everything appended so far (i.e. call this
    /// under the same lock that orders admits and settles).
    ///
    /// # Errors
    ///
    /// Propagates write/rename/reopen failures; on error the journal
    /// keeps appending to whichever file the rename left behind.
    pub fn compact_live(
        &self,
        unfinished: &[UnfinishedJob],
        upgrades: &[UpgradeIntent],
    ) -> io::Result<()> {
        let mut writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        // Flush buffered frames so the pre-compaction file is complete
        // (a crash mid-compaction must leave a fully-replayable log).
        writer.frames.sync()?;
        compact(&self.path, unfinished, upgrades)?;
        writer.frames = FrameWriter::append_to(&self.path, self.fsync_every)?;
        writer.bytes = std::fs::metadata(&self.path).map(|m| m.len()).unwrap_or(0);
        writer.compactions += 1;
        Ok(())
    }

    /// Records an admission. Must be called *before* the job becomes
    /// visible to any worker (the write-ahead contract).
    pub fn admit(&self, key: JobKey, spec: &str, priority: Priority) {
        self.append(&json_object(&[
            ("rec", JsonField::Str("admit".into())),
            ("job", JsonField::Str(key.to_string())),
            ("spec", JsonField::Str(spec.to_owned())),
            ("priority", JsonField::Str(priority.to_string())),
        ]));
    }

    /// Records a terminal outcome for a previously admitted job.
    pub fn settle(&self, key: JobKey, outcome: &str) {
        self.append(&json_object(&[
            ("rec", JsonField::Str("settle".into())),
            ("job", JsonField::Str(key.to_string())),
            ("outcome", JsonField::Str(outcome.to_owned())),
        ]));
    }

    /// Records an upgrade intent: a degraded answer was published for
    /// `key` and a full-fidelity re-run is owed. Written alongside the
    /// settle so a crash cannot lose the debt.
    pub fn upgrade(&self, key: JobKey, spec: &str) {
        self.append(&json_object(&[
            ("rec", JsonField::Str("upgrade".into())),
            ("job", JsonField::Str(key.to_string())),
            ("spec", JsonField::Str(spec.to_owned())),
        ]));
    }

    /// Records that the full-fidelity re-run for `key` landed (or that
    /// the intent became moot), clearing the pending upgrade.
    pub fn upgraded(&self, key: JobKey) {
        self.append(&json_object(&[
            ("rec", JsonField::Str("upgraded".into())),
            ("job", JsonField::Str(key.to_string())),
        ]));
    }

    /// Flushes and fsyncs, surfacing any deferred append error once.
    ///
    /// # Errors
    ///
    /// The first deferred append failure, or the sync failure itself.
    pub fn sync(&self) -> io::Result<()> {
        let mut writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(err) = writer.error.take() {
            return Err(err);
        }
        writer.frames.sync()
    }
}

/// Replays the journal at `path`, tolerating a torn or corrupt tail. A
/// missing file is an empty journal, not an error.
///
/// # Errors
///
/// Propagates read failures other than `NotFound`.
pub fn replay(path: &Path) -> io::Result<JournalRecovery> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(err) if err.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(err) => return Err(err),
    };
    let (records, report) = read_frames(&bytes);
    // Fold admits against settles, preserving admission order. The same
    // key can legitimately cycle admit -> settle -> admit (re-admitted
    // after a cache eviction), so a settle clears only the pending slot.
    let mut order: Vec<Option<UnfinishedJob>> = Vec::new();
    let mut pending: HashMap<u64, usize> = HashMap::new();
    // Upgrade intents fold independently of admits/settles: a `settle`
    // never clears an upgrade debt, only an `upgraded` record does.
    let mut upgrade_order: Vec<Option<UpgradeIntent>> = Vec::new();
    let mut upgrades_pending: HashMap<u64, usize> = HashMap::new();
    for record in &records {
        let Ok(json) = Json::parse(record) else {
            continue; // checksum-valid but semantically foreign: skip
        };
        let job = json
            .get("job")
            .and_then(Json::as_str)
            .and_then(|s| s.parse::<JobKey>().ok());
        let Some(key) = job else { continue };
        match json.get("rec").and_then(Json::as_str) {
            Some("admit") => {
                let Some(spec) = json.get("spec").and_then(Json::as_str) else {
                    continue;
                };
                let priority = json
                    .get("priority")
                    .and_then(Json::as_str)
                    .and_then(|p| p.parse().ok())
                    .unwrap_or_default();
                if let Some(&slot) = pending.get(&key.0) {
                    // Duplicate admit without a settle: refresh in place.
                    order[slot] = Some(UnfinishedJob {
                        key,
                        spec: spec.to_owned(),
                        priority,
                    });
                } else {
                    pending.insert(key.0, order.len());
                    order.push(Some(UnfinishedJob {
                        key,
                        spec: spec.to_owned(),
                        priority,
                    }));
                }
            }
            Some("settle") => {
                if let Some(slot) = pending.remove(&key.0) {
                    order[slot] = None;
                }
            }
            Some("upgrade") => {
                let Some(spec) = json.get("spec").and_then(Json::as_str) else {
                    continue;
                };
                let intent = UpgradeIntent {
                    key,
                    spec: spec.to_owned(),
                };
                if let Some(&slot) = upgrades_pending.get(&key.0) {
                    upgrade_order[slot] = Some(intent);
                } else {
                    upgrades_pending.insert(key.0, upgrade_order.len());
                    upgrade_order.push(Some(intent));
                }
            }
            Some("upgraded") => {
                if let Some(slot) = upgrades_pending.remove(&key.0) {
                    upgrade_order[slot] = None;
                }
            }
            _ => {}
        }
    }
    Ok(JournalRecovery {
        unfinished: order.into_iter().flatten().collect(),
        pending_upgrades: upgrade_order.into_iter().flatten().collect(),
        report,
    })
}

/// Rewrites the journal to exactly `unfinished` admit records plus
/// `upgrades` upgrade-intent records, via a temp file + atomic rename so
/// a crash mid-compaction leaves either the old journal or the new one,
/// never a mix.
///
/// # Errors
///
/// Propagates write/rename failures.
pub fn compact(
    path: &Path,
    unfinished: &[UnfinishedJob],
    upgrades: &[UpgradeIntent],
) -> io::Result<()> {
    let tmp = path.with_extension("compact.tmp");
    {
        let mut out = BufWriter::new(File::create(&tmp)?);
        for job in unfinished {
            let payload = json_object(&[
                ("rec", JsonField::Str("admit".into())),
                ("job", JsonField::Str(job.key.to_string())),
                ("spec", JsonField::Str(job.spec.clone())),
                ("priority", JsonField::Str(job.priority.to_string())),
            ]);
            out.write_all(frame(&payload).as_bytes())?;
        }
        for intent in upgrades {
            let payload = json_object(&[
                ("rec", JsonField::Str("upgrade".into())),
                ("job", JsonField::Str(intent.key.to_string())),
                ("spec", JsonField::Str(intent.spec.clone())),
            ]);
            out.write_all(frame(&payload).as_bytes())?;
        }
        out.flush()?;
        out.get_ref().sync_data()?;
    }
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "ra-serve-journal-{tag}-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn journal_replay_resumes_only_unsettled_admits() {
        let path = temp_path("replay");
        let _ = std::fs::remove_file(&path);
        {
            let journal = Journal::open(&path, 0).unwrap();
            journal.admit(JobKey(1), "spec one", Priority::High);
            journal.admit(JobKey(2), "spec two", Priority::Low);
            journal.settle(JobKey(1), "completed");
            journal.admit(JobKey(3), "spec three", Priority::Normal);
            journal.sync().unwrap();
        }
        let recovery = replay(&path).unwrap();
        assert_eq!(recovery.report.recovered_records, 4);
        assert_eq!(recovery.report.checksum_errors, 0);
        let keys: Vec<u64> = recovery.unfinished.iter().map(|j| j.key.0).collect();
        assert_eq!(keys, vec![2, 3], "settled jobs are not resumed");
        assert_eq!(recovery.unfinished[0].spec, "spec two");
        assert_eq!(recovery.unfinished[0].priority, Priority::Low);

        // Compaction keeps exactly the unfinished set.
        compact(&path, &recovery.unfinished, &[]).unwrap();
        let again = replay(&path).unwrap();
        assert_eq!(again.unfinished, recovery.unfinished);
        assert_eq!(again.report.recovered_records, 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn upgrade_intents_replay_and_survive_compaction() {
        let path = temp_path("upgrades");
        let _ = std::fs::remove_file(&path);
        {
            let journal = Journal::open(&path, 0).unwrap();
            journal.admit(JobKey(1), "spec one", Priority::Normal);
            // Degraded publish: settle the admit, journal the debt.
            journal.settle(JobKey(1), "degraded");
            journal.upgrade(JobKey(1), "spec one");
            journal.admit(JobKey(2), "spec two", Priority::Normal);
            journal.settle(JobKey(2), "degraded");
            journal.upgrade(JobKey(2), "spec two");
            // Job 2's upgrade lands; job 1's is still owed.
            journal.upgraded(JobKey(2));
            journal.sync().unwrap();
        }
        let recovery = replay(&path).unwrap();
        assert!(recovery.unfinished.is_empty(), "settles clear the admits");
        assert_eq!(
            recovery.pending_upgrades,
            vec![UpgradeIntent {
                key: JobKey(1),
                spec: "spec one".to_owned(),
            }],
            "a settle never clears the upgrade debt; only `upgraded` does"
        );

        // Compaction carries the pending intent forward.
        compact(&path, &recovery.unfinished, &recovery.pending_upgrades).unwrap();
        let again = replay(&path).unwrap();
        assert_eq!(again.pending_upgrades, recovery.pending_upgrades);
        assert_eq!(again.report.recovered_records, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn replay_of_a_missing_journal_is_empty() {
        let recovery = replay(Path::new("/nonexistent/ra-serve/journal")).unwrap();
        assert!(recovery.unfinished.is_empty());
        assert_eq!(recovery.report, RecoveryReport::default());
    }

    #[test]
    fn appending_after_a_torn_tail_truncates_the_tear_first() {
        let path = temp_path("torn-append");
        let _ = std::fs::remove_file(&path);
        {
            let journal = Journal::open(&path, 0).unwrap();
            journal.admit(JobKey(1), "spec one", Priority::Normal);
            journal.admit(JobKey(2), "spec two", Priority::Normal);
            journal.sync().unwrap();
        }
        // kill -9 tears the tail of record 2.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        // Reopen-for-append must not glue record 3 onto the tear.
        {
            let journal = Journal::open(&path, 0).unwrap();
            journal.admit(JobKey(3), "spec three", Priority::High);
            journal.sync().unwrap();
        }
        let recovery = replay(&path).unwrap();
        assert_eq!(recovery.report.checksum_errors, 0);
        assert_eq!(recovery.report.dropped_tail_bytes, 0);
        let keys: Vec<u64> = recovery.unfinished.iter().map(|j| j.key.0).collect();
        assert_eq!(keys, vec![1, 3], "the record after the tear must survive");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compact_live_bounds_the_file_and_keeps_appending() {
        let path = temp_path("compact-live");
        let _ = std::fs::remove_file(&path);
        let journal = Journal::open(&path, 0).unwrap();
        for i in 0..32u64 {
            journal.admit(JobKey(i), &format!("spec {i}"), Priority::Normal);
            journal.settle(JobKey(i), "completed");
        }
        let unfinished = vec![UnfinishedJob {
            key: JobKey(99),
            spec: "spec ninety-nine".to_owned(),
            priority: Priority::High,
        }];
        journal.admit(JobKey(99), "spec ninety-nine", Priority::High);
        let before = journal.len_bytes();
        journal.compact_live(&unfinished, &[]).unwrap();
        assert!(journal.len_bytes() < before);
        assert_eq!(journal.compactions(), 1);
        // The writer keeps working against the compacted file.
        journal.settle(JobKey(99), "completed");
        journal.sync().unwrap();
        let recovery = replay(&path).unwrap();
        assert!(recovery.unfinished.is_empty());
        assert_eq!(recovery.report.checksum_errors, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_settle_then_readmit_cycle_stays_pending() {
        let path = temp_path("cycle");
        let _ = std::fs::remove_file(&path);
        {
            let journal = Journal::open(&path, 0).unwrap();
            journal.admit(JobKey(7), "spec", Priority::Normal);
            journal.settle(JobKey(7), "completed");
            journal.admit(JobKey(7), "spec", Priority::High);
            journal.sync().unwrap();
        }
        let recovery = replay(&path).unwrap();
        assert_eq!(recovery.unfinished.len(), 1);
        assert_eq!(recovery.unfinished[0].priority, Priority::High);
        let _ = std::fs::remove_file(&path);
    }
}

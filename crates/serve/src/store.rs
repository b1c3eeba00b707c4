//! Result memoization: a sharded in-memory LRU plus a checksummed,
//! replayable spill log.
//!
//! The store is keyed by [`JobKey`] — the content hash of a job's
//! canonical text — so *any* two requests that mean the same simulation
//! share one entry, regardless of how they were phrased on the wire.
//!
//! Two tiers:
//!
//! * **LRU cache** — `shards` independent `Mutex<HashMap>` shards (key
//!   distributes by its low bits) so concurrent workers rarely contend on
//!   the same lock. Each shard tracks a monotonic use tick; when a shard
//!   exceeds its slice of `capacity`, the least-recently-used entry is
//!   evicted. Results are `Arc`-shared, so a hit never copies the
//!   latency histograms.
//! * **Spill log** — every insertion appends one checksummed frame (see
//!   [`crate::journal`] for the framing) whose JSON payload carries the
//!   *complete deterministic result*: headline numbers plus the exact
//!   Welford state of every latency summary. On restart,
//!   [`warm_from_spill`](ResultStore::warm_from_spill) replays the log —
//!   tolerating a torn or corrupt tail — and rebuilds the LRU so
//!   completed work survives a kill -9. Replayed results are bit-exact
//!   in everything deterministic; only the wall-clock duration (reset to
//!   zero) and the coupler diagnostics (dropped) are not persisted.

use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ra_cosim::RunResult;
use ra_obs::{json_object, JsonField};
use ra_sim::Summary;

use crate::frame::{read_frames, FrameWriter, RecoveryReport};
use crate::json::Json;
use crate::spec::{Fidelity, JobKey};

/// A cached result with its answer-quality metadata: which fidelity rung
/// produced it and the relative error bound the service estimated for
/// that rung (0.0 for full-fidelity answers with no drift history).
///
/// The store's replacement rule is *upgrade-only*: once a key holds a
/// result at some fidelity, an insert at a lower rung is ignored, so a
/// background upgrade can never be clobbered by a stale degraded run
/// racing it.
#[derive(Debug, Clone)]
pub struct StoredResult {
    /// The deterministic run result.
    pub result: Arc<RunResult>,
    /// Which rung of the ladder produced it.
    pub fidelity: Fidelity,
    /// Estimated relative error of the answer (fraction, e.g. 0.15).
    pub error_bound: f64,
}

impl StoredResult {
    /// Wraps a full-fidelity result (the spec's own mode, no bound).
    pub fn full(result: Arc<RunResult>) -> StoredResult {
        StoredResult {
            result,
            fidelity: Fidelity::Reciprocal,
            error_bound: 0.0,
        }
    }
}

/// Counters the `stats` wire verb and the smoke tests read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups that found a cached result.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Results inserted.
    pub insertions: u64,
    /// Entries evicted to stay under capacity.
    pub evictions: u64,
}

impl StoreStats {
    /// Fraction of lookups served from cache (0 when none happened).
    pub fn hit_ratio(&self) -> f64 {
        ratio(self.hits, self.hits + self.misses)
    }
}

/// `part / whole`, or 0 when nothing was counted yet.
pub(crate) fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

struct Entry {
    stored: StoredResult,
    last_used: u64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<u64, Entry>,
    tick: u64,
}

/// Sharded LRU result cache with an optional checksummed spill log.
pub struct ResultStore {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
    spill: Option<Mutex<FrameWriter>>,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl ResultStore {
    /// A store holding at most `capacity` results across `shards` locks.
    ///
    /// `shards` is clamped to `1..=capacity.max(1)` so every shard can
    /// hold at least one entry.
    pub fn new(capacity: usize, shards: usize) -> ResultStore {
        let shards = shards.clamp(1, capacity.max(1));
        ResultStore {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_capacity: capacity.div_ceil(shards).max(1),
            spill: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Attaches (and creates or appends to) a framed spill log, fsyncing
    /// after every `fsync_every` records (0 = flush only).
    ///
    /// Call [`warm_from_spill`](ResultStore::warm_from_spill) *first*
    /// when restarting against an existing log, so recovery does not
    /// re-append what it just read.
    ///
    /// # Errors
    ///
    /// Propagates the underlying `open` failure.
    pub fn with_spill(mut self, path: &Path, fsync_every: u64) -> io::Result<ResultStore> {
        self.spill = Some(Mutex::new(FrameWriter::append_to(path, fsync_every)?));
        Ok(self)
    }

    /// Replays an existing spill log into the LRU (newest record wins),
    /// stopping at the first torn or corrupt frame. A missing file is an
    /// empty log. Records that fail semantic decoding (foreign payloads)
    /// are skipped without charging the report.
    ///
    /// # Errors
    ///
    /// Propagates read failures other than `NotFound`.
    pub fn warm_from_spill(&mut self, path: &Path) -> io::Result<RecoveryReport> {
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(err) if err.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(err) => return Err(err),
        };
        let (records, mut report) = read_frames(&bytes);
        report.recovered_records = 0; // count only records that decode
        for record in &records {
            let Some((key, stored)) = decode_spill_record(record) else {
                continue;
            };
            self.insert_entry(key, stored);
            report.recovered_records += 1;
        }
        Ok(report)
    }

    fn shard(&self, key: JobKey) -> &Mutex<Shard> {
        &self.shards[(key.0 as usize) % self.shards.len()]
    }

    /// Looks up a cached result (with its fidelity tag and error bound),
    /// refreshing its recency on a hit.
    pub fn get(&self, key: JobKey) -> Option<StoredResult> {
        let mut shard = self.shard(key).lock().expect("store shard poisoned");
        shard.tick += 1;
        let tick = shard.tick;
        match shard.map.get_mut(&key.0) {
            Some(entry) => {
                entry.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.stored.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Fidelity of the cached entry for `key`, without charging hit/miss
    /// counters or recency (the upgrader's "is this still degraded?"
    /// check).
    pub fn fidelity_of(&self, key: JobKey) -> Option<Fidelity> {
        self.shard(key)
            .lock()
            .expect("store shard poisoned")
            .map
            .get(&key.0)
            .map(|e| e.stored.fidelity)
    }

    /// True when `key` is cached, without perturbing hit/miss counters
    /// or recency (used by restart recovery to classify journaled jobs).
    pub fn contains(&self, key: JobKey) -> bool {
        self.shard(key)
            .lock()
            .expect("store shard poisoned")
            .map
            .contains_key(&key.0)
    }

    /// LRU insert + bounded eviction, shared by the live path and the
    /// warm-restart replay (which must not re-spill). Returns whether the
    /// entry was stored: an insert at a *lower* fidelity than what the
    /// key already holds is a no-op (upgrade-only replacement), so a
    /// stale degraded run can never clobber an upgraded answer.
    fn insert_entry(&self, key: JobKey, stored: StoredResult) -> bool {
        let mut shard = self.shard(key).lock().expect("store shard poisoned");
        shard.tick += 1;
        let tick = shard.tick;
        if let Some(existing) = shard.map.get(&key.0) {
            if existing.stored.fidelity > stored.fidelity {
                return false;
            }
        }
        shard.map.insert(
            key.0,
            Entry {
                stored,
                last_used: tick,
            },
        );
        while shard.map.len() > self.per_shard_capacity {
            // O(shard) scan; shards are small (capacity / shards) and
            // eviction is off the submit fast path.
            let coldest = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
                .expect("non-empty shard");
            shard.map.remove(&coldest);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        true
    }

    /// Inserts (or refreshes) a result and appends a framed spill record.
    /// Returns whether the entry was stored; a lower-fidelity insert than
    /// what the key already holds is skipped (and not spilled, so a warm
    /// restart cannot resurrect the downgrade either).
    ///
    /// `spec` is the job's canonical text, recorded in the spill so the
    /// log is self-describing without the hash preimage.
    pub fn insert(&self, key: JobKey, spec: &str, stored: StoredResult) -> bool {
        if !self.insert_entry(key, stored.clone()) {
            return false;
        }
        self.insertions.fetch_add(1, Ordering::Relaxed);
        if let Some(spill) = &self.spill {
            let payload = encode_spill_record(key, spec, &stored);
            let mut spill = spill.lock().expect("spill log poisoned");
            // A full disk shouldn't take the service down; the cache is
            // authoritative and the spill is advisory.
            let _ = spill.append(&payload);
        }
        true
    }

    /// Flushes and fsyncs the spill log (no-op without one) — the drain
    /// path's "nothing buffered" guarantee.
    ///
    /// # Errors
    ///
    /// Propagates the flush/sync failure.
    pub fn sync_spill(&self) -> io::Result<()> {
        match &self.spill {
            Some(spill) => spill.lock().expect("spill log poisoned").sync(),
            None => Ok(()),
        }
    }

    /// Number of cached results across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("store shard poisoned").map.len())
            .sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot (hits/misses/insertions/evictions).
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

/// `[count, mean, m2, min, max]`, or `[0]` for an empty summary (whose
/// ±inf min/max sentinels have no JSON representation). f64s print in
/// Rust's shortest-round-trip form, so decode is bit-exact.
fn summary_json(s: &Summary) -> String {
    if s.count() == 0 {
        "[0]".to_owned()
    } else {
        format!(
            "[{},{},{},{},{}]",
            s.count(),
            s.mean(),
            s.m2(),
            s.min(),
            s.max()
        )
    }
}

fn summary_from_json(json: &Json) -> Option<Summary> {
    let Json::Arr(items) = json else {
        return None;
    };
    let count = items.first()?.as_u64()?;
    if count == 0 {
        return Some(Summary::new());
    }
    if items.len() != 5 {
        return None;
    }
    Some(Summary::from_parts(
        count,
        items[1].as_f64()?,
        items[2].as_f64()?,
        items[3].as_f64()?,
        items[4].as_f64()?,
    ))
}

/// One spill payload: everything deterministic about a completed run,
/// plus the answer-quality metadata (fidelity tag and error bound).
fn encode_spill_record(key: JobKey, spec: &str, stored: &StoredResult) -> String {
    let result = &stored.result;
    let classes: Vec<String> = result.class_latency.iter().map(summary_json).collect();
    let mut class_latency = String::from("[");
    class_latency.push_str(&classes.join(","));
    class_latency.push(']');
    json_object(&[
        ("rec", JsonField::Str("result".into())),
        ("job", JsonField::Str(key.to_string())),
        ("spec", JsonField::Str(spec.to_owned())),
        ("workload", JsonField::Str(result.workload.clone())),
        ("mode", JsonField::Str(result.mode.clone())),
        ("cycles", JsonField::Int(result.cycles)),
        ("messages", JsonField::Int(result.messages)),
        ("ipc", JsonField::Num(result.ipc)),
        ("calibrations", JsonField::Int(result.calibrations)),
        ("latency", JsonField::Raw(summary_json(&result.latency))),
        ("class_latency", JsonField::Raw(class_latency)),
        ("fidelity", JsonField::Str(stored.fidelity.name().to_owned())),
        ("error_bound", JsonField::Num(stored.error_bound)),
    ])
}

fn decode_spill_record(payload: &str) -> Option<(JobKey, StoredResult)> {
    let json = Json::parse(payload).ok()?;
    if json.get("rec").and_then(Json::as_str) != Some("result") {
        return None;
    }
    let key: JobKey = json.get("job")?.as_str()?.parse().ok()?;
    let class_latency = match json.get("class_latency")? {
        Json::Arr(items) => items
            .iter()
            .map(summary_from_json)
            .collect::<Option<Vec<Summary>>>()?,
        _ => return None,
    };
    // Records written before the fidelity ladder carry neither field;
    // they were all full-fidelity runs, with no estimated bound.
    let fidelity = match json.get("fidelity") {
        Some(j) => j.as_str()?.parse().ok()?,
        None => Fidelity::Reciprocal,
    };
    let error_bound = match json.get("error_bound") {
        Some(j) => j.as_f64()?,
        None => 0.0,
    };
    let result = RunResult {
        workload: json.get("workload")?.as_str()?.to_owned(),
        mode: json.get("mode")?.as_str()?.to_owned(),
        cycles: json.get("cycles")?.as_u64()?,
        wall: Duration::ZERO,
        latency: summary_from_json(json.get("latency")?)?,
        class_latency,
        messages: json.get("messages")?.as_u64()?,
        ipc: json.get("ipc")?.as_f64()?,
        calibrations: json.get("calibrations")?.as_u64()?,
        coupler: None,
    };
    Some((
        key,
        StoredResult {
            result: Arc::new(result),
            fidelity,
            error_bound,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ra_cosim::{ModeSpec, Target};
    use ra_workloads::AppProfile;

    fn tiny_result(cycles: u64) -> Arc<RunResult> {
        let target = Target::cmp(2, 2);
        let app = AppProfile::water();
        let mut result = ra_cosim::RunSpec::new(&target, &app)
            .mode(ModeSpec::Fixed(10))
            .instructions(5)
            .budget(100_000)
            .run()
            .unwrap();
        result.cycles = cycles; // distinguishable payloads for the tests
        Arc::new(result)
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ra-serve-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn get_after_insert_hits_and_counts() {
        let store = ResultStore::new(8, 2);
        let key = JobKey(0x11);
        assert!(store.get(key).is_none());
        store.insert(key, "spec", StoredResult::full(tiny_result(1)));
        let hit = store.get(key).expect("cached");
        assert_eq!(hit.result.cycles, 1);
        assert_eq!(hit.fidelity, Fidelity::Reciprocal);
        assert_eq!(hit.error_bound, 0.0);
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
        assert!((stats.hit_ratio() - 0.5).abs() < 1e-12);
        assert!(store.contains(key));
        assert_eq!(store.stats().hits, 1, "contains() charges no counters");
    }

    #[test]
    fn lru_evicts_the_coldest_entry_per_shard() {
        // Single shard, capacity 2: touching key 1 makes key 2 coldest.
        let store = ResultStore::new(2, 1);
        store.insert(JobKey(1), "a", StoredResult::full(tiny_result(1)));
        store.insert(JobKey(2), "b", StoredResult::full(tiny_result(2)));
        assert!(store.get(JobKey(1)).is_some());
        store.insert(JobKey(3), "c", StoredResult::full(tiny_result(3)));
        assert!(store.get(JobKey(2)).is_none(), "coldest entry evicted");
        assert!(store.get(JobKey(1)).is_some());
        assert!(store.get(JobKey(3)).is_some());
        assert_eq!(store.stats().evictions, 1);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn keys_spread_across_shards() {
        let store = ResultStore::new(64, 4);
        for k in 0..16u64 {
            store.insert(JobKey(k), "s", StoredResult::full(tiny_result(k)));
        }
        assert_eq!(store.len(), 16);
        let occupied = store
            .shards
            .iter()
            .filter(|s| !s.lock().unwrap().map.is_empty())
            .count();
        assert_eq!(occupied, 4, "sequential keys should use every shard");
    }

    #[test]
    fn spill_log_appends_one_checksummed_frame_per_insertion() {
        let dir = temp_dir("frames");
        let path = dir.join("results.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let store = ResultStore::new(8, 1).with_spill(&path, 0).unwrap();
            store.insert(
                JobKey(0xAB),
                "target=2x2 app=water",
                StoredResult::full(tiny_result(7)),
            );
            store.insert(
                JobKey(0xCD),
                "target=2x2 app=ocean",
                StoredResult::full(tiny_result(8)),
            );
        }
        let bytes = std::fs::read(&path).unwrap();
        let (records, report) = read_frames(&bytes);
        assert_eq!(report.recovered_records, 2);
        assert_eq!(report.dropped_tail_bytes, 0);
        assert_eq!(report.checksum_errors, 0);
        assert!(records[0].contains("\"job\":\"00000000000000ab\""));
        assert!(records[0].contains("\"spec\":\"target=2x2 app=water\""));
        assert!(records[0].contains("\"cycles\":7"));
        assert!(records[0].contains("\"fidelity\":\"reciprocal\""));
        assert!(records[1].contains("\"job\":\"00000000000000cd\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_restart_replays_the_spill_bit_exactly() {
        let dir = temp_dir("warm");
        let path = dir.join("results.jsonl");
        let _ = std::fs::remove_file(&path);
        let original = tiny_result(0); // keep the run's true cycles
        {
            let store = ResultStore::new(8, 2).with_spill(&path, 0).unwrap();
            store.insert(JobKey(0x11), "spec a", StoredResult::full(original.clone()));
            store.insert(JobKey(0x22), "spec b", StoredResult::full(tiny_result(99)));
        }
        let mut cold = ResultStore::new(8, 2);
        let report = cold.warm_from_spill(&path).unwrap();
        assert_eq!(report.recovered_records, 2);
        assert_eq!(report.checksum_errors, 0);
        assert_eq!(cold.len(), 2);
        let replayed = cold.get(JobKey(0x11)).expect("warmed");
        assert_eq!(replayed.fidelity, Fidelity::Reciprocal);
        assert_eq!(replayed.error_bound, 0.0);
        let replayed = replayed.result;
        assert_eq!(replayed.cycles, original.cycles);
        assert_eq!(replayed.messages, original.messages);
        assert_eq!(replayed.ipc, original.ipc);
        assert_eq!(replayed.latency, original.latency, "Welford state is bit-exact");
        assert_eq!(replayed.class_latency, original.class_latency);
        assert_eq!(replayed.workload, original.workload);
        assert_eq!(replayed.mode, original.mode);
        assert_eq!(replayed.wall, Duration::ZERO, "wall clock is not persisted");
        assert!(replayed.coupler.is_none(), "coupler diagnostics are not persisted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_restart_survives_a_torn_tail() {
        let dir = temp_dir("torn");
        let path = dir.join("results.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let store = ResultStore::new(8, 1).with_spill(&path, 0).unwrap();
            store.insert(JobKey(0x1), "a", StoredResult::full(tiny_result(1)));
            store.insert(JobKey(0x2), "b", StoredResult::full(tiny_result(2)));
        }
        // Tear the file mid-way through the second record.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
        let mut cold = ResultStore::new(8, 1);
        let report = cold.warm_from_spill(&path).unwrap();
        assert_eq!(report.recovered_records, 1);
        assert!(report.dropped_tail_bytes > 0);
        assert_eq!(report.checksum_errors, 0, "a tear is not a checksum error");
        assert!(cold.contains(JobKey(0x1)));
        assert!(!cold.contains(JobKey(0x2)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replacement_is_upgrade_only() {
        let store = ResultStore::new(8, 1);
        let key = JobKey(0x5);
        let degraded = StoredResult {
            result: tiny_result(10),
            fidelity: Fidelity::Hop,
            error_bound: 0.69,
        };
        assert!(store.insert(key, "s", degraded.clone()));
        assert_eq!(store.fidelity_of(key), Some(Fidelity::Hop));

        // Upgrading to calibrated replaces the entry...
        let calibrated = StoredResult {
            result: tiny_result(20),
            fidelity: Fidelity::Calibrated,
            error_bound: 0.15,
        };
        assert!(store.insert(key, "s", calibrated));
        let hit = store.get(key).unwrap();
        assert_eq!(hit.result.cycles, 20);
        assert_eq!(hit.fidelity, Fidelity::Calibrated);

        // ...but a stale degraded run racing the upgrade is ignored.
        assert!(!store.insert(key, "s", degraded));
        let hit = store.get(key).unwrap();
        assert_eq!(hit.result.cycles, 20);
        assert_eq!(hit.fidelity, Fidelity::Calibrated);
        assert_eq!(store.stats().insertions, 2, "the skipped insert is not counted");

        // Same-fidelity re-insert still refreshes (idempotent re-publish).
        let refreshed = StoredResult {
            result: tiny_result(30),
            fidelity: Fidelity::Calibrated,
            error_bound: 0.12,
        };
        assert!(store.insert(key, "s", refreshed));
        assert_eq!(store.get(key).unwrap().result.cycles, 30);
    }

    #[test]
    fn fidelity_and_error_bound_survive_the_spill_round_trip() {
        let dir = temp_dir("fidelity");
        let path = dir.join("results.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let store = ResultStore::new(8, 1).with_spill(&path, 0).unwrap();
            store.insert(
                JobKey(0x7),
                "spec",
                StoredResult {
                    result: tiny_result(3),
                    fidelity: Fidelity::Calibrated,
                    error_bound: 0.15,
                },
            );
        }
        let mut cold = ResultStore::new(8, 1);
        let report = cold.warm_from_spill(&path).unwrap();
        assert_eq!(report.recovered_records, 1);
        let hit = cold.get(JobKey(0x7)).unwrap();
        assert_eq!(hit.fidelity, Fidelity::Calibrated);
        assert_eq!(hit.error_bound, 0.15);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn legacy_spill_records_decode_as_full_fidelity() {
        // A record written before the ladder carries neither new field.
        let stored = StoredResult::full(tiny_result(4));
        let payload = encode_spill_record(JobKey(0x9), "spec", &stored);
        let legacy = payload
            .replace(",\"fidelity\":\"reciprocal\"", "")
            .replace(",\"error_bound\":0", "");
        assert!(!legacy.contains("fidelity"));
        let (key, decoded) = decode_spill_record(&legacy).expect("legacy decodes");
        assert_eq!(key, JobKey(0x9));
        assert_eq!(decoded.fidelity, Fidelity::Reciprocal);
        assert_eq!(decoded.error_bound, 0.0);
    }

    #[test]
    fn warm_restart_of_a_missing_spill_is_empty() {
        let mut store = ResultStore::new(8, 1);
        let report = store
            .warm_from_spill(Path::new("/nonexistent/ra-serve/spill"))
            .unwrap();
        assert_eq!(report, RecoveryReport::default());
        assert!(store.is_empty());
    }
}

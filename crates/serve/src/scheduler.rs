//! Job scheduling: the public vocabulary of the job service and the
//! thread shell around its scheduler core.
//!
//! # Structure
//!
//! Every scheduling *decision* lives in the private `sched_core` module:
//! a pure state machine (no clock, no lock, no I/O) that owns the queue,
//! the single-flight map, tickets, strikes and backoff gates, deadlines,
//! quota and brownout planning, fidelity floors, upgrade debt, and the
//! error-bound choice, and that lists the effects it wants as ordered
//! actions. This module is the *shell*: [`JobService`], the worker
//! supervisor, and the deadline reaper take the one state lock, read the
//! one clock, call the core, perform its actions in order while still
//! holding the lock, and run the simulation itself outside it. The
//! core's module docs state the two ordering rules this buys (admit
//! before any pop, settle before compaction); DESIGN.md's service-layer
//! section carries the full behavioural prose.
//!
//! # Behaviour, in one paragraph each
//!
//! **Admission.** The queue is bounded ([`ServeConfig::queue_capacity`]);
//! overflow is an explicit [`Rejected::QueueFull`] plus a `job_rejected`
//! event, never a silent drop. Identical jobs (same [`JobKey`]) are
//! *single-flighted* onto one run, and finished results are memo hits.
//!
//! **Cancellation and deadlines.** Each job owns a flag handed to
//! [`RunSpec::cancel_flag`], polled by the engine every 512 cycles.
//! Cancellation is interest-counted: only the last interested ticket
//! raises the flag (or tombstones a queued entry). A deadline bounds the
//! job's whole life: [`JobOutcome::DeadlineExpired`] if it never ran,
//! [`JobOutcome::DeadlineExceeded`] if the reaper had to stop it.
//!
//! **Durability and self-healing.** With [`ServeConfig::journal`] set,
//! admissions are journaled write-ahead and outcomes settled, so a
//! restart re-runs exactly the unfinished jobs. A panicking run is caught
//! by the supervisor and retried with backoff until
//! [`ServeConfig::strike_limit`] quarantines it as
//! [`JobOutcome::Poisoned`]; transient faults retry up to
//! [`ServeConfig::retry_budget`] times.
//!
//! **Overload.** A brownout ladder and per-client token buckets plan
//! consenting ([`SubmitParams::allow_degraded`]) reciprocal jobs at a
//! cheaper [`Fidelity`] rung instead of shedding them; every degraded
//! answer owes a background full-fidelity upgrade.
//!
//! [`RunSpec::cancel_flag`]: ra_cosim::RunSpec::cancel_flag

#![deny(clippy::too_many_lines)]

use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ra_cosim::{ModeSpec, RunResult};
use ra_obs::{Event, ObsSink};
use ra_sim::SimError;

use crate::admission::AdmissionConfig;
use crate::journal::{self, Journal, RecoveryReport, UnfinishedJob, UpgradeIntent};
use crate::sched_core::{Action, Assignment, Pick, Scheduler};
use crate::spec::{Fidelity, JobKey, JobSpec};
use crate::store::{ResultStore, StoreStats};

/// Error bound reported for a pure hop-model answer: the paper's A1
/// configuration sees up to ~69% latency error from the hop model alone.
pub(crate) const HOP_ERROR_BOUND: f64 = 0.69;

/// Scheduling priority. Higher priorities always dequeue first; within a
/// priority the queue is FIFO.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Priority {
    /// Background work (sweeps, prefetching).
    Low,
    /// The default.
    #[default]
    Normal,
    /// Interactive requests.
    High,
}

impl Priority {
    /// Numeric rank for observability events (0 = low, 2 = high).
    pub fn rank(self) -> u64 {
        match self {
            Priority::Low => 0,
            Priority::Normal => 1,
            Priority::High => 2,
        }
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        })
    }
}

impl FromStr for Priority {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "low" => Ok(Priority::Low),
            "normal" => Ok(Priority::Normal),
            "high" => Ok(Priority::High),
            other => Err(format!("unknown priority `{other}` (low/normal/high)")),
        }
    }
}

/// Why a submission was turned away at the door.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejected {
    /// The admission queue is at capacity — the backpressure signal.
    /// `depth` is the queue depth the client collided with.
    QueueFull {
        /// Queued jobs at rejection time.
        depth: usize,
    },
    /// The service is shutting down and admits nothing new.
    ShuttingDown,
}

impl fmt::Display for Rejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rejected::QueueFull { depth } => {
                write!(f, "admission queue full ({depth} queued); retry later")
            }
            Rejected::ShuttingDown => f.write_str("service is shutting down"),
        }
    }
}

impl std::error::Error for Rejected {}

/// How a submission was admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Result was already memoized; the ticket is immediately ready.
    CacheHit,
    /// Attached to an identical job already queued or running.
    Coalesced,
    /// Enqueued as a fresh run; `depth` is the queue depth after.
    Enqueued {
        /// Queued jobs after admission.
        depth: usize,
    },
}

impl Disposition {
    /// Wire label (`cached` / `coalesced` / `enqueued`).
    pub fn label(self) -> &'static str {
        match self {
            Disposition::CacheHit => "cached",
            Disposition::Coalesced => "coalesced",
            Disposition::Enqueued { .. } => "enqueued",
        }
    }
}

/// A submission handle: use it with [`JobService::status`],
/// [`JobService::wait`], and [`JobService::cancel`].
pub type Ticket = u64;

/// What [`JobService::submit`] returns on admission.
#[derive(Debug, Clone)]
pub struct SubmitReceipt {
    /// Handle for status/wait/cancel.
    pub ticket: Ticket,
    /// Content hash of the submitted spec.
    pub job: JobKey,
    /// How the submission was admitted.
    pub disposition: Disposition,
}

/// Terminal state of a job.
#[derive(Debug, Clone)]
pub enum JobOutcome {
    /// The simulation finished (or was already memoized).
    Completed {
        /// The run's results, shared with the cache.
        result: Arc<RunResult>,
        /// True when served from the memo store without simulating.
        cached: bool,
        /// Which rung of the fidelity ladder produced the answer.
        fidelity: Fidelity,
        /// Estimated relative error of the answer for that rung.
        error_bound: f64,
        /// Nanoseconds spent queued before the run started.
        queue_ns: u64,
        /// Nanoseconds spent simulating.
        run_ns: u64,
    },
    /// The simulation errored (budget exhausted, stall, ...).
    Failed {
        /// Rendered `SimError` chain.
        error: String,
    },
    /// Every interested submission cancelled before completion.
    Cancelled,
    /// The job was still queued past its deadline and never ran.
    DeadlineExpired,
    /// The job was *running* past its deadline and was cooperatively
    /// cancelled by the reaper.
    DeadlineExceeded,
    /// The job crashed [`ServeConfig::strike_limit`] workers and was
    /// quarantined instead of retried again.
    Poisoned {
        /// Rendered fault describing the last crash.
        error: String,
    },
}

impl JobOutcome {
    /// Stable label for wire responses and [`Event::JobDone`].
    ///
    /// [`Event::JobDone`]: ra_obs::Event::JobDone
    pub fn label(&self) -> &'static str {
        match self {
            JobOutcome::Completed { cached: true, .. } => "cached",
            JobOutcome::Completed { cached: false, .. } => "completed",
            JobOutcome::Failed { .. } => "failed",
            JobOutcome::Cancelled => "cancelled",
            JobOutcome::DeadlineExpired => "deadline_expired",
            JobOutcome::DeadlineExceeded => "deadline_exceeded",
            JobOutcome::Poisoned { .. } => "poisoned",
        }
    }
}

/// Non-terminal view of a job for the `status` verb.
#[derive(Debug, Clone)]
pub enum JobStatus {
    /// Waiting in the admission queue.
    Queued,
    /// A worker is simulating it.
    Running,
    /// Finished; the outcome is ready to collect.
    Done(JobOutcome),
}

impl JobStatus {
    /// Stable label for wire responses.
    pub fn label(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done(outcome) => outcome.label(),
        }
    }
}

/// Why [`JobService::wait`] returned without an outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitError {
    /// No such ticket (never issued, or already collected/cancelled).
    UnknownTicket,
    /// The timeout elapsed first; the ticket stays valid.
    TimedOut,
}

impl fmt::Display for WaitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WaitError::UnknownTicket => f.write_str("unknown ticket"),
            WaitError::TimedOut => f.write_str("timed out waiting for the job"),
        }
    }
}

impl std::error::Error for WaitError {}

/// What [`JobService::cancel`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// This was the last interested ticket of a *queued* job: it will
    /// never run.
    Cancelled,
    /// This was the last interested ticket of a *running* job: the halt
    /// flag is raised and the engine will stop at the next poll.
    Signalled,
    /// Other submissions still want the job; only this ticket detached.
    Detached,
    /// The job had already finished; the ticket was simply collected.
    AlreadyDone,
}

/// Deterministic failure injection for chaos drills and the supervisor
/// tests: matching is by workload seed, so a test can aim a crash at
/// exactly one job without touching the engine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Jobs whose spec seed is listed here panic the worker instead of
    /// running (every attempt — what the strike limit is for).
    pub panic_on_seeds: Vec<u64>,
    /// Jobs whose spec seed is listed here fail with a transient
    /// [`SimError::Fault`] while their attempt number is at most
    /// [`fault_attempts`](ChaosConfig::fault_attempts).
    pub fault_on_seeds: Vec<u64>,
    /// How many leading attempts of a `fault_on_seeds` job fault.
    pub fault_attempts: u32,
}

impl ChaosConfig {
    /// True when no fault injection is configured (the default).
    pub fn is_quiet(&self) -> bool {
        self.panic_on_seeds.is_empty() && self.fault_on_seeds.is_empty()
    }
}

/// Per-submission knobs beyond the spec itself. The 3-argument
/// [`JobService::submit`] fills the degradation fields with their
/// defaults (no client id, degradation not allowed), which is exactly
/// the pre-overload-control behaviour.
#[derive(Debug, Clone, Default)]
pub struct SubmitParams {
    /// Scheduling priority.
    pub priority: Priority,
    /// Whole-life deadline (queue wait + run).
    pub deadline: Option<Duration>,
    /// Client identity for per-client quota buckets (`None` = anonymous,
    /// never quota-limited).
    pub client: Option<String>,
    /// Whether the service may answer from a cheaper fidelity rung
    /// under overload instead of rejecting.
    pub allow_degraded: bool,
    /// The cheapest rung the client will accept when degraded
    /// (`None` = [`Fidelity::Hop`], i.e. anything). Ignored unless
    /// `allow_degraded`.
    pub min_fidelity: Option<Fidelity>,
}

impl SubmitParams {
    /// The cheapest fidelity this submission will accept: `Reciprocal`
    /// unless degradation is allowed (and the spec's mode has cheaper
    /// rungs at all).
    pub(crate) fn floor(&self, spec: &JobSpec) -> Fidelity {
        if self.allow_degraded && Fidelity::degradable(&spec.mode) {
            self.min_fidelity.unwrap_or(Fidelity::Hop)
        } else {
            Fidelity::Reciprocal
        }
    }
}

/// Tuning knobs for [`JobService::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Simulation worker threads.
    pub workers: usize,
    /// Bounded admission-queue capacity (queued, not running, jobs).
    pub queue_capacity: usize,
    /// Result-cache capacity in entries.
    pub cache_capacity: usize,
    /// Result-cache lock shards.
    pub cache_shards: usize,
    /// Optional framed spill log for completed results; replayed on
    /// startup to rebuild the memo cache.
    pub spill: Option<PathBuf>,
    /// Optional write-ahead job journal; replayed on startup to
    /// re-enqueue admitted-but-unfinished jobs.
    pub journal: Option<PathBuf>,
    /// fsync the journal and spill after every N records (0 = flush
    /// only, letting the OS decide when bytes reach the platter).
    pub fsync_every: u64,
    /// Rewrite the journal to just the live admissions once the file
    /// exceeds this many bytes (0 = compact only at startup). Keeps a
    /// long-running service's journal proportional to outstanding work
    /// instead of uptime.
    pub journal_compact_bytes: u64,
    /// Retries allowed for a transient (`SimError::Fault`) outcome
    /// before the job finishes as failed.
    pub retry_budget: u32,
    /// Base delay before a retry; doubles per attempt.
    pub retry_backoff: Duration,
    /// Worker crashes one job may cause before it is quarantined as
    /// [`JobOutcome::Poisoned`].
    pub strike_limit: u32,
    /// Deterministic failure injection (quiet by default).
    pub chaos: ChaosConfig,
    /// Brownout-controller thresholds and hysteresis.
    pub admission: AdmissionConfig,
    /// Per-client fresh-run quota: sustained admissions per second
    /// (0 = unlimited, the default). Applies only to submissions that
    /// carry a [`SubmitParams::client`] id.
    pub quota_rate: f64,
    /// Per-client quota burst (token-bucket capacity). Ignored when
    /// `quota_rate` is 0.
    pub quota_burst: f64,
    /// Whether idle workers drain journaled upgrade intents, re-running
    /// degraded answers at full fidelity (on by default; the
    /// determinism drills turn it off to pin per-tier results).
    pub background_upgrades: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_capacity: 64,
            cache_capacity: 256,
            cache_shards: 8,
            spill: None,
            journal: None,
            fsync_every: 8,
            journal_compact_bytes: 1 << 20,
            retry_budget: 2,
            retry_backoff: Duration::from_millis(10),
            strike_limit: 2,
            chaos: ChaosConfig::default(),
            admission: AdmissionConfig::default(),
            quota_rate: 0.0,
            quota_burst: 8.0,
            background_upgrades: true,
        }
    }
}

/// Counter snapshot for the `stats` verb and the smoke tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Submissions received (including rejected ones).
    pub submitted: u64,
    /// Fresh runs admitted to the queue.
    pub admitted: u64,
    /// Submissions rejected with [`Rejected::QueueFull`].
    pub rejected: u64,
    /// Submissions attached to an in-flight identical job.
    pub coalesced: u64,
    /// Submissions served straight from the result store.
    pub cache_hits: u64,
    /// Runs that completed successfully.
    pub completed: u64,
    /// Runs that errored.
    pub failed: u64,
    /// Jobs cancelled before or during their run.
    pub cancelled: u64,
    /// Jobs that expired in the queue.
    pub expired: u64,
    /// Running jobs cooperatively cancelled at their deadline.
    pub deadline_exceeded: u64,
    /// Jobs quarantined after crashing too many workers.
    pub poisoned: u64,
    /// Transient-failure retries scheduled.
    pub retries: u64,
    /// Worker respawns after a caught panic.
    pub respawns: u64,
    /// Runtime journal compactions (size-threshold triggered).
    pub journal_compactions: u64,
    /// Results rebuilt from the spill log at startup.
    pub recovered_results: u64,
    /// Journaled-but-unfinished jobs re-enqueued at startup.
    pub resumed_jobs: u64,
    /// Speculative quanta committed across all completed pipelined runs.
    pub spec_commits: u64,
    /// Speculative quanta rolled back across all completed pipelined runs.
    pub spec_rollbacks: u64,
    /// Submissions shed by overload control (quota or full queue with no
    /// degradation headroom). Every shed also counts in `rejected`.
    pub shed: u64,
    /// Runs published below full fidelity.
    pub degraded: u64,
    /// Degraded answers re-run at full fidelity by the background
    /// upgrader.
    pub upgraded: u64,
    /// Upgrade intents waiting for an idle worker.
    pub upgrades_pending: u64,
    /// Current brownout level (0 = normal, 1, 2).
    pub brownout: u64,
    /// Jobs queued right now.
    pub queue_depth: usize,
    /// Result-store counters.
    pub store: StoreStats,
}

impl ServiceStats {
    /// The `stats` wire schema, in wire order — the one place the
    /// backend's `stats` / `node_stats` verbs and the relay's two
    /// aggregations learn which counters exist. Per counter: its field
    /// name, how to read it, whether a relay's `stats` sums it across
    /// backends (a level such as `brownout` does not add), and whether
    /// a relay's `node_stats` shows it in each backend's row.
    #[allow(clippy::type_complexity)]
    pub(crate) const COUNTERS: &'static [(&'static str, fn(&ServiceStats) -> u64, bool, bool)] = &[
        ("submitted", |s| s.submitted, true, true),
        ("admitted", |s| s.admitted, true, false),
        ("rejected", |s| s.rejected, true, false),
        ("coalesced", |s| s.coalesced, true, true),
        ("cache_hits", |s| s.cache_hits, true, true),
        ("completed", |s| s.completed, true, true),
        ("failed", |s| s.failed, true, false),
        ("cancelled", |s| s.cancelled, true, false),
        ("expired", |s| s.expired, true, false),
        ("deadline_exceeded", |s| s.deadline_exceeded, true, false),
        ("poisoned", |s| s.poisoned, true, false),
        ("retries", |s| s.retries, true, false),
        ("respawns", |s| s.respawns, true, false),
        ("journal_compactions", |s| s.journal_compactions, true, false),
        ("recovered_results", |s| s.recovered_results, true, false),
        ("resumed_jobs", |s| s.resumed_jobs, true, false),
        ("spec_commits", |s| s.spec_commits, true, false),
        ("spec_rollbacks", |s| s.spec_rollbacks, true, false),
        ("queue_depth", |s| s.queue_depth as u64, true, true),
        ("shed", |s| s.shed, true, true),
        ("degraded", |s| s.degraded, true, true),
        ("upgraded", |s| s.upgraded, true, true),
        ("upgrades_pending", |s| s.upgrades_pending, true, false),
        ("brownout", |s| s.brownout, false, true),
        ("store_hits", |s| s.store.hits, true, false),
        ("store_misses", |s| s.store.misses, true, false),
        ("insertions", |s| s.store.insertions, true, false),
        ("evictions", |s| s.store.evictions, true, false),
    ];

    /// Names of the counters a relay's `stats` sums across backends.
    pub(crate) fn summed() -> impl Iterator<Item = &'static str> {
        Self::COUNTERS.iter().filter(|c| c.2).map(|c| c.0)
    }

    /// Names of the counters a relay's `node_stats` shows per backend.
    pub(crate) fn per_node() -> impl Iterator<Item = &'static str> {
        Self::COUNTERS.iter().filter(|c| c.3).map(|c| c.0)
    }
}

/// What startup recovery found, for the `ra-serve` banner and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// Results rebuilt from the spill log.
    pub recovered_results: u64,
    /// Intact records read from the journal.
    pub journal_records: u64,
    /// Unfinished jobs re-enqueued.
    pub resumed_jobs: u64,
    /// Torn-tail bytes dropped across both logs.
    pub dropped_tail_bytes: u64,
    /// Checksum mismatches across both logs.
    pub checksum_errors: u64,
}


/// Everything the threads share. Lock order is `core` → store shard →
/// journal writer; the obs recorder is a leaf (nothing holding it ever
/// takes another lock), so actions may be performed with `core` held.
struct Inner {
    core: Mutex<Scheduler>,
    /// Wakes workers when work arrives or shutdown starts.
    work_cv: Condvar,
    /// Wakes `wait`ers whenever any job reaches a terminal phase.
    done_cv: Condvar,
    /// Wakes the deadline reaper when a deadline-bearing job arrives.
    reaper_cv: Condvar,
    store: ResultStore,
    obs: ObsSink,
    journal: Option<Journal>,
    config: ServeConfig,
    recovery: RecoveryInfo,
    /// Epoch of the core's injected clock.
    started: Instant,
}

impl Inner {
    /// The shell's one clock: nanoseconds since the service started.
    fn now(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    /// Locks the core, recovering from poison: a worker panic is a
    /// supervised event here, not a reason to wedge the whole service.
    /// Runs execute outside the lock and the core is consistent between
    /// calls, so a poisoned guard is safe to adopt.
    fn lock(&self) -> MutexGuard<'_, Scheduler> {
        self.core.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// One shell entry: take the lock, read the clock once, let the
    /// core decide, perform what it asked for, release.
    fn apply<R>(&self, decide: impl FnOnce(&mut Scheduler, u64) -> R) -> R {
        let mut core = self.lock();
        let decided = decide(&mut core, self.now());
        self.perform(&mut core);
        decided
    }

    fn journal(&self, record: impl FnOnce(&Journal)) {
        if let Some(journal) = &self.journal {
            record(journal);
        }
    }

    /// Performs the actions the core has listed, in its order, with the
    /// lock still held — which is what makes the core's two ordering
    /// rules (admit before any pop, settle before compaction) hold
    /// against every other thread.
    fn perform(&self, core: &mut Scheduler) {
        while let Some(action) = core.next_action() {
            match action {
                Action::Admit(key, spec, pri) => self.journal(|j| j.admit(key, &spec, pri)),
                Action::Settle(key, outcome) => self.journal(|j| j.settle(key, outcome)),
                Action::OweUpgrade(key, spec) => self.journal(|j| j.upgrade(key, &spec)),
                Action::UpgradePaid(key) => self.journal(|j| j.upgraded(key)),
                Action::Compact => self.compact_journal(core),
                Action::Publish(key, spec, stored) => {
                    self.store.insert(key, &spec, stored);
                }
                Action::Emit(event) => self.obs.emit(|| event),
                Action::RaiseCancel(flag) => flag.store(true, Ordering::Relaxed),
                Action::WakeWorker => self.work_cv.notify_one(),
                Action::WakeWorkers => self.work_cv.notify_all(),
                Action::WakeWaiters => self.done_cv.notify_all(),
                Action::WakeReaper => self.reaper_cv.notify_all(),
            }
        }
    }

    /// Runtime journal compaction: once the file outgrows
    /// [`ServeConfig::journal_compact_bytes`], rewrite it to the core's
    /// live snapshot with the same tmp + fsync + rename discipline as
    /// startup.
    fn compact_journal(&self, core: &mut Scheduler) {
        let threshold = self.config.journal_compact_bytes;
        let due = |journal: &&Journal| threshold > 0 && journal.len_bytes() >= threshold;
        if let Some(journal) = self.journal.as_ref().filter(due) {
            let (unfinished, upgrades) = core.live_snapshot();
            if journal.compact_live(&unfinished, &upgrades).is_ok() {
                core.compacted();
            }
        }
    }
}

/// Parks on `cv` until notified — or, given a wake instant, until then
/// (at least 1 ms, so a gate that just passed cannot spin).
fn park<'a>(
    cv: &Condvar,
    core: MutexGuard<'a, Scheduler>,
    now: u64,
    until: Option<u64>,
) -> MutexGuard<'a, Scheduler> {
    match until {
        Some(at) => {
            let wait = Duration::from_nanos(at.saturating_sub(now)).max(Duration::from_millis(1));
            cv.wait_timeout(core, wait)
                .unwrap_or_else(|e| e.into_inner())
                .0
        }
        None => cv.wait(core).unwrap_or_else(|e| e.into_inner()),
    }
}

/// A multi-worker simulation-job service: canonical [`JobSpec`]s in,
/// memoized [`RunResult`]s out.
///
/// ```
/// use ra_serve::{JobService, ServeConfig};
///
/// let service = JobService::start(ServeConfig::default(), ra_obs::ObsSink::disabled())?;
/// let spec = "target=2x2 app=water mode=fixed:10 instructions=20 budget=100000"
///     .parse::<ra_serve::JobSpec>()
///     .map_err(|e| std::io::Error::other(e.to_string()))?;
/// let receipt = service.submit(spec, Default::default(), None).expect("admitted");
/// let outcome = service.wait(receipt.ticket, None).expect("completes");
/// assert_eq!(outcome.label(), "completed");
/// service.shutdown();
/// # Ok::<(), std::io::Error>(())
/// ```
pub struct JobService {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl JobService {
    /// Spawns the worker pool and the deadline reaper, after replaying
    /// any configured spill log and journal (warm restart): memoized
    /// results are rebuilt, admitted-but-unfinished jobs re-enqueued,
    /// and the journal compacted to exactly those jobs.
    ///
    /// # Errors
    ///
    /// Propagates spill/journal open, replay, and compaction failures.
    pub fn start(config: ServeConfig, obs: ObsSink) -> std::io::Result<JobService> {
        let mut store = ResultStore::new(config.cache_capacity, config.cache_shards);
        let mut recovery = RecoveryInfo::default();
        let mut frames = RecoveryReport::default();
        if let Some(path) = &config.spill {
            let report = store.warm_from_spill(path)?;
            recovery.recovered_results = report.recovered_records;
            frames.absorb(report);
            store = store.with_spill(path, config.fsync_every)?;
        }
        let mut journal = None;
        let mut resumed: Vec<UnfinishedJob> = Vec::new();
        let mut owed_upgrades: Vec<UpgradeIntent> = Vec::new();
        if let Some(path) = &config.journal {
            let replayed = journal::replay(path)?;
            recovery.journal_records = replayed.report.recovered_records;
            frames.absorb(replayed.report);
            // An unfinished job whose result came back with the spill
            // replay only lost its settle record; it is already done.
            resumed = replayed
                .unfinished
                .into_iter()
                .filter(|u| !store.contains(u.key))
                .collect();
            // An upgrade intent whose store entry is already full
            // fidelity (or gone — nothing to upgrade) only lost its
            // `upgraded` record; the debt is paid.
            owed_upgrades = replayed
                .pending_upgrades
                .into_iter()
                .filter(|u| store.fidelity_of(u.key).is_some_and(|f| f < Fidelity::Reciprocal))
                .collect();
            journal::compact(path, &resumed, &owed_upgrades)?;
            journal = Some(Journal::open(path, config.fsync_every)?);
        }
        // Re-parse resumed specs; a spec this build can no longer parse
        // (foreign or stale journal) is dropped rather than wedging the
        // queue forever.
        let seeds: Vec<(JobSpec, Priority)> = resumed
            .into_iter()
            .filter_map(|u| u.spec.parse::<JobSpec>().ok().map(|s| (s, u.priority)))
            .collect();
        recovery.resumed_jobs = seeds.len() as u64;
        recovery.dropped_tail_bytes = frames.dropped_tail_bytes;
        recovery.checksum_errors = frames.checksum_errors;

        let mut core = Scheduler::new(config.clone());
        core.resume(0, seeds, owed_upgrades);
        let inner = Arc::new(Inner {
            core: Mutex::new(core),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            reaper_cv: Condvar::new(),
            store,
            obs,
            journal,
            config,
            recovery,
            started: Instant::now(),
        });
        if inner.config.spill.is_some() || inner.config.journal.is_some() {
            inner.obs.emit(|| Event::JournalReplay {
                recovered_results: recovery.recovered_results,
                resumed_jobs: recovery.resumed_jobs,
                dropped_tail_bytes: recovery.dropped_tail_bytes,
                checksum_errors: recovery.checksum_errors,
            });
        }
        let mut workers: Vec<JoinHandle<()>> = (0..inner.config.workers.max(1))
            .map(|i| {
                spawn(&inner, format!("ra-serve-worker-{i}"), move |inner| {
                    supervise(inner, i);
                })
            })
            .collect();
        workers.push(spawn(&inner, "ra-serve-reaper".to_owned(), run_reaper));
        Ok(JobService { inner, workers })
    }

    /// Submits a job. `deadline` bounds the job's whole life: still
    /// queued when it elapses → [`JobOutcome::DeadlineExpired`] without
    /// running; still *running* when it elapses → cooperatively
    /// cancelled and [`JobOutcome::DeadlineExceeded`].
    ///
    /// Degradation is off for this entry point; see
    /// [`submit_with`](JobService::submit_with) for the overload-aware
    /// vocabulary.
    ///
    /// # Errors
    ///
    /// [`Rejected::QueueFull`] when the admission queue is at capacity
    /// (the backpressure signal), [`Rejected::ShuttingDown`] after
    /// [`shutdown`](JobService::shutdown) began.
    pub fn submit(
        &self,
        spec: JobSpec,
        priority: Priority,
        deadline: Option<Duration>,
    ) -> Result<SubmitReceipt, Rejected> {
        self.submit_with(
            spec,
            SubmitParams {
                priority,
                deadline,
                ..SubmitParams::default()
            },
        )
    }

    /// Submits a job with the full overload-control vocabulary: client
    /// identity for quota buckets, and degradation consent
    /// (`allow_degraded` + `min_fidelity`). A consenting submission is
    /// never bounced with `queue_full`: under brownout or a full queue
    /// it is planned at a cheaper fidelity rung instead (down to its
    /// floor), and the degraded answer is journaled for a background
    /// full-fidelity upgrade.
    ///
    /// # Errors
    ///
    /// As [`submit`](JobService::submit); additionally, a submission
    /// over its client quota that cannot degrade is shed with
    /// [`Rejected::QueueFull`].
    pub fn submit_with(
        &self,
        spec: JobSpec,
        params: SubmitParams,
    ) -> Result<SubmitReceipt, Rejected> {
        let inner = &*self.inner;
        let key = spec.job_hash();
        inner.apply(|core, now| core.submit(now, spec, key, &params, |key| inner.store.get(key)))
    }

    /// Non-consuming snapshot of a ticket's job, or `None` for an
    /// unknown (or already collected) ticket.
    pub fn status(&self, ticket: Ticket) -> Option<JobStatus> {
        self.inner.lock().status(ticket)
    }

    /// Blocks until the ticket's job finishes, then *collects* the
    /// ticket (it stops resolving afterwards). `None` waits forever.
    ///
    /// # Errors
    ///
    /// [`WaitError::TimedOut`] leaves the ticket collectable later;
    /// [`WaitError::UnknownTicket`] means it never existed or was
    /// already collected.
    pub fn wait(&self, ticket: Ticket, timeout: Option<Duration>) -> Result<JobOutcome, WaitError> {
        self.wait_done(self.inner.lock(), timeout, |core| match core.status(ticket) {
            None => Some(Err(WaitError::UnknownTicket)),
            Some(JobStatus::Done(outcome)) => {
                core.collect(ticket);
                Some(Ok(outcome))
            }
            Some(_) => None,
        })
        .unwrap_or(Err(WaitError::TimedOut))
    }

    /// Blocks on `done_cv` until `ready` yields, or `timeout` passes
    /// (`None`). `ready` is re-evaluated after every wake-up, a
    /// timed-out one included, so a condition that came true on the
    /// deadline is still reported.
    fn wait_done<R>(
        &self,
        mut core: MutexGuard<'_, Scheduler>,
        timeout: Option<Duration>,
        mut ready: impl FnMut(&mut Scheduler) -> Option<R>,
    ) -> Option<R> {
        let inner = &*self.inner;
        let deadline = timeout.map(|t| inner.now().saturating_add(t.as_nanos() as u64));
        loop {
            if let Some(ready) = ready(&mut core) {
                return Some(ready);
            }
            let now = inner.now();
            if deadline.is_some_and(|at| now >= at) {
                return None;
            }
            core = park(&inner.done_cv, core, now, deadline);
        }
    }

    /// Withdraws this ticket's interest in its job and collects the
    /// ticket. The job itself is only cancelled when *no* submission
    /// remains interested (see the module docs). Returns `None` for an
    /// unknown ticket.
    pub fn cancel(&self, ticket: Ticket) -> Option<CancelOutcome> {
        self.inner.apply(|core, now| core.cancel(now, ticket))
    }

    /// Counter snapshot (service + store).
    pub fn stats(&self) -> ServiceStats {
        let mut stats = self.inner.lock().stats();
        stats.store = self.inner.store.stats();
        stats.recovered_results = self.inner.recovery.recovered_results;
        stats.resumed_jobs = self.inner.recovery.resumed_jobs;
        stats
    }

    /// What startup recovery found (zeroes when no state was configured).
    pub fn recovery(&self) -> RecoveryInfo {
        self.inner.recovery
    }

    /// The sink service events and per-job run spans are emitted into.
    pub fn obs(&self) -> &ObsSink {
        &self.inner.obs
    }

    /// Graceful-shutdown half: stops admissions, then waits up to
    /// `timeout` for the queue to empty and every running job to
    /// publish. Returns `true` when fully drained. Either way the
    /// journal and spill are flushed and fsynced before returning, so a
    /// follow-up exit (or even a kill) loses nothing that finished.
    ///
    /// Call [`shutdown`](JobService::shutdown) (or drop) afterwards to
    /// join the workers.
    pub fn drain(&self, timeout: Duration) -> bool {
        let core = self.begin_shutdown();
        let drained = self
            .wait_done(core, Some(timeout), |core| core.is_drained().then_some(()))
            .is_some();
        self.sync_durability();
        drained
    }

    /// Stops admitting, drains the queue, and joins every worker.
    /// Queued jobs still run to completion; to abandon one instead,
    /// [`cancel`](JobService::cancel) it first.
    pub fn shutdown(self) {
        drop(self);
    }

    fn begin_shutdown(&self) -> MutexGuard<'_, Scheduler> {
        let mut core = self.inner.lock();
        core.shutting_down = true;
        self.inner.work_cv.notify_all();
        self.inner.reaper_cv.notify_all();
        core
    }

    fn sync_durability(&self) {
        let _ = self.inner.store.sync_spill();
        if let Some(journal) = &self.inner.journal {
            let _ = journal.sync();
        }
    }
}

impl Drop for JobService {
    fn drop(&mut self) {
        drop(self.begin_shutdown());
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        self.sync_durability();
    }
}

fn spawn(
    inner: &Arc<Inner>,
    name: String,
    body: impl FnOnce(&Inner) + Send + 'static,
) -> JoinHandle<()> {
    let inner = inner.clone();
    std::thread::Builder::new()
        .name(name)
        .spawn(move || body(&inner))
        .expect("spawn service thread")
}

/// Exponential backoff for attempt N (1-based): `base * 2^(N-1)`,
/// shift-capped so a pathological attempt count cannot overflow.
pub(crate) fn backoff_delay(base: Duration, attempts: u32) -> Duration {
    base.saturating_mul(1u32 << attempts.saturating_sub(1).min(10))
}

/// The worker supervisor: runs [`run_worker`] under `catch_unwind`,
/// and on a panic reports the victim to the core and re-enters the loop
/// as the next incarnation of the same worker — the pool never shrinks.
/// (This relies on unwinding panics; the release profile must not set
/// `panic = "abort"`, which `Cargo.toml` documents.)
fn supervise(inner: &Inner, worker: usize) {
    let mut incarnation: u64 = 0;
    while let Err(payload) =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_worker(inner, worker)))
    {
        incarnation += 1;
        let detail = match (payload.downcast_ref::<&str>(), payload.downcast_ref::<String>()) {
            (Some(s), _) => (*s).to_owned(),
            (_, Some(s)) => s.clone(),
            _ => "panic payload of unknown type".to_owned(),
        };
        inner.apply(|core, now| core.worker_panicked(now, worker, incarnation, &detail));
    }
}

/// One worker: ask the core for a job (parking when it says wait), run
/// it outside the lock, hand the result back. Returns on clean shutdown.
fn run_worker(inner: &Inner, worker: usize) {
    let fidelity_of = |key| inner.store.fidelity_of(key);
    loop {
        let mut core = inner.lock();
        let job = loop {
            let now = inner.now();
            let pick = core.pick(now, worker, fidelity_of);
            inner.perform(&mut core);
            match pick {
                Pick::Run(job) => break job,
                Pick::Wait(until) => core = park(&inner.work_cv, core, now, until),
                Pick::Exit => return,
            }
        };
        drop(core);
        let started = inner.now();
        let run = execute(inner, &job);
        let run_ns = inner.now().saturating_sub(started);
        inner.apply(|core, now| core.complete(now, worker, run, run_ns, fidelity_of));
    }
}

/// Simulates one assignment, with per-job spans flowing into the shared
/// sink and the cancel flag armed on the engine's watchdog poll. Chaos
/// injection happens here, outside every lock, so an injected panic
/// unwinds exactly like an engine panic would.
fn execute(inner: &Inner, job: &Assignment) -> Result<RunResult, SimError> {
    let chaos = &inner.config.chaos;
    let seed = job.spec.seed;
    if chaos.panic_on_seeds.contains(&seed) {
        panic!("chaos: injected worker panic (seed {seed})");
    }
    if chaos.fault_on_seeds.contains(&seed) && job.attempts <= chaos.fault_attempts {
        return Err(SimError::Fault {
            component: "chaos injector".to_owned(),
            detail: format!("injected transient fault (attempt {})", job.attempts),
        });
    }
    // Whatever rung runs, the cache key stays the original spec's: that
    // shared slot is what lets a later upgrade replace the answer in
    // place.
    let mut hop_spec;
    let exec = match job.planned {
        Fidelity::Hop => {
            hop_spec = job.spec.clone();
            hop_spec.mode = ModeSpec::Hop;
            hop_spec.to_run_spec()
        }
        Fidelity::Calibrated => job.spec.to_run_spec().calibrated_only(true),
        Fidelity::Reciprocal => job.spec.to_run_spec(),
    };
    exec.cancel_flag(job.cancel.clone())
        .recorder(inner.obs.clone())
        .run()
}

/// The deadline reaper: let the core sweep, then sleep until the next
/// deadline it reports (or until a deadline-bearing job arrives).
fn run_reaper(inner: &Inner) {
    let mut core = inner.lock();
    while !core.shutting_down {
        let now = inner.now();
        let next = core.tick(now);
        inner.perform(&mut core);
        core = park(&inner.reaper_cv, core, now, next);
    }
}

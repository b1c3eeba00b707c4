//! The scheduler core: queue, single-flight map, tickets, strikes and
//! backoff gates, deadlines, quota and brownout planning, fidelity
//! floors, upgrade debt, and the error-bound choice — as one pure state
//! machine.
//!
//! The core reads no clock, takes no lock, and does no I/O. Time arrives
//! as an argument (`now`, nanoseconds since the service started), memo
//! lookups arrive as closures, and every effect the outside world must
//! see is appended, in order, to an [`Action`] queue the caller drains
//! with [`next_action`]. The thread shell in [`crate::scheduler`] holds the
//! state lock around each call and performs the actions, in order,
//! before releasing it. Two ordering rules follow from that and are
//! stated only here:
//!
//! * **admit before any pop** — [`Action::Admit`] is listed by the same
//!   `submit` call that enqueues the job, so the write-ahead record
//!   lands while the lock still keeps every worker out of [`pick`];
//! * **settle before compaction** — [`Action::Compact`] is only ever
//!   listed directly after the settle it follows, so a compaction
//!   snapshot ([`live_snapshot`]) can never omit a job whose settle
//!   record is still to be appended.
//!
//! [`next_action`]: Scheduler::next_action
//! [`pick`]: Scheduler::pick
//! [`live_snapshot`]: Scheduler::live_snapshot

#![deny(clippy::too_many_lines)]

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

use ra_cosim::RunResult;
use ra_obs::Event;
use ra_sim::SimError;

use crate::admission::{AdmissionController, BrownoutLevel, Ewma, LevelChange, TokenBucket};
use crate::journal::{UnfinishedJob, UpgradeIntent};
use crate::scheduler::{
    backoff_delay, CancelOutcome, Disposition, JobOutcome, JobStatus, Priority, Rejected,
    ServeConfig, ServiceStats, SubmitParams, SubmitReceipt, Ticket, HOP_ERROR_BOUND,
};
use crate::spec::{Fidelity, JobKey, JobSpec};
use crate::store::StoredResult;

/// Smallest error bound a calibrated-only answer will claim, even when
/// the observed drift EWMA says the models currently agree closely.
const CALIBRATED_ERROR_FLOOR: f64 = 0.15;

/// How often idle workers feed the brownout controller a zero-delay
/// observation while the post-storm ladder is still stepping down.
const DECAY_TICK_NS: u64 = 25_000_000;

/// One effect the shell performs on the core's behalf, in list order.
#[derive(Debug)]
#[cfg_attr(test, derive(Clone))]
pub(crate) enum Action {
    /// Append the write-ahead admit record.
    Admit(JobKey, String, Priority),
    /// Append the settle record of a terminal outcome.
    Settle(JobKey, &'static str),
    /// Append an upgrade intent: a degraded answer was published.
    OweUpgrade(JobKey, String),
    /// Append the record that clears an upgrade intent (paid or moot).
    UpgradePaid(JobKey),
    /// A compaction point: rewrite the log to [`Scheduler::live_snapshot`]
    /// if it has outgrown its threshold.
    Compact,
    /// Insert a finished run (key, canonical spec, result) in the store.
    Publish(JobKey, String, StoredResult),
    /// Emit one event on the obs stream.
    Emit(Event),
    /// Raise a running job's cooperative-cancel flag.
    RaiseCancel(Arc<AtomicBool>),
    /// Wake one parked worker: a single new job arrived.
    WakeWorker,
    /// Wake every parked worker: gated work needs a timed waiter.
    WakeWorkers,
    /// Wake everyone blocked in `wait` / `drain`: a job finished.
    WakeWaiters,
    /// Wake the deadline reaper: a deadline-bearing job arrived.
    WakeReaper,
}

/// What a worker runs next: everything the shell needs to execute the
/// job outside the lock.
#[derive(Debug)]
pub(crate) struct Assignment {
    pub spec: JobSpec,
    pub cancel: Arc<AtomicBool>,
    /// 1-based attempt number (chaos fault injection keys on it).
    pub attempts: u32,
    /// The fidelity rung to execute at.
    pub planned: Fidelity,
}

/// The answer to "what should this worker do now". Returned once per
/// pick and consumed on the spot, so the big variant is not boxed: that
/// would only buy an allocation per job.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub(crate) enum Pick {
    /// Run this job, then report back through [`Scheduler::complete`].
    Run(Assignment),
    /// Nothing runnable: park until woken, or until the given instant.
    Wait(Option<u64>),
    /// Shutdown has begun and the queue is empty: the worker exits.
    Exit,
}

type JobId = u64;

/// Max-heap slot: higher priority first, then FIFO by sequence number.
type QueueSlot = (Priority, Reverse<u64>, JobId);

#[cfg_attr(test, derive(Clone))]
struct JobCell {
    spec: JobSpec,
    key: JobKey,
    deadline: Option<u64>,
    submitted: u64,
    cancel: Arc<AtomicBool>,
    /// The core has asked for `cancel` to be raised (it never reads the
    /// flag itself).
    halted: bool,
    phase: JobStatus,
    /// Live submissions (tickets not yet collected or cancelled).
    interest: usize,
    /// Priority it was admitted at (retries requeue at the same one).
    priority: Priority,
    /// Times a worker has started running it.
    attempts: u32,
    /// Workers it has crashed (quarantine at `strike_limit`).
    strikes: u32,
    /// Backoff gate: not runnable before this instant.
    not_before: Option<u64>,
    /// `tick` already raised the cancel flag for its deadline.
    deadline_fired: bool,
    /// Queue wait measured at the most recent pick.
    queue_ns: u64,
    /// Fidelity rung the next run will execute at (brownout planning).
    planned: Fidelity,
    /// Cheapest rung any attached submission will accept: the max of
    /// every waiter's floor. A publish below this re-enqueues the job.
    floor: Fidelity,
    /// A background upgrade re-run: never admitted to the journal, so it
    /// settles by clearing its upgrade intent instead.
    is_upgrade: bool,
}

impl JobCell {
    /// A queued, full-fidelity cell nobody holds a ticket for yet.
    fn new(spec: JobSpec, key: JobKey, now: u64, priority: Priority) -> JobCell {
        JobCell {
            spec,
            key,
            deadline: None,
            submitted: now,
            cancel: Arc::new(AtomicBool::new(false)),
            halted: false,
            phase: JobStatus::Queued,
            interest: 0,
            priority,
            attempts: 0,
            strikes: 0,
            not_before: None,
            deadline_fired: false,
            queue_ns: 0,
            planned: Fidelity::Reciprocal,
            floor: Fidelity::Reciprocal,
            is_upgrade: false,
        }
    }

    fn assignment(&self) -> Assignment {
        Assignment {
            spec: self.spec.clone(),
            cancel: self.cancel.clone(),
            attempts: self.attempts,
            planned: self.planned,
        }
    }
}

fn ns(duration: Duration) -> u64 {
    u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX)
}

/// The scheduler state machine. See the module docs for the contract.
#[derive(Default)]
#[cfg_attr(test, derive(Clone))]
pub(crate) struct Scheduler {
    cfg: ServeConfig,
    /// Effects decided but not yet handed to [`next_action`](Self::next_action).
    out: VecDeque<Action>,
    queue: BinaryHeap<QueueSlot>,
    cells: HashMap<JobId, JobCell>,
    /// key -> queued-or-running job, for single-flight coalescing.
    inflight: HashMap<u64, JobId>,
    tickets: HashMap<Ticket, JobId>,
    /// worker id -> the job it is currently running.
    running: HashMap<usize, JobId>,
    /// Shared by job ids and tickets, so both are unique and monotonic.
    next_id: u64,
    next_seq: u64,
    /// Live (non-tombstoned) queued jobs — what `queue_capacity` bounds.
    queued: usize,
    /// Set by the shell to stop admissions; workers then exit once the
    /// queue is empty.
    pub shutting_down: bool,
    stats: ServiceStats,
    /// The brownout controller (pressure EWMA + hysteresis).
    admission: AdmissionController,
    /// Per-client fresh-run token buckets.
    quotas: HashMap<String, TokenBucket>,
    /// Upgrade intents awaiting an idle worker, FIFO, one per key.
    upgrades: VecDeque<UpgradeIntent>,
    /// EWMA of the relative coupler drift observed on full-fidelity
    /// runs, feeding the calibrated tier's error-bound estimate.
    drift: Ewma,
}

impl Scheduler {
    pub fn new(cfg: ServeConfig) -> Scheduler {
        Scheduler {
            admission: AdmissionController::new(cfg.admission.clone()),
            cfg,
            ..Scheduler::default()
        }
    }

    /// Hands over the oldest effect not yet performed; the caller loops
    /// until `None` after every call that can decide one.
    pub fn next_action(&mut self) -> Option<Action> {
        self.out.pop_front()
    }

    /// Re-enqueues what a previous process admitted but never finished,
    /// and re-owes its unpaid upgrade intents. No ticket survives a
    /// restart, so resumed cells free themselves when done; they re-run
    /// at full fidelity because the submitter's degradation consent did
    /// not survive either. The journal was compacted to exactly this
    /// set, so nothing is journaled again.
    pub fn resume(&mut self, now: u64, jobs: Vec<(JobSpec, Priority)>, owed: Vec<UpgradeIntent>) {
        self.upgrades.extend(owed);
        for (spec, priority) in jobs {
            let key = spec.job_hash();
            let job = self.insert_cell(JobCell::new(spec, key, now, priority));
            self.inflight.insert(key.0, job);
            self.enqueue(job, priority);
        }
    }

    fn insert_cell(&mut self, cell: JobCell) -> JobId {
        let job = self.next_id;
        self.next_id += 1;
        self.cells.insert(job, cell);
        job
    }

    /// Issues one more ticket on `job` and wraps it as a receipt.
    fn receipt(&mut self, job: JobId, key: JobKey, disposition: Disposition) -> SubmitReceipt {
        let ticket = self.next_id;
        self.next_id += 1;
        self.tickets.insert(ticket, job);
        self.cells.get_mut(&job).expect("receipt for a live cell").interest += 1;
        SubmitReceipt {
            ticket,
            job: key,
            disposition,
        }
    }

    /// The one way a job enters (or re-enters) the queue.
    fn enqueue(&mut self, job: JobId, priority: Priority) {
        self.queue.push((priority, Reverse(self.next_seq), job));
        self.next_seq += 1;
        self.queued += 1;
    }

    /// Puts a running job back in the queue (retry, strike, floor raise).
    fn requeue(&mut self, job: JobId, not_before: Option<u64>) {
        let cell = self.cells.get_mut(&job).expect("a running cell is never freed");
        cell.phase = JobStatus::Queued;
        cell.not_before = not_before;
        let priority = cell.priority;
        self.enqueue(job, priority);
        // Every worker: the job may be gated, and only a timed waiter
        // re-arms the backoff wake-up.
        self.out.push_back(Action::WakeWorkers);
    }

    fn note_level(&mut self, change: Option<LevelChange>) {
        if let Some(LevelChange { from, to, pressure }) = change {
            let level = u64::from(to.level());
            self.out.push_back(Action::Emit(if to > from {
                Event::BrownoutEnter { level, pressure }
            } else {
                Event::BrownoutExit { level, pressure }
            }));
        }
    }

    /// The one way a job reaches a terminal phase: counts the outcome,
    /// frees the cell if nobody holds a ticket, leaves the single-flight
    /// map and the queue count, settles the journal, offers a compaction
    /// point, and emits the job's one `job_done`.
    fn terminalise(&mut self, job: JobId, outcome: JobOutcome, now: u64, run_ns: u64) {
        let cell = self.cells.get_mut(&job).expect("only live cells finish");
        let was_queued = matches!(cell.phase, JobStatus::Queued);
        let queue_ns = if was_queued {
            now.saturating_sub(cell.submitted)
        } else {
            cell.queue_ns
        };
        let (key, is_upgrade) = (cell.key, cell.is_upgrade);
        let label = outcome.label();
        let (mut spec_commits, mut spec_rollbacks) = (0, 0);
        match &outcome {
            JobOutcome::Completed { result, .. } => {
                self.stats.completed += 1;
                if let Some(c) = &result.coupler {
                    (spec_commits, spec_rollbacks) = (c.spec_commits, c.spec_rollbacks);
                    self.stats.spec_commits += spec_commits;
                    self.stats.spec_rollbacks += spec_rollbacks;
                }
            }
            JobOutcome::Failed { .. } => self.stats.failed += 1,
            JobOutcome::Cancelled => self.stats.cancelled += 1,
            JobOutcome::DeadlineExpired => self.stats.expired += 1,
            JobOutcome::DeadlineExceeded => self.stats.deadline_exceeded += 1,
            JobOutcome::Poisoned { .. } => self.stats.poisoned += 1,
        }
        cell.phase = JobStatus::Done(outcome);
        if cell.interest == 0 {
            self.cells.remove(&job);
        }
        self.inflight.remove(&key.0);
        if was_queued {
            // Tombstone: the heap slot stays; `pick` skips it.
            self.queued -= 1;
        }
        // An upgrade run — success or not — clears its debt; a failed
        // upgrade is written off rather than retried forever.
        self.out.push_back(if is_upgrade {
            Action::UpgradePaid(key)
        } else {
            Action::Settle(key, label)
        });
        self.out.push_back(Action::Compact);
        self.out.push_back(Action::Emit(Event::JobDone {
            job: key.0,
            outcome: label.to_owned(),
            queue_ns,
            run_ns,
            spec_commits,
            spec_rollbacks,
        }));
        self.out.push_back(Action::WakeWaiters);
        if !self.upgrades.is_empty() && self.queued == 0 {
            // Idle workers only drain upgrades from inside `pick`; make
            // sure one looks.
            self.out.push_back(Action::WakeWorkers);
        }
    }

    /// Admits one submission: memo hit, coalesce onto an identical
    /// in-flight job, or a fresh run planned by [`plan`](Self::plan).
    /// `lookup` is the memo store's `get`.
    pub fn submit(
        &mut self,
        now: u64,
        spec: JobSpec,
        key: JobKey,
        params: &SubmitParams,
        lookup: impl FnOnce(JobKey) -> Option<StoredResult>,
    ) -> Result<SubmitReceipt, Rejected> {
        if self.shutting_down {
            return Err(Rejected::ShuttingDown);
        }
        self.stats.submitted += 1;
        let priority = params.priority;
        let floor = params.floor(&spec);
        // One pressure observation per submission; the resulting level
        // decides the fidelity planning below.
        let change = self.admission.update(self.queued, self.cfg.queue_capacity);
        self.note_level(change);

        // Tier 1: the memo store. A cached answer below the caller's
        // floor is a miss for this caller.
        if let Some(stored) = lookup(key).filter(|stored| stored.fidelity >= floor) {
            self.stats.cache_hits += 1;
            let mut cell = JobCell::new(spec, key, now, priority);
            cell.phase = JobStatus::Done(JobOutcome::Completed {
                result: stored.result,
                cached: true,
                fidelity: stored.fidelity,
                error_bound: stored.error_bound,
                queue_ns: 0,
                run_ns: 0,
            });
            let job = self.insert_cell(cell);
            self.out.push_back(Action::Emit(Event::CacheHit { job: key.0 }));
            return Ok(self.receipt(job, key, Disposition::CacheHit));
        }

        // Tier 2: single-flight — attach to an identical in-flight job,
        // raising its floor (and, while still queued, its plan) to ours.
        if let Some(&job) = self.inflight.get(&key.0) {
            let cell = self.cells.get_mut(&job).expect("inflight cell");
            cell.floor = cell.floor.max(floor);
            if matches!(cell.phase, JobStatus::Queued) {
                cell.planned = cell.planned.max(cell.floor);
            }
            self.stats.coalesced += 1;
            self.out.push_back(Action::Emit(Event::CacheHit { job: key.0 }));
            return Ok(self.receipt(job, key, Disposition::Coalesced));
        }

        // Tier 3: a fresh run.
        let degradable = params.allow_degraded && Fidelity::degradable(&spec.mode);
        let (planned, cause) = self.plan(now, key, params, degradable.then_some(floor))?;
        let canonical = spec.canonical();
        let mut cell = JobCell::new(spec, key, now, priority);
        cell.deadline = params.deadline.map(|d| now.saturating_add(ns(d)));
        cell.floor = floor;
        cell.planned = planned;
        let job = self.insert_cell(cell);
        self.inflight.insert(key.0, job);
        self.enqueue(job, priority);
        self.stats.admitted += 1;
        let depth = self.queued;
        self.out.push_back(Action::Admit(key, canonical, priority));
        self.out.push_back(Action::WakeWorker);
        if params.deadline.is_some() {
            self.out.push_back(Action::WakeReaper);
        }
        if let Some(cause) = cause {
            self.out.push_back(Action::Emit(Event::JobDegraded {
                job: key.0,
                fidelity: planned.name().to_owned(),
                cause: cause.to_owned(),
            }));
        }
        self.out.push_back(Action::Emit(Event::JobAdmitted {
            job: key.0,
            queue_depth: depth as u64,
            priority: priority.rank(),
        }));
        Ok(self.receipt(job, key, Disposition::Enqueued { depth }))
    }

    /// Fidelity planning for a fresh run — the rung it will execute at
    /// and, when that is a degradation, why. `degrade_to` is the floor of
    /// a submission that consented to degradation (`None`: run in full or
    /// not at all). In order: the per-client quota (a fresh run costs one
    /// token; over quota degrades to the floor when allowed, else
    /// sheds), the brownout ladder (level 1 degrades new low-priority
    /// work to the calibrated model, level 2 everything consenting to
    /// its floor), and bounded admission (a degradable job that collides
    /// with a full queue is forced to its floor and admitted into an
    /// overflow region of 4x capacity, because a floor-fidelity run
    /// costs milliseconds).
    fn plan(
        &mut self,
        now: u64,
        key: JobKey,
        params: &SubmitParams,
        degrade_to: Option<Fidelity>,
    ) -> Result<(Fidelity, Option<&'static str>), Rejected> {
        let mut plan = (Fidelity::Reciprocal, None);
        if let Some(client) = params.client.as_ref().filter(|_| self.cfg.quota_rate > 0.0) {
            let (burst, rate) = (self.cfg.quota_burst, self.cfg.quota_rate);
            let bucket = self
                .quotas
                .entry(client.clone())
                .or_insert_with(|| TokenBucket::new(burst, rate));
            if !bucket.try_take(now, 1.0) {
                let Some(floor) = degrade_to else {
                    return Err(self.shed(key, client));
                };
                plan = (floor, Some("quota"));
            }
        }
        if let (Some(floor), None) = (degrade_to, plan.1) {
            match self.admission.level() {
                BrownoutLevel::Brownout1 if params.priority == Priority::Low => {
                    plan = (Fidelity::Calibrated.max(floor), Some("brownout1"));
                }
                BrownoutLevel::Brownout2 => plan = (floor, Some("brownout2")),
                BrownoutLevel::Normal | BrownoutLevel::Brownout1 => {}
            }
        }
        let capacity = self.cfg.queue_capacity;
        if self.queued >= capacity {
            let Some(floor) = degrade_to.filter(|_| self.queued < capacity.saturating_mul(4)) else {
                self.out.push_back(Action::Emit(Event::JobRejected {
                    job: key.0,
                    queue_depth: self.queued as u64,
                }));
                return Err(self.shed(key, params.client.as_deref().unwrap_or_default()));
            };
            plan = (floor, Some("queue_full"));
        }
        Ok(plan)
    }

    fn shed(&mut self, key: JobKey, client: &str) -> Rejected {
        let depth = self.queued;
        self.stats.rejected += 1;
        self.stats.shed += 1;
        self.out.push_back(Action::Emit(Event::JobShed {
            job: key.0,
            client: client.to_owned(),
            queue_depth: depth as u64,
        }));
        Rejected::QueueFull { depth }
    }

    /// Hands `worker` its next job. In order: the best runnable queued
    /// job; exit when draining an empty queue; otherwise — an idle
    /// worker — step the post-storm brownout ladder down and, once it
    /// has cleared, drain one upgrade intent. `fidelity_of` is the memo
    /// store's fidelity probe.
    pub fn pick(
        &mut self,
        now: u64,
        worker: usize,
        fidelity_of: impl Fn(JobKey) -> Option<Fidelity>,
    ) -> Pick {
        let (picked, next_wake) = self.pop_runnable(now);
        if let Some(job) = picked {
            let cell = self.cells.get_mut(&job).expect("picked cell");
            cell.not_before = None;
            cell.attempts += 1;
            cell.phase = JobStatus::Running;
            cell.queue_ns = now.saturating_sub(cell.submitted);
            // The measured queue delay is the saturation signal a depth
            // snapshot alone misses.
            self.admission
                .observe_queue_delay(Duration::from_nanos(cell.queue_ns));
            self.queued -= 1;
            self.running.insert(worker, job);
            return Pick::Run(cell.assignment());
        }
        if self.shutting_down && self.queue.is_empty() {
            return Pick::Exit;
        }
        let idle = self.queued == 0;
        // Pressure observations normally arrive with submissions; when a
        // storm ends and traffic stops, the ladder would wedge at its
        // last level (and the upgrade drain, gated on Normal, would
        // never run). Idle workers feed zero-delay observations so the
        // pressure EWMA decays and the ladder steps down.
        if idle && self.admission.level() != BrownoutLevel::Normal {
            self.admission.observe_queue_delay(Duration::ZERO);
            let change = self.admission.update(0, self.cfg.queue_capacity);
            self.note_level(change);
        }
        let browned_out = self.admission.level() != BrownoutLevel::Normal;
        // Only with an empty queue, no backoff-gated retry pending, and
        // the brownout fully cleared does a worker spend cycles
        // re-earning fidelity.
        if self.cfg.background_upgrades && idle && next_wake.is_none() && !browned_out {
            if let Some(assignment) = self.next_upgrade(now, worker, fidelity_of) {
                return Pick::Run(assignment);
            }
        }
        let decay_tick = (idle && browned_out).then(|| now + DECAY_TICK_NS);
        Pick::Wait(next_wake.into_iter().chain(decay_tick).min())
    }

    /// Pops the best runnable job — skipping tombstones, expiring the
    /// dead, and deferring backoff-gated retries (unless draining, when
    /// waiting would only delay shutdown). Also returns the earliest
    /// gate among the deferred.
    fn pop_runnable(&mut self, now: u64) -> (Option<JobId>, Option<u64>) {
        let mut deferred: Vec<QueueSlot> = Vec::new();
        let mut next_wake: Option<u64> = None;
        let mut picked = None;
        while let Some(slot) = self.queue.pop() {
            let job = slot.2;
            let Some(cell) = self.cells.get(&job) else {
                continue; // terminal and fully collected
            };
            if !matches!(cell.phase, JobStatus::Queued) {
                continue; // tombstone
            }
            let gate = cell.not_before.filter(|&gate| now < gate && !self.shutting_down);
            if cell.deadline.is_some_and(|d| now > d) {
                self.terminalise(job, JobOutcome::DeadlineExpired, now, 0);
            } else if let Some(gate) = gate {
                next_wake = Some(next_wake.map_or(gate, |wake| wake.min(gate)));
                deferred.push(slot);
            } else {
                picked = Some(job);
                break;
            }
        }
        self.queue.extend(deferred);
        (picked, next_wake)
    }

    /// Starts the next runnable upgrade intent as a running cell nobody
    /// holds a ticket for (interest 0; its result publishes through the
    /// store's upgrade-only rule). Intents that are moot (entry already
    /// full fidelity, or evicted) or unparseable are written off on the
    /// way; an intent whose key is in flight goes to the back, because
    /// that run either lands at full fidelity or re-owes the debt.
    fn next_upgrade(
        &mut self,
        now: u64,
        worker: usize,
        fidelity_of: impl Fn(JobKey) -> Option<Fidelity>,
    ) -> Option<Assignment> {
        while let Some(UpgradeIntent { key, spec }) = self.upgrades.pop_front() {
            if self.inflight.contains_key(&key.0) {
                self.upgrades.push_back(UpgradeIntent { key, spec });
                return None;
            }
            let owed = fidelity_of(key).is_some_and(|f| f < Fidelity::Reciprocal);
            let Some(spec) = owed.then(|| spec.parse::<JobSpec>().ok()).flatten() else {
                self.out.push_back(Action::UpgradePaid(key));
                continue;
            };
            let mut cell = JobCell::new(spec, key, now, Priority::Low);
            cell.phase = JobStatus::Running;
            cell.attempts = 1;
            cell.floor = Fidelity::Hop;
            cell.is_upgrade = true;
            let assignment = cell.assignment();
            let job = self.insert_cell(cell);
            self.inflight.insert(key.0, job);
            self.running.insert(worker, job);
            return Some(assignment);
        }
        None
    }

    /// The error bound an answer produced at `rung` carries: the run's
    /// own relative drift at full fidelity (which also calibrates the
    /// bound the cheaper rungs report), twice the drift EWMA (floored)
    /// for the calibrated model, and the paper's constant for hop.
    fn error_bound(&mut self, rung: Fidelity, result: &RunResult) -> f64 {
        match rung {
            Fidelity::Reciprocal => {
                // Mean coupler correction over mean observed latency.
                let lat = result.latency.mean();
                let rel = match &result.coupler {
                    Some(c) if lat > 0.0 => (c.drift.mean() / lat).abs().min(1.0),
                    _ => 0.0,
                };
                if rel.is_finite() && rel > 0.0 {
                    self.drift.observe(rel);
                }
                rel
            }
            Fidelity::Calibrated if self.drift.primed() => {
                (2.0 * self.drift.value()).max(CALIBRATED_ERROR_FLOOR)
            }
            Fidelity::Calibrated => CALIBRATED_ERROR_FLOOR,
            Fidelity::Hop => HOP_ERROR_BOUND,
        }
    }

    /// Takes back the job `worker` was running: publish its result (or
    /// go around again when a waiter that coalesced mid-run demands more
    /// fidelity than this run delivered), retry a transient fault with
    /// backoff, or finish it. `fidelity_of` is the memo store's probe.
    pub fn complete(
        &mut self,
        now: u64,
        worker: usize,
        run: Result<RunResult, SimError>,
        run_ns: u64,
        fidelity_of: impl Fn(JobKey) -> Option<Fidelity>,
    ) {
        let Some(job) = self.running.remove(&worker) else {
            return;
        };
        let cell = &self.cells[&job];
        let outcome = match run {
            Ok(result) => return self.publish(job, Arc::new(result), now, run_ns, fidelity_of),
            Err(err) if matches!(err, SimError::Cancelled { .. }) || cell.halted => {
                if cell.deadline_fired {
                    JobOutcome::DeadlineExceeded
                } else {
                    JobOutcome::Cancelled
                }
            }
            Err(err) if err.is_transient() && cell.attempts <= self.cfg.retry_budget => {
                let resume = now + ns(backoff_delay(self.cfg.retry_backoff, cell.attempts));
                if cell.deadline.is_none_or(|d| resume < d) {
                    self.stats.retries += 1;
                    return self.requeue(job, Some(resume));
                }
                JobOutcome::Failed {
                    error: format!("{err}; no retry budget left before the deadline"),
                }
            }
            Err(err) => JobOutcome::Failed {
                error: err.to_string(),
            },
        };
        self.terminalise(job, outcome, now, run_ns);
    }

    /// Stores a finished run and settles the job with it — unless the
    /// run answered below the floor a waiter raised mid-run, in which
    /// case the job goes around again at that floor. A degraded answer
    /// leaves an upgrade debt, journaled (so a restart re-owes it) and
    /// queued for the idle drain; a full-fidelity upgrade run reports
    /// what it replaced.
    fn publish(
        &mut self,
        job: JobId,
        result: Arc<RunResult>,
        now: u64,
        run_ns: u64,
        fidelity_of: impl Fn(JobKey) -> Option<Fidelity>,
    ) {
        let cell = &self.cells[&job];
        let (key, fidelity, floor, queue_ns) = (cell.key, cell.planned, cell.floor, cell.queue_ns);
        let (is_upgrade, spec) = (cell.is_upgrade, cell.spec.canonical());
        let error_bound = self.error_bound(fidelity, &result);
        let replaced = is_upgrade.then(|| fidelity_of(key)).flatten();
        let stored = StoredResult {
            result: result.clone(),
            fidelity,
            error_bound,
        };
        self.out.push_back(Action::Publish(key, spec.clone(), stored));
        let degraded = fidelity < Fidelity::Reciprocal;
        if !is_upgrade && fidelity < floor {
            self.cells.get_mut(&job).expect("running cell").planned = floor;
            return self.requeue(job, None);
        } else if is_upgrade && !degraded {
            self.stats.upgraded += 1;
            self.out.push_back(Action::Emit(Event::ResultUpgraded {
                job: key.0,
                from: replaced.unwrap_or(Fidelity::Hop).name().to_owned(),
                to: fidelity.name().to_owned(),
            }));
        } else if !is_upgrade && degraded {
            self.stats.degraded += 1;
            if !self.upgrades.iter().any(|owed| owed.key == key) {
                self.out.push_back(Action::OweUpgrade(key, spec.clone()));
                self.upgrades.push_back(UpgradeIntent { key, spec });
            }
        }
        let outcome = JobOutcome::Completed {
            result,
            cached: false,
            fidelity,
            error_bound,
            queue_ns,
            run_ns,
        };
        self.terminalise(job, outcome, now, run_ns);
    }

    /// Post-panic accounting for one worker: charge a strike to the job
    /// it was running and requeue it with backoff — or quarantine it as
    /// `Poisoned` once it has crossed the strike limit.
    pub fn worker_panicked(&mut self, now: u64, worker: usize, incarnation: u64, detail: &str) {
        self.stats.respawns += 1;
        let mut victim = 0;
        if let Some(job) = self.running.remove(&worker) {
            let cell = self.cells.get_mut(&job).expect("a running cell is never freed");
            victim = cell.key.0;
            cell.strikes += 1;
            if cell.strikes >= self.cfg.strike_limit.max(1) {
                let strikes = u64::from(cell.strikes);
                let quarantined = Event::JobQuarantined { job: victim, strikes };
                self.out.push_back(Action::Emit(quarantined));
                let error = SimError::Fault {
                    component: format!("serve worker {worker}"),
                    detail: detail.to_owned(),
                }
                .to_string();
                self.terminalise(job, JobOutcome::Poisoned { error }, now, 0);
            } else {
                let gate = now + ns(backoff_delay(self.cfg.retry_backoff, cell.attempts));
                self.requeue(job, Some(gate));
            }
        }
        self.out.push_back(Action::Emit(Event::WorkerRespawn {
            worker: worker as u64,
            incarnation,
            job: victim,
        }));
        self.out.push_back(Action::WakeWorkers);
    }

    /// The deadline sweep: expires queued jobs whose deadline passed
    /// without a run, and asks for the cancel flag of *running* jobs
    /// past theirs (exactly once — `deadline_fired`), so the engine's
    /// watchdog poll stops them and they finish as `DeadlineExceeded`.
    /// Returns the next instant a deadline falls due.
    pub fn tick(&mut self, now: u64) -> Option<u64> {
        let mut due: Vec<JobId> = Vec::new();
        let mut next: Option<u64> = None;
        for (&job, cell) in &self.cells {
            let pending = match cell.phase {
                JobStatus::Queued => true,
                JobStatus::Running => !cell.deadline_fired,
                JobStatus::Done(_) => false,
            };
            match cell.deadline.filter(|_| pending) {
                Some(at) if now > at => due.push(job),
                Some(at) => next = Some(next.map_or(at, |n| n.min(at))),
                None => {}
            }
        }
        due.sort_unstable();
        for job in due {
            let cell = self.cells.get_mut(&job).expect("due cell");
            if matches!(cell.phase, JobStatus::Queued) {
                self.terminalise(job, JobOutcome::DeadlineExpired, now, 0);
                continue;
            }
            cell.deadline_fired = true;
            cell.halted = true;
            self.out.push_back(Action::RaiseCancel(cell.cancel.clone()));
            self.out.push_back(Action::Emit(Event::DeadlineCancel {
                job: cell.key.0,
                overrun_ms: now.saturating_sub(cell.deadline.unwrap_or(now)) / 1_000_000,
            }));
        }
        next
    }

    /// `JobService::cancel`: only the last interested ticket cancels.
    pub fn cancel(&mut self, now: u64, ticket: Ticket) -> Option<CancelOutcome> {
        let job = *self.tickets.get(&ticket)?;
        let cell = self.cells.get_mut(&job)?;
        let outcome = match cell.phase {
            JobStatus::Done(_) => CancelOutcome::AlreadyDone,
            _ if cell.interest > 1 => CancelOutcome::Detached,
            JobStatus::Queued => CancelOutcome::Cancelled,
            JobStatus::Running => {
                cell.halted = true;
                self.out.push_back(Action::RaiseCancel(cell.cancel.clone()));
                CancelOutcome::Signalled
            }
        };
        if outcome == CancelOutcome::Cancelled {
            self.terminalise(job, JobOutcome::Cancelled, now, 0);
        }
        self.collect(ticket);
        Some(outcome)
    }

    /// Removes a ticket; frees the cell once it is terminal and no
    /// ticket references it (bounding memory by *live* submissions).
    pub fn collect(&mut self, ticket: Ticket) {
        let Some(job) = self.tickets.remove(&ticket) else {
            return;
        };
        if let Some(cell) = self.cells.get_mut(&job) {
            cell.interest = cell.interest.saturating_sub(1);
            if cell.interest == 0 && matches!(cell.phase, JobStatus::Done(_)) {
                self.cells.remove(&job);
            }
        }
    }

    /// The ticket's job as `JobService::status` reports it.
    pub fn status(&self, ticket: Ticket) -> Option<JobStatus> {
        Some(self.cells.get(self.tickets.get(&ticket)?)?.phase.clone())
    }

    /// Counter snapshot (the store's half is the shell's to fill in).
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            queue_depth: self.queued,
            upgrades_pending: self.upgrades.len() as u64,
            brownout: u64::from(self.admission.level().level()),
            ..self.stats
        }
    }

    /// Nothing queued and nothing running.
    pub fn is_drained(&self) -> bool {
        self.queued == 0 && self.running.is_empty()
    }

    /// What a compacted journal must still hold: every admitted job not
    /// yet settled, in admission order (job ids are monotonic), plus the
    /// outstanding upgrade debt — the queued intents and any upgrade run
    /// whose clearing record has not landed yet.
    pub fn live_snapshot(&self) -> (Vec<UnfinishedJob>, Vec<UpgradeIntent>) {
        let mut live: Vec<(&JobId, &JobCell)> = self
            .inflight
            .values()
            .filter_map(|job| Some((job, self.cells.get(job)?)))
            .collect();
        live.sort_unstable_by_key(|&(job, _)| job);
        let mut upgrades: Vec<UpgradeIntent> = self.upgrades.iter().cloned().collect();
        let mut unfinished = Vec::new();
        for (_, cell) in live {
            let (key, spec, priority) = (cell.key, cell.spec.canonical(), cell.priority);
            if cell.is_upgrade {
                upgrades.push(UpgradeIntent { key, spec });
            } else {
                unfinished.push(UnfinishedJob { key, spec, priority });
            }
        }
        (unfinished, upgrades)
    }

    /// Records one completed runtime compaction.
    pub fn compacted(&mut self) {
        self.stats.journal_compactions += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionConfig;
    use ra_sim::Summary;
    use std::collections::{BTreeSet, HashSet};
    use std::sync::atomic::Ordering;

    /// One counter-clock step.
    const STEP: u64 = 1_000_000;
    /// The retry backoff base: a gated job sits out one whole step.
    const BACKOFF: u64 = 2 * STEP;
    const PLAIN: &str = "target=2x2 app=water mode=fixed:10 instructions=20 budget=100000";
    /// Only reciprocal modes have cheaper rungs to degrade to.
    const RECIPROCAL: &str = "target=2x2 app=water mode=reciprocal instructions=40 budget=100000";

    fn spec(text: &str, seed: u64) -> JobSpec {
        text.parse::<JobSpec>().expect("test spec").seed(seed)
    }

    fn consenting() -> SubmitParams {
        SubmitParams {
            allow_degraded: true,
            ..SubmitParams::default()
        }
    }

    fn ok_run() -> Result<RunResult, SimError> {
        Ok(RunResult {
            workload: "water".into(),
            mode: "test".into(),
            cycles: 7,
            wall: Duration::ZERO,
            latency: Summary::new(),
            class_latency: Vec::new(),
            messages: 3,
            ipc: 1.0,
            calibrations: 0,
            coupler: None,
        })
    }

    fn transient() -> Result<RunResult, SimError> {
        Err(SimError::Fault {
            component: "test".into(),
            detail: "flaky".into(),
        })
    }

    fn fatal() -> Result<RunResult, SimError> {
        Err(SimError::Invariant("broken".into()))
    }

    /// The core under a counter clock, plus a model of everything the
    /// shell would do with its actions: the journal fold, the memo
    /// store's upgrade-only rule, and the event stream. No threads.
    #[derive(Clone)]
    struct Rig {
        core: Scheduler,
        now: u64,
        /// Keys with a journaled admit and no settle yet.
        open: BTreeSet<u64>,
        /// Keys with a journaled upgrade intent not yet cleared.
        owed: BTreeSet<u64>,
        store: HashMap<u64, StoredResult>,
        events: Vec<Event>,
        wakes: Vec<&'static str>,
    }

    impl Rig {
        fn new(cfg: ServeConfig) -> Rig {
            Rig {
                core: Scheduler::new(ServeConfig {
                    retry_backoff: Duration::from_nanos(BACKOFF),
                    ..cfg
                }),
                now: 0,
                open: BTreeSet::new(),
                owed: BTreeSet::new(),
                store: HashMap::new(),
                events: Vec::new(),
                wakes: Vec::new(),
            }
        }

        /// Performs one call's actions the way the shell does, checking
        /// the per-call contracts: an admit is journaled with its
        /// `job_admitted`, a settle lands exactly once per admit, each
        /// compaction point sees a snapshot equal to the journal fold,
        /// and every settle comes with its one `job_done`.
        fn perform(&mut self, actions: Vec<Action>) {
            let (mut settled, mut done) = (Vec::new(), Vec::new());
            for action in actions {
                match action {
                    Action::Admit(key, ..) => assert!(self.open.insert(key.0), "double admit"),
                    Action::Settle(key, _) => {
                        assert!(self.open.remove(&key.0), "settle without an open admit");
                        settled.push(key.0);
                    }
                    Action::OweUpgrade(key, _) => assert!(self.owed.insert(key.0), "owed twice"),
                    Action::UpgradePaid(key) => {
                        assert!(self.owed.remove(&key.0), "cleared an intent nobody owed");
                    }
                    Action::Compact => self.assert_snapshot_matches_journal(),
                    Action::Publish(key, _, stored) => {
                        let keep = self
                            .store
                            .get(&key.0)
                            .is_some_and(|old| old.fidelity > stored.fidelity);
                        if !keep {
                            self.store.insert(key.0, stored);
                        }
                    }
                    Action::Emit(event) => {
                        if let Event::JobDone { job, .. } = &event {
                            done.push(*job);
                        }
                        self.events.push(event);
                    }
                    Action::RaiseCancel(flag) => flag.store(true, Ordering::Relaxed),
                    Action::WakeWorker => self.wakes.push("worker"),
                    Action::WakeWorkers => self.wakes.push("workers"),
                    Action::WakeWaiters => self.wakes.push("waiters"),
                    Action::WakeReaper => self.wakes.push("reaper"),
                }
            }
            for key in &settled {
                assert!(done.contains(key), "a settled job must emit its job_done");
            }
            assert!(done.len() >= settled.len() && done.len() <= settled.len() + 1);
        }

        fn assert_snapshot_matches_journal(&self) {
            let (unfinished, upgrades) = self.core.live_snapshot();
            let unfinished: BTreeSet<u64> = unfinished.iter().map(|u| u.key.0).collect();
            let upgrades: BTreeSet<u64> = upgrades.iter().map(|u| u.key.0).collect();
            assert_eq!(unfinished, self.open, "compaction would lose or resurrect an admit");
            assert_eq!(upgrades, self.owed, "compaction would lose or resurrect a debt");
        }

        fn step<R>(&mut self, call: impl FnOnce(&mut Scheduler, u64, &Rig) -> R) -> R {
            self.now += STEP;
            let view = self.clone();
            let result = call(&mut self.core, self.now, &view);
            let actions = std::iter::from_fn(|| self.core.next_action()).collect();
            self.perform(actions);
            self.assert_invariants();
            result
        }

        fn fidelity_of(&self, key: JobKey) -> Option<Fidelity> {
            self.store.get(&key.0).map(|stored| stored.fidelity)
        }

        fn submit(&mut self, spec: JobSpec, params: SubmitParams) -> Result<SubmitReceipt, Rejected> {
            let key = spec.job_hash();
            self.step(|core, now, rig| {
                core.submit(now, spec, key, &params, |k| rig.store.get(&k.0).cloned())
            })
        }

        fn pick(&mut self, worker: usize) -> Pick {
            self.step(|core, now, rig| core.pick(now, worker, |k| rig.fidelity_of(k)))
        }

        fn run(&mut self, worker: usize) -> Assignment {
            match self.pick(worker) {
                Pick::Run(job) => job,
                other => panic!("expected a job, got {other:?}"),
            }
        }

        fn complete(&mut self, worker: usize, run: Result<RunResult, SimError>) {
            self.step(|core, now, rig| core.complete(now, worker, run, STEP, |k| rig.fidelity_of(k)));
        }

        fn panic(&mut self, worker: usize) {
            self.step(|core, now, _| core.worker_panicked(now, worker, 1, "boom"));
        }

        fn tick(&mut self) -> Option<u64> {
            self.step(|core, now, _| core.tick(now))
        }

        fn cancel(&mut self, ticket: Ticket) -> Option<CancelOutcome> {
            self.step(|core, now, _| core.cancel(now, ticket))
        }

        fn outcome(&self, ticket: Ticket) -> String {
            self.core.status(ticket).expect("live ticket").label().to_owned()
        }

        fn count(&self, kind: &str) -> usize {
            self.events.iter().filter(|e| e.kind_name() == kind).count()
        }

        /// The structural invariants, checked after every event.
        fn assert_invariants(&self) {
            let core = &self.core;
            let live_queued = core
                .cells
                .values()
                .filter(|c| matches!(c.phase, JobStatus::Queued))
                .count();
            assert_eq!(core.queued, live_queued, "`queued` counts the live Queued cells");
            let live_slots = core
                .queue
                .iter()
                .filter(|s| core.cells.get(&s.2).is_some_and(|c| matches!(c.phase, JobStatus::Queued)))
                .count();
            assert_eq!(live_slots, live_queued, "one heap slot per live Queued cell");
            // `inflight` is a bijection onto the non-terminal cells.
            let unfinished = core.cells.values().filter(|c| !matches!(c.phase, JobStatus::Done(_)));
            assert_eq!(core.inflight.len(), unfinished.count());
            for (key, job) in &core.inflight {
                let cell = core.cells.get(job).expect("inflight cell exists");
                assert!(!matches!(cell.phase, JobStatus::Done(_)) && cell.key.0 == *key);
            }
            let running = core.cells.values().filter(|c| matches!(c.phase, JobStatus::Running));
            assert_eq!(core.running.len(), running.count());
            for job in core.running.values() {
                assert!(matches!(core.cells[job].phase, JobStatus::Running));
            }
            // Interest counts tickets; a terminal cell nobody holds is freed.
            for (job, cell) in &core.cells {
                let held = core.tickets.values().filter(|j| *j == job).count();
                assert_eq!(cell.interest, held);
                assert!(held > 0 || !matches!(cell.phase, JobStatus::Done(_)));
            }
            assert!(core.tickets.values().all(|job| core.cells.contains_key(job)));
            let queued_debt: BTreeSet<u64> = core.upgrades.iter().map(|u| u.key.0).collect();
            assert_eq!(queued_debt.len(), core.upgrades.len(), "one queued intent per key");
            self.assert_snapshot_matches_journal();
        }
    }

    fn one_worker() -> ServeConfig {
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn the_queue_is_priority_then_fifo() {
        let mut rig = Rig::new(one_worker());
        let submit = |rig: &mut Rig, seed, priority| {
            let params = SubmitParams {
                priority,
                ..SubmitParams::default()
            };
            rig.submit(spec(PLAIN, seed), params).unwrap()
        };
        submit(&mut rig, 1, Priority::Low);
        submit(&mut rig, 2, Priority::Normal);
        submit(&mut rig, 3, Priority::High);
        submit(&mut rig, 4, Priority::Normal);
        let mut order = Vec::new();
        for _ in 0..4 {
            order.push(rig.run(0).spec.seed);
            rig.complete(0, ok_run());
        }
        assert_eq!(order, [3, 2, 4, 1]);
        assert!(matches!(rig.pick(0), Pick::Wait(None)), "an idle worker parks untimed");
    }

    #[test]
    fn a_retry_waits_behind_its_backoff_gate_unless_draining() {
        let mut rig = Rig::new(one_worker());
        let ticket = rig.submit(spec(PLAIN, 1), SubmitParams::default()).unwrap().ticket;
        rig.run(0);
        rig.complete(0, transient());
        assert_eq!(rig.core.stats().retries, 1);
        // The gate is one backoff base past the failed attempt; the
        // worker is told exactly when to look again.
        let gate = rig.now + BACKOFF;
        assert!(matches!(rig.pick(0), Pick::Wait(Some(at)) if at == gate));
        // Draining overrides the gate: waiting would only delay exit.
        let mut draining = rig.clone();
        draining.core.shutting_down = true;
        assert_eq!(draining.run(0).attempts, 2);
        // Otherwise it runs once the gate has passed.
        assert_eq!(rig.run(0).attempts, 2);
        rig.complete(0, ok_run());
        assert_eq!(rig.outcome(ticket), "completed");
    }

    #[test]
    fn an_exhausted_retry_budget_or_a_fatal_error_fails_the_job() {
        let mut rig = Rig::new(ServeConfig {
            retry_budget: 1,
            ..one_worker()
        });
        let flaky = rig.submit(spec(PLAIN, 1), SubmitParams::default()).unwrap().ticket;
        let broken = rig.submit(spec(PLAIN, 2), SubmitParams::default()).unwrap().ticket;
        rig.run(0);
        rig.complete(0, transient());
        rig.run(0);
        rig.complete(0, fatal());
        assert_eq!(rig.outcome(broken), "failed", "a deterministic error is never retried");
        rig.now += 4 * STEP;
        rig.run(0);
        rig.complete(0, transient());
        assert_eq!(rig.outcome(flaky), "failed");
        assert_eq!((rig.core.stats().retries, rig.core.stats().failed), (1, 2));
    }

    #[test]
    fn a_queued_deadline_expires_at_pick_or_at_tick_whichever_looks_first() {
        let doomed = || SubmitParams {
            deadline: Some(Duration::from_nanos(2 * STEP)),
            ..SubmitParams::default()
        };
        let mut rig = Rig::new(one_worker());
        let ticket = rig.submit(spec(PLAIN, 1), doomed()).unwrap().ticket;
        assert!(rig.wakes.contains(&"reaper"), "a deadline re-arms the reaper");
        assert_eq!(rig.tick(), Some(3 * STEP), "tick reports the next deadline");
        let mut by_pick = rig.clone();

        rig.now += 2 * STEP;
        assert_eq!(rig.tick(), None);
        assert_eq!(rig.outcome(ticket), "deadline_expired");

        by_pick.now += 2 * STEP;
        assert!(matches!(by_pick.pick(0), Pick::Wait(None)), "the dead job never runs");
        assert_eq!(by_pick.outcome(ticket), "deadline_expired");
        for rig in [&rig, &by_pick] {
            assert_eq!(rig.core.stats().expired, 1);
            assert_eq!(rig.count("job_done"), 1);
        }
    }

    #[test]
    fn a_running_job_past_its_deadline_is_halted_exactly_once() {
        let mut rig = Rig::new(one_worker());
        let params = SubmitParams {
            deadline: Some(Duration::from_nanos(2 * STEP)),
            ..SubmitParams::default()
        };
        let ticket = rig.submit(spec(PLAIN, 1), params).unwrap().ticket;
        let job = rig.run(0);
        rig.now += 2 * STEP;
        rig.tick();
        rig.tick();
        assert!(job.cancel.load(Ordering::Relaxed));
        assert_eq!(rig.count("deadline_cancel"), 1);
        // Whatever the engine returns once halted, the job is over.
        rig.complete(0, fatal());
        assert_eq!(rig.outcome(ticket), "deadline_exceeded");
    }

    #[test]
    fn strikes_requeue_with_backoff_then_quarantine() {
        let mut rig = Rig::new(one_worker());
        let ticket = rig.submit(spec(PLAIN, 1), SubmitParams::default()).unwrap().ticket;
        rig.run(0);
        rig.panic(0);
        assert_eq!(rig.outcome(ticket), "queued");
        assert!(matches!(rig.pick(0), Pick::Wait(Some(_))), "the strike is backoff-gated");
        rig.now += 2 * STEP;
        rig.run(0);
        rig.panic(0);
        assert_eq!(rig.outcome(ticket), "poisoned");
        let stats = rig.core.stats();
        assert_eq!((stats.respawns, stats.poisoned), (2, 1));
        assert_eq!((rig.count("job_quarantined"), rig.count("worker_respawn")), (1, 2));
        // A worker that dies idle charges nobody.
        rig.panic(0);
        assert_eq!(rig.core.stats().poisoned, 1);
    }

    #[test]
    fn a_floor_raised_mid_run_sends_the_job_around_again() {
        let mut rig = Rig::new(ServeConfig {
            queue_capacity: 1,
            ..one_worker()
        });
        rig.submit(spec(PLAIN, 9), SubmitParams::default()).unwrap();
        // The full queue forces the consenting job down to its floor.
        let cheap = rig.submit(spec(RECIPROCAL, 1), consenting()).unwrap().ticket;
        rig.run(0);
        rig.complete(0, ok_run());
        assert_eq!(rig.run(0).planned, Fidelity::Hop);
        // A strict submitter coalesces while the hop run is in flight.
        let strict = rig.submit(spec(RECIPROCAL, 1), SubmitParams::default()).unwrap();
        assert_eq!(strict.disposition, Disposition::Coalesced);
        rig.complete(0, ok_run());
        assert_eq!(rig.outcome(cheap), "queued", "the hop answer settles nobody");
        assert_eq!(rig.run(0).planned, Fidelity::Reciprocal);
        rig.complete(0, ok_run());
        for ticket in [cheap, strict.ticket] {
            let Some(JobStatus::Done(JobOutcome::Completed { fidelity, .. })) = rig.core.status(ticket)
            else {
                panic!("both tickets share the full-fidelity answer");
            };
            assert_eq!(fidelity, Fidelity::Reciprocal);
        }
        assert_eq!(rig.core.stats().degraded, 0);
        assert!(rig.owed.is_empty(), "a full-fidelity publish leaves no debt");
    }

    #[test]
    fn a_degraded_publish_owes_an_upgrade_that_an_idle_worker_pays() {
        let mut rig = Rig::new(ServeConfig {
            queue_capacity: 1,
            ..one_worker()
        });
        rig.submit(spec(PLAIN, 9), SubmitParams::default()).unwrap();
        let cheap = rig.submit(spec(RECIPROCAL, 1), consenting()).unwrap();
        rig.run(0);
        rig.complete(0, ok_run());
        rig.run(0);
        rig.complete(0, ok_run());
        let Some(JobStatus::Done(JobOutcome::Completed { fidelity, error_bound, .. })) =
            rig.core.status(cheap.ticket)
        else {
            panic!("the degraded job completes");
        };
        assert_eq!((fidelity, error_bound), (Fidelity::Hop, HOP_ERROR_BOUND));
        assert_eq!(rig.owed, BTreeSet::from([cheap.job.0]));
        assert_eq!(rig.core.stats().upgrades_pending, 1);
        assert!(rig.wakes.ends_with(&["waiters", "workers"]), "someone must look");

        // The idle worker re-runs it at full fidelity; nobody waits on it.
        let upgrade = rig.run(0);
        assert_eq!((upgrade.planned, upgrade.attempts), (Fidelity::Reciprocal, 1));
        rig.complete(0, ok_run());
        assert!(rig.owed.is_empty());
        assert_eq!(rig.fidelity_of(cheap.job), Some(Fidelity::Reciprocal));
        assert_eq!((rig.core.stats().upgraded, rig.count("result_upgraded")), (1, 1));
        assert_eq!(rig.count("job_admitted"), 2, "an upgrade run is not an admission");
        assert!(matches!(rig.pick(0), Pick::Wait(None)));
    }

    #[test]
    fn an_exhausted_quota_degrades_consenting_jobs_and_sheds_the_rest() {
        let mut rig = Rig::new(ServeConfig {
            quota_rate: 1e-9,
            quota_burst: 1.0,
            ..one_worker()
        });
        let tenant = |allow_degraded| SubmitParams {
            client: Some("tenant-a".into()),
            allow_degraded,
            ..SubmitParams::default()
        };
        rig.submit(spec(RECIPROCAL, 1), tenant(false)).expect("the burst token");
        let shed = rig.submit(spec(RECIPROCAL, 2), tenant(false)).unwrap_err();
        assert_eq!(shed, Rejected::QueueFull { depth: 1 });
        rig.submit(spec(RECIPROCAL, 3), tenant(true)).expect("degraded, not shed");
        rig.submit(spec(RECIPROCAL, 4), SubmitParams::default()).expect("anonymous is unmetered");
        let planned: Vec<Fidelity> = (0..3).map(|_| {
            let job = rig.run(0);
            rig.complete(0, ok_run());
            job.planned
        }).collect();
        assert_eq!(planned, [Fidelity::Reciprocal, Fidelity::Hop, Fidelity::Reciprocal]);
        let stats = rig.core.stats();
        assert_eq!((stats.shed, stats.rejected, stats.degraded), (1, 1, 1));
        assert_eq!((rig.count("job_shed"), rig.count("job_rejected")), (1, 0));
        assert!(rig.events.iter().any(
            |e| matches!(e, Event::JobDegraded { cause, .. } if cause == "quota")
        ));
    }

    #[test]
    fn cancelling_a_queued_job_ends_it_with_exactly_one_job_done() {
        let mut rig = Rig::new(one_worker());
        let keeper = rig.submit(spec(PLAIN, 1), SubmitParams::default()).unwrap().ticket;
        let quitter = rig.submit(spec(PLAIN, 1), SubmitParams::default()).unwrap().ticket;
        assert_eq!(rig.cancel(quitter), Some(CancelOutcome::Detached));
        assert_eq!(rig.count("job_done"), 0, "the job still has an interested ticket");
        assert_eq!(rig.cancel(keeper), Some(CancelOutcome::Cancelled));
        assert_eq!((rig.count("job_admitted"), rig.count("job_done")), (1, 1));
        assert!(rig.open.is_empty(), "the cancel settled the journal");
        assert_eq!(rig.core.stats().cancelled, 1);
        assert_eq!(rig.cancel(keeper), None, "the ticket was collected");
        assert!(matches!(rig.pick(0), Pick::Wait(None)), "the tombstone is skipped");
        // A running job is only signalled; its worker reports the end.
        let running = rig.submit(spec(PLAIN, 2), SubmitParams::default()).unwrap().ticket;
        let job = rig.run(0);
        assert_eq!(rig.cancel(running), Some(CancelOutcome::Signalled));
        assert!(job.cancel.load(Ordering::Relaxed));
        rig.complete(0, Err(SimError::Cancelled { at_cycle: 512 }));
        assert_eq!((rig.core.stats().cancelled, rig.count("job_done")), (2, 2));
    }

    /// One symbol of the exploration alphabet.
    #[derive(Debug, Clone, Copy)]
    enum Sym {
        SubmitA,
        SubmitB,
        Pick,
        Ok,
        Transient,
        Fatal,
        Panic,
        Cancel,
        Tick,
    }

    const ALPHABET: [Sym; 9] = [
        Sym::SubmitA,
        Sym::SubmitB,
        Sym::Pick,
        Sym::Ok,
        Sym::Transient,
        Sym::Fatal,
        Sym::Panic,
        Sym::Cancel,
        Sym::Tick,
    ];

    impl Rig {
        /// Applies `sym`; `false` when the shell could not issue it here
        /// (a busy worker does not pick, an idle one has nothing to report).
        fn apply(&mut self, sym: Sym) -> bool {
            let busy = self.core.running.contains_key(&0);
            match sym {
                // A: degradable, consenting, low priority — every rung
                // of the ladder and the upgrade debt are reachable.
                Sym::SubmitA => {
                    let params = SubmitParams {
                        priority: Priority::Low,
                        ..consenting()
                    };
                    let _ = self.submit(spec(RECIPROCAL, 1), params);
                }
                // B: strict, with a deadline two steps out.
                Sym::SubmitB => {
                    let params = SubmitParams {
                        deadline: Some(Duration::from_nanos(2 * STEP)),
                        ..SubmitParams::default()
                    };
                    let _ = self.submit(spec(PLAIN, 2), params);
                }
                Sym::Pick if !busy => drop(self.pick(0)),
                Sym::Ok if busy => self.complete(0, ok_run()),
                Sym::Transient if busy => self.complete(0, transient()),
                Sym::Fatal if busy => self.complete(0, fatal()),
                Sym::Panic if busy => self.panic(0),
                Sym::Cancel => match self.core.tickets.keys().min().copied() {
                    Some(ticket) => drop(self.cancel(ticket)),
                    None => return false,
                },
                Sym::Tick => drop(self.tick()),
                _ => return false,
            }
            true
        }

        /// Everything that decides the core's future behaviour, as text.
        fn fingerprint(&self) -> String {
            let core = &self.core;
            let mut cells: Vec<String> = core
                .cells
                .iter()
                .map(|(job, c)| {
                    let phase = c.phase.label();
                    format!(
                        "{job}:{:x}:{phase}:{}:{}:{}:{:?}:{:?}:{}{}{}:{:?}:{:?}",
                        c.key.0, c.interest, c.attempts, c.strikes, c.planned, c.floor,
                        u8::from(c.halted), u8::from(c.deadline_fired), u8::from(c.is_upgrade),
                        c.deadline, c.not_before,
                    )
                })
                .collect();
            cells.sort();
            let mut queue: Vec<(u64, u64)> = core.queue.iter().map(|s| (s.1 .0, s.2)).collect();
            queue.sort_unstable();
            let mut tickets: Vec<(&u64, &u64)> = core.tickets.iter().collect();
            tickets.sort_unstable();
            let mut stored: Vec<(&u64, Fidelity)> =
                self.store.iter().map(|(k, s)| (k, s.fidelity)).collect();
            stored.sort_unstable();
            format!(
                "{cells:?}|{queue:?}|{tickets:?}|{:?}|{:?}|{stored:?}|{:?}|{}",
                core.running, core.upgrades, core.admission, core.shutting_down,
            )
        }

        /// With submissions stopped, a worker and the reaper must bring
        /// any reachable state to rest: queue empty, nothing running,
        /// every admit settled, the brownout ladder back at Normal, and
        /// every upgrade debt paid.
        fn assert_quiesces(mut self) {
            for _ in 0..200 {
                self.tick();
                if self.core.running.contains_key(&0) {
                    self.complete(0, ok_run());
                }
                match self.pick(0) {
                    Pick::Run(_) => self.complete(0, ok_run()),
                    Pick::Wait(until) => self.now = until.unwrap_or(self.now + STEP).max(self.now),
                    Pick::Exit => unreachable!("nobody began shutdown"),
                }
                let level = self.core.admission.level();
                if self.core.is_drained() && level == BrownoutLevel::Normal && self.owed.is_empty() {
                    assert!(self.open.is_empty(), "a drained core has settled every admit");
                    return;
                }
            }
            panic!("the core wedged: {}", self.fingerprint());
        }
    }

    /// Bounded breadth-first exploration of every event interleaving one
    /// worker, the reaper and two clients can produce, over the alphabet
    /// {submit a, submit b, pick, complete ok / transient / fatal, panic,
    /// cancel, tick}; compaction is implicit, because every step (and
    /// every compaction point inside a step) asserts that the snapshot a
    /// compaction would write equals the journal fold. `Rig::step`
    /// checks the structural invariants after every event; every
    /// frontier state must also come to rest once traffic stops.
    #[test]
    fn every_reachable_state_keeps_the_invariants_and_can_come_to_rest() {
        const DEPTH: usize = 7;
        let root = Rig::new(ServeConfig {
            queue_capacity: 2,
            retry_budget: 1,
            admission: AdmissionConfig {
                enter_after: 1,
                exit_after: 2,
                brownout1_pressure: 0.5,
                brownout2_pressure: 1.0,
                ..AdmissionConfig::default()
            },
            ..one_worker()
        });
        let mut frontier = vec![root];
        let mut explored = 0usize;
        for _ in 0..DEPTH {
            let mut seen = HashSet::new();
            let mut next = Vec::new();
            for state in &frontier {
                for sym in ALPHABET {
                    let mut child = state.clone();
                    child.events.clear();
                    child.wakes.clear();
                    if child.apply(sym) && seen.insert(child.fingerprint()) {
                        next.push(child);
                    }
                }
            }
            explored += next.len();
            frontier = next;
        }
        assert!(explored > 1_000, "the exploration is not trivial: {explored} states");
        let reached = |label: &str| frontier.iter().any(|s| s.fingerprint().contains(label));
        for label in ["poisoned", "deadline_expired", "cancelled", "failed", "Brownout1"] {
            assert!(reached(label), "depth {DEPTH} never reached `{label}`");
        }
        for state in frontier {
            state.assert_quiesces();
        }
    }
}

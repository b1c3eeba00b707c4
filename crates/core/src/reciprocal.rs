//! The reciprocal-abstraction coupler.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use ra_gpu::{panic_message, ParallelEngine};
use ra_netmodel::{AbstractNetwork, CalibratedModel, HopMetric, LatencyModel, ModelQuery};
use ra_noc::{
    ChipletNetwork, ChipletWindowSnapshot, NocConfig, NocStats, TopologyKind, MAX_BATCH_CYCLES,
};
use ra_obs::{DegradationState, Event, ObsSink, SpanKind};
use ra_sim::{Cycle, Delivery, LatencyTable, NetMessage, Network, SimError, Summary};

/// When and how the coupler abandons a misbehaving detailed model.
///
/// A watchdog trip (hang, invariant violation, worker fault) tears down the
/// detailed NoC and puts the coupler into *degraded* mode: the calibrated
/// model keeps answering the full system alone. After
/// `backoff_quanta × consecutive-trips` quanta the coupler rebuilds the
/// detailed engine and tries again; `max_retries` consecutive failures — or
/// `permanent_after` trips over the whole run — abandon it for good.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FallbackPolicy {
    /// Consecutive failed retries tolerated before giving up.
    pub max_retries: u32,
    /// Quanta to wait, per consecutive trip, before retrying.
    pub backoff_quanta: u32,
    /// Total trips over the run after which the detailed model is
    /// permanently abandoned.
    pub permanent_after: u32,
}

impl Default for FallbackPolicy {
    fn default() -> Self {
        FallbackPolicy {
            max_retries: 3,
            backoff_quanta: 2,
            permanent_after: 8,
        }
    }
}

/// One watchdog teardown of the detailed model, stamped with the quantum
/// boundary (in cycles) at which it was handled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TripRecord {
    /// The quantum boundary the coupler was advancing toward when it
    /// tripped.
    pub cycle: u64,
    /// Human-readable cause (the `SimError`'s display form).
    pub cause: String,
}

/// Watchdog trips retained in [`CouplerStats::trips`] (oldest dropped
/// first); [`CouplerStats::watchdog_trips`] still counts them all.
pub const TRIP_HISTORY: usize = 8;

/// Base resync threshold, in cycles of mean latency (see
/// [`ReciprocalNetwork::drift_threshold`]).
const DRIFT_THRESHOLD_CYCLES: f64 = 2.0;

/// Relative component of the resync threshold: drift under this fraction
/// of the predicted mean latency never forces a resync (see
/// [`ReciprocalNetwork::drift_threshold`]).
const REL_DRIFT_FRAC: f64 = 0.10;

/// Statistics of the reciprocal exchange itself.
#[derive(Debug, Clone, Default)]
pub struct CouplerStats {
    /// Calibration updates performed.
    pub calibrations: u64,
    /// Messages measured by the detailed model.
    pub measured: u64,
    /// Per-quantum |model prediction − detailed measurement| of mean
    /// latency, in cycles (how far the model drifts between updates).
    pub drift: Summary,
    /// Wall-clock time the full system's thread spent on the detailed
    /// cycle-level NoC — the component a coprocessor offloads (experiment
    /// T2's decomposition). On the overlapped schedule (`workers >= 2`)
    /// this is the wait at each boundary: taking the NoC back from the
    /// replay thread and finishing the window on the parallel engine.
    pub detailed_wall: Duration,
    /// Wall-clock time the replay thread spent stepping the detailed NoC
    /// while the full system ran the same window (overlapped schedule; 0
    /// elsewhere). It overlaps the full system's time, so it is not one of
    /// T2's three spans, which still sum to the run's wall-clock.
    pub overlap_busy: Duration,
    /// Wall-clock time spent measuring the window and re-fitting the
    /// calibrated model at quantum boundaries (the exchange overhead in
    /// T2's decomposition).
    pub calibrate_wall: Duration,
    /// Cycles the detailed NoC simulated.
    pub detailed_cycles: u64,
    /// Quanta served by the calibrated model alone because the detailed
    /// model was tripped, backing off, or abandoned. Non-zero marks a
    /// degraded run.
    pub quanta_degraded: u64,
    /// Messages that finished on the calibrated model alone: in flight in
    /// the detailed NoC when it was torn down, or injected while degraded.
    pub messages_rerouted: u64,
    /// Times the watchdog tore down the detailed model.
    pub watchdog_trips: u64,
    /// Degraded quanta the model has served since its last successful
    /// calibration — how stale the answers the full system is getting are.
    pub calibration_age: u64,
    /// True once the detailed model was abandoned for the rest of the run.
    pub detailed_abandoned: bool,
    /// Bounded history of watchdog trips, most recent last (at most
    /// [`TRIP_HISTORY`] entries — earlier trips age out of the list but
    /// stay counted in [`watchdog_trips`](CouplerStats::watchdog_trips)).
    pub trips: Vec<TripRecord>,
    /// Speculative quanta verified against the post-replay re-fit and
    /// kept (pipelined mode; 0 on serial schedules).
    pub spec_commits: u64,
    /// Speculative quanta that diverged from the re-fit and were rolled
    /// back to the checkpoint for serial re-execution.
    pub spec_rollbacks: u64,
    /// Simulated cycles executed speculatively and then discarded by
    /// rollbacks (the wasted work the rollback rate buys).
    pub spec_wasted_cycles: u64,
    /// Calibrations whose drift crossed [`ReciprocalNetwork::drift_threshold`]
    /// and resynced the serving model to the measurement chain. In a
    /// fault-free pipelined run every rollback is such a resync.
    pub model_resyncs: u64,
    /// Final statistics of the detailed cycle-level NoC, captured by the
    /// driver when a run ends (`None` for couplers stepped by hand). The
    /// determinism suite compares these bit for bit across schedules.
    pub noc: Option<NocStats>,
}

impl CouplerStats {
    /// Cause of the most recent watchdog trip, if any.
    pub fn last_trip(&self) -> Option<&str> {
        self.trips.last().map(|t| t.cause.as_str())
    }

    fn record_trip(&mut self, cycle: u64, cause: String) {
        if self.trips.len() == TRIP_HISTORY {
            self.trips.remove(0);
        }
        self.trips.push(TripRecord { cycle, cause });
    }
}

/// Where the speculative pipeline currently is (see
/// [`ReciprocalNetwork::with_pipeline`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecState {
    /// No speculation in flight (serial schedule, or between windows).
    Idle,
    /// A detailed replay is running in the background while the full
    /// system executes the next quantum against the predicted calibration.
    Speculating,
    /// The background replay is being joined and verified.
    Committing,
    /// The last speculation diverged; the coupler has rewound itself and
    /// is waiting for the driver to rewind the full system and re-run.
    RollingBack,
}

/// The detailed NoC at the start of a window: the baselines the window's
/// calibration measures against, whenever and wherever it was stepped.
#[derive(Debug)]
struct WindowStart {
    /// Detailed clock (for `detailed_cycles` accounting).
    from: u64,
    /// Flits delivered (watchdog heartbeat baseline).
    flits_before: u64,
    /// Fault-dropped flits (drop-delta supervision baseline).
    drops_before: u64,
    /// Counter baseline for the window's [`Event::NocWindow`].
    snap: ChipletWindowSnapshot,
}

impl WindowStart {
    fn of(detailed: &ChipletNetwork) -> Self {
        WindowStart {
            from: detailed.next_cycle(),
            flits_before: detailed.flits_delivered(),
            drops_before: detailed.dropped_flits(),
            snap: detailed.window_snapshot(),
        }
    }
}

/// Everything the coupler remembers about an in-flight background replay,
/// captured at spawn time so the join can reproduce the serial
/// calibration bit-for-bit and rewind on divergence.
#[derive(Debug)]
struct PendingReplay {
    /// Quantum boundary the replayed window ends at.
    spawn_boundary: u64,
    /// Window index of the replayed window (pre-increment).
    window: u64,
    /// The replayed window's predicted mean latency at spawn — what a
    /// serial run would have read at its calibration, before the next
    /// window's injections move the summary.
    predicted_mean: f64,
    /// Predicted-summary totals at spawn; installed as the coupler's
    /// [`ReciprocalNetwork::predicted_mark`] when the join's calibration
    /// succeeds (a trip leaves the mark alone, exactly like serial).
    predicted_mark: (u64, f64),
    /// The replayed window's baselines.
    start: WindowStart,
    /// The whole fast path at spawn — the rollback restore point. The
    /// remaining actions of the boundary cycle's `step` never touch the
    /// network, so this equals the serial end-of-boundary-step state.
    fast_snapshot: AbstractNetwork<CalibratedModel>,
}

/// A window the replay thread trails the full system through
/// (overlapped schedule), from its start until its calibration.
#[derive(Debug)]
struct Trail {
    start: WindowStart,
    /// The detailed NoC's statistics at the window's start.
    noc: NocStats,
    /// Injections the detailed NoC was given since.
    injected: u64,
}

/// Cycles of serial stepping the replay thread runs between looks at its
/// [`Feed`]: the longest the caller waits to take the NoC back.
const TRAIL_CHUNK: u64 = 8;

/// Polls, one pause hint apart, a caught-up replay thread makes before it
/// parks (some tens of microseconds, several full-system cycles).
const TRAIL_POLLS: u32 = 4096;

/// What the full system's thread shares with the replay thread while the
/// replay trails it through a window.
#[derive(Debug, Default)]
struct Feed {
    /// Injections handed over and not yet taken, in injection order (and
    /// so in cycle order: the full system injects at the cycle it runs).
    queue: Mutex<VecDeque<(NetMessage, Cycle)>>,
    /// Every cycle before this one is finished: the full system made all
    /// of its injections (capped at the window's boundary plus one).
    frontier: AtomicU64,
    /// The caller wants the NoC back.
    stop: AtomicBool,
    /// The replay thread is parked on `wake`.
    parked: AtomicBool,
    /// While parked, the frontier that wakes the thread; `u64::MAX` while
    /// nothing is in flight or queued, which only an injection wakes.
    wake_at: AtomicU64,
    wake: Condvar,
}

impl Feed {
    fn queue(&self) -> MutexGuard<'_, VecDeque<(NetMessage, Cycle)>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Opens a window: nothing before `frontier` is left to inject.
    fn open(&self, frontier: u64) {
        self.stop.store(false, Ordering::Relaxed);
        self.frontier.store(frontier, Ordering::Relaxed);
    }

    /// Hands over `batch` and publishes `frontier`. Wakes a parked replay
    /// thread only when it can make progress, never per cycle.
    fn hand(&self, batch: &mut Vec<(NetMessage, Cycle)>, frontier: u64) {
        let handed = !batch.is_empty();
        if handed {
            self.queue().extend(batch.drain(..));
        }
        // SeqCst pairs with `park`'s `parked` store and frontier check
        // (as in `SpinBarrier`): either the thread sees the new frontier,
        // or this sees it parked and wakes it under the lock.
        self.frontier.store(frontier, Ordering::SeqCst);
        if self.parked.load(Ordering::SeqCst) {
            let wake_at = self.wake_at.load(Ordering::Relaxed);
            if frontier >= wake_at || (handed && wake_at == u64::MAX) {
                let _queue = self.queue();
                self.wake.notify_one();
            }
        }
    }

    /// Moves the injections of the cycles before `limit` into `batch`.
    /// Returns whether later ones are still queued.
    fn take_before(&self, limit: u64, batch: &mut Vec<(NetMessage, Cycle)>) -> bool {
        let mut queue = self.queue();
        while let Some(&(_, at)) = queue.front() {
            if at.0 >= limit {
                return true;
            }
            batch.extend(queue.pop_front());
        }
        false
    }

    /// Asks for the NoC back (the thread stops within one chunk).
    fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        if self.parked.load(Ordering::SeqCst) {
            let _queue = self.queue();
            self.wake.notify_one();
        }
    }

    /// Parks the replay thread until the frontier reaches `wake_at`, an
    /// injection arrives while `wake_at` is `u64::MAX`, or a stop.
    fn park(&self, wake_at: u64) {
        let mut queue = self.queue();
        self.wake_at.store(wake_at, Ordering::Relaxed);
        self.parked.store(true, Ordering::SeqCst);
        while !self.stop.load(Ordering::SeqCst)
            && self.frontier.load(Ordering::SeqCst) < wake_at
            && (wake_at != u64::MAX || queue.is_empty())
        {
            queue = self.wake.wait(queue).unwrap_or_else(PoisonError::into_inner);
        }
        self.parked.store(false, Ordering::Relaxed);
    }
}

/// Trails the full system through one window: steps the NoC serially up
/// to the frontier, a chunk at a time, each chunk's injections given to it
/// in order just before, until the caller asks for the NoC back. Returns
/// the time spent stepping.
///
/// It never fast-forwards and never steps an empty network (nothing in
/// flight, nothing queued), so every fast-forward is still decided at the
/// boundary with the whole window's injections known. The injections of
/// later cycles stay queued for the caller to give the NoC at the
/// boundary, so the thread allocates little of the window's memory.
fn trail(detailed: &mut ChipletNetwork, feed: &Feed) -> Duration {
    let mut busy = Duration::ZERO;
    let mut batch = Vec::new();
    let mut looked = None;
    let mut loaded = false;
    let mut polls = 0;
    while !feed.stop.load(Ordering::Acquire) {
        let frontier = feed.frontier.load(Ordering::Acquire);
        let next = detailed.next_cycle();
        if looked != Some((frontier, next)) {
            looked = Some((frontier, next));
            // The frontier is read before the queue, so every injection
            // of a cycle before it is there.
            let limit = frontier.min(next + TRAIL_CHUNK);
            let queued = feed.take_before(limit, &mut batch);
            for &(msg, at) in &batch {
                detailed.inject(msg, at);
            }
            batch.clear();
            loaded = queued || detailed.in_flight() > 0;
            if loaded && next < limit {
                let started = Instant::now();
                detailed.step_to(limit - 1);
                busy += started.elapsed();
                polls = 0;
            }
        } else if polls < TRAIL_POLLS {
            polls += 1;
            std::hint::spin_loop();
        } else {
            feed.park(if loaded { next + TRAIL_CHUNK } else { u64::MAX });
            looked = None;
            polls = 0;
        }
    }
    busy
}

/// One job for the background replay thread; the NoC (and, pipelined, the
/// parallel engine) moves in and out per window.
enum ReplayJob {
    /// Replay a whole window (speculative pipeline).
    Window {
        detailed: ChipletNetwork,
        engine: Option<ParallelEngine>,
        target: u64,
        sample_every: u32,
    },
    /// Trail the full system through the current window (overlapped
    /// schedule) until the [`Feed`] asks for the NoC back.
    Trail(ChipletNetwork),
}

/// The worker's reply: the NoC (and engine) handed back, the run verdict,
/// and the wall clock the replay cost.
struct ReplayDone {
    detailed: ChipletNetwork,
    engine: Option<ParallelEngine>,
    result: Result<(), SimError>,
    elapsed: Duration,
}

/// The persistent background replay thread: one job in flight at a time.
#[derive(Debug)]
struct ReplayWorker {
    job_tx: mpsc::Sender<ReplayJob>,
    done_rx: mpsc::Receiver<ReplayDone>,
    feed: Arc<Feed>,
    handle: Option<thread::JoinHandle<()>>,
}

fn replay_worker(jobs: &mpsc::Receiver<ReplayJob>, done: &mpsc::Sender<ReplayDone>, feed: &Feed) {
    while let Ok(job) = jobs.recv() {
        let started = Instant::now();
        let reply = match job {
            ReplayJob::Window {
                mut detailed,
                mut engine,
                target,
                sample_every,
            } => {
                let result = run_window(&mut detailed, engine.as_mut(), target, sample_every);
                ReplayDone {
                    detailed,
                    engine,
                    result,
                    elapsed: started.elapsed(),
                }
            }
            ReplayJob::Trail(mut detailed) => {
                // A router panic surfaces at the boundary as a fault, the
                // watchdog's trip path, as an engine worker's panic does.
                let (result, elapsed) =
                    match catch_unwind(AssertUnwindSafe(|| trail(&mut detailed, feed))) {
                        Ok(busy) => (Ok(()), busy),
                        Err(payload) => (
                            Err(SimError::Fault {
                                component: "replay-worker".into(),
                                detail: panic_message(payload.as_ref()),
                            }),
                            started.elapsed(),
                        ),
                    };
                ReplayDone {
                    detailed,
                    engine: None,
                    result,
                    elapsed,
                }
            }
        };
        if done.send(reply).is_err() {
            return;
        }
    }
}

/// Steps the detailed NoC through one quantum (and, in sampled mode,
/// drains it), on whichever engine is configured. Shared verbatim by the
/// serial calibration path and the background replay worker so both
/// schedules run the identical window.
fn run_window(
    detailed: &mut ChipletNetwork,
    engine: Option<&mut ParallelEngine>,
    target: u64,
    sample_every: u32,
) -> Result<(), SimError> {
    match engine {
        // Only a single die has an engine, and its one batch is the whole
        // window: the engine steps its routers data-parallel, chunking the
        // window into multi-cycle jobs and fast-forwarding drained idle
        // stretches.
        Some(engine) => detailed.advance_to(target, &mut |island, end| {
            if island.next_cycle() <= end {
                let cycles = end + 1 - island.next_cycle();
                engine.run_cycles(island, cycles)?;
            }
            Ok(())
        })?,
        None => detailed.tick(Cycle(target)),
    }
    if sample_every > 1 {
        // Sampled mode: drain the window's traffic so its measurements
        // are complete and the detailed clock can skip the next gap.
        detailed.run_until_drained(1_000_000)?;
    }
    Ok(())
}

/// Injections waiting for the detailed NoC, in cycle order.
type Backlog = VecDeque<(NetMessage, Cycle)>;

/// [`run_window`] for a window whose later injections are still held in
/// `backlog`: gives them to the NoC at most one engine batch ahead of the
/// cycles it steps, and steps without fast-forwarding while any are held
/// back (the alternating schedule has them in flight), so the NoC never
/// queues the window's whole backlog.
fn finish_window(
    detailed: &mut ChipletNetwork,
    mut engine: Option<&mut ParallelEngine>,
    mut backlog: Backlog,
    target: u64,
    sample_every: u32,
) -> Result<(), SimError> {
    if let Some(engine) = engine.as_deref_mut() {
        while detailed.next_cycle() <= target {
            let end = (detailed.next_cycle() + MAX_BATCH_CYCLES).min(target + 1);
            while let Some(&(msg, at)) = backlog.front() {
                if at.0 >= end {
                    break;
                }
                detailed.inject(msg, at);
                backlog.pop_front();
            }
            if backlog.is_empty() {
                break;
            }
            detailed.advance_to(end - 1, &mut |island, last| {
                engine.step_cycles(island, last + 1 - island.next_cycle())
            })?;
        }
    }
    for (msg, at) in backlog {
        detailed.inject(msg, at);
    }
    run_window(detailed, engine, target, sample_every)
}

/// The hop metric of the abstract models over `cfg`'s detailed topology.
pub(crate) fn hop_metric(cfg: &NocConfig) -> HopMetric {
    let shape = cfg.shape;
    match (&cfg.chiplet, cfg.topology) {
        (Some(spec), _) => HopMetric::Chiplet {
            islands: spec.islands,
            island: shape,
        },
        (None, TopologyKind::Mesh) => HopMetric::Mesh(shape),
        (None, TopologyKind::CMesh { concentration }) => HopMetric::CMesh {
            shape,
            concentration,
        },
    }
}

/// Reciprocal-abstraction network: the paper's contribution.
///
/// From the full system's point of view this is just a [`Network`] — but
/// internally **two** models run:
///
/// * the **fast path**: an [`AbstractNetwork`] around a [`CalibratedModel`]
///   answers every latency question, so the full system never waits on
///   flit-level simulation;
/// * the **detailed path**: every injected message is also fed to the
///   cycle-level [`ChipletNetwork`] (one die, or islands behind an
///   interposer), which is advanced in *quanta* (optionally on the
///   data-parallel [`ParallelEngine`], the paper's GPU coprocessor).
///
/// At each quantum boundary the detailed model's measured per-(class, hops)
/// latencies re-fit the calibrated model — the detailed component hands an
/// *abstraction of itself* back to the full system, while the full system
/// hands the detailed component an abstraction of the cores (their real
/// message stream). That mutual exchange is the "reciprocal" in reciprocal
/// abstraction: neither side is evaluated in a vacuum.
///
/// # Example
///
/// ```
/// use ra_cosim::ReciprocalNetwork;
/// use ra_noc::NocConfig;
/// use ra_sim::{Cycle, MessageClass, NetMessage, Network, NodeId};
///
/// let mut net = ReciprocalNetwork::new(NocConfig::new(4, 4), 500, 0)?;
/// net.inject(
///     NetMessage::new(0, NodeId(0), NodeId(15), MessageClass::Request, 8),
///     Cycle(0),
/// );
/// net.tick(Cycle(1_000)); // crosses a quantum boundary -> calibration
/// assert_eq!(net.stats().calibrations, 2);
/// assert_eq!(net.drain_delivered(Cycle(1_000)).len(), 1);
/// # Ok::<(), ra_sim::ConfigError>(())
/// ```
#[derive(Debug)]
pub struct ReciprocalNetwork {
    fast: AbstractNetwork<CalibratedModel>,
    /// The continuously re-fitted calibration chain. Every sampled window's
    /// measurements fold in here, but the *serving* model inside `fast`
    /// only resyncs to it when a window's drift exceeds
    /// [`Self::drift_threshold`] — the prediction-packetizing protocol that
    /// lets a speculative window run on the current serving model and
    /// commit whenever the serial schedule would have kept serving it too.
    fit: CalibratedModel,
    /// The cycle-level NoC (one die, or a chiplet system of islands).
    /// `None` exactly while the background replay thread has it: a
    /// pipelined window's replay, or an overlapped window's trail.
    detailed: Option<ChipletNetwork>,
    /// The NoC configuration, kept for watchdog rebuilds even while the
    /// NoC itself is away on the replay worker.
    cfg: NocConfig,
    engine: Option<ParallelEngine>,
    quantum: u64,
    /// Simulate every `sample_every`-th window in detail (1 = all).
    sample_every: u32,
    window_idx: u64,
    next_calibration: u64,
    inject_times: HashMap<u64, u64>,
    measured: LatencyTable,
    stats: CouplerStats,
    policy: FallbackPolicy,
    /// Consecutive watchdog trips without a successful calibration between.
    consecutive_trips: u32,
    /// Quanta left before the detailed model is retried after a trip.
    backoff_remaining: u64,
    /// Consecutive quanta with traffic in flight but zero flits delivered
    /// (the watchdog's progress heartbeat).
    stalled_quanta: u32,
    /// The detailed model is out of service for the rest of the run.
    abandoned: bool,
    /// Observability sink; disabled by default. Shared (cloned) with the
    /// detailed NoC and the parallel engine so one recorder sees the whole
    /// stack's events.
    sink: ObsSink,
    /// Degradation state last reported on the sink, for edge-triggered
    /// [`Event::Degradation`] emission.
    last_state: DegradationState,
    /// Speculative pipelining requested (see
    /// [`ReciprocalNetwork::with_pipeline`]); effective only when
    /// `sample_every == 1`.
    pipeline: bool,
    /// The in-flight background replay, if any.
    pending: Option<PendingReplay>,
    /// Injections made during a speculative window, buffered for the
    /// detailed NoC (flushed on commit, discarded on rollback — the
    /// serial re-run re-injects them live).
    spec_buffer: Vec<(NetMessage, Cycle)>,
    /// Every fast-path model consultation made during the speculative
    /// window, re-checked against the re-fit model at the join.
    query_log: Vec<ModelQuery>,
    /// `(count, sum)` of the fast path's predicted-latency summary at the
    /// last calibration boundary, so each window's drift compares against
    /// what the model predicted *for that window* rather than the
    /// run-cumulative mean (which a congestion trend would dominate).
    predicted_mark: (u64, f64),
    /// Set when a join decided a rollback: the boundary whose end-of-step
    /// checkpoint the driver must restore (see
    /// [`ReciprocalNetwork::take_rollback`]).
    rollback: Option<u64>,
    /// The persistent replay thread, spawned lazily at first speculation
    /// or first overlapped window.
    worker: Option<ReplayWorker>,
    /// Current pipeline state, for observability.
    spec_state: SpecState,
    /// Overlapped schedule: every window is handed to the replay thread,
    /// which trails the full system through it (see [`Self::tick`]).
    trails: bool,
    /// The current window, if it started on the replay thread.
    trail: Option<Trail>,
    /// Injections not yet handed to the trailing replay thread.
    handoff: Vec<(NetMessage, Cycle)>,
}

impl ReciprocalNetwork {
    /// Builds a coupler over a detailed NoC with the given calibration
    /// `quantum` (cycles). On a single die, `workers >= 2` runs the
    /// detailed model on a parallel engine with that many threads; any
    /// other `workers`, and every chiplet target, runs it serially on the
    /// host thread.
    ///
    /// # Errors
    ///
    /// Propagates the NoC configuration validation error.
    pub fn new(cfg: NocConfig, quantum: u64, workers: usize) -> Result<Self, ra_sim::ConfigError> {
        let detailed = ChipletNetwork::new(cfg.clone())?;
        let metric = hop_metric(&cfg);
        let diameter = detailed.diameter();
        let mut model = CalibratedModel::new(diameter, 0.5);
        if let Some(split) = detailed.cross_split() {
            // Chiplet: on-die and cross-die latencies live in disjoint
            // hop bands and obey different physics; fit them separately.
            model = model.with_cross_split(split);
        }
        let fit = model.clone();
        let fast = AbstractNetwork::new(model, metric, cfg.flit_bytes);
        // One worker is the serial tick with a thread scope per batch, and
        // an island handed to the engine one interposer horizon at a time
        // ran 4x slower than the serial tick: both step serially.
        let engine = (workers >= 2 && cfg.chiplet.is_none()).then(|| ParallelEngine::new(workers));
        Ok(ReciprocalNetwork {
            fast,
            fit,
            detailed: Some(detailed),
            cfg,
            engine,
            quantum: quantum.max(1),
            sample_every: 1,
            window_idx: 0,
            next_calibration: quantum.max(1),
            inject_times: HashMap::new(),
            measured: LatencyTable::new(diameter),
            stats: CouplerStats::default(),
            policy: FallbackPolicy::default(),
            consecutive_trips: 0,
            backoff_remaining: 0,
            stalled_quanta: 0,
            abandoned: false,
            sink: ObsSink::disabled(),
            last_state: DegradationState::Healthy,
            pipeline: false,
            pending: None,
            spec_buffer: Vec::new(),
            query_log: Vec::new(),
            predicted_mark: (0, 0.0),
            rollback: None,
            worker: None,
            spec_state: SpecState::Idle,
            trails: false,
            trail: None,
            handoff: Vec::new(),
        }
        .with_overlap_rule())
    }

    /// Decides the schedule: with a parallel engine (a single die and two
    /// or more workers), every detailed window of at least
    /// [`MAX_BATCH_CYCLES`] cycles is trailed by the replay thread while
    /// the full system runs it. Serial, sampled and pipelined couplers keep
    /// the alternating schedule. Chiplet systems have no engine: an
    /// island's second legs are queued as their gateway deliveries settle,
    /// and those would interleave with the full system's injections in a
    /// different order than the serial schedule releases them.
    fn with_overlap_rule(mut self) -> Self {
        self.trails = self.engine.is_some()
            && !self.pipeline
            && self.sample_every == 1
            && self.quantum >= MAX_BATCH_CYCLES;
        self
    }

    /// Attaches an observability sink, sharing it with the detailed NoC
    /// (window events) and the parallel engine (batch events). Coupler
    /// events — quantum reports, watchdog trips, degradation transitions,
    /// profiling spans — go to the same sink, so one recorder sees the
    /// whole stack in order.
    #[must_use]
    pub fn with_sink(mut self, sink: ObsSink) -> Self {
        self.det_mut().set_sink(sink.clone());
        if let Some(engine) = self.engine.as_mut() {
            engine.set_sink(sink.clone());
        }
        self.sink = sink;
        self
    }

    /// Enables *sampled* co-simulation: only every `sample_every`-th
    /// quantum is simulated in detail (1 = every quantum, the default).
    ///
    /// This is the "re-tuned periodically at longer time intervals" speed
    /// knob: skipped windows cost nothing on the detailed path (their
    /// message stream is not replayed and the detailed clock fast-forwards),
    /// at the price of calibrating from a sample of the traffic. Each
    /// sampled window is drained to completion so its measurements are
    /// whole; experiment X3 quantifies the accuracy/speed trade.
    #[must_use]
    pub fn with_sampling(mut self, sample_every: u32) -> Self {
        self.sample_every = sample_every.max(1);
        self.with_overlap_rule()
    }

    /// Overrides the default [`FallbackPolicy`] governing degradation.
    #[must_use]
    pub fn with_fallback_policy(mut self, policy: FallbackPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Runs the coupler as a *serving tier*: the detailed model is
    /// abandoned before the first quantum, so every answer comes from the
    /// calibrated model's fit — the same stance a run reaches after the
    /// fallback policy trips `permanent_after` times, but entered
    /// deliberately. An overloaded job service uses this as its
    /// `fidelity=calibrated` degradation rung: the run costs roughly an
    /// abstract-model run, stays deterministic for a given spec, and the
    /// stats honestly report `detailed_abandoned` from cycle zero.
    #[must_use]
    pub fn serving_only(mut self) -> Self {
        self.abandoned = true;
        self.stats.detailed_abandoned = true;
        self
    }

    /// Enables speculative quantum pipelining: at each quantum boundary
    /// the detailed window is replayed on a background thread while the
    /// full system runs the *next* quantum against the current (predicted)
    /// calibration. The join verifies every model answer the speculative
    /// window saw against the post-replay re-fit; on any divergence the
    /// coupler rewinds itself and reports a rollback via
    /// [`ReciprocalNetwork::take_rollback`].
    ///
    /// The caller must be rollback-capable: it must checkpoint the rest of
    /// the simulation at every boundary and rewind it when
    /// `take_rollback` fires (the `RunSpec` driver does). Ineffective in
    /// sampled mode (`sample_every > 1`), where the serial schedule is
    /// kept.
    #[must_use]
    pub fn with_pipeline(mut self, pipeline: bool) -> Self {
        self.pipeline = pipeline;
        self.with_overlap_rule()
    }

    /// The calibration quantum in cycles.
    pub fn quantum(&self) -> u64 {
        self.quantum
    }

    /// Exchange statistics.
    pub fn stats(&self) -> &CouplerStats {
        &self.stats
    }

    /// The calibrated model currently answering the full system.
    ///
    /// This is the *serving* model: it lags the measurement chain (see
    /// [`Self::fit_model`]) until a window's drift crosses
    /// [`Self::drift_threshold`] and forces a resync.
    pub fn model(&self) -> &CalibratedModel {
        self.fast.model()
    }

    /// The continuously re-fitted calibration chain — every sampled
    /// window's detailed measurements are folded in here regardless of
    /// whether the serving model has resynced to them yet.
    pub fn fit_model(&self) -> &CalibratedModel {
        &self.fit
    }

    /// The base drift (in cycles of mean latency) past which a calibration
    /// resyncs the serving model to the measurement chain. In a pipelined
    /// run this same threshold is the speculation-abort signal — a window
    /// whose drift stays inside it commits, one that crosses it rolls back.
    ///
    /// The effective threshold scales with latency magnitude: a window
    /// resyncs when drift exceeds `max(base, 10% of predicted mean)`, so a
    /// 2-cycle gap aborts speculation on a lightly loaded 20-cycle network
    /// but not on a congested 70-cycle one where it is measurement noise.
    pub fn drift_threshold(&self) -> f64 {
        DRIFT_THRESHOLD_CYCLES
    }

    /// Whether a calibration with the given window drift resyncs the
    /// serving model (serial) / aborts the speculation (pipelined). The
    /// very first fit always installs — an uncalibrated prior has nothing
    /// to be faithful to.
    fn should_resync(&self, drift: f64, predicted: f64) -> bool {
        self.fast.model().updates() == 0
            || drift > self.drift_threshold().max(REL_DRIFT_FRAC * predicted.abs())
    }

    /// The mean latency the serving model predicted for the window that
    /// just ended (queries since [`Self::predicted_mark`]; run-cumulative
    /// mean when the window made none), plus the summary totals the mark
    /// must advance to once this window's calibration succeeds.
    fn window_predicted(&self) -> (f64, (u64, f64)) {
        let s = self.fast.predicted_latency();
        let count = s.count();
        let sum = s.mean() * count as f64;
        let (c0, s0) = self.predicted_mark;
        let mean = if count > c0 {
            (sum - s0) / (count - c0) as f64
        } else {
            s.mean()
        };
        (mean, (count, sum))
    }

    /// The live detailed cycle-level network.
    ///
    /// On the overlapped schedule a run that ended mid-window has had part
    /// of that window stepped, which the serial schedule never steps: the
    /// network may be ahead of [`CouplerStats::noc`], which holds what the
    /// serial schedule's network reports.
    ///
    /// # Panics
    ///
    /// Panics if called while the background replay thread holds the NoC
    /// — between quantum boundaries of a pipelined or overlapped run,
    /// before [`ReciprocalNetwork::finalize`].
    pub fn detailed(&self) -> &ChipletNetwork {
        self.det()
    }

    fn det(&self) -> &ChipletNetwork {
        self.detailed
            .as_ref()
            .expect("detailed NoC is away on the replay worker")
    }

    fn det_mut(&mut self) -> &mut ChipletNetwork {
        self.detailed
            .as_mut()
            .expect("detailed NoC is away on the replay worker")
    }

    /// True when this coupler runs the speculative pipelined schedule.
    pub fn pipelined(&self) -> bool {
        self.pipeline && self.sample_every == 1
    }

    /// Where the speculative pipeline currently is.
    pub fn spec_state(&self) -> SpecState {
        self.spec_state
    }

    /// The cycle the next calibration fires at — the boundary a
    /// rollback-capable driver should pause and checkpoint after.
    pub fn next_boundary(&self) -> u64 {
        self.next_calibration
    }

    /// If the last quantum boundary decided a rollback, returns the
    /// boundary whose end-of-step checkpoint the driver must restore
    /// (clearing the flag). The coupler has already rewound its own fast
    /// path, installed the corrected re-fit, and reset
    /// [`next_boundary`](Self::next_boundary); the driver restores the
    /// full system and re-runs the window, injecting live into the
    /// detailed NoC.
    /// True if the last quantum boundary decided a rollback that has not
    /// been taken yet (see [`take_rollback`](Self::take_rollback)).
    pub fn has_rollback(&self) -> bool {
        self.rollback.is_some()
    }

    pub fn take_rollback(&mut self) -> Option<u64> {
        let taken = self.rollback.take();
        if taken.is_some() {
            debug_assert_eq!(self.spec_state, SpecState::RollingBack);
            self.spec_state = SpecState::Idle;
        }
        taken
    }

    /// Ends a run at cycle `now`: joins any outstanding background replay
    /// and decides the speculative window in progress, takes the NoC back
    /// from a trailing replay thread, and records the detailed NoC's
    /// statistics in [`CouplerStats::noc`]. Returns `true` if the
    /// speculation committed (or there was none) — the coupler's
    /// statistics are final and the run result is trustworthy — or
    /// `false` if it rolled back, in which case the driver must restore
    /// its checkpoint (see [`Self::take_rollback`]) and re-run.
    pub fn finalize(&mut self, now: u64) -> bool {
        if self.pending.is_some() && !self.join_and_decide(now) {
            return false;
        }
        if self.detailed.is_none() && self.trail.is_some() {
            // Whatever the trailed part of the window did, the serial
            // schedule never stepped it: the reported statistics below
            // leave it out, and a fault in it never reaches a boundary.
            if let Ok(backlog) = self.reclaim() {
                for (msg, at) in backlog {
                    self.det_mut().inject(msg, at);
                }
            }
        }
        self.stats.noc = Some(match &self.trail {
            // The serial schedule's network: as it stood at the window's
            // boundary, plus the injections it was given since.
            Some(trail) => {
                let mut noc = trail.noc.clone();
                noc.injected += trail.injected;
                noc
            }
            None => self.det().stats(),
        });
        true
    }

    /// True while the detailed model is out of service (tripped and backing
    /// off, or permanently abandoned) and the calibrated model is answering
    /// the full system alone.
    pub fn degraded(&self) -> bool {
        self.abandoned || self.backoff_remaining > 0
    }

    /// True if the current window is simulated in detail.
    fn window_sampled(&self) -> bool {
        self.window_idx.is_multiple_of(u64::from(self.sample_every))
    }

    /// Advances the detailed model to `target` and performs a calibration.
    ///
    /// This is the supervised section: any error — a worker fault, a
    /// violated router invariant, a failed conservation audit, or a
    /// heartbeat showing the quantum made no progress — aborts the
    /// calibration and is handed to [`trip`](Self::trip) by the caller.
    fn calibrate(&mut self, target: u64) -> Result<(), SimError> {
        let started = Instant::now();
        let trail = self.trail.take();
        let trailed = if self.detailed.is_none() {
            self.reclaim()
        } else {
            Ok(Backlog::new())
        };
        let mut detailed = self
            .detailed
            .take()
            .expect("detailed NoC is away on the replay worker");
        let start = trail.map_or_else(|| WindowStart::of(&detailed), |t| t.start);
        let result = self.calibrate_with(&mut detailed, &start, target, started, trailed);
        self.detailed = Some(detailed);
        result
    }

    /// Finishes the window that began at `start` (from wherever the replay
    /// thread left it, `trailed` being its verdict and the injections it
    /// had not taken) and calibrates. `started` is when the caller began
    /// waiting on the detailed model.
    fn calibrate_with(
        &mut self,
        detailed: &mut ChipletNetwork,
        start: &WindowStart,
        target: u64,
        started: Instant,
        trailed: Result<Backlog, SimError>,
    ) -> Result<(), SimError> {
        // Run the detailed NoC through the window.
        let run = trailed.and_then(|backlog| {
            finish_window(detailed, self.engine.as_mut(), backlog, target, self.sample_every)
        });
        let detailed_elapsed = started.elapsed();
        self.stats.detailed_wall += detailed_elapsed;
        self.stats.detailed_cycles += detailed.next_cycle().saturating_sub(start.from);
        // Even a window that trips spent this wall-clock on the detailed
        // path; account it before propagating the error.
        self.sink.emit(|| Event::Span {
            kind: SpanKind::DetailedStep,
            nanos: detailed_elapsed.as_nanos() as u64,
        });
        run?;
        detailed.emit_window(&start.snap);
        self.supervise(detailed, start.flits_before, start.drops_before)?;
        // Measure what it delivered.
        let cal_started = Instant::now();
        let target = detailed.next_cycle().max(target);
        let mut window_mean = Summary::new();
        for d in detailed.drain_delivered(Cycle(target)) {
            let Some(injected) = self.inject_times.remove(&d.msg.id) else {
                continue;
            };
            let latency = (d.at.0 - injected) as f64;
            let hops = detailed.hops(d.msg.src, d.msg.dst);
            self.measured.record(d.msg.class, hops, latency);
            window_mean.record(latency);
            self.stats.measured += 1;
        }
        let (predicted, mark) = self.window_predicted();
        self.predicted_mark = mark;
        let mut drift = 0.0;
        if window_mean.count() > 0 {
            drift = (window_mean.mean() - predicted).abs();
            self.stats.drift.record(drift);
            // Reciprocal exchange: the detailed measurements always fold
            // into the calibration chain, but the full system only sees
            // the new fit when its predictions drifted past the threshold
            // — a stable model keeps serving unchanged (and, pipelined,
            // lets the next window speculate on it and commit).
            self.fit.update(&self.measured);
            self.measured.clear();
            if self.should_resync(drift, predicted) {
                *self.fast.model_mut() = self.fit.clone();
                self.stats.model_resyncs += 1;
            }
        }
        self.stats.calibrations += 1;
        self.consecutive_trips = 0;
        self.stats.calibration_age = 0;
        let cal_elapsed = cal_started.elapsed();
        self.stats.calibrate_wall += cal_elapsed;
        self.sink.emit(|| Event::Span {
            kind: SpanKind::Calibrate,
            nanos: cal_elapsed.as_nanos() as u64,
        });
        self.sink.emit(|| Event::QuantumReport {
            window: self.window_idx,
            boundary: target,
            predicted,
            measured: window_mean.mean(),
            drift,
            samples: window_mean.count(),
            quantum_before: self.quantum,
            quantum_after: self.quantum,
        });
        Ok(())
    }

    /// Watchdog supervision of a window the detailed NoC just ran, shared
    /// by the serial calibration and the pipelined join: a violated router
    /// invariant, a failed conservation audit, flits lost to link faults,
    /// or a heartbeat showing the quantum made no progress — a deadlock
    /// (total inactivity with traffic pending) or a fault black-holing
    /// messages (two full quanta with traffic in flight but not one flit
    /// delivered; one quantum alone could be a legitimate tail injection
    /// still crossing the network).
    fn supervise(
        &mut self,
        detailed: &ChipletNetwork,
        flits_before: u64,
        drops_before: u64,
    ) -> Result<(), SimError> {
        let quantum = self.quantum;
        detailed.check_invariant()?;
        detailed.audit()?;
        // Flits lost to link faults mean packets that can never be
        // delivered: the detailed model's measurements are no longer
        // trustworthy and its in-flight count will never drain. (Detoured
        // traffic does not drop flits and does not trip this.)
        let drop_delta = detailed.dropped_flits() - drops_before;
        if drop_delta > 0 {
            return Err(SimError::Fault {
                component: "detailed-noc".into(),
                detail: format!("{drop_delta} flits lost to link faults in the quantum"),
            });
        }
        let flit_delta = detailed.flits_delivered() - flits_before;
        if detailed.in_flight() > 0 && flit_delta == 0 {
            self.stalled_quanta += 1;
        } else {
            self.stalled_quanta = 0;
        }
        let deadlocked = detailed.in_flight() > 0 && detailed.idle_cycles() >= quantum;
        if self.stalled_quanta >= 2 || deadlocked {
            self.stalled_quanta = 0;
            return Err(SimError::Timeout {
                budget: quantum,
                waiting_for: format!(
                    "{} in-flight messages made no progress for a full quantum",
                    detailed.in_flight()
                ),
            });
        }
        Ok(())
    }

    /// Tears down the tripped detailed model and degrades to the
    /// calibrated model, per the [`FallbackPolicy`].
    ///
    /// The fast path has been authoritative for delivery all along, so the
    /// detailed NoC's in-flight messages are simply dropped from detailed
    /// tracking (counted as rerouted) — nothing the full system sees is
    /// lost. A fresh detailed network replaces the corrupt one; it rejoins the
    /// clock at the next healthy quantum boundary via `skip_to`.
    fn trip(&mut self, boundary: u64, err: &SimError) {
        debug_assert!(self.trail.is_none(), "a trip with the NoC still trailing");
        self.stats.watchdog_trips += 1;
        self.stats.record_trip(boundary, err.to_string());
        self.sink.emit(|| Event::WatchdogTrip {
            cycle: boundary,
            cause: err.to_string(),
        });
        self.stats.quanta_degraded += 1;
        self.stats.calibration_age += 1;
        self.stats.messages_rerouted += self.detailed.as_ref().map_or(0, |d| d.in_flight() as u64);
        self.consecutive_trips += 1;
        self.inject_times.clear();
        self.measured.clear();
        match ChipletNetwork::new(self.cfg.clone()) {
            Ok(mut fresh) => {
                fresh.set_sink(self.sink.clone());
                self.detailed = Some(fresh);
            }
            // The config validated once already; if a rebuild somehow
            // fails, give up on the detailed path entirely.
            Err(_) => self.abandoned = true,
        }
        if self.consecutive_trips > self.policy.max_retries
            || self.stats.watchdog_trips >= u64::from(self.policy.permanent_after)
        {
            self.abandoned = true;
        }
        self.stats.detailed_abandoned = self.abandoned;
        if !self.abandoned {
            self.backoff_remaining =
                u64::from(self.policy.backoff_quanta) * u64::from(self.consecutive_trips);
        }
    }

    /// Ships the window ending at `boundary` to the background replay
    /// thread and opens a speculative window on the current (predicted)
    /// calibration. Returns `false` if no worker is available — the caller
    /// then falls back to the serial schedule.
    fn spawn_replay(&mut self, boundary: u64) -> bool {
        if !self.ensure_worker() {
            return false;
        }
        let Some(detailed) = self.detailed.take() else {
            return false;
        };
        let (predicted_mean, predicted_mark) = self.window_predicted();
        let pending = PendingReplay {
            spawn_boundary: boundary,
            window: self.window_idx,
            predicted_mean,
            predicted_mark,
            start: WindowStart::of(&detailed),
            fast_snapshot: self.fast.clone(),
        };
        let job = ReplayJob::Window {
            detailed,
            engine: self.engine.take(),
            target: boundary,
            sample_every: self.sample_every,
        };
        match self.send_job(job) {
            None => {
                self.pending = Some(pending);
                self.spec_state = SpecState::Speculating;
                true
            }
            Some(ReplayJob::Window {
                detailed, engine, ..
            }) => {
                // The worker thread died: recover the NoC and engine from
                // the undelivered job and go serial.
                self.detailed = Some(detailed);
                self.engine = engine;
                false
            }
            Some(ReplayJob::Trail(_)) => unreachable!("a window job comes back as sent"),
        }
    }

    /// Spawns the persistent replay thread if it is not running yet.
    /// Returns `false` if no thread could be started.
    fn ensure_worker(&mut self) -> bool {
        if self.worker.is_some() {
            return true;
        }
        let (job_tx, job_rx) = mpsc::channel();
        let (done_tx, done_rx) = mpsc::channel();
        let feed = Arc::new(Feed::default());
        let shared = Arc::clone(&feed);
        let spawned = thread::Builder::new()
            .name("ra-replay".into())
            .spawn(move || replay_worker(&job_rx, &done_tx, &shared));
        match spawned {
            Ok(handle) => {
                self.worker = Some(ReplayWorker {
                    job_tx,
                    done_rx,
                    feed,
                    handle: Some(handle),
                });
                true
            }
            Err(_) => false,
        }
    }

    /// Sends a job to the replay thread; if the thread died, reaps it and
    /// hands the undelivered job back.
    fn send_job(&mut self, job: ReplayJob) -> Option<ReplayJob> {
        let worker = self.worker.as_ref().expect("a replay thread is running");
        let mpsc::SendError(job) = worker.job_tx.send(job).err()?;
        self.reap_worker();
        Some(job)
    }

    /// Hands the NoC to the replay thread, which trails the full system
    /// through the window from here: every cycle before `frontier` is
    /// finished. Falls back to the alternating schedule for good if no
    /// thread can be had.
    fn begin_trail(&mut self, frontier: u64) {
        if !self.ensure_worker() {
            self.trails = false;
            return;
        }
        let detailed = self.detailed.take().expect("the NoC is home between windows");
        let trail = Trail {
            start: WindowStart::of(&detailed),
            noc: detailed.stats(),
            injected: 0,
        };
        self.worker
            .as_ref()
            .expect("worker ensured above")
            .feed
            .open(frontier);
        match self.send_job(ReplayJob::Trail(detailed)) {
            None => self.trail = Some(trail),
            Some(ReplayJob::Trail(detailed)) => {
                self.detailed = Some(detailed);
                self.trails = false;
            }
            Some(ReplayJob::Window { .. }) => unreachable!("a trail job comes back as sent"),
        }
    }

    /// Takes the NoC back from the trailing replay thread, which stops
    /// within one chunk. Returns the injections the thread had not taken
    /// yet, in order, or its fault.
    fn reclaim(&mut self) -> Result<Backlog, SimError> {
        let worker = self.worker.as_ref().expect("a trailed window has a worker");
        worker.feed.request_stop();
        let done = worker.done_rx.recv();
        let mut leftovers = std::mem::take(&mut *worker.feed.queue());
        leftovers.extend(self.handoff.drain(..));
        let result = match done {
            Ok(done) => {
                self.stats.overlap_busy += done.elapsed;
                self.detailed = Some(done.detailed);
                done.result
            }
            Err(_) => {
                // The thread died with the NoC on board: go on with a
                // fresh one (a trip rebuilds it again) on the alternating
                // schedule.
                self.reap_worker();
                self.trails = false;
                self.detailed = ChipletNetwork::new(self.cfg.clone()).ok().map(|mut fresh| {
                    fresh.set_sink(self.sink.clone());
                    fresh
                });
                Err(SimError::Fault {
                    component: "replay-worker".into(),
                    detail: "background replay thread died".into(),
                })
            }
        };
        if result.is_err() {
            // A faulted window rides the calibrated model alone, as the
            // messages the trip finds in flight do.
            self.stats.messages_rerouted += leftovers.len() as u64;
        }
        result.map(|()| leftovers)
    }

    /// Joins and drops the worker thread (closing its job channel first so
    /// its `recv` unblocks).
    fn reap_worker(&mut self) {
        if let Some(worker) = self.worker.take() {
            let ReplayWorker {
                job_tx,
                done_rx,
                handle,
                ..
            } = worker;
            drop(job_tx);
            drop(done_rx);
            if let Some(handle) = handle {
                let _ = handle.join();
            }
        }
    }

    /// Joins the background replay of the window ending at the pending
    /// spawn boundary, reproduces the serial calibration bit-for-bit, and
    /// verifies every model answer the speculative window (which ran up to
    /// `at`) saw against the re-fit. Returns `true` on commit — the
    /// speculation is bit-identical to the serial schedule — or `false` on
    /// rollback, with the coupler rewound and
    /// [`take_rollback`](Self::take_rollback) armed for the driver.
    fn join_and_decide(&mut self, at: u64) -> bool {
        let pending = self.pending.take().expect("join without a pending replay");
        self.spec_state = SpecState::Committing;
        let pb = pending.spawn_boundary;
        let speculated = at.saturating_sub(pb);
        let Some(done) = self.worker.as_ref().and_then(|w| w.done_rx.recv().ok()) else {
            // The worker died with the NoC on board. Treat it like any
            // other watchdog event: rebuild from config and degrade. The
            // speculation stands — a trip never changes the model, so it
            // consulted exactly what a degraded serial window would have.
            self.reap_worker();
            self.engine = None;
            let err = SimError::Fault {
                component: "replay-worker".into(),
                detail: "background replay thread died".into(),
            };
            self.trip(pb, &err);
            self.commit_as_degraded(&pending, at, speculated);
            self.pipeline = false;
            return true;
        };
        self.engine = done.engine;
        let mut detailed = done.detailed;
        self.stats.detailed_wall += done.elapsed;
        self.stats.detailed_cycles += detailed.next_cycle().saturating_sub(pending.start.from);
        self.sink.emit(|| Event::Span {
            kind: SpanKind::DetailedStep,
            nanos: done.elapsed.as_nanos() as u64,
        });
        // The serial supervision chain, on the replayed window.
        let verdict = done.result.and_then(|()| {
            detailed.emit_window(&pending.start.snap);
            self.supervise(&detailed, pending.start.flits_before, pending.start.drops_before)
        });
        if let Err(err) = verdict {
            // A trip discovered at the join. The serial schedule would
            // have tripped at this boundary *before* running the window we
            // just speculated — but a trip leaves the model untouched, so
            // the speculation consulted exactly the calibration a degraded
            // serial window would have. Commit it as a degraded window.
            self.detailed = Some(detailed);
            self.trip(pb, &err);
            self.commit_as_degraded(&pending, at, speculated);
            return true;
        }
        // Reproduce the serial measurement + re-fit at boundary `pb`.
        let cal_started = Instant::now();
        let target = detailed.next_cycle().max(pb);
        let mut window_mean = Summary::new();
        for d in detailed.drain_delivered(Cycle(target)) {
            let Some(injected) = self.inject_times.remove(&d.msg.id) else {
                continue;
            };
            let latency = (d.at.0 - injected) as f64;
            let hops = detailed.hops(d.msg.src, d.msg.dst);
            self.measured.record(d.msg.class, hops, latency);
            window_mean.record(latency);
            self.stats.measured += 1;
        }
        let predicted = pending.predicted_mean;
        self.predicted_mark = pending.predicted_mark;
        let mut drift = 0.0;
        let mut resync = false;
        if window_mean.count() > 0 {
            drift = (window_mean.mean() - predicted).abs();
            self.stats.drift.record(drift);
            // The calibration-chain update the serial schedule would have
            // made at `pb`: the chain is untouched since the spawn
            // (speculative injections only move the load summaries), so
            // this equals the serial update.
            self.fit.update(&self.measured);
            self.measured.clear();
            resync = self.should_resync(drift, predicted);
        }
        self.stats.calibrations += 1;
        self.consecutive_trips = 0;
        self.stats.calibration_age = 0;
        let cal_elapsed = cal_started.elapsed();
        self.stats.calibrate_wall += cal_elapsed;
        self.sink.emit(|| Event::Span {
            kind: SpanKind::Calibrate,
            nanos: cal_elapsed.as_nanos() as u64,
        });
        self.sink.emit(|| Event::QuantumReport {
            window: pending.window,
            boundary: target,
            predicted,
            measured: window_mean.mean(),
            drift,
            samples: window_mean.count(),
            quantum_before: self.quantum,
            quantum_after: self.quantum,
        });
        // Verification: would the serial schedule have answered every
        // query identically? When the drift stayed inside the threshold
        // the serial fast path would have kept serving the very model the
        // speculation consulted, so every answer matches by construction;
        // past the threshold the serial schedule resyncs to the re-fit,
        // and any divergent answer is a rollback.
        let check = if resync { &self.fit } else { self.fast.model() };
        let mut mismatches: u64 = 0;
        for q in &self.query_log {
            if check.latency(&q.msg, &q.ctx).max(1) != q.latency {
                mismatches += 1;
            }
        }
        if mismatches == 0 {
            // Commit: resync if the serial schedule would have, and hand
            // the detailed NoC the buffered message stream of the window
            // it will replay next.
            if resync {
                *self.fast.model_mut() = self.fit.clone();
                self.stats.model_resyncs += 1;
            }
            for (msg, t) in self.spec_buffer.drain(..) {
                if t.0 >= detailed.next_cycle() {
                    self.inject_times.insert(msg.id, t.0);
                    detailed.inject(msg, t);
                }
            }
            self.detailed = Some(detailed);
            self.query_log.clear();
            self.stats.spec_commits += 1;
            self.spec_state = SpecState::Idle;
            self.sink.emit(|| Event::SpecCommit {
                window: pending.window + 1,
                boundary: at,
                drift,
                speculated_cycles: speculated,
            });
            true
        } else {
            // Rollback: rewind the fast path to its spawn snapshot (the
            // serial end-of-boundary-step state), resync it to the
            // corrected fit, and arm `take_rollback` so the driver rewinds
            // the full system and re-runs the window serially.
            self.fast = pending.fast_snapshot;
            if resync {
                *self.fast.model_mut() = self.fit.clone();
                self.stats.model_resyncs += 1;
            }
            self.detailed = Some(detailed);
            self.spec_buffer.clear();
            self.query_log.clear();
            self.stats.spec_rollbacks += 1;
            self.stats.spec_wasted_cycles += speculated;
            self.next_calibration = pb + self.quantum;
            self.rollback = Some(pb);
            self.spec_state = SpecState::RollingBack;
            self.sink.emit(|| Event::SpecRollback {
                window: pending.window + 1,
                boundary: at,
                drift,
                wasted_cycles: speculated,
                mismatches,
            });
            false
        }
    }

    /// A speculative window whose join discovered a trip: its injections
    /// ride the calibrated model alone, exactly like serial injections
    /// made while degraded.
    fn commit_as_degraded(&mut self, pending: &PendingReplay, at: u64, speculated: u64) {
        self.stats.messages_rerouted += self.spec_buffer.len() as u64;
        self.spec_buffer.clear();
        self.query_log.clear();
        self.stats.spec_commits += 1;
        self.spec_state = SpecState::Idle;
        self.sink.emit(|| Event::SpecCommit {
            window: pending.window + 1,
            boundary: at,
            drift: 0.0,
            speculated_cycles: speculated,
        });
    }

    /// The coupler's current degradation state, for edge-triggered
    /// [`Event::Degradation`] reporting.
    fn degradation_state(&self) -> DegradationState {
        if self.abandoned {
            DegradationState::Abandoned
        } else if self.backoff_remaining > 0 {
            DegradationState::Degraded
        } else {
            DegradationState::Healthy
        }
    }

    /// Emits a [`Event::Degradation`] transition if the state changed since
    /// the last boundary.
    fn report_degradation(&mut self, boundary: u64) {
        let state = self.degradation_state();
        if state != self.last_state {
            let from = self.last_state;
            self.last_state = state;
            self.sink.emit(|| Event::Degradation {
                cycle: boundary,
                from,
                to: state,
            });
        }
    }
}

impl Network for ReciprocalNetwork {
    fn inject(&mut self, msg: NetMessage, now: Cycle) {
        if self.pending.is_some() {
            // Speculative window: the fast path answers as usual, but the
            // model's verdict is logged for the join's verification and
            // the injection is buffered for the detailed NoC (flushed on
            // commit, discarded on rollback — the re-run re-injects live).
            let query = self.fast.inject_recorded(msg, now);
            self.query_log.push(query);
            self.spec_buffer.push((msg, now));
            return;
        }
        self.fast.inject(msg, now);
        if self.degraded() {
            // The detailed path is out of service: the message rides the
            // calibrated model alone.
            self.stats.messages_rerouted += 1;
            return;
        }
        if let Some(trail) = &mut self.trail {
            // Overlapped window: the replay thread gets the message at the
            // end of this cycle (see `tick`).
            if now.0 >= trail.start.from {
                trail.injected += 1;
                self.inject_times.insert(msg.id, now.0);
                match self.detailed.as_mut() {
                    Some(detailed) => detailed.inject(msg, now),
                    None => self.handoff.push((msg, now)),
                }
            }
            return;
        }
        // In sampled mode a drained window can overrun the boundary; a
        // message landing inside that overrun would be measured with an
        // inflated latency, so it is left out of the sample instead.
        if self.window_sampled() && now.0 >= self.det().next_cycle() {
            self.inject_times.insert(msg.id, now.0);
            self.det_mut().inject(msg, now);
        }
    }

    /// Advances the fast path and, at each quantum boundary, the detailed
    /// model and the calibration.
    ///
    /// On the overlapped schedule (see [`Self::with_overlap_rule`]) the
    /// replay thread trails the full system through each window: every
    /// tick hands it the cycle's injections, in order, and lets it step up
    /// to the cycle just finished. At the boundary the NoC comes back
    /// within one chunk and the window is finished on the parallel engine.
    /// The NoC gets the same injections at the same cycles in the same
    /// order, and the replay thread never fast-forwards, so every
    /// simulated number is the alternating schedule's.
    fn tick(&mut self, now: Cycle) {
        self.fast.tick(now);
        if let (Some(worker), None, Some(_)) = (&self.worker, &self.detailed, &self.trail) {
            // Never past the boundary: the window ends there.
            let frontier = (now.0 + 1).min(self.next_calibration + 1);
            worker.feed.hand(&mut self.handoff, frontier);
        }
        while now.0 >= self.next_calibration {
            let boundary = self.next_calibration;
            if self.pipelined() {
                if self.pending.is_some() && !self.join_and_decide(boundary) {
                    // Rolled back: the coupler has rewound itself; the
                    // driver restores its checkpoint and re-runs.
                    return;
                }
                if self.degraded() {
                    self.stats.quanta_degraded += 1;
                    self.stats.calibration_age += 1;
                    self.backoff_remaining = self.backoff_remaining.saturating_sub(1);
                    self.window_idx += 1;
                    if !self.degraded() {
                        // Readmitting the detailed model next window: jump
                        // its clock over the degraded gap, exactly as the
                        // serial schedule does.
                        if let Err(err) = self.det_mut().skip_to(boundary) {
                            self.trip(boundary, &err);
                        }
                    }
                } else if self.spawn_replay(boundary) {
                    self.window_idx += 1;
                } else {
                    // No worker thread could be obtained: fall back to the
                    // serial schedule for good, reprocessing this boundary.
                    self.pipeline = false;
                    continue;
                }
                self.report_degradation(boundary);
                self.next_calibration = boundary + self.quantum;
                continue;
            }
            if self.degraded() {
                // Serve the quantum from the calibrated model alone; its
                // answers age until the detailed model is readmitted.
                self.stats.quanta_degraded += 1;
                self.stats.calibration_age += 1;
                self.backoff_remaining = self.backoff_remaining.saturating_sub(1);
            } else if self.window_sampled() {
                if let Err(err) = self.calibrate(boundary) {
                    self.trip(boundary, &err);
                }
            }
            self.window_idx += 1;
            if !self.degraded() && self.window_sampled() {
                // Entering a detailed window after skipped or degraded
                // ones: jump the detailed clock over the un-simulated gap.
                if let Err(err) = self.det_mut().skip_to(boundary) {
                    self.trip(boundary, &err);
                }
            }
            self.report_degradation(boundary);
            self.next_calibration = boundary + self.quantum;
        }
        if self.trails && self.trail.is_none() && !self.degraded() {
            self.begin_trail(now.0 + 1);
        }
    }

    fn drain_delivered(&mut self, now: Cycle) -> Vec<Delivery> {
        // The full system sees the fast path's timing.
        self.fast.drain_delivered(now)
    }

    fn in_flight(&self) -> usize {
        self.fast.in_flight()
    }
}

impl Drop for ReciprocalNetwork {
    fn drop(&mut self) {
        // Reap the replay thread. A trailing replay stops within one
        // chunk; closing the job channel unblocks its `recv`; a pipelined
        // replay still in flight finishes first (its final send lands on
        // an unbounded channel, so it can never block).
        if let Some(worker) = &self.worker {
            worker.feed.request_stop();
        }
        self.reap_worker();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ra_sim::{MessageClass, NodeId};

    fn msg(id: u64, src: u32, dst: u32) -> NetMessage {
        NetMessage::new(id, NodeId(src), NodeId(dst), MessageClass::Request, 8)
    }

    #[test]
    fn calibration_fires_every_quantum() {
        let mut net = ReciprocalNetwork::new(NocConfig::new(4, 4), 100, 0).unwrap();
        net.tick(Cycle(450));
        assert_eq!(net.stats().calibrations, 4);
        assert_eq!(net.quantum(), 100);
    }

    #[test]
    fn model_learns_from_detailed_measurements() {
        let mut net = ReciprocalNetwork::new(NocConfig::new(4, 4), 200, 0).unwrap();
        let mut id = 0;
        for now in 0..1_000u64 {
            if now % 7 == 0 {
                net.inject(msg(id, (id % 16) as u32, ((id * 5 + 3) % 16) as u32), Cycle(now));
                id += 1;
            }
            net.tick(Cycle(now));
        }
        assert!(net.stats().calibrations >= 4);
        assert!(net.stats().measured > 50);
        assert!(net.model().updates() > 0);
        // After calibration the model has real cells for observed distances.
        assert!(net
            .model()
            .cell_estimate(MessageClass::Request, 1)
            .is_some());
    }

    #[test]
    fn fast_path_delivers_everything() {
        let mut net = ReciprocalNetwork::new(NocConfig::new(4, 4), 50, 0).unwrap();
        for i in 0..20u64 {
            net.inject(msg(i, 0, 15), Cycle(i));
        }
        net.tick(Cycle(2_000));
        let out = net.drain_delivered(Cycle(2_000));
        assert_eq!(out.len(), 20);
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    fn sampling_skips_detailed_windows() {
        fn run(sample_every: u32) -> (u64, u64) {
            let mut net = ReciprocalNetwork::new(NocConfig::new(4, 4), 500, 0)
                .unwrap()
                .with_sampling(sample_every);
            let mut id = 0;
            for now in 0..10_000u64 {
                if now % 5 == 0 {
                    net.inject(msg(id, (id % 16) as u32, ((id * 3 + 1) % 16) as u32), Cycle(now));
                    id += 1;
                }
                net.tick(Cycle(now));
            }
            (net.stats().detailed_cycles, net.stats().measured)
        }
        let (full_cycles, full_measured) = run(1);
        let (quarter_cycles, quarter_measured) = run(4);
        assert!(
            quarter_cycles < full_cycles / 2,
            "sampling must cut detailed cycles ({quarter_cycles} vs {full_cycles})"
        );
        assert!(quarter_measured < full_measured);
        assert!(quarter_measured > 0, "sampled windows still measure");
    }

    #[test]
    fn sampled_coupler_still_calibrates_accurately() {
        let mut net = ReciprocalNetwork::new(NocConfig::new(4, 4), 500, 0)
            .unwrap()
            .with_sampling(3);
        let mut id = 0;
        for now in 0..15_000u64 {
            if now % 4 == 0 {
                net.inject(msg(id, (id % 16) as u32, ((id * 7 + 3) % 16) as u32), Cycle(now));
                id += 1;
            }
            net.tick(Cycle(now));
        }
        assert!(net.fit_model().updates() >= 5);
        assert!(
            (0..=6).any(|h| net.fit_model().cell_estimate(MessageClass::Request, h).is_some()),
            "calibration must populate some Request cell"
        );
        // The cold-start resync put real cells in front of the full system.
        assert!(net.stats().model_resyncs > 0);
        assert!(net.model().updates() > 0);
        // The fast path still delivers everything (grace period for the
        // tail injections).
        net.tick(Cycle(16_000));
        let out = net.drain_delivered(Cycle(16_000));
        assert_eq!(out.len(), id as usize);
    }

    #[test]
    fn degraded_run_still_delivers_everything() {
        use ra_noc::FaultPlan;
        // Router 5 is isolated from cycle 0: every message addressed to it
        // black-holes in the detailed NoC. The watchdog must trip, the
        // coupler must degrade to the calibrated model, and the full
        // system must still see every delivery.
        let cfg = NocConfig::new(4, 4).with_faults(FaultPlan::new().isolate_router(5, 0));
        let mut net = ReciprocalNetwork::new(cfg, 200, 0).unwrap();
        let mut id = 0;
        for now in 0..10_000u64 {
            if now % 9 == 0 {
                net.inject(msg(id, (id % 16) as u32, 5), Cycle(now));
                id += 1;
            }
            net.tick(Cycle(now));
        }
        net.tick(Cycle(12_000));
        let out = net.drain_delivered(Cycle(12_000));
        assert_eq!(out.len(), id as usize, "fast path must deliver everything");
        let stats = net.stats();
        assert!(stats.watchdog_trips > 0, "watchdog never tripped: {stats:?}");
        assert!(stats.quanta_degraded > 0);
        assert!(stats.messages_rerouted > 0);
        assert!(stats.last_trip().is_some());
        assert!(!stats.trips.is_empty() && stats.trips.len() <= TRIP_HISTORY);
        assert!(
            stats.trips.windows(2).all(|w| w[0].cycle <= w[1].cycle),
            "trip history must be in boundary order: {:?}",
            stats.trips
        );
    }

    #[test]
    fn transient_stall_trips_then_recovers() {
        use ra_noc::FaultPlan;
        // A long scripted stall freezes router 5 across several quanta;
        // after the window closes the detailed model must be readmitted
        // and calibrate again.
        let cfg = NocConfig::new(4, 4).with_faults(FaultPlan::new().stall_router(5, 0, 900));
        let mut net = ReciprocalNetwork::new(cfg, 200, 0)
            .unwrap()
            .with_fallback_policy(FallbackPolicy {
                max_retries: 10,
                backoff_quanta: 1,
                permanent_after: 50,
            });
        let mut id = 0;
        for now in 0..20_000u64 {
            if now % 6 == 0 {
                // All traffic crosses the stalled router's column.
                net.inject(msg(id, 1, 13), Cycle(now));
                id += 1;
            }
            net.tick(Cycle(now));
        }
        let stats = net.stats();
        assert!(stats.watchdog_trips > 0, "stall never tripped: {stats:?}");
        assert!(!stats.detailed_abandoned, "transient fault must not abandon");
        assert!(
            stats.measured > 0,
            "detailed model must measure again after recovery: {stats:?}"
        );
        assert_eq!(stats.calibration_age, 0, "recovered runs end freshly calibrated");
    }

    #[test]
    fn repeated_trips_abandon_the_detailed_model() {
        use ra_noc::FaultPlan;
        let cfg = NocConfig::new(4, 4).with_faults(FaultPlan::new().isolate_router(5, 0));
        let mut net = ReciprocalNetwork::new(cfg, 100, 0)
            .unwrap()
            .with_fallback_policy(FallbackPolicy {
                max_retries: 1,
                backoff_quanta: 1,
                permanent_after: 3,
            });
        let mut id = 0;
        for now in 0..30_000u64 {
            if now % 11 == 0 {
                net.inject(msg(id, (id % 16) as u32, 5), Cycle(now));
                id += 1;
            }
            net.tick(Cycle(now));
        }
        let stats = net.stats();
        assert!(stats.detailed_abandoned, "must abandon after repeated trips: {stats:?}");
        assert!(stats.watchdog_trips <= 3, "trips must stop after abandonment");
        assert!(net.degraded());
        assert!(stats.calibration_age > 0);
        // The run itself still completes on the fast path.
        net.tick(Cycle(32_000));
        assert_eq!(net.drain_delivered(Cycle(32_000)).len(), id as usize);
    }

    #[test]
    fn fault_free_runs_never_degrade() {
        let mut net = ReciprocalNetwork::new(NocConfig::new(4, 4), 200, 0).unwrap();
        let mut id = 0;
        for now in 0..5_000u64 {
            if now % 7 == 0 {
                net.inject(msg(id, (id % 16) as u32, ((id * 5 + 3) % 16) as u32), Cycle(now));
                id += 1;
            }
            net.tick(Cycle(now));
        }
        let stats = net.stats();
        assert_eq!(stats.watchdog_trips, 0);
        assert_eq!(stats.quanta_degraded, 0);
        assert_eq!(stats.messages_rerouted, 0);
        assert!(!net.degraded());
    }

    #[test]
    fn a_router_panic_on_the_replay_thread_trips_the_watchdog() {
        let mut net = ReciprocalNetwork::new(NocConfig::new(4, 4), 100, 2).unwrap();
        assert!(net.trails, "workers=2 overlaps every window");
        // Armed while the NoC is home, before the first window starts:
        // the replay thread steps the router first, and panics.
        net.det_mut()
            .debug_island_mut(0)
            .debug_router_mut(5)
            .debug_force_panic();
        let mut id = 0;
        for now in 0..1_000u64 {
            if now % 5 == 0 {
                net.inject(msg(id, (id % 16) as u32, ((id * 3 + 1) % 16) as u32), Cycle(now));
                id += 1;
            }
            net.tick(Cycle(now));
        }
        assert!(net.finalize(1_000));
        let stats = net.stats();
        assert_eq!(stats.watchdog_trips, 1, "{stats:?}");
        let cause = stats.last_trip().expect("a trip was recorded");
        assert!(cause.contains("injected test panic"), "{cause}");
        assert_eq!(stats.trips[0].cycle, 100, "the fault surfaces at the first boundary");
        assert!(stats.quanta_degraded > 0 && stats.messages_rerouted > 0);
        assert!(stats.calibrations > 0, "the rebuilt NoC calibrates again");
        net.tick(Cycle(3_000));
        assert_eq!(net.drain_delivered(Cycle(3_000)).len(), id as usize);
    }

    #[test]
    fn dropping_a_coupler_mid_window_joins_its_replay_thread() {
        let mut net = ReciprocalNetwork::new(NocConfig::new(4, 4), 500, 2).unwrap();
        for now in 0..750u64 {
            if now % 3 == 0 {
                net.inject(msg(now, (now % 16) as u32, ((now * 7 + 2) % 16) as u32), Cycle(now));
            }
            net.tick(Cycle(now));
        }
        assert!(net.detailed.is_none(), "the replay thread holds the NoC mid-window");
        let feed = Arc::downgrade(&net.worker.as_ref().expect("spawned").feed);
        drop(net);
        assert!(feed.upgrade().is_none(), "the replay thread was stopped and joined");
    }

    #[test]
    fn parallel_and_serial_couplers_agree() {
        fn run(workers: usize) -> (u64, NocStats) {
            let mut net = ReciprocalNetwork::new(NocConfig::new(4, 4), 100, workers).unwrap();
            let mut id = 0;
            for now in 0..2_050u64 {
                if now % 5 == 0 {
                    net.inject(msg(id, (id % 16) as u32, ((id * 3 + 1) % 16) as u32), Cycle(now));
                    id += 1;
                }
                net.tick(Cycle(now));
            }
            // Stopped mid-window: the reported statistics are the serial
            // schedule's, whatever the replay thread stepped past the
            // last boundary.
            assert!(net.finalize(2_050));
            let stats = net.stats();
            (stats.measured, stats.noc.clone().expect("finalize records them"))
        }
        assert_eq!(run(0), run(2));
    }
}


//! Experiment driver: runs a full system under a chosen network
//! abstraction and reports the metrics the figures plot.

use std::fmt;
use std::str::FromStr;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ra_fullsys::{FullSysSnapshot, FullSystem, SliceEnd};
use ra_netmodel::{AbstractNetwork, FixedLatency, HopLatency, QueueingLatency};
use ra_noc::ChipletNetwork;
use ra_obs::{Event, ObsSink, SpanKind};
use ra_sim::{ConfigError, MessageClass, Network, SimError, Summary};
use ra_workloads::{AnyWorkload, AppProfile, WorkSpec};

use crate::probe::{LatencyProbe, ProbeSnapshot};
use crate::reciprocal::{CouplerStats, ReciprocalNetwork};
use crate::target::Target;

/// Which network abstraction a run uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ModeSpec {
    /// Constant-latency model (crudest baseline).
    Fixed(u64),
    /// Contention-free hop model — the paper's "abstract network model".
    Hop,
    /// Hop model with an analytic queueing term.
    Queueing,
    /// Reciprocal abstraction: calibrated model + detailed NoC in quanta.
    /// On a single die, `workers >= 2` runs the detailed model on the
    /// parallel engine while a replay thread trails the full system
    /// through each quantum; `workers` 0 and 1, and every chiplet target,
    /// run it serially (the results are the same).
    Reciprocal {
        /// Calibration quantum in cycles.
        quantum: u64,
        /// Parallel-engine workers (0 = serial).
        workers: usize,
        /// Speculative quantum pipelining: replay quantum N in the
        /// background while the full system runs quantum N+1 against the
        /// predicted calibration, committing or rolling back at the join.
        /// Simulated statistics are bit-identical either way.
        pipeline: bool,
    },
    /// Ground truth: the full system coupled to the cycle-level NoC for
    /// every message.
    Lockstep,
}

impl ModeSpec {
    /// Short label used in report rows.
    pub fn label(&self) -> String {
        match self {
            ModeSpec::Fixed(l) => format!("fixed({l})"),
            ModeSpec::Hop => "abstract-hop".into(),
            ModeSpec::Queueing => "abstract-queueing".into(),
            ModeSpec::Reciprocal { workers, pipeline, .. } => {
                let mut label = if *workers == 0 {
                    "reciprocal".to_string()
                } else {
                    format!("reciprocal-par{workers}")
                };
                if *pipeline {
                    label.push_str("-pipe");
                }
                label
            }
            ModeSpec::Lockstep => "lockstep-truth".into(),
        }
    }
}

/// Canonical textual form, round-trippable through [`FromStr`]:
/// `fixed:12`, `hop`, `queueing`, `reciprocal:quantum=500,workers=4`,
/// `lockstep`. Pipelined reciprocal appends `,pipeline=on`; the flag is
/// omitted when off, so pre-existing canonical texts (and anything hashed
/// from them) are unchanged.
impl fmt::Display for ModeSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModeSpec::Fixed(l) => write!(f, "fixed:{l}"),
            ModeSpec::Hop => f.write_str("hop"),
            ModeSpec::Queueing => f.write_str("queueing"),
            ModeSpec::Reciprocal { quantum, workers, pipeline } => {
                write!(f, "reciprocal:quantum={quantum},workers={workers}")?;
                if *pipeline {
                    f.write_str(",pipeline=on")?;
                }
                Ok(())
            }
            ModeSpec::Lockstep => f.write_str("lockstep"),
        }
    }
}

/// A mode string [`ModeSpec::from_str`] could not parse, with the reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseModeError(String);

impl fmt::Display for ParseModeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid mode spec: {}", self.0)
    }
}

impl std::error::Error for ParseModeError {}

/// Parses the `--mode` syntax shared by every experiment binary.
///
/// Accepts the canonical [`Display`](ModeSpec) forms plus bare
/// `reciprocal` (default quantum/workers) and partial key=value lists:
/// `reciprocal:workers=4` keeps the default quantum.
impl FromStr for ModeSpec {
    type Err = ParseModeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        let (head, rest) = match s.split_once(':') {
            Some((head, rest)) => (head.trim(), Some(rest)),
            None => (s, None),
        };
        match (head, rest) {
            ("hop", None) => Ok(ModeSpec::Hop),
            ("queueing", None) => Ok(ModeSpec::Queueing),
            ("lockstep", None) => Ok(ModeSpec::Lockstep),
            ("fixed", Some(lat)) => lat
                .trim()
                .parse()
                .map(ModeSpec::Fixed)
                .map_err(|_| ParseModeError(format!("fixed latency `{lat}` is not an integer"))),
            ("fixed", None) => Err(ParseModeError(
                "fixed needs a latency, e.g. `fixed:12`".into(),
            )),
            ("reciprocal", rest) => {
                let ModeSpec::Reciprocal {
                    mut quantum,
                    mut workers,
                    mut pipeline,
                } = ModeSpec::default()
                else {
                    unreachable!("default mode is reciprocal");
                };
                for kv in rest
                    .unwrap_or_default()
                    .split(',')
                    .filter(|kv| !kv.trim().is_empty())
                {
                    let (key, value) = kv
                        .split_once('=')
                        .ok_or_else(|| ParseModeError(format!("expected key=value, got `{kv}`")))?;
                    match key.trim() {
                        "quantum" => {
                            quantum = value.trim().parse().map_err(|_| {
                                ParseModeError(format!("quantum `{value}` is not an integer"))
                            })?;
                        }
                        "workers" => {
                            workers = value.trim().parse().map_err(|_| {
                                ParseModeError(format!("workers `{value}` is not an integer"))
                            })?;
                        }
                        "pipeline" => {
                            pipeline = match value.trim() {
                                "on" => true,
                                "off" => false,
                                other => {
                                    return Err(ParseModeError(format!(
                                        "pipeline `{other}` is not on/off"
                                    )))
                                }
                            };
                        }
                        other => {
                            return Err(ParseModeError(format!(
                                "unknown reciprocal key `{other}` \
                                 (expected quantum, workers, or pipeline)"
                            )))
                        }
                    }
                }
                Ok(ModeSpec::Reciprocal { quantum, workers, pipeline })
            }
            (other, _) => Err(ParseModeError(format!(
                "unknown mode `{other}` (expected fixed:<lat>, hop, queueing, \
                 reciprocal[:quantum=<n>,workers=<n>], or lockstep)"
            ))),
        }
    }
}

/// The default mode is the paper's contribution: a serial reciprocal
/// coupler at a 2 000-cycle quantum.
impl Default for ModeSpec {
    fn default() -> Self {
        ModeSpec::Reciprocal {
            quantum: 2_000,
            workers: 0,
            pipeline: false,
        }
    }
}

/// Everything a single run measures.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Mode label.
    pub mode: String,
    /// Target execution time in cycles (full-system view).
    pub cycles: u64,
    /// Wall-clock time of the simulation.
    pub wall: Duration,
    /// Message latency the full system experienced.
    pub latency: Summary,
    /// Per-class experienced latency.
    pub class_latency: Vec<Summary>,
    /// Network messages the run generated.
    pub messages: u64,
    /// Whole-machine IPC.
    pub ipc: f64,
    /// Calibration updates (reciprocal modes only).
    pub calibrations: u64,
    /// The coupler's full exchange statistics (reciprocal modes only):
    /// drift, time decomposition, degradation and trip history.
    pub coupler: Option<CouplerStats>,
}

impl RunResult {
    /// Mean experienced latency in cycles.
    pub fn avg_latency(&self) -> f64 {
        self.latency.mean()
    }
}

/// Relative error of `value` against `truth`, in percent.
pub fn percent_error(value: f64, truth: f64) -> f64 {
    if truth == 0.0 {
        return 0.0;
    }
    ((value - truth) / truth).abs() * 100.0
}

/// A single simulation run, declaratively configured.
///
/// A builder: name the target and workload, override only what differs
/// from the defaults, and `run()`.
///
/// ```
/// use ra_cosim::{ModeSpec, RunSpec, Target};
/// use ra_workloads::AppProfile;
///
/// let target = Target::cmp(4, 4);
/// let app = AppProfile::water();
/// let result = RunSpec::new(&target, &app)
///     .mode(ModeSpec::Hop)
///     .instructions(300)
///     .budget(500_000)
///     .seed(1)
///     .run()?;
/// assert!(result.cycles > 0);
/// # Ok::<(), ra_sim::SimError>(())
/// ```
///
/// Defaults: the [`ModeSpec::default`] reciprocal coupler, 1 000
/// instructions per core, a 10 M-cycle budget, seed 42, and no recorder.
#[non_exhaustive]
#[derive(Debug)]
#[must_use = "a RunSpec does nothing until .run()"]
pub struct RunSpec<'a> {
    target: &'a Target,
    work: WorkSpec,
    mode: ModeSpec,
    instructions: u64,
    budget: u64,
    seed: u64,
    sink: ObsSink,
    cancel: Option<Arc<AtomicBool>>,
    calibrated_only: bool,
}

impl<'a> RunSpec<'a> {
    /// Starts a run specification over `target` executing `app`.
    pub fn new(target: &'a Target, app: &'a AppProfile) -> Self {
        Self::for_work(target, WorkSpec::Profile(app.clone()))
    }

    /// Starts a run specification over `target` executing any workload the
    /// vocabulary can name: a profile, a DNN pipeline, or a streamed trace.
    pub fn for_work(target: &'a Target, work: WorkSpec) -> Self {
        RunSpec {
            target,
            work,
            mode: ModeSpec::default(),
            instructions: 1_000,
            budget: 10_000_000,
            seed: 42,
            sink: ObsSink::disabled(),
            cancel: None,
            calibrated_only: false,
        }
    }

    /// Instantiates this spec's workload for the target: DNN pipelines get
    /// one stage per island on chiplet targets, and trace specs stream from
    /// disk (surfacing a missing/malformed file as a config error).
    fn build_workload(&self) -> Result<AnyWorkload, SimError> {
        let islands = self.target.fullsys.islands;
        let stages = if islands > 1 { islands } else { 0 };
        self.work
            .build(self.target.cores(), stages, self.seed)
            .map_err(|e| SimError::Config(ConfigError::new(e.to_string())))
    }

    /// Selects the network abstraction (default: reciprocal).
    pub fn mode(mut self, mode: ModeSpec) -> Self {
        self.mode = mode;
        self
    }

    /// Instructions every core must retire (default 1 000).
    pub fn instructions(mut self, instructions: u64) -> Self {
        self.instructions = instructions;
        self
    }

    /// Cycle budget before the run times out (default 10 000 000).
    pub fn budget(mut self, budget: u64) -> Self {
        self.budget = budget;
        self
    }

    /// Workload RNG seed (default 42).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Attaches an observability sink; its recorder receives the whole
    /// stack's events (coupler, NoC windows, engine batches, profiling
    /// spans). Default: disabled — zero recording overhead.
    pub fn recorder(mut self, sink: ObsSink) -> Self {
        self.sink = sink;
        self
    }

    /// Serves reciprocal modes from the calibrated model alone: the
    /// coupler is built with its detailed NoC pre-abandoned (see
    /// [`ReciprocalNetwork::serving_only`]), so the run costs about as
    /// much as an abstract-model run while keeping the reciprocal mode's
    /// calibrated fit. Non-reciprocal modes are unaffected. Speculative
    /// pipelining is disabled for such runs — there is no detailed replay
    /// to speculate against. Deterministic per spec: a given spec always
    /// produces the same calibrated-only result, regardless of why the
    /// caller degraded it. Default: off (full co-simulation).
    pub fn calibrated_only(mut self, on: bool) -> Self {
        self.calibrated_only = on;
        self
    }

    /// Arms a cooperative cancellation flag: another thread setting it
    /// makes the run return [`SimError::Cancelled`] at the next poll
    /// boundary of the full system's run-loop watchdog. The job service
    /// uses this to cancel in-flight simulations without tearing down
    /// worker threads. Default: not cancellable.
    pub fn cancel_flag(mut self, cancel: Arc<AtomicBool>) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Executes the run.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors and the full system's
    /// timeout/deadlock watchdogs.
    pub fn run(self) -> Result<RunResult, SimError> {
        let result = match self.mode {
            ModeSpec::Reciprocal {
                quantum,
                workers,
                pipeline,
            } => self.run_reciprocal(quantum, workers, pipeline),
            mode => self.run_boxed(mode),
        }?;
        Ok(result)
    }

    /// The reciprocal path keeps the concrete coupler type, so the real
    /// [`CouplerStats`] come back in [`RunResult::coupler`] — and so the
    /// pipelined schedule can drive the checkpoint/rollback loop.
    fn run_reciprocal(
        self,
        quantum: u64,
        workers: usize,
        pipeline: bool,
    ) -> Result<RunResult, SimError> {
        // A calibrated-only run has no detailed replay to speculate
        // against; execute serially but keep the spec's own mode label so
        // the job's identity is unchanged (the fidelity tag carries the
        // degradation).
        let effective_pipeline = pipeline && !self.calibrated_only;
        let mut coupler = ReciprocalNetwork::new(self.target.noc.clone(), quantum, workers)
            .map_err(SimError::Config)?
            .with_sink(self.sink.clone())
            .with_pipeline(effective_pipeline);
        if self.calibrated_only {
            coupler = coupler.serving_only();
        }
        let net = LatencyProbe::new(coupler);
        let workload = self.build_workload()?;
        let mut sys = FullSystem::new(self.target.fullsys.clone(), net, workload)
            .map_err(SimError::Config)?;
        if let Some(cancel) = &self.cancel {
            sys.set_halt_flag(cancel.clone());
        }
        let start = Instant::now();
        let cycles = if effective_pipeline {
            run_pipelined(&mut sys, self.instructions, self.budget)?
        } else {
            let cycles = sys.run_until_instructions(self.instructions, self.budget)?;
            // Takes the NoC back from an overlapped window's replay thread
            // and records the detailed statistics.
            let now = sys.now();
            let committed = sys.network_mut().inner_mut().finalize(now);
            debug_assert!(committed, "a run without speculation always commits");
            cycles
        };
        let wall = start.elapsed();
        let stats = sys.stats();
        let probe = sys.network();
        let latency = *probe.latency();
        let class_latency = MessageClass::ALL
            .iter()
            .map(|c| *probe.class_latency(*c))
            .collect();
        let coupler_stats = probe.inner().stats().clone();
        // The remainder of the wall-clock is the full system plus the fast
        // path — T2's third component.
        self.sink.emit(|| Event::Span {
            kind: SpanKind::FullsysStep,
            nanos: wall
                .saturating_sub(coupler_stats.detailed_wall)
                .saturating_sub(coupler_stats.calibrate_wall)
                .as_nanos() as u64,
        });
        let _ = self.sink.flush();
        let mode = ModeSpec::Reciprocal {
            quantum,
            workers,
            pipeline,
        };
        Ok(RunResult {
            workload: self.work.name().to_owned(),
            mode: mode.label(),
            cycles,
            wall,
            latency,
            class_latency,
            messages: stats.total_messages(),
            ipc: stats.ipc(),
            calibrations: coupler_stats.calibrations,
            coupler: Some(coupler_stats),
        })
    }

    /// Every non-reciprocal mode runs behind `Box<dyn Network>`.
    fn run_boxed(self, mode: ModeSpec) -> Result<RunResult, SimError> {
        let net = LatencyProbe::new(build_network(mode, self.target, &self.sink)?);
        let workload = self.build_workload()?;
        let mut sys = FullSystem::new(self.target.fullsys.clone(), net, workload)
            .map_err(SimError::Config)?;
        if let Some(cancel) = &self.cancel {
            sys.set_halt_flag(cancel.clone());
        }
        let start = Instant::now();
        let cycles = sys.run_until_instructions(self.instructions, self.budget)?;
        let wall = start.elapsed();
        let stats = sys.stats();
        let probe = sys.network();
        let latency = *probe.latency();
        let class_latency = MessageClass::ALL
            .iter()
            .map(|c| *probe.class_latency(*c))
            .collect();
        self.sink.emit(|| Event::Span {
            kind: SpanKind::FullsysStep,
            nanos: wall.as_nanos() as u64,
        });
        let _ = self.sink.flush();
        Ok(RunResult {
            workload: self.work.name().to_owned(),
            mode: mode.label(),
            cycles,
            wall,
            latency,
            class_latency,
            messages: stats.total_messages(),
            ipc: stats.ipc(),
            calibrations: 0,
            coupler: None,
        })
    }
}

/// The simulation state a pipelined run checkpoints at every healthy
/// quantum boundary and rewinds on rollback: the full system (tiles,
/// caches, protocol state, workload RNG cursors, stats), the latency
/// probe's measurements, and the run-loop watchdog bookkeeping. The
/// coupler rewinds its own fast path internally.
type Checkpoint = (
    FullSysSnapshot<AnyWorkload>,
    ProbeSnapshot,
    ra_fullsys::RunProgress,
);

/// The pipelined run loop: run to each quantum boundary in slices,
/// checkpoint at healthy pauses, and rewind + re-run the window when the
/// coupler's join reports that the speculation diverged. The simulated
/// timeline that survives commits is bit-identical to a serial run's.
fn run_pipelined(
    sys: &mut FullSystem<LatencyProbe<ReciprocalNetwork>, AnyWorkload>,
    per_core: u64,
    budget: u64,
) -> Result<u64, SimError> {
    let mut progress = sys.begin_run();
    let mut checkpoint: Option<Checkpoint> = None;
    loop {
        let until = sys.network().inner().next_boundary() + 1;
        match sys.run_slice(per_core, budget, until, &mut progress) {
            Ok(SliceEnd::Paused) => {
                if sys.network().inner().has_rollback() {
                    restore(sys, &checkpoint, &mut progress);
                } else {
                    checkpoint = Some((sys.snapshot(), sys.network().snapshot(), progress));
                }
            }
            Ok(SliceEnd::Done(cycles)) => {
                // Join any replay still in flight; the final partial
                // window must also verify before the result is trusted.
                let now = sys.now();
                if sys.network_mut().inner_mut().finalize(now) {
                    return Ok(cycles);
                }
                restore(sys, &checkpoint, &mut progress);
            }
            Err(err) => {
                // The error is only real if the speculative state it arose
                // in survives the join; otherwise rewind and re-run.
                let now = sys.now();
                if sys.network_mut().inner_mut().finalize(now) {
                    return Err(err);
                }
                restore(sys, &checkpoint, &mut progress);
            }
        }
    }
}

/// Rewinds a pipelined run to its last healthy-boundary checkpoint after
/// the coupler decided a rollback.
fn restore(
    sys: &mut FullSystem<LatencyProbe<ReciprocalNetwork>, AnyWorkload>,
    checkpoint: &Option<Checkpoint>,
    progress: &mut ra_fullsys::RunProgress,
) {
    let boundary = sys
        .network_mut()
        .inner_mut()
        .take_rollback()
        .expect("restore without a decided rollback");
    let (snap, probe, saved) = checkpoint
        .as_ref()
        .expect("a rollback cannot precede the first boundary checkpoint");
    debug_assert_eq!(
        snap.at_cycle(),
        boundary + 1,
        "checkpoint must sit one step past the rolled-back boundary"
    );
    sys.restore(snap);
    sys.network_mut().restore(probe);
    *progress = *saved;
}

/// Builds the network for a mode over a target. Lockstep mode attaches
/// `sink` to the cycle-level NoC (the other abstract models emit nothing).
fn build_network(
    mode: ModeSpec,
    target: &Target,
    sink: &ObsSink,
) -> Result<Box<dyn Network>, SimError> {
    let metric = crate::reciprocal::hop_metric(&target.noc);
    let flit_bytes = target.noc.flit_bytes;
    Ok(match mode {
        ModeSpec::Fixed(l) => Box::new(AbstractNetwork::new(FixedLatency::new(l), metric, flit_bytes)),
        ModeSpec::Hop => Box::new(AbstractNetwork::new(HopLatency::default(), metric, flit_bytes)),
        ModeSpec::Queueing => Box::new(AbstractNetwork::new(
            QueueingLatency::default(),
            metric,
            flit_bytes,
        )),
        // The boxed path cannot drive the checkpoint/rollback loop, so the
        // pipeline flag is ignored here; `RunSpec::run` routes reciprocal
        // modes through the concrete-typed path instead.
        ModeSpec::Reciprocal { quantum, workers, pipeline: _ } => Box::new(
            ReciprocalNetwork::new(target.noc.clone(), quantum, workers)?
                .with_sink(sink.clone()),
        ),
        ModeSpec::Lockstep => {
            let mut net = ChipletNetwork::new(target.noc.clone())?;
            net.set_sink(sink.clone());
            Box::new(net)
        }
    })
}

/// Formats a row of the standard report table.
pub fn format_row(r: &RunResult) -> String {
    format!(
        "{:<14} {:<18} {:>10} cyc  {:>8.2} avg-lat  {:>9} msgs  ipc {:>5.2}  {:>8.1?}",
        r.workload,
        r.mode,
        r.cycles,
        r.avg_latency(),
        r.messages,
        r.ipc,
        r.wall,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_target() -> Target {
        Target::cmp(4, 4)
    }

    #[test]
    fn percent_error_basics() {
        assert!((percent_error(110.0, 100.0) - 10.0).abs() < 1e-9);
        assert!((percent_error(90.0, 100.0) - 10.0).abs() < 1e-9);
        assert_eq!(percent_error(5.0, 0.0), 0.0);
    }

    #[test]
    fn mode_labels_are_distinct() {
        let labels: std::collections::HashSet<_> = [
            ModeSpec::Fixed(10),
            ModeSpec::Hop,
            ModeSpec::Queueing,
            ModeSpec::Reciprocal { quantum: 100, workers: 0, pipeline: false },
            ModeSpec::Reciprocal { quantum: 100, workers: 0, pipeline: true },
            ModeSpec::Reciprocal { quantum: 100, workers: 2, pipeline: false },
            ModeSpec::Reciprocal { quantum: 100, workers: 2, pipeline: true },
            ModeSpec::Lockstep,
        ]
        .iter()
        .map(ModeSpec::label)
        .collect();
        assert_eq!(labels.len(), 8);
    }

    #[test]
    fn mode_display_round_trips_through_from_str() {
        for mode in [
            ModeSpec::Fixed(12),
            ModeSpec::Hop,
            ModeSpec::Queueing,
            ModeSpec::Reciprocal { quantum: 500, workers: 4, pipeline: false },
            ModeSpec::Reciprocal { quantum: 2_000, workers: 0, pipeline: false },
            ModeSpec::Reciprocal { quantum: 2_000, workers: 0, pipeline: true },
            ModeSpec::Lockstep,
        ] {
            let text = mode.to_string();
            let parsed: ModeSpec = text.parse().unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(parsed, mode, "{text} must round-trip");
        }
    }

    #[test]
    fn mode_display_omits_pipeline_when_off() {
        // Wire compatibility: canonical texts from before the pipeline
        // flag existed (and anything hashed from them) must not change.
        let off = ModeSpec::Reciprocal { quantum: 500, workers: 4, pipeline: false };
        assert_eq!(off.to_string(), "reciprocal:quantum=500,workers=4");
        let on = ModeSpec::Reciprocal { quantum: 500, workers: 4, pipeline: true };
        assert_eq!(on.to_string(), "reciprocal:quantum=500,workers=4,pipeline=on");
    }

    #[test]
    fn mode_from_str_accepts_shorthand() {
        assert_eq!("reciprocal".parse::<ModeSpec>().unwrap(), ModeSpec::default());
        assert_eq!(
            "reciprocal:workers=4".parse::<ModeSpec>().unwrap(),
            ModeSpec::Reciprocal { quantum: 2_000, workers: 4, pipeline: false }
        );
        assert_eq!(
            "reciprocal:quantum=500".parse::<ModeSpec>().unwrap(),
            ModeSpec::Reciprocal { quantum: 500, workers: 0, pipeline: false }
        );
        assert_eq!(
            "reciprocal:pipeline=on".parse::<ModeSpec>().unwrap(),
            ModeSpec::Reciprocal { quantum: 2_000, workers: 0, pipeline: true }
        );
        assert_eq!(
            "reciprocal:quantum=500,pipeline=off".parse::<ModeSpec>().unwrap(),
            ModeSpec::Reciprocal { quantum: 500, workers: 0, pipeline: false }
        );
        assert_eq!(" hop ".parse::<ModeSpec>().unwrap(), ModeSpec::Hop);
        assert_eq!("fixed: 9".parse::<ModeSpec>().unwrap(), ModeSpec::Fixed(9));
    }

    #[test]
    fn mode_from_str_rejects_garbage() {
        for bad in [
            "",
            "warp",
            "fixed",
            "fixed:lots",
            "reciprocal:quantum",
            "reciprocal:pace=3",
            "reciprocal:pipeline=sideways",
            "hop:1",
        ] {
            assert!(bad.parse::<ModeSpec>().is_err(), "`{bad}` must not parse");
        }
    }

    #[test]
    fn all_modes_complete_a_small_run() {
        let target = small_target();
        let app = AppProfile::water();
        for mode in [
            ModeSpec::Fixed(12),
            ModeSpec::Hop,
            ModeSpec::Queueing,
            ModeSpec::Reciprocal { quantum: 200, workers: 0, pipeline: false },
            ModeSpec::Reciprocal { quantum: 200, workers: 0, pipeline: true },
            ModeSpec::Lockstep,
        ] {
            let r = RunSpec::new(&target, &app)
                .mode(mode)
                .instructions(300)
                .budget(500_000)
                .seed(1)
                .run()
                .unwrap_or_else(|e| panic!("{}: {e}", mode.label()));
            assert!(r.cycles > 0, "{}", mode.label());
            assert!(r.latency.count() > 0, "{}", mode.label());
            assert!(r.ipc > 0.0, "{}", mode.label());
            assert_eq!(
                r.coupler.is_some(),
                matches!(mode, ModeSpec::Reciprocal { .. }),
                "{}: coupler stats come back iff the mode is reciprocal",
                mode.label()
            );
        }
    }

    #[test]
    fn reciprocal_run_returns_real_coupler_stats() {
        let target = small_target();
        let app = AppProfile::water();
        let r = RunSpec::new(&target, &app)
            .mode(ModeSpec::Reciprocal { quantum: 200, workers: 0, pipeline: false })
            .instructions(300)
            .budget(500_000)
            .seed(1)
            .run()
            .unwrap();
        let coupler = r.coupler.expect("reciprocal run carries coupler stats");
        assert_eq!(coupler.calibrations, r.calibrations);
        assert!(coupler.calibrations > 0);
        assert!(coupler.measured > 0);
    }

    #[test]
    fn pipelined_run_is_bit_identical_to_serial() {
        let target = small_target();
        for app in [AppProfile::water(), AppProfile::ocean()] {
            for seed in [1u64, 7, 42] {
                let run = |pipeline: bool| {
                    RunSpec::new(&target, &app)
                        .mode(ModeSpec::Reciprocal { quantum: 300, workers: 0, pipeline })
                        .instructions(400)
                        .budget(2_000_000)
                        .seed(seed)
                        .run()
                        .unwrap()
                };
                let serial = run(false);
                let piped = run(true);
                let label = format!("{} seed {seed}", app.name);
                assert_eq!(serial.cycles, piped.cycles, "{label}: cycles");
                assert_eq!(serial.messages, piped.messages, "{label}: messages");
                assert_eq!(serial.ipc.to_bits(), piped.ipc.to_bits(), "{label}: ipc");
                assert_eq!(
                    serial.latency.mean().to_bits(),
                    piped.latency.mean().to_bits(),
                    "{label}: avg latency"
                );
                for (s, p) in serial.class_latency.iter().zip(&piped.class_latency) {
                    assert_eq!(s.count(), p.count(), "{label}: class count");
                    assert_eq!(s.mean().to_bits(), p.mean().to_bits(), "{label}: class mean");
                }
                let sc = serial.coupler.unwrap();
                let pc = piped.coupler.unwrap();
                assert_eq!(sc.calibrations, pc.calibrations, "{label}: calibrations");
                assert_eq!(sc.measured, pc.measured, "{label}: measured");
                assert_eq!(
                    sc.drift.mean().to_bits(),
                    pc.drift.mean().to_bits(),
                    "{label}: drift"
                );
                assert_eq!(sc.spec_commits, 0, "{label}: serial never speculates");
                assert!(
                    pc.spec_commits + pc.spec_rollbacks > 0,
                    "{label}: pipelined run decided no speculation"
                );
            }
        }
    }

    #[test]
    fn pipelined_rollbacks_converge_to_serial() {
        // The first calibration always moves the model off its cold-start
        // fit, so an early speculative window diverges and rolls back; the
        // surviving timeline must still equal serial bit-for-bit.
        let target = small_target();
        let app = AppProfile::ocean();
        let run = |pipeline: bool| {
            RunSpec::new(&target, &app)
                .mode(ModeSpec::Reciprocal { quantum: 400, workers: 0, pipeline })
                .instructions(500)
                .budget(2_000_000)
                .seed(9)
                .run()
                .unwrap()
        };
        let serial = run(false);
        let piped = run(true);
        let pc = piped.coupler.as_ref().unwrap();
        assert!(pc.spec_rollbacks > 0, "loaded run must roll back at least once: {pc:?}");
        assert!(pc.spec_wasted_cycles > 0);
        assert_eq!(
            pc.spec_commits + pc.spec_rollbacks,
            pc.calibrations,
            "every calibrated window is decided exactly once"
        );
        assert_eq!(serial.cycles, piped.cycles);
        assert_eq!(serial.messages, piped.messages);
        assert_eq!(
            serial.latency.mean().to_bits(),
            piped.latency.mean().to_bits()
        );
    }

    #[test]
    fn calibrated_only_serves_from_the_fit_and_stays_deterministic() {
        let target = small_target();
        let app = AppProfile::ocean();
        let run = || {
            RunSpec::new(&target, &app)
                .mode(ModeSpec::Reciprocal { quantum: 300, workers: 0, pipeline: true })
                .instructions(300)
                .budget(2_000_000)
                .seed(5)
                .calibrated_only(true)
                .run()
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.cycles, b.cycles, "calibrated tier must be deterministic");
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.latency.mean().to_bits(), b.latency.mean().to_bits());
        let coupler = a.coupler.expect("still a reciprocal-mode run");
        assert!(coupler.detailed_abandoned, "detailed model abandoned from cycle zero");
        assert_eq!(a.calibrations, 0, "no detailed windows means no calibrations");
        assert_eq!(
            coupler.spec_commits + coupler.spec_rollbacks,
            0,
            "pipelining is inert without a detailed replay"
        );
        assert_eq!(a.mode, "reciprocal-pipe", "the spec's own mode label is kept");
        // The full run differs: degradation is a real fidelity change.
        let full = RunSpec::new(&target, &app)
            .mode(ModeSpec::Reciprocal { quantum: 300, workers: 0, pipeline: false })
            .instructions(300)
            .budget(2_000_000)
            .seed(5)
            .run()
            .unwrap();
        assert!(full.calibrations > 0);
    }

    #[test]
    fn cancel_flag_stops_a_run_spec_mid_flight() {
        use std::sync::atomic::Ordering;

        let target = small_target();
        let app = AppProfile::ocean();
        let cancel = Arc::new(AtomicBool::new(false));
        cancel.store(true, Ordering::Relaxed);
        let err = RunSpec::new(&target, &app)
            .mode(ModeSpec::Hop)
            .instructions(1_000_000)
            .budget(1_000_000_000)
            .seed(1)
            .cancel_flag(cancel)
            .run()
            .unwrap_err();
        assert!(
            matches!(err, SimError::Cancelled { .. }),
            "expected Cancelled, got {err:?}"
        );
    }

    #[test]
    fn a_parallel_run_stopped_mid_window_returns_its_error() {
        // The budget runs out inside a window the replay thread is
        // trailing: the run must stop it, join it, and return.
        let err = RunSpec::new(&small_target(), &AppProfile::ocean())
            .mode(ModeSpec::Reciprocal { quantum: 200, workers: 2, pipeline: false })
            .instructions(1_000_000)
            .budget(1_100)
            .seed(1)
            .run()
            .unwrap_err();
        assert!(matches!(err, SimError::Timeout { .. }), "expected Timeout, got {err:?}");
    }

    #[test]
    fn reciprocal_is_closer_to_truth_than_hop_model() {
        // The headline property (A1) on a small instance: under a loaded
        // workload, the calibrated reciprocal model tracks the cycle-level
        // truth much better than the contention-free hop model.
        let target = small_target();
        let app = AppProfile::ocean();
        let run = |mode: ModeSpec| {
            RunSpec::new(&target, &app)
                .mode(mode)
                .instructions(400)
                .budget(2_000_000)
                .seed(3)
                .run()
                .unwrap()
        };
        let truth = run(ModeSpec::Lockstep);
        let hop = run(ModeSpec::Hop);
        let recip = run(ModeSpec::Reciprocal { quantum: 500, workers: 0, pipeline: false });
        let hop_err = percent_error(hop.avg_latency(), truth.avg_latency());
        let recip_err = percent_error(recip.avg_latency(), truth.avg_latency());
        assert!(
            recip_err < hop_err,
            "reciprocal error {recip_err:.1}% must beat hop error {hop_err:.1}% \
             (truth {:.1}, hop {:.1}, recip {:.1})",
            truth.avg_latency(),
            hop.avg_latency(),
            recip.avg_latency()
        );
    }
}

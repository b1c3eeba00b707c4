//! Observability layer for the co-simulation stack: events, metrics, and
//! wall-clock profiling spans, **zero-cost when disabled**.
//!
//! The paper's claims are time-series phenomena — drift between
//! calibrations, quantum-boundary exchanges, degraded windows — but the
//! final [`CouplerStats`]-style snapshots collapse them to one number. This
//! crate gives every layer of the stack a place to report *per-interval*
//! observations without perturbing the thing being measured:
//!
//! * the **coupler** emits one [`Event::QuantumReport`] per calibration
//!   (predicted vs measured latency, drift), plus
//!   [`Event::WatchdogTrip`] and [`Event::Degradation`] transitions;
//! * the **detailed NoC** emits one [`Event::NocWindow`] per calibration
//!   window (router steps, fast-forwarded cycles, per-virtual-network
//!   occupancy, fault deltas);
//! * the **parallel engine** emits one [`Event::EngineBatch`] per batched
//!   job (worker range cuts, scope wall-clock, the workers' summed
//!   stepping and barrier-wait times, batch size);
//! * wall-clock [`Event::Span`]s (`detailed_step` / `calibrate` /
//!   `fullsys_step`) time the T2-style simulation phases;
//! * the **job service** (`ra-serve`) emits per-job lifecycle events —
//!   [`Event::JobAdmitted`], [`Event::JobRejected`] (the backpressure
//!   signal), [`Event::CacheHit`], [`Event::JobDone`] — at job
//!   granularity, orders of magnitude rarer than even window events.
//!
//! The crate also owns the workspace's one JSON writer: [`Event::to_json`]
//! renders the JSONL lines, and [`json_object`] and [`json_array`] build
//! the job service's wire, journal and store lines, all through one string
//! escape and one float format.
//!
//! # The cost model
//!
//! Everything funnels through an [`ObsSink`], a cloneable handle that is
//! either *disabled* (the default: an `Option::None`, so
//! [`ObsSink::emit`] is a branch and the event-construction closure is
//! never run — nothing on the PR 2 zero-allocation hot path changes) or
//! *attached* to a [`Recorder`]. Events are emitted only at window /
//! quantum / batch granularity, never per cycle or per flit, so even an
//! attached recorder costs a bounded, amortized amount: the determinism
//! suite holds [`NullRecorder`] and [`RingRecorder`] runs to bit-identical
//! simulation statistics, and the steady-state allocation test proves the
//! instrumented hot path still allocates nothing under a [`NullRecorder`].
//!
//! [`CouplerStats`]: https://docs.rs/ra-cosim

use std::collections::VecDeque;
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use ra_sim::MessageClass;

/// Wall-clock profiling span kinds, named after the co-simulation phases
/// the T2 experiment decomposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Stepping the detailed cycle-level NoC through a window (the
    /// component a coprocessor offloads).
    DetailedStep,
    /// Measuring the window's deliveries and re-fitting the calibrated
    /// model at the quantum boundary.
    Calibrate,
    /// Everything else: the coarse-grain full system and the fast-path
    /// model (reported once per run as the remainder).
    FullsysStep,
}

impl SpanKind {
    /// Stable lower-snake name used in the JSONL export.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::DetailedStep => "detailed_step",
            SpanKind::Calibrate => "calibrate",
            SpanKind::FullsysStep => "fullsys_step",
        }
    }
}

/// Degradation state of the coupler's detailed path (see the `ra-cosim`
/// watchdog / fallback machinery).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradationState {
    /// The detailed model is in service and calibrating.
    Healthy,
    /// Tripped and backing off; the calibrated model answers alone.
    Degraded,
    /// Permanently out of service for the rest of the run.
    Abandoned,
}

impl DegradationState {
    /// Stable lower-case name used in the JSONL export.
    pub fn name(self) -> &'static str {
        match self {
            DegradationState::Healthy => "healthy",
            DegradationState::Degraded => "degraded",
            DegradationState::Abandoned => "abandoned",
        }
    }
}

/// One observation. Variants are emitted at window / quantum / batch
/// granularity only — never per cycle or per flit — so recording stays off
/// the simulators' hot paths by construction.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// One calibration exchange at a quantum boundary.
    QuantumReport {
        /// Zero-based index of the calibration window.
        window: u64,
        /// The quantum-boundary cycle the calibration ran at.
        boundary: u64,
        /// Mean latency the fast-path model predicted for the window.
        predicted: f64,
        /// Mean latency the detailed NoC measured over the window
        /// (0 when the window delivered nothing).
        measured: f64,
        /// |predicted − measured| (0 when nothing was measured).
        drift: f64,
        /// Deliveries measured in the window.
        samples: u64,
        /// Calibration quantum entering the window, in cycles.
        quantum_before: u64,
        /// Quantum after the calibration: the quantum is fixed for a run,
        /// so this equals `quantum_before`.
        quantum_after: u64,
    },
    /// The watchdog tore down the detailed model.
    WatchdogTrip {
        /// The quantum-boundary cycle the trip was detected at.
        cycle: u64,
        /// Human-readable cause (the underlying `SimError`).
        cause: String,
    },
    /// The coupler's detailed path changed supervision state.
    Degradation {
        /// The quantum-boundary cycle of the transition.
        cycle: u64,
        /// State before.
        from: DegradationState,
        /// State after.
        to: DegradationState,
    },
    /// A speculatively executed quantum was verified against the
    /// post-replay re-fit model and kept (pipelined mode).
    SpecCommit {
        /// Zero-based calibration-window index of the speculated window.
        window: u64,
        /// Quantum-boundary cycle the commit decision was taken at.
        boundary: u64,
        /// |predicted − measured| drift of the replay joined at the
        /// decision point.
        drift: f64,
        /// Simulated cycles executed speculatively and kept.
        speculated_cycles: u64,
    },
    /// A speculatively executed quantum diverged from the re-fit model
    /// and was rolled back to the checkpoint for serial re-execution.
    SpecRollback {
        /// Zero-based calibration-window index of the speculated window.
        window: u64,
        /// Quantum-boundary cycle the rollback decision was taken at.
        boundary: u64,
        /// |predicted − measured| drift of the replay joined at the
        /// decision point.
        drift: f64,
        /// Simulated cycles executed speculatively and thrown away.
        wasted_cycles: u64,
        /// Model queries whose re-fit answer differed.
        mismatches: u64,
    },
    /// One detailed-NoC calibration window's execution profile.
    NocWindow {
        /// Which die emitted the window: 0 for a standalone single-die
        /// network, the island id on a chiplet system (each island emits
        /// its own tagged window per calibration).
        island: u64,
        /// First cycle of the window.
        from_cycle: u64,
        /// One past the last cycle of the window.
        to_cycle: u64,
        /// Router `step` invocations in the window — the
        /// active-router count integrated over time (what clock gating
        /// saves is directly visible here).
        router_steps: u64,
        /// Cycles skipped in O(1) by idle fast-forward.
        fast_forwarded: u64,
        /// Flits delivered in the window.
        flits_delivered: u64,
        /// In-flight messages per virtual network at the window boundary
        /// (the per-VC occupancy snapshot).
        occupancy: [u64; MessageClass::COUNT],
        /// Flits lost to scripted link faults in the window.
        flits_dropped: u64,
        /// Fault detours taken in the window.
        reroutes: u64,
        /// Cycles a scripted stall froze a router in the window.
        stall_cycles: u64,
    },
    /// One batched job on the data-parallel engine.
    EngineBatch {
        /// First cycle of the batch.
        t0: u64,
        /// Cycles in the batch.
        cycles: u64,
        /// Worker threads that stepped the batch, the calling thread
        /// included.
        workers: u64,
        /// Wall-clock nanoseconds from opening the batch's thread scope to
        /// joining it (the workers' busy time, barriers included).
        barrier_wait_ns: u64,
        /// Nanoseconds the workers spent stepping their routers, summed
        /// over workers.
        busy_ns: u64,
        /// Nanoseconds the workers spent waiting at the barrier between
        /// cycles, summed over workers.
        wait_ns: u64,
        /// Injections released into the batch up front.
        releases: u64,
        /// Routers in the smallest worker range this batch (the activity-
        /// weighted re-cut; min ≪ max means the load was skewed).
        min_range: u64,
        /// Routers in the largest worker range this batch.
        max_range: u64,
    },
    /// A wall-clock profiling span.
    Span {
        /// Which phase the span timed.
        kind: SpanKind,
        /// Span length in nanoseconds.
        nanos: u64,
    },
    /// The job service admitted a simulation job to its run queue.
    JobAdmitted {
        /// Canonical job-spec content hash (the cache key).
        job: u64,
        /// Queue depth after admission.
        queue_depth: u64,
        /// Scheduling priority (higher runs first).
        priority: u64,
    },
    /// The job service refused a submission — the explicit backpressure
    /// signal (`Rejected::QueueFull` on the API, `"queue_full"` on the
    /// wire).
    JobRejected {
        /// Canonical job-spec content hash of the refused job.
        job: u64,
        /// Queue depth at the time of refusal (the configured bound).
        queue_depth: u64,
    },
    /// A submission was answered from the memoized result store without
    /// re-running the co-simulation.
    CacheHit {
        /// Canonical job-spec content hash (the cache key).
        job: u64,
    },
    /// A job reached a terminal state.
    JobDone {
        /// Canonical job-spec content hash.
        job: u64,
        /// Terminal outcome: `ok`, `failed`, `cancelled`, or `expired`.
        outcome: String,
        /// Nanoseconds spent queued before a worker picked the job up.
        queue_ns: u64,
        /// Nanoseconds spent running the co-simulation (0 if never run).
        run_ns: u64,
        /// Speculative quanta the run committed (0 unless the job ran a
        /// pipelined reciprocal mode).
        spec_commits: u64,
        /// Speculative quanta the run rolled back and re-executed.
        spec_rollbacks: u64,
    },
    /// The job service replayed its durability logs (spill + journal)
    /// at startup — the warm-restart signature.
    JournalReplay {
        /// Memoized results rebuilt into the cache from the spill log.
        recovered_results: u64,
        /// Journaled-but-unfinished jobs re-enqueued to run again.
        resumed_jobs: u64,
        /// Bytes of torn/corrupt tail ignored across both logs.
        dropped_tail_bytes: u64,
        /// Complete frames whose checksum failed (0 after a clean tear).
        checksum_errors: u64,
    },
    /// A worker thread panicked mid-job and was respawned by the
    /// supervisor; the pool is back to full strength.
    WorkerRespawn {
        /// Which worker slot respawned.
        worker: u64,
        /// How many times this slot has respawned (1 = first panic).
        incarnation: u64,
        /// Content hash of the job that killed it (0 if it died idle).
        job: u64,
    },
    /// A job was quarantined as poisoned after killing too many workers.
    JobQuarantined {
        /// Canonical job-spec content hash.
        job: u64,
        /// Workers it killed before quarantine.
        strikes: u64,
    },
    /// A *running* job crossed its deadline and was cooperatively
    /// cancelled via the engine's watchdog poll.
    DeadlineCancel {
        /// Canonical job-spec content hash.
        job: u64,
        /// Milliseconds past the deadline when the reaper fired.
        overrun_ms: u64,
    },
    /// A relay health probe promoted a backend node to `Up`.
    NodeUp {
        /// Backend slot index in the relay's node table.
        node: u64,
        /// Round-trip time of the probe that completed the promotion.
        rtt_ns: u64,
    },
    /// A relay health probe demoted a backend node to `Down`.
    NodeDown {
        /// Backend slot index in the relay's node table.
        node: u64,
        /// Consecutive probe failures at the moment of demotion.
        failures: u64,
    },
    /// A node death triggered failover: its key range was re-routed to
    /// survivors and its in-flight jobs re-submitted.
    Failover {
        /// The dead backend's slot index.
        node: u64,
        /// In-flight jobs handed off to survivors.
        inflight: u64,
    },
    /// One job was re-routed from a failed backend to a survivor.
    Reroute {
        /// Canonical job-spec content hash.
        job: u64,
        /// Backend slot the job was leaving.
        from: u64,
        /// Backend slot that now owns it.
        to: u64,
    },
    /// A batched wire verb (`submit_batch`/`status_batch`/`result_batch`)
    /// was dispatched — one event per round-trip, however many jobs it
    /// carried, so batching efficiency is visible in the trace.
    WireBatch {
        /// The batch verb name.
        verb: String,
        /// Items the batch carried.
        items: u64,
    },
    /// The admission controller entered a brownout level under sustained
    /// queue pressure (1 = degrade new low-priority work, 2 = degrade
    /// everything that opted in).
    BrownoutEnter {
        /// The level entered (1 or 2).
        level: u64,
        /// The smoothed pressure reading that crossed the threshold.
        pressure: f64,
    },
    /// The admission controller left a brownout level after sustained
    /// relief (hysteresis applied).
    BrownoutExit {
        /// The level left behind (the new level is one lower, or 0).
        level: u64,
        /// The smoothed pressure reading at exit.
        pressure: f64,
    },
    /// A job was planned at degraded fidelity instead of being rejected.
    JobDegraded {
        /// Canonical job-spec content hash.
        job: u64,
        /// The fidelity rung it will be answered at (`hop`/`calibrated`).
        fidelity: String,
        /// Why: `brownout1`, `brownout2`, `queue_full`, `quota`, or
        /// `edge`.
        cause: String,
    },
    /// A job was shed by the admission controller (quota exhausted or
    /// queue overloaded with no degraded rung available).
    JobShed {
        /// Canonical job-spec content hash.
        job: u64,
        /// Client id the quota charged (empty when anonymous).
        client: String,
        /// Queue depth at the shed decision.
        queue_depth: u64,
    },
    /// The background upgrader replaced a degraded store entry with a
    /// fresh full-fidelity run of the same spec.
    ResultUpgraded {
        /// Canonical job-spec content hash (unchanged by the upgrade).
        job: u64,
        /// Fidelity tag of the entry that was replaced.
        from: String,
        /// Fidelity tag it was upgraded to.
        to: String,
    },
    /// A relay backend's circuit breaker changed state.
    BreakerTransition {
        /// Backend slot index in the relay's node table.
        node: u64,
        /// State left (`closed`/`open`/`half_open`).
        from: String,
        /// State entered.
        to: String,
    },
    /// The relay answered a shedable job from the edge at `fidelity=hop`
    /// because every owner was saturated or breaker-open.
    EdgeBrownout {
        /// Canonical job-spec content hash.
        job: u64,
    },
}

impl Event {
    /// Stable lower-snake discriminant name (the JSONL `"event"` field).
    pub fn kind_name(&self) -> &'static str {
        match self {
            Event::QuantumReport { .. } => "quantum_report",
            Event::WatchdogTrip { .. } => "watchdog_trip",
            Event::Degradation { .. } => "degradation",
            Event::SpecCommit { .. } => "spec_commit",
            Event::SpecRollback { .. } => "spec_rollback",
            Event::NocWindow { .. } => "noc_window",
            Event::EngineBatch { .. } => "engine_batch",
            Event::Span { .. } => "span",
            Event::JobAdmitted { .. } => "job_admitted",
            Event::JobRejected { .. } => "job_rejected",
            Event::CacheHit { .. } => "cache_hit",
            Event::JobDone { .. } => "job_done",
            Event::JournalReplay { .. } => "journal_replay",
            Event::WorkerRespawn { .. } => "worker_respawn",
            Event::JobQuarantined { .. } => "job_quarantined",
            Event::DeadlineCancel { .. } => "deadline_cancel",
            Event::NodeUp { .. } => "node_up",
            Event::NodeDown { .. } => "node_down",
            Event::Failover { .. } => "failover",
            Event::Reroute { .. } => "reroute",
            Event::WireBatch { .. } => "wire_batch",
            Event::BrownoutEnter { .. } => "brownout_enter",
            Event::BrownoutExit { .. } => "brownout_exit",
            Event::JobDegraded { .. } => "job_degraded",
            Event::JobShed { .. } => "job_shed",
            Event::ResultUpgraded { .. } => "result_upgraded",
            Event::BreakerTransition { .. } => "breaker_transition",
            Event::EdgeBrownout { .. } => "edge_brownout",
        }
    }

    /// Renders the event as one JSON object (the JSONL line format; see
    /// DESIGN.md "Observability" for the schema).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new(self.kind_name());
        match self {
            Event::QuantumReport {
                window,
                boundary,
                predicted,
                measured,
                drift,
                samples,
                quantum_before,
                quantum_after,
            } => {
                w.int("window", *window);
                w.int("boundary", *boundary);
                w.num("predicted", *predicted);
                w.num("measured", *measured);
                w.num("drift", *drift);
                w.int("samples", *samples);
                w.int("quantum_before", *quantum_before);
                w.int("quantum_after", *quantum_after);
            }
            Event::WatchdogTrip { cycle, cause } => {
                w.int("cycle", *cycle);
                w.str("cause", cause);
            }
            Event::Degradation { cycle, from, to } => {
                w.int("cycle", *cycle);
                w.str("from", from.name());
                w.str("to", to.name());
            }
            Event::SpecCommit {
                window,
                boundary,
                drift,
                speculated_cycles,
            } => {
                w.int("window", *window);
                w.int("boundary", *boundary);
                w.num("drift", *drift);
                w.int("speculated_cycles", *speculated_cycles);
            }
            Event::SpecRollback {
                window,
                boundary,
                drift,
                wasted_cycles,
                mismatches,
            } => {
                w.int("window", *window);
                w.int("boundary", *boundary);
                w.num("drift", *drift);
                w.int("wasted_cycles", *wasted_cycles);
                w.int("mismatches", *mismatches);
            }
            Event::NocWindow {
                island,
                from_cycle,
                to_cycle,
                router_steps,
                fast_forwarded,
                flits_delivered,
                occupancy,
                flits_dropped,
                reroutes,
                stall_cycles,
            } => {
                w.int("island", *island);
                w.int("from_cycle", *from_cycle);
                w.int("to_cycle", *to_cycle);
                w.int("router_steps", *router_steps);
                w.int("fast_forwarded", *fast_forwarded);
                w.int("flits_delivered", *flits_delivered);
                w.int_array("occupancy", occupancy);
                w.int("flits_dropped", *flits_dropped);
                w.int("reroutes", *reroutes);
                w.int("stall_cycles", *stall_cycles);
            }
            Event::EngineBatch {
                t0,
                cycles,
                workers,
                barrier_wait_ns,
                busy_ns,
                wait_ns,
                releases,
                min_range,
                max_range,
            } => {
                w.int("t0", *t0);
                w.int("cycles", *cycles);
                w.int("workers", *workers);
                w.int("barrier_wait_ns", *barrier_wait_ns);
                w.int("busy_ns", *busy_ns);
                w.int("wait_ns", *wait_ns);
                w.int("releases", *releases);
                w.int("min_range", *min_range);
                w.int("max_range", *max_range);
            }
            Event::Span { kind, nanos } => {
                w.str("span", kind.name());
                w.int("nanos", *nanos);
            }
            Event::JobAdmitted {
                job,
                queue_depth,
                priority,
            } => {
                w.hex("job", *job);
                w.int("queue_depth", *queue_depth);
                w.int("priority", *priority);
            }
            Event::JobRejected { job, queue_depth } => {
                w.hex("job", *job);
                w.int("queue_depth", *queue_depth);
            }
            Event::CacheHit { job } => {
                w.hex("job", *job);
            }
            Event::JobDone {
                job,
                outcome,
                queue_ns,
                run_ns,
                spec_commits,
                spec_rollbacks,
            } => {
                w.hex("job", *job);
                w.str("outcome", outcome);
                w.int("queue_ns", *queue_ns);
                w.int("run_ns", *run_ns);
                w.int("spec_commits", *spec_commits);
                w.int("spec_rollbacks", *spec_rollbacks);
            }
            Event::JournalReplay {
                recovered_results,
                resumed_jobs,
                dropped_tail_bytes,
                checksum_errors,
            } => {
                w.int("recovered_results", *recovered_results);
                w.int("resumed_jobs", *resumed_jobs);
                w.int("dropped_tail_bytes", *dropped_tail_bytes);
                w.int("checksum_errors", *checksum_errors);
            }
            Event::WorkerRespawn {
                worker,
                incarnation,
                job,
            } => {
                w.int("worker", *worker);
                w.int("incarnation", *incarnation);
                w.hex("job", *job);
            }
            Event::JobQuarantined { job, strikes } => {
                w.hex("job", *job);
                w.int("strikes", *strikes);
            }
            Event::DeadlineCancel { job, overrun_ms } => {
                w.hex("job", *job);
                w.int("overrun_ms", *overrun_ms);
            }
            Event::NodeUp { node, rtt_ns } => {
                w.int("node", *node);
                w.int("rtt_ns", *rtt_ns);
            }
            Event::NodeDown { node, failures } => {
                w.int("node", *node);
                w.int("failures", *failures);
            }
            Event::Failover { node, inflight } => {
                w.int("node", *node);
                w.int("inflight", *inflight);
            }
            Event::Reroute { job, from, to } => {
                w.hex("job", *job);
                w.int("from", *from);
                w.int("to", *to);
            }
            Event::WireBatch { verb, items } => {
                w.str("verb", verb);
                w.int("items", *items);
            }
            Event::BrownoutEnter { level, pressure } => {
                w.int("level", *level);
                w.num("pressure", *pressure);
            }
            Event::BrownoutExit { level, pressure } => {
                w.int("level", *level);
                w.num("pressure", *pressure);
            }
            Event::JobDegraded { job, fidelity, cause } => {
                w.hex("job", *job);
                w.str("fidelity", fidelity);
                w.str("cause", cause);
            }
            Event::JobShed {
                job,
                client,
                queue_depth,
            } => {
                w.hex("job", *job);
                w.str("client", client);
                w.int("queue_depth", *queue_depth);
            }
            Event::ResultUpgraded { job, from, to } => {
                w.hex("job", *job);
                w.str("from", from);
                w.str("to", to);
            }
            Event::BreakerTransition { node, from, to } => {
                w.int("node", *node);
                w.str("from", from);
                w.str("to", to);
            }
            Event::EdgeBrownout { job } => {
                w.hex("job", *job);
            }
        }
        w.finish()
    }
}

/// Appends `s` as a quoted JSON string.
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends a float with full precision; a non-finite one as `null`.
fn push_json_num(out: &mut String, x: f64) {
    if x.is_finite() {
        out.push_str(&format!("{x}"));
    } else {
        out.push_str("null");
    }
}

/// One field of a hand-built JSON object (see [`json_object`]).
#[derive(Debug, Clone)]
pub enum JsonField {
    /// A JSON string (escaped on output).
    Str(String),
    /// A float, emitted with full precision (`null` when not finite).
    Num(f64),
    /// An unsigned integer.
    Int(u64),
    /// Pre-formatted JSON emitted verbatim (nested objects built with
    /// [`json_object`]).
    Raw(String),
}

/// Formats one JSON object from field name/value pairs — the writer of
/// every JSON line the job service puts on the wire, in its journal and
/// in its result store.
///
/// # Example
///
/// ```
/// use ra_obs::{json_object, JsonField};
/// let row = json_object(&[
///     ("name", JsonField::Str("mesh".into())),
///     ("cycles", JsonField::Int(100)),
/// ]);
/// assert_eq!(row, r#"{"name":"mesh","cycles":100}"#);
/// ```
pub fn json_object(fields: &[(&str, JsonField)]) -> String {
    let mut out = String::from("{");
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(&mut out, key);
        out.push(':');
        push_json_field(&mut out, value);
    }
    out.push('}');
    out
}

/// Formats one JSON array, each item written as [`json_object`] writes a
/// field's value.
pub fn json_array(items: &[JsonField]) -> String {
    let mut out = String::from("[");
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_field(&mut out, item);
    }
    out.push(']');
    out
}

fn push_json_field(out: &mut String, value: &JsonField) {
    match value {
        JsonField::Str(s) => push_json_str(out, s),
        JsonField::Num(x) => push_json_num(out, *x),
        JsonField::Int(n) => out.push_str(&n.to_string()),
        JsonField::Raw(json) => out.push_str(json),
    }
}

/// The [`Event::to_json`] writer: one object, keyed by static
/// identifiers.
struct JsonWriter {
    out: String,
}

impl JsonWriter {
    fn new(event: &str) -> Self {
        let mut w = JsonWriter {
            out: String::with_capacity(128),
        };
        w.out.push('{');
        w.str("event", event);
        w
    }

    fn key(&mut self, key: &str) {
        if self.out.len() > 1 {
            self.out.push(',');
        }
        self.out.push('"');
        self.out.push_str(key); // keys are static identifiers, no escaping
        self.out.push_str("\":");
    }

    fn str(&mut self, key: &str, value: &str) {
        self.key(key);
        push_json_str(&mut self.out, value);
    }

    fn int(&mut self, key: &str, value: u64) {
        self.key(key);
        self.out.push_str(&value.to_string());
    }

    /// Writes a u64 as a zero-padded 16-digit hex *string* (job content
    /// hashes: a JSON number would lose precision past 2^53).
    fn hex(&mut self, key: &str, value: u64) {
        self.key(key);
        self.out.push('"');
        self.out.push_str(&format!("{value:016x}"));
        self.out.push('"');
    }

    fn num(&mut self, key: &str, value: f64) {
        self.key(key);
        push_json_num(&mut self.out, value);
    }

    fn int_array(&mut self, key: &str, values: &[u64]) {
        self.key(key);
        self.out.push('[');
        for (i, v) in values.iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            self.out.push_str(&v.to_string());
        }
        self.out.push(']');
    }

    fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

/// Consumes [`Event`]s. Implementations must be cheap per call: recorders
/// run under the sink's lock at window/quantum/batch boundaries.
pub trait Recorder: Send {
    /// Records one event.
    fn record(&mut self, event: &Event);

    /// Flushes any buffered output (no-op for in-memory recorders).
    ///
    /// # Errors
    ///
    /// I/O errors from streaming recorders.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Discards everything. The reference point for overhead measurements: an
/// *attached* sink whose recorder does no work, proving the event plumbing
/// itself is free of allocation and of observable effect on results.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn record(&mut self, _event: &Event) {}
}

/// Bounded in-memory recorder: keeps the most recent `capacity` events.
///
/// The buffer is allocated up front; steady-state recording of
/// allocation-free event variants performs no heap allocation (string-
/// carrying variants such as [`Event::WatchdogTrip`] are off the hot path
/// by construction).
#[derive(Debug)]
pub struct RingRecorder {
    buf: VecDeque<Event>,
    capacity: usize,
    seen: u64,
}

impl RingRecorder {
    /// A ring holding at most `capacity` events (at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        RingRecorder {
            buf: VecDeque::with_capacity(capacity),
            capacity,
            seen: 0,
        }
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.buf.iter()
    }

    /// Retained event count (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events ever recorded, including those evicted by the bound.
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

impl Recorder for RingRecorder {
    fn record(&mut self, event: &Event) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(event.clone());
        self.seen += 1;
    }
}

/// Streaming JSONL export: one JSON object per line, flushed on drop.
pub struct JsonlRecorder<W: Write + Send> {
    /// `None` only after [`into_inner`](JsonlRecorder::into_inner).
    out: Option<BufWriter<W>>,
    lines: u64,
    /// First write error, reported once via [`Recorder::flush`].
    error: Option<io::Error>,
}

impl JsonlRecorder<File> {
    /// Creates (truncating) the trace file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(Self::new(File::create(path)?))
    }
}

impl<W: Write + Send> JsonlRecorder<W> {
    /// Streams events into `writer`.
    pub fn new(writer: W) -> Self {
        JsonlRecorder {
            out: Some(BufWriter::new(writer)),
            lines: 0,
            error: None,
        }
    }

    /// Lines written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Consumes the recorder, flushing and returning the writer.
    ///
    /// # Errors
    ///
    /// The first deferred write error, or the final flush error.
    pub fn into_inner(mut self) -> io::Result<W> {
        if let Some(err) = self.error.take() {
            return Err(err);
        }
        self.out
            .take()
            .expect("writer present until into_inner")
            .into_inner()
            .map_err(|e| io::Error::other(e.to_string()))
    }
}

impl<W: Write + Send> Recorder for JsonlRecorder<W> {
    fn record(&mut self, event: &Event) {
        if self.error.is_some() {
            return;
        }
        let Some(out) = self.out.as_mut() else {
            return;
        };
        let line = event.to_json();
        if let Err(e) = out
            .write_all(line.as_bytes())
            .and_then(|()| out.write_all(b"\n"))
        {
            self.error = Some(e);
            return;
        }
        self.lines += 1;
    }

    fn flush(&mut self) -> io::Result<()> {
        if let Some(err) = self.error.take() {
            return Err(err);
        }
        match self.out.as_mut() {
            Some(out) => out.flush(),
            None => Ok(()),
        }
    }
}

impl<W: Write + Send> Drop for JsonlRecorder<W> {
    fn drop(&mut self) {
        if let Some(out) = self.out.as_mut() {
            let _ = out.flush();
        }
    }
}

/// Cloneable handle the instrumented layers hold. Disabled by default:
/// [`ObsSink::emit`] then costs one branch and never runs the event-
/// construction closure, so the simulators' hot paths are untouched.
///
/// Clones share the recorder, so one sink threaded through the coupler,
/// the NoC, and the engine interleaves their events into one stream.
#[derive(Clone, Default)]
pub struct ObsSink {
    rec: Option<Arc<Mutex<dyn Recorder>>>,
}

impl fmt::Debug for ObsSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObsSink")
            .field("enabled", &self.rec.is_some())
            .finish()
    }
}

impl ObsSink {
    /// The zero-cost default: every emit is skipped.
    pub fn disabled() -> Self {
        ObsSink::default()
    }

    /// Attaches `recorder`, returning the sink plus a typed handle for
    /// reading the recorder back after the run (the sink itself is
    /// type-erased).
    ///
    /// ```
    /// use ra_obs::{Event, ObsSink, RingRecorder, SpanKind};
    /// let (sink, ring) = ObsSink::attach(RingRecorder::new(16));
    /// sink.emit(|| Event::Span { kind: SpanKind::Calibrate, nanos: 5 });
    /// assert_eq!(ring.lock().unwrap().len(), 1);
    /// ```
    pub fn attach<R: Recorder + 'static>(recorder: R) -> (Self, Arc<Mutex<R>>) {
        let handle = Arc::new(Mutex::new(recorder));
        let rec: Arc<Mutex<dyn Recorder>> = handle.clone();
        (ObsSink { rec: Some(rec) }, handle)
    }

    /// True when a recorder is attached.
    pub fn enabled(&self) -> bool {
        self.rec.is_some()
    }

    /// Emits the event built by `f` — *if* a recorder is attached. The
    /// closure is the lazy-construction point: when the sink is disabled
    /// (the default), no event is built at all.
    #[inline]
    pub fn emit(&self, f: impl FnOnce() -> Event) {
        if let Some(rec) = &self.rec {
            let event = f();
            // A panicked recorder poisons the lock; observability must
            // never take the simulation down, so recover the guard.
            let mut rec = rec.lock().unwrap_or_else(|e| e.into_inner());
            rec.record(&event);
        }
    }

    /// Flushes the attached recorder (no-op when disabled).
    ///
    /// # Errors
    ///
    /// Propagates the recorder's flush error.
    pub fn flush(&self) -> io::Result<()> {
        match &self.rec {
            Some(rec) => rec.lock().unwrap_or_else(|e| e.into_inner()).flush(),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(nanos: u64) -> Event {
        Event::Span {
            kind: SpanKind::DetailedStep,
            nanos,
        }
    }

    #[test]
    fn disabled_sink_never_builds_events() {
        let sink = ObsSink::disabled();
        assert!(!sink.enabled());
        let mut built = false;
        sink.emit(|| {
            built = true;
            span(1)
        });
        assert!(!built, "closure must not run on a disabled sink");
        sink.flush().unwrap();
    }

    #[test]
    fn attached_sink_delivers_to_recorder() {
        let (sink, ring) = ObsSink::attach(RingRecorder::new(4));
        assert!(sink.enabled());
        for i in 0..3 {
            sink.emit(|| span(i));
        }
        let ring = ring.lock().unwrap();
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.seen(), 3);
    }

    #[test]
    fn cloned_sinks_share_one_recorder() {
        let (sink, ring) = ObsSink::attach(RingRecorder::new(8));
        let clone = sink.clone();
        sink.emit(|| span(1));
        clone.emit(|| span(2));
        assert_eq!(ring.lock().unwrap().len(), 2);
    }

    #[test]
    fn ring_is_bounded_and_keeps_newest() {
        let mut ring = RingRecorder::new(3);
        for i in 0..10 {
            ring.record(&span(i));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.seen(), 10);
        let kept: Vec<u64> = ring
            .events()
            .map(|e| match e {
                Event::Span { nanos, .. } => *nanos,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(kept, vec![7, 8, 9]);
    }

    #[test]
    fn json_raw_embeds_verbatim() {
        let row = json_object(&[("trips", JsonField::Raw("[{\"cycle\":5}]".into()))]);
        assert_eq!(row, "{\"trips\":[{\"cycle\":5}]}");
    }

    #[test]
    fn json_escapes_and_formats() {
        let row = json_object(&[
            ("s", JsonField::Str("a\"b\\c\nd".into())),
            ("x", JsonField::Num(1.5)),
            ("nan", JsonField::Num(f64::NAN)),
            ("n", JsonField::Int(7)),
        ]);
        assert_eq!(row, "{\"s\":\"a\\\"b\\\\c\\nd\",\"x\":1.5,\"nan\":null,\"n\":7}");
    }

    #[test]
    fn jsonl_writes_one_line_per_event() {
        let mut rec = JsonlRecorder::new(Vec::new());
        rec.record(&Event::QuantumReport {
            window: 3,
            boundary: 8000,
            predicted: 12.5,
            measured: 14.0,
            drift: 1.5,
            samples: 42,
            quantum_before: 2000,
            quantum_after: 1000,
        });
        rec.record(&Event::WatchdogTrip {
            cycle: 9000,
            cause: "fault: \"bad\"\nrouter".into(),
        });
        assert_eq!(rec.lines(), 2);
        let bytes = rec.into_inner().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"event\":\"quantum_report\",\"window\":3,\"boundary\":8000,\
             \"predicted\":12.5,\"measured\":14,\"drift\":1.5,\"samples\":42,\
             \"quantum_before\":2000,\"quantum_after\":1000}"
        );
        assert_eq!(
            lines[1],
            "{\"event\":\"watchdog_trip\",\"cycle\":9000,\
             \"cause\":\"fault: \\\"bad\\\"\\nrouter\"}"
        );
    }

    #[test]
    fn every_variant_serializes_with_its_kind_name() {
        let events = [
            Event::QuantumReport {
                window: 0,
                boundary: 0,
                predicted: 0.0,
                measured: 0.0,
                drift: f64::NAN,
                samples: 0,
                quantum_before: 1,
                quantum_after: 1,
            },
            Event::WatchdogTrip {
                cycle: 1,
                cause: "x".into(),
            },
            Event::Degradation {
                cycle: 2,
                from: DegradationState::Healthy,
                to: DegradationState::Degraded,
            },
            Event::SpecCommit {
                window: 4,
                boundary: 10_000,
                drift: 0.5,
                speculated_cycles: 2_000,
            },
            Event::SpecRollback {
                window: 5,
                boundary: 12_000,
                drift: 9.0,
                wasted_cycles: 2_000,
                mismatches: 3,
            },
            Event::NocWindow {
                island: 0,
                from_cycle: 0,
                to_cycle: 64,
                router_steps: 10,
                fast_forwarded: 3,
                flits_delivered: 5,
                occupancy: [1, 2, 3],
                flits_dropped: 0,
                reroutes: 0,
                stall_cycles: 0,
            },
            Event::EngineBatch {
                t0: 0,
                cycles: 64,
                workers: 4,
                barrier_wait_ns: 1000,
                busy_ns: 1500,
                wait_ns: 300,
                releases: 2,
                min_range: 10,
                max_range: 22,
            },
            Event::Span {
                kind: SpanKind::FullsysStep,
                nanos: 9,
            },
            Event::JobAdmitted {
                job: 0xDEAD_BEEF,
                queue_depth: 3,
                priority: 1,
            },
            Event::JobRejected {
                job: 0xDEAD_BEEF,
                queue_depth: 64,
            },
            Event::CacheHit { job: 0xDEAD_BEEF },
            Event::JobDone {
                job: 0xDEAD_BEEF,
                outcome: "ok".into(),
                queue_ns: 1_000,
                run_ns: 2_000,
                spec_commits: 4,
                spec_rollbacks: 1,
            },
            Event::JournalReplay {
                recovered_results: 12,
                resumed_jobs: 3,
                dropped_tail_bytes: 17,
                checksum_errors: 0,
            },
            Event::WorkerRespawn {
                worker: 1,
                incarnation: 2,
                job: 0xDEAD_BEEF,
            },
            Event::JobQuarantined {
                job: 0xDEAD_BEEF,
                strikes: 2,
            },
            Event::DeadlineCancel {
                job: 0xDEAD_BEEF,
                overrun_ms: 40,
            },
            Event::NodeUp { node: 0, rtt_ns: 120_000 },
            Event::NodeDown {
                node: 2,
                failures: 3,
            },
            Event::Failover {
                node: 2,
                inflight: 5,
            },
            Event::Reroute {
                job: 0xDEAD_BEEF,
                from: 2,
                to: 0,
            },
            Event::WireBatch {
                verb: "submit_batch".into(),
                items: 64,
            },
            Event::BrownoutEnter {
                level: 1,
                pressure: 1.4,
            },
            Event::BrownoutExit {
                level: 1,
                pressure: 0.3,
            },
            Event::JobDegraded {
                job: 0xDEAD_BEEF,
                fidelity: "hop".into(),
                cause: "brownout1".into(),
            },
            Event::JobShed {
                job: 0xDEAD_BEEF,
                client: "tenant-a".into(),
                queue_depth: 64,
            },
            Event::ResultUpgraded {
                job: 0xDEAD_BEEF,
                from: "hop".into(),
                to: "reciprocal".into(),
            },
            Event::BreakerTransition {
                node: 2,
                from: "closed".into(),
                to: "open".into(),
            },
            Event::EdgeBrownout { job: 0xDEAD_BEEF },
        ];
        for event in &events {
            let json = event.to_json();
            assert!(
                json.starts_with(&format!("{{\"event\":\"{}\"", event.kind_name())),
                "{json}"
            );
            assert!(json.ends_with('}'), "{json}");
        }
        // NaN drift must degrade to null, and the occupancy array must be
        // a JSON array.
        assert!(events[0].to_json().contains("\"drift\":null"));
        assert!(events[5].to_json().contains("\"occupancy\":[1,2,3]"));
        // Job hashes export as 16-digit hex strings, not JSON numbers
        // (precision past 2^53 must survive a JS JSON parser).
        assert!(events[8].to_json().contains("\"job\":\"00000000deadbeef\""));
    }

    #[test]
    fn jsonl_file_roundtrip() {
        let path = std::env::temp_dir().join("ra_obs_test_trace.jsonl");
        {
            let (sink, handle) =
                ObsSink::attach(JsonlRecorder::create(&path).unwrap());
            sink.emit(|| span(1));
            sink.emit(|| span(2));
            handle.lock().unwrap().flush().unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        std::fs::remove_file(&path).ok();
    }
}

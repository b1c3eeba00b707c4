//! Bit-equality of the NoC engines across every execution schedule.
//!
//! The serial engine with clock gating disabled is the reference schedule:
//! every router stepped every cycle, one cycle at a time. Everything else —
//! clock gating on or off, 1..8 parallel workers, batched multi-cycle jobs,
//! idle fast-forwarding — is supposed to be a pure *schedule* change, and
//! these tests hold them all to bit-identical [`NocStats`] (full structural
//! equality: counters, f64 latency accumulators, tables, histograms).

use proptest::prelude::*;
use reciprocal_abstraction::cosim::{ReciprocalNetwork, Target};
use reciprocal_abstraction::fullsys::FullSystem;
use reciprocal_abstraction::gpu::ParallelEngine;
use reciprocal_abstraction::noc::{
    InjectionProcess, NocConfig, NocNetwork, NocStats, TopologyKind, TrafficGen, TrafficPattern,
};
use reciprocal_abstraction::obs::{NullRecorder, ObsSink, RingRecorder};
use reciprocal_abstraction::sim::{Cycle, Network};
use reciprocal_abstraction::workloads::{AppProfile, AppWorkload};

/// Node-grid shape shared by all cases: 8x4 works for the mesh and a
/// concentration-2 CMesh alike.
const COLS: u32 = 8;
const ROWS: u32 = 4;
/// Cycles with traffic being offered.
const ACTIVE: u64 = 300;
/// Total cycles simulated (the tail past `ACTIVE` exercises draining, the
/// gated-idle window, and wake-up on nothing-left-to-do).
const TOTAL: u64 = 1_200;

/// Runs the fixed injection schedule on the given engine and returns the
/// final statistics. `workers == None` is the serial engine.
fn run(cfg: NocConfig, seed: u64, workers: Option<usize>) -> NocStats {
    let mut net = NocNetwork::new(cfg).unwrap();
    let mut gen = TrafficGen::new(
        COLS,
        ROWS,
        TrafficPattern::Uniform,
        InjectionProcess::Bernoulli { rate: 0.03 },
        seed,
    );
    let mut engine = workers.map(ParallelEngine::new);
    for now in 0..ACTIVE {
        gen.inject_cycle(&mut net, Cycle(now));
        match engine.as_mut() {
            Some(e) => e.step_cycles(&mut net, 1).unwrap(),
            None => net.tick(Cycle(now)),
        }
    }
    match engine.as_mut() {
        // The batched path: multi-cycle jobs, mid-batch releases, idle
        // fast-forward.
        Some(e) => e.run_cycles(&mut net, TOTAL - ACTIVE).unwrap(),
        None => net.tick(Cycle(TOTAL - 1)),
    }
    assert_eq!(net.next_cycle(), TOTAL);
    net.stats().clone()
}

fn config(topology: TopologyKind, seed: u64, gating: bool) -> NocConfig {
    NocConfig::new(COLS, ROWS)
        .with_topology(topology)
        .with_seed(seed)
        .with_clock_gating(gating)
}

const TOPOLOGIES: [TopologyKind; 2] = [
    TopologyKind::Mesh,
    TopologyKind::CMesh { concentration: 2 },
];

/// The pinned matrix the acceptance criteria name: every topology, three
/// seeds each, link latencies 1 to 3 (multi-slot wire rings), workers in
/// {1, 2, 4, 8}, gating on and off — all against the ungated serial
/// reference.
#[test]
fn engine_matrix_is_bit_identical_to_serial_reference() {
    for latency in [1u32, 2, 3] {
        for topology in TOPOLOGIES {
            for seed in [1u64, 7, 23] {
                let cfg = |gating| config(topology, seed, gating).with_link_latency(latency);
                let case = format!("{topology:?} seed {seed} latency {latency}");
                let reference = run(cfg(false), seed, None);
                assert!(reference.delivered > 0, "sterile case: {case}");
                // Serial + gating must match before parallelism enters.
                let gated = run(cfg(true), seed, None);
                assert_eq!(reference, gated, "serial gated: {case}");
                for workers in [1usize, 2, 4, 8] {
                    for gating in [false, true] {
                        let candidate = run(cfg(gating), seed, Some(workers));
                        assert_eq!(
                            reference, candidate,
                            "{case} workers {workers} gating {gating}"
                        );
                    }
                }
            }
        }
    }
}

/// Runs the fixed schedule with an observability sink attached to both the
/// network and the engine. Recording must be a pure observer: whatever the
/// sink does with events, the simulated statistics cannot move.
fn run_observed(sink: ObsSink, workers: Option<usize>) -> NocStats {
    let mut net = NocNetwork::new(config(TopologyKind::Mesh, 5, true)).unwrap();
    net.set_sink(sink.clone());
    let mut gen = TrafficGen::new(
        COLS,
        ROWS,
        TrafficPattern::Uniform,
        InjectionProcess::Bernoulli { rate: 0.03 },
        5,
    );
    let mut engine = workers.map(ParallelEngine::new);
    if let Some(e) = engine.as_mut() {
        e.set_sink(sink);
    }
    for now in 0..ACTIVE {
        gen.inject_cycle(&mut net, Cycle(now));
        match engine.as_mut() {
            Some(e) => e.step_cycles(&mut net, 1).unwrap(),
            None => net.tick(Cycle(now)),
        }
    }
    match engine.as_mut() {
        Some(e) => e.run_cycles(&mut net, TOTAL - ACTIVE).unwrap(),
        None => net.tick(Cycle(TOTAL - 1)),
    }
    net.stats().clone()
}

/// Attaching a recorder — null or ring — must leave NocStats bit-identical
/// to the unobserved run, on both the serial and the parallel engine.
#[test]
fn recorders_never_perturb_noc_results() {
    for workers in [None, Some(2)] {
        let unobserved = run_observed(ObsSink::disabled(), workers);
        assert!(unobserved.delivered > 0, "sterile case: workers {workers:?}");

        let (null_sink, _null) = ObsSink::attach(NullRecorder);
        assert_eq!(
            unobserved,
            run_observed(null_sink, workers),
            "NullRecorder perturbed results (workers {workers:?})"
        );

        let (ring_sink, ring) = ObsSink::attach(RingRecorder::new(4_096));
        assert_eq!(
            unobserved,
            run_observed(ring_sink, workers),
            "RingRecorder perturbed results (workers {workers:?})"
        );
        // The parallel engine emits per-batch events; the observed run must
        // actually have been observed for the equality above to mean much.
        if workers.is_some() {
            assert!(
                !ring.lock().unwrap().is_empty(),
                "engine run recorded no events"
            );
        }
    }
}

/// Same invariant at the co-simulation level: a full reciprocal run with a
/// RingRecorder wired through coupler, NoC, and engine must reproduce the
/// unobserved run exactly — cycles, messages, and the detailed NocStats.
#[test]
fn observed_cosim_run_is_bit_identical() {
    fn run(sink: ObsSink) -> (u64, u64, NocStats) {
        let target = Target::cmp(4, 4);
        let coupler = ReciprocalNetwork::new(target.noc.clone(), 400, 0)
            .unwrap()
            .with_sink(sink);
        let workload = AppWorkload::new(AppProfile::radix(), 16, 9);
        let mut sys = FullSystem::new(target.fullsys.clone(), coupler, workload).unwrap();
        let cycles = sys.run_until_instructions(400, 5_000_000).unwrap();
        let messages = sys.stats().total_messages();
        (cycles, messages, sys.into_network().detailed().stats().clone())
    }
    let unobserved = run(ObsSink::disabled());
    let (ring_sink, ring) = ObsSink::attach(RingRecorder::new(4_096));
    let observed = run(ring_sink);
    assert_eq!(unobserved, observed);
    let ring = ring.lock().unwrap();
    assert!(ring.seen() > 0, "co-sim run recorded no events");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Randomized sweep over the same space, with free seeds and worker
    /// counts: any (topology, workers, gating) point must reproduce the
    /// ungated serial reference bit for bit.
    #[test]
    fn any_schedule_matches_serial_reference(
        topology in prop_oneof![
            Just(TopologyKind::Mesh),
            Just(TopologyKind::CMesh { concentration: 2 }),
        ],
        workers in prop_oneof![Just(1usize), Just(2usize), Just(4usize), Just(8usize)],
        gating in any::<bool>(),
        seed in 0u64..10_000,
    ) {
        let reference = run(config(topology, seed, false), seed, None);
        let candidate = run(config(topology, seed, gating), seed, Some(workers));
        prop_assert_eq!(reference, candidate);
    }
}

/// The speculative quantum pipeline (`pipeline=on`) must be a pure
/// *schedule* change too: overlapping the full system's next quantum with
/// the detailed replay of the previous one — including every rollback and
/// re-execution — may not move a single simulated statistic. These tests
/// hold the pipelined schedule to bit-identical results against the serial
/// reference: run-level stats, the coupler's exchange fingerprint, and the
/// detailed NoC's full [`NocStats`].
mod speculative_pipeline {
    use proptest::prelude::*;
    use reciprocal_abstraction::cosim::{ModeSpec, RunResult, RunSpec, Target};
    use reciprocal_abstraction::noc::{FaultPlan, NocStats, TopologyKind};
    use reciprocal_abstraction::sim::Summary;
    use reciprocal_abstraction::workloads::AppProfile;

    use super::TOPOLOGIES;

    /// The deterministic slice of a reciprocal run: everything except
    /// wall-clock durations and the speculation counters themselves (the
    /// serial schedule has zero commits and rollbacks by construction).
    /// (Shared with the chiplet matrix below, which holds multi-die runs
    /// to the same bit-identical standard.)
    #[derive(Debug, PartialEq)]
    pub(crate) struct Fingerprint {
        cycles: u64,
        messages: u64,
        ipc_bits: u64,
        latency: Summary,
        class_latency: Vec<Summary>,
        calibrations: u64,
        measured: u64,
        drift: Summary,
        detailed_cycles: u64,
        quanta_degraded: u64,
        messages_rerouted: u64,
        watchdog_trips: u64,
        model_resyncs: u64,
        noc: NocStats,
    }

    pub(crate) fn fingerprint(r: &RunResult) -> Fingerprint {
        let c = r.coupler.as_ref().expect("reciprocal run");
        Fingerprint {
            cycles: r.cycles,
            messages: r.messages,
            ipc_bits: r.ipc.to_bits(),
            latency: r.latency,
            class_latency: r.class_latency.clone(),
            calibrations: c.calibrations,
            measured: c.measured,
            drift: c.drift,
            detailed_cycles: c.detailed_cycles,
            quanta_degraded: c.quanta_degraded,
            messages_rerouted: c.messages_rerouted,
            watchdog_trips: c.watchdog_trips,
            model_resyncs: c.model_resyncs,
            noc: c.noc.clone().expect("driver captures detailed stats"),
        }
    }

    /// An 8x4 CMP with the NoC rebuilt on the given topology (and an
    /// optional scripted fault plan).
    fn target(topology: TopologyKind, faults: Option<FaultPlan>) -> Target {
        let mut target = Target::cmp(super::COLS, super::ROWS);
        let mut noc = target.noc.clone().with_topology(topology);
        if let Some(plan) = faults {
            noc = noc.with_faults(plan);
        }
        target.noc = noc;
        target
    }

    fn run(target: &Target, seed: u64, workers: usize, pipeline: bool) -> RunResult {
        RunSpec::new(target, &AppProfile::water())
            .mode(ModeSpec::Reciprocal { quantum: 300, workers, pipeline })
            .instructions(150)
            .budget(500_000)
            .seed(seed)
            .run()
            .expect("reciprocal run")
    }

    /// The pinned matrix the acceptance criteria name: pipeline=on across
    /// every topology, three seeds, workers in {1, 2, 4, 8} — all bit-
    /// identical to the serial (workers=0, pipeline=off) reference.
    #[test]
    fn pipelined_matrix_is_bit_identical_to_serial() {
        for topology in TOPOLOGIES {
            for seed in [1u64, 7, 23] {
                let t = target(topology, None);
                let reference = run(&t, seed, 0, false);
                assert!(reference.messages > 0, "sterile case: {topology:?}/{seed}");
                let reference = fingerprint(&reference);
                for workers in [1usize, 2, 4, 8] {
                    let piped = run(&t, seed, workers, true);
                    let c = piped.coupler.as_ref().expect("reciprocal run");
                    assert!(
                        c.spec_commits + c.spec_rollbacks > 0,
                        "pipelined run never speculated: {topology:?}/{seed}/{workers}"
                    );
                    assert_eq!(
                        reference,
                        fingerprint(&piped),
                        "{topology:?} seed {seed} workers {workers}"
                    );
                }
            }
        }
    }

    /// The 256-core operating point: ocean at `quantum=500`, 1,000
    /// instructions per core, seed 42, pipelined against serial. The
    /// pipeline must match the serial run bit for bit while rolling back
    /// fewer than half of its speculated windows. Release only; CI runs it
    /// in its release test steps.
    #[test]
    #[cfg_attr(debug_assertions, ignore)]
    fn ocean_256_pipeline_matches_serial_and_mostly_commits() {
        let target = Target::preset(256).expect("preset");
        let run = |pipeline: bool| {
            RunSpec::new(&target, &AppProfile::ocean())
                .mode(ModeSpec::Reciprocal { quantum: 500, workers: 0, pipeline })
                .instructions(1_000)
                .budget(20_000_000)
                .seed(42)
                .run()
                .expect("reciprocal run")
        };
        let serial = run(false);
        let piped = run(true);
        let c = piped.coupler.as_ref().expect("reciprocal run");
        let decided = c.spec_commits + c.spec_rollbacks;
        assert!(decided > 0, "the pipelined run never speculated");
        assert!(
            c.spec_rollbacks * 2 < decided,
            "{} of {decided} speculated windows rolled back",
            c.spec_rollbacks
        );
        assert_eq!(fingerprint(&serial), fingerprint(&piped));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Forced-rollback sweep: a scripted router stall spikes the
        /// detailed NoC's latency mid-run, so the post-replay re-fit
        /// diverges from the prediction the speculative quantum ran on.
        /// The pipeline must roll back and converge to the serial
        /// timeline bit for bit, and every completed window must be
        /// accounted for as exactly one commit or one rollback.
        #[test]
        fn forced_rollbacks_converge_to_serial(
            stall_from in 200u64..1_500,
            stall_len in 150u64..600,
            seed in 0u64..1_000,
        ) {
            let plan = FaultPlan::new().stall_router(5, stall_from, stall_from + stall_len);
            let t = target(TopologyKind::Mesh, Some(plan));
            let serial = run(&t, seed, 0, false);
            let piped = run(&t, seed, 0, true);
            let c = piped.coupler.as_ref().expect("reciprocal run");
            prop_assert!(
                c.spec_rollbacks > 0,
                "the stall must force at least one rollback: {c:?}"
            );
            // Every speculated window is accounted for exactly once: a
            // calibrated window is one commit or one rollback, and a
            // window whose join discovers a watchdog trip commits as
            // degraded without calibrating.
            prop_assert_eq!(
                c.spec_commits + c.spec_rollbacks,
                c.calibrations + c.watchdog_trips,
                "decided windows must equal calibrated + tripped windows"
            );
            prop_assert_eq!(fingerprint(&serial), fingerprint(&piped));
        }
    }
}

/// Multi-die targets must uphold the same contract: a chiplet system —
/// two mesh islands in lockstep across an interposer, carrying the DNN
/// pipeline's cross-die tensor traffic — run under reciprocal abstraction
/// must be bit-identical across clock-gating settings and with the
/// speculative pipeline on. The island batching and the banded (on-die vs
/// cross-die) calibration are part of the simulated state, so they are
/// covered by the same full-fingerprint comparison. A chiplet coupler steps
/// serially at any `workers`, so the parallel engine is held to the serial
/// tick on the interposer's lockstep batches directly.
mod chiplet_matrix {
    use reciprocal_abstraction::cosim::{
        InterposerClass, ModeSpec, RecordedMessage, RunResult, RunSpec, Target, TrafficRecord,
    };
    use reciprocal_abstraction::fullsys::FullSystem;
    use reciprocal_abstraction::gpu::ParallelEngine;
    use reciprocal_abstraction::netmodel::{AbstractNetwork, HopLatency, HopMetric};
    use reciprocal_abstraction::noc::{ChipletNetwork, InterposerStats, NocStats};
    use reciprocal_abstraction::sim::{Cycle, Delivery, Network};
    use reciprocal_abstraction::workloads::{DnnSpec, WorkSpec};

    use super::speculative_pipeline::{fingerprint, Fingerprint};

    /// Two 4x4 islands over a silicon interposer, with gating toggled on
    /// the shared island config.
    fn target(gating: bool) -> Target {
        let mut target = Target::chiplet(2, 4, 4, InterposerClass::Silicon);
        target.noc = target.noc.clone().with_clock_gating(gating);
        target
    }

    /// A reciprocal run of the DNN pipeline (one stage pinned per island,
    /// so every inter-stage tensor crosses the interposer).
    fn run(target: &Target, seed: u64, workers: usize, pipeline: bool) -> RunResult {
        RunSpec::for_work(target, WorkSpec::Dnn(DnnSpec::default()))
            .mode(ModeSpec::Reciprocal { quantum: 300, workers, pipeline })
            .instructions(150)
            .budget(1_000_000)
            .seed(seed)
            .run()
            .expect("chiplet reciprocal run")
    }

    fn reference(seed: u64) -> Fingerprint {
        let serial = run(&target(false), seed, 0, false);
        assert!(serial.messages > 0, "sterile chiplet run: seed {seed}");
        let c = serial.coupler.as_ref().expect("reciprocal run");
        assert!(c.calibrations > 0, "no calibration exchanges: seed {seed}");
        fingerprint(&serial)
    }

    /// The DNN pipeline's message stream over the hop model.
    fn traffic(target: &Target, seed: u64) -> Vec<RecordedMessage> {
        let workload = WorkSpec::Dnn(DnnSpec::default())
            .build(target.cores(), target.fullsys.islands, seed)
            .expect("workload");
        let metric = HopMetric::Chiplet {
            islands: target.fullsys.islands,
            island: target.noc.shape,
        };
        let hop = AbstractNetwork::new(HopLatency::default(), metric, target.noc.flit_bytes);
        let mut sys = FullSystem::new(target.fullsys.clone(), TrafficRecord::new(hop), workload)
            .expect("full system");
        sys.run_until_instructions(150, 1_000_000).expect("traffic run");
        sys.into_network().into_log()
    }

    /// Replays `log` into a fresh chiplet network in 300-cycle windows, as
    /// a coupler feeds its quanta, then 3,000 cycles more. Each window is
    /// stepped by `advance_serial_to`, or with `workers` by `advance_to`
    /// handing every island's lockstep batch to a [`ParallelEngine`].
    fn replay(
        target: &Target,
        log: &[RecordedMessage],
        workers: Option<usize>,
    ) -> (NocStats, InterposerStats, Vec<Delivery>) {
        let mut net = ChipletNetwork::new(target.noc.clone()).expect("chiplet network");
        let mut engine = workers.map(ParallelEngine::new);
        let (mut deliveries, mut next) = (Vec::new(), 0);
        let last = log.last().expect("traffic").at.0 + 3_000;
        for end in (299..last).step_by(300) {
            while let Some(r) = log.get(next).filter(|r| r.at.0 <= end) {
                net.inject(r.msg, r.at);
                next += 1;
            }
            match engine.as_mut() {
                None => net.advance_serial_to(end),
                Some(engine) => net
                    .advance_to(end, &mut |island, end| {
                        let cycles = (end + 1).saturating_sub(island.next_cycle());
                        engine.run_cycles(island, cycles)
                    })
                    .expect("engine replay"),
            }
            deliveries.extend(net.drain_delivered(Cycle(end)));
        }
        assert!(!deliveries.is_empty(), "sterile replay");
        (net.stats(), net.interposer_stats(), deliveries)
    }

    /// The pinned chiplet matrix, two seeds by gating off and on: the
    /// gated coupler against the ungated serial reference on the full
    /// fingerprint, and the run's traffic stepped by the engine at
    /// `workers` 2 and 4 against the serial tick on the `NocStats`, the
    /// interposer counters and every delivery.
    #[test]
    fn chiplet_matrix_is_bit_identical_to_serial() {
        for seed in [1u64, 7] {
            let reference = reference(seed);
            let gated = run(&target(true), seed, 0, false);
            assert_eq!(reference, fingerprint(&gated), "chiplet seed {seed} gated");
            for gating in [false, true] {
                let target = target(gating);
                let log = traffic(&target, seed);
                let serial = replay(&target, &log, None);
                assert!(serial.1.crossings > 0, "no interposer traffic: seed {seed}");
                for workers in [2usize, 4] {
                    assert_eq!(
                        serial,
                        replay(&target, &log, Some(workers)),
                        "chiplet seed {seed} workers {workers} gating {gating}"
                    );
                }
            }
        }
    }

    /// The speculative quantum pipeline over a chiplet system: the
    /// checkpoint/replay schedule must leave every simulated statistic —
    /// including the merged per-island NoC stats — untouched.
    #[test]
    fn pipelined_chiplet_runs_are_bit_identical_to_serial() {
        for seed in [1u64, 7] {
            let reference = reference(seed);
            let piped = run(&target(false), seed, 0, true);
            let c = piped.coupler.as_ref().expect("reciprocal run");
            assert!(
                c.spec_commits + c.spec_rollbacks > 0,
                "pipelined chiplet run never speculated: seed {seed}"
            );
            assert_eq!(reference, fingerprint(&piped), "chiplet pipeline seed {seed}");
        }
    }
}

/// A non-pipelined single-die coupler on the parallel engine must be a pure
/// schedule change as well: `workers` 2 and 4 against the serial
/// (`workers=0`) run, compared on the full fingerprint (the detailed NoC's
/// [`NocStats`] included) and on every recorded `noc_window` and
/// `quantum_report` event.
mod parallel_coupler {
    use reciprocal_abstraction::cosim::{
        InterposerClass, ModeSpec, ReciprocalNetwork, RunResult, RunSpec, Target,
    };
    use reciprocal_abstraction::noc::{NocConfig, NocStats, TopologyKind};
    use reciprocal_abstraction::obs::{Event, ObsSink, RingRecorder};
    use reciprocal_abstraction::sim::{Cycle, MessageClass, NetMessage, Network, NodeId};
    use reciprocal_abstraction::workloads::{AppProfile, DnnSpec, WorkSpec};

    use super::speculative_pipeline::{fingerprint, Fingerprint};
    use super::TOPOLOGIES;

    /// The recorded events every schedule must reproduce: what the
    /// detailed windows did and what each calibration measured.
    fn simulated(events: impl Iterator<Item = Event>) -> Vec<Event> {
        events
            .filter(|e| matches!(e, Event::NocWindow { .. } | Event::QuantumReport { .. }))
            .collect()
    }

    fn run(target: &Target, seed: u64, workers: usize) -> (Fingerprint, Vec<Event>) {
        let (sink, ring) = ObsSink::attach(RingRecorder::new(1 << 16));
        let result: RunResult = RunSpec::new(target, &AppProfile::water())
            .mode(ModeSpec::Reciprocal { quantum: 300, workers, pipeline: false })
            .instructions(150)
            .budget(500_000)
            .seed(seed)
            .recorder(sink)
            .run()
            .expect("reciprocal run");
        assert!(result.calibrations > 1, "too few windows");
        let overlap = result.coupler.as_ref().expect("reciprocal run").overlap_busy;
        assert_eq!(workers >= 2, !overlap.is_zero(), "the overlapped schedule ran");
        let ring = ring.lock().unwrap();
        assert_eq!(ring.seen(), ring.len() as u64, "the ring dropped events");
        (fingerprint(&result), simulated(ring.events().cloned()))
    }

    /// Every topology, seeds 1, 7 and 23, link latency 1 and 3, quantum
    /// 300: `workers` 2 and 4 against `workers=0`.
    #[test]
    fn parallel_coupler_matrix_is_bit_identical_to_serial() {
        for topology in TOPOLOGIES {
            for latency in [1u32, 3] {
                let mut target = Target::cmp(super::COLS, super::ROWS);
                target.noc = target
                    .noc
                    .clone()
                    .with_topology(topology)
                    .with_link_latency(latency);
                for seed in [1u64, 7, 23] {
                    let case = format!("{topology:?} latency {latency} seed {seed}");
                    let (reference, events) = run(&target, seed, 0);
                    for workers in [2usize, 4] {
                        let (candidate, candidate_events) = run(&target, seed, workers);
                        assert_eq!(reference, candidate, "{case} workers {workers}");
                        assert_eq!(events, candidate_events, "{case} workers {workers}: events");
                    }
                }
            }
        }
    }

    /// A low-load coupler stepped by hand: each 300-cycle window carries a
    /// burst that drains early, then one late injection. The run stops on
    /// a boundary, so the detailed NoC has stepped exactly the calibrated
    /// windows under every schedule.
    #[test]
    fn drained_windows_with_late_injections_match_serial() {
        fn run(workers: usize) -> (u64, u64, u64, NocStats, Vec<Event>) {
            let (sink, ring) = ObsSink::attach(RingRecorder::new(1 << 12));
            let cfg = NocConfig::new(super::COLS, super::ROWS).with_topology(TopologyKind::Mesh);
            let mut net = ReciprocalNetwork::new(cfg, 300, workers)
                .unwrap()
                .with_sink(sink);
            let mut id = 0u64;
            let last = 300 * 8;
            for now in 0..=last {
                let offset = now % 300;
                if offset < 12 || offset == 287 {
                    let src = (id * 5 % 32) as u32;
                    let dst = ((id * 11 + 7) % 32) as u32;
                    let msg = NetMessage::new(id, NodeId(src), NodeId(dst), MessageClass::Request, 8);
                    net.inject(msg, Cycle(now));
                    id += 1;
                }
                net.tick(Cycle(now));
            }
            assert!(net.finalize(last + 1));
            let stats = net.stats();
            let noc = net.detailed().stats();
            let events = simulated(ring.lock().unwrap().events().cloned());
            (stats.calibrations, stats.measured, stats.detailed_cycles, noc, events)
        }
        let reference = run(0);
        assert_eq!(reference.0, 8, "one calibration per window");
        for workers in [2usize, 4] {
            assert_eq!(reference, run(workers), "workers {workers}");
        }
    }

    /// DESIGN.md's schedule table: the coupler builds a parallel engine
    /// only for a single die with `workers >= 2`. A chiplet target at any
    /// `workers`, and a single die at `workers=1`, step on the serial tick
    /// and run no engine batch.
    #[test]
    fn only_a_single_die_with_two_workers_runs_engine_batches() {
        let batches = |target: &Target, work: WorkSpec, workers: usize| {
            let (sink, ring) = ObsSink::attach(RingRecorder::new(1 << 16));
            RunSpec::for_work(target, work)
                .mode(ModeSpec::Reciprocal { quantum: 300, workers, pipeline: false })
                .instructions(150)
                .budget(1_000_000)
                .seed(1)
                .recorder(sink)
                .run()
                .expect("reciprocal run");
            let ring = ring.lock().unwrap();
            assert_eq!(ring.seen(), ring.len() as u64, "the ring dropped events");
            let engine = ring.events().filter(|e| matches!(e, Event::EngineBatch { .. }));
            engine.count()
        };
        let chiplet = Target::chiplet(2, 4, 4, InterposerClass::Silicon);
        let dnn = || WorkSpec::Dnn(DnnSpec::default());
        for workers in [2usize, 4] {
            assert_eq!(batches(&chiplet, dnn(), workers), 0, "chiplet workers {workers}");
        }
        let die = Target::cmp(super::COLS, super::ROWS);
        let water = || WorkSpec::Profile(AppProfile::water());
        assert_eq!(batches(&die, water(), 1), 0, "single die workers 1");
        assert!(batches(&die, water(), 2) > 0, "single die workers 2");
    }
}

/// The service layer must be schedule-transparent too: N identical
/// [`JobSpec`]s submitted concurrently, in shuffled priority order, must
/// yield results bit-identical to a plain serial [`RunSpec::run`] — and
/// must cost exactly one simulation (single-flight + memoization).
///
/// [`JobSpec`]: reciprocal_abstraction::serve::JobSpec
/// [`RunSpec::run`]: reciprocal_abstraction::cosim::RunSpec::run
mod service_schedule_transparency {
    use reciprocal_abstraction::cosim::RunResult;
    use reciprocal_abstraction::obs::{ObsSink, RingRecorder};
    use reciprocal_abstraction::serve::{
        Disposition, JobOutcome, JobService, JobSpec, Priority, ServeConfig,
    };

    const SPEC: &str =
        "target=4x4 app=water mode=reciprocal:quantum=500,workers=2 instructions=200 \
         budget=500000 seed=1";

    /// The deterministic slice of a [`RunResult`] (wall-clock `Duration`s
    /// excluded — they legitimately vary run to run).
    #[derive(Debug, PartialEq)]
    struct Fingerprint {
        cycles: u64,
        messages: u64,
        ipc_bits: u64,
        calibrations: u64,
        latency: reciprocal_abstraction::sim::Summary,
        class_latency: Vec<reciprocal_abstraction::sim::Summary>,
    }

    fn fingerprint(result: &RunResult) -> Fingerprint {
        Fingerprint {
            cycles: result.cycles,
            messages: result.messages,
            ipc_bits: result.ipc.to_bits(),
            calibrations: result.calibrations,
            latency: result.latency,
            class_latency: result.class_latency.clone(),
        }
    }

    #[test]
    fn concurrent_identical_jobs_match_the_serial_run_bit_for_bit() {
        let spec: JobSpec = SPEC.parse().expect("canonical spec");
        let reference = fingerprint(&spec.to_run_spec().run().expect("serial run"));

        let (sink, ring) = ObsSink::attach(RingRecorder::new(8192));
        let service = JobService::start(
            ServeConfig {
                workers: 4,
                ..ServeConfig::default()
            },
            sink,
        )
        .expect("service starts");

        // Shuffled priority order across the concurrent submitters: the
        // outcome must not depend on who wins the race to enqueue.
        let priorities = [
            Priority::High,
            Priority::Low,
            Priority::Normal,
            Priority::High,
            Priority::Normal,
            Priority::Low,
            Priority::Low,
            Priority::High,
        ];
        let fingerprints: Vec<Fingerprint> = std::thread::scope(|scope| {
            let handles: Vec<_> = priorities
                .iter()
                .map(|&priority| {
                    let service = &service;
                    let spec = spec.clone();
                    scope.spawn(move || {
                        let receipt = service.submit(spec, priority, None).expect("admitted");
                        match service.wait(receipt.ticket, None).expect("job finishes") {
                            JobOutcome::Completed { result, .. } => fingerprint(&result),
                            other => panic!("job should complete: {other:?}"),
                        }
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("submitter")).collect()
        });
        for (i, fp) in fingerprints.iter().enumerate() {
            assert_eq!(
                fp, &reference,
                "submitter {i} saw a result differing from the serial reference"
            );
        }

        // Single-flight + memoization: one simulation total, and a late
        // resubmission is a cache hit that never reaches a worker.
        let stats = service.stats();
        assert_eq!(stats.completed, 1, "exactly one simulation may run: {stats:?}");
        assert_eq!(
            stats.cache_hits + stats.coalesced + stats.admitted,
            priorities.len() as u64,
            "every submission is accounted for: {stats:?}"
        );
        let late = service
            .submit(spec.clone(), Priority::Normal, None)
            .expect("admitted");
        assert_eq!(late.disposition, Disposition::CacheHit);
        match service.wait(late.ticket, None).expect("cached outcome") {
            JobOutcome::Completed { result, cached, .. } => {
                assert!(cached);
                assert_eq!(fingerprint(&result), reference);
            }
            other => panic!("cached job should complete: {other:?}"),
        }
        service.shutdown();

        let ring = ring.lock().unwrap();
        let job_done = ring
            .events()
            .filter(|e| e.kind_name() == "job_done")
            .count();
        assert_eq!(job_done, 1, "the obs stream must record exactly one run");
    }

    /// Recovery paths must be schedule-transparent too: a job the reaper
    /// cooperatively cancels mid-run (deadline exceeded), then resubmitted
    /// fresh, must produce a result bit-identical to the uninterrupted
    /// serial run. Interrupting a simulation may not leak any state into
    /// the next attempt.
    #[test]
    fn a_deadline_cancelled_job_reruns_bit_identically() {
        use reciprocal_abstraction::obs::ObsSink as Sink;
        use std::time::Duration;

        // A release build needs about 330 ms for this job, 15x its 20 ms
        // deadline, so the deadline always lands mid-run (a debug build
        // runs it twice, for the reference and the rerun, in about 8 s).
        const SLOW: &str =
            "target=2x2 app=water mode=fixed:10 instructions=800000 budget=1000000000";
        let spec: JobSpec = SLOW.parse().expect("canonical spec");
        let reference = fingerprint(&spec.to_run_spec().run().expect("serial run"));

        let service = JobService::start(
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
            Sink::disabled(),
        )
        .expect("service starts");

        let doomed = service
            .submit(spec.clone(), Priority::Normal, Some(Duration::from_millis(20)))
            .expect("admitted");
        match service.wait(doomed.ticket, None).expect("job settles") {
            JobOutcome::DeadlineExceeded => {}
            other => panic!("the deadline should cancel the run mid-flight: {other:?}"),
        }

        // The cancelled attempt must not have been memoized, and the fresh
        // run must match the serial reference exactly.
        let rerun = service
            .submit(spec, Priority::Normal, None)
            .expect("admitted");
        assert!(
            matches!(rerun.disposition, Disposition::Enqueued { .. }),
            "a cancelled attempt must not satisfy the resubmission: {:?}",
            rerun.disposition
        );
        match service.wait(rerun.ticket, None).expect("job finishes") {
            JobOutcome::Completed { result, cached, .. } => {
                assert!(!cached, "the rerun must be a fresh simulation");
                assert_eq!(
                    fingerprint(&result),
                    reference,
                    "an interrupted attempt perturbed the rerun"
                );
            }
            other => panic!("rerun should complete: {other:?}"),
        }
        service.shutdown();
    }
}

/// The fidelity ladder must be determinism-preserving rung by rung: a
/// *degraded* answer the service produces under overload must be
/// bit-identical to running the cheaper configuration directly, and a
/// background *upgrade* must be bit-identical to the uninterrupted full
/// run. Degradation changes which simulation runs — never what any
/// given simulation produces.
mod fidelity_tier_transparency {
    use reciprocal_abstraction::cosim::{ModeSpec, RunResult};
    use reciprocal_abstraction::obs::ObsSink;
    use reciprocal_abstraction::serve::{
        Disposition, Fidelity, JobOutcome, JobService, JobSpec, Priority, ServeConfig,
        SubmitParams,
    };
    use std::time::{Duration, Instant};

    const FILLER: &str = "target=2x2 app=water mode=fixed:10 instructions=20 budget=100000";

    fn spec(seed: u64) -> JobSpec {
        format!(
            "target=4x4 app=water mode=reciprocal:quantum=500,workers=2 instructions=200 \
             budget=500000 seed={seed}"
        )
        .parse()
        .expect("canonical spec")
    }

    #[derive(Debug, PartialEq)]
    struct Fingerprint {
        cycles: u64,
        messages: u64,
        ipc_bits: u64,
        latency: reciprocal_abstraction::sim::Summary,
    }

    fn fingerprint(result: &RunResult) -> Fingerprint {
        Fingerprint {
            cycles: result.cycles,
            messages: result.messages,
            ipc_bits: result.ipc.to_bits(),
            latency: result.latency,
        }
    }

    /// A service whose per-client quota is one fresh run, so the second
    /// submission of a client degrades deterministically (no queue
    /// timing involved).
    fn quota_service(background_upgrades: bool) -> JobService {
        JobService::start(
            ServeConfig {
                workers: 2,
                quota_rate: 1e-6,
                quota_burst: 1.0,
                background_upgrades,
                ..ServeConfig::default()
            },
            ObsSink::disabled(),
        )
        .expect("service starts")
    }

    /// Burns the one quota token of `client` on a cheap unrelated job.
    /// The filler seed must be fresh per client: a memoized filler is a
    /// cache hit, which never reaches the quota bucket.
    fn burn_quota(service: &JobService, client: &str, seed: u64) {
        let receipt = service
            .submit_with(
                FILLER.parse::<JobSpec>().expect("filler spec").seed(seed),
                SubmitParams {
                    client: Some(client.to_owned()),
                    ..SubmitParams::default()
                },
            )
            .expect("admitted");
        match service.wait(receipt.ticket, Some(Duration::from_secs(60))).unwrap() {
            JobOutcome::Completed { .. } => {}
            other => panic!("filler should complete: {other:?}"),
        }
    }

    fn degraded_run(
        service: &JobService,
        spec: JobSpec,
        client: &str,
        min_fidelity: Option<Fidelity>,
    ) -> (Fingerprint, Fidelity) {
        let receipt = service
            .submit_with(
                spec,
                SubmitParams {
                    client: Some(client.to_owned()),
                    allow_degraded: true,
                    min_fidelity,
                    ..SubmitParams::default()
                },
            )
            .expect("consenting submissions are never bounced");
        match service.wait(receipt.ticket, Some(Duration::from_secs(120))).unwrap() {
            JobOutcome::Completed { result, fidelity, .. } => (fingerprint(&result), fidelity),
            other => panic!("degraded job should complete: {other:?}"),
        }
    }

    #[test]
    fn degraded_answers_match_the_direct_cheaper_run_bit_for_bit() {
        let service = quota_service(false);

        // Calibrated rung: the service's answer vs running the
        // calibrated replay path directly.
        let calibrated_ref = fingerprint(
            &spec(1)
                .to_run_spec()
                .calibrated_only(true)
                .run()
                .expect("direct calibrated run"),
        );
        burn_quota(&service, "tier-cal", 101);
        let (got, fidelity) =
            degraded_run(&service, spec(1), "tier-cal", Some(Fidelity::Calibrated));
        assert_eq!(fidelity, Fidelity::Calibrated);
        assert_eq!(got, calibrated_ref, "calibrated tier diverged from the direct run");

        // Hop rung: vs the same spec with the analytic hop model.
        let mut hop_spec = spec(2);
        hop_spec.mode = ModeSpec::Hop;
        let hop_ref = fingerprint(&hop_spec.to_run_spec().run().expect("direct hop run"));
        burn_quota(&service, "tier-hop", 102);
        let (got, fidelity) = degraded_run(&service, spec(2), "tier-hop", None);
        assert_eq!(fidelity, Fidelity::Hop);
        assert_eq!(got, hop_ref, "hop tier diverged from the direct run");
        service.shutdown();
    }

    #[test]
    fn a_background_upgrade_matches_the_uninterrupted_full_run_bit_for_bit() {
        let full_ref = fingerprint(&spec(3).to_run_spec().run().expect("direct full run"));

        let service = quota_service(true);
        burn_quota(&service, "tier-up", 103);
        let (degraded, fidelity) = degraded_run(&service, spec(3), "tier-up", None);
        assert_eq!(fidelity, Fidelity::Hop);
        assert_ne!(
            degraded, full_ref,
            "the hop answer should differ from the full run (else the ladder is vacuous)"
        );

        // The idle pool re-runs the spec at full fidelity in the
        // background and replaces the store entry in place.
        let deadline = Instant::now() + Duration::from_secs(120);
        while service.stats().upgraded < 1 {
            assert!(Instant::now() < deadline, "background upgrade never landed");
            std::thread::sleep(Duration::from_millis(5));
        }
        let strict = service
            .submit(spec(3), Priority::Normal, None)
            .expect("admitted");
        assert_eq!(strict.disposition, Disposition::CacheHit);
        match service.wait(strict.ticket, Some(Duration::from_secs(120))).unwrap() {
            JobOutcome::Completed { result, cached, fidelity, error_bound, .. } => {
                assert!(cached);
                assert_eq!(fidelity, Fidelity::Reciprocal);
                assert_eq!(
                    fingerprint(&result),
                    full_ref,
                    "the upgraded entry diverged from the uninterrupted full run"
                );
                assert_eq!(error_bound, full_ref_error_bound(&result));
            }
            other => panic!("upgraded entry should serve strict callers: {other:?}"),
        }
        service.shutdown();
    }

    /// The error bound a full-fidelity run reports: mean coupler drift
    /// over mean latency (the same statistic the scheduler publishes).
    fn full_ref_error_bound(result: &RunResult) -> f64 {
        result.coupler.as_ref().map_or(0.0, |c| {
            let lat = result.latency.mean();
            if lat > 0.0 {
                (c.drift.mean() / lat).abs().min(1.0)
            } else {
                0.0
            }
        })
    }
}

//! The simulator's layers: `cosim`, `noc`, `gpu`, `fullsys`, `netmodel`,
//! `workloads` and `obs`.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ra_cosim::{
    replay_into, CouplerStats, InterposerClass, ModeSpec, RecordedMessage, RunResult, Target,
    TrafficRecord,
};
use ra_fullsys::FullSystem;
use ra_gpu::ParallelEngine;
use ra_netmodel::{AbstractNetwork, CalibratedModel, HopLatency, HopMetric};
use ra_noc::{ChipletNetwork, NocNetwork, NocStats};
use ra_obs::{Event, ObsSink, Recorder, RingRecorder};
use ra_serve::JobSpec;
use ra_sim::{Cycle, Network};
use ra_workloads::AnyWorkload;

use super::{median_ns, ns_per_op, timed};
use crate::check::{Fingerprint, Tally};
use crate::metrics::Metrics;
use crate::stats::median;
use crate::workload::{run_direct, LayerInputs};

/// Instructions per core of the run whose traffic the chiplet replays
/// take: `workers=2` is several times slower than serial there, and this
/// keeps the pair near two seconds.
const CHIPLET_INSTRUCTIONS: u64 = 20;

pub fn measure(
    inputs: &LayerInputs,
    phase_runs: &[RunResult],
    m: &mut Metrics,
    tally: &mut Tally,
) -> Result<(), String> {
    let ModeSpec::Reciprocal {
        quantum, workers, ..
    } = inputs.reference.mode
    else {
        return Err("every workload's pinned mode is reciprocal".to_owned());
    };
    let reference = &inputs.reference;
    cosim(inputs, phase_runs, quantum, m);
    timed("cosim.pipe", || pipeline(reference, workers, m, tally))?;
    let target = reference.target();
    let capture = timed("fullsys, workloads", || {
        let mut capture = capture(target, reference, reference.instructions)?;
        fullsys_and_workloads(target, reference, &mut capture, m);
        Ok::<_, String>(capture)
    })?;
    let serial = timed("noc, gpu", || {
        noc_and_gpu(target, &capture, quantum, m, tally)
    })?;
    timed("netmodel", || netmodel(target, &capture, &serial, m));
    timed("noc.chiplet", || chiplet(reference, quantum, m, tally))?;
    timed("obs", || obs(reference, m, tally))
}

/// Time shares come from the jobs the traced phase ran itself, else from
/// the reference run; exact counts always from the reference run, whose
/// seed never changes.
fn cosim(inputs: &LayerInputs, phase_runs: &[RunResult], quantum: u64, m: &mut Metrics) {
    let baseline = std::slice::from_ref(&*inputs.baseline);
    let runs = if phase_runs.is_empty() {
        baseline
    } else {
        phase_runs
    };
    // A non-reciprocal run has no coupler; no workload pins one.
    let share = |wall: fn(&CouplerStats) -> Duration| {
        let shares: Vec<f64> = runs
            .iter()
            .filter_map(|r| {
                Some(100.0 * wall(r.coupler.as_ref()?).as_secs_f64() / r.wall.as_secs_f64())
            })
            .collect();
        median(&shares).unwrap_or(0.0)
    };
    let detailed = share(|c| c.detailed_wall);
    let calibrate = share(|c| c.calibrate_wall);
    m.set("cosim.detailed_share_pct", detailed);
    m.set("cosim.calibrate_share_pct", calibrate);
    m.set("cosim.fullsys_share_pct", 100.0 - detailed - calibrate);
    let rates: Vec<f64> = runs
        .iter()
        .map(|r| r.cycles as f64 / 1e3 / r.wall.as_secs_f64())
        .collect();
    m.set(
        "cosim.kcycles_per_s",
        median(&rates).expect("at least the reference run"),
    );
    let exact = inputs.baseline.coupler.clone().unwrap_or_default();
    m.set(
        "cosim.quanta",
        exact.detailed_cycles.div_ceil(quantum) as f64,
    );
    m.set("cosim.calibrations", exact.calibrations as f64);
    m.set("cosim.detailed_kcycles", exact.detailed_cycles as f64 / 1e3);
    m.set("cosim.drift_mean_cycles", exact.drift.mean());
}

/// Speculative pipelining against its serial twin at `quantum=500`: the
/// measured replacement for BENCH_noc.json's modeled overlap.
fn pipeline(
    reference: &JobSpec,
    workers: usize,
    m: &mut Metrics,
    tally: &mut Tally,
) -> Result<(), String> {
    let at = |pipeline| {
        run_direct(&reference.clone().mode(ModeSpec::Reciprocal {
            quantum: 500,
            workers,
            pipeline,
        }))
    };
    let (off, on) = (at(false)?, at(true)?);
    tally.require_same(
        "pipeline=on against off",
        Fingerprint::of_run(&on),
        Fingerprint::of_run(&off),
    );
    let spec = on.coupler.clone().unwrap_or_default();
    let decisions = spec.spec_commits + spec.spec_rollbacks;
    m.set(
        "cosim.pipe_wall_ratio",
        on.wall.as_secs_f64() / off.wall.as_secs_f64(),
    );
    m.set(
        "cosim.pipe_rollback_pct",
        100.0 * spec.spec_rollbacks as f64 / decisions.max(1) as f64,
    );
    m.set(
        "cosim.pipe_wasted_kcycles",
        spec.spec_wasted_cycles as f64 / 1e3,
    );
    Ok(())
}

fn hop_metric(target: &Target) -> HopMetric {
    match &target.noc.chiplet {
        Some(spec) => HopMetric::Chiplet {
            islands: spec.islands,
            island: target.noc.shape,
        },
        None => HopMetric::Mesh(target.noc.shape),
    }
}

type HopSystem = FullSystem<TrafficRecord<AbstractNetwork<HopLatency>>, AnyWorkload>;

/// A finished hop-model run of the spec's workload on `target`: the
/// message stream it recorded, and the full system at its abstract pace.
struct Capture {
    sys: HopSystem,
    wall_ns: f64,
    last_cycle: u64,
}

impl Capture {
    fn log(&self) -> &[RecordedMessage] {
        self.sys.network().recorded()
    }
}

fn build_workload(target: &Target, spec: &JobSpec) -> Result<AnyWorkload, String> {
    let islands = target.fullsys.islands;
    let stages = if islands > 1 { islands } else { 0 };
    spec.work()
        .build(target.cores(), stages, spec.seed)
        .map_err(|e| e.to_string())
}

fn capture(target: &Target, spec: &JobSpec, instructions: u64) -> Result<Capture, String> {
    let workload = build_workload(target, spec)?;
    let hop = AbstractNetwork::new(
        HopLatency::default(),
        hop_metric(target),
        target.noc.flit_bytes,
    );
    let mut sys = FullSystem::new(target.fullsys.clone(), TrafficRecord::new(hop), workload)
        .map_err(|e| e.to_string())?;
    let started = Instant::now();
    sys.run_until_instructions(instructions, spec.budget)
        .map_err(|e| e.to_string())?;
    let wall_ns = started.elapsed().as_nanos() as f64;
    let last_cycle = sys.network().recorded().last().map_or(0, |r| r.at.0);
    Ok(Capture {
        sys,
        wall_ns,
        last_cycle,
    })
}

fn fullsys_and_workloads(target: &Target, spec: &JobSpec, capture: &mut Capture, m: &mut Metrics) {
    let retired = capture.sys.instructions() as f64;
    m.set("fullsys.ns_per_instr", capture.wall_ns / retired);
    m.set(
        "fullsys.msgs_per_kinstr",
        capture.log().len() as f64 * 1e3 / retired,
    );
    let sys = &mut capture.sys;
    let mut snapshot = sys.snapshot();
    m.set(
        "fullsys.snapshot_us",
        median_ns(9, || snapshot = sys.snapshot()) / 1e3,
    );
    m.set(
        "fullsys.restore_us",
        median_ns(9, || sys.restore(&snapshot)) / 1e3,
    );
    let built = median_ns(5, || {
        black_box(build_workload(target, spec).expect("built once already"));
    });
    m.set("workloads.build_ms", built / 1e6);
}

/// Replays `log` the way the coupler does: a window's injections first,
/// then the window's cycles, through one more window than the last
/// injection so that the tail drains. Returns the last cycle simulated.
fn replay_windows<N>(
    log: &[RecordedMessage],
    last_cycle: u64,
    window: u64,
    net: &mut N,
    inject: impl Fn(&mut N, &RecordedMessage),
    mut advance_through: impl FnMut(&mut N, u64) -> Result<(), String>,
) -> Result<u64, String> {
    let windows = last_cycle / window + 2;
    let mut next = 0;
    for w in 0..windows {
        let end = (w + 1) * window - 1;
        while next < log.len() && log[next].at.0 <= end {
            inject(net, &log[next]);
            next += 1;
        }
        advance_through(net, end)?;
    }
    Ok(windows * window - 1)
}

/// Counts `engine_batch` events and sums their barrier waits.
#[derive(Default)]
struct BatchRecorder {
    batches: Arc<AtomicU64>,
    barrier_wait_ns: Arc<AtomicU64>,
}

impl Recorder for BatchRecorder {
    fn record(&mut self, event: &Event) {
        if let Event::EngineBatch {
            barrier_wait_ns, ..
        } = event
        {
            self.batches.fetch_add(1, Ordering::Relaxed);
            self.barrier_wait_ns
                .fetch_add(*barrier_wait_ns, Ordering::Relaxed);
        }
    }
}

fn noc_fingerprint(stats: &NocStats) -> Fingerprint {
    Fingerprint {
        cycles: stats.delivered,
        messages: stats.flits_delivered,
        latency_mean_bits: stats.latency.mean().to_bits(),
    }
}

fn engine_step(engine: &mut ParallelEngine, net: &mut NocNetwork, end: u64) -> Result<(), String> {
    if net.next_cycle() <= end {
        let cycles = end + 1 - net.next_cycle();
        engine.run_cycles(net, cycles).map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn noc_and_gpu(
    target: &Target,
    capture: &Capture,
    window: u64,
    m: &mut Metrics,
    tally: &mut Tally,
) -> Result<NocStats, String> {
    let cfg = &target.noc;
    let build = || NocNetwork::new(cfg.clone()).map_err(|e| e.to_string());
    build()?;
    m.set(
        "noc.build_ms",
        median_ns(5, || drop(black_box(build()))) / 1e6,
    );
    let inject = |net: &mut NocNetwork, r: &RecordedMessage| net.inject(r.msg, r.at);

    let mut serial = build()?;
    let started = Instant::now();
    let end = replay_windows(
        capture.log(),
        capture.last_cycle,
        window,
        &mut serial,
        inject,
        |net, end| {
            net.tick(Cycle(end));
            Ok(())
        },
    )?;
    let serial_ns = started.elapsed().as_nanos() as f64;
    let router_cycles = ((end + 1) * serial.routers().len() as u64) as f64;
    let stats = serial.stats().clone();
    m.set("noc.serial_ns_per_router_cycle", serial_ns / router_cycles);
    m.set(
        "noc.serial_ns_per_flit",
        serial_ns / stats.flits_delivered.max(1) as f64,
    );
    m.set("noc.flits_delivered", stats.flits_delivered as f64);
    m.set(
        "noc.fast_forward_pct",
        100.0 * serial.fast_forwarded_cycles() as f64 / (end + 1) as f64,
    );

    let recorder = BatchRecorder::default();
    let (batches, waited) = (recorder.batches.clone(), recorder.barrier_wait_ns.clone());
    let (sink, _) = ObsSink::attach(recorder);
    let mut engine = ParallelEngine::new(2);
    engine.set_sink(sink);
    let mut parallel = build()?;
    let started = Instant::now();
    replay_windows(
        capture.log(),
        capture.last_cycle,
        window,
        &mut parallel,
        inject,
        |net, end| engine_step(&mut engine, net, end),
    )?;
    let par_ns = started.elapsed().as_nanos() as f64;
    tally.require_same(
        "ParallelEngine replay against the serial tick",
        noc_fingerprint(parallel.stats()),
        noc_fingerprint(&stats),
    );
    m.set("gpu.par2_ns_per_router_cycle", par_ns / router_cycles);
    m.set("gpu.par2_speedup", serial_ns / par_ns);
    m.set("gpu.batches", batches.load(Ordering::Relaxed) as f64);
    m.set(
        "gpu.barrier_wait_pct",
        100.0 * waited.load(Ordering::Relaxed) as f64 / par_ns,
    );
    Ok(stats)
}

fn netmodel(target: &Target, capture: &Capture, serial: &NocStats, m: &mut Metrics) {
    let mut hop = AbstractNetwork::new(
        HopLatency::default(),
        hop_metric(target),
        target.noc.flit_bytes,
    );
    let started = Instant::now();
    let delivered = replay_into(capture.log(), &mut hop, Cycle(capture.last_cycle));
    let wall_ns = started.elapsed().as_nanos() as f64;
    black_box(delivered);
    m.set(
        "netmodel.inject_ns_per_msg",
        wall_ns / capture.log().len().max(1) as f64,
    );
    let mut model = CalibratedModel::new(serial.table.max_hops(), 0.5);
    m.set(
        "netmodel.calibrate_update_us",
        ns_per_op(16, || model.update(black_box(&serial.table))) / 1e3,
    );
}

/// No end-to-end workload runs a chiplet target, so these three guard the
/// stepping refactor: the workload's application on `4x8x8,silicon`, its
/// traffic replayed serially and on two engine workers.
fn chiplet(
    reference: &JobSpec,
    window: u64,
    m: &mut Metrics,
    tally: &mut Tally,
) -> Result<(), String> {
    let target = Target::chiplet(4, 8, 8, InterposerClass::Silicon);
    let capture = capture(&target, reference, CHIPLET_INSTRUCTIONS)?;
    let build = || ChipletNetwork::new(target.noc.clone()).map_err(|e| e.to_string());
    let inject = |net: &mut ChipletNetwork, r: &RecordedMessage| net.inject(r.msg, r.at);

    let mut serial = build()?;
    let started = Instant::now();
    let end = replay_windows(
        capture.log(),
        capture.last_cycle,
        window,
        &mut serial,
        inject,
        |net, end| {
            net.advance_serial_to(end);
            Ok(())
        },
    )?;
    let serial_ns = started.elapsed().as_nanos() as f64;
    let router_cycles = ((end + 1) * u64::from(serial.nodes())) as f64;

    let mut engine = ParallelEngine::new(2);
    let mut parallel = build()?;
    let started = Instant::now();
    replay_windows(
        capture.log(),
        capture.last_cycle,
        window,
        &mut parallel,
        inject,
        |net, end| {
            net.advance_to(end, &mut |island, end| {
                if island.next_cycle() <= end {
                    let cycles = end + 1 - island.next_cycle();
                    engine.run_cycles(island, cycles)?;
                }
                Ok(())
            })
            .map_err(|e| e.to_string())
        },
    )?;
    let par_ns = started.elapsed().as_nanos() as f64;
    tally.require_same(
        "chiplet workers=2 against serial",
        noc_fingerprint(&parallel.stats()),
        noc_fingerprint(&serial.stats()),
    );
    m.set(
        "noc.chiplet_serial_ns_per_router_cycle",
        serial_ns / router_cycles,
    );
    m.set(
        "noc.chiplet_par2_ns_per_router_cycle",
        par_ns / router_cycles,
    );
    m.set(
        "noc.chiplet_handoffs",
        serial.interposer_stats().crossings as f64,
    );
    Ok(())
}

/// The reference spec with a `RingRecorder` attached against none, back
/// to back; the gated budget is 5 %.
fn obs(reference: &JobSpec, m: &mut Metrics, tally: &mut Tally) -> Result<(), String> {
    let bare = run_direct(reference)?;
    let (sink, ring) = ObsSink::attach(RingRecorder::new(1 << 16));
    let recorded = reference
        .to_run_spec()
        .recorder(sink)
        .run()
        .map_err(|e| e.to_string())?;
    tally.require_same(
        "recorder attached against none",
        Fingerprint::of_run(&recorded),
        Fingerprint::of_run(&bare),
    );
    let (bare_s, recorded_s) = (bare.wall.as_secs_f64(), recorded.wall.as_secs_f64());
    m.set(
        "obs.ring_overhead_pct",
        100.0 * (recorded_s - bare_s) / bare_s,
    );
    let seen = ring.lock().map_err(|_| "recorder lock poisoned")?.seen();
    m.set("obs.events_per_job", seen as f64);
    Ok(())
}

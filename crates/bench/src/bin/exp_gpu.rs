//! T2 (claim A3, headline) — Co-simulation time reduction from the
//! data-parallel detailed-NoC engine ("GPU coprocessor").
//!
//! The paper: a GPU coprocessor cuts reciprocal-abstraction co-simulation
//! time by 16% for a 256-core target and 65% for a 512-core target.
//!
//! Reproduction strategy (see DESIGN.md, substitution table):
//!
//! 1. **Measured decomposition.** A serial reciprocal run is instrumented
//!    to split wall-clock into the detailed cycle-level NoC (the offloaded
//!    component) vs everything else. This is real measurement.
//! 2. **Coprocessor model.** The offloaded time is divided by the device
//!    speedup `S(R) = R / (R / lanes + launch)` for `R` routers — the
//!    standard bulk-synchronous device model (finite lane count plus a
//!    fixed per-cycle kernel-launch overhead expressed in router-work
//!    units). Small networks amortize the launch poorly; big ones win —
//!    the same shape the paper measured on a real GPU.
//! 3. **Host-parallel check.** When the host has more than one core, the
//!    parallel engine is also run for a wall-clock-measured reduction.
//!
//! `--json` emits the rows as a JSON array (the CI bench-smoke artifact);
//! `--cores 256,512` restricts the sweep; `--trace-out t.jsonl` streams
//! every observability event (quantum reports, NoC windows, engine
//! batches, profiling spans) as JSONL; `--metrics` prints the T2 time
//! breakdown per row; `--pipeline` also runs the speculative quantum
//! pipeline and reports its commit/rollback columns; `--chiplet
//! 2x4x4,interposer=silicon` measures a chiplet system instead of the
//! preset sweep (no paper column — the paper's targets are monolithic);
//! `--trace-in <name>` replays a recorded trace stream.

use ra_bench::{
    banner, breakdown_of, format_breakdown, json_array, json_object, secs, trips_json, BenchArgs,
    JsonField,
};
use ra_cosim::{ModeSpec, RunSpec, Target};
use ra_obs::ObsSink;
use ra_workloads::{AppProfile, WorkSpec};

/// Device lanes of the modeled coprocessor.
const LANES: f64 = 64.0;
/// Per-cycle launch/sync overhead, in units of one router's cycle work.
const LAUNCH: f64 = 16.0;

/// Speedup of the modeled device over serial execution of `routers`
/// routers' worth of per-cycle work.
fn device_speedup(routers: f64) -> f64 {
    routers / (routers / LANES + LAUNCH)
}

fn main() {
    let args = BenchArgs::from_args();
    let scale = args.scale;
    let sink = args
        .trace_sink()
        .expect("open --trace-out")
        .unwrap_or_else(ObsSink::disabled);
    let host_cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    if !args.json {
        banner("T2", "Coprocessor co-simulation time reduction (ocean)");
        println!("host cores: {host_cores}; modeled device: {LANES} lanes, launch overhead {LAUNCH} router-units\n");
        println!(
            "{:<10} {:>10} {:>10} {:>8} {:>10} {:>12} {:>8}",
            "target", "total", "noc-part", "share%", "S(dev)", "modeled", "paper"
        );
    }
    let work = args.work_or(WorkSpec::Profile(AppProfile::ocean()));
    let mut rows = Vec::new();
    // A --chiplet flag swaps the preset sweep for the one chiplet system;
    // the paper has no chiplet row, so its column reads "-".
    let sweep: Vec<(Target, &str)> = match &args.chiplet {
        Some(target) => vec![(target.clone(), "-")],
        None => [(256u32, "16%"), (512, "65%")]
            .into_iter()
            .filter(|(c, _)| args.wants_cores(*c))
            .map(|(c, paper)| (Target::preset(c).expect("preset"), paper))
            .collect(),
    };
    for (target, paper) in sweep {
        let cores = target.cores() as u32;
        let instr = (scale.instructions() / (cores as u64 / 64).max(1)).max(150);
        let serial = RunSpec::for_work(&target, work.clone())
            .mode(ModeSpec::Reciprocal { quantum: 2_000, workers: 0, pipeline: false })
            .instructions(instr)
            .budget(scale.budget())
            .seed(42)
            .recorder(sink.clone())
            .run()
            .expect("serial reciprocal");
        let coupler = serial.coupler.clone().expect("reciprocal run");
        let total = serial.wall.as_secs_f64();
        let noc = coupler.detailed_wall.as_secs_f64();
        let share = noc / total.max(1e-9) * 100.0;
        let routers = target.cores() as f64;
        let speedup = device_speedup(routers);
        let modeled_total = (total - noc) + noc / speedup;
        let reduction = (1.0 - modeled_total / total.max(1e-9)) * 100.0;
        if !args.json {
            println!(
                "{:<10} {:>10} {:>10} {:>7.0}% {:>10.1} {:>11.0}% {:>8}",
                target.name,
                secs(serial.wall),
                secs(coupler.detailed_wall),
                share,
                speedup,
                reduction,
                paper
            );
            if args.metrics {
                println!("{:<10}   {}", "", format_breakdown(&breakdown_of(&serial)));
            }
        }
        let mut fields = vec![
            ("target", JsonField::Str(target.name.clone())),
            ("cores", JsonField::Int(u64::from(cores))),
            ("total_s", JsonField::Num(total)),
            ("noc_s", JsonField::Num(noc)),
            ("calibrate_s", JsonField::Num(coupler.calibrate_wall.as_secs_f64())),
            ("noc_share_pct", JsonField::Num(share)),
            ("device_speedup", JsonField::Num(speedup)),
            ("modeled_reduction_pct", JsonField::Num(reduction)),
            ("paper_reduction", JsonField::Str(paper.to_string())),
            ("messages", JsonField::Int(serial.messages)),
            ("cycles", JsonField::Int(serial.cycles)),
            ("avg_latency", JsonField::Num(serial.avg_latency())),
            ("calibrations", JsonField::Int(coupler.calibrations)),
            ("drift_mean", JsonField::Num(coupler.drift.mean())),
            ("watchdog_trips", JsonField::Int(coupler.watchdog_trips)),
            ("trips", JsonField::Raw(trips_json(&coupler.trips))),
        ];
        if args.pipeline {
            // Speculation favors short quanta: each rollback re-runs one
            // window, and fresh predictions drift less over 500 cycles
            // than 2 000. The pipelined pair therefore runs at its own
            // quantum, against its own serial baseline, so the comparison
            // is apples to apples and the simulated stats must match
            // bit for bit.
            const SPEC_QUANTUM: u64 = 500;
            // Rollback statistics need runs long enough to leave the
            // cold-start ramp, where every window legitimately resyncs.
            let spec_instr = instr.max(1_000);
            let pair = |pipeline: bool| {
                RunSpec::for_work(&target, work.clone())
                    .mode(ModeSpec::Reciprocal { quantum: SPEC_QUANTUM, workers: 0, pipeline })
                    .instructions(spec_instr)
                    .budget(scale.budget().max(20_000_000))
                    .seed(42)
                    .recorder(sink.clone())
                    .run()
                    .expect("reciprocal pipelined pair")
            };
            let base = pair(false);
            let piped = pair(true);
            let pc = piped.coupler.clone().expect("reciprocal run");
            let decisions = pc.spec_commits + pc.spec_rollbacks;
            let rollback_pct =
                pc.spec_rollbacks as f64 / (decisions.max(1)) as f64 * 100.0;
            let base_s = base.wall.as_secs_f64();
            let piped_reduction = (1.0 - piped.wall.as_secs_f64() / base_s.max(1e-9)) * 100.0;
            let identical = base.cycles == piped.cycles
                && base.messages == piped.messages
                && base.latency.mean().to_bits() == piped.latency.mean().to_bits();
            if !args.json {
                println!(
                    "{:<10}   pipelined (q={SPEC_QUANTUM}): {} vs serial {} \
                     ({piped_reduction:.0}% reduction), {} commits / {} rollbacks \
                     ({rollback_pct:.1}% rolled back), stats identical: {identical}",
                    "",
                    secs(piped.wall),
                    secs(base.wall),
                    pc.spec_commits,
                    pc.spec_rollbacks,
                );
                if args.metrics {
                    println!("{:<10}   {}", "", format_breakdown(&breakdown_of(&piped)));
                }
            }
            fields.push(("pipelined_quantum", JsonField::Int(SPEC_QUANTUM)));
            fields.push(("pipelined_serial_s", JsonField::Num(base_s)));
            fields.push(("pipelined_s", JsonField::Num(piped.wall.as_secs_f64())));
            fields.push(("pipelined_reduction_pct", JsonField::Num(piped_reduction)));
            fields.push(("spec_commits", JsonField::Int(pc.spec_commits)));
            fields.push(("spec_rollbacks", JsonField::Int(pc.spec_rollbacks)));
            fields.push(("rollback_pct", JsonField::Num(rollback_pct)));
            fields.push((
                "spec_identical",
                JsonField::Raw(if identical { "true".into() } else { "false".into() }),
            ));
        }
        if host_cores > 1 {
            let workers = host_cores.saturating_sub(1).clamp(1, 8);
            let parallel = RunSpec::for_work(&target, work.clone())
                .mode(ModeSpec::Reciprocal { quantum: 2_000, workers, pipeline: false })
                .instructions(instr)
                .budget(scale.budget())
                .seed(42)
                .recorder(sink.clone())
                .run()
                .expect("parallel reciprocal");
            let measured =
                (1.0 - parallel.wall.as_secs_f64() / total.max(1e-9)) * 100.0;
            if !args.json {
                println!(
                    "{:<10}   measured host-parallel ({workers} workers): {measured:.0}% reduction",
                    ""
                );
            }
            fields.push(("workers", JsonField::Int(workers as u64)));
            fields.push(("parallel_s", JsonField::Num(parallel.wall.as_secs_f64())));
            fields.push(("measured_reduction_pct", JsonField::Num(measured)));
        }
        rows.push(json_object(&fields));
    }
    let _ = sink.flush();
    if args.json {
        println!("{}", json_array(&rows));
    } else {
        println!("\n(shape check: the modeled reduction must grow with target size,");
        println!(" because the detailed NoC's share of co-simulation time grows)");
    }
}

//! F3 (claim A1, headline) — Packet latency error: abstract vs reciprocal.
//!
//! For each workload, the average packet latency error of (a) the static
//! contention-free abstract model and (b) reciprocal abstraction, both
//! measured against lock-step cycle-level co-simulation as ground truth.
//! The paper reports reciprocal abstraction cutting the error by 69% on
//! average. The process fails unless reciprocal error is below half the
//! abstract model's on every workload of the suite.
//!
//! `--chiplet 2x4x4,interposer=silicon` re-validates the claim on a
//! chiplet system (workloads: water, ocean, and the DNN pipeline, which
//! exercises the cross-interposer calibration band) and **fails the
//! process** if reciprocal abstraction does not beat the abstract model
//! on average — the gate that chiplet traffic stays within the single-die
//! A1 bound. `--trace-in <name>` measures a recorded trace stream instead.

use ra_bench::{assert_shape, banner, mean, BenchArgs};
use ra_cosim::{percent_error, ModeSpec, RunSpec, Target};
use ra_workloads::{AppProfile, DnnSpec, WorkSpec};

fn main() {
    let args = BenchArgs::from_args();
    let scale = args.scale;
    let target = match &args.chiplet {
        Some(target) => target.clone(),
        None => Target::preset(64).expect("preset"),
    };
    banner(
        "F3",
        &format!("Packet latency error vs cycle-level truth, {}", target.name),
    );
    println!(
        "{:<22} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "workload", "truth", "abstract", "reciprocal", "abs-err%", "recip-err%"
    );
    let quantum = 2_000;
    // The single-die table sweeps the full suite; the chiplet gate runs a
    // focused set whose DNN pipeline drives cross-interposer traffic.
    let workloads: Vec<WorkSpec> = if let Some(name) = &args.trace_in {
        vec![WorkSpec::Trace(name.clone())]
    } else if args.chiplet.is_some() {
        vec![
            WorkSpec::Profile(AppProfile::water()),
            WorkSpec::Profile(AppProfile::ocean()),
            WorkSpec::Dnn(DnnSpec::default()),
        ]
    } else {
        AppProfile::suite().into_iter().map(WorkSpec::Profile).collect()
    };
    let mut abs_errors = Vec::new();
    let mut recip_errors = Vec::new();
    let mut not_halved = Vec::new();
    for work in workloads {
        let run = |mode: ModeSpec| {
            RunSpec::for_work(&target, work.clone())
                .mode(mode)
                .instructions(scale.instructions())
                .budget(scale.budget())
                .seed(42)
                .run()
        };
        let truth = run(ModeSpec::Lockstep).expect("lockstep");
        let abs = run(ModeSpec::Hop).expect("hop");
        let recip = run(ModeSpec::Reciprocal { quantum, workers: 0, pipeline: false }).expect("reciprocal");
        let abs_err = percent_error(abs.avg_latency(), truth.avg_latency());
        let recip_err = percent_error(recip.avg_latency(), truth.avg_latency());
        abs_errors.push(abs_err);
        recip_errors.push(recip_err);
        if recip_err >= abs_err / 2.0 {
            not_halved.push(work.to_string());
        }
        println!(
            "{:<22} {:>10.2} {:>12.2} {:>12.2} {:>11.1}% {:>11.1}%",
            work.to_string(),
            truth.avg_latency(),
            abs.avg_latency(),
            recip.avg_latency(),
            abs_err,
            recip_err
        );
    }
    let abs_mean = mean(&abs_errors);
    let recip_mean = mean(&recip_errors);
    let reduction = if abs_mean > 0.0 {
        (1.0 - recip_mean / abs_mean) * 100.0
    } else {
        0.0
    };
    println!("\nmean error: abstract {abs_mean:.1}%  reciprocal {recip_mean:.1}%");
    println!("error reduction from reciprocal abstraction: {reduction:.0}%  (paper: 69%)");
    if args.chiplet.is_some() {
        assert_shape(
            "A1 (chiplet)",
            recip_mean < abs_mean,
            &format!(
                "reciprocal error ({recip_mean:.1}%) did not beat the abstract model \
                 ({abs_mean:.1}%) — cross-interposer calibration is outside the \
                 single-die A1 bound"
            ),
        );
    } else if args.trace_in.is_none() {
        assert_shape(
            "A1",
            not_halved.is_empty(),
            &format!(
                "reciprocal error is not below half the abstract model's on {}",
                not_halved.join(", ")
            ),
        );
    }
}

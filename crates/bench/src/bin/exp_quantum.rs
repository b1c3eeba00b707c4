//! F7 — Accuracy/overhead trade-off vs calibration quantum (ablation).
//!
//! Short quanta keep the calibrated model fresh (low error, more sync
//! overhead); long quanta let it go stale. This ablation justifies the
//! quantum used in the headline experiments. The process fails unless the
//! error at the longest quantum is above the error at the shortest.

use ra_bench::{assert_shape, banner, Scale};
use ra_cosim::{percent_error, ModeSpec, RunSpec, Target};
use ra_workloads::AppProfile;

fn main() {
    let scale = Scale::from_args();
    banner("F7", "Latency error and cost vs calibration quantum (radix, 64-core)");
    let target = Target::preset(64).expect("preset");
    let app = AppProfile::radix();
    let run = |mode: ModeSpec| {
        RunSpec::new(&target, &app)
            .mode(mode)
            .instructions(scale.instructions())
            .budget(scale.budget())
            .seed(42)
            .run()
    };
    let truth = run(ModeSpec::Lockstep).expect("lockstep");
    println!("truth: {:.2} cycles avg latency, {} cycles runtime\n", truth.avg_latency(), truth.cycles);
    println!(
        "{:>9} {:>12} {:>10} {:>12}",
        "quantum", "avg-lat", "err%", "calibration"
    );
    let mut errors = Vec::new();
    for quantum in [100u64, 300, 1_000, 3_000, 10_000, 30_000, 100_000] {
        let r = run(ModeSpec::Reciprocal { quantum, workers: 0, pipeline: false }).expect("reciprocal");
        let err = percent_error(r.avg_latency(), truth.avg_latency());
        errors.push(err);
        println!(
            "{:>9} {:>12.2} {:>9.1}% {:>12}",
            quantum,
            r.avg_latency(),
            err,
            r.calibrations,
        );
    }
    let (shortest, longest) = (errors[0], errors[errors.len() - 1]);
    assert_shape(
        "F7",
        longest > shortest,
        &format!("error at the longest quantum ({longest:.1}%) is not above the shortest's ({shortest:.1}%)"),
    );
}

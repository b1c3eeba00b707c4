//! X3 (extension) — Sampled co-simulation: accuracy vs speed.
//!
//! "Re-tuned periodically at longer time intervals": only every k-th
//! calibration quantum is simulated in detail; skipped windows cost the
//! detailed path nothing. The cost column is the detailed cycles simulated,
//! the speed lever that needs no parallel hardware; the accuracy column is
//! the price.

use ra_bench::{banner, Scale};
use ra_cosim::{percent_error, ModeSpec, RunSpec, Target};
use ra_fullsys::FullSystem;
use ra_cosim::{LatencyProbe, ReciprocalNetwork};
use ra_workloads::{AppProfile, AppWorkload};

fn main() {
    let scale = Scale::from_args();
    banner("X3", "Sampled reciprocal co-simulation: accuracy vs cost (ocean, 64-core)");
    let target = Target::preset(64).expect("preset");
    let app = AppProfile::ocean();
    let truth = RunSpec::new(&target, &app)
        .mode(ModeSpec::Lockstep)
        .instructions(scale.instructions())
        .budget(scale.budget())
        .seed(42)
        .run()
        .expect("lockstep");
    println!("truth: {:.2} avg latency\n", truth.avg_latency());
    println!(
        "{:>9} {:>12} {:>9} {:>14}",
        "sample", "avg-lat", "err%", "detailed-cyc"
    );
    for sample_every in [1u32, 2, 4, 8, 16] {
        let coupler = ReciprocalNetwork::new(target.noc.clone(), 2_000, 0)
            .expect("coupler")
            .with_sampling(sample_every);
        let net = LatencyProbe::new(coupler);
        let workload = AppWorkload::new(app.clone(), target.cores(), 42);
        let mut sys = FullSystem::new(target.fullsys.clone(), net, workload).expect("system");
        sys.run_until_instructions(scale.instructions(), scale.budget())
            .expect("run");
        let probe = sys.network();
        let lat = probe.latency().mean();
        let detailed = probe.inner().stats().detailed_cycles;
        println!(
            "{:>8}x {:>12.2} {:>8.1}% {:>14}",
            sample_every,
            lat,
            percent_error(lat, truth.avg_latency()),
            detailed
        );
    }
    println!("\n(1x = simulate every window; higher = cheaper detailed path, stale-er model)");
}

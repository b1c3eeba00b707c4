//! F2 — Average packet latency per workload and abstraction level.
//!
//! Prints the latency the full system experiences under each network
//! abstraction, per workload: the raw data behind the error figure F3.

use ra_bench::{banner, Scale};
use ra_cosim::{ModeSpec, RunSpec, Target};
use ra_workloads::AppProfile;

fn main() {
    let scale = Scale::from_args();
    banner("F2", "Experienced packet latency per workload and mode, 64-core");
    let target = Target::preset(64).expect("preset");
    let modes = [
        ModeSpec::Hop,
        ModeSpec::Queueing,
        ModeSpec::Reciprocal { quantum: 2_000, workers: 0, pipeline: false },
        ModeSpec::Lockstep,
    ];
    for app in AppProfile::suite() {
        for mode in modes {
            let run = RunSpec::new(&target, &app)
                .mode(mode)
                .instructions(scale.instructions())
                .budget(scale.budget())
                .seed(42)
                .run();
            match run {
                Ok(r) => println!(
                    "{:<14} {:<18} {:>10} cyc  {:>8.2} avg-lat  {:>9} msgs  ipc {:>5.2}",
                    r.workload,
                    r.mode,
                    r.cycles,
                    r.avg_latency(),
                    r.messages,
                    r.ipc,
                ),
                Err(e) => println!("{:<14} {:<18} FAILED: {e}", app.name, mode.label()),
            }
        }
        println!();
    }
}

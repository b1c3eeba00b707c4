//! X2 (extension) — Detailed-model design exploration: virtual-channel vs
//! bufferless deflection routers under identical full-system traffic.
//!
//! The paper's third claim is that co-simulation lets you evaluate design
//! choices *in the detailed component model* by their full-system impact.
//! Here the choice is the router microarchitecture itself: the buffered VC
//! router vs a bufferless deflection router, compared on target runtime and
//! packet latency per workload (both in lock-step co-simulation so the
//! comparison is closed-loop). The process fails unless the deflection
//! router deflects on every workload.

use ra_bench::{assert_shape, banner, Scale};
use ra_fullsys::{FullSysConfig, FullSystem};
use ra_noc::{DeflectionConfig, DeflectionNetwork, NocConfig, NocNetwork};
use ra_workloads::{AppProfile, AppWorkload};

fn main() {
    let scale = Scale::from_args();
    banner("X2", "VC router vs bufferless deflection router, 64-core lockstep");
    println!(
        "{:<14} {:>11} {:>11} {:>9} {:>9} {:>11}",
        "workload", "vc-cyc", "defl-cyc", "vc-lat", "defl-lat", "deflections"
    );
    let mut never_deflected = Vec::new();
    for app in AppProfile::suite() {
        let cfg = FullSysConfig::new(8, 8);
        // VC router.
        let net = NocNetwork::new(NocConfig::new(8, 8)).expect("vc noc");
        let w = AppWorkload::new(app.clone(), 64, 42);
        let mut sys = FullSystem::new(cfg.clone(), net, w).expect("system");
        let vc_cycles = sys
            .run_until_instructions(scale.instructions(), scale.budget())
            .expect("vc run");
        let vc = sys.into_network();
        // Deflection router.
        let net = DeflectionNetwork::new(DeflectionConfig::new(8, 8)).expect("deflection noc");
        let w = AppWorkload::new(app.clone(), 64, 42);
        let mut sys = FullSystem::new(cfg, net, w).expect("system");
        let defl_cycles = sys
            .run_until_instructions(scale.instructions(), scale.budget())
            .expect("deflection run");
        let defl = sys.into_network();
        if defl.deflections() == 0 {
            never_deflected.push(app.name.clone());
        }
        println!(
            "{:<14} {:>11} {:>11} {:>9.2} {:>9.2} {:>11}",
            app.name,
            vc_cycles,
            defl_cycles,
            vc.stats().avg_latency(),
            defl.stats().avg_latency(),
            defl.deflections(),
        );
    }
    println!("\n(the single-stage bufferless router undercuts the 3-stage VC pipeline's");
    println!(" latency at these loads; deflection counts show where the margin would");
    println!(" erode as injection rates climb toward saturation)");
    assert_shape(
        "X2",
        never_deflected.is_empty(),
        &format!("no deflections on {}", never_deflected.join(", ")),
    );
}

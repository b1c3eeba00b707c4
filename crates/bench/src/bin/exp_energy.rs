//! X1 (extension) — NoC energy under real vs synthetic traffic.
//!
//! Companion to F1 using the event-based energy model: how much do the
//! energy estimates of an isolated synthetic study differ from the energy
//! under the real full-system message stream, and how does energy split
//! across router components? The process fails unless buffers take the
//! largest share of dynamic energy on every workload.

use ra_bench::{assert_shape, banner, Scale};
use ra_fullsys::FullSystem;
use ra_noc::{EnergyParams, InjectionProcess, NocConfig, NocNetwork, TrafficGen, TrafficPattern};
use ra_workloads::{AppProfile, AppWorkload};

fn main() {
    let scale = Scale::from_args();
    banner("X1", "NoC energy: full-system traffic vs matched synthetic, 64-core");
    let params = EnergyParams::default();
    println!(
        "{:<14} {:>12} {:>12} {:>10} {:>10} {:>10}",
        "workload", "pJ/flit", "pJ/flit-iso", "buf%", "xbar%", "link%"
    );
    let mut buffers_not_largest = Vec::new();
    for app in AppProfile::suite() {
        // In-context run.
        let noc = NocNetwork::new(NocConfig::new(8, 8)).expect("noc");
        let workload = AppWorkload::new(app.clone(), 64, 42);
        let cfg = ra_fullsys::FullSysConfig::new(8, 8);
        let mut sys = FullSystem::new(cfg, noc, workload).expect("system");
        sys.run_until_instructions(scale.instructions(), scale.budget())
            .expect("run");
        let noc = sys.into_network();
        let e = noc.energy(&params);
        let flits = noc.stats().flits_delivered;
        let cycles = noc.stats().cycles;
        let rate = noc.stats().injected as f64 / 64.0 / cycles as f64;

        // Matched isolated run.
        let mut iso = NocNetwork::new(NocConfig::new(8, 8)).expect("noc");
        let mut gen = TrafficGen::new(
            8,
            8,
            TrafficPattern::Uniform,
            InjectionProcess::Bernoulli { rate },
            42,
        )
        .with_payload_bytes(40);
        gen.run(&mut iso, cycles.min(200_000));
        let e_iso = iso.energy(&params);
        let dynamic = e.dynamic();
        let buffers = e.buffers_write + e.buffers_read;
        if buffers <= e.switch || buffers <= e.links {
            buffers_not_largest.push(app.name.clone());
        }
        println!(
            "{:<14} {:>12.2} {:>12.2} {:>9.0}% {:>9.0}% {:>9.0}%",
            app.name,
            e.per_flit(flits),
            e_iso.per_flit(iso.stats().flits_delivered),
            buffers / dynamic * 100.0,
            e.switch / dynamic * 100.0,
            e.links / dynamic * 100.0,
        );
    }
    println!("\n(buffers dominate dynamic energy; synthetic traffic misreads per-flit cost)");
    assert_shape(
        "X1",
        buffers_not_largest.is_empty(),
        &format!(
            "buffers are not the largest dynamic-energy share on {}",
            buffers_not_largest.join(", ")
        ),
    );
}

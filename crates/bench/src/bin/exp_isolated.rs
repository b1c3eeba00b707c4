//! F1 (claim A2) — Inaccuracy of isolated NoC simulation.
//!
//! For each workload, run the NoC in full-system context (lock-step
//! co-simulation) and record the average packet latency. Then evaluate the
//! *same* NoC in a vacuum: uniform-random Bernoulli traffic at the matched
//! average injection rate — the standard isolated-evaluation methodology.
//! The gap between the two is the error an isolated study commits. The
//! process fails unless the isolated latency is below the in-context one
//! on every workload.

use ra_bench::{assert_shape, banner, mean, Scale};
use ra_cosim::{percent_error, ModeSpec, RunSpec, Target};
use ra_noc::{InjectionProcess, NocNetwork, TrafficGen, TrafficPattern};
use ra_workloads::AppProfile;

fn main() {
    let scale = Scale::from_args();
    banner(
        "F1",
        "Isolated (synthetic) vs in-context NoC evaluation, 64-core mesh",
    );
    println!(
        "{:<14} {:>12} {:>12} {:>10} {:>12}",
        "workload", "in-context", "isolated", "error%", "msg-rate"
    );
    let target = Target::preset(64).expect("preset");
    let mut errors = Vec::new();
    let mut not_optimistic = Vec::new();
    for app in AppProfile::suite() {
        // In-context: the cycle-level NoC under the real message stream.
        let truth = RunSpec::new(&target, &app)
            .mode(ModeSpec::Lockstep)
            .instructions(scale.instructions())
            .budget(scale.budget())
            .seed(42)
            .run()
            .expect("lockstep run");
        let real_latency = truth.avg_latency();
        let nodes = target.cores() as f64;
        let rate = truth.messages as f64 / nodes / truth.cycles as f64;

        // Isolated: same NoC, synthetic uniform Bernoulli at matched rate.
        let mut net = NocNetwork::new(target.noc.clone()).expect("noc");
        let mut gen = TrafficGen::new(
            target.noc.shape.cols(),
            target.noc.shape.rows(),
            TrafficPattern::Uniform,
            InjectionProcess::Bernoulli { rate },
            42,
        )
        .with_payload_bytes(40); // mid-point of ctrl(8)/data(72) mix
        gen.run(&mut net, truth.cycles.min(200_000));
        let iso_latency = net.stats().avg_latency();

        let err = percent_error(iso_latency, real_latency);
        errors.push(err);
        if iso_latency >= real_latency {
            not_optimistic.push(app.name.clone());
        }
        println!(
            "{:<14} {:>12.2} {:>12.2} {:>9.1}% {:>12.4}",
            app.name, real_latency, iso_latency, err, rate
        );
    }
    println!(
        "\nmean isolated-evaluation latency error: {:.1}%  (claim A2: significant)",
        mean(&errors)
    );
    assert_shape(
        "A2",
        not_optimistic.is_empty(),
        &format!(
            "isolated latency is not below in-context latency on {}",
            not_optimistic.join(", ")
        ),
    );
}

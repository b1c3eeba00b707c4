//! Golden values: absolute simulation results pinned at a known-good commit.
//!
//! `tests/determinism.rs` compares engines that all share one `Router`, so
//! an arbitration-order change that moves serial and parallel runs alike
//! slips through it. These cases pin absolute numbers instead — cycles,
//! messages, latency-mean bits, delivered flits, and the router event
//! counters summed over the network — on every router code path the
//! allocators branch on: a mesh co-simulation, a torus (dateline VC
//! classes), an 8-port concentrated mesh, O1TURN (parity VC bands), a
//! flaky link (route compute's orphan-discard branch), two-cycle links
//! (multi-slot wire rings), and a chiplet.
//!
//! The values were recorded before the router's scans became bitmask
//! walks, and the two-cycle-link pin before links became push-based.
//! Editing one is a simulated-behaviour change, not a test fix.

use reciprocal_abstraction::cosim::{InterposerClass, ReciprocalNetwork, Target};
use reciprocal_abstraction::fullsys::FullSystem;
use reciprocal_abstraction::noc::{
    FaultPlan, InjectionProcess, NocConfig, NocNetwork, NocStats, Router, Routing, TopologyKind,
    TrafficGen, TrafficPattern,
};
use reciprocal_abstraction::sim::{Cycle, MessageClass, Network};
use reciprocal_abstraction::workloads::{AppProfile, AppWorkload};

#[derive(Debug, PartialEq, Eq)]
struct Golden {
    cycles: u64,
    messages: u64,
    latency_mean_bits: u64,
    flits: u64,
    vc_allocs: u64,
    sa_grants: u64,
    buffer_writes: u64,
}

fn golden<'a>(
    cycles: u64,
    messages: u64,
    stats: &NocStats,
    routers: impl Iterator<Item = &'a Router>,
) -> Golden {
    let mut g = Golden {
        cycles,
        messages,
        latency_mean_bits: stats.latency.mean().to_bits(),
        flits: stats.flits_delivered,
        vc_allocs: 0,
        sa_grants: 0,
        buffer_writes: 0,
    };
    for r in routers {
        let c = r.event_counts();
        g.vc_allocs += c.vc_allocs;
        g.sa_grants += c.sa_grants;
        g.buffer_writes += c.buffer_writes;
    }
    g
}

/// Synthetic traffic on an 8x4 node grid: single-flit requests plus
/// five-flit responses (two vnets, wormhole bodies), offered for 600 cycles
/// and drained for 600 more on the serial engine.
fn noc_case(cfg: NocConfig) -> Golden {
    let mut net = NocNetwork::new(cfg).unwrap();
    let mut gens = [
        TrafficGen::new(
            8,
            4,
            TrafficPattern::Uniform,
            InjectionProcess::Bernoulli { rate: 0.06 },
            3,
        ),
        TrafficGen::new(
            8,
            4,
            TrafficPattern::Uniform,
            InjectionProcess::Bernoulli { rate: 0.03 },
            4,
        )
        .with_class(MessageClass::Response)
        .with_payload_bytes(72),
    ];
    for now in 0..600 {
        for gen in &mut gens {
            gen.inject_cycle(&mut net, Cycle(now));
        }
        net.tick(Cycle(now));
    }
    net.tick(Cycle(1_199));
    let stats = net.stats();
    golden(stats.cycles, stats.delivered, stats, net.routers().iter())
}

/// A reciprocal co-simulation of water on `target` (quantum 300, serial).
fn cosim_case(target: &Target) -> Golden {
    let coupler = ReciprocalNetwork::new(target.noc.clone(), 300, 0).unwrap();
    let workload = AppWorkload::new(AppProfile::water(), target.cores(), 5);
    let mut sys = FullSystem::new(target.fullsys.clone(), coupler, workload).unwrap();
    let cycles = sys.run_until_instructions(150, 2_000_000).unwrap();
    let messages = sys.stats().total_messages();
    let net = sys.into_network();
    let detailed = net.detailed();
    let stats = detailed.stats();
    match (detailed.as_single(), detailed.as_chiplet()) {
        (Some(n), _) => golden(cycles, messages, &stats, n.routers().iter()),
        (_, Some(c)) => golden(
            cycles,
            messages,
            &stats,
            c.islands().iter().flat_map(|i| i.routers()),
        ),
        _ => unreachable!("a detailed network is one die or a chiplet"),
    }
}

#[test]
fn mesh_reciprocal_run() {
    let got = cosim_case(&Target::cmp(4, 4));
    assert_eq!(
        got,
        Golden {
            cycles: 1803,
            messages: 954,
            latency_mean_bits: 4623196345099621537,
            flits: 2763,
            vc_allocs: 3426,
            sa_grants: 10034,
            buffer_writes: 10052
        }
    );
}

#[test]
fn torus_dateline_classes() {
    let got = noc_case(
        NocConfig::new(8, 4)
            .with_topology(TopologyKind::Torus)
            .with_seed(2),
    );
    assert_eq!(
        got,
        Golden {
            cycles: 1200,
            messages: 1777,
            latency_mean_bits: 4623995836289004075,
            flits: 4233,
            vc_allocs: 7203,
            sa_grants: 16987,
            buffer_writes: 16987
        }
    );
}

#[test]
fn cmesh_eight_ports() {
    let got =
        noc_case(NocConfig::new(8, 4).with_topology(TopologyKind::CMesh { concentration: 4 }));
    assert_eq!(
        got,
        Golden {
            cycles: 1200,
            messages: 1777,
            latency_mean_bits: 4628078569842587150,
            flits: 4233,
            vc_allocs: 4860,
            sa_grants: 11436,
            buffer_writes: 11436
        }
    );
}

#[test]
fn o1turn_parity_bands() {
    let got = noc_case(
        NocConfig::new(8, 4)
            .with_routing(Routing::O1Turn)
            .with_seed(9),
    );
    assert_eq!(
        got,
        Golden {
            cycles: 1200,
            messages: 1777,
            latency_mean_bits: 4625601051491021951,
            flits: 4233,
            vc_allocs: 8751,
            sa_grants: 20607,
            buffer_writes: 20607
        }
    );
}

#[test]
fn flaky_link_orphans_are_discarded() {
    // Router 10's east link drops a third of its flits: lost heads leave
    // orphaned bodies that route compute must discard downstream.
    let plan = FaultPlan::new().flaky_link(10, 1, 0, 1_200, 0.3);
    let got = noc_case(NocConfig::new(8, 4).with_faults(plan));
    assert_eq!(
        got,
        Golden {
            cycles: 1200,
            messages: 1595,
            latency_mean_bits: 4625388114409658851,
            flits: 3659,
            vc_allocs: 8001,
            sa_grants: 18156,
            buffer_writes: 18354
        }
    );
}

#[test]
fn two_cycle_links() {
    // Every preset uses one-cycle links; this is the only pin on the
    // three-slot wire ring and the slot arithmetic at `link_latency > 1`.
    let got = noc_case(NocConfig::new(8, 4).with_link_latency(2));
    assert_eq!(
        got,
        Golden {
            cycles: 1200,
            messages: 1777,
            latency_mean_bits: 4626645692724227803,
            flits: 4233,
            vc_allocs: 8751,
            sa_grants: 20607,
            buffer_writes: 20607
        }
    );
}

#[test]
fn chiplet_two_islands() {
    let got = cosim_case(&Target::chiplet(2, 4, 4, InterposerClass::Silicon));
    assert_eq!(
        got,
        Golden {
            cycles: 3064,
            messages: 2430,
            latency_mean_bits: 4624883299960261618,
            flits: 10373,
            vc_allocs: 13995,
            sa_grants: 41404,
            buffer_writes: 41431
        }
    );
}

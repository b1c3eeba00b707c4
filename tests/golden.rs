//! Golden values: absolute simulation results pinned at a known-good commit.
//!
//! `tests/determinism.rs` compares engines that all share one `Router`, so
//! an arbitration-order change that moves serial and parallel runs alike
//! slips through it. These cases pin absolute numbers instead — cycles,
//! messages, latency-mean bits, delivered flits, and the router event
//! counters summed over the network — on every router code path the
//! allocators branch on: a mesh co-simulation, an 8-port concentrated
//! mesh, a flaky link (route compute's orphan-discard branch), a dead
//! link, a stall and a flaky window under load (every `FaultStats`
//! counter: flits and credits lost at dead channels, flaky drops, stalled
//! cycles, reroutes), two-cycle links (multi-slot wire rings), and a
//! chiplet. A windowed replay
//! at link latencies 1 and 2 also pins the serial schedule itself: how many
//! router steps ran and how many cycles `fast_forward_idle` covered.
//!
//! The full-system cases pin every `FullSysStats` counter of the tiles
//! themselves — instructions, loads, stores, L1/L2 hits and misses, stale
//! forwards, and the miss-latency count and mean bits — over an abstract
//! network, a one-entry store buffer (the stalled-core and parked-buffer
//! paths), a lockstep run over the cycle-level NoC, and a speculative
//! pipelined run that rolls back, so a snapshot is restored mid-run.
//!
//! The values were recorded before the router's scans became bitmask
//! walks, the two-cycle-link pin before links became push-based, the
//! full-system pins before tiles were stepped only when they can act, and
//! the fault pin before switch traversal wrote the links itself, and the
//! windowed-replay pin before the serial tick ran its cycles in batches.
//! Editing one is a simulated-behaviour change, not a test fix.

use reciprocal_abstraction::cosim::{
    InterposerClass, ModeSpec, ReciprocalNetwork, RunSpec, Target,
};
use reciprocal_abstraction::fullsys::{FullSysConfig, FullSystem};
use reciprocal_abstraction::netmodel::{AbstractNetwork, HopLatency, HopMetric};
use reciprocal_abstraction::noc::{
    FaultPlan, FaultStats, InjectionProcess, NocConfig, NocNetwork, NocStats, Router, TopologyKind,
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
    noc_run(&mut NocNetwork::new(cfg).unwrap())
}

/// [`noc_case`] on a network the caller keeps, to read more of its stats.
fn noc_run(net: &mut NocNetwork) -> Golden {
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
            gen.inject_cycle(net, Cycle(now));
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
    golden(
        cycles,
        messages,
        &detailed.stats(),
        detailed.islands().iter().flat_map(|i| i.routers()),
    )
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
fn faults_under_load() {
    // Router 9 is cut off at cycle 300 with flits on its links and in its
    // output ports: they and its returned credits are lost at the dead
    // channels, and the traffic routed around it counts as reroutes.
    // Router 20 freezes for 60 cycles, and router 2's north link drops a
    // fifth of its flits for 400 cycles.
    let plan = FaultPlan::new()
        .isolate_router(9, 300)
        .stall_router(20, 200, 260)
        .flaky_link(2, 0, 100, 500, 0.2);
    let mut net = NocNetwork::new(NocConfig::new(8, 4).with_faults(plan)).unwrap();
    let got = noc_run(&mut net);
    let faults = net.stats().faults;
    assert_eq!(
        (got, faults),
        (
            Golden {
                cycles: 1200,
                messages: 1484,
                latency_mean_bits: 4626233950175169119,
                flits: 3376,
                vc_allocs: 7788,
                sa_grants: 17377,
                buffer_writes: 17727
            },
            FaultStats {
                flits_dropped_dead: 74,
                flits_dropped_flaky: 25,
                stall_cycles: 60,
                reroutes: 639
            }
        )
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

/// A coupler-style replay on the serial engine: each 250-cycle window's
/// messages are injected ahead at their own cycles, then `tick` runs to the
/// window's end. Two windows in three carry an 80-cycle burst that starts
/// 30 cycles in, and the third is silent, so the mesh drains and idles
/// between bursts and `fast_forward_idle` covers the gaps. Returns the
/// usual pin plus the router steps and fast-forwarded cycles, which decide
/// what the stepping loop did and skipped.
fn windowed_case(link_latency: u32) -> (Golden, u64, u64) {
    const WINDOW: u64 = 250;
    let mut net = NocNetwork::new(NocConfig::new(8, 4).with_link_latency(link_latency)).unwrap();
    let mut gens = [
        TrafficGen::new(
            8,
            4,
            TrafficPattern::Uniform,
            InjectionProcess::Bernoulli { rate: 0.08 },
            21,
        ),
        TrafficGen::new(
            8,
            4,
            TrafficPattern::Uniform,
            InjectionProcess::Bernoulli { rate: 0.03 },
            22,
        )
        .with_class(MessageClass::Response)
        .with_payload_bytes(72),
    ];
    for w in 0..12 {
        let start = w * WINDOW;
        if w % 3 != 2 {
            for now in start + 30..start + 110 {
                for gen in &mut gens {
                    gen.inject_cycle(&mut net, Cycle(now));
                }
            }
        }
        net.tick(Cycle(start + WINDOW - 1));
    }
    let stats = net.stats();
    (
        golden(stats.cycles, stats.delivered, stats, net.routers().iter()),
        net.compute_invocations(),
        net.fast_forwarded_cycles(),
    )
}

#[test]
fn windowed_replay_schedule() {
    let got: Vec<_> = [1, 2].into_iter().map(windowed_case).collect();
    assert_eq!(
        got,
        vec![
            (
                Golden {
                    cycles: 3000,
                    messages: 2227,
                    latency_mean_bits: 4625390576240481608,
                    flits: 4639,
                    vc_allocs: 11009,
                    sa_grants: 22873,
                    buffer_writes: 22873
                },
                22226,
                1883
            ),
            (
                Golden {
                    cycles: 3000,
                    messages: 2227,
                    latency_mean_bits: 4626506364787586100,
                    flits: 4639,
                    vc_allocs: 11009,
                    sa_grants: 22873,
                    buffer_writes: 22873
                },
                23213,
                1816
            ),
        ]
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

/// Every `FullSysStats` field of a full-system run, tile counters included.
#[derive(Debug, PartialEq, Eq)]
struct FullSysGolden {
    cycles: u64,
    messages_by_class: [u64; MessageClass::COUNT],
    instructions: u64,
    loads: u64,
    stores: u64,
    l1_hits: u64,
    l1_misses: u64,
    l2_hits: u64,
    l2_misses: u64,
    stale_forwards: u64,
    miss_count: u64,
    miss_mean_bits: u64,
}

/// Runs `app` on a full system over `net` until every core retires
/// `per_core` instructions.
fn fullsys_case<N: Network>(
    cfg: FullSysConfig,
    net: N,
    app: AppProfile,
    per_core: u64,
) -> FullSysGolden {
    let workload = AppWorkload::new(app, cfg.tiles(), 5);
    let mut sys = FullSystem::new(cfg, net, workload).unwrap();
    sys.run_until_instructions(per_core, 2_000_000).unwrap();
    let s = sys.stats();
    let t = &s.tiles;
    FullSysGolden {
        cycles: s.cycles,
        messages_by_class: s.messages_by_class,
        instructions: t.instructions,
        loads: t.loads,
        stores: t.stores,
        l1_hits: t.l1_hits,
        l1_misses: t.l1_misses,
        l2_hits: t.l2_hits,
        l2_misses: t.l2_misses,
        stale_forwards: t.stale_forwards,
        miss_count: t.miss_latency.count(),
        miss_mean_bits: t.miss_latency.mean().to_bits(),
    }
}

fn hop_net(cfg: &FullSysConfig) -> AbstractNetwork<HopLatency> {
    AbstractNetwork::new(HopLatency::default(), HopMetric::Mesh(cfg.shape), 16)
}

#[test]
fn fullsys_ocean_over_hop_latency() {
    let cfg = Target::cmp(4, 4).fullsys;
    let got = fullsys_case(cfg.clone(), hop_net(&cfg), AppProfile::ocean(), 400);
    assert_eq!(
        got,
        FullSysGolden {
            cycles: 14395,
            messages_by_class: [5311, 5337, 402],
            instructions: 8909,
            loads: 1933,
            stores: 811,
            l1_hits: 36,
            l1_misses: 2689,
            l2_hits: 2,
            l2_misses: 2610,
            stale_forwards: 1,
            miss_count: 2666,
            miss_mean_bits: 4637944461090182222,
        }
    );
}

#[test]
fn fullsys_one_entry_store_buffer() {
    // A store that finds the buffer full stalls the core, and the buffer's
    // head waits on its own GetX.
    let mut cfg = Target::cmp(4, 4).fullsys;
    cfg.store_buffer = 1;
    let got = fullsys_case(cfg.clone(), hop_net(&cfg), AppProfile::water(), 400);
    assert_eq!(
        got,
        FullSysGolden {
            cycles: 4095,
            messages_by_class: [1133, 1101, 0],
            instructions: 14307,
            loads: 410,
            stores: 170,
            l1_hits: 8,
            l1_misses: 568,
            l2_hits: 0,
            l2_misses: 549,
            stale_forwards: 0,
            miss_count: 548,
            miss_mean_bits: 4638086111224786256,
        }
    );
}

#[test]
fn fullsys_lockstep_over_the_noc() {
    let target = Target::cmp(4, 4);
    let net = NocNetwork::new(target.noc.clone()).unwrap();
    let got = fullsys_case(target.fullsys, net, AppProfile::ocean(), 200);
    assert_eq!(
        got,
        FullSysGolden {
            cycles: 7385,
            messages_by_class: [2635, 2626, 46],
            instructions: 4790,
            loads: 952,
            stores: 387,
            l1_hits: 6,
            l1_misses: 1329,
            l2_hits: 1,
            l2_misses: 1294,
            stale_forwards: 1,
            miss_count: 1310,
            miss_mean_bits: 4638219224877058726,
        }
    );
}

#[test]
fn fullsys_pipelined_run_that_rolls_back() {
    let target = Target::cmp(4, 4);
    let mode: ModeSpec = "reciprocal:quantum=300,pipeline=on".parse().unwrap();
    let r = RunSpec::new(&target, &AppProfile::ocean())
        .mode(mode)
        .instructions(300)
        .budget(2_000_000)
        .seed(5)
        .run()
        .unwrap();
    let c = r.coupler.as_ref().expect("reciprocal run");
    assert!(
        c.spec_rollbacks > 0,
        "the run must restore a snapshot: {c:?}"
    );
    assert_eq!(
        (
            r.cycles,
            r.messages,
            r.ipc.to_bits(),
            r.latency.mean().to_bits()
        ),
        (11562, 8203, 4603576267152361635, 4623785216693963278)
    );
}

//! Property-based tests of the core invariants, spanning crates.

use proptest::prelude::*;
use reciprocal_abstraction::netmodel::{
    AbstractNetwork, CalibratedModel, HopLatency, HopMetric, LatencyModel, LoadContext,
    QueueingLatency,
};
use reciprocal_abstraction::noc::{
    InjectionProcess, NocConfig, NocNetwork, TrafficGen, TrafficPattern,
};
use reciprocal_abstraction::sim::{
    Cycle, LatencyTable, MeshShape, MessageClass, NetMessage, Network, NodeId, Pcg32, Summary,
};

fn arb_pattern() -> impl Strategy<Value = TrafficPattern> {
    prop_oneof![
        Just(TrafficPattern::Uniform),
        Just(TrafficPattern::Transpose),
        Just(TrafficPattern::BitComplement),
        Just(TrafficPattern::Tornado),
        Just(TrafficPattern::Neighbor),
        (1u32..4).prop_map(|n| TrafficPattern::Hotspot {
            targets: (0..n).map(NodeId).collect(),
            fraction: 0.4,
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conservation: whatever synthetic traffic is offered, every message
    /// injected into the cycle-level NoC is eventually delivered, exactly
    /// once.
    #[test]
    fn noc_conserves_messages(
        pattern in arb_pattern(),
        rate in 0.005f64..0.12,
        seed in 0u64..1_000,
    ) {
        let cfg = NocConfig::new(4, 4).with_seed(seed);
        let mut net = NocNetwork::new(cfg).unwrap();
        let mut gen = TrafficGen::new(4, 4, pattern, InjectionProcess::Bernoulli { rate }, seed);
        gen.run(&mut net, 1_500);
        net.run_until_drained(300_000).unwrap();
        prop_assert_eq!(net.stats().injected, gen.injected());
        prop_assert_eq!(net.stats().delivered, gen.injected());
        prop_assert_eq!(net.in_flight(), 0);
        prop_assert_eq!(net.buffered_flits(), 0);
    }

    /// Every delivered packet respects the physical lower bound: the
    /// zero-load pipeline latency for its distance and size.
    #[test]
    fn noc_latency_never_beats_zero_load(seed in 0u64..500) {
        let cfg = NocConfig::new(4, 4);
        let mut net = NocNetwork::new(cfg.clone()).unwrap();
        let mut rng = Pcg32::new(seed, 1);
        let mut msgs = Vec::new();
        for i in 0..30u64 {
            let src = rng.below(16);
            let dst = rng.below(16);
            let bytes = 8 + rng.below(80);
            let m = NetMessage::new(i, NodeId(src), NodeId(dst), MessageClass::Request, bytes);
            msgs.push(m);
            net.inject(m, Cycle(0));
        }
        net.run_until_drained(100_000).unwrap();
        let metric = HopMetric::Mesh(cfg.shape);
        let model = HopLatency::default();
        for d in net.drain_delivered(Cycle(net.next_cycle())) {
            let ctx = LoadContext {
                utilization: 0.0,
                hops: metric.hops(d.msg.src, d.msg.dst),
                flits: d.msg.flits(cfg.flit_bytes),
            };
            let floor = model.latency(&d.msg, &ctx);
            prop_assert!(
                d.at.0 >= floor,
                "{:?} delivered at {} beats zero-load floor {}",
                d.msg, d.at.0, floor
            );
        }
    }

    /// Summary::merge is order-insensitive (the parallel-reduction
    /// requirement).
    #[test]
    fn summary_merge_is_commutative(xs in prop::collection::vec(-1e6f64..1e6, 1..50),
                                    split in 0usize..50) {
        let split = split.min(xs.len());
        let (left, right) = xs.split_at(split);
        let mut a = Summary::new();
        let mut b = Summary::new();
        for &x in left { a.record(x); }
        for &x in right { b.record(x); }
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        prop_assert_eq!(ab.count(), ba.count());
        let scale = ab.mean().abs().max(1.0);
        prop_assert!((ab.mean() - ba.mean()).abs() < 1e-9 * scale);
        let vscale = ab.variance().abs().max(1.0);
        prop_assert!((ab.variance() - ba.variance()).abs() < 1e-9 * vscale);
        prop_assert_eq!(ab.min(), ba.min());
        prop_assert_eq!(ab.max(), ba.max());
    }

    /// The calibrated model reproduces any affine latency law it is
    /// trained on, at every distance (including unobserved ones).
    #[test]
    fn calibrated_model_learns_affine_laws(
        intercept in 5.0f64..40.0,
        slope in 3.0f64..12.0,
        holes in prop::collection::hash_set(0usize..10, 0..4),
    ) {
        let mut model = CalibratedModel::new(10, 1.0);
        let mut table = LatencyTable::new(10);
        for h in 0..=10usize {
            if holes.contains(&h) {
                continue; // unobserved distance
            }
            table.record(MessageClass::Request, h, intercept + slope * h as f64);
        }
        model.update(&table);
        let msg = NetMessage::new(0, NodeId(0), NodeId(1), MessageClass::Request, 8);
        for h in 0..=10usize {
            let ctx = LoadContext { utilization: 0.0, hops: h, flits: 1 };
            let got = model.latency(&msg, &ctx) as f64;
            let want = intercept + slope * h as f64;
            prop_assert!(
                (got - want).abs() <= want * 0.05 + 1.0,
                "hops {h}: got {got}, want {want}"
            );
        }
    }

    /// Load-aware models are monotone in utilization.
    #[test]
    fn queueing_model_is_monotone_in_load(hops in 1usize..12, lo in 0.0f64..0.15) {
        let hi = lo + 0.1;
        let model = QueueingLatency::default();
        let msg = NetMessage::new(0, NodeId(0), NodeId(1), MessageClass::Request, 8);
        let low = model.latency(&msg, &LoadContext { utilization: lo, hops, flits: 1 });
        let high = model.latency(&msg, &LoadContext { utilization: hi, hops, flits: 1 });
        prop_assert!(high >= low);
    }

    /// Abstract networks deliver every message exactly once, in
    /// non-decreasing time order.
    #[test]
    fn abstract_network_delivery_is_total_and_ordered(
        n in 1usize..60,
        seed in 0u64..500,
    ) {
        let shape = MeshShape::new(4, 4).unwrap();
        let mut net = AbstractNetwork::new(HopLatency::default(), HopMetric::Mesh(shape), 16);
        let mut rng = Pcg32::new(seed, 0);
        for i in 0..n as u64 {
            let src = rng.below(16);
            let dst = rng.below(16);
            net.inject(
                NetMessage::new(i, NodeId(src), NodeId(dst), MessageClass::Response, 72),
                Cycle(i),
            );
        }
        net.tick(Cycle(10_000));
        let out = net.drain_delivered(Cycle(10_000));
        prop_assert_eq!(out.len(), n);
        prop_assert!(out.windows(2).all(|w| w[0].at <= w[1].at));
        let mut ids: Vec<_> = out.iter().map(|d| d.msg.id).collect();
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..n as u64).collect::<Vec<_>>());
    }

    /// The PCG stream is seed-stable and `below` is always in range even
    /// for awkward bounds.
    #[test]
    fn pcg_below_is_always_in_bounds(seed in any::<u64>(), bound in 1u32..u32::MAX) {
        let mut rng = Pcg32::new(seed, 1);
        for _ in 0..50 {
            prop_assert!(rng.below(bound) < bound);
        }
    }
}

//! F6 — Parallel NoC engine self-speedup vs worker count and network size.
//!
//! Criterion bench comparing the serial cycle engine against the
//! bulk-synchronous parallel engine for growing mesh sizes under uniform load.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ra_gpu::ParallelEngine;
use ra_noc::{InjectionProcess, NocConfig, NocNetwork, TrafficGen, TrafficPattern};
use ra_sim::Cycle;

const CYCLES: u64 = 300;

fn load_network(cols: u32, rows: u32) -> (NocNetwork, TrafficGen) {
    let net = NocNetwork::new(NocConfig::new(cols, rows)).expect("noc");
    let gen = TrafficGen::new(
        cols,
        rows,
        TrafficPattern::Uniform,
        InjectionProcess::Bernoulli { rate: 0.05 },
        7,
    );
    (net, gen)
}

fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("noc-engines");
    group.sample_size(10);
    for (cols, rows) in [(8u32, 8u32), (16, 16), (32, 16)] {
        let label = format!("{}x{}", cols, rows);
        group.bench_with_input(BenchmarkId::new("serial", &label), &(cols, rows), |b, &(c_, r_)| {
            b.iter(|| {
                let (mut net, mut gen) = load_network(c_, r_);
                for now in 0..CYCLES {
                    gen.inject_cycle(&mut net, Cycle(now));
                    net.step();
                }
                net.stats().delivered
            })
        });
        for workers in [2usize, 4, 8] {
            group.bench_with_input(
                BenchmarkId::new(format!("parallel-{workers}"), &label),
                &(cols, rows),
                |b, &(c_, r_)| {
                    let mut engine = ParallelEngine::new(workers);
                    b.iter(|| {
                        let (mut net, mut gen) = load_network(c_, r_);
                        for now in 0..CYCLES {
                            gen.inject_cycle(&mut net, Cycle(now));
                            engine.run_cycle(&mut net).expect("no worker faults");
                        }
                        net.stats().delivered
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);

//! Steady-state zero-allocation proof for the router hot path.
//!
//! A counting global allocator tallies every heap allocation in the
//! process. The network is driven with a deterministic periodic traffic
//! pattern until every internal buffer has reached its high-water mark
//! (packet table, free list, event scratches, per-VC buffers, delivery
//! drain buffer), then the identical pattern continues and the test
//! asserts that **zero** further allocations happen: `Router::step` (whose
//! switch traversal writes the links and marks the receivers' arrival
//! words) and the per-batch network bookkeeping run entirely out of reused
//! scratch storage. The pattern runs once a cycle at a time through `step`
//! and once a window at a time through `tick`, whose batches cover up to 64
//! cycles. A batch's events (a few dozen here) are ordered by the standard
//! library's stable sort, which sorts up to 256 of them in a stack buffer;
//! a batch with more delivery or net-start events than that takes one heap
//! buffer per sort.
//!
//! Everything lives in one `#[test]` because the allocation counter is
//! process-global: a second test running concurrently on another harness
//! thread would contaminate the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ra_noc::{NocConfig, NocNetwork};
use ra_obs::{NullRecorder, ObsSink};
use ra_sim::{Cycle, Delivery, MessageClass, NetMessage, Network, NodeId};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to the system allocator; the counter
// is a side effect only.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Drives `cycles` cycles of a fixed periodic pattern: every 5th cycle
/// injects the same three source→destination messages (2 flits each),
/// steps the network, and drains deliveries into a recycled buffer.
fn drive(net: &mut NocNetwork, out: &mut Vec<Delivery>, next_id: &mut u64, cycles: u64) {
    for _ in 0..cycles {
        let now = net.next_cycle();
        if now.is_multiple_of(5) {
            for (src, dst) in [(0u32, 15u32), (3, 12), (5, 10)] {
                net.inject(
                    NetMessage::new(*next_id, NodeId(src), NodeId(dst), MessageClass::Request, 32),
                    Cycle(now),
                );
                *next_id += 1;
            }
        }
        net.step();
        net.drain_delivered_into(out);
        out.clear();
    }
}

/// The same pattern the way a co-simulation quantum drives the network:
/// each 100-cycle window's messages are injected ahead at their own cycles,
/// then one `tick` runs the window in batches of up to 64 cycles, each
/// settled with a stable sort of its cycle-stamped events.
fn drive_windows(net: &mut NocNetwork, out: &mut Vec<Delivery>, next_id: &mut u64, cycles: u64) {
    const WINDOW: u64 = 100;
    for _ in 0..cycles / WINDOW {
        let start = net.next_cycle();
        for now in (start..start + WINDOW).filter(|now| now.is_multiple_of(5)) {
            for (src, dst) in [(0u32, 15u32), (3, 12), (5, 10)] {
                net.inject(
                    NetMessage::new(*next_id, NodeId(src), NodeId(dst), MessageClass::Request, 32),
                    Cycle(now),
                );
                *next_id += 1;
            }
        }
        net.tick(Cycle(start + WINDOW - 1));
        net.drain_delivered_into(out);
        out.clear();
    }
}

type Driver = fn(&mut NocNetwork, &mut Vec<Delivery>, &mut u64, u64);

fn measure(gating: bool, drive: Driver) -> u64 {
    let cfg = NocConfig::new(4, 4).with_clock_gating(gating);
    let mut net = NocNetwork::new(cfg).unwrap();
    let mut out = Vec::new();
    let mut next_id = 0u64;
    // Warm-up: long enough for every buffer to hit its high-water mark.
    drive(&mut net, &mut out, &mut next_id, 1_000);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    // Steady state: the identical pattern, so no new high-water marks.
    drive(&mut net, &mut out, &mut next_id, 1_000);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    // The traffic must actually have flowed (the hot path was exercised).
    assert!(net.stats().delivered > 1_000, "pattern did not deliver");
    net.audit().unwrap();
    after - before
}

/// Same steady-state drive, but with an enabled observability sink attached
/// and a window event emitted every 100 cycles. `Event::NocWindow` carries
/// only plain numbers, so routing it through a [`NullRecorder`] must stay
/// allocation-free: instrumentation cannot cost the hot path its guarantee.
fn measure_observed() -> u64 {
    let cfg = NocConfig::new(4, 4).with_clock_gating(true);
    let mut net = NocNetwork::new(cfg).unwrap();
    let (sink, _recorder) = ObsSink::attach(NullRecorder);
    net.set_sink(sink);
    let mut out = Vec::new();
    let mut next_id = 0u64;
    drive(&mut net, &mut out, &mut next_id, 1_000);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..10 {
        let snap = net.window_snapshot();
        drive(&mut net, &mut out, &mut next_id, 100);
        net.emit_window(&snap);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert!(net.stats().delivered > 1_000, "pattern did not deliver");
    net.audit().unwrap();
    after - before
}

#[test]
fn steady_state_stepping_allocates_nothing() {
    // Gating off: every router steps every cycle — the full scratch-reuse
    // surface. Gating on: the liveness tests and wake bookkeeping must be
    // allocation-free too. Each both one cycle at a time (`step`) and in
    // windows (`tick`'s multi-cycle batches and fast-forwards).
    for gating in [false, true] {
        for (name, drive) in [("step", drive as Driver), ("tick", drive_windows)] {
            let allocs = measure(gating, drive);
            assert_eq!(
                allocs, 0,
                "steady-state {name} allocated {allocs} times (gating: {gating})"
            );
        }
    }
    // With the observability sink enabled the steady state must stay clean:
    // the per-cycle path never consults the sink, and the per-window events
    // are built from scratch-free numeric snapshots.
    let allocs = measure_observed();
    assert_eq!(
        allocs, 0,
        "instrumented steady-state cycle allocated {allocs} times"
    );
}

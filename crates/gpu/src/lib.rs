//! Data-parallel execution engine for the cycle-level NoC.
//!
//! The paper offloads its cycle-level network simulator to a GPU coprocessor:
//! router state lives in device memory and every simulated cycle is a
//! bulk-synchronous data-parallel kernel launch. This crate reproduces that
//! execution structure on host threads (see DESIGN.md for the substitution
//! argument): each batch of cycles opens a thread scope whose workers, the
//! calling thread among them, step the live routers of a cycle in parallel,
//! each a contiguous router range, cross a barrier, and proceed straight into
//! the next cycle of the batch — a multi-cycle kernel-launch/sync cadence.
//!
//! Because [`ra_noc::Router::step`] reads only the wire bank of cycle
//! `c - L`, writes only router-local state and the router's own wires in
//! the bank of cycle `c`, and marks only arrival slot `(c + L) % P`, the
//! routers of one cycle cannot observe each other, and the parallel
//! schedule produces **bit-identical results** to the serial engine (tested
//! here and in the workspace integration tests). The workers reach routers
//! and wires through safe borrows only: each holds the `&mut` sub-slice of
//! its own routers, and all share the network's atomic wire slots and
//! arrival words ([`ra_noc::Wires::links`]).
//!
//! # Batched cycles
//!
//! Starting and joining the workers costs a thread spawn and join each. The
//! engine therefore executes up to [`MAX_BATCH_CYCLES`] cycles per scope, as
//! the serial engine does, and between cycles the workers synchronize on
//! one barrier. Injections coming due inside a batch are handed out up
//! front ([`ra_noc::ReleasedInjection`]) and applied by the owning worker at
//! the right cycle, and delivery events are cycle-stamped and merged
//! afterwards in exactly the serial order ([`NocNetwork::finish_batch`]).
//!
//! # Clock gating
//!
//! Each worker makes the serial engine's own per-cycle pass,
//! [`step_range`], over its range, so it applies the same liveness
//! predicate ([`ra_noc::EngineParts::router_live`]) and a mostly-idle mesh
//! costs a liveness check per router instead of a full pipeline step. The
//! routers are split into equal contiguous ranges; re-cutting them every
//! batch so that each worker held an equal share of live routers measured
//! no faster.
//!
//! # Example
//!
//! ```
//! use ra_gpu::ParallelEngine;
//! use ra_noc::{NocConfig, NocNetwork};
//! use ra_sim::{Cycle, MessageClass, NetMessage, Network, NodeId};
//!
//! let mut net = NocNetwork::new(NocConfig::new(4, 4))?;
//! let mut engine = ParallelEngine::new(2);
//! net.inject(
//!     NetMessage::new(0, NodeId(0), NodeId(15), MessageClass::Request, 8),
//!     Cycle(0),
//! );
//! engine.run_cycles(&mut net, 100).expect("no worker faults");
//! assert_eq!(net.stats().delivered, 1);
//! # Ok::<(), ra_sim::ConfigError>(())
//! ```

#![forbid(unsafe_code)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use ra_noc::{
    step_range, Arrivals, NocNetwork, ReleasedInjection, Router, TopologyMap, Wires,
    MAX_BATCH_CYCLES,
};
use ra_obs::{Event, ObsSink};
use ra_sim::SimError;

/// Polls, one pause hint apart, a [`SpinBarrier`] waiter makes before it
/// parks: some tens of microseconds on the 2-core host, about two cycles
/// of one worker's share of a 256-router mesh.
const SPIN_POLLS: u32 = 1024;

/// The barrier between the cycles of a batch. Its parties are workers that
/// each just finished a cycle of similar size, so the last one is usually
/// microseconds away: waiters poll before they park, and a crossing then
/// costs no futex wake-up, which on a VM is an inter-processor interrupt
/// whose latency follows the host's load. A batch's start and end are the
/// scope's spawn and join, which no worker spins on.
#[derive(Debug)]
struct SpinBarrier {
    parties: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    /// Waiters parked on `cv`; the releaser skips the wake-up when none.
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

impl SpinBarrier {
    fn new(parties: usize) -> Self {
        SpinBarrier {
            parties,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            sleepers: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    fn wait(&self) {
        let generation = self.generation.load(Ordering::Acquire);
        // AcqRel: the last arriver acquires every earlier party's writes,
        // and its generation store below releases them to all.
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            // No party arrives again before it sees the new generation.
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.store(generation.wrapping_add(1), Ordering::SeqCst);
            // SeqCst pairs with the waiter's `sleepers` increment and
            // generation check: either it sees the new generation, or
            // this sees it counted and wakes it under the lock.
            if self.sleepers.load(Ordering::SeqCst) > 0 {
                let _guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
                self.cv.notify_all();
            }
            return;
        }
        for _ in 0..SPIN_POLLS {
            if self.generation.load(Ordering::Acquire) != generation {
                return;
            }
            std::hint::spin_loop();
        }
        let mut guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        while self.generation.load(Ordering::SeqCst) == generation {
            guard = self.cv.wait(guard).unwrap_or_else(PoisonError::into_inner);
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// What every worker of one batch shares: the network's read-only and
/// atomic parts, the batch's schedule, and what the workers report back.
struct Batch<'a> {
    topo: &'a TopologyMap,
    wires: &'a Wires,
    arrivals: &'a Arrivals,
    /// Injections coming due inside the batch, sorted by `(cycle, order)`.
    releases: &'a [ReleasedInjection],
    /// First cycle of the batch.
    t0: u64,
    /// Cycles in the batch (1..=[`MAX_BATCH_CYCLES`]).
    cycles: u64,
    gating: bool,
    barrier: &'a SpinBarrier,
    /// Bit `c` set = some router moved a flit in the batch's `c`-th cycle
    /// (ORed in by workers, consumed by `finish_batch`).
    active_bits: AtomicU64,
    /// First panic caught inside a worker this batch, as
    /// `(worker index, panic payload)`.
    fault: Mutex<Option<(usize, String)>>,
    /// Time the workers' cycle bodies and barrier waits (only when a sink
    /// is attached: two clock reads per worker per cycle).
    timed: bool,
    /// Nanoseconds the workers spent stepping, summed over workers.
    busy_ns: AtomicU64,
    /// Nanoseconds the workers spent in [`SpinBarrier::wait`], summed.
    wait_ns: AtomicU64,
}

impl Batch<'_> {
    /// Worker `worker`'s share of the batch: every cycle, the injections
    /// coming due in its range, one [`step_range`] pass over `routers`
    /// (router `first` on), then the barrier. A panic inside a router step
    /// (a model bug, or an injected test fault) is caught and recorded, and
    /// the worker skips its remaining cycle bodies but keeps crossing the
    /// barrier, so the others never wait on it forever.
    fn work(&self, worker: usize, first: usize, routers: &mut [Router]) {
        let own = first..first + routers.len();
        let mut due = self.releases.iter().peekable();
        let mut dead = false;
        let end = self.t0 + self.cycles;
        let (mut busy, mut wait) = (Duration::ZERO, Duration::ZERO);
        let clock = || self.timed.then(Instant::now);
        for c in self.t0..end {
            let started = clock();
            if !dead {
                let result = catch_unwind(AssertUnwindSafe(|| {
                    while let Some(rel) = due.next_if(|rel| rel.cycle <= c) {
                        if own.contains(&(rel.router as usize)) {
                            routers[rel.router as usize - first].apply_release(rel);
                        }
                    }
                    let pass = step_range(
                        self.topo,
                        routers,
                        first,
                        &self.wires.links(c, self.arrivals, own.clone(), true),
                        self.arrivals,
                        self.gating,
                        c,
                    );
                    if pass.moved {
                        self.active_bits
                            .fetch_or(1 << (c - self.t0), Ordering::Relaxed);
                    }
                }));
                if let Err(payload) = result {
                    let mut slot = self.fault.lock().unwrap_or_else(PoisonError::into_inner);
                    slot.get_or_insert_with(|| (worker, panic_message(payload.as_ref())));
                    dead = true;
                }
            }
            if c + 1 < end {
                let arrived = clock();
                self.barrier.wait();
                busy += elapsed_between(started, arrived);
                wait += arrived.map_or(Duration::ZERO, |t| t.elapsed());
            } else {
                busy += started.map_or(Duration::ZERO, |t| t.elapsed());
            }
        }
        if self.timed {
            self.busy_ns.fetch_add(busy.as_nanos() as u64, Ordering::Relaxed);
            self.wait_ns.fetch_add(wait.as_nanos() as u64, Ordering::Relaxed);
        }
    }
}

/// Time from `from` to `to`, when both were taken.
fn elapsed_between(from: Option<Instant>, to: Option<Instant>) -> Duration {
    match (from, to) {
        (Some(from), Some(to)) => to.duration_since(from),
        _ => Duration::ZERO,
    }
}

/// The contiguous router range worker `w` of `n` owns under a uniform
/// split. Routers are spread one-per-worker first, so `workers > routers`
/// gives the surplus workers provably empty ranges (never out-of-bounds
/// ones).
fn range_of(worker: usize, workers: usize, routers: usize) -> std::ops::Range<usize> {
    let workers = workers.max(1);
    let base = routers / workers;
    let extra = routers % workers;
    let lo = worker * base + worker.min(extra);
    let hi = lo + base + usize::from(worker < extra);
    lo..hi
}

/// A bulk-synchronous engine executing NoC cycles on `workers` threads.
///
/// Each batch of cycles runs in its own [`std::thread::scope`]: the calling
/// thread is worker 0 and `workers - 1` scoped threads take the other
/// equal router ranges, so no thread outlives the call that drives it. One
/// engine can drive many networks over its lifetime (only one at a time).
#[derive(Debug)]
pub struct ParallelEngine {
    workers: usize,
    /// The barrier the workers cross between a batch's cycles.
    barrier: SpinBarrier,
    /// Releases of the current batch (reused across batches).
    releases: Vec<ReleasedInjection>,
    /// Observability sink; disabled by default. When enabled, each batch
    /// emits one [`Event::EngineBatch`] with its range cuts, its
    /// wall-clock from opening the scope to joining it, and the workers'
    /// summed stepping and barrier-wait times.
    sink: ObsSink,
}

impl ParallelEngine {
    /// An engine that steps each cycle on `workers` threads (at least 1),
    /// the calling thread included.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        ParallelEngine {
            workers,
            barrier: SpinBarrier::new(workers),
            releases: Vec::new(),
            sink: ObsSink::disabled(),
        }
    }

    /// Number of workers, the calling thread included.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Attaches an observability sink. Per-batch events only; the workers
    /// themselves never touch it.
    pub fn set_sink(&mut self, sink: ObsSink) {
        self.sink = sink;
    }

    /// Executes `cycles` consecutive cycles (1..=[`MAX_BATCH_CYCLES`]) in
    /// one thread scope.
    fn run_batch(&mut self, net: &mut NocNetwork, cycles: u64) -> Result<(), SimError> {
        debug_assert!((1..=MAX_BATCH_CYCLES).contains(&cycles));
        let t0 = net.next_cycle();
        let parts = net.begin_batch(cycles, &mut self.releases);
        let (workers, n) = (self.workers, parts.routers.len());
        let batch = Batch {
            topo: parts.topo,
            wires: parts.wires,
            arrivals: parts.arrivals,
            releases: &self.releases,
            t0,
            cycles,
            gating: parts.gating,
            barrier: &self.barrier,
            active_bits: AtomicU64::new(0),
            fault: Mutex::new(None),
            timed: self.sink.enabled(),
            busy_ns: AtomicU64::new(0),
            wait_ns: AtomicU64::new(0),
        };
        let (own, mut rest) = parts.routers.split_at_mut(range_of(0, workers, n).end);
        let timer = self.sink.enabled().then(Instant::now);
        std::thread::scope(|scope| {
            for w in 1..workers {
                let range = range_of(w, workers, n);
                let (routers, tail) = std::mem::take(&mut rest).split_at_mut(range.len());
                rest = tail;
                let batch = &batch;
                scope.spawn(move || batch.work(w, range.start, routers));
            }
            batch.work(0, 0, own);
        });
        let barrier_wait_ns = timer.map_or(0, |t| t.elapsed().as_nanos() as u64);
        let (busy_ns, wait_ns) = (batch.busy_ns.into_inner(), batch.wait_ns.into_inner());
        let (active_bits, fault) = (batch.active_bits.into_inner(), batch.fault.into_inner());
        if let Some((worker, detail)) = fault.unwrap_or_else(PoisonError::into_inner) {
            return Err(SimError::Fault {
                component: format!("noc-worker-{worker}"),
                detail,
            });
        }
        net.finish_batch(cycles, active_bits);
        let releases = self.releases.len() as u64;
        self.sink.emit(|| Event::EngineBatch {
            t0,
            cycles,
            workers: workers as u64,
            barrier_wait_ns,
            busy_ns,
            wait_ns,
            releases,
            min_range: range_of(workers - 1, workers, n).len() as u64,
            max_range: range_of(0, workers, n).len() as u64,
        });
        Ok(())
    }

    /// Runs exactly `cycles` consecutive cycles, batching up to
    /// [`MAX_BATCH_CYCLES`] at a time and fast-forwarding provably idle
    /// stretches without starting any worker.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Fault`] if a router step panicked on a worker.
    /// The panic is caught inside the worker, which still crosses every
    /// barrier, so the engine remains usable — but the network that was
    /// being stepped must be considered corrupt and rebuilt by the caller.
    pub fn run_cycles(&mut self, net: &mut NocNetwork, cycles: u64) -> Result<(), SimError> {
        let target = net.next_cycle() + cycles;
        while net.next_cycle() < target {
            if net.fast_forward_idle(target) == 0 {
                let batch = (target - net.next_cycle()).min(MAX_BATCH_CYCLES);
                self.run_batch(net, batch)?;
            }
        }
        Ok(())
    }

    /// Runs exactly `cycles` consecutive cycles, batching up to
    /// [`MAX_BATCH_CYCLES`] at a time and never fast-forwarding: for a
    /// caller still holding injections for later cycles of the stretch.
    ///
    /// # Errors
    ///
    /// Propagates the first [`SimError::Fault`] from a batch.
    pub fn step_cycles(&mut self, net: &mut NocNetwork, cycles: u64) -> Result<(), SimError> {
        let target = net.next_cycle() + cycles;
        while net.next_cycle() < target {
            let batch = (target - net.next_cycle()).min(MAX_BATCH_CYCLES);
            self.run_batch(net, batch)?;
        }
        Ok(())
    }
}

/// Renders a caught panic payload into a displayable string.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ra_noc::{InjectionProcess, NocConfig, TrafficGen, TrafficPattern};
    use ra_sim::{Cycle, Network};

    #[test]
    fn range_partition_covers_everything_disjointly() {
        for workers in 1..6 {
            for routers in [0usize, 1, 5, 16, 17, 64] {
                let mut covered = vec![false; routers];
                for w in 0..workers {
                    for i in range_of(w, workers, routers) {
                        assert!(!covered[i], "overlap at {i}");
                        covered[i] = true;
                    }
                }
                assert!(covered.iter().all(|&c| c), "gap for {workers}/{routers}");
            }
        }
    }

    #[test]
    fn surplus_workers_get_empty_ranges() {
        // workers ∈ {1, n, > n}: every case must partition exactly, and
        // surplus workers must see provably empty (not out-of-bounds)
        // ranges.
        let n = 5usize;
        let r = range_of(0, 1, n);
        assert_eq!(r, 0..n, "single worker owns everything");
        for w in 0..n {
            assert_eq!(range_of(w, n, n), w..w + 1, "one router per worker");
        }
        let workers = n + 3;
        let mut covered = 0;
        for w in 0..workers {
            let r = range_of(w, workers, n);
            assert!(r.end <= n, "range {r:?} exceeds {n} routers");
            if w < n {
                assert_eq!(r.len(), 1, "worker {w} must own one router");
            } else {
                assert!(r.is_empty(), "surplus worker {w} got {r:?}");
            }
            covered += r.len();
        }
        assert_eq!(covered, n);
    }

    #[test]
    fn parallel_engine_delivers_traffic() {
        let mut net = NocNetwork::new(NocConfig::new(4, 4)).unwrap();
        let mut engine = ParallelEngine::new(3);
        let mut gen = TrafficGen::new(
            4,
            4,
            TrafficPattern::Uniform,
            InjectionProcess::Bernoulli { rate: 0.05 },
            1,
        );
        for now in 0..2_000u64 {
            gen.inject_cycle(&mut net, Cycle(now));
            engine.step_cycles(&mut net, 1).unwrap();
        }
        engine.run_cycles(&mut net, 1_000).unwrap();
        assert_eq!(net.stats().injected, gen.injected());
        assert_eq!(net.stats().delivered, gen.injected());
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        fn run(parallel: Option<usize>) -> (u64, f64, f64) {
            let mut net = NocNetwork::new(NocConfig::new(8, 8)).unwrap();
            let mut gen = TrafficGen::new(
                8,
                8,
                TrafficPattern::Transpose,
                InjectionProcess::Bernoulli { rate: 0.08 },
                3,
            );
            let mut engine = parallel.map(ParallelEngine::new);
            for now in 0..3_000u64 {
                gen.inject_cycle(&mut net, Cycle(now));
                match engine.as_mut() {
                    Some(e) => e.step_cycles(&mut net, 1).unwrap(),
                    None => net.tick(Cycle(now)),
                }
            }
            let s = net.stats();
            (s.delivered, s.latency.mean(), s.net_latency.mean())
        }
        let serial = run(None);
        for workers in [1, 2, 4] {
            assert_eq!(run(Some(workers)), serial, "workers = {workers}");
        }
    }

    #[test]
    fn batched_cycles_match_per_cycle_runs() {
        fn run(batched: bool, workers: usize) -> ra_noc::NocStats {
            let mut net = NocNetwork::new(NocConfig::new(8, 8).with_seed(11)).unwrap();
            let mut gen = TrafficGen::new(
                8,
                8,
                TrafficPattern::Uniform,
                InjectionProcess::Bernoulli { rate: 0.04 },
                9,
            );
            let mut engine = ParallelEngine::new(workers);
            // Inject for a stretch, go idle, then run a long tail so
            // batches cover busy, draining, and idle windows alike.
            for now in 0..500u64 {
                gen.inject_cycle(&mut net, Cycle(now));
                engine.step_cycles(&mut net, 1).unwrap();
            }
            if batched {
                engine.run_cycles(&mut net, 2_500).unwrap();
            } else {
                for _ in 0..2_500 {
                    engine.step_cycles(&mut net, 1).unwrap();
                }
            }
            net.stats().clone()
        }
        let reference = run(false, 2);
        for workers in [1, 2, 4] {
            assert_eq!(run(true, workers), reference, "workers = {workers}");
        }
    }

    #[test]
    fn engine_survives_multiple_networks() {
        let mut engine = ParallelEngine::new(2);
        for seed in 0..3 {
            let mut net = NocNetwork::new(NocConfig::new(4, 4).with_seed(seed)).unwrap();
            let mut gen = TrafficGen::new(
                4,
                4,
                TrafficPattern::Uniform,
                InjectionProcess::Bernoulli { rate: 0.03 },
                seed,
            );
            for now in 0..500u64 {
                gen.inject_cycle(&mut net, Cycle(now));
                engine.step_cycles(&mut net, 1).unwrap();
            }
            engine.run_cycles(&mut net, 1_000).unwrap();
            assert_eq!(net.stats().delivered, gen.injected());
        }
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let engine = ParallelEngine::new(0);
        assert_eq!(engine.workers(), 1);
    }

    #[test]
    fn spin_barrier_publishes_every_round_spinning_or_parked() {
        // Each party writes its round number, crosses, and must then see
        // every party's write. Party 0 sleeps past the spin window on
        // some rounds, so the others park there and must be woken.
        const PARTIES: usize = 3;
        const ROUNDS: u64 = 200;
        let barrier = SpinBarrier::new(PARTIES);
        let slots: Vec<AtomicU64> = (0..PARTIES).map(|_| AtomicU64::new(0)).collect();
        std::thread::scope(|scope| {
            for me in 0..PARTIES {
                let (barrier, slots) = (&barrier, &slots);
                scope.spawn(move || {
                    for round in 1..=ROUNDS {
                        if me == 0 && round % 20 == 0 {
                            std::thread::sleep(std::time::Duration::from_millis(2));
                        }
                        slots[me].store(round, Ordering::Relaxed);
                        barrier.wait();
                        for slot in slots {
                            assert_eq!(slot.load(Ordering::Relaxed), round);
                        }
                        barrier.wait();
                    }
                });
            }
        });
    }

    /// A router panic in the caller's range (worker 0) or in the last
    /// worker's surfaces as a fault naming that worker, in a one-cycle
    /// batch and in a 64-cycle one whose other cycles the dead worker must
    /// still cross the barrier for; the engine then drives a fresh network
    /// to completion.
    #[test]
    fn router_panic_surfaces_as_fault_and_engine_stays_usable() {
        use ra_sim::{MessageClass, NetMessage, NodeId, SimError};
        let fresh = |gating: bool| {
            let mut net = NocNetwork::new(NocConfig::new(4, 4).with_clock_gating(gating)).unwrap();
            net.inject(
                NetMessage::new(0, NodeId(0), NodeId(15), MessageClass::Request, 8),
                Cycle(0),
            );
            net
        };
        let mut engine = ParallelEngine::new(3);
        // Routers 0..6 are the caller's and 11..16 the last worker's.
        for (router, worker) in [(0, 0), (15, 2)] {
            for cycles in [1, MAX_BATCH_CYCLES] {
                let mut net = fresh(false);
                net.debug_router_mut(router).debug_force_panic();
                let err = engine.run_cycles(&mut net, cycles).unwrap_err();
                let SimError::Fault { component, detail } = &err else {
                    panic!("expected Fault, got {err:?}");
                };
                assert_eq!(
                    component,
                    &format!("noc-worker-{worker}"),
                    "{cycles} cycles"
                );
                assert!(detail.contains(&format!("router {router}")), "got {detail}");

                let mut net = fresh(true);
                engine.run_cycles(&mut net, 1_000).unwrap();
                assert_eq!(net.stats().delivered, 1);
            }
        }
    }

    /// Six workers on four routers: the surplus workers get empty ranges
    /// and still cross every barrier, and windows of `run_cycles` give the
    /// serial tick's statistics exactly.
    #[test]
    fn surplus_workers_match_the_serial_tick() {
        fn run(mut engine: Option<ParallelEngine>) -> ra_noc::NocStats {
            const WINDOW: u64 = 100;
            let mut net = NocNetwork::new(NocConfig::new(2, 2).with_seed(4)).unwrap();
            let mut gen = TrafficGen::new(
                2,
                2,
                TrafficPattern::Uniform,
                InjectionProcess::Bernoulli { rate: 0.1 },
                5,
            );
            for t0 in (0..2_000u64).step_by(WINDOW as usize) {
                for now in t0..t0 + WINDOW {
                    gen.inject_cycle(&mut net, Cycle(now));
                }
                match engine.as_mut() {
                    Some(e) => e.run_cycles(&mut net, WINDOW).unwrap(),
                    None => net.tick(Cycle(t0 + WINDOW - 1)),
                }
            }
            assert!(net.stats().delivered > 0);
            net.stats().clone()
        }
        assert_eq!(run(Some(ParallelEngine::new(6))), run(None));
    }
}

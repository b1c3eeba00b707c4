//! Data-parallel execution engine for the cycle-level NoC.
//!
//! The paper offloads its cycle-level network simulator to a GPU coprocessor:
//! router state lives in device memory and every simulated cycle is a
//! bulk-synchronous data-parallel kernel launch. This crate reproduces that
//! execution structure on host threads (see DESIGN.md for the substitution
//! argument): a persistent worker pool steps all live routers of a cycle in
//! parallel, each worker a contiguous router range, hits a barrier, and
//! proceeds straight into the next cycle of the batch — exactly a
//! multi-cycle kernel-launch/sync cadence.
//!
//! Because [`ra_noc::Router::step`] reads only the wire bank of cycle
//! `c - L`, writes only router-local state and the router's own wires in
//! the bank of cycle `c`, and marks only arrival slot `(c + L) % P`, the
//! routers of one cycle cannot observe each other, and the parallel
//! schedule produces **bit-identical results** to the serial engine (tested
//! here and in the workspace integration tests).
//!
//! # Batched cycles and fused barriers
//!
//! Driving one cycle costs two full-pool rendezvous (start, end). The
//! engine therefore executes up to [`MAX_BATCH_CYCLES`] cycles per job, as
//! the serial engine does: the coordinator crosses only the start and end
//! barriers of a batch, and between cycles the workers synchronize among
//! themselves on one cheaper worker-only barrier — the end-of-cycle and
//! start-of-next-cycle rendezvous fuse into one. Injections coming due
//! inside a batch are handed out up front ([`ra_noc::ReleasedInjection`])
//! and applied by the owning worker at the right cycle, and delivery events
//! are cycle-stamped and merged afterwards in exactly the serial order
//! ([`NocNetwork::finish_batch`]).
//!
//! # Clock gating and load balancing
//!
//! Each worker makes the serial engine's own per-cycle pass,
//! [`step_range`], over its range, so it applies the same liveness
//! predicate ([`EngineParts::router_live`]) and a mostly-idle mesh costs a
//! liveness check per router instead of a full pipeline step. Because live
//! routers may cluster (one busy corner of the mesh), the coordinator
//! re-partitions the contiguous router ranges at every batch boundary,
//! weighting live routers heavier than idle ones.
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

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

use parking_lot::RwLock;
use ra_obs::{Event, ObsSink};
use ra_noc::{
    step_range, Arrivals, Credit, EngineParts, Flit, Links, NocNetwork, ReleasedInjection, Ring,
    Router, Slot, TopologyMap, MAX_BATCH_CYCLES,
};
use ra_sim::SimError;

/// Relative cost of stepping a live router vs. liveness-checking an idle
/// one, used to balance worker ranges when activity is skewed.
const LIVE_WEIGHT: u64 = 16;

/// Polls, one pause hint apart, a [`SpinBarrier`] waiter makes before it
/// parks: some tens of microseconds on the 2-core host, about two cycles
/// of one worker's share of a 256-router mesh.
const SPIN_POLLS: u32 = 1024;

/// The worker-only barrier inside a batch. Its parties are workers that
/// each just finished a cycle of similar size, so the last one is usually
/// microseconds away: waiters poll before they park, and a crossing then
/// costs no futex wake-up, which on a VM is an inter-processor interrupt
/// whose latency follows the host's load. The batch's start and end
/// barriers, which the coordinator joins, stay `std` ones, so a parked
/// coordinator never spins against its own workers.
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

/// A snapshot of the raw pointers a batch's phases operate on.
///
/// Written by the coordinating thread before the start barrier of each
/// batch; read by workers strictly between the start and end barriers, while
/// the coordinator is blocked — that barrier discipline is what makes the
/// aliasing sound.
#[derive(Clone, Copy)]
struct Job {
    routers: *mut Router,
    topo: *const TopologyMap,
    /// The wires' slot-major flit and credit arrays, and their bank layout.
    flits: *mut Slot<Flit>,
    credits: *mut Slot<Credit>,
    ring: Option<Ring>,
    /// Per-router arrival words (atomics: any worker may mark any router).
    arrivals: *const Arrivals,
    /// First cycle of the batch.
    t0: u64,
    /// Cycles in the batch (1..=[`MAX_BATCH_CYCLES`]).
    cycles: u64,
    gating: bool,
    /// `workers + 1` cumulative range bounds (worker `w` owns
    /// `bounds[w]..bounds[w+1]`).
    bounds: *const u32,
    /// Injections coming due inside the batch, sorted by `(cycle, order)`.
    releases: *const ReleasedInjection,
    n_releases: usize,
}

impl Job {
    const fn empty() -> Self {
        Job {
            routers: std::ptr::null_mut(),
            topo: std::ptr::null(),
            flits: std::ptr::null_mut(),
            credits: std::ptr::null_mut(),
            ring: None,
            arrivals: std::ptr::null(),
            t0: 0,
            cycles: 0,
            gating: false,
            bounds: std::ptr::null(),
            releases: std::ptr::null(),
            n_releases: 0,
        }
    }
}

// SAFETY: the pointers are only dereferenced by workers between the start
// and end barriers of a batch, while the owning &mut NocNetwork (and the
// engine's bounds/releases buffers) are pinned on the coordinating thread
// inside `run_batch`. Each worker mutates a disjoint router range. In cycle
// `c` the wire slots split by bank: every worker shares read bank
// `(c - L) % P`, which nobody writes in `c`, and each writes only its own
// router range of write bank `c % P`, disjoint from the other workers' and
// distinct from the read bank for `L >= 1`. The write bank of `c + 1` is the
// read bank of `c`, so the worker-only barrier between cycles is what keeps
// a fast worker's writes from reaching a slow worker's reads. The arrival
// words are only touched through atomics: in cycle `c` a worker takes
// (loads and zeroes) slot `c % P` of its own routers only, and the sends of
// `c` `fetch_or` into slot `(c + L) % P` of any router, which differs for
// `L >= 1` and which nobody reads or clears before cycle `c + L`, at least
// one barrier later. topo, bounds, and releases are read-only.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

struct SharedState {
    /// Batch start rendezvous: all workers + the coordinator.
    start: Barrier,
    /// Batch end rendezvous: all workers + the coordinator.
    end: Barrier,
    /// Rendezvous between batch cycles: workers only. This is the fusion:
    /// the coordinator never joins it, so consecutive cycles of a batch
    /// cost one worker-only barrier instead of a full end + start pair.
    boundary: SpinBarrier,
    job: RwLock<Job>,
    /// Bit `c` set = some router moved a flit in the batch's `c`-th cycle
    /// (ORed in by workers, consumed by `finish_batch`).
    active_bits: AtomicU64,
    shutdown: AtomicBool,
    /// First panic caught inside a worker phase this batch, as
    /// `(worker index, panic payload)`. Workers always reach their
    /// barriers even after a panic, so the coordinator can harvest the
    /// fault instead of deadlocking on a dead thread.
    fault: RwLock<Option<(usize, String)>>,
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

/// Fills `bounds` with `workers + 1` cumulative cut points partitioning
/// `0..n_routers` so every worker carries roughly equal *weight*: a live
/// router (one that will actually be stepped this batch) counts
/// [`LIVE_WEIGHT`] times an idle one. With gating off every router is
/// stepped anyway, so the uniform [`range_of`] split is used as-is.
fn compute_bounds(parts: &EngineParts<'_>, workers: usize, bounds: &mut Vec<u32>) {
    let n = parts.routers.len();
    bounds.clear();
    bounds.push(0);
    if !parts.gating {
        for w in 0..workers {
            bounds.push(range_of(w, workers, n).end as u32);
        }
        return;
    }
    let slot = parts.arrivals.slot(parts.now);
    let weight = |r: usize| -> u64 {
        let live = EngineParts::router_live(true, &parts.routers[r], parts.arrivals.load(r, slot));
        1 + u64::from(live) * (LIVE_WEIGHT - 1)
    };
    let total: u64 = (0..n).map(weight).sum::<u64>().max(1);
    let mut cum = 0u64;
    let mut k = 1u64;
    for r in 0..n {
        cum += weight(r);
        // Cut whenever the cumulative weight crosses the next 1/workers
        // fraction of the total; repeated crossings yield empty ranges.
        while k < workers as u64 && cum * workers as u64 >= k * total {
            bounds.push((r + 1) as u32);
            k += 1;
        }
    }
    while bounds.len() < workers + 1 {
        bounds.push(n as u32);
    }
    bounds[workers] = n as u32;
}

/// A persistent bulk-synchronous worker pool executing NoC cycles.
///
/// Construction spawns the pool; dropping the engine shuts it down. One
/// engine can drive many networks over its lifetime (only one at a time).
pub struct ParallelEngine {
    shared: Arc<SharedState>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
    /// Range bounds of the current batch (pinned while workers run).
    bounds: Vec<u32>,
    /// Releases of the current batch (pinned while workers run).
    releases: Vec<ReleasedInjection>,
    /// Observability sink; disabled by default. When enabled, each batch
    /// emits one [`Event::EngineBatch`] with its range cuts and the
    /// coordinator's barrier wait (the batch's wall-clock on the pool).
    sink: ObsSink,
}

impl std::fmt::Debug for ParallelEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelEngine")
            .field("workers", &self.workers)
            .finish()
    }
}

impl ParallelEngine {
    /// Spawns a pool of `workers` threads (at least 1).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(SharedState {
            start: Barrier::new(workers + 1),
            end: Barrier::new(workers + 1),
            boundary: SpinBarrier::new(workers),
            job: RwLock::new(Job::empty()),
            active_bits: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            fault: RwLock::new(None),
        });
        let handles = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("noc-worker-{w}"))
                    .spawn(move || worker_loop(w, &shared))
                    .expect("spawn NoC worker")
            })
            .collect();
        ParallelEngine {
            shared,
            handles,
            workers,
            bounds: Vec::new(),
            releases: Vec::new(),
            sink: ObsSink::disabled(),
        }
    }

    /// Number of worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Attaches an observability sink. Per-batch events only; the workers
    /// themselves never touch it.
    pub fn set_sink(&mut self, sink: ObsSink) {
        self.sink = sink;
    }

    /// Executes exactly one cycle of `net` on the pool.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Fault`] if a worker thread panicked while
    /// executing a router phase. The pool itself survives (panics are
    /// caught inside the workers, which still reach every barrier), so the
    /// engine remains usable — but the network that was being stepped must
    /// be considered corrupt and rebuilt by the caller.
    pub fn run_cycle(&mut self, net: &mut NocNetwork) -> Result<(), SimError> {
        self.run_batch(net, 1)
    }

    /// Executes `cycles` consecutive cycles (1..=[`MAX_BATCH_CYCLES`]) as
    /// one batched job.
    fn run_batch(&mut self, net: &mut NocNetwork, cycles: u64) -> Result<(), SimError> {
        debug_assert!((1..=MAX_BATCH_CYCLES).contains(&cycles));
        let t0 = net.next_cycle();
        let mut barrier_wait_ns = 0u64;
        {
            let parts = net.begin_batch(cycles, &mut self.releases);
            compute_bounds(&parts, self.workers, &mut self.bounds);
            let (flits, credits, ring) = parts.wires.raw_parts();
            let job = Job {
                routers: parts.routers.as_mut_ptr(),
                topo: parts.topo,
                flits,
                credits,
                ring: Some(ring),
                arrivals: parts.arrivals,
                t0: parts.now,
                cycles,
                gating: parts.gating,
                bounds: self.bounds.as_ptr(),
                releases: self.releases.as_ptr(),
                n_releases: self.releases.len(),
            };
            self.shared.active_bits.store(0, Ordering::SeqCst);
            *self.shared.job.write() = job;
            let timer = self.sink.enabled().then(std::time::Instant::now);
            self.shared.start.wait();
            // Workers run all `cycles` cycles back to back while we wait.
            self.shared.end.wait();
            if let Some(t) = timer {
                barrier_wait_ns = t.elapsed().as_nanos() as u64;
            }
        }
        let active_bits = self.shared.active_bits.load(Ordering::SeqCst);
        if let Some((worker, detail)) = self.shared.fault.write().take() {
            return Err(SimError::Fault {
                component: format!("noc-worker-{worker}"),
                detail,
            });
        }
        net.finish_batch(cycles, active_bits);
        let bounds = &self.bounds;
        let releases = self.releases.len() as u64;
        self.sink.emit(|| {
            let ranges = bounds.windows(2).map(|w| u64::from(w[1] - w[0]));
            Event::EngineBatch {
                t0,
                cycles,
                workers: self.workers as u64,
                barrier_wait_ns,
                releases,
                min_range: ranges.clone().min().unwrap_or(0),
                max_range: ranges.max().unwrap_or(0),
            }
        });
        Ok(())
    }

    /// Runs exactly `cycles` consecutive cycles, batching up to
    /// [`MAX_BATCH_CYCLES`] at a time and fast-forwarding provably idle
    /// stretches without touching the pool at all.
    ///
    /// # Errors
    ///
    /// Propagates the first [`SimError::Fault`] from a batch.
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

    /// Runs until the network drains (every in-flight message delivered).
    ///
    /// Cycles are executed in batches, so up to [`MAX_BATCH_CYCLES`] − 1
    /// trailing idle cycles may be simulated past the last delivery.
    ///
    /// # Errors
    ///
    /// * [`SimError::Timeout`] if `budget` cycles elapse first;
    /// * [`SimError::Fault`] if a worker panicked;
    /// * [`SimError::Invariant`] if a router recorded a violated invariant.
    pub fn run_until_drained(
        &mut self,
        net: &mut NocNetwork,
        budget: u64,
    ) -> Result<(), SimError> {
        use ra_sim::Network;
        let start = net.next_cycle();
        while net.in_flight() > 0 {
            net.check_invariant()?;
            if net.next_cycle() - start > budget {
                return Err(SimError::Timeout {
                    budget,
                    waiting_for: format!("{} in-flight messages", net.in_flight()),
                });
            }
            self.run_batch(net, MAX_BATCH_CYCLES)?;
        }
        net.check_invariant()
    }
}

impl Drop for ParallelEngine {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Release the workers from the start barrier so they can observe
        // the shutdown flag and exit.
        self.shared.start.wait();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Renders a caught panic payload into a displayable string.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One batch cycle over `lo..hi`: apply the injections coming due, make the
/// [`step_range`] pass the serial engine makes, and OR the cycle's activity
/// bit.
///
/// # Safety
///
/// Must run between the batch's start and end barriers, one barrier after
/// the previous cycle, with `lo..hi` inside the job's routers and disjoint
/// from every other worker's range (see the `Job` safety comment).
unsafe fn step_cycle(
    job: &Job,
    shared: &SharedState,
    lo: usize,
    hi: usize,
    c: u64,
    rel_idx: &mut usize,
) {
    while *rel_idx < job.n_releases {
        let rel = &*job.releases.add(*rel_idx);
        if rel.cycle > c {
            break;
        }
        let r = rel.router as usize;
        if r >= lo && r < hi {
            (*job.routers.add(r)).apply_release(rel);
        }
        *rel_idx += 1;
    }
    let topo = &*job.topo;
    let arrivals = &*job.arrivals;
    let ring = job.ring.expect("a batch's job carries its wires");
    let (n, first) = (ring.wires, lo * ring.ports);
    let (read, write) = (ring.read_bank(c) * n, ring.write_bank(c) * n + first);
    let len = (hi - lo) * ring.ports;
    let mut links = Links::shared(
        std::slice::from_raw_parts(job.flits.add(read), n),
        std::slice::from_raw_parts(job.credits.add(read), n),
        std::slice::from_raw_parts_mut(job.flits.add(write), len),
        std::slice::from_raw_parts_mut(job.credits.add(write), len),
        first,
        arrivals,
        c,
    );
    let routers = std::slice::from_raw_parts_mut(job.routers.add(lo), hi - lo);
    let pass = step_range(topo, routers, lo, &mut links, arrivals, job.gating, c);
    if pass.moved {
        shared
            .active_bits
            .fetch_or(1 << (c - job.t0), Ordering::Relaxed);
    }
}

fn worker_loop(worker: usize, shared: &SharedState) {
    loop {
        shared.start.wait();
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let job = *shared.job.read();
        // SAFETY: `bounds` holds workers + 1 entries and is pinned by the
        // coordinator for the whole batch.
        let (lo, hi) = unsafe {
            (
                *job.bounds.add(worker) as usize,
                *job.bounds.add(worker + 1) as usize,
            )
        };
        let mut rel_idx = 0usize;
        // Panics inside router steps (a model bug, or an injected test
        // fault) must not kill the worker: a dead thread would deadlock the
        // pool at the next barrier. Catch the panic, record the first one
        // in the shared fault slot, skip the remaining cycle bodies, and
        // keep the full barrier cadence intact.
        let mut dead = false;
        for c in job.t0..job.t0 + job.cycles {
            if !dead {
                let result = catch_unwind(AssertUnwindSafe(|| {
                    // SAFETY: between start and end barriers, one boundary
                    // barrier after cycle `c - 1`, disjoint range.
                    unsafe { step_cycle(&job, shared, lo, hi, c, &mut rel_idx) }
                }));
                if let Err(payload) = result {
                    let mut slot = shared.fault.write();
                    if slot.is_none() {
                        *slot = Some((worker, panic_message(payload.as_ref())));
                    }
                    dead = true;
                }
            }
            if c + 1 < job.t0 + job.cycles {
                shared.boundary.wait();
            }
        }
        shared.end.wait();
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
    fn balanced_bounds_partition_and_favor_live_routers() {
        use ra_sim::{MessageClass, NetMessage, NodeId};
        let mut net = NocNetwork::new(NocConfig::new(8, 8)).unwrap();
        // Load one corner of the mesh only.
        for i in 0..6 {
            net.inject(
                NetMessage::new(i, NodeId(0), NodeId(9), MessageClass::Request, 64),
                Cycle(0),
            );
        }
        let workers = 4;
        let mut bounds = Vec::new();
        let mut releases = Vec::new();
        let parts = net.begin_batch(1, &mut releases);
        compute_bounds(&parts, workers, &mut bounds);
        let n = parts.routers.len() as u32;
        assert_eq!(bounds.len(), workers + 1);
        assert_eq!(bounds[0], 0);
        assert_eq!(bounds[workers], n);
        assert!(bounds.windows(2).all(|w| w[0] <= w[1]), "{bounds:?}");
        // The busy corner lives in the low router ids, so the first worker
        // must own a smaller slice than a uniform split would give it.
        assert!(
            bounds[1] < n / workers as u32,
            "first range not shrunk: {bounds:?}"
        );
        net.finish_batch(1, 0);
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
            engine.run_cycle(&mut net).unwrap();
        }
        engine.run_until_drained(&mut net, 100_000).unwrap();
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
                    Some(e) => e.run_cycle(&mut net).unwrap(),
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
                engine.run_cycle(&mut net).unwrap();
            }
            if batched {
                engine.run_cycles(&mut net, 2_500).unwrap();
            } else {
                for _ in 0..2_500 {
                    engine.run_cycle(&mut net).unwrap();
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
                engine.run_cycle(&mut net).unwrap();
            }
            engine.run_until_drained(&mut net, 50_000).unwrap();
            assert_eq!(net.stats().delivered, gen.injected());
        }
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let engine = ParallelEngine::new(0);
        assert_eq!(engine.workers(), 1);
    }

    #[test]
    fn drop_joins_cleanly() {
        let engine = ParallelEngine::new(4);
        drop(engine); // must not hang or panic
    }

    #[test]
    fn spin_barrier_publishes_every_round_spinning_or_parked() {
        // Each party writes its round number, crosses, and must then see
        // every party's write. Party 0 sleeps past the spin window on
        // some rounds, so the others park there and must be woken.
        const PARTIES: usize = 3;
        const ROUNDS: u64 = 200;
        let barrier = Arc::new(SpinBarrier::new(PARTIES));
        let slots: Arc<Vec<AtomicU64>> =
            Arc::new((0..PARTIES).map(|_| AtomicU64::new(0)).collect());
        let handles: Vec<_> = (0..PARTIES)
            .map(|me| {
                let (barrier, slots) = (Arc::clone(&barrier), Arc::clone(&slots));
                std::thread::spawn(move || {
                    for round in 1..=ROUNDS {
                        if me == 0 && round % 20 == 0 {
                            std::thread::sleep(std::time::Duration::from_millis(2));
                        }
                        slots[me].store(round, Ordering::Relaxed);
                        barrier.wait();
                        for slot in slots.iter() {
                            assert_eq!(slot.load(Ordering::Relaxed), round);
                        }
                        barrier.wait();
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("no party panicked");
        }
    }

    #[test]
    fn worker_panic_surfaces_as_fault_and_pool_survives() {
        use ra_sim::{MessageClass, NetMessage, NodeId, SimError};
        let mut engine = ParallelEngine::new(3);

        let mut net = NocNetwork::new(NocConfig::new(4, 4)).unwrap();
        net.inject(
            NetMessage::new(0, NodeId(0), NodeId(15), MessageClass::Request, 8),
            Cycle(0),
        );
        net.debug_router_mut(7).debug_force_panic();
        let err = engine.run_cycle(&mut net).unwrap_err();
        let SimError::Fault { component, detail } = &err else {
            panic!("expected Fault, got {err:?}");
        };
        assert!(component.starts_with("noc-worker-"), "got {component}");
        assert!(detail.contains("router 7"), "got {detail}");

        // The pool must survive the panic: a fresh network runs to
        // completion on the same engine.
        let mut net = NocNetwork::new(NocConfig::new(4, 4)).unwrap();
        net.inject(
            NetMessage::new(0, NodeId(0), NodeId(15), MessageClass::Request, 8),
            Cycle(0),
        );
        engine.run_until_drained(&mut net, 10_000).unwrap();
        assert_eq!(net.stats().delivered, 1);
    }

    #[test]
    fn worker_panic_mid_batch_keeps_pool_alive() {
        use ra_sim::{MessageClass, NetMessage, NodeId, SimError};
        let mut engine = ParallelEngine::new(4);
        let mut net = NocNetwork::new(NocConfig::new(4, 4)).unwrap();
        net.inject(
            NetMessage::new(0, NodeId(0), NodeId(15), MessageClass::Request, 8),
            Cycle(0),
        );
        net.debug_router_mut(3).debug_force_panic();
        // A full 64-cycle batch: the panic hits in cycle 0, the worker must
        // keep the barrier cadence for the remaining 63 cycles.
        let err = engine.run_cycles(&mut net, 64).unwrap_err();
        assert!(matches!(err, SimError::Fault { .. }), "got {err:?}");
        drop(net);

        let mut net = NocNetwork::new(NocConfig::new(4, 4)).unwrap();
        net.inject(
            NetMessage::new(0, NodeId(0), NodeId(15), MessageClass::Request, 8),
            Cycle(0),
        );
        engine.run_until_drained(&mut net, 10_000).unwrap();
        assert_eq!(net.stats().delivered, 1);
    }
}

//! The assembled cycle-level network.
//!
//! # Clock gating
//!
//! Most routers of a large mesh are idle most cycles at the loads real
//! workloads offer, so a router is stepped only if it is **live**: it holds
//! work of its own (buffered flits or NI backlog — see
//! [`Router::has_work`]), is touched by a fault script, or something lands
//! on its wires this cycle ([`EngineParts::router_live`]). Links are
//! push-based: every flit or credit a router's switch traversal sends sets
//! the receiver's bit in its [`Arrivals`] word for the landing cycle, and
//! the pass over the routers ([`step_range`]) takes each router's word for
//! the current cycle right before testing it, so liveness costs one load
//! per router and a router reads only the wires that carry something.
//! Skipping a quiescent router is invisible to simulated results: wires are
//! cycle-stamped (no `None` scrubbing needed) and the router fast-forwards
//! its VC-allocation round-robin pointer on wake-up.
//! The determinism tests hold the engines to bit-identical [`NocStats`]
//! with gating on or off, serial or parallel.
//!
//! # Batched execution
//!
//! Both engines run up to [`MAX_BATCH_CYCLES`] cycles back to back and
//! settle the network's books once per batch. Each cycle of a batch first
//! releases the injections coming due in it, then makes one [`step_range`]
//! pass. Routers stamp their delivery and net-start events with their
//! cycle, and at the end of the batch the network drains every router once
//! and applies the events cycle-major, in exactly the order a one-cycle
//! loop would have produced them.
//!
//! The serial engine's batch ([`Network::tick`], and [`NocNetwork::step`]
//! as a batch of one) ends early, before any later cycle in which no router
//! is live and no injection is queued, so `tick` tries
//! [`NocNetwork::fast_forward_idle`] at every cycle where it could succeed.
//! The parallel engine in `ra-gpu` uses [`NocNetwork::begin_batch`], which
//! pre-pops the batch's injections for its workers, and
//! [`NocNetwork::finish_batch`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ra_obs::{Event, ObsSink};
use ra_sim::{Cycle, Delivery, MessageClass, NetMessage, Network, SimError};

use crate::config::NocConfig;
use crate::flit::PacketId;
use crate::router::{PendingPacket, Router};
use crate::stats::{FaultStats, NocStats};
use crate::topology::TopologyMap;
use crate::wire::{Arrivals, Links, Wires};

/// Cycles of total inactivity (with traffic in flight) after which the
/// watchdog declares a deadlock.
const WATCHDOG_CYCLES: u64 = 50_000;

/// Upper bound on the cycles a single engine batch may cover (the per-batch
/// activity bitmap is one 64-bit word).
pub const MAX_BATCH_CYCLES: u64 = 64;

#[derive(Debug, Clone)]
struct PacketInfo {
    msg: NetMessage,
    inject: u64,
    net_start: u64,
}

/// An injection whose cycle has not been simulated yet. Ordered by
/// `(cycle, seq)` so releases are deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct QueuedInjection {
    cycle: u64,
    seq: u64,
    src_router: u32,
    src_local: u32,
    vnet: u8,
    pending: PendingPacket,
}

/// A queued injection released to an engine batch: it must be enqueued at
/// its source router's NI at the start of [`cycle`](ReleasedInjection::cycle)
/// (see [`Router::apply_release`]). Produced by
/// [`NocNetwork::begin_batch`] in deterministic `(cycle, injection)` order.
#[derive(Debug, Clone, Copy)]
pub struct ReleasedInjection {
    /// The cycle the injection becomes visible to its source NI.
    pub cycle: u64,
    /// The source router that must apply it.
    pub router: u32,
    local: u32,
    vnet: u8,
    pending: PendingPacket,
}

impl Router {
    /// Enqueues a batched injection release at this router's NI. Must be
    /// called at the start of the release's cycle, before the router's step
    /// (the packet takes part in NI arbitration that very cycle, exactly as
    /// the unbatched release path would have it).
    pub fn apply_release(&mut self, rel: &ReleasedInjection) {
        self.enqueue_packet(rel.local, usize::from(rel.vnet), rel.pending);
    }
}

/// Everything a cycle execution engine needs from the network for one batch
/// of cycles ([`NocNetwork::begin_batch`]), borrowed at once so the engine
/// can hand the mutable pieces to its workers. Each cycle of the batch, an
/// engine steps its routers with [`step_range`], which evaluates liveness
/// itself.
pub struct EngineParts<'a> {
    /// Static topology.
    pub topo: &'a TopologyMap,
    /// All routers.
    pub routers: &'a mut [Router],
    /// All wires, slot-major: cycle `c` reads bank `(c - L) % P` and writes
    /// bank `c % P`, and router `r` writes only its own wires
    /// `r * ports .. (r + 1) * ports` of it. Shared: [`Wires::links`] hands
    /// each worker the view of its own router range.
    pub wires: &'a Wires,
    /// Per-router arrival words: marked by senders' switch traversal, taken
    /// by [`step_range`] before each router's step.
    pub arrivals: &'a Arrivals,
    /// Whether clock gating is enabled; if not, every router is stepped
    /// every cycle.
    pub gating: bool,
}

impl EngineParts<'_> {
    /// Whether a router must be stepped in a cycle whose arrival word for
    /// it is `arrivals` (gating predicate; identical for the serial and
    /// parallel engines, which is what keeps their schedules — and
    /// therefore their results — aligned).
    #[inline]
    pub fn router_live(gating: bool, router: &Router, arrivals: u64) -> bool {
        !gating || arrivals != 0 || router.has_work() || router.is_fault_scripted()
    }
}

/// What one cycle's [`step_range`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RangeActivity {
    /// Some router of the range was live, and stepped.
    pub stepped: bool,
    /// Some stepped router moved a flit (the deadlock watchdog's input).
    pub moved: bool,
}

/// One cycle of a contiguous router range, the per-cycle loop of both
/// engines: for each router in ascending order, takes its arrival word for
/// `now`, tests [`EngineParts::router_live`], and if live calls
/// [`Router::step`].
///
/// `routers[i]` is router `first + i`. `links` must be a [`Wires::links`]
/// view of cycle `now` over at least this range: the serial batch passes
/// one over every router, and each `ra-gpu` worker one over its own range.
/// A step reads only bank `(now - L) % P`, writes only its own wires of
/// bank `now % P` and its own state, and marks only arrival slot
/// `(now + L) % P`, so the ranges of one cycle may run in any order or in
/// parallel.
pub fn step_range(
    topo: &TopologyMap,
    routers: &mut [Router],
    first: usize,
    links: &Links<'_>,
    arrivals: &Arrivals,
    gating: bool,
    now: u64,
) -> RangeActivity {
    let slot = arrivals.slot(now);
    let mut activity = RangeActivity::default();
    for (i, router) in routers.iter_mut().enumerate() {
        let marks = arrivals.take(first + i, slot);
        if EngineParts::router_live(gating, router, marks) {
            router.step(topo, links, marks, now);
            activity.stepped = true;
            activity.moved |= router.was_active();
        }
    }
    activity
}

/// The cycle-level network-on-chip simulator.
///
/// Implements [`Network`], so it plugs into the full-system simulator and
/// the co-simulation framework interchangeably with the abstract models.
///
/// # Example
///
/// ```
/// use ra_noc::{NocConfig, NocNetwork};
/// use ra_sim::{Cycle, MessageClass, NetMessage, Network, NodeId};
///
/// let mut net = NocNetwork::new(NocConfig::new(4, 4))?;
/// net.inject(
///     NetMessage::new(0, NodeId(0), NodeId(15), MessageClass::Request, 8),
///     Cycle(0),
/// );
/// net.tick(Cycle(100));
/// let delivered = net.drain_delivered(Cycle(100));
/// assert_eq!(delivered.len(), 1);
/// assert!(delivered[0].at > Cycle(0));
/// # Ok::<(), ra_sim::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct NocNetwork {
    cfg: NocConfig,
    topo: TopologyMap,
    routers: Vec<Router>,
    wires: Wires,
    packets: Vec<Option<PacketInfo>>,
    free: Vec<u32>,
    future: BinaryHeap<Reverse<QueuedInjection>>,
    inject_seq: u64,
    delivered_out: Vec<Delivery>,
    in_flight_count: usize,
    /// In-flight messages per virtual network (message class).
    in_flight_by_class: Vec<usize>,
    next_cycle: u64,
    idle_cycles: u64,
    stats: NocStats,
    /// First invariant violation collected from any router, held until a
    /// supervisor observes it via
    /// [`check_invariant`](NocNetwork::check_invariant).
    invariant: Option<SimError>,
    /// Per-router arrival words (see [`EngineParts::arrivals`]).
    arrivals: Arrivals,
    /// Scratch: `(packet, cycle)` net-start events drained from routers.
    started_scratch: Vec<(PacketId, u64)>,
    /// Scratch: `(packet, cycle)` delivery events drained from routers.
    delivered_scratch: Vec<(PacketId, u64)>,
    /// Observability sink; disabled by default (one predicted branch on the
    /// paths that consult it — the per-cycle hot loop never does).
    sink: ObsSink,
    /// Cycles skipped by [`fast_forward_idle`](NocNetwork::fast_forward_idle)
    /// since construction (they *are* simulated time; this counts how many
    /// were covered in O(routers) instead of being stepped).
    ff_cycles: u64,
    /// Island id stamped onto emitted window events (0 for a standalone
    /// die; set by [`ChipletNetwork`](crate::chiplet::ChipletNetwork)).
    island_tag: u64,
}

/// Counter baseline captured by [`NocNetwork::window_snapshot`] before a
/// detailed window; [`NocNetwork::emit_window`] diffs the live counters
/// against it to produce one [`Event::NocWindow`].
#[derive(Debug, Clone, Copy)]
pub struct NocWindowSnapshot {
    /// Cycle the window starts at.
    pub cycle: u64,
    /// `compute_invocations` at the start of the window.
    pub router_steps: u64,
    /// `fast_forwarded_cycles` at the start of the window.
    pub fast_forwarded: u64,
    /// Flits delivered at the start of the window.
    pub flits_delivered: u64,
    /// Fault counters at the start of the window.
    pub fault_events: FaultStats,
}

impl NocNetwork {
    /// Builds a network from a configuration.
    ///
    /// # Errors
    ///
    /// Returns the validation error if the configuration is inconsistent
    /// (see [`NocConfig::validate`]).
    pub fn new(cfg: NocConfig) -> Result<Self, ra_sim::ConfigError> {
        cfg.validate()?;
        if cfg.chiplet.is_some() {
            return Err(ra_sim::ConfigError::new(
                "config carries a chiplet spec: build it with ChipletNetwork::new, \
                 not NocNetwork::new",
            ));
        }
        let topo = TopologyMap::new(&cfg);
        let routers = (0..topo.routers() as u32)
            .map(|id| Router::new(id, &cfg, &topo))
            .collect::<Vec<_>>();
        let wires = Wires::new(topo.routers(), topo.ports(), cfg.link_latency);
        let stats = NocStats::new(topo.diameter());
        let arrivals = Arrivals::new(topo.routers(), cfg.link_latency);
        Ok(NocNetwork {
            cfg,
            topo,
            routers,
            wires,
            packets: Vec::new(),
            free: Vec::new(),
            future: BinaryHeap::new(),
            inject_seq: 0,
            delivered_out: Vec::new(),
            in_flight_count: 0,
            in_flight_by_class: vec![0; MessageClass::COUNT],
            next_cycle: 0,
            idle_cycles: 0,
            stats,
            invariant: None,
            arrivals,
            started_scratch: Vec::new(),
            delivered_scratch: Vec::new(),
            sink: ObsSink::disabled(),
            ff_cycles: 0,
            island_tag: 0,
        })
    }

    /// Stamps this network's window events with an island id (chiplet
    /// systems tag each island; standalone dies keep the default 0).
    pub fn set_island_tag(&mut self, island: u64) {
        self.island_tag = island;
    }

    /// Attaches an observability sink. Events are emitted only at window
    /// granularity via [`emit_window`](NocNetwork::emit_window) — the
    /// per-cycle hot path never consults the sink, so the zero-allocation
    /// steady-state guarantee is unaffected.
    pub fn set_sink(&mut self, sink: ObsSink) {
        self.sink = sink;
    }

    /// The currently attached observability sink (disabled by default).
    pub fn sink(&self) -> &ObsSink {
        &self.sink
    }

    /// The network's configuration.
    pub fn config(&self) -> &NocConfig {
        &self.cfg
    }

    /// The static topology map.
    pub fn topology(&self) -> &TopologyMap {
        &self.topo
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &NocStats {
        &self.stats
    }

    /// The next cycle [`step`](NocNetwork::step) will execute.
    pub fn next_cycle(&self) -> u64 {
        self.next_cycle
    }

    /// Starts a batched engine window of exactly `cycles` cycles (at most
    /// [`MAX_BATCH_CYCLES`]), beginning at the current cycle.
    ///
    /// Injections coming due inside the window are popped into `releases`
    /// in deterministic `(cycle, injection-order)` order; the engine must
    /// apply each with [`Router::apply_release`] at the start of its cycle.
    /// In each cycle `c` it then runs one [`step_range`] pass over every
    /// router range, setting bit `c - now` of the batch's activity word if
    /// any pass reports [`RangeActivity::moved`]. After the last cycle it
    /// calls [`finish_batch`](NocNetwork::finish_batch) exactly once.
    pub fn begin_batch(
        &mut self,
        cycles: u64,
        releases: &mut Vec<ReleasedInjection>,
    ) -> EngineParts<'_> {
        assert!(
            (1..=MAX_BATCH_CYCLES).contains(&cycles),
            "batch of {cycles} cycles outside 1..={MAX_BATCH_CYCLES}"
        );
        let t0 = self.next_cycle;
        releases.clear();
        while let Some(Reverse(q)) = self.future.peek() {
            if q.cycle >= t0 + cycles {
                break;
            }
            let Reverse(q) = self.future.pop().expect("peeked");
            releases.push(ReleasedInjection {
                // A release may already be overdue (injected at the current
                // cycle); it then applies at the first cycle of the window,
                // exactly as `release_due_injections` would have done.
                cycle: q.cycle.max(t0),
                router: q.src_router,
                local: q.src_local,
                vnet: q.vnet,
                pending: q.pending,
            });
        }
        EngineParts {
            topo: &self.topo,
            routers: &mut self.routers,
            wires: &self.wires,
            arrivals: &self.arrivals,
            gating: self.cfg.clock_gating,
        }
    }

    /// Moves injections whose cycle `now` has arrived into their source NI.
    fn release_due_injections(&mut self, now: u64) {
        while let Some(Reverse(q)) = self.future.peek() {
            if q.cycle > now {
                break;
            }
            let Reverse(q) = self.future.pop().expect("peeked");
            self.routers[q.src_router as usize].enqueue_packet(
                q.src_local,
                usize::from(q.vnet),
                q.pending,
            );
        }
    }

    /// Drains invariants, fault events, and stamped delivery events from
    /// every router into the network scratch buffers, once per batch.
    fn collect_router_events(&mut self) {
        self.started_scratch.clear();
        self.delivered_scratch.clear();
        let has_faults = !self.cfg.faults.is_empty();
        for router in &mut self.routers {
            if let Some(msg) = router.take_invariant() {
                if self.invariant.is_none() {
                    self.invariant = Some(SimError::Invariant(msg));
                }
            }
            if has_faults {
                let events = router.take_fault_events();
                self.stats.faults.merge(&events);
            }
            self.started_scratch.append(&mut router.net_started);
            self.delivered_scratch.append(&mut router.delivered);
        }
    }

    /// Applies the collected events for the window `[next_cycle,
    /// next_cycle + cycles)` and advances the clock. Bit `c` of
    /// `active_bits` says whether any router moved a flit in the window's
    /// `c`-th cycle (the deadlock watchdog input).
    ///
    /// Events are processed cycle-major, and within a cycle in router-id
    /// order — `collect_router_events` scans routers in id order and each
    /// router's events are already cycle-sorted, so a *stable* sort by
    /// cycle reproduces exactly the order the one-cycle-at-a-time path
    /// feeds deliveries into the statistics (floating-point accumulation
    /// order included; this is what keeps batched runs bit-identical).
    fn apply_window(&mut self, cycles: u64, active_bits: u64) {
        let t0 = self.next_cycle;
        if cycles > 1 {
            self.started_scratch.sort_by_key(|&(_, at)| at);
            self.delivered_scratch.sort_by_key(|&(_, at)| at);
        }
        for i in 0..self.started_scratch.len() {
            let (pkt, at) = self.started_scratch[i];
            self.process_net_started(pkt, at);
        }
        let mut di = 0;
        for c in t0..t0 + cycles {
            while di < self.delivered_scratch.len() && self.delivered_scratch[di].1 == c {
                let (pkt, at) = self.delivered_scratch[di];
                self.process_delivery(pkt, at);
                di += 1;
            }
            let active = (active_bits >> (c - t0)) & 1 == 1;
            if active || self.in_flight_count == 0 {
                self.idle_cycles = 0;
            } else {
                self.idle_cycles += 1;
            }
            self.stats.cycles += 1;
        }
        debug_assert_eq!(
            di,
            self.delivered_scratch.len(),
            "delivery stamped outside its window"
        );
        self.next_cycle = t0 + cycles;
    }

    fn process_net_started(&mut self, pkt: PacketId, at: u64) {
        match self.packets.get_mut(pkt as usize).and_then(Option::as_mut) {
            Some(info) => info.net_start = at,
            None => {
                if self.invariant.is_none() {
                    self.invariant = Some(SimError::Invariant(format!(
                        "net_started for unknown packet {pkt} at cycle {at}"
                    )));
                }
            }
        }
    }

    fn process_delivery(&mut self, pkt: PacketId, at: u64) {
        let Some(info) = self.packets.get_mut(pkt as usize).and_then(Option::take) else {
            if self.invariant.is_none() {
                self.invariant = Some(SimError::Invariant(format!(
                    "delivery of unknown packet {pkt} at cycle {at}"
                )));
            }
            return;
        };
        self.free.push(pkt);
        self.in_flight_count -= 1;
        self.in_flight_by_class[info.msg.class.vnet()] -= 1;
        let hops = self.topo.hops(info.msg.src, info.msg.dst);
        let total = at - info.inject;
        let net = at - info.net_start;
        self.stats.record_delivery(
            info.msg.class,
            hops,
            total,
            net,
            info.msg.flits(self.cfg.flit_bytes),
        );
        self.delivered_out.push(Delivery {
            msg: info.msg,
            at: Cycle(at),
        });
    }

    /// Completes the batch started by
    /// [`begin_batch`](NocNetwork::begin_batch) for the same number of
    /// `cycles`. Bit `c` of `active_bits` must be set iff any router's
    /// step moved a flit in the batch's `c`-th cycle.
    pub fn finish_batch(&mut self, cycles: u64, active_bits: u64) {
        self.collect_router_events();
        self.apply_window(cycles, active_bits);
    }

    /// Executes one cycle with the built-in serial engine: a batch of one.
    pub fn step(&mut self) {
        self.run_batch(self.next_cycle + 1);
    }

    /// Steps every cycle through `end` (inclusive) on the serial engine,
    /// never fast-forwarding: unlike [`tick`](Network::tick), an idle
    /// stretch is stepped, not skipped. A replay that runs ahead of its
    /// injector uses this, so every fast-forward is still decided where
    /// all of the window's injections are known.
    pub fn step_to(&mut self, end: u64) {
        while self.next_cycle <= end {
            self.run_batch(end + 1);
        }
    }

    /// The serial engine: runs cycles from `next_cycle` towards `end`
    /// (exclusive), at most [`MAX_BATCH_CYCLES`] of them, each one release
    /// of its due injections and one [`step_range`] pass over every router,
    /// then settles the batch's events once.
    ///
    /// The batch ends before any later cycle whose pass finds no router
    /// live while no injection is queued. Such a pass changed nothing (a
    /// released injection would have made its router live), and it is the
    /// only kind of cycle at which
    /// [`fast_forward_idle`](NocNetwork::fast_forward_idle) can succeed (a
    /// queued injection counts as in flight), so [`tick`](Network::tick)
    /// tries it there exactly as a per-cycle loop would.
    fn run_batch(&mut self, end: u64) {
        let t0 = self.next_cycle;
        let end = end.min(t0 + MAX_BATCH_CYCLES);
        let mut active_bits = 0u64;
        let (mut now, all) = (t0, 0..self.routers.len());
        while now < end {
            self.release_due_injections(now);
            let pass = step_range(
                &self.topo,
                &mut self.routers,
                0,
                &self.wires.links(now, &self.arrivals, all.clone(), false),
                &self.arrivals,
                self.cfg.clock_gating,
                now,
            );
            if !pass.stepped && now > t0 && self.future.is_empty() {
                break;
            }
            active_bits |= u64::from(pass.moved) << (now - t0);
            now += 1;
        }
        self.finish_batch(now - t0, active_bits);
    }

    /// Advances through cycles `[next_cycle, target)` that provably step
    /// zero routers, in O(routers) total instead of O(routers x cycles).
    /// Returns the cycles consumed: all of them, or 0 if anything is, or
    /// could become, live (a message in flight, a queued injection
    /// included) — the caller then falls back to [`step`](NocNetwork::step).
    ///
    /// Unlike [`skip_to`](NocNetwork::skip_to), the fast-forwarded window
    /// **is** simulated time: the cycles count into [`NocStats::cycles`]
    /// exactly as if every router had been stepped and found idle, so the
    /// resulting statistics are bit-identical to not fast-forwarding.
    pub fn fast_forward_idle(&mut self, target: u64) -> u64 {
        if !self.cfg.clock_gating || target <= self.next_cycle || self.in_flight_count != 0 {
            return 0;
        }
        // A queued injection counts as in flight, so nothing is queued.
        debug_assert!(self.future.is_empty());
        let now = self.next_cycle;
        let busy = |r: &Router| r.has_work() || r.is_fault_scripted();
        if !self.arrivals.is_clear() || self.routers.iter().any(busy) {
            return 0;
        }
        let skipped = target - now;
        // Every skipped cycle would have stepped nothing, delivered
        // nothing, and (with nothing in flight) reset the idle counter.
        self.stats.cycles += skipped;
        self.ff_cycles += skipped;
        self.idle_cycles = 0;
        self.next_cycle = target;
        skipped
    }

    /// Cumulative cycles covered by
    /// [`fast_forward_idle`](NocNetwork::fast_forward_idle) rather than
    /// stepped (diagnostic; the observability window events report deltas
    /// of this).
    pub fn fast_forwarded_cycles(&self) -> u64 {
        self.ff_cycles
    }

    /// In-flight messages per virtual network (message class), indexed by
    /// [`MessageClass::vnet`] — the instantaneous occupancy snapshot the
    /// observability window events carry.
    pub fn occupancy_by_class(&self) -> [u64; MessageClass::COUNT] {
        let mut out = [0u64; MessageClass::COUNT];
        for (slot, n) in out.iter_mut().zip(&self.in_flight_by_class) {
            *slot = *n as u64;
        }
        out
    }

    /// Captures the counters a [`NocWindowSnapshot`] diffs against. Take
    /// one before running a detailed window, then call
    /// [`emit_window`](NocNetwork::emit_window) after it.
    pub fn window_snapshot(&self) -> NocWindowSnapshot {
        NocWindowSnapshot {
            cycle: self.next_cycle,
            router_steps: self.compute_invocations(),
            fast_forwarded: self.ff_cycles,
            flits_delivered: self.stats.flits_delivered,
            fault_events: self.stats.faults,
        }
    }

    /// Emits one [`Event::NocWindow`] covering everything since `since`
    /// (deltas of router steps, fast-forwarded cycles, flit deliveries and
    /// fault counters, plus the instantaneous per-class occupancy). A no-op
    /// when no sink is attached.
    pub fn emit_window(&self, since: &NocWindowSnapshot) {
        self.sink.emit(|| {
            let f = &self.stats.faults;
            let f0 = &since.fault_events;
            Event::NocWindow {
                island: self.island_tag,
                from_cycle: since.cycle,
                to_cycle: self.next_cycle,
                router_steps: self.compute_invocations() - since.router_steps,
                fast_forwarded: self.ff_cycles - since.fast_forwarded,
                flits_delivered: self.stats.flits_delivered - since.flits_delivered,
                occupancy: self.occupancy_by_class(),
                flits_dropped: (f.flits_dropped_dead + f.flits_dropped_flaky)
                    - (f0.flits_dropped_dead + f0.flits_dropped_flaky),
                reroutes: f.reroutes - f0.reroutes,
                stall_cycles: f.stall_cycles - f0.stall_cycles,
            }
        });
    }

    /// Fast-forwards the clock without simulating, for windows known to
    /// carry no traffic (sampled co-simulation).
    ///
    /// Skipped cycles are not counted in [`NocStats::cycles`]: they were
    /// never simulated.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Invariant`] if the network still holds traffic
    /// (in-flight messages, queued injections included, or buffered
    /// flits): skipping over live traffic would corrupt timing.
    pub fn skip_to(&mut self, cycle: u64) -> Result<(), SimError> {
        if cycle <= self.next_cycle {
            return Ok(());
        }
        if self.in_flight() != 0 {
            return Err(SimError::Invariant(format!(
                "cannot skip over {} in-flight messages",
                self.in_flight()
            )));
        }
        if self.buffered_flits() != 0 {
            return Err(SimError::Invariant(format!(
                "cannot skip over {} buffered flits",
                self.buffered_flits()
            )));
        }
        // A queued injection counts as in flight, so nothing is queued.
        debug_assert!(self.future.is_empty());
        // The last deliveries' return credits may still be in flight on the
        // wires; run the (traffic-free) network for one link round so every
        // credit is absorbed before the jump — dropping one would leak a VC
        // buffer slot permanently.
        for _ in 0..=self.cfg.link_latency as u64 {
            if self.next_cycle >= cycle {
                return Ok(());
            }
            self.step();
        }
        // Wire slots are cycle-stamped, so stale values cannot re-align
        // after the jump, but clear them and the arrival words anyway to
        // keep the skipped window observably dead (and resync each router's
        // gating clock: the jumped-over cycles were never simulated, so the
        // VA round-robin catch-up must not count them).
        self.wires.clear();
        self.arrivals.clear();
        self.next_cycle = cycle;
        for router in &mut self.routers {
            router.resync_clock(cycle);
        }
        Ok(())
    }

    /// Runs until every in-flight message has been delivered.
    ///
    /// # Errors
    ///
    /// * [`SimError::Timeout`] if `budget` cycles elapse first;
    /// * [`SimError::Invariant`] if a router recorded an invariant
    ///   violation, or the watchdog sees prolonged total inactivity with
    ///   traffic in flight (a deadlock).
    pub fn run_until_drained(&mut self, budget: u64) -> Result<(), SimError> {
        let start = self.next_cycle;
        while self.in_flight() > 0 {
            self.check_invariant()?;
            if self.next_cycle - start > budget {
                return Err(SimError::Timeout {
                    budget,
                    waiting_for: self.drain_wait_description(),
                });
            }
            if self.idle_cycles > WATCHDOG_CYCLES {
                return Err(SimError::Invariant(format!(
                    "network deadlock: {} messages stuck for {} cycles",
                    self.in_flight(),
                    self.idle_cycles
                )));
            }
            self.step();
        }
        self.check_invariant()
    }

    /// What a [`run_until_drained`](NocNetwork::run_until_drained) timeout
    /// was waiting on: in-flight totals, the per-class breakdown, and how
    /// many flits sit buffered inside routers.
    fn drain_wait_description(&self) -> String {
        let mut by_class = String::new();
        for class in MessageClass::ALL {
            let n = self.in_flight_by_class[class.vnet()];
            if n > 0 {
                if !by_class.is_empty() {
                    by_class.push_str(", ");
                }
                by_class.push_str(&format!("{class:?}: {n}"));
            }
        }
        format!(
            "{} in-flight messages ({by_class}); {} flits buffered in routers",
            self.in_flight(),
            self.buffered_flits()
        )
    }

    /// Returns the first invariant violation any router has recorded, or
    /// the first packet-accounting violation the network itself noticed.
    ///
    /// The error is *not* cleared: a corrupted network stays corrupted, and
    /// every subsequent check reports the original cause.
    ///
    /// # Errors
    ///
    /// The stored [`SimError::Invariant`], if any.
    pub fn check_invariant(&self) -> Result<(), SimError> {
        match &self.invariant {
            Some(err) => Err(err.clone()),
            None => Ok(()),
        }
    }

    /// Audits conservation invariants across the whole network:
    /// message accounting (`injected - delivered == in_flight`, per-class
    /// counts summing to the total, live packet slots matching), every
    /// router's credit/buffer bounds, and the arrival words: the slot of the
    /// cycle just finished must be all zero, since every mark landing then
    /// was taken by a live router (and no send can yet have marked it for
    /// `next_cycle + link_latency`, the cycle it is reused for).
    ///
    /// Cheap enough to run at every co-simulation quantum boundary.
    ///
    /// # Errors
    ///
    /// [`SimError::Invariant`] naming the first violated conservation law.
    pub fn audit(&self) -> Result<(), SimError> {
        self.check_invariant()?;
        let live = self.packets.iter().filter(|p| p.is_some()).count();
        if live != self.in_flight_count {
            return Err(SimError::Invariant(format!(
                "packet table holds {live} live packets but in-flight count is {}",
                self.in_flight_count
            )));
        }
        let by_class: usize = self.in_flight_by_class.iter().sum();
        if by_class != self.in_flight_count {
            return Err(SimError::Invariant(format!(
                "per-class in-flight counts sum to {by_class}, total is {}",
                self.in_flight_count
            )));
        }
        let balance = self.stats.injected - self.stats.delivered;
        if balance != self.in_flight_count as u64 {
            return Err(SimError::Invariant(format!(
                "message accounting violated: injected {} - delivered {} != {} in flight",
                self.stats.injected, self.stats.delivered, self.in_flight_count
            )));
        }
        for router in &self.routers {
            router
                .audit()
                .map_err(|msg| SimError::Invariant(format!("router {}: {msg}", router.id())))?;
        }
        let finished = self.arrivals.landing_slot(self.next_cycle);
        if let Some((r, marks)) = self.arrivals.first_in(finished) {
            return Err(SimError::Invariant(format!(
                "router {r}: arrival marks {marks:#x} left untaken before cycle {}",
                self.next_cycle
            )));
        }
        Ok(())
    }

    /// Consecutive cycles of total inactivity with traffic in flight —
    /// the progress signal external watchdogs key on.
    pub fn idle_cycles(&self) -> u64 {
        self.idle_cycles
    }

    /// Mutable access to one router, for tests that need to corrupt or
    /// sabotage state deliberately.
    #[doc(hidden)]
    pub fn debug_router_mut(&mut self, idx: usize) -> &mut Router {
        &mut self.routers[idx]
    }

    /// Test hook: sets a stray arrival mark for input `port` of `router` in
    /// the slot of the cycle just finished, one no live router took, so the
    /// next audit fails.
    #[doc(hidden)]
    pub fn debug_stray_arrival(&mut self, router: usize, port: u32) {
        assert!(port < self.topo.ports(), "port {port} out of range");
        let slot = self.arrivals.landing_slot(self.next_cycle);
        let word = self.arrivals.word(router, slot);
        word.fetch_or(1 << port, std::sync::atomic::Ordering::Relaxed);
    }

    /// The routers (read-only; used by the energy model and diagnostics).
    pub fn routers(&self) -> &[Router] {
        &self.routers
    }

    /// Total [`Router::step`] invocations across all routers — the work the
    /// clock gating saves is directly visible here (diagnostic; the gating
    /// regression tests assert on it).
    pub fn compute_invocations(&self) -> u64 {
        self.routers.iter().map(Router::compute_invocations).sum()
    }

    /// Average utilization of inter-router links: flits carried per link per
    /// cycle, over the whole run.
    pub fn avg_link_utilization(&self) -> f64 {
        if self.stats.cycles == 0 {
            return 0.0;
        }
        let mut links = 0u64;
        let mut flits = 0u64;
        for router in &self.routers {
            for port in 0..self.topo.ports() {
                if self.topo.link_dst(router.id(), port).is_some() {
                    links += 1;
                    flits += router.event_counts().flits_out[port as usize];
                }
            }
        }
        if links == 0 {
            return 0.0;
        }
        flits as f64 / links as f64 / self.stats.cycles as f64
    }

    /// Total flits currently buffered inside routers (diagnostic).
    pub fn buffered_flits(&self) -> usize {
        self.routers.iter().map(Router::buffered_flits).sum()
    }

    /// Like [`Network::drain_delivered`] but appends into a caller-owned
    /// buffer, so a driver polling every cycle recycles one allocation
    /// instead of producing a fresh `Vec` per poll (the zero-allocation
    /// steady-state test runs on this).
    pub fn drain_delivered_into(&mut self, out: &mut Vec<Delivery>) {
        out.append(&mut self.delivered_out);
    }

    fn alloc_packet(&mut self, info: PacketInfo) -> PacketId {
        if let Some(id) = self.free.pop() {
            self.packets[id as usize] = Some(info);
            id
        } else {
            let id = self.packets.len() as PacketId;
            self.packets.push(Some(info));
            id
        }
    }
}

impl Network for NocNetwork {
    fn inject(&mut self, msg: NetMessage, now: Cycle) {
        debug_assert!(
            now.0 >= self.next_cycle,
            "inject into the past: now={} next={}",
            now.0,
            self.next_cycle
        );
        let (dst_router, dst_local) = self.topo.node_router(msg.dst);
        let (src_router, src_local) = self.topo.node_router(msg.src);
        let flits = msg.flits(self.cfg.flit_bytes);
        let pkt = self.alloc_packet(PacketInfo {
            msg,
            inject: now.0,
            net_start: now.0,
        });
        let pending = PendingPacket {
            pkt,
            dst_router: dst_router as u16,
            dst_local: dst_local as u8,
            flits,
        };
        if now.0 <= self.next_cycle {
            self.routers[src_router as usize].enqueue_packet(src_local, msg.class.vnet(), pending);
        } else {
            // The network lags the injector (quantum-based co-simulation):
            // hold the message until its cycle is simulated.
            self.future.push(Reverse(QueuedInjection {
                cycle: now.0,
                seq: self.inject_seq,
                src_router,
                src_local,
                vnet: msg.class.vnet() as u8,
                pending,
            }));
            self.inject_seq += 1;
        }
        self.stats.injected += 1;
        self.in_flight_count += 1;
        self.in_flight_by_class[msg.class.vnet()] += 1;
    }

    fn tick(&mut self, now: Cycle) {
        while self.next_cycle <= now.0 {
            if self.fast_forward_idle(now.0 + 1) == 0 {
                self.run_batch(now.0 + 1);
            }
        }
    }

    fn drain_delivered(&mut self, _now: Cycle) -> Vec<Delivery> {
        std::mem::take(&mut self.delivered_out)
    }

    fn in_flight(&self) -> usize {
        self.in_flight_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ra_sim::{MessageClass, NodeId};

    fn msg(id: u64, src: u32, dst: u32, class: MessageClass, bytes: u32) -> NetMessage {
        NetMessage::new(id, NodeId(src), NodeId(dst), class, bytes)
    }

    #[test]
    fn single_message_crosses_the_mesh() {
        let mut net = NocNetwork::new(NocConfig::new(4, 4)).unwrap();
        net.inject(msg(1, 0, 15, MessageClass::Request, 8), Cycle(0));
        assert_eq!(net.in_flight(), 1);
        net.run_until_drained(1_000).unwrap();
        let out = net.drain_delivered(Cycle(net.next_cycle()));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].msg.id, 1);
        // 6 hops; ~3 cycles of pipeline per router + 1 cycle per link.
        let latency = out[0].at.0;
        assert!(latency >= 6, "latency {latency} impossibly low");
        assert!(latency <= 40, "latency {latency} suspiciously high");
        assert_eq!(net.stats().delivered, 1);
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    fn latency_grows_with_distance() {
        let mut short = NocNetwork::new(NocConfig::new(8, 8)).unwrap();
        short.inject(msg(1, 0, 1, MessageClass::Request, 8), Cycle(0));
        short.run_until_drained(1_000).unwrap();
        let near = short.drain_delivered(Cycle(short.next_cycle()))[0].at.0;

        let mut long = NocNetwork::new(NocConfig::new(8, 8)).unwrap();
        long.inject(msg(1, 0, 63, MessageClass::Request, 8), Cycle(0));
        long.run_until_drained(1_000).unwrap();
        let far = long.drain_delivered(Cycle(long.next_cycle()))[0].at.0;
        assert!(far > near, "far {far} <= near {near}");
    }

    #[test]
    fn large_messages_take_longer_than_small() {
        let mut small = NocNetwork::new(NocConfig::new(4, 4)).unwrap();
        small.inject(msg(1, 0, 15, MessageClass::Request, 8), Cycle(0));
        small.run_until_drained(1_000).unwrap();
        let s = small.drain_delivered(Cycle(small.next_cycle()))[0].at.0;

        let mut big = NocNetwork::new(NocConfig::new(4, 4)).unwrap();
        big.inject(msg(1, 0, 15, MessageClass::Response, 72), Cycle(0));
        big.run_until_drained(1_000).unwrap();
        let b = big.drain_delivered(Cycle(big.next_cycle()))[0].at.0;
        // 72 bytes = 5 flits: tail trails the head by 4 cycles.
        assert_eq!(b, s + 4, "serialization latency mismatch (small {s}, big {b})");
    }

    #[test]
    fn every_pair_delivers_on_all_topologies() {
        use crate::config::TopologyKind;
        for cfg in [
            NocConfig::new(4, 4),
            NocConfig::new(8, 4).with_topology(TopologyKind::CMesh { concentration: 2 }),
        ] {
            let mut net = NocNetwork::new(cfg.clone()).unwrap();
            let nodes = cfg.shape.nodes() as u32;
            let mut id = 0;
            for s in 0..nodes {
                for d in 0..nodes {
                    net.inject(msg(id, s, d, MessageClass::Request, 8), Cycle(0));
                    id += 1;
                }
            }
            net.run_until_drained(200_000)
                .unwrap_or_else(|e| panic!("{cfg:?}: {e}"));
            let out = net.drain_delivered(Cycle(net.next_cycle()));
            assert_eq!(out.len(), id as usize, "lost messages for {cfg:?}");
        }
    }

    #[test]
    fn deliveries_preserve_message_identity() {
        let mut net = NocNetwork::new(NocConfig::new(4, 4)).unwrap();
        for i in 0..10 {
            net.inject(msg(100 + i, 0, 5, MessageClass::Coherence, 16), Cycle(0));
        }
        net.run_until_drained(10_000).unwrap();
        let mut ids: Vec<_> = net
            .drain_delivered(Cycle(net.next_cycle()))
            .iter()
            .map(|d| d.msg.id)
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (100..110).collect::<Vec<_>>());
    }

    #[test]
    fn same_vc_messages_deliver_in_fifo_order() {
        // Messages between the same pair on the same class must not overtake
        // arbitrarily; at minimum all must arrive.
        let mut net = NocNetwork::new(NocConfig::new(2, 2).with_vcs_per_vnet(1)).unwrap();
        for i in 0..5 {
            net.inject(msg(i, 0, 3, MessageClass::Request, 8), Cycle(0));
        }
        net.run_until_drained(10_000).unwrap();
        let out = net.drain_delivered(Cycle(net.next_cycle()));
        let ids: Vec<_> = out.iter().map(|d| d.msg.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4], "single-VC traffic must stay FIFO");
    }

    #[test]
    fn stats_track_injected_and_delivered() {
        let mut net = NocNetwork::new(NocConfig::new(4, 4)).unwrap();
        for i in 0..20 {
            net.inject(msg(i, (i % 16) as u32, ((i * 7) % 16) as u32, MessageClass::Request, 8), Cycle(0));
        }
        net.run_until_drained(10_000).unwrap();
        let stats = net.stats();
        assert_eq!(stats.injected, 20);
        assert_eq!(stats.delivered, 20);
        assert!(stats.avg_latency() > 0.0);
        assert!(stats.avg_net_latency() <= stats.avg_latency());
    }

    #[test]
    fn run_until_drained_times_out_on_tiny_budget() {
        let mut net = NocNetwork::new(NocConfig::new(8, 8)).unwrap();
        net.inject(msg(0, 0, 63, MessageClass::Request, 8), Cycle(0));
        let err = net.run_until_drained(2).unwrap_err();
        assert!(matches!(err, SimError::Timeout { .. }));
    }

    #[test]
    fn tick_is_idempotent_for_past_cycles() {
        let mut net = NocNetwork::new(NocConfig::new(4, 4)).unwrap();
        net.tick(Cycle(10));
        assert_eq!(net.next_cycle(), 11);
        net.tick(Cycle(5)); // no-op: already past
        assert_eq!(net.next_cycle(), 11);
    }

    #[test]
    fn audit_passes_on_live_traffic() {
        let mut net = NocNetwork::new(NocConfig::new(4, 4)).unwrap();
        for i in 0..8 {
            net.inject(msg(i, 0, 15, MessageClass::Request, 8), Cycle(0));
        }
        for _ in 0..10 {
            net.step();
            net.audit().unwrap();
        }
        net.run_until_drained(10_000).unwrap();
        net.audit().unwrap();
    }

    #[test]
    fn audit_catches_corrupted_router_state() {
        let mut net = NocNetwork::new(NocConfig::new(4, 4)).unwrap();
        net.audit().unwrap();
        net.debug_router_mut(3).debug_corrupt_credits();
        let err = net.audit().unwrap_err();
        assert!(matches!(err, SimError::Invariant(_)), "got {err:?}");
        assert!(err.to_string().contains("router 3"), "got {err}");
    }

    #[test]
    fn timeout_reports_class_and_buffer_breakdown() {
        let mut net = NocNetwork::new(NocConfig::new(8, 8)).unwrap();
        net.inject(msg(0, 0, 63, MessageClass::Request, 8), Cycle(0));
        net.inject(msg(1, 5, 60, MessageClass::Response, 72), Cycle(0));
        let err = net.run_until_drained(2).unwrap_err();
        let SimError::Timeout { waiting_for, .. } = &err else {
            panic!("expected timeout, got {err:?}");
        };
        assert!(waiting_for.contains("2 in-flight"), "got {waiting_for}");
        assert!(waiting_for.contains("Request: 1"), "got {waiting_for}");
        assert!(waiting_for.contains("Response: 1"), "got {waiting_for}");
        assert!(waiting_for.contains("buffered"), "got {waiting_for}");
    }
}

#[cfg(test)]
mod gating_tests {
    use super::*;
    use crate::traffic::{InjectionProcess, TrafficGen, TrafficPattern};
    use ra_sim::{MessageClass, NodeId};

    fn msg(id: u64, src: u32, dst: u32) -> NetMessage {
        NetMessage::new(id, NodeId(src), NodeId(dst), MessageClass::Request, 8)
    }

    /// The headline gating regression: a fully idle network advances N
    /// cycles with **zero** router compute invocations.
    #[test]
    fn idle_network_advances_with_zero_router_steps() {
        let mut net = NocNetwork::new(NocConfig::new(8, 8)).unwrap();
        net.tick(Cycle(9_999));
        assert_eq!(net.next_cycle(), 10_000);
        assert_eq!(net.stats().cycles, 10_000, "idle cycles are simulated time");
        assert_eq!(net.compute_invocations(), 0, "no router may have stepped");
    }

    /// With gating off, the same idle window steps every router every
    /// cycle — the reference schedule gating is measured against.
    #[test]
    fn ungated_idle_network_steps_every_router() {
        let mut net =
            NocNetwork::new(NocConfig::new(2, 2).with_clock_gating(false)).unwrap();
        net.tick(Cycle(99));
        assert_eq!(net.compute_invocations(), 100 * 4);
    }

    /// Gating on and off must produce bit-identical statistics on real
    /// traffic, including idle gaps that exercise the wake/catch-up paths.
    #[test]
    fn gated_and_ungated_stats_are_bit_identical() {
        fn run(gating: bool) -> NocStats {
            let mut net = NocNetwork::new(
                NocConfig::new(8, 8).with_seed(42).with_clock_gating(gating),
            )
            .unwrap();
            let mut gen = TrafficGen::new(
                8,
                8,
                TrafficPattern::Uniform,
                InjectionProcess::Bernoulli { rate: 0.01 },
                7,
            );
            for now in 0..2_000u64 {
                gen.inject_cycle(&mut net, Cycle(now));
                net.tick(Cycle(now));
            }
            // A long idle tail, then a burst that wakes the mesh again.
            net.tick(Cycle(4_000));
            for i in 0..16 {
                net.inject(msg(900 + i, (i as u32) % 64, (63 - i as u32) % 64), Cycle(4_001));
            }
            net.run_until_drained(100_000).unwrap();
            net.stats().clone()
        }
        let gated = run(true);
        let ungated = run(false);
        assert_eq!(gated, ungated, "gating changed simulated results");
    }

    /// Gating must leave scripted faults fully visible: stall counters burn
    /// every cycle on an otherwise idle network.
    #[test]
    fn fault_scripted_routers_are_never_gated() {
        use crate::fault::FaultPlan;
        let cfg = NocConfig::new(4, 4)
            .with_faults(FaultPlan::new().stall_router(5, 0, 500));
        let mut net = NocNetwork::new(cfg).unwrap();
        net.tick(Cycle(499));
        assert_eq!(net.stats().faults.stall_cycles, 500);
    }

    /// A message injected after a long gated-idle stretch sees exactly the
    /// same latency as on a never-idle network (VA pointer catch-up).
    #[test]
    fn post_idle_latency_matches_cold_start() {
        let mut cold = NocNetwork::new(NocConfig::new(4, 4)).unwrap();
        cold.inject(msg(0, 0, 15), Cycle(0));
        cold.run_until_drained(1_000).unwrap();
        let cold_latency =
            cold.drain_delivered(Cycle(cold.next_cycle()))[0].at.0;

        let mut idle = NocNetwork::new(NocConfig::new(4, 4)).unwrap();
        idle.tick(Cycle(9_999));
        idle.inject(msg(0, 0, 15), Cycle(10_000));
        idle.run_until_drained(1_000).unwrap();
        let idle_latency =
            idle.drain_delivered(Cycle(idle.next_cycle()))[0].at.0 - 10_000;
        assert_eq!(idle_latency, cold_latency);
    }

    /// `skip_to` (unsimulated jump) must not confuse the gating clock:
    /// traffic after the jump behaves as if the network were fresh.
    #[test]
    fn skip_to_resyncs_gating_clocks() {
        let mut net = NocNetwork::new(NocConfig::new(4, 4)).unwrap();
        net.skip_to(5_000).unwrap();
        net.inject(msg(0, 0, 15), Cycle(5_000));
        net.run_until_drained(1_000).unwrap();
        assert_eq!(net.stats().delivered, 1);
        net.audit().unwrap();
    }

    /// On multi-cycle links the last hop's credit is still on the wire for
    /// `link_latency` cycles after the network drains; `skip_to` must
    /// absorb it before the jump. With one single-slot VC per vnet a lost
    /// credit would block that output VC for good, so the same message
    /// after the jump could never arrive. (At latency 3, stepping only as
    /// long as a one-cycle link needs would lose it.)
    #[test]
    fn skip_to_absorbs_in_flight_credits_on_multi_cycle_links() {
        for latency in [2, 3] {
            let cfg = NocConfig::new(4, 4)
                .with_link_latency(latency)
                .with_vcs_per_vnet(1)
                .with_vc_depth(1);
            let mut net = NocNetwork::new(cfg).unwrap();
            net.inject(msg(0, 0, 15), Cycle(0));
            net.run_until_drained(1_000).unwrap();
            let first = net.drain_delivered(Cycle(net.next_cycle()))[0].at.0;
            net.skip_to(5_000).unwrap();
            net.audit().unwrap();
            net.inject(msg(1, 0, 15), Cycle(5_000));
            net.run_until_drained(1_000)
                .unwrap_or_else(|e| panic!("latency {latency}: {e}"));
            let second = net.drain_delivered(Cycle(net.next_cycle()))[0].at.0 - 5_000;
            assert_eq!(second, first, "latency {latency}: a lost credit slows the path");
        }
    }

    /// A cycle's writes are invisible within that cycle: engine batches
    /// that step each cycle's routers one at a time in descending order
    /// give the serial tick's ascending-order statistics bit for bit, on
    /// one- and two-cycle links, with a link dying under load and a flaky
    /// window.
    #[test]
    fn step_order_within_a_cycle_is_invisible() {
        use crate::fault::FaultPlan;
        const BATCH: u64 = 10;
        fn run(latency: u32, descending: bool) -> NocStats {
            let plan = FaultPlan::new()
                .kill_link(27, crate::topology::EAST, 300)
                .flaky_link(18, crate::topology::NORTH, 0, 800, 0.2);
            let cfg = NocConfig::new(8, 8)
                .with_seed(5)
                .with_link_latency(latency)
                .with_faults(plan);
            let mut net = NocNetwork::new(cfg).unwrap();
            let mut gen = TrafficGen::new(
                8,
                8,
                TrafficPattern::Uniform,
                InjectionProcess::Bernoulli { rate: 0.05 },
                13,
            );
            for t0 in (0..1_500u64).step_by(BATCH as usize) {
                for now in t0..(t0 + BATCH).min(1_000) {
                    gen.inject_cycle(&mut net, Cycle(now));
                }
                if descending {
                    engine_batch(&mut net, BATCH, 1, true);
                } else {
                    net.tick(Cycle(t0 + BATCH - 1));
                }
            }
            net.audit().unwrap();
            assert!(net.stats().faults.flits_dropped() > 0, "the faults must bite");
            net.stats().clone()
        }
        for latency in [1, 2] {
            assert_eq!(run(latency, true), run(latency, false), "latency {latency}");
        }
    }

    /// Runs one engine batch of `batch` cycles by hand, through
    /// `begin_batch` and `finish_batch`: each cycle applies its releases and
    /// steps the routers as `step_range` passes over ranges of `width`
    /// routers, the highest range first when `descending`.
    fn engine_batch(net: &mut NocNetwork, batch: u64, width: usize, descending: bool) {
        let (mut releases, t0) = (Vec::new(), net.next_cycle());
        let parts = net.begin_batch(batch, &mut releases);
        let n = parts.routers.len();
        let mut active_bits = 0u64;
        let mut due = releases.iter().peekable();
        for c in t0..t0 + batch {
            while let Some(rel) = due.next_if(|rel| rel.cycle == c) {
                parts.routers[rel.router as usize].apply_release(rel);
            }
            let links = parts.wires.links(c, parts.arrivals, 0..n, false);
            let mut ranges: Vec<_> = parts.routers.chunks_mut(width).enumerate().collect();
            if descending {
                ranges.reverse();
            }
            for (i, range) in ranges {
                let first = i * width;
                let pass = step_range(
                    parts.topo,
                    range,
                    first,
                    &links,
                    parts.arrivals,
                    parts.gating,
                    c,
                );
                active_bits |= u64::from(pass.moved) << (c - t0);
            }
        }
        net.finish_batch(batch, active_bits);
    }

    /// The batched engine protocol on the serial engine's own cycle loop:
    /// begin_batch / finish_batch over quiet and busy windows, stepping
    /// ranges of five routers, gives the same result as per-cycle stepping.
    #[test]
    fn batch_protocol_matches_per_cycle_stepping() {
        fn run_batched(batch: u64) -> NocStats {
            let mut net = NocNetwork::new(NocConfig::new(4, 4).with_seed(3)).unwrap();
            for i in 0..12 {
                // Spread injections so some land mid-batch.
                net.inject(msg(i, (i as u32 * 5) % 16, (i as u32 * 11 + 2) % 16), Cycle(i * 7));
            }
            while net.in_flight() > 0 || net.next_cycle() < 200 {
                engine_batch(&mut net, batch, 5, false);
                if net.next_cycle() > 100_000 {
                    panic!("batched run diverged");
                }
            }
            net.stats().clone()
        }
        fn run_serial() -> NocStats {
            let mut net = NocNetwork::new(NocConfig::new(4, 4).with_seed(3)).unwrap();
            for i in 0..12 {
                net.inject(msg(i, (i as u32 * 5) % 16, (i as u32 * 11 + 2) % 16), Cycle(i * 7));
            }
            while net.in_flight() > 0 || net.next_cycle() < 200 {
                net.step();
            }
            net.stats().clone()
        }
        let serial = run_serial();
        for batch in [1, 7, 64] {
            let batched = run_batched(batch);
            // Cycle counts may overshoot by up to batch-1 cycles (the last
            // batch rounds up); compare everything that drains identically.
            assert_eq!(batched.injected, serial.injected, "batch {batch}");
            assert_eq!(batched.delivered, serial.delivered, "batch {batch}");
            assert_eq!(batched.latency, serial.latency, "batch {batch}");
            assert_eq!(batched.net_latency, serial.net_latency, "batch {batch}");
        }
    }

    /// The serial engine's batches are invisible: a windowed replay through
    /// `tick` gives what a per-cycle loop of `fast_forward_idle` and `step`
    /// gives (statistics, router steps, fast-forwarded cycles and delivery
    /// order) with gating on and off at link latencies 1 to 3. A router
    /// poisoned in the middle of a batch still surfaces through
    /// `check_invariant` once the `tick` returns, with the same message.
    #[test]
    fn batched_tick_matches_per_cycle_steps() {
        type Outcome = (NocStats, u64, u64, Vec<(u64, u64)>, String);
        /// Advances `net` through cycle `end`, batched or a cycle at a time.
        fn advance(net: &mut NocNetwork, end: u64, batched: bool) {
            if batched {
                net.tick(Cycle(end));
                return;
            }
            while net.next_cycle() <= end {
                if net.fast_forward_idle(end + 1) == 0 {
                    net.step();
                }
            }
        }
        fn run(latency: u32, gating: bool, batched: bool) -> Outcome {
            const WINDOW: u64 = 200;
            let cfg = NocConfig::new(4, 4)
                .with_seed(7)
                .with_link_latency(latency)
                .with_clock_gating(gating);
            let mut net = NocNetwork::new(cfg).unwrap();
            let mut gen = TrafficGen::new(
                4,
                4,
                TrafficPattern::Uniform,
                InjectionProcess::Bernoulli { rate: 0.1 },
                5,
            );
            // Bursts injected a window ahead, with silent stretches between.
            let mut order = Vec::new();
            for w in 0..6 {
                let start = w * WINDOW;
                if w % 3 != 2 {
                    for now in start + 20..start + 90 {
                        gen.inject_cycle(&mut net, Cycle(now));
                    }
                }
                advance(&mut net, start + WINDOW - 1, batched);
                let delivered = net.drain_delivered(Cycle(start + WINDOW));
                order.extend(delivered.iter().map(|d| (d.msg.id, d.at.0)));
            }
            // A stream from router 0 to 15 keeps the next batch running
            // while router 12, off its path, takes a mark for a wire that
            // carries nothing.
            let t = net.next_cycle();
            for i in 0..8 {
                let class = MessageClass::Response;
                net.inject(NetMessage::new(1_000 + i, NodeId(0), NodeId(15), class, 72), Cycle(t));
            }
            advance(&mut net, t + 5, batched);
            net.check_invariant().unwrap();
            net.debug_stray_arrival(12, 3);
            advance(&mut net, t + 60, batched);
            let poison = net.check_invariant().unwrap_err().to_string();
            let steps = net.compute_invocations();
            (net.stats().clone(), steps, net.fast_forwarded_cycles(), order, poison)
        }
        for latency in 1..=3 {
            for gating in [true, false] {
                let batched = run(latency, gating, true);
                assert!(batched.4.contains("marked flit wire"), "{}", batched.4);
                assert_eq!(batched.2 > 0, gating, "fast-forward fires when gated");
                let per_cycle = run(latency, gating, false);
                assert_eq!(batched, per_cycle, "latency {latency}, gating {gating}");
            }
        }
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::fault::FaultPlan;
    use ra_sim::{MessageClass, NodeId};

    fn msg(id: u64, src: u32, dst: u32) -> NetMessage {
        NetMessage::new(id, NodeId(src), NodeId(dst), MessageClass::Request, 8)
    }

    /// East link of router 5 dies before traffic starts: everything still
    /// delivers (detours), and the reroute counter proves the detour table
    /// was exercised.
    #[test]
    fn dead_link_is_detoured_and_counted() {
        let cfg = NocConfig::new(4, 4)
            .with_faults(FaultPlan::new().kill_link(5, crate::topology::EAST, 0));
        let mut net = NocNetwork::new(cfg).unwrap();
        let mut id = 0;
        for s in 0..16 {
            for d in 0..16 {
                net.inject(msg(id, s, d), Cycle(0));
                id += 1;
            }
        }
        net.run_until_drained(100_000).unwrap();
        assert_eq!(net.stats().delivered, id);
        assert!(
            net.stats().faults.reroutes > 0,
            "dimension-order paths through the dead link must have been detoured"
        );
        assert_eq!(net.stats().faults.flits_dropped(), 0);
        net.audit().unwrap();
    }

    /// A router isolated by killing all its links swallows traffic routed
    /// to it; the run must fail cleanly (timeout or deadlock watchdog),
    /// never panic.
    #[test]
    fn isolated_destination_fails_cleanly() {
        let cfg = NocConfig::new(4, 4).with_faults(FaultPlan::new().isolate_router(5, 0));
        let mut net = NocNetwork::new(cfg).unwrap();
        net.inject(msg(0, 0, 5), Cycle(0));
        let err = net.run_until_drained(5_000).unwrap_err();
        assert!(
            matches!(err, SimError::Timeout { .. } | SimError::Invariant(_)),
            "got {err:?}"
        );
        // The flit was dropped at the dead link; accounting still balances.
        assert_eq!(net.stats().delivered, 0);
        assert!(net.stats().faults.flits_dropped_dead > 0);
    }

    /// Random fault plans over random traffic: the network must never
    /// panic, and surviving runs must keep accounting balanced.
    #[test]
    fn random_fault_plans_never_panic() {
        for seed in 0..12 {
            let plan = FaultPlan::random(seed, 16, 4, 2_000);
            let cfg = NocConfig::new(4, 4).with_faults(plan).with_seed(seed);
            let mut net = NocNetwork::new(cfg).unwrap();
            for i in 0..40 {
                net.inject(
                    msg(i, (i as u32 * 3) % 16, (i as u32 * 7 + 1) % 16),
                    Cycle(i * 5),
                );
            }
            // Faulted runs may legitimately time out (messages lost to dead
            // links); what they may not do is panic or corrupt accounting.
            let _ = net.run_until_drained(20_000);
            let live = net.stats().injected - net.stats().delivered;
            assert_eq!(live, net.in_flight() as u64, "accounting broke for seed {seed}");
        }
    }

    /// A scripted stall freezes a router mid-run; traffic resumes and
    /// drains after the window closes.
    #[test]
    fn stalled_router_recovers_after_window() {
        let cfg = NocConfig::new(4, 4).with_faults(FaultPlan::new().stall_router(5, 10, 60));
        let mut net = NocNetwork::new(cfg).unwrap();
        for i in 0..10 {
            net.inject(msg(i, 0, 15), Cycle(0));
        }
        net.run_until_drained(10_000).unwrap();
        assert_eq!(net.stats().delivered, 10);
        assert!(net.stats().faults.stall_cycles > 0);
    }

    /// A forced router panic inside the debug hook surfaces through the
    /// poison path as an `Invariant` error from `run_until_drained`.
    #[test]
    fn corrupted_credits_surface_as_invariant_via_audit() {
        let mut net = NocNetwork::new(NocConfig::new(4, 4)).unwrap();
        net.inject(msg(0, 0, 15), Cycle(0));
        net.debug_router_mut(0).debug_corrupt_credits();
        // The corrupted output VC overflows on the next returned credit;
        // either the router poisons itself (overflow detected) or the
        // audit catches the standing violation.
        let run = net.run_until_drained(10_000);
        let audit = net.audit();
        assert!(
            run.is_err() || audit.is_err(),
            "corruption must be detected: run {run:?}, audit {audit:?}"
        );
    }
}

#[cfg(test)]
mod utilization_tests {
    use super::*;
    use crate::traffic::{InjectionProcess, TrafficGen, TrafficPattern};
    use ra_sim::Cycle;

    #[test]
    fn link_utilization_tracks_offered_load() {
        fn util(rate: f64) -> f64 {
            let mut net = NocNetwork::new(NocConfig::new(4, 4)).unwrap();
            let mut gen = TrafficGen::new(
                4,
                4,
                TrafficPattern::Uniform,
                InjectionProcess::Bernoulli { rate },
                1,
            );
            gen.run(&mut net, 5_000);
            net.avg_link_utilization()
        }
        assert_eq!(util(0.0), 0.0);
        let low = util(0.02);
        let high = util(0.08);
        assert!(low > 0.0);
        assert!(high > 2.0 * low, "utilization must scale with load");
        assert!(high < 1.0, "cannot exceed one flit per link per cycle");
    }

    #[test]
    fn idle_network_has_zero_utilization() {
        let mut net = NocNetwork::new(NocConfig::new(4, 4)).unwrap();
        net.tick(Cycle(100));
        assert_eq!(net.avg_link_utilization(), 0.0);
    }
}

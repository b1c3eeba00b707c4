//! The virtual-channel wormhole router.
//!
//! Each router executes one pass per cycle, [`Router::step`]: it reads the
//! incoming flit and credit wires its arrival word marks, then runs the
//! pipeline stages in *reverse* order (SA/ST, then VA, then RC) so a flit
//! advances at most one stage per cycle: a head flit arriving at cycle `t`
//! route-computes at `t`, gets a VC at `t+1`, and traverses the switch at
//! `t+2`, giving the classic 3-cycle router + link latency per hop while
//! body flits stream at one flit per cycle.
//!
//! Switch traversal puts each flit straight onto the router's own output
//! link, and the credit for the input slot it freed onto the router's own
//! upstream credit link, marking each receiver's arrival word for the cycle
//! it lands. A step reads the links' slots of cycle `now - L` and writes
//! only its own wires' slots of cycle `now`, a different bank
//! ([`Links`]), so no router stepped in the same cycle can see what it
//! sent, and routers of one cycle may be stepped in any order or in
//! parallel. The bulk-synchronous engine in `ra-gpu` exploits exactly this
//! contract.
//!
//! # Hot-path layout
//!
//! Per-VC state is struct-of-arrays indexed `port * total_vcs + vc`, and
//! flits sit in one flat ring sized at construction (VC `i` owns slots
//! `i * vc_depth ..`, with a `u8` head and length), so the step path makes
//! **zero heap allocations** (`tests/no_alloc.rs`). No allocator scans VCs:
//! each input port keeps `u64` masks, one bit per VC, of its `routed`,
//! `active` and `non_empty` VCs, changed only by `set_state`, `push_flit`
//! and `pop_flit` and checked by [`Router::audit`]. Route compute walks
//! `non_empty & !(routed | active)`, VC allocation `routed`, switch
//! allocation `active & non_empty` and then per-output request masks, and
//! the NI's free-VC search its vnet's band.
//!
//! Nor does any stage scan ports. Beside the VC masks the router keeps two
//! `u32` port masks, also audited: `occupied` (ports buffering a flit, kept
//! by `push_flit` and `pop_flit`) and `routed_ports` (ports with a `Routed`
//! VC, kept by `set_state`). Switch allocation's nominations and route
//! compute walk only occupied ports, and VC allocation only ports with a
//! routed VC, though its round-robin pointer still advances every step; an
//! unoccupied port has no candidate in any of them. The NI injection pass
//! is skipped outright while no packet is queued or streaming. Per-VC
//! routing state is narrow, so more of it shares a cache line: output port,
//! output VC and credit count are `u8`, and an output VC's owner is a `u16`
//! flat input-VC index, widths that the limits `NocConfig::validate`
//! enforces guarantee.
//!
//! Set-bit order is scan order. Each allocator visits candidates ascending,
//! or round-robin from a pointer `s`. A mask rotated right by `s` holds bits
//! `s..` at positions `0..` and bits `..s` above them, so its ascending set
//! bits are the wrap-around order from `s`, restricted to candidates.
//! Visiting a VC changes only that VC's bits, so walking a mask read up
//! front meets the same VCs as testing each in turn: every grant and counter
//! comes out as the scans produced them (`tests/golden.rs` pins them).
//!
//! # Clock gating
//!
//! A quiescent router (no buffered flits, no NI backlog) computes nothing
//! and sends nothing, so the engines skip it entirely
//! (see [`NocNetwork`](crate::NocNetwork)). Skipping must be invisible to
//! simulated results: the only per-cycle state an idle router would still
//! mutate is the VC-allocation round-robin pointer, so
//! [`step`](Router::step) fast-forwards that pointer by
//! the number of skipped cycles on wake-up, making gated and ungated
//! schedules bit-identical.

use std::collections::VecDeque;

use ra_sim::MessageClass;

use crate::config::NocConfig;
use crate::fault::FaultState;
use crate::flit::{Flit, FlitKind, PacketId};
use crate::stats::FaultStats;
use crate::topology::TopologyMap;
use crate::wire::Links;

/// Limits of a router's state (`NocConfig::validate` enforces them): `u32`
/// port masks and `u8` port numbers, `u64` VC masks and `u8` VC numbers,
/// `u8` ring heads, lengths and credit counts, and `u16` flat input-VC
/// indices (below `MAX_PORTS * MAX_VCS`).
pub(crate) const MAX_PORTS: u32 = 32;
pub(crate) const MAX_VCS: u32 = 64;
pub(crate) const MAX_VC_DEPTH: u32 = u8::MAX as u32;

/// Sentinel for "no input VC" in the output-VC owner table (flat input-VC
/// indices stop below `MAX_PORTS * MAX_VCS`).
const NONE_IDX: u16 = u16::MAX;

/// State of an input virtual channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VcState {
    /// Empty or waiting for a head flit to reach the buffer front.
    Idle,
    /// Route computed; waiting for an output VC.
    Routed,
    /// Output VC allocated; flits may traverse the switch.
    Active,
}

/// One input port's occupancy masks, bit `vc` per VC (see the module doc).
#[derive(Debug, Clone, Copy, Default)]
struct VcMasks {
    routed: u64,
    active: u64,
    non_empty: u64,
}

/// A packet waiting in a node interface source queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct PendingPacket {
    pub pkt: PacketId,
    pub dst_router: u16,
    pub dst_local: u8,
    pub flits: u32,
}

/// An injection in progress: the NI is streaming this packet's flits into a
/// local input VC.
#[derive(Debug, Clone, Copy)]
struct ActiveInjection {
    vc: u32,
    sent: u32,
    total: u32,
    template: Flit,
}

/// The network interface of one endpoint, attached to a local router port.
#[derive(Debug, Clone)]
struct LocalIface {
    queues: Vec<VecDeque<PendingPacket>>, // one per vnet
    cur: Vec<Option<ActiveInjection>>,    // one per vnet
    vnet_rr: u32,
}

/// Counters a single router accumulates; merged by the network each cycle.
#[derive(Debug, Clone, Default)]
pub struct RouterStats {
    /// Flits sent per output port (locals included; locals count ejections).
    pub flits_out: Vec<u64>,
    /// Buffer writes (flits received from links or injected by the NI).
    pub buffer_writes: u64,
    /// Buffer reads (flits removed during switch traversal).
    pub buffer_reads: u64,
    /// Successful VC allocations.
    pub vc_allocs: u64,
    /// Successful switch allocations (equals crossbar traversals).
    pub sa_grants: u64,
    /// Flits placed on inter-router links (excludes ejections).
    pub link_flits: u64,
    /// True if any flit moved this cycle (deadlock watchdog input).
    pub active: bool,
}

/// A virtual-channel wormhole router plus the network interfaces of its
/// attached endpoints.
#[derive(Debug, Clone)]
pub struct Router {
    id: u32,
    ports: u32,
    locals: u32,
    vnets: u32,
    vcs_per_vnet: u32,
    total_vcs: u32,
    vc_depth: u32,
    // --- per-VC state, struct-of-arrays, indexed `port * total_vcs + vc` ---
    /// Flat flit ring: input VC `i` owns slots `i * vc_depth ..`.
    vc_ring: Vec<Flit>,
    vc_head: Vec<u8>,
    vc_len: Vec<u8>,
    vc_state: Vec<VcState>,
    vc_out_port: Vec<u8>,
    vc_out_vc: Vec<u8>,
    /// Credit count of each output VC (the downstream input buffer).
    ovc_credits: Vec<u8>,
    /// Flattened input-VC index owning each output VC ([`NONE_IDX`] = free).
    ovc_owner: Vec<u16>,
    // --- per-port state ---
    masks: Vec<VcMasks>,
    /// Bit `p`: port `p` buffers a flit (`masks[p].non_empty != 0`).
    occupied: u32,
    /// Bit `p`: port `p` has a `Routed` VC (`masks[p].routed != 0`).
    routed_ports: u32,
    ni: Vec<LocalIface>,
    /// VC-allocation round-robin pointer, flat `va_port * total_vcs + va_vc`.
    va_port: u32,
    va_vc: u32,
    sa_vc_ptr: Vec<u32>,
    sa_port_ptr: Vec<u32>,
    // --- activity bookkeeping (clock gating) ---
    /// Flits currently buffered in input VCs.
    buffered: u32,
    /// NI backlog: queued packets plus in-progress injections.
    ni_work: u32,
    /// Link latency in cycles.
    latency: u64,
    /// The next cycle this router expects `step` for; used to fast-forward
    /// the VA round-robin pointer over gated-off cycles.
    clock: u64,
    /// Total `step` invocations (gating regression tests).
    compute_calls: u64,
    /// Packets ejected this cycle: `(packet, cycle)`.
    pub(crate) delivered: Vec<(PacketId, u64)>,
    /// Packets whose head flit entered the network this cycle.
    pub(crate) net_started: Vec<(PacketId, u64)>,
    /// Per-cycle counters, drained by the network.
    pub(crate) stats: RouterStats,
    /// Expanded fault script touching this router (None = fault-free).
    fault: Option<FaultState>,
    /// Fault events since the network last drained them.
    fault_events: FaultStats,
    /// First invariant violation observed, if any. Instead of panicking
    /// mid-phase (which would poison the parallel engine's shared state),
    /// the router records the violation and keeps limping along; the
    /// network converts it into a structured
    /// [`SimError::Invariant`](ra_sim::SimError) at the cycle boundary.
    invariant: Option<String>,
    /// Test hook: panic on the next `step`.
    debug_panic: bool,
}

impl Router {
    /// Builds router `id` for the given configuration and topology.
    pub(crate) fn new(id: u32, cfg: &NocConfig, topo: &TopologyMap) -> Self {
        let ports = topo.ports();
        let locals = topo.concentration();
        let vnets = MessageClass::COUNT as u32;
        let total_vcs = vnets * cfg.vcs_per_vnet;
        let n_vcs = (ports * total_vcs) as usize;
        let fault = FaultState::for_router(&cfg.faults, id, topo, cfg.seed);
        let ni = (0..locals)
            .map(|_| LocalIface {
                queues: (0..vnets).map(|_| VecDeque::new()).collect(),
                cur: vec![None; vnets as usize],
                vnet_rr: 0,
            })
            .collect();
        Router {
            id,
            ports,
            locals,
            vnets,
            vcs_per_vnet: cfg.vcs_per_vnet,
            total_vcs,
            vc_depth: cfg.vc_depth,
            vc_ring: vec![Flit::default(); n_vcs * cfg.vc_depth as usize],
            vc_head: vec![0; n_vcs],
            vc_len: vec![0; n_vcs],
            vc_state: vec![VcState::Idle; n_vcs],
            vc_out_port: vec![0; n_vcs],
            vc_out_vc: vec![0; n_vcs],
            ovc_credits: vec![cfg.vc_depth as u8; n_vcs],
            ovc_owner: vec![NONE_IDX; n_vcs],
            masks: vec![VcMasks::default(); ports as usize],
            occupied: 0,
            routed_ports: 0,
            ni,
            va_port: 0,
            va_vc: 0,
            sa_vc_ptr: vec![0; ports as usize],
            sa_port_ptr: vec![0; ports as usize],
            buffered: 0,
            ni_work: 0,
            latency: u64::from(cfg.link_latency),
            clock: 0,
            compute_calls: 0,
            delivered: Vec::new(),
            net_started: Vec::new(),
            stats: RouterStats {
                flits_out: vec![0; ports as usize],
                ..RouterStats::default()
            },
            fault,
            fault_events: FaultStats::default(),
            invariant: None,
            debug_panic: false,
        }
    }

    /// This router's index.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Cumulative event counters (energy-model inputs).
    pub fn event_counts(&self) -> &RouterStats {
        &self.stats
    }

    #[inline]
    fn ivc_index(&self, port: u32, vc: u32) -> usize {
        (port * self.total_vcs + vc) as usize
    }

    /// Moves input VC `(port, vc)` to `state`, keeping the masks in step.
    #[inline]
    fn set_state(&mut self, port: u32, vc: u32, state: VcState) {
        let idx = self.ivc_index(port, vc);
        self.vc_state[idx] = state;
        let m = &mut self.masks[port as usize];
        m.routed = (m.routed & !(1 << vc)) | (u64::from(state == VcState::Routed) << vc);
        m.active = (m.active & !(1 << vc)) | (u64::from(state == VcState::Active) << vc);
        self.routed_ports = (self.routed_ports & !(1 << port)) | (u32::from(m.routed != 0) << port);
    }

    #[inline]
    fn vc_full(&self, idx: usize) -> bool {
        u32::from(self.vc_len[idx]) >= self.vc_depth
    }

    /// The flit at the front of input VC `idx`, if any.
    #[inline]
    fn front(&self, idx: usize) -> Option<Flit> {
        (self.vc_len[idx] != 0)
            .then(|| self.vc_ring[idx * self.vc_depth as usize + usize::from(self.vc_head[idx])])
    }

    /// Appends `flit` to input VC `(port, vc)`, which the caller checked is not full.
    #[inline]
    fn push_flit(&mut self, port: u32, vc: u32, flit: Flit) {
        let idx = self.ivc_index(port, vc);
        let depth = self.vc_depth as usize;
        let slot = usize::from(self.vc_head[idx]) + usize::from(self.vc_len[idx]);
        let slot = if slot < depth { slot } else { slot - depth };
        self.vc_ring[idx * depth + slot] = flit;
        self.vc_len[idx] += 1;
        self.masks[port as usize].non_empty |= 1 << vc;
        self.occupied |= 1 << port;
        self.buffered += 1;
        self.stats.buffer_writes += 1;
    }

    /// Removes the front flit of input VC `(port, vc)`.
    #[inline]
    fn pop_flit(&mut self, port: u32, vc: u32) -> Option<Flit> {
        let idx = self.ivc_index(port, vc);
        let flit = self.front(idx)?;
        let (next, depth) = (u32::from(self.vc_head[idx]) + 1, self.vc_depth);
        self.vc_head[idx] = if next < depth { next as u8 } else { 0 };
        self.vc_len[idx] -= 1;
        if self.vc_len[idx] == 0 {
            let m = &mut self.masks[port as usize];
            m.non_empty &= !(1 << vc);
            if m.non_empty == 0 {
                self.occupied &= !(1 << port);
            }
        }
        self.buffered -= 1;
        Some(flit)
    }

    /// Queues a packet at the node interface of `local` port.
    pub(crate) fn enqueue_packet(&mut self, local: u32, vnet: usize, pending: PendingPacket) {
        self.ni[local as usize].queues[vnet].push_back(pending);
        self.ni_work += 1;
    }

    /// Total flits buffered in this router's input VCs.
    pub fn buffered_flits(&self) -> usize {
        self.buffered as usize
    }

    /// Packets waiting or streaming at this router's node interfaces.
    pub fn ni_backlog(&self) -> usize {
        self.ni_work as usize
    }

    /// True if this router has anything to do on its own: buffered flits
    /// or NI backlog. A router with no work can only be re-activated by an
    /// in-flight wire value, which marks the router's arrival word for the
    /// cycle it lands.
    #[inline]
    pub fn has_work(&self) -> bool {
        // An armed debug panic counts as work so the fault-injection tests
        // still fire under clock gating.
        self.buffered | self.ni_work != 0 || self.debug_panic
    }

    /// True if a fault script touches this router. Fault-scripted routers
    /// are never clock-gated: scripted stalls must burn (and count) every
    /// cycle exactly as an ungated run would.
    #[inline]
    pub fn is_fault_scripted(&self) -> bool {
        self.fault.is_some()
    }

    /// Total [`step`](Router::step) invocations over the router's lifetime.
    pub fn compute_invocations(&self) -> u64 {
        self.compute_calls
    }

    /// Whether the last [`step`](Router::step) moved any flit (the
    /// network's progress/watchdog signal).
    #[inline]
    pub fn was_active(&self) -> bool {
        self.stats.active
    }

    /// Re-aligns the gating clock after the *network* clock jumped without
    /// simulating (`skip_to`): jumped-over cycles were never simulated by
    /// any engine, so they must not be fast-forwarded over either.
    pub(crate) fn resync_clock(&mut self, cycle: u64) {
        self.clock = cycle;
    }

    /// Records the first invariant violation; later ones are dropped (the
    /// first is almost always the root cause).
    fn poison(&mut self, msg: String) {
        if self.invariant.is_none() {
            self.invariant = Some(msg);
        }
    }

    /// Whether the channel at `port` is dead at `now`.
    #[inline]
    fn link_dead(&self, port: u32, now: u64) -> bool {
        match &self.fault {
            Some(f) => f.link_dead(port as usize, now),
            None => false,
        }
    }

    /// Takes the pending invariant violation, if any.
    pub(crate) fn take_invariant(&mut self) -> Option<String> {
        self.invariant.take()
    }

    /// Takes the fault events recorded since the last drain.
    pub(crate) fn take_fault_events(&mut self) -> FaultStats {
        std::mem::take(&mut self.fault_events)
    }

    /// Cross-checks this router's internal bookkeeping: credit counts stay
    /// within buffer depth, ring heads and lengths stay within depth, every
    /// owned output VC points at an active input VC, the occupancy masks
    /// agree with `vc_state` and ring occupancy, the port masks with the VC
    /// masks, and the clock-gating work counters agree with the state they
    /// summarize.
    pub(crate) fn audit(&self) -> Result<(), String> {
        let (mut occupied, mut routed_ports) = (0u32, 0u32);
        for port in 0..self.ports {
            let m = self.masks[port as usize];
            occupied |= u32::from(m.non_empty != 0) << port;
            routed_ports |= u32::from(m.routed != 0) << port;
            if (m.routed | m.active | m.non_empty) >> (self.total_vcs - 1) > 1 {
                return Err(format!("router {}: port {port} stray mask bits", self.id));
            }
            for vc in 0..self.total_vcs {
                let idx = self.ivc_index(port, vc);
                if u32::from(self.ovc_credits[idx]) > self.vc_depth {
                    return Err(format!(
                        "router {}: output vc ({port},{vc}) holds {} credits, depth {}",
                        self.id, self.ovc_credits[idx], self.vc_depth
                    ));
                }
                let owner = self.ovc_owner[idx];
                if owner != NONE_IDX
                    && self.vc_state.get(usize::from(owner)) != Some(&VcState::Active)
                {
                    return Err(format!(
                        "router {}: output vc ({port},{vc}) owned by non-active input vc {owner}",
                        self.id
                    ));
                }
                let (head, len) = (u32::from(self.vc_head[idx]), u32::from(self.vc_len[idx]));
                let state = self.vc_state[idx];
                let bit = |mask: u64| (mask >> vc) & 1 == 1;
                if head >= self.vc_depth || len > self.vc_depth {
                    return Err(format!(
                        "router {}: input vc ({port},{vc}) ring head {head} length {len}, \
                         depth {}",
                        self.id, self.vc_depth
                    ));
                }
                if (bit(m.routed), bit(m.active), bit(m.non_empty))
                    != (state == VcState::Routed, state == VcState::Active, len > 0)
                {
                    return Err(format!(
                        "router {}: input vc ({port},{vc}) masks disagree with state \
                         {state:?} and {len} buffered flits",
                        self.id
                    ));
                }
            }
        }
        if (self.occupied, self.routed_ports) != (occupied, routed_ports) {
            return Err(format!(
                "router {}: port masks disagree with the VC masks: occupied {:#x} \
                 (expected {occupied:#x}), routed {:#x} (expected {routed_ports:#x})",
                self.id, self.occupied, self.routed_ports
            ));
        }
        let buffered: u32 = self.vc_len.iter().map(|&l| u32::from(l)).sum();
        if buffered != self.buffered {
            return Err(format!(
                "router {}: buffered-flit counter {} disagrees with buffers ({buffered})",
                self.id, self.buffered
            ));
        }
        let ni_work: usize = self
            .ni
            .iter()
            .map(|ni| {
                ni.queues.iter().map(VecDeque::len).sum::<usize>()
                    + ni.cur.iter().flatten().count()
            })
            .sum();
        if ni_work != self.ni_work as usize {
            return Err(format!(
                "router {}: NI work counter {} disagrees with backlog ({ni_work})",
                self.id, self.ni_work
            ));
        }
        Ok(())
    }

    /// Test hook: the next `step` panics, simulating a crashing
    /// component inside an engine worker.
    #[doc(hidden)]
    pub fn debug_force_panic(&mut self) {
        self.debug_panic = true;
    }

    /// Test hook: corrupts credit bookkeeping so the next audit fails.
    #[doc(hidden)]
    pub fn debug_corrupt_credits(&mut self) {
        let idx = self.ivc_index(self.locals, 0);
        self.ovc_credits[idx] = u8::try_from(self.vc_depth + 3).unwrap_or(u8::MAX);
    }

    /// Test hook: flips VC 0's `routed` bit on the first link port, so the
    /// masks disagree with `vc_state` and the next audit fails.
    #[doc(hidden)]
    pub fn debug_corrupt_masks(&mut self) {
        self.masks[self.locals as usize].routed ^= 1;
    }

    /// Test hook: flips the first link port's `occupied` bit, so the port
    /// masks disagree with the VC masks and the next audit fails.
    #[doc(hidden)]
    pub fn debug_corrupt_port_masks(&mut self) {
        self.occupied ^= 1 << self.locals;
    }

    /// One cycle: consume wires, run SA/ST (which sends on the links), VA,
    /// RC, and NI injection.
    ///
    /// `arrivals` is the router's arrival word for `now`, taken (loaded
    /// and zeroed) by the engine: only the wires it marks are read.
    /// `links` holds the slots of cycle `now - L` to read and this router's
    /// own wires' slots of cycle `now` to write.
    ///
    /// A router frozen by a scripted [`RouterStall`](crate::FaultEvent)
    /// does nothing this cycle: it neither reads its wires (in-flight
    /// flits towards it expire unread and are lost upstream) nor sends.
    pub fn step(&mut self, topo: &TopologyMap, links: &Links<'_>, arrivals: u64, now: u64) {
        // Fast-forward the VA round-robin pointer over clock-gated cycles:
        // it is the only per-cycle state an idle router would still have
        // advanced, so catching it up here makes gated schedules
        // bit-identical to ungated ones.
        if now > self.clock {
            let vcs = u64::from(self.total_vcs);
            let flat = u64::from(self.va_port) * vcs + u64::from(self.va_vc) + (now - self.clock);
            let flat = flat % (u64::from(self.ports) * vcs);
            self.va_port = (flat / vcs) as u32;
            self.va_vc = (flat % vcs) as u32;
        }
        self.clock = now + 1;
        self.compute_calls += 1;
        self.stats.active = false;
        if self.debug_panic {
            panic!("injected test panic in router {}", self.id);
        }
        if let Some(f) = &self.fault {
            if f.stalled(now) {
                self.fault_events.stall_cycles += 1;
                return;
            }
        }
        if arrivals != 0 {
            self.receive(topo, links, arrivals, now);
        }
        if self.ni_work != 0 {
            self.inject_from_ni(now);
        }
        self.switch_allocate_and_traverse(topo, links, now);
        self.vc_allocate();
        self.route_compute(topo);
    }

    /// Reads the wires `arrivals` marks, credits first, each kind in
    /// ascending port order: credits returned by downstream routers (bit
    /// `32 + out_port`), then flits from upstream routers (bit `in_port`).
    fn receive(&mut self, topo: &TopologyMap, links: &Links<'_>, arrivals: u64, now: u64) {
        // A mark lands `link_latency` cycles after its send, so `now >= L`.
        let sent = now - self.latency;
        let mut credits = (arrivals >> 32) as u32;
        while credits != 0 {
            let port = credits.trailing_zeros();
            credits &= credits - 1;
            if self.link_dead(port, now) {
                continue; // dead channels return no credits
            }
            let wire = topo
                .link_dst(self.id, port)
                .map(|(dst, in_port)| (dst * self.ports + in_port) as usize);
            let Some(vc) = wire.and_then(|w| links.credit(w, sent)) else {
                self.poison(format!(
                    "router {} port {port}: marked credit wire carries nothing sent at {sent}",
                    self.id
                ));
                continue;
            };
            let idx = self.ivc_index(port, u32::from(vc));
            if u32::from(self.ovc_credits[idx]) >= self.vc_depth {
                self.poison(format!(
                    "credit overflow on router {} port {port} vc {vc}",
                    self.id
                ));
                continue;
            }
            self.ovc_credits[idx] += 1;
        }
        let mut flits = arrivals as u32;
        while flits != 0 {
            let port = flits.trailing_zeros();
            flits &= flits - 1;
            let wire = topo
                .link_src(self.id, port)
                .map(|(src, out_port)| (src * self.ports + out_port) as usize);
            let Some(flit) = wire.and_then(|w| links.flit(w, sent)) else {
                self.poison(format!(
                    "router {} port {port}: marked flit wire carries nothing sent at {sent}",
                    self.id
                ));
                continue;
            };
            if self.link_dead(port, now) {
                // Flits in transit when the channel died expire unread.
                self.fault_events.flits_dropped_dead += 1;
                continue;
            }
            let vc = u32::from(flit.vc);
            if self.vc_full(self.ivc_index(port, vc)) {
                self.poison(format!(
                    "buffer overflow: credits out of sync on router {} port {port} vc {vc}",
                    self.id
                ));
                continue;
            }
            self.push_flit(port, vc, flit);
            self.stats.active = true;
        }
    }

    /// Node interfaces stream one flit per local port per cycle.
    fn inject_from_ni(&mut self, now: u64) {
        for local in 0..self.locals {
            // Continue an in-progress injection or start a new packet,
            // round-robining across virtual networks so one protocol class
            // cannot starve another at the injection point.
            let li = local as usize;
            let vnets = self.vnets;
            let start = self.ni[li].vnet_rr;
            for k in 0..vnets {
                let v = ((start + k) % vnets) as usize;
                let mut inj = match self.ni[li].cur[v] {
                    Some(inj) if self.vc_full(self.ivc_index(local, inj.vc)) => continue,
                    Some(inj) => inj,
                    None => {
                        // A new packet takes its vnet band's lowest idle, empty VC.
                        let (m, width) = (self.masks[li], self.vcs_per_vnet);
                        let band = ((1u64 << width) - 1) << (v as u32 * width);
                        let free = band & !(m.routed | m.active | m.non_empty);
                        if free == 0 {
                            continue;
                        }
                        let Some(pending) = self.ni[li].queues[v].pop_front() else {
                            continue;
                        };
                        ActiveInjection {
                            vc: free.trailing_zeros(),
                            sent: 0,
                            total: pending.flits,
                            template: Flit {
                                pkt: pending.pkt,
                                dst_router: pending.dst_router,
                                dst_local: pending.dst_local,
                                vnet: v as u8,
                                ..Flit::default()
                            },
                        }
                    }
                };
                let mut flit = inj.template;
                flit.kind = kind_at(inj.sent, inj.total);
                flit.vc = inj.vc as u8;
                self.push_flit(local, inj.vc, flit);
                inj.sent += 1;
                // A queued packet (counted in `ni_work`) stays counted as an
                // active injection until its last flit is streamed.
                if inj.sent == inj.total {
                    self.ni[li].cur[v] = None;
                    self.ni_work -= 1;
                } else {
                    self.ni[li].cur[v] = Some(inj);
                }
                if flit.kind.is_head() {
                    self.net_started.push((flit.pkt, now));
                }
                self.stats.active = true;
                self.ni[li].vnet_rr = (start + k + 1) % vnets;
                break;
            }
        }
    }

    /// Switch allocation + switch traversal: one grant per input port, one
    /// per output port, round-robin priorities, traversal in the same cycle
    /// straight onto the output link, with the freed slot's credit onto the
    /// input's upstream credit link.
    ///
    /// Link faults act at the channel: a dead link carries nothing (flits
    /// and credit returns are lost), and a flaky link drops flits by a coin
    /// flip from the router's own stream, drawn in ascending output-port
    /// order (the grant order).
    ///
    /// The nominations and request masks live on the stack — this is the
    /// per-cycle hot path and it must not allocate.
    fn switch_allocate_and_traverse(&mut self, topo: &TopologyMap, links: &Links<'_>, now: u64) {
        // Stage 1: each occupied input port, ascending, nominates its first
        // VC, round-robin from `sa_vc_ptr`, that is active, holds a flit,
        // and has a downstream credit (ejection needs none); `requests[o]`
        // collects output `o`'s.
        let mut nominee = [0u32; MAX_PORTS as usize];
        let mut requests = [0u32; MAX_PORTS as usize];
        let mut requested = 0u32;
        let mut occupied = self.occupied;
        while occupied != 0 {
            let port = occupied.trailing_zeros();
            occupied &= occupied - 1;
            let m = self.masks[port as usize];
            let start = self.sa_vc_ptr[port as usize];
            let mut ready = (m.active & m.non_empty).rotate_right(start);
            while ready != 0 {
                let vc = (ready.trailing_zeros() + start) & (MAX_VCS - 1);
                ready &= ready - 1;
                let idx = self.ivc_index(port, vc);
                let out_port = u32::from(self.vc_out_port[idx]);
                if out_port >= self.locals
                    && self.ovc_credits[self.ivc_index(out_port, u32::from(self.vc_out_vc[idx]))]
                        == 0
                {
                    continue;
                }
                nominee[port as usize] = vc;
                requests[out_port as usize] |= 1 << port;
                requested |= 1 << out_port;
                break;
            }
        }
        // Stage 2 + traversal, output ports ascending: each grants its first
        // requester round-robin from `sa_port_ptr`. An input port nominated
        // a single output, so grants are independent of one another.
        while requested != 0 {
            let out_port = requested.trailing_zeros();
            requested &= requested - 1;
            let start = self.sa_port_ptr[out_port as usize];
            let rotated = requests[out_port as usize].rotate_right(start);
            let in_port = (rotated.trailing_zeros() + start) & (MAX_PORTS - 1);
            let next = in_port + 1;
            self.sa_port_ptr[out_port as usize] = if next == self.ports { 0 } else { next };
            let vc = nominee[in_port as usize];
            self.sa_vc_ptr[in_port as usize] = if vc + 1 == self.total_vcs { 0 } else { vc + 1 };
            let in_idx = self.ivc_index(in_port, vc);
            let out_vc = u32::from(self.vc_out_vc[in_idx]);
            let Some(mut flit) = self.pop_flit(in_port, vc) else {
                self.poison(format!(
                    "switch traversal from an empty VC on router {} port {in_port} vc {vc}",
                    self.id
                ));
                continue;
            };
            self.stats.buffer_reads += 1;
            self.stats.sa_grants += 1;
            flit.vc = out_vc as u8;
            let is_local_out = out_port < self.locals;
            let out_idx = self.ivc_index(out_port, out_vc);
            if flit.kind.is_tail() {
                self.set_state(in_port, vc, VcState::Idle);
                self.ovc_owner[out_idx] = NONE_IDX;
            }
            if is_local_out {
                if flit.kind.is_tail() {
                    self.delivered.push((flit.pkt, now));
                }
            } else {
                if self.ovc_credits[out_idx] == 0 {
                    self.poison(format!(
                        "switch traversal without a credit on router {} out-port {out_port} \
                         vc {out_vc}",
                        self.id
                    ));
                } else {
                    self.ovc_credits[out_idx] -= 1;
                }
                self.stats.link_flits += 1;
                if self.link_dead(out_port, now) {
                    self.fault_events.flits_dropped_dead += 1;
                } else if self
                    .fault
                    .as_mut()
                    .is_some_and(|f| f.flaky_drop(out_port as usize, now))
                {
                    self.fault_events.flits_dropped_flaky += 1;
                } else {
                    let wire = (self.id * self.ports + out_port) as usize;
                    links.send_flit(wire, now, flit, topo.link_dst(self.id, out_port));
                }
            }
            self.stats.flits_out[out_port as usize] += 1;
            self.stats.active = true;
            // Return a credit upstream (links only; the NI watches buffer
            // occupancy directly).
            if in_port >= self.locals && !self.link_dead(in_port, now) {
                let wire = (self.id * self.ports + in_port) as usize;
                links.send_credit(wire, now, vc as u8, topo.link_src(self.id, in_port));
            }
        }
    }

    /// VC allocation: input VCs in `Routed` state claim a free output VC,
    /// in flat round-robin order from the `(va_port, va_vc)` pointer: that
    /// port's VCs from `va_vc` up, the other ports with a routed VC in turn,
    /// then that port's VCs below `va_vc`. The pointer advances every step,
    /// whether or not anything was routed.
    fn vc_allocate(&mut self) {
        if self.routed_ports != 0 {
            let (first, upper) = (self.va_port, u64::MAX << self.va_vc);
            self.allocate_routed(first, upper);
            // Ports `first + 1..` then `..first`: rotated right by
            // `first + 1`, they are the ascending set bits (as in SA stage 2).
            let mut rest = (self.routed_ports & !(1 << first)).rotate_right(first + 1);
            while rest != 0 {
                let port = (rest.trailing_zeros() + first + 1) & (MAX_PORTS - 1);
                rest &= rest - 1;
                self.allocate_routed(port, u64::MAX);
            }
            self.allocate_routed(first, !upper);
        }
        self.va_vc += 1;
        if self.va_vc == self.total_vcs {
            self.va_vc = 0;
            self.va_port += 1;
            if self.va_port == self.ports {
                self.va_port = 0;
            }
        }
    }

    /// Offers each routed VC of `port` inside `window`, ascending, a free
    /// output VC.
    fn allocate_routed(&mut self, port: u32, window: u64) {
        let mut routed = self.masks[port as usize].routed & window;
        while routed != 0 {
            let vc = routed.trailing_zeros();
            routed &= routed - 1;
            let idx = self.ivc_index(port, vc);
            let Some(head) = self.front(idx) else {
                self.poison(format!(
                    "routed VC lost its head flit on router {} (vc index {idx})",
                    self.id
                ));
                self.set_state(port, vc, VcState::Idle);
                continue;
            };
            debug_assert!(head.kind.is_head());
            let (out_port, vnet) = (u32::from(self.vc_out_port[idx]), u32::from(head.vnet));
            if let Some(out_vc) = self.pick_output_vc(out_port, vnet) {
                let out_idx = self.ivc_index(out_port, out_vc);
                self.ovc_owner[out_idx] = idx as u16;
                self.vc_out_vc[idx] = out_vc as u8;
                self.set_state(port, vc, VcState::Active);
                self.stats.vc_allocs += 1;
            }
        }
    }

    /// Chooses the lowest free output VC in the vnet's band.
    fn pick_output_vc(&self, out_port: u32, vnet: u32) -> Option<u32> {
        let base = vnet * self.vcs_per_vnet;
        (base..base + self.vcs_per_vnet)
            .find(|&vc| self.ovc_owner[self.ivc_index(out_port, vc)] == NONE_IDX)
    }

    /// Route computation for head flits at the front of idle VCs, occupied
    /// ports and VCs ascending.
    fn route_compute(&mut self, topo: &TopologyMap) {
        let mut occupied = self.occupied;
        while occupied != 0 {
            let port = occupied.trailing_zeros();
            occupied &= occupied - 1;
            let m = self.masks[port as usize];
            let mut waiting = m.non_empty & !(m.routed | m.active);
            while waiting != 0 {
                let vc = waiting.trailing_zeros();
                waiting &= waiting - 1;
                let idx = self.ivc_index(port, vc);
                let Some(head) = self.front(idx) else {
                    continue;
                };
                if !head.kind.is_head() {
                    if self.fault.is_some() {
                        // Orphaned body/tail flit whose head was lost on a
                        // flaky link upstream: discard it. Its buffer-slot
                        // credit is not returned — lossy channels degrade
                        // permanently, same as a drop in switch traversal.
                        self.pop_flit(port, vc);
                        self.fault_events.flits_dropped_flaky += 1;
                    } else {
                        self.poison(format!(
                            "idle VC front is not a head flit on router {}, port {port}, vc {vc}",
                            self.id
                        ));
                    }
                    continue;
                }
                let out_port = topo.route(self.id, &head);
                if topo.has_detours() && out_port != topo.route_base(self.id, &head) {
                    // Steered off dimension order to dodge a dead link:
                    // a fault survived by routing.
                    self.fault_events.reroutes += 1;
                }
                self.vc_out_port[idx] = out_port as u8;
                self.set_state(port, vc, VcState::Routed);
            }
        }
    }
}

/// Kind of the `i`-th flit in a packet of `total` flits.
fn kind_at(i: u32, total: u32) -> FlitKind {
    match (i == 0, i + 1 == total) {
        (true, true) => FlitKind::HeadTail,
        (true, false) => FlitKind::Head,
        (false, true) => FlitKind::Tail,
        (false, false) => FlitKind::Body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::flit::flit_kinds;
    use crate::wire::{Arrivals, Wires};

    #[test]
    fn kind_at_matches_flit_kinds_iterator() {
        for total in 1..6 {
            let expect: Vec<_> = flit_kinds(total).collect();
            let got: Vec<_> = (0..total).map(|i| kind_at(i, total)).collect();
            assert_eq!(expect, got, "total {total}");
        }
    }

    /// Wires and arrival words for a router stepped on its own.
    fn links_of(topo: &TopologyMap, cfg: &NocConfig) -> (Wires, Arrivals) {
        let wires = Wires::new(topo.routers(), topo.ports(), cfg.link_latency);
        (wires, Arrivals::new(topo.routers(), cfg.link_latency))
    }

    /// Steps `r` at `now` with nothing arriving.
    fn step(r: &mut Router, topo: &TopologyMap, links: &mut (Wires, Arrivals), now: u64) {
        let (wires, arrivals) = links;
        r.step(topo, &wires.links(now, arrivals, 0..topo.routers(), false), 0, now);
    }

    fn mini_router() -> (Router, TopologyMap, NocConfig) {
        let cfg = NocConfig::new(2, 2).with_vcs_per_vnet(2).with_vc_depth(2);
        let topo = TopologyMap::new(&cfg);
        let r = Router::new(0, &cfg, &topo);
        (r, topo, cfg)
    }

    #[test]
    fn fresh_router_is_quiescent() {
        let (r, _, _) = mini_router();
        assert_eq!(r.buffered_flits(), 0);
        assert_eq!(r.ni_backlog(), 0);
        assert_eq!(r.id(), 0);
        assert!(!r.has_work());
        assert_eq!(r.compute_invocations(), 0);
    }

    #[test]
    fn ni_injects_one_flit_per_cycle() {
        let (mut r, topo, cfg) = mini_router();
        let mut links = links_of(&topo, &cfg);
        r.enqueue_packet(
            0,
            0,
            PendingPacket {
                pkt: 0,
                dst_router: 3,
                dst_local: 0,
                flits: 3,
            },
        );
        assert_eq!(r.ni_backlog(), 1);
        assert!(r.has_work(), "queued packet counts as work");
        step(&mut r, &topo, &mut links, 0);
        assert_eq!(r.buffered_flits(), 1);
        step(&mut r, &topo, &mut links, 1);
        // Cycle 1: NI injects body; head may also have moved to the switch,
        // so the buffer holds at most 2 flits and at least 1.
        assert!(r.buffered_flits() >= 1);
        assert!(r.net_started.len() == 1, "head logged once");
        assert_eq!(r.compute_invocations(), 2);
    }

    #[test]
    fn local_delivery_completes_without_links() {
        // Packet from node 0 to node 0: injected on the local port, routed
        // straight back out of the local port.
        let (mut r, topo, cfg) = mini_router();
        let mut links = links_of(&topo, &cfg);
        r.enqueue_packet(
            0,
            0,
            PendingPacket {
                pkt: 7,
                dst_router: 0,
                dst_local: 0,
                flits: 1,
            },
        );
        let mut delivered_at = None;
        for now in 0..10 {
            step(&mut r, &topo, &mut links, now);
            if let Some(&(pkt, at)) = r.delivered.first() {
                assert_eq!(pkt, 7);
                delivered_at = Some(at);
                break;
            }
        }
        // Inject @0, RC @0, VA @1, ST @2.
        assert_eq!(delivered_at, Some(2));
    }

    #[test]
    fn work_counters_return_to_zero_after_delivery() {
        let (mut r, topo, cfg) = mini_router();
        let mut links = links_of(&topo, &cfg);
        r.enqueue_packet(
            0,
            0,
            PendingPacket {
                pkt: 7,
                dst_router: 0,
                dst_local: 0,
                flits: 2,
            },
        );
        for now in 0..10 {
            step(&mut r, &topo, &mut links, now);
        }
        assert!(!r.delivered.is_empty());
        assert!(!r.has_work(), "delivered router must be gate-able");
        r.audit().unwrap();
    }

    #[test]
    fn gated_wakeup_matches_ungated_va_rotation() {
        // Two identical routers; one is "gated off" for idle cycles, the
        // other stepped every cycle. After the same traffic they must be in
        // the same allocator state — the delivery times of a later packet
        // prove it indirectly.
        let (mut gated, topo, cfg) = mini_router();
        let (mut free, _, _) = mini_router();
        let mut links = links_of(&topo, &cfg);
        let pkt = PendingPacket {
            pkt: 1,
            dst_router: 0,
            dst_local: 0,
            flits: 2,
        };
        // Ungated: step every cycle 0..20, inject at 12.
        for now in 0..12 {
            step(&mut free, &topo, &mut links, now);
        }
        free.enqueue_packet(0, 0, pkt);
        for now in 12..24 {
            step(&mut free, &topo, &mut links, now);
        }
        // Gated: skip the idle prefix entirely.
        gated.enqueue_packet(0, 0, pkt);
        for now in 12..24 {
            step(&mut gated, &topo, &mut links, now);
        }
        assert_eq!(free.delivered, gated.delivered, "gating must not shift timing");
    }

    #[test]
    fn audit_passes_fresh_and_catches_corruption() {
        let (mut r, _, _) = mini_router();
        assert!(r.audit().is_ok());
        assert!(r.take_invariant().is_none());
        let mut drifted = r.clone();
        drifted.debug_corrupt_masks();
        let err = drifted.audit().unwrap_err();
        assert!(
            err.contains("masks disagree"),
            "unexpected audit message: {err}"
        );
        // A stale `occupied` bit on a port with nothing buffered.
        let mut stale = r.clone();
        stale.debug_corrupt_port_masks();
        let err = stale.audit().unwrap_err();
        assert!(
            err.contains("port masks disagree"),
            "unexpected audit message: {err}"
        );
        r.debug_corrupt_credits();
        let err = r.audit().unwrap_err();
        assert!(err.contains("credits"), "unexpected audit message: {err}");
    }

    #[test]
    fn stalled_router_freezes_then_recovers() {
        use crate::fault::FaultPlan;
        let cfg = NocConfig::new(2, 2)
            .with_vcs_per_vnet(2)
            .with_vc_depth(2)
            .with_faults(FaultPlan::new().stall_router(0, 0, 5));
        let topo = TopologyMap::new(&cfg);
        let mut r = Router::new(0, &cfg, &topo);
        let mut links = links_of(&topo, &cfg);
        r.enqueue_packet(
            0,
            0,
            PendingPacket {
                pkt: 0,
                dst_router: 0,
                dst_local: 0,
                flits: 1,
            },
        );
        for now in 0..5 {
            step(&mut r, &topo, &mut links, now);
        }
        assert_eq!(r.buffered_flits(), 0, "stalled router injects nothing");
        assert_eq!(r.take_fault_events().stall_cycles, 5);
        for now in 5..15 {
            step(&mut r, &topo, &mut links, now);
        }
        assert!(!r.delivered.is_empty(), "delivers once the stall lifts");
    }

    #[test]
    fn multi_flit_local_delivery_serializes() {
        let (mut r, topo, cfg) = mini_router();
        let mut links = links_of(&topo, &cfg);
        r.enqueue_packet(
            0,
            0,
            PendingPacket {
                pkt: 1,
                dst_router: 0,
                dst_local: 0,
                flits: 4,
            },
        );
        let mut delivered_at = None;
        for now in 0..20 {
            step(&mut r, &topo, &mut links, now);
            if let Some(&(_, at)) = r.delivered.first() {
                delivered_at = Some(at);
                break;
            }
        }
        // Head: inject@0, RC@0, VA@1, ST@2; tail injected @3 (1 flit/cycle),
        // streams through ST @5 (one per cycle behind the head).
        assert_eq!(delivered_at, Some(5));
    }
}

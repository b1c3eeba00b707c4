//! The assembled full system, generic over the network implementation.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use ra_sim::{Cycle, NetMessage, Network, NodeId, SimError};

use crate::config::FullSysConfig;
use crate::protocol::ProtoMsg;
use crate::stats::FullSysStats;
use crate::tile::{OutMsg, Tile};
use crate::workload::Workload;

/// Cycles without any instruction progress before the watchdog gives up.
const WATCHDOG_CYCLES: u64 = 500_000;

/// How often (in cycles) [`FullSystem::run_until_instructions`] polls the
/// external halt flag. A power of two so the check is a mask, not a
/// division; coarse enough that the atomic load stays off the hot path.
const HALT_POLL_MASK: u64 = 0x1FF;

/// A resumable checkpoint of everything in a [`FullSystem`] *except* the
/// network: tiles (cores, private caches, in-flight protocol transactions),
/// workload cursors (including RNG state), the cycle clock, the payload
/// table, the message-id counter, and accumulated statistics.
///
/// The network is deliberately excluded: in the reciprocal-abstraction
/// coupler the fast path snapshots itself (it is plain `Clone`) and the
/// detailed NoC is never speculated, so a whole-system checkpoint would
/// double-copy state the coupler already owns. Restoring a snapshot and
/// the matching network state rewinds the simulation bit-exactly.
#[derive(Debug, Clone)]
pub struct FullSysSnapshot<W> {
    tiles: Vec<Tile>,
    workload: W,
    now: u64,
    payloads: HashMap<u64, ProtoMsg>,
    next_msg_id: u64,
    stats: FullSysStats,
}

impl<W> FullSysSnapshot<W> {
    /// The cycle the snapshot was taken at.
    pub fn at_cycle(&self) -> u64 {
        self.now
    }
}

/// Why a [`FullSystem::run_slice`] call returned without an error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SliceEnd {
    /// Every core met the instruction goal; payload = cycles elapsed since
    /// the [`RunProgress`] was created by [`FullSystem::begin_run`].
    Done(u64),
    /// The `until` cycle was reached with the goal still outstanding.
    Paused,
}

/// Watchdog and budget bookkeeping carried across [`FullSystem::run_slice`]
/// calls, so a run split into slices behaves exactly like one
/// [`FullSystem::run_until_instructions`] call. `Copy`, so a driver can
/// checkpoint it alongside a [`FullSysSnapshot`] and rewind both.
#[derive(Debug, Clone, Copy)]
pub struct RunProgress {
    start_cycle: u64,
    last_progress_cycle: u64,
    last_progress_instr: u64,
}

/// The coarse-grain full-system simulator: a grid of tiles exchanging
/// coherence-protocol messages over any [`Network`] implementation.
///
/// Being generic over `N` is the crux of the co-simulation methodology:
/// the *same* full system runs against an abstract latency model, the
/// cycle-level NoC, or the reciprocal-abstraction coupler, so accuracy
/// differences are attributable purely to the network abstraction.
///
/// # Example
///
/// ```
/// use ra_fullsys::{FullSysConfig, FullSystem};
/// use ra_fullsys::workload::{SyntheticParams, SyntheticWorkload};
/// use ra_netmodel::{AbstractNetwork, HopLatency, HopMetric};
///
/// let cfg = FullSysConfig::new(4, 4);
/// let net = AbstractNetwork::new(
///     HopLatency::default(),
///     HopMetric::Mesh(cfg.shape),
///     16,
/// );
/// let workload = SyntheticWorkload::new(cfg.tiles(), SyntheticParams::default(), 1);
/// let mut sys = FullSystem::new(cfg, net, workload)?;
/// sys.run_cycles(2_000);
/// assert!(sys.stats().tiles.instructions > 0);
/// # Ok::<(), ra_sim::ConfigError>(())
/// ```
#[derive(Debug)]
pub struct FullSystem<N, W> {
    cfg: FullSysConfig,
    tiles: Vec<Tile>,
    net: N,
    workload: W,
    now: u64,
    payloads: HashMap<u64, ProtoMsg>,
    next_msg_id: u64,
    out: Vec<OutMsg>,
    stats: FullSysStats,
    /// Per tile, the next cycle in which it can act (see the `tile`
    /// module); [`FullSystem::step`] skips the tile until then.
    wake: Vec<u64>,
    /// Instructions retired by all tiles, kept up to date as they retire.
    retired: u64,
    /// External stop request, polled by the run-loop watchdog (see
    /// [`FullSystem::set_halt_flag`]). `None` costs nothing.
    halt: Option<Arc<AtomicBool>>,
}

impl<N: Network, W: Workload> FullSystem<N, W> {
    /// Builds a system over `net` running `workload`.
    ///
    /// # Errors
    ///
    /// Returns the configuration's validation error if it is inconsistent.
    pub fn new(cfg: FullSysConfig, net: N, workload: W) -> Result<Self, ra_sim::ConfigError> {
        cfg.validate()?;
        let tiles = (0..cfg.tiles() as u16).map(|id| Tile::new(id, &cfg)).collect();
        Ok(FullSystem {
            wake: vec![0; cfg.tiles()],
            retired: 0,
            cfg,
            tiles,
            net,
            workload,
            now: 0,
            payloads: HashMap::new(),
            next_msg_id: 0,
            out: Vec::new(),
            stats: FullSysStats::default(),
            halt: None,
        })
    }

    /// Arms an external halt flag: while `run_until_instructions` is
    /// driving the system, another thread setting the flag makes the run
    /// return [`SimError::Cancelled`] at the next poll boundary (within
    /// [`HALT_POLL_MASK`] + 1 cycles). This is the cancellation hook the
    /// job service uses; it shares the run loop's existing watchdog
    /// plumbing rather than tearing threads down.
    pub fn set_halt_flag(&mut self, halt: Arc<AtomicBool>) {
        self.halt = Some(halt);
    }

    /// The configuration in use.
    pub fn config(&self) -> &FullSysConfig {
        &self.cfg
    }

    /// The current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The underlying network.
    pub fn network(&self) -> &N {
        &self.net
    }

    /// Mutable access to the underlying network (calibration hooks).
    pub fn network_mut(&mut self) -> &mut N {
        &mut self.net
    }

    /// The workload driving the cores.
    pub fn workload(&self) -> &W {
        &self.workload
    }

    /// A snapshot of aggregate statistics (tile counters are folded in on
    /// demand).
    pub fn stats(&self) -> FullSysStats {
        let mut stats = self.stats.clone();
        stats.tiles = Default::default();
        for tile in &self.tiles {
            stats.tiles.absorb(&tile.stats);
        }
        stats
    }

    /// Total instructions retired so far (a running total: O(1)).
    pub fn instructions(&self) -> u64 {
        self.retired
    }

    /// Per-core retired instruction counts.
    pub fn instructions_per_core(&self) -> Vec<u64> {
        self.tiles.iter().map(|t| t.stats.instructions).collect()
    }

    /// Protocol messages still in flight (network plus payload table).
    pub fn messages_in_flight(&self) -> usize {
        self.net.in_flight()
    }

    /// Executes one cycle. A tile is stepped only from its next wake on (see
    /// the `tile` module): before that, stepping it would change nothing. A
    /// delivery pulls the wake forward to when the message is processable.
    /// Ready cores always step, so tile order and workload calls are as if
    /// every tile were visited every cycle.
    pub fn step(&mut self) {
        let now = self.now;
        // Deliver messages the network completed.
        for d in self.net.drain_delivered(Cycle(now)) {
            let proto = self
                .payloads
                .remove(&d.msg.id)
                .expect("delivery without payload");
            let src = d.msg.src.0 as u16;
            let dst = d.msg.dst.index();
            let due = self.tiles[dst].deliver(proto, src, now);
            self.wake[dst] = self.wake[dst].min(due);
        }
        // Advance every tile that can act; collect outgoing messages.
        let tiles = &mut self.tiles;
        let workload = &mut self.workload;
        let out = &mut self.out;
        let net = &mut self.net;
        let payloads = &mut self.payloads;
        let stats = &mut self.stats;
        let cfg = &self.cfg;
        let next_msg_id = &mut self.next_msg_id;
        let retired = &mut self.retired;
        for (tile, wake) in tiles.iter_mut().zip(self.wake.iter_mut()) {
            if *wake > now {
                continue;
            }
            let before = tile.stats.instructions;
            tile.cycle(now, workload, out);
            *retired += tile.stats.instructions - before;
            *wake = tile.next_wake(now + 1);
            let src = NodeId(u32::from(tile.id()));
            for (dst, proto) in out.drain(..) {
                let class = proto.kind.class();
                let size = if proto.kind.carries_data() {
                    cfg.data_bytes
                } else {
                    cfg.ctrl_bytes
                };
                let id = *next_msg_id;
                *next_msg_id += 1;
                payloads.insert(id, proto);
                stats.messages_by_class[class.vnet()] += 1;
                net.inject(
                    NetMessage::new(id, src, NodeId(u32::from(dst)), class, size),
                    Cycle(now),
                );
            }
        }
        // Let the network simulate this cycle.
        self.net.tick(Cycle(now));
        self.stats.cycles += 1;
        self.now += 1;
    }

    /// Runs exactly `cycles` cycles.
    pub fn run_cycles(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.step();
        }
    }

    /// Runs until every core has retired at least `per_core` instructions.
    ///
    /// Returns the number of cycles elapsed (the *target execution time* —
    /// the quantity figure F4 compares across network abstractions).
    ///
    /// # Errors
    ///
    /// * [`SimError::Timeout`] if `budget` cycles pass first;
    /// * [`SimError::Invariant`] if no instruction retires for a prolonged
    ///   period (protocol deadlock).
    pub fn run_until_instructions(&mut self, per_core: u64, budget: u64) -> Result<u64, SimError> {
        let mut progress = self.begin_run();
        match self.run_slice(per_core, budget, u64::MAX, &mut progress)? {
            SliceEnd::Done(cycles) => Ok(cycles),
            SliceEnd::Paused => unreachable!("cycle counter reached u64::MAX"),
        }
    }

    /// Starts the bookkeeping for a sliced run (see [`FullSystem::run_slice`]).
    pub fn begin_run(&self) -> RunProgress {
        RunProgress {
            start_cycle: self.now,
            last_progress_cycle: self.now,
            last_progress_instr: self.instructions(),
        }
    }

    /// Runs like [`FullSystem::run_until_instructions`] but pauses (without
    /// error) as soon as `self.now() >= until`, carrying watchdog state in
    /// `progress` so a sequence of slices is check-for-check identical to
    /// one uninterrupted run. The speculative-pipelining driver uses this
    /// to stop at quantum boundaries, checkpoint, and resume or rewind.
    ///
    /// # Errors
    ///
    /// Exactly those of [`FullSystem::run_until_instructions`].
    pub fn run_slice(
        &mut self,
        per_core: u64,
        budget: u64,
        until: u64,
        progress: &mut RunProgress,
    ) -> Result<SliceEnd, SimError> {
        // Per-core counts only grow, so the goal can only become met in a
        // cycle that moved the total.
        let mut checked = None;
        loop {
            if self.now >= until {
                return Ok(SliceEnd::Paused);
            }
            if checked != Some(self.retired) {
                checked = Some(self.retired);
                if self.tiles.iter().all(|t| t.stats.instructions >= per_core) {
                    return Ok(SliceEnd::Done(self.now - progress.start_cycle));
                }
            }
            if self.now - progress.start_cycle > budget {
                return Err(SimError::Timeout {
                    budget,
                    waiting_for: format!("{per_core} instructions per core"),
                });
            }
            if self.now & HALT_POLL_MASK == 0 {
                if let Some(halt) = &self.halt {
                    if halt.load(Ordering::Relaxed) {
                        return Err(SimError::Cancelled { at_cycle: self.now });
                    }
                }
            }
            let instr = self.instructions();
            if instr > progress.last_progress_instr {
                progress.last_progress_cycle = self.now;
                progress.last_progress_instr = instr;
            } else if self.now - progress.last_progress_cycle > WATCHDOG_CYCLES {
                return Err(SimError::Invariant(format!(
                    "no instruction progress for {WATCHDOG_CYCLES} cycles \
                     ({} messages in flight)",
                    self.net.in_flight()
                )));
            }
            self.step();
        }
    }

    /// Audits the clock gating: every tile's cached wake is no later than
    /// its state demands, a parked store buffer's head has its miss
    /// outstanding, and the running instruction total is the per-tile sum.
    ///
    /// # Errors
    ///
    /// [`SimError::Invariant`] naming the first violated invariant.
    pub fn audit(&self) -> Result<(), SimError> {
        let sum: u64 = self.tiles.iter().map(|t| t.stats.instructions).sum();
        if sum != self.retired {
            let msg = format!("instruction total {} != per-tile sum {sum}", self.retired);
            return Err(SimError::Invariant(msg));
        }
        for (tile, &wake) in self.tiles.iter().zip(&self.wake) {
            tile.audit(wake, self.now)
                .map_err(|msg| SimError::Invariant(format!("tile {}: {msg}", tile.id())))?;
        }
        Ok(())
    }

    /// Test hook: puts `tile` to sleep for good, whatever it has pending,
    /// so the next audit fails if the tile could still act.
    #[doc(hidden)]
    pub fn debug_oversleep(&mut self, tile: usize) {
        self.wake[tile] = u64::MAX;
    }

    /// Decomposes the system, returning the network (e.g. to read final
    /// statistics from a cycle-level NoC).
    pub fn into_network(self) -> N {
        self.net
    }
}

impl<N: Network, W: Workload + Clone> FullSystem<N, W> {
    /// Checkpoints everything except the network (see [`FullSysSnapshot`]).
    ///
    /// Taken between [`FullSystem::step`]s, where the outgoing-message
    /// scratch buffer is empty by construction.
    pub fn snapshot(&self) -> FullSysSnapshot<W> {
        FullSysSnapshot {
            tiles: self.tiles.clone(),
            workload: self.workload.clone(),
            now: self.now,
            payloads: self.payloads.clone(),
            next_msg_id: self.next_msg_id,
            stats: self.stats.clone(),
        }
    }

    /// Rewinds to `snap`. The network and halt flag are untouched — the
    /// caller restores the network to the matching cycle itself. Every
    /// tile wakes in the next step: stepping an idle tile is a no-op.
    pub fn restore(&mut self, snap: &FullSysSnapshot<W>) {
        self.tiles.clone_from(&snap.tiles);
        self.workload = snap.workload.clone();
        self.now = snap.now;
        self.payloads.clone_from(&snap.payloads);
        self.next_msg_id = snap.next_msg_id;
        self.stats = snap.stats.clone();
        self.out.clear();
        self.wake.fill(0);
        self.retired = self.tiles.iter().map(|t| t.stats.instructions).sum();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Op, ScriptedWorkload, SyntheticParams, SyntheticWorkload};
    use ra_netmodel::{AbstractNetwork, FixedLatency, HopLatency, HopMetric};
    use ra_noc::{NocConfig, NocNetwork};

    fn hop_net(cfg: &FullSysConfig) -> AbstractNetwork<HopLatency> {
        AbstractNetwork::new(HopLatency::default(), HopMetric::Mesh(cfg.shape), 16)
    }

    /// Runs `sys` one cycle per [`FullSystem::run_slice`] call (check for
    /// check the same as one run) and audits the gating after every step.
    /// Stops when every core has retired `per_core` instructions, returning
    /// the cycles taken, or after `cycles` cycles, returning `None`.
    fn run_audited<N: Network, W: Workload>(
        sys: &mut FullSystem<N, W>,
        per_core: u64,
        budget: u64,
        cycles: u64,
    ) -> Result<Option<u64>, SimError> {
        let mut progress = sys.begin_run();
        let end = sys.now().saturating_add(cycles);
        while sys.now() < end {
            let until = sys.now() + 1;
            if let SliceEnd::Done(c) = sys.run_slice(per_core, budget, until, &mut progress)? {
                return Ok(Some(c));
            }
            sys.audit()?;
        }
        Ok(None)
    }

    /// [`FullSystem::run_until_instructions`], audited.
    fn run_until<N: Network, W: Workload>(
        sys: &mut FullSystem<N, W>,
        per_core: u64,
        budget: u64,
    ) -> Result<u64, SimError> {
        run_audited(sys, per_core, budget, u64::MAX).map(|c| c.expect("runs to the goal"))
    }

    /// [`FullSystem::run_cycles`], audited.
    fn run_for<N: Network, W: Workload>(sys: &mut FullSystem<N, W>, cycles: u64) {
        run_audited(sys, u64::MAX, u64::MAX, cycles).unwrap();
    }

    #[test]
    fn cores_make_progress_on_abstract_network() {
        let cfg = FullSysConfig::new(4, 4);
        let net = hop_net(&cfg);
        let w = SyntheticWorkload::new(cfg.tiles(), SyntheticParams::default(), 1);
        let mut sys = FullSystem::new(cfg, net, w).unwrap();
        let cycles = run_until(&mut sys, 200, 200_000).unwrap();
        assert!(cycles > 0);
        let stats = sys.stats();
        assert!(stats.tiles.instructions >= 200 * 16);
        assert!(stats.total_messages() > 0, "misses must generate traffic");
        assert!(stats.tiles.miss_latency.count() > 0);
    }

    #[test]
    fn pre_set_halt_flag_cancels_the_run_promptly() {
        let cfg = FullSysConfig::new(4, 4);
        let net = hop_net(&cfg);
        let w = SyntheticWorkload::new(cfg.tiles(), SyntheticParams::default(), 1);
        let mut sys = FullSystem::new(cfg, net, w).unwrap();
        let halt = Arc::new(AtomicBool::new(true));
        sys.set_halt_flag(halt);
        match run_until(&mut sys, 1_000_000, 10_000_000) {
            Err(SimError::Cancelled { at_cycle }) => {
                assert!(at_cycle <= HALT_POLL_MASK + 1, "must stop at first poll");
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn unarmed_halt_flag_changes_nothing() {
        let cfg = FullSysConfig::new(4, 4);
        let run = |armed: bool| {
            let cfg = cfg.clone();
            let net = hop_net(&cfg);
            let w = SyntheticWorkload::new(cfg.tiles(), SyntheticParams::default(), 1);
            let mut sys = FullSystem::new(cfg, net, w).unwrap();
            if armed {
                sys.set_halt_flag(Arc::new(AtomicBool::new(false)));
            }
            run_until(&mut sys, 100, 200_000).unwrap()
        };
        assert_eq!(run(false), run(true), "an unset flag must not perturb");
    }

    #[test]
    fn cores_make_progress_on_cycle_level_noc() {
        let cfg = FullSysConfig::new(4, 4);
        let net = NocNetwork::new(NocConfig::new(4, 4)).unwrap();
        let w = SyntheticWorkload::new(cfg.tiles(), SyntheticParams::default(), 1);
        let mut sys = FullSystem::new(cfg, net, w).unwrap();
        let cycles = run_until(&mut sys, 100, 400_000).unwrap();
        assert!(cycles > 0);
        let noc = sys.into_network();
        assert!(noc.stats().delivered > 0);
        assert_eq!(
            noc.stats().injected - noc.stats().delivered,
            noc.in_flight() as u64
        );
    }

    #[test]
    fn network_latency_slows_execution() {
        // The same workload on a slower network must take longer: the
        // timing feedback loop the co-simulation methodology relies on.
        fn runtime(latency: u64) -> u64 {
            let cfg = FullSysConfig::new(4, 4);
            let net = AbstractNetwork::new(
                FixedLatency::new(latency),
                HopMetric::Mesh(cfg.shape),
                16,
            );
            let w = SyntheticWorkload::new(cfg.tiles(), SyntheticParams::default(), 1);
            let mut sys = FullSystem::new(cfg, net, w).unwrap();
            run_until(&mut sys, 200, 1_000_000).unwrap()
        }
        let fast = runtime(5);
        let slow = runtime(50);
        assert!(
            slow as f64 > fast as f64 * 1.2,
            "network latency must throttle the cores (fast {fast}, slow {slow})"
        );
    }

    #[test]
    fn scripted_single_load_round_trip() {
        let cfg = FullSysConfig::new(2, 2);
        let net = hop_net(&cfg);
        let mut scripts = vec![vec![]; 4];
        scripts[1] = vec![Op::Load(0)];
        let w = ScriptedWorkload::new(scripts);
        let mut sys = FullSystem::new(cfg, net, w).unwrap();
        run_for(&mut sys, 500);
        let stats = sys.stats();
        assert_eq!(stats.tiles.loads, 1);
        assert_eq!(stats.tiles.l1_misses, 1);
        // GetS + MemRead requests, MemData + DataS responses.
        assert!(stats.messages_by_class[0] >= 2);
        assert!(stats.messages_by_class[1] >= 2);
    }

    #[test]
    fn sharing_generates_coherence_traffic() {
        let cfg = FullSysConfig::new(2, 2);
        let net = hop_net(&cfg);
        // All four cores hammer the same line with stores.
        let scripts = (0..4)
            .map(|_| vec![Op::Store(0), Op::Compute(50), Op::Store(0), Op::Compute(50), Op::Store(0)])
            .collect();
        let w = ScriptedWorkload::new(scripts);
        let mut sys = FullSystem::new(cfg, net, w).unwrap();
        run_for(&mut sys, 3_000);
        let stats = sys.stats();
        assert!(
            stats.messages_by_class[ra_sim::MessageClass::Coherence.vnet()] > 0,
            "contended stores must produce invalidations/forwards"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        fn run() -> (u64, u64) {
            let cfg = FullSysConfig::new(4, 4);
            let net = hop_net(&cfg);
            let w = SyntheticWorkload::new(cfg.tiles(), SyntheticParams::default(), 9);
            let mut sys = FullSystem::new(cfg, net, w).unwrap();
            run_for(&mut sys, 5_000);
            let s = sys.stats();
            (s.tiles.instructions, s.total_messages())
        }
        assert_eq!(run(), run());
    }

    #[test]
    fn snapshot_restore_rewinds_bit_exactly() {
        let cfg = FullSysConfig::new(4, 4);
        let net = hop_net(&cfg);
        let w = SyntheticWorkload::new(cfg.tiles(), SyntheticParams::default(), 7);
        let mut sys = FullSystem::new(cfg, net, w).unwrap();
        run_for(&mut sys, 1_000);
        let snap = sys.snapshot();
        let net_snap = sys.network().clone();
        run_for(&mut sys, 2_000);
        let s = sys.stats();
        let first = (sys.now(), sys.instructions(), s.total_messages(), s.cycles);
        sys.restore(&snap);
        *sys.network_mut() = net_snap;
        sys.audit().unwrap();
        assert_eq!(sys.now(), snap.at_cycle());
        run_for(&mut sys, 2_000);
        let s = sys.stats();
        let second = (sys.now(), sys.instructions(), s.total_messages(), s.cycles);
        assert_eq!(first, second, "restored run must replay bit-exactly");
    }

    #[test]
    fn sliced_run_matches_monolithic_run() {
        let build = || {
            let cfg = FullSysConfig::new(4, 4);
            let net = hop_net(&cfg);
            let w = SyntheticWorkload::new(cfg.tiles(), SyntheticParams::default(), 3);
            FullSystem::new(cfg, net, w).unwrap()
        };
        let mut mono = build();
        let cycles = mono.run_until_instructions(300, 400_000).unwrap();
        let mut sliced = build();
        let mut progress = sliced.begin_run();
        let mut pauses = 0u64;
        let elapsed = loop {
            let until = sliced.now() + 777;
            match sliced.run_slice(300, 400_000, until, &mut progress).unwrap() {
                SliceEnd::Done(c) => break c,
                SliceEnd::Paused => {
                    sliced.audit().unwrap();
                    assert_eq!(sliced.now(), until);
                    pauses += 1;
                }
            }
        };
        assert!(pauses > 0, "the slice width must actually pause the run");
        assert_eq!(elapsed, cycles);
        assert_eq!(mono.instructions(), sliced.instructions());
        assert_eq!(
            mono.stats().total_messages(),
            sliced.stats().total_messages()
        );
    }

    #[test]
    fn watchdog_times_out_on_tiny_budget() {
        let cfg = FullSysConfig::new(4, 4);
        let net = hop_net(&cfg);
        let w = SyntheticWorkload::new(cfg.tiles(), SyntheticParams::default(), 1);
        let mut sys = FullSystem::new(cfg, net, w).unwrap();
        let err = run_until(&mut sys, u64::MAX, 100).unwrap_err();
        assert!(matches!(err, SimError::Timeout { .. }));
    }

    #[test]
    fn a_slice_that_starts_with_the_goal_met_is_done_at_once() {
        let cfg = FullSysConfig::new(4, 4);
        let net = hop_net(&cfg);
        let w = SyntheticWorkload::new(cfg.tiles(), SyntheticParams::default(), 1);
        let mut sys = FullSystem::new(cfg, net, w).unwrap();
        run_until(&mut sys, 100, 200_000).unwrap();
        let now = sys.now();
        let mut progress = sys.begin_run();
        let end = sys.run_slice(100, 200_000, now + 50, &mut progress).unwrap();
        assert_eq!(end, SliceEnd::Done(0));
        assert_eq!(sys.now(), now, "a met goal must not step");
    }

    /// Stepping only the tiles that can act is exact: waking every tile
    /// before every step ends the run bit for bit the same. A one-entry
    /// store buffer drives the parked-buffer and stalled-store paths, an
    /// eight-entry one drains several stores back to back.
    #[test]
    fn gated_steps_match_stepping_every_tile() {
        let run = |store_buffer: u32, gated: bool| {
            let mut cfg = FullSysConfig::new(4, 4);
            cfg.store_buffer = store_buffer;
            let net = hop_net(&cfg);
            let w = SyntheticWorkload::new(cfg.tiles(), SyntheticParams::default(), 5);
            let mut sys = FullSystem::new(cfg, net, w).unwrap();
            let mut skipped = 0;
            for _ in 0..4_000 {
                if !gated {
                    sys.wake.fill(0);
                }
                skipped += sys.wake.iter().filter(|&&at| at > sys.now).count();
                sys.step();
                sys.audit().unwrap();
            }
            (format!("{:?}", sys.stats()), sys.instructions_per_core(), skipped)
        };
        for store_buffer in [1, 8] {
            let (gated, every) = (run(store_buffer, true), run(store_buffer, false));
            assert!(gated.2 > 0, "gating must skip some tile steps");
            assert_eq!(every.2, 0);
            assert_eq!((gated.0, gated.1), (every.0, every.1), "store buffer {store_buffer}");
        }
    }
}

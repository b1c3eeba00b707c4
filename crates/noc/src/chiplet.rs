//! Hierarchical multi-die (chiplet) networks.
//!
//! A [`ChipletNetwork`] composes N independent NoC **islands** (each a
//! full [`NocNetwork`] with its own clock-gated router grid, seed and
//! fault plan) behind an **interposer**: a point-to-point link model with
//! its own latency/bandwidth class ([`InterposerClass`]). Routing is
//! hierarchical:
//!
//! * **intra-island** traffic takes today's detailed router path,
//!   bit-identical to a standalone single-die network of the same
//!   configuration and seed;
//! * **cross-island** traffic is split into two detailed legs joined by
//!   the analytical interposer hop: source node → island gateway
//!   (local node 0), then `serialization + latency` cycles on the
//!   island-pair link (busy links delay departure — the link model keeps
//!   a next-free cycle per ordered island pair), then gateway →
//!   destination node inside the destination island. The second leg is
//!   injected at a *future* cycle, which the island accepts natively
//!   (the same mechanism quantum-based co-simulation uses).
//!
//! Islands advance in lockstep batches bounded by the interposer latency,
//! so a handoff can never land in an island's past; handoffs are applied
//! in `(cycle, island)` order, which keeps the whole system deterministic
//! for any per-island execution engine (the engines themselves are
//! bit-identical serial vs. parallel).
//!
//! Hop distances are banded so the calibrated model can fit cross-die and
//! on-die traffic separately: intra-island distances occupy `[0, D]`
//! (D = island diameter) and cross-island distances `[D+1, 3D+1]`, so no
//! cell ever mixes the two populations.
//!
//! A configuration without a [`ChipletSpec`] is the one-island case: a
//! single die, with no interposer, whose every call reaches that die
//! unchanged (same seed, same fault plan, any topology).

use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;

use ra_obs::ObsSink;
use ra_sim::{ConfigError, Cycle, Delivery, NetMessage, Network, NodeId, SimError};

use crate::config::NocConfig;
use crate::fault::FaultPlan;
use crate::network::{NocNetwork, NocWindowSnapshot};
use crate::stats::NocStats;

/// Named latency/bandwidth class of the interposer joining the islands.
///
/// The presets follow the usual packaging tiers: a passive **silicon**
/// interposer (dense microbumps, wide parallel links), an **organic**
/// substrate (cheap, narrow, slow), and an **active** interposer
/// (buffered links between the two). The class fixes the per-hop link
/// latency and the bytes serialized per cycle; contention on top of that
/// is modeled per ordered island pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InterposerClass {
    /// Passive silicon interposer: 4-cycle links, 32 bytes/cycle.
    Silicon,
    /// Organic package substrate: 16-cycle links, 8 bytes/cycle.
    Organic,
    /// Active interposer: 8-cycle links, 16 bytes/cycle.
    Active,
}

impl InterposerClass {
    /// Every named class, in vocabulary order.
    pub const ALL: [InterposerClass; 3] = [
        InterposerClass::Silicon,
        InterposerClass::Organic,
        InterposerClass::Active,
    ];

    /// Link traversal latency in cycles (always >= 1).
    pub fn latency(self) -> u64 {
        match self {
            InterposerClass::Silicon => 4,
            InterposerClass::Organic => 16,
            InterposerClass::Active => 8,
        }
    }

    /// Bytes an island-pair link serializes per cycle.
    pub fn bytes_per_cycle(self) -> u64 {
        match self {
            InterposerClass::Silicon => 32,
            InterposerClass::Organic => 8,
            InterposerClass::Active => 16,
        }
    }

    /// Stable lower-case vocabulary name.
    pub fn name(self) -> &'static str {
        match self {
            InterposerClass::Silicon => "silicon",
            InterposerClass::Organic => "organic",
            InterposerClass::Active => "active",
        }
    }
}

impl fmt::Display for InterposerClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for InterposerClass {
    type Err = ConfigError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        InterposerClass::ALL
            .into_iter()
            .find(|c| c.name() == s)
            .ok_or_else(|| {
                ConfigError::new(format!(
                    "unknown interposer class {s:?} (expected silicon, organic, or active)"
                ))
            })
    }
}

/// Chiplet extension of a [`NocConfig`]: replicate the base single-die
/// configuration into `islands` independent dies joined by an interposer.
///
/// Installed via [`NocConfig::with_chiplet`]; a config carrying a spec is
/// built with [`ChipletNetwork::new`] — [`NocNetwork::new`] rejects it.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipletSpec {
    /// Number of islands (>= 2).
    pub islands: u32,
    /// Latency/bandwidth class of the interposer links.
    pub interposer: InterposerClass,
    /// Per-island fault scripts: empty (fault-free) or exactly one plan
    /// per island. The base config's own fault plan must stay empty — on
    /// a multi-die system faults are a per-die property.
    pub island_faults: Vec<FaultPlan>,
}

impl ChipletSpec {
    /// Creates a fault-free spec.
    pub fn new(islands: u32, interposer: InterposerClass) -> Self {
        ChipletSpec {
            islands,
            interposer,
            island_faults: Vec::new(),
        }
    }

    /// Installs per-island fault scripts (one per island).
    #[must_use]
    pub fn with_island_faults(mut self, plans: Vec<FaultPlan>) -> Self {
        self.island_faults = plans;
        self
    }

    /// Validates the spec against its base configuration.
    pub(crate) fn validate(&self, base: &NocConfig) -> Result<(), ConfigError> {
        if self.islands < 2 {
            return Err(ConfigError::new(format!(
                "a chiplet system needs at least 2 islands, got {}",
                self.islands
            )));
        }
        if !matches!(base.topology, crate::config::TopologyKind::Mesh) {
            return Err(ConfigError::new(
                "chiplet islands currently support only the Mesh base topology",
            ));
        }
        if !base.faults.is_empty() {
            return Err(ConfigError::new(
                "chiplet configs script faults per island (ChipletSpec::with_island_faults), \
                 not on the base config",
            ));
        }
        if !self.island_faults.is_empty() && self.island_faults.len() != self.islands as usize {
            return Err(ConfigError::new(format!(
                "island_faults must be empty or hold exactly {} plans, got {}",
                self.islands,
                self.island_faults.len()
            )));
        }
        for (i, plan) in self.island_faults.iter().enumerate() {
            plan.validate()
                .map_err(|e| ConfigError::new(format!("island {i}: {e}")))?;
            plan.validate_routers(base.routers())
                .map_err(|e| ConfigError::new(format!("island {i}: {e}")))?;
        }
        Ok(())
    }
}

/// What the interposer did to cross-island traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InterposerStats {
    /// Cross-island messages accepted by [`ChipletNetwork::inject`].
    pub cross_injected: u64,
    /// Messages that completed the interposer hop (second leg scheduled).
    pub crossings: u64,
    /// Cross-island messages delivered end to end.
    pub cross_delivered: u64,
    /// Total cycles spent serializing payloads onto island-pair links.
    pub serialization_cycles: u64,
    /// Total cycles departures were delayed behind a busy link — the
    /// interposer's contention signal.
    pub contention_cycles: u64,
}

/// A cross-island message in flight: the original (globally addressed)
/// message plus which phase of the two-leg journey it is in.
#[derive(Debug, Clone, Copy)]
struct Crossing {
    orig: NetMessage,
    src_island: u32,
    dst_island: u32,
    /// False while the first (source-side) leg is in flight, true once
    /// the interposer hop has scheduled the second leg.
    on_second_leg: bool,
}

/// Per-window counter baselines for every island (the chiplet analogue of
/// [`NocWindowSnapshot`]).
#[derive(Debug, Clone)]
pub struct ChipletWindowSnapshot {
    islands: Vec<NocWindowSnapshot>,
}

/// The hierarchical multi-die network, or a single die as its one-island
/// case. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct ChipletNetwork {
    /// The full configuration, `chiplet` included (kept verbatim so a
    /// supervisor can rebuild the network after a trip).
    cfg: NocConfig,
    islands: Vec<NocNetwork>,
    island_nodes: u32,
    /// Mesh diameter of one island (the intra/cross hop-band split).
    island_diameter: usize,
    /// Cross-island messages in flight, keyed by message id.
    crossing: HashMap<u64, Crossing>,
    /// Next free cycle of each ordered island-pair link, row-major
    /// `src_island * islands + dst_island`.
    next_free: Vec<u64>,
    /// Finished (globally addressed) deliveries awaiting drain.
    delivered_out: Vec<Delivery>,
    interposer: InterposerStats,
    /// Scratch: `(cycle, island, message)` island deliveries of one batch.
    pending_scratch: Vec<(u64, u32, NetMessage)>,
}

impl ChipletNetwork {
    /// Builds the detailed network a configuration asks for.
    ///
    /// With a [`ChipletSpec`], every island replicates the base
    /// configuration with a per-island-decorrelated seed (and its own
    /// fault plan, if any); island `i` owns the global node ids
    /// `[i * nodes_per_island, (i + 1) * nodes_per_island)`. Without one,
    /// the single island is exactly `NocNetwork::new(cfg)`.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the base configuration is invalid or
    /// the spec fails [`ChipletSpec`] validation.
    pub fn new(cfg: NocConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let islands = match &cfg.chiplet {
            None => vec![NocNetwork::new(cfg.clone())?],
            Some(spec) => (0..spec.islands)
                .map(|i| {
                    let mut island_cfg = cfg.clone();
                    island_cfg.chiplet = None;
                    // Decorrelate island-local randomness (flaky-link coin
                    // flips) the same way the workloads decorrelate
                    // per-core streams.
                    island_cfg.seed =
                        cfg.seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(i) + 1);
                    if let Some(plan) = spec.island_faults.get(i as usize) {
                        island_cfg.faults = plan.clone();
                    }
                    let mut island = NocNetwork::new(island_cfg)?;
                    island.set_island_tag(u64::from(i));
                    Ok(island)
                })
                .collect::<Result<Vec<_>, ConfigError>>()?,
        };
        let island_nodes = cfg.shape.nodes() as u32;
        let island_diameter = islands[0].topology().diameter();
        let links = islands.len() * islands.len();
        Ok(ChipletNetwork {
            cfg,
            islands,
            island_nodes,
            island_diameter,
            crossing: HashMap::new(),
            next_free: vec![0; links],
            delivered_out: Vec::new(),
            interposer: InterposerStats::default(),
            pending_scratch: Vec::new(),
        })
    }

    /// The full configuration (with the chiplet spec, if any).
    pub fn config(&self) -> &NocConfig {
        &self.cfg
    }

    /// The chiplet spec; `None` on a single die.
    pub fn spec(&self) -> Option<&ChipletSpec> {
        self.cfg.chiplet.as_ref()
    }

    /// The islands, in id order (island `i` owns global nodes
    /// `[i * nodes_per_island, (i + 1) * nodes_per_island)`).
    pub fn islands(&self) -> &[NocNetwork] {
        &self.islands
    }

    /// Nodes per island.
    pub fn nodes_per_island(&self) -> u32 {
        self.island_nodes
    }

    /// Total nodes across all islands.
    pub fn nodes(&self) -> u32 {
        self.island_nodes * self.islands.len() as u32
    }

    /// Interposer counters.
    pub fn interposer_stats(&self) -> InterposerStats {
        self.interposer
    }

    /// Splits a global node id into `(island, local node)`.
    ///
    /// # Panics
    ///
    /// Panics if the id is outside the system.
    #[inline]
    pub fn split(&self, node: NodeId) -> (u32, NodeId) {
        let island = node.0 / self.island_nodes;
        assert!(
            (island as usize) < self.islands.len(),
            "node {node} outside {} islands of {} nodes",
            self.islands.len(),
            self.island_nodes
        );
        (island, NodeId(node.0 % self.island_nodes))
    }

    /// Hierarchical hop distance between two global nodes.
    ///
    /// Intra-island pairs use the island's own metric and land in
    /// `[0, D]`; cross-island pairs count both detailed legs through the
    /// gateways plus one interposer hop, offset into `[D+1, 3D+1]` so the
    /// two traffic populations never share a latency-table cell.
    pub fn hops(&self, src: NodeId, dst: NodeId) -> usize {
        let (si, sl) = self.split(src);
        let (di, dl) = self.split(dst);
        let topo = self.islands[0].topology();
        if si == di {
            topo.hops(sl, dl)
        } else {
            let gw = NodeId(0);
            self.island_diameter + 1 + topo.hops(sl, gw) + topo.hops(gw, dl)
        }
    }

    /// Largest possible hop distance: `3 * D + 1` across islands, the
    /// die's own diameter `D` on a single die.
    pub fn diameter(&self) -> usize {
        match self.spec() {
            Some(_) => 3 * self.island_diameter + 1,
            None => self.island_diameter,
        }
    }

    /// Hop distance below which a pair is on-die (`hops <= split` ⇔
    /// intra-island) — the boundary the calibrated model fits each side
    /// of separately; `None` on a single die.
    pub fn cross_split(&self) -> Option<usize> {
        self.spec().map(|_| self.island_diameter)
    }

    /// The die of a single-die network, which needs no handoffs.
    fn single_die(&mut self) -> Option<&mut NocNetwork> {
        match self.cfg.chiplet {
            Some(_) => None,
            None => self.islands.first_mut(),
        }
    }

    /// The next cycle to be simulated (islands advance in lockstep, so
    /// they all agree).
    pub fn next_cycle(&self) -> u64 {
        let next = self.islands[0].next_cycle();
        debug_assert!(
            self.islands.iter().all(|i| i.next_cycle() == next),
            "islands fell out of lockstep"
        );
        next
    }

    /// Lockstep batch length: handoffs are applied at batch boundaries,
    /// and a second leg arrives at least `interposer latency + 2` cycles
    /// after its gateway delivery, so a batch of this length can never
    /// receive an injection into its own past. Unbounded on a single die.
    fn horizon(&self) -> u64 {
        self.spec().map_or(u64::MAX, |spec| spec.interposer.latency().max(1))
    }

    /// Advances every island through cycle `target` (inclusive) in
    /// lockstep batches, applying interposer handoffs at every batch
    /// boundary. `step` must advance one island through the given cycle
    /// (inclusive) — the serial path ticks the island, the accelerated
    /// path hands it to a [`ra_gpu`-style](crate) engine; both end with
    /// `island.next_cycle() == cycle + 1`.
    ///
    /// # Errors
    ///
    /// Propagates the first `step` failure.
    pub fn advance_to(
        &mut self,
        target: u64,
        step: &mut dyn FnMut(&mut NocNetwork, u64) -> Result<(), SimError>,
    ) -> Result<(), SimError> {
        while self.next_cycle() <= target {
            let t0 = self.next_cycle();
            let remaining = target - t0 + 1;
            // With nothing in flight anywhere there is nothing to hand
            // off, so the whole remaining span is one batch (each island
            // then fast-forwards it in O(routers)).
            let span = if self.in_flight() == 0 {
                remaining
            } else {
                self.horizon().min(remaining)
            };
            let end = t0 + span - 1;
            for island in &mut self.islands {
                step(island, end)?;
            }
            self.process_handoffs();
        }
        Ok(())
    }

    /// Serial [`advance_to`](ChipletNetwork::advance_to): every island
    /// steps on its built-in engine.
    pub fn advance_serial_to(&mut self, target: u64) {
        self.advance_to(target, &mut |island, end| {
            island.tick(Cycle(end));
            Ok(())
        })
        .expect("serial island stepping is infallible");
    }

    /// [`advance_to`](ChipletNetwork::advance_to) stepping every cycle on
    /// the serial engine ([`NocNetwork::step_to`]): no island fast-forwards.
    pub fn step_to(&mut self, target: u64) {
        self.advance_to(target, &mut |island, end| {
            island.step_to(end);
            Ok(())
        })
        .expect("serial island stepping is infallible");
    }

    /// Test hook: mutable access to one island, for tests that sabotage a
    /// router deliberately.
    #[doc(hidden)]
    pub fn debug_island_mut(&mut self, island: usize) -> &mut NocNetwork {
        &mut self.islands[island]
    }

    /// Drains every island's deliveries and applies them in
    /// `(cycle, island)` order: gateway arrivals take the interposer hop
    /// (scheduling their second leg), completed legs become globally
    /// addressed deliveries. A single die keeps its deliveries, and
    /// `drain_delivered` hands its `Vec` through.
    fn process_handoffs(&mut self) {
        if self.spec().is_none() {
            return;
        }
        let mut pending = std::mem::take(&mut self.pending_scratch);
        pending.clear();
        for (i, island) in self.islands.iter_mut().enumerate() {
            let now = island.next_cycle();
            for d in island.drain_delivered(Cycle(now)) {
                pending.push((d.at.0, i as u32, d.msg));
            }
        }
        // Stable by (cycle, island): per-island drain order is already
        // cycle-sorted, and equal-cycle events across islands resolve in
        // island order — deterministic for every engine.
        pending.sort_by_key(|&(at, island, _)| (at, island));
        for &(at, island, msg) in &pending {
            match self.crossing.get(&msg.id).copied() {
                Some(c) if !c.on_second_leg && c.src_island == island => {
                    self.interposer_hop(at, c);
                }
                Some(c) if c.on_second_leg && c.dst_island == island => {
                    self.crossing.remove(&msg.id);
                    self.interposer.cross_delivered += 1;
                    self.delivered_out.push(Delivery {
                        msg: c.orig,
                        at: Cycle(at),
                    });
                }
                _ => {
                    // Intra-island delivery: lift local endpoints back to
                    // global ids.
                    let base = island * self.island_nodes;
                    self.delivered_out.push(Delivery {
                        msg: NetMessage::new(
                            msg.id,
                            NodeId(base + msg.src.0),
                            NodeId(base + msg.dst.0),
                            msg.class,
                            msg.size_bytes,
                        ),
                        at: Cycle(at),
                    });
                }
            }
        }
        self.pending_scratch = pending;
        self.pending_scratch.clear();
    }

    /// Takes one gateway-delivered message across the interposer:
    /// serializes it onto the (possibly busy) island-pair link and
    /// injects the second leg into the destination island at its arrival
    /// cycle.
    fn interposer_hop(&mut self, gateway_at: u64, c: Crossing) {
        let class = self.spec().expect("only a chiplet has crossings").interposer;
        let link = c.src_island as usize * self.islands.len() + c.dst_island as usize;
        let ready = gateway_at + 1;
        let depart = ready.max(self.next_free[link]);
        let ser = u64::from(c.orig.size_bytes)
            .div_ceil(class.bytes_per_cycle())
            .max(1);
        let arrive = depart + ser + class.latency();
        self.next_free[link] = depart + ser;
        self.interposer.crossings += 1;
        self.interposer.serialization_cycles += ser;
        self.interposer.contention_cycles += depart - ready;
        let entry = self
            .crossing
            .get_mut(&c.orig.id)
            .expect("crossing entry exists for its own handoff");
        entry.on_second_leg = true;
        let (_, dst_local) = self.split(c.orig.dst);
        let leg2 = NetMessage::new(
            c.orig.id,
            NodeId(0),
            dst_local,
            c.orig.class,
            c.orig.size_bytes,
        );
        let dst = &mut self.islands[c.dst_island as usize];
        debug_assert!(
            arrive > dst.next_cycle(),
            "interposer arrival {arrive} not past island cycle {}",
            dst.next_cycle()
        );
        dst.inject(leg2, Cycle(arrive));
    }

    /// Runs until every message (both legs of every crossing included)
    /// has been delivered, on the serial engine. A single die runs
    /// [`NocNetwork::run_until_drained`].
    ///
    /// # Errors
    ///
    /// * [`SimError::Timeout`] if `budget` cycles elapse first;
    /// * [`SimError::Invariant`] from any island (router poisoning or the
    ///   per-island deadlock watchdog).
    pub fn run_until_drained(&mut self, budget: u64) -> Result<(), SimError> {
        if let Some(die) = self.single_die() {
            return die.run_until_drained(budget);
        }
        let start = self.next_cycle();
        while self.in_flight() > 0 {
            self.check_invariant()?;
            if self.next_cycle() - start > budget {
                return Err(SimError::Timeout {
                    budget,
                    waiting_for: format!(
                        "{} in-flight messages ({} mid-interposer) across {} islands",
                        self.in_flight(),
                        self.crossing.len(),
                        self.islands.len()
                    ),
                });
            }
            let target = self.next_cycle() + self.horizon() - 1;
            self.advance_serial_to(target);
        }
        self.check_invariant()
    }

    /// Fast-forwards the clock without simulating (sampled co-simulation
    /// over windows known to carry no traffic).
    ///
    /// # Errors
    ///
    /// [`SimError::Invariant`] if any island still holds traffic.
    pub fn skip_to(&mut self, cycle: u64) -> Result<(), SimError> {
        debug_assert!(
            self.in_flight() != 0 || self.crossing.is_empty(),
            "idle chiplet with live crossing entries"
        );
        for island in &mut self.islands {
            island.skip_to(cycle)?;
        }
        Ok(())
    }

    /// First invariant violation recorded by any island.
    ///
    /// # Errors
    ///
    /// The stored [`SimError::Invariant`], if any.
    pub fn check_invariant(&self) -> Result<(), SimError> {
        for island in &self.islands {
            island.check_invariant()?;
        }
        Ok(())
    }

    /// Audits conservation invariants on every island plus the chiplet's
    /// own crossing accounting.
    ///
    /// # Errors
    ///
    /// [`SimError::Invariant`] naming the first violated law.
    pub fn audit(&self) -> Result<(), SimError> {
        for (i, island) in self.islands.iter().enumerate() {
            island
                .audit()
                .map_err(|e| SimError::Invariant(format!("island {i}: {e}")))?;
        }
        let second_legs = self.crossing.values().filter(|c| c.on_second_leg).count();
        let total = self.interposer.cross_injected;
        let done = self.interposer.cross_delivered;
        if total - done != self.crossing.len() as u64 {
            return Err(SimError::Invariant(format!(
                "crossing accounting violated: {total} injected - {done} delivered != {} live",
                self.crossing.len()
            )));
        }
        if self.interposer.crossings - done != second_legs as u64 {
            return Err(SimError::Invariant(format!(
                "interposer accounting violated: {} crossings - {done} delivered != {} second legs",
                self.interposer.crossings, second_legs
            )));
        }
        Ok(())
    }

    /// Most-stuck island's consecutive idle-with-traffic cycles — the
    /// progress signal external watchdogs key on.
    pub fn idle_cycles(&self) -> u64 {
        self.islands
            .iter()
            .map(NocNetwork::idle_cycles)
            .max()
            .unwrap_or(0)
    }

    /// Flits delivered across all islands (cheap; no stats merge).
    pub fn flits_delivered(&self) -> u64 {
        self.islands.iter().map(|i| i.stats().flits_delivered).sum()
    }

    /// Flits lost to link faults across all islands (cheap).
    pub fn dropped_flits(&self) -> u64 {
        self.islands
            .iter()
            .map(|i| i.stats().faults.flits_dropped())
            .sum()
    }

    /// Merged statistics across all islands. Counters and distributions
    /// sum; `cycles` is the lockstep clock (max, not sum). A cross-island
    /// message appears once per detailed leg (two injections, two
    /// deliveries) — end-to-end latency of crossings is the coupler's
    /// measurement, not the islands'.
    pub fn stats(&self) -> NocStats {
        let mut merged = NocStats::new(self.island_diameter);
        for island in &self.islands {
            merged.merge(island.stats());
        }
        merged
    }

    /// Attaches an observability sink to every island (each tags its
    /// window events with its island id).
    pub fn set_sink(&mut self, sink: ObsSink) {
        for island in &mut self.islands {
            island.set_sink(sink.clone());
        }
    }

    /// Captures per-island counter baselines for a detailed window.
    pub fn window_snapshot(&self) -> ChipletWindowSnapshot {
        ChipletWindowSnapshot {
            islands: self.islands.iter().map(|i| i.window_snapshot()).collect(),
        }
    }

    /// Emits one island-tagged window event per island, covering
    /// everything since `since`.
    pub fn emit_window(&self, since: &ChipletWindowSnapshot) {
        for (island, snap) in self.islands.iter().zip(&since.islands) {
            island.emit_window(snap);
        }
    }
}

impl Network for ChipletNetwork {
    fn inject(&mut self, msg: NetMessage, now: Cycle) {
        let (si, sl) = self.split(msg.src);
        let (di, dl) = self.split(msg.dst);
        if si == di {
            let local = NetMessage::new(msg.id, sl, dl, msg.class, msg.size_bytes);
            self.islands[si as usize].inject(local, now);
        } else {
            let leg1 = NetMessage::new(msg.id, sl, NodeId(0), msg.class, msg.size_bytes);
            let prev = self.crossing.insert(
                msg.id,
                Crossing {
                    orig: msg,
                    src_island: si,
                    dst_island: di,
                    on_second_leg: false,
                },
            );
            debug_assert!(prev.is_none(), "duplicate in-flight message id {}", msg.id);
            self.interposer.cross_injected += 1;
            self.islands[si as usize].inject(leg1, now);
        }
    }

    fn tick(&mut self, now: Cycle) {
        if now.0 >= self.next_cycle() {
            self.advance_serial_to(now.0);
        }
    }

    fn drain_delivered(&mut self, now: Cycle) -> Vec<Delivery> {
        match self.single_die() {
            Some(die) => die.drain_delivered(now),
            None => std::mem::take(&mut self.delivered_out),
        }
    }

    fn in_flight(&self) -> usize {
        // Every live message is counted by exactly one island: first-leg
        // and intra-island traffic by its source island, second legs
        // (injected the instant their gateway delivery drains, future
        // cycle included) by the destination island.
        self.islands.iter().map(NocNetwork::in_flight).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TopologyKind;
    use crate::traffic::{InjectionProcess, TrafficGen, TrafficPattern};
    use ra_sim::MessageClass;

    fn chiplet_cfg(islands: u32) -> NocConfig {
        NocConfig::new(4, 4).with_chiplet(ChipletSpec::new(islands, InterposerClass::Silicon))
    }

    fn msg(id: u64, src: u32, dst: u32) -> NetMessage {
        NetMessage::new(id, NodeId(src), NodeId(dst), MessageClass::Request, 8)
    }

    #[test]
    fn interposer_classes_round_trip_their_names() {
        for class in InterposerClass::ALL {
            assert_eq!(class.name().parse::<InterposerClass>().unwrap(), class);
            assert!(class.latency() >= 1);
            assert!(class.bytes_per_cycle() >= 1);
        }
        assert!("copper".parse::<InterposerClass>().is_err());
    }

    #[test]
    fn chiplet_spec_validation_rejects_bad_shapes() {
        assert!(ChipletNetwork::new(chiplet_cfg(1)).is_err());
        let cmesh = NocConfig::new(4, 4)
            .with_topology(crate::config::TopologyKind::CMesh { concentration: 2 })
            .with_chiplet(ChipletSpec::new(2, InterposerClass::Silicon));
        assert!(ChipletNetwork::new(cmesh).is_err());
        let bad_faults = NocConfig::new(4, 4).with_chiplet(
            ChipletSpec::new(2, InterposerClass::Silicon)
                .with_island_faults(vec![FaultPlan::new()]),
        );
        assert!(ChipletNetwork::new(bad_faults).is_err());
        let base_faults = NocConfig::new(4, 4)
            .with_faults(FaultPlan::new().kill_link(5, 0, 100))
            .with_chiplet(ChipletSpec::new(2, InterposerClass::Silicon));
        assert!(ChipletNetwork::new(base_faults).is_err());
    }

    #[test]
    fn single_die_network_rejects_chiplet_configs() {
        assert!(NocNetwork::new(chiplet_cfg(2)).is_err());
        assert!(ChipletNetwork::new(chiplet_cfg(2)).is_ok());
    }

    /// Drives generated request and response traffic for 300 cycles,
    /// draining every 50, then runs the network dry.
    fn drive<N: Network>(net: &mut N, drain: impl Fn(&mut N)) -> Vec<Delivery> {
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
                TrafficPattern::BitComplement,
                InjectionProcess::Bernoulli { rate: 0.03 },
                4,
            )
            .with_class(MessageClass::Response)
            .with_payload_bytes(72),
        ];
        let mut out = Vec::new();
        for now in 0..300 {
            for gen in &mut gens {
                gen.inject_cycle(net, Cycle(now));
            }
            net.tick(Cycle(now));
            if now % 50 == 49 {
                out.extend(net.drain_delivered(Cycle(now)));
            }
        }
        drain(net);
        out.extend(net.drain_delivered(Cycle(0)));
        out
    }

    #[test]
    fn a_single_die_config_builds_a_one_island_network_equal_to_the_die() {
        assert!(ChipletNetwork::new(NocConfig::new(4, 4)).is_ok());
        let configs = [
            NocConfig::new(8, 4),
            NocConfig::new(8, 4).with_topology(TopologyKind::CMesh { concentration: 2 }),
            // A link dead from cycle 0 loses nothing: traffic detours.
            NocConfig::new(8, 4).with_faults(FaultPlan::new().kill_link(9, 0, 0)),
        ];
        let mut faulted = false;
        for cfg in configs {
            let mut die = NocNetwork::new(cfg.clone()).unwrap();
            let mut chip = ChipletNetwork::new(cfg.clone()).unwrap();
            let want = drive(&mut die, |n| n.run_until_drained(100_000).unwrap());
            let got = drive(&mut chip, |n| n.run_until_drained(100_000).unwrap());
            let name = format!("{:?}", cfg.topology);
            assert!(!want.is_empty(), "{name}");
            assert_eq!(die.in_flight(), 0, "{name}");
            assert_eq!(got, want, "{name}: deliveries");
            assert_eq!(chip.stats(), *die.stats(), "{name}: stats");
            let routers = |rs: &[crate::Router]| {
                rs.iter()
                    .map(|r| (format!("{:?}", r.event_counts()), r.compute_invocations()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(chip.islands().len(), 1, "{name}");
            assert_eq!(
                routers(chip.islands()[0].routers()),
                routers(die.routers()),
                "{name}: router counters"
            );
            assert_eq!(chip.diameter(), die.topology().diameter(), "{name}");
            assert_eq!(chip.cross_split(), None, "{name}");
            assert_eq!(chip.spec(), None, "{name}");
            assert_eq!(chip.next_cycle(), die.next_cycle(), "{name}");
            chip.audit().unwrap();
            faulted |= chip.stats().faults.reroutes > 0;
        }
        assert!(faulted, "the dead link must reroute traffic");
    }

    #[test]
    fn hop_bands_are_disjoint() {
        let net = ChipletNetwork::new(chiplet_cfg(2)).unwrap();
        let d = net.cross_split().unwrap();
        assert_eq!(d, 6);
        assert_eq!(net.diameter(), 3 * d + 1);
        for s in 0..32u32 {
            for t in 0..32u32 {
                let h = net.hops(NodeId(s), NodeId(t));
                if s / 16 == t / 16 {
                    assert!(h <= d, "intra {s}->{t} = {h}");
                } else {
                    assert!(h > d && h <= 3 * d + 1, "cross {s}->{t} = {h}");
                }
            }
        }
    }

    #[test]
    fn intra_island_traffic_matches_a_standalone_die() {
        // Island 0 inherits the base seed XOR the island-0 constant; give
        // the standalone reference the identical seed so any seeded
        // randomness lines up.
        let chip = ChipletNetwork::new(chiplet_cfg(2)).unwrap();
        let island0_seed = chip.islands()[0].config().seed;
        let mut reference = NocNetwork::new(NocConfig::new(4, 4).with_seed(island0_seed)).unwrap();
        let mut chip = chip;
        for i in 0..10u64 {
            let (s, d) = ((i as u32 * 3) % 16, (i as u32 * 7 + 1) % 16);
            chip.inject(msg(i, s, d), Cycle(i));
            reference.inject(msg(i, s, d), Cycle(i));
        }
        chip.run_until_drained(100_000).unwrap();
        reference.run_until_drained(100_000).unwrap();
        let mut got = chip.drain_delivered(Cycle(chip.next_cycle()));
        let mut want = reference.drain_delivered(Cycle(reference.next_cycle()));
        got.sort_by_key(|d| d.msg.id);
        want.sort_by_key(|d| d.msg.id);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.at, w.at, "message {}", g.msg.id);
            assert_eq!(g.msg, w.msg);
        }
    }

    #[test]
    fn cross_island_messages_deliver_with_interposer_latency() {
        let mut net = ChipletNetwork::new(chiplet_cfg(2)).unwrap();
        // Node 5 on island 0 to node 26 (= local 10 on island 1).
        net.inject(msg(1, 5, 26), Cycle(0));
        net.run_until_drained(100_000).unwrap();
        let out = net.drain_delivered(Cycle(net.next_cycle()));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].msg.src, NodeId(5), "original endpoints preserved");
        assert_eq!(out[0].msg.dst, NodeId(26));
        let lat = out[0].at.0;
        let floor = InterposerClass::Silicon.latency() + 1;
        assert!(lat > floor, "cross latency {lat} must exceed the link floor");
        let st = net.interposer_stats();
        assert_eq!(st.cross_injected, 1);
        assert_eq!(st.crossings, 1);
        assert_eq!(st.cross_delivered, 1);
        assert!(st.serialization_cycles >= 1);
        net.audit().unwrap();
    }

    #[test]
    fn busy_interposer_links_serialize_departures() {
        // Back-to-back same-link crossings: each must depart after the
        // previous finishes serializing. The organic interposer's 8
        // B-per-cycle wire turns a 72 B payload into a 9-cycle
        // serialization window — wider than the gateway NI can space
        // arrivals — so later messages necessarily queue on the link.
        let cfg = NocConfig::new(4, 4)
            .with_chiplet(ChipletSpec::new(2, InterposerClass::Organic));
        let mut net = ChipletNetwork::new(cfg).unwrap();
        for i in 0..8u64 {
            net.inject(
                NetMessage::new(i, NodeId(0), NodeId(31), MessageClass::Response, 72),
                Cycle(0),
            );
        }
        net.run_until_drained(100_000).unwrap();
        let out = net.drain_delivered(Cycle(net.next_cycle()));
        assert_eq!(out.len(), 8);
        assert!(
            net.interposer_stats().contention_cycles > 0,
            "back-to-back same-link crossings must contend"
        );
    }

    #[test]
    fn every_global_pair_delivers() {
        let mut net = ChipletNetwork::new(chiplet_cfg(2)).unwrap();
        let nodes = net.nodes();
        let mut id = 0u64;
        for s in 0..nodes {
            for d in 0..nodes {
                net.inject(msg(id, s, d), Cycle(0));
                id += 1;
            }
        }
        net.run_until_drained(500_000).unwrap();
        let out = net.drain_delivered(Cycle(net.next_cycle()));
        assert_eq!(out.len(), id as usize, "lost messages");
        assert_eq!(net.in_flight(), 0);
        net.audit().unwrap();
    }

    #[test]
    fn serial_reruns_are_bit_identical() {
        fn run() -> (Vec<Delivery>, NocStats, InterposerStats) {
            let mut net = ChipletNetwork::new(chiplet_cfg(3)).unwrap();
            for i in 0..60u64 {
                let s = (i as u32 * 7) % 48;
                let d = (i as u32 * 13 + 5) % 48;
                net.inject(msg(i, s, d), Cycle(i * 3));
            }
            net.run_until_drained(500_000).unwrap();
            let out = net.drain_delivered(Cycle(net.next_cycle()));
            (out, net.stats(), net.interposer_stats())
        }
        let (a, sa, ia) = run();
        let (b, sb, ib) = run();
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        assert_eq!(ia, ib);
    }

    #[test]
    fn skip_to_works_when_idle_and_fails_when_live() {
        let mut net = ChipletNetwork::new(chiplet_cfg(2)).unwrap();
        net.skip_to(10_000).unwrap();
        assert_eq!(net.next_cycle(), 10_000);
        net.inject(msg(0, 0, 31), Cycle(10_000));
        assert!(net.skip_to(20_000).is_err());
        net.run_until_drained(100_000).unwrap();
        assert_eq!(net.drain_delivered(Cycle(net.next_cycle())).len(), 1);
    }

    #[test]
    fn island_fault_plans_apply_per_island() {
        let cfg = NocConfig::new(4, 4).with_chiplet(
            ChipletSpec::new(2, InterposerClass::Silicon).with_island_faults(vec![
                FaultPlan::new().stall_router(5, 0, 200),
                FaultPlan::new(),
            ]),
        );
        let mut net = ChipletNetwork::new(cfg).unwrap();
        net.tick(Cycle(199));
        let st = net.stats();
        assert_eq!(st.faults.stall_cycles, 200, "island 0 stall must run");
        assert_eq!(net.islands()[1].stats().faults.stall_cycles, 0);
    }

    #[test]
    fn merged_stats_account_for_both_legs() {
        let mut net = ChipletNetwork::new(chiplet_cfg(2)).unwrap();
        net.inject(msg(0, 1, 2), Cycle(0)); // intra
        net.inject(msg(1, 1, 30), Cycle(0)); // cross
        net.run_until_drained(100_000).unwrap();
        let st = net.stats();
        assert_eq!(st.injected, 3, "one intra + two legs");
        assert_eq!(st.delivered, 3);
        assert_eq!(st.in_flight(), 0);
    }
}

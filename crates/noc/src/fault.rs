//! Deterministic fault injection for the cycle-level NoC.
//!
//! A [`FaultPlan`] scripts hardware faults against the detailed network:
//! links that die permanently ([`FaultEvent::LinkDown`]), links that drop
//! flits probabilistically for a window ([`FaultEvent::LinkFlaky`]), and
//! routers that freeze for a window ([`FaultEvent::RouterStall`]). The plan
//! rides inside [`NocConfig`](crate::NocConfig), so the same script replays
//! identically on the serial and parallel engines: every random decision
//! (flaky drops) comes from a per-router [`Pcg32`] stream forked from the
//! configuration seed, never from global state.
//!
//! Semantics:
//!
//! * A dead or flaky link is a *physical channel* failure: both flit
//!   directions and both credit return paths stop working. Flits and
//!   credits on the channel at the moment of death are lost.
//! * Permanent [`LinkDown`](FaultEvent::LinkDown) faults on a (concentrated)
//!   mesh are routed around: the topology precomputes shortest detour paths
//!   over the surviving links (see
//!   [`TopologyMap::has_detours`](crate::TopologyMap::has_detours)).
//!   Flaky links and stalls are transient, so routing does not avoid them.
//! * Faults the network cannot absorb — an isolated router, a wedged
//!   virtual channel whose credits were dropped — do **not** panic. They
//!   surface as lost flits and missing progress, which the supervision
//!   layer ([`NocNetwork::run_until_drained`](crate::NocNetwork) and the
//!   co-simulation watchdog in `ra-cosim`) converts into structured
//!   [`SimError`](ra_sim::SimError)s or graceful degradation.
//!
//! Every fault the routers absorb is counted in
//! [`NocStats::faults`](crate::NocStats).

use ra_sim::{ConfigError, Pcg32};

use crate::topology::TopologyMap;

/// Seed salt separating fault randomness from traffic/allocator streams.
const FAULT_SEED_SALT: u64 = 0xFA01_7BAD_5EED_0001;

/// One scripted hardware fault.
///
/// Directions use the port offsets of
/// [`topology`](crate::topology): 0 = north, 1 = east, 2 = south, 3 = west.
/// Events naming a link that does not exist (a mesh edge) are ignored at
/// expansion time, which keeps convenience builders like
/// [`FaultPlan::isolate_router`] usable on border routers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// The physical channel between `router` and its neighbour in `dir`
    /// dies permanently at cycle `from`.
    LinkDown {
        /// Router on one end of the channel.
        router: u32,
        /// Direction of the channel from `router` (0..4 = N/E/S/W).
        dir: u32,
        /// First cycle at which the channel is dead.
        from: u64,
    },
    /// The channel drops each traversing flit with probability `drop_prob`
    /// during `[from, until)`.
    LinkFlaky {
        /// Router on one end of the channel.
        router: u32,
        /// Direction of the channel from `router` (0..4 = N/E/S/W).
        dir: u32,
        /// First faulty cycle.
        from: u64,
        /// First healthy cycle again (exclusive end).
        until: u64,
        /// Per-flit drop probability in `(0, 1]`.
        drop_prob: f64,
    },
    /// `router` freezes — receives, allocates, and sends nothing — during
    /// `[from, until)`. Flits in flight towards it during the stall are
    /// lost (the wire slot expires unread).
    RouterStall {
        /// The stalled router.
        router: u32,
        /// First stalled cycle.
        from: u64,
        /// First active cycle again (exclusive end).
        until: u64,
    },
}

/// A deterministic fault script for one run.
///
/// Build with the chained methods, or generate a reproducible random plan
/// with [`FaultPlan::random`].
///
/// # Example
///
/// ```
/// use ra_noc::fault::FaultPlan;
///
/// let plan = FaultPlan::new()
///     .kill_link(5, 1, 1_000)            // east link of router 5 dies
///     .flaky_link(2, 0, 0, 500, 0.1)     // north link of router 2 flaky
///     .stall_router(7, 300, 400);        // router 7 frozen for 100 cycles
/// assert_eq!(plan.events().len(), 3);
/// assert!(plan.validate().is_ok());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty (fault-free) plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// The scripted events.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True when no faults are scripted.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Kills the channel between `router` and its `dir` neighbour from
    /// cycle `from` on.
    #[must_use]
    pub fn kill_link(mut self, router: u32, dir: u32, from: u64) -> Self {
        self.events.push(FaultEvent::LinkDown { router, dir, from });
        self
    }

    /// Makes the channel drop flits with probability `drop_prob` during
    /// `[from, until)`.
    #[must_use]
    pub fn flaky_link(mut self, router: u32, dir: u32, from: u64, until: u64, drop_prob: f64) -> Self {
        self.events.push(FaultEvent::LinkFlaky {
            router,
            dir,
            from,
            until,
            drop_prob,
        });
        self
    }

    /// Freezes `router` during `[from, until)`.
    #[must_use]
    pub fn stall_router(mut self, router: u32, from: u64, until: u64) -> Self {
        self.events.push(FaultEvent::RouterStall { router, from, until });
        self
    }

    /// Kills every link of `router` from cycle `from` on, cutting it (and
    /// its attached endpoints) off from the rest of the network. No detour
    /// exists, so traffic to or from the router is unrecoverable — the
    /// scenario that forces a co-simulation to degrade to its calibrated
    /// model.
    #[must_use]
    pub fn isolate_router(mut self, router: u32, from: u64) -> Self {
        for dir in 0..4 {
            self.events.push(FaultEvent::LinkDown { router, dir, from });
        }
        self
    }

    /// Generates a reproducible random plan of `events` faults over a
    /// network of `routers` routers, all starting within `horizon` cycles.
    ///
    /// The mix is roughly one third each of permanent link kills, flaky
    /// windows, and router stalls.
    #[must_use]
    pub fn random(seed: u64, routers: u32, events: usize, horizon: u64) -> Self {
        let mut rng = Pcg32::new(seed ^ FAULT_SEED_SALT, 0xFA17);
        let mut plan = FaultPlan::new();
        let horizon = u32::try_from(horizon.max(1)).unwrap_or(u32::MAX);
        for _ in 0..events {
            let router = rng.below(routers.max(1));
            let dir = rng.below(4);
            let from = u64::from(rng.below(horizon));
            plan = match rng.below(3) {
                0 => plan.kill_link(router, dir, from),
                1 => {
                    let len = u64::from(50 + rng.below(horizon));
                    let drop_prob = 0.05 + 0.9 * (f64::from(rng.below(1_000)) / 1_000.0);
                    plan.flaky_link(router, dir, from, from + len, drop_prob)
                }
                _ => {
                    let len = u64::from(10 + rng.below(200));
                    plan.stall_router(router, from, from + len)
                }
            };
        }
        plan
    }

    /// True when the plan contains at least one permanent link fault (the
    /// kind the topology builds detour routes for).
    pub fn has_link_down(&self) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e, FaultEvent::LinkDown { .. }))
    }

    /// Checks event parameters for internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for a direction outside `0..4`, a drop
    /// probability outside `(0, 1]`, or an empty fault window.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for ev in &self.events {
            match *ev {
                FaultEvent::LinkDown { dir, .. } => {
                    if dir >= 4 {
                        return Err(ConfigError::new(format!("fault direction {dir} out of range")));
                    }
                }
                FaultEvent::LinkFlaky {
                    dir,
                    from,
                    until,
                    drop_prob,
                    ..
                } => {
                    if dir >= 4 {
                        return Err(ConfigError::new(format!("fault direction {dir} out of range")));
                    }
                    if !(drop_prob > 0.0 && drop_prob <= 1.0) {
                        return Err(ConfigError::new(format!(
                            "flaky drop probability {drop_prob} must be in (0, 1]"
                        )));
                    }
                    if from >= until {
                        return Err(ConfigError::new("flaky window is empty (from >= until)"));
                    }
                }
                FaultEvent::RouterStall { from, until, .. } => {
                    if from >= until {
                        return Err(ConfigError::new("stall window is empty (from >= until)"));
                    }
                }
            }
        }
        Ok(())
    }

    /// Checks that every event names a router inside the grid.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first out-of-range router.
    pub fn validate_routers(&self, routers: u32) -> Result<(), ConfigError> {
        for ev in &self.events {
            let r = match *ev {
                FaultEvent::LinkDown { router, .. }
                | FaultEvent::LinkFlaky { router, .. }
                | FaultEvent::RouterStall { router, .. } => router,
            };
            if r >= routers {
                return Err(ConfigError::new(format!(
                    "fault names router {r} but the grid has {routers} routers"
                )));
            }
        }
        Ok(())
    }
}

/// A router's expanded, queryable view of the plan.
///
/// Built once per router at construction; both endpoints of a faulted
/// channel expand the same events, so the channel fails symmetrically
/// without any cross-router communication at simulation time — the
/// property that keeps the parallel engine bit-identical to the serial
/// one under faults.
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    /// Per port: first cycle at which the attached channel is permanently
    /// dead (`u64::MAX` = healthy forever).
    dead_from: Vec<u64>,
    /// Per port: flaky windows `(from, until, drop_prob)`.
    flaky: Vec<Vec<(u64, u64, f64)>>,
    /// Stall windows for this router.
    stalls: Vec<(u64, u64)>,
    /// Stream for flaky-drop coin flips, private to this router.
    rng: Pcg32,
}

impl FaultState {
    /// Expands `plan` into the state for router `id`, or `None` when no
    /// event touches it.
    pub(crate) fn for_router(
        plan: &FaultPlan,
        id: u32,
        topo: &TopologyMap,
        seed: u64,
    ) -> Option<Self> {
        if plan.is_empty() {
            return None;
        }
        let ports = topo.ports() as usize;
        let mut state = FaultState {
            dead_from: vec![u64::MAX; ports],
            flaky: vec![Vec::new(); ports],
            stalls: Vec::new(),
            rng: Pcg32::new(seed ^ FAULT_SEED_SALT, u64::from(id) + 1),
        };
        let mut relevant = false;
        for ev in plan.events() {
            match *ev {
                FaultEvent::LinkDown { router, dir, from } => {
                    for port in channel_ports(topo, router, dir, id) {
                        state.dead_from[port] = state.dead_from[port].min(from);
                        relevant = true;
                    }
                }
                FaultEvent::LinkFlaky {
                    router,
                    dir,
                    from,
                    until,
                    drop_prob,
                } => {
                    for port in channel_ports(topo, router, dir, id) {
                        state.flaky[port].push((from, until, drop_prob));
                        relevant = true;
                    }
                }
                FaultEvent::RouterStall { router, from, until } => {
                    if router == id {
                        state.stalls.push((from, until));
                        relevant = true;
                    }
                }
            }
        }
        relevant.then_some(state)
    }

    /// Whether the channel at `port` is dead at `now` (either endpoint of
    /// a dead channel reports true for its side).
    #[inline]
    pub(crate) fn link_dead(&self, port: usize, now: u64) -> bool {
        now >= self.dead_from[port]
    }

    /// Whether this router is frozen at `now`.
    #[inline]
    pub(crate) fn stalled(&self, now: u64) -> bool {
        self.stalls.iter().any(|&(from, until)| now >= from && now < until)
    }

    /// Coin flip: should a flit leaving through `port` at `now` be dropped
    /// by an active flaky window? Draws from the router's private stream
    /// only when a window is active, so fault-free ports stay
    /// deterministic regardless of flaky traffic elsewhere.
    #[inline]
    pub(crate) fn flaky_drop(&mut self, port: usize, now: u64) -> bool {
        let active = self.flaky[port]
            .iter()
            .find(|&&(from, until, _)| now >= from && now < until);
        match active {
            Some(&(_, _, p)) => self.rng.chance(p),
            None => false,
        }
    }
}

/// The ports of router `me` that touch the physical channel leaving
/// `router` in direction `dir` (at most one: its own side of the channel).
fn channel_ports(topo: &TopologyMap, router: u32, dir: u32, me: u32) -> Vec<usize> {
    let mut ports = Vec::with_capacity(1);
    if dir >= 4 {
        return ports;
    }
    let out_port = topo.concentration() + dir;
    if let Some((nr, in_port)) = topo.link_dst(router, out_port) {
        if router == me {
            ports.push(out_port as usize);
        }
        // The neighbour's side: input port `in_port` doubles as its output
        // port back over the same channel.
        if nr == me && nr != router {
            ports.push(in_port as usize);
        }
    }
    ports
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NocConfig;

    #[test]
    fn builders_script_events() {
        let plan = FaultPlan::new()
            .kill_link(1, 2, 10)
            .flaky_link(0, 1, 5, 50, 0.5)
            .stall_router(3, 0, 20)
            .isolate_router(5, 100);
        assert_eq!(plan.events().len(), 7);
        assert!(plan.has_link_down());
        assert!(plan.validate().is_ok());
        assert!(plan.validate_routers(16).is_ok());
        assert!(plan.validate_routers(4).is_err());
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(FaultPlan::new().kill_link(0, 4, 0).validate().is_err());
        assert!(FaultPlan::new().flaky_link(0, 0, 10, 10, 0.5).validate().is_err());
        assert!(FaultPlan::new().flaky_link(0, 0, 0, 10, 0.0).validate().is_err());
        assert!(FaultPlan::new().flaky_link(0, 0, 0, 10, 1.5).validate().is_err());
        assert!(FaultPlan::new().stall_router(0, 5, 5).validate().is_err());
    }

    #[test]
    fn random_plans_are_reproducible_and_valid() {
        let a = FaultPlan::random(7, 16, 10, 1_000);
        let b = FaultPlan::random(7, 16, 10, 1_000);
        assert_eq!(a, b);
        assert_eq!(a.events().len(), 10);
        assert!(a.validate().is_ok());
        assert!(a.validate_routers(16).is_ok());
        assert_ne!(a, FaultPlan::random(8, 16, 10, 1_000));
    }

    #[test]
    fn fault_state_expands_both_channel_endpoints() {
        // 4x4 mesh, concentration 1: port p = 1 + dir.
        let cfg = NocConfig::new(4, 4);
        let topo = TopologyMap::new(&cfg);
        // Kill the east link of router 0 (channel 0 <-> 1) at cycle 10.
        let plan = FaultPlan::new().kill_link(0, 1, 10);
        let s0 = FaultState::for_router(&plan, 0, &topo, 0).expect("router 0 affected");
        let s1 = FaultState::for_router(&plan, 1, &topo, 0).expect("router 1 affected");
        // Router 0's east port (1 + EAST = 2) dies; router 1's west port
        // (1 + WEST = 4) dies. Both only from cycle 10.
        assert!(!s0.link_dead(2, 9));
        assert!(s0.link_dead(2, 10));
        assert!(s1.link_dead(4, 10));
        assert!(!s1.link_dead(2, 10), "router 1's own east port survives");
        // Untouched routers expand to None.
        assert!(FaultState::for_router(&plan, 5, &topo, 0).is_none());
    }

    #[test]
    fn edge_links_are_ignored() {
        let cfg = NocConfig::new(4, 4);
        let topo = TopologyMap::new(&cfg);
        // Router 0 is the south-west corner; killing west is a no-op.
        let plan = FaultPlan::new().kill_link(0, 3, 0);
        assert!(FaultState::for_router(&plan, 0, &topo, 0).is_none());
    }

    #[test]
    fn stalls_and_flaky_windows_are_bounded() {
        let cfg = NocConfig::new(4, 4);
        let topo = TopologyMap::new(&cfg);
        let plan = FaultPlan::new().stall_router(3, 10, 20).flaky_link(3, 0, 5, 15, 1.0);
        let mut s = FaultState::for_router(&plan, 3, &topo, 0).unwrap();
        assert!(!s.stalled(9));
        assert!(s.stalled(10));
        assert!(s.stalled(19));
        assert!(!s.stalled(20));
        // drop_prob = 1.0: every flit in the window drops, none outside.
        let north = 1; // 1 + NORTH
        assert!(!s.flaky_drop(north, 4));
        assert!(s.flaky_drop(north, 5));
        assert!(s.flaky_drop(north, 14));
        assert!(!s.flaky_drop(north, 15));
    }
}

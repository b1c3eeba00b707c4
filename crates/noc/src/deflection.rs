//! Bufferless deflection-routed NoC (BLESS/Hoplite-style).
//!
//! An alternative *detailed component model* to the virtual-channel router:
//! routers have no input buffers at all. Every flit that arrives in a cycle
//! must leave in the same cycle; when two flits want the same productive
//! output, the older one wins and the younger is *deflected* out of any
//! free port. Age priority makes the scheme livelock-free: the globally
//! oldest flit always wins its productive port at every hop, so it is
//! delivered, and induction finishes the argument.
//!
//! Multi-flit messages are split into independently routed single-flit
//! units and reassembled at the destination interface (the standard
//! deflection-network design point; reassembly space is modeled as
//! unbounded, which is the common simulator simplification).
//!
//! Implementing [`Network`] makes this router directly comparable, under
//! identical full-system traffic, with the VC router — the kind of
//! detailed-model design exploration reciprocal abstraction exists to
//! enable (experiment X2).


use ra_sim::{ConfigError, Cycle, Delivery, MeshShape, NetMessage, Network, NodeId};

use crate::stats::NocStats;
use crate::wire::Wire;

/// Directions, also port indices. `EJECT` is virtual (not a wire).
const NORTH: usize = 0;
const EAST: usize = 1;
const SOUTH: usize = 2;
const WEST: usize = 3;
const DIRS: usize = 4;

/// Configuration of a deflection-routed mesh.
#[derive(Debug, Clone, PartialEq)]
pub struct DeflectionConfig {
    /// Node grid (one router per node).
    pub shape: MeshShape,
    /// Bytes per flit (messages are segmented like the VC network).
    pub flit_bytes: u32,
    /// Link latency in cycles (>= 1).
    pub link_latency: u32,
    /// Flits ejectable per router per cycle.
    pub eject_width: u32,
}

impl DeflectionConfig {
    /// Defaults matching the VC network: 16-byte flits, 1-cycle links.
    pub fn new(cols: u32, rows: u32) -> Self {
        DeflectionConfig {
            shape: MeshShape::new(cols, rows).expect("mesh dimensions must be positive"),
            flit_bytes: 16,
            link_latency: 1,
            eject_width: 2,
        }
    }

    /// Checks parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for zero sizing parameters or a 1x1 mesh
    /// (a deflection router needs at least one link).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.flit_bytes == 0 {
            return Err(ConfigError::new("flit_bytes must be positive"));
        }
        if self.link_latency == 0 {
            return Err(ConfigError::new("link_latency must be at least 1"));
        }
        if self.eject_width == 0 {
            return Err(ConfigError::new("eject_width must be positive"));
        }
        if self.shape.nodes() < 2 {
            return Err(ConfigError::new("deflection mesh needs at least 2 nodes"));
        }
        Ok(())
    }
}

/// One independently-routed flit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DFlit {
    pkt: u32,
    seq: u16,
    dst: u16, // router index
    /// Injection cycle: the age-priority key (older = smaller = higher
    /// priority).
    born: u64,
}

impl DFlit {
    /// Deterministic priority: oldest first, then packet, then sequence.
    fn priority(&self) -> (u64, u32, u16) {
        (self.born, self.pkt, self.seq)
    }
}

#[derive(Debug, Clone)]
struct PacketInfo {
    msg: NetMessage,
    inject: u64,
    total: u16,
    arrived: u16,
}

#[derive(Debug, Clone)]
struct DRouter {
    /// Wires this router *sends* on, one per direction (None at mesh
    /// edges).
    out_wires: [Option<Wire<DFlit>>; DIRS],
    /// Source queue of flits awaiting injection.
    source: std::collections::VecDeque<DFlit>,
}

/// The bufferless deflection-routed mesh network.
///
/// # Example
///
/// ```
/// use ra_noc::deflection::{DeflectionConfig, DeflectionNetwork};
/// use ra_sim::{Cycle, MessageClass, NetMessage, Network, NodeId};
///
/// let mut net = DeflectionNetwork::new(DeflectionConfig::new(4, 4))?;
/// net.inject(
///     NetMessage::new(0, NodeId(0), NodeId(15), MessageClass::Response, 72),
///     Cycle(0),
/// );
/// net.tick(Cycle(200));
/// assert_eq!(net.drain_delivered(Cycle(200)).len(), 1);
/// # Ok::<(), ra_sim::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DeflectionNetwork {
    cfg: DeflectionConfig,
    routers: Vec<DRouter>,
    packets: Vec<Option<PacketInfo>>,
    free: Vec<u32>,
    delivered_out: Vec<Delivery>,
    in_flight_count: usize,
    next_cycle: u64,
    stats: NocStats,
    deflections: u64,
}

impl DeflectionNetwork {
    /// Builds the network.
    ///
    /// # Errors
    ///
    /// Propagates [`DeflectionConfig::validate`].
    pub fn new(cfg: DeflectionConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let shape = cfg.shape;
        let routers = (0..shape.nodes() as u32)
            .map(|r| {
                let (x, y) = shape.coords(NodeId(r));
                let mk = |exists: bool| exists.then(|| Wire::new(cfg.link_latency));
                DRouter {
                    out_wires: [
                        mk(y + 1 < shape.rows()),
                        mk(x + 1 < shape.cols()),
                        mk(y > 0),
                        mk(x > 0),
                    ],
                    source: std::collections::VecDeque::new(),
                }
            })
            .collect();
        let diameter = shape.diameter();
        Ok(DeflectionNetwork {
            cfg,
            routers,
            packets: Vec::new(),
            free: Vec::new(),
            delivered_out: Vec::new(),
            in_flight_count: 0,
            next_cycle: 0,
            stats: NocStats::new(diameter),
            deflections: 0,
        })
    }

    /// Statistics so far.
    pub fn stats(&self) -> &NocStats {
        &self.stats
    }

    /// Total deflections (non-productive hops) so far: the scheme's cost.
    pub fn deflections(&self) -> u64 {
        self.deflections
    }

    fn neighbor(&self, router: u32, dir: usize) -> u32 {
        let (x, y) = self.cfg.shape.coords(NodeId(router));
        let (nx, ny) = match dir {
            NORTH => (x, y + 1),
            EAST => (x + 1, y),
            SOUTH => (x, y - 1),
            _ => (x - 1, y),
        };
        self.cfg.shape.node_at(nx, ny).0
    }

    /// Productive directions for a flit at `router` (X preferred first).
    fn productive(&self, router: u32, dst: u32) -> Vec<usize> {
        let (cx, cy) = self.cfg.shape.coords(NodeId(router));
        let (dx, dy) = self.cfg.shape.coords(NodeId(dst));
        let mut dirs = Vec::with_capacity(2);
        if dx > cx {
            dirs.push(EAST);
        } else if dx < cx {
            dirs.push(WEST);
        }
        if dy > cy {
            dirs.push(NORTH);
        } else if dy < cy {
            dirs.push(SOUTH);
        }
        dirs
    }

    fn alloc_packet(&mut self, info: PacketInfo) -> u32 {
        if let Some(id) = self.free.pop() {
            self.packets[id as usize] = Some(info);
            id
        } else {
            let id = self.packets.len() as u32;
            self.packets.push(Some(info));
            id
        }
    }

    /// Executes one cycle.
    pub fn step(&mut self) {
        let now = self.next_cycle;
        let n = self.routers.len();
        // Phase 1: gather arrivals per router (reads everyone's wires).
        let mut arrivals: Vec<Vec<DFlit>> = vec![Vec::new(); n];
        for r in 0..n as u32 {
            for dir in 0..DIRS {
                if let Some(wire) = self.routers[r as usize].out_wires[dir].as_ref() {
                    if let Some(flit) = wire.read(now) {
                        let dst = self.neighbor(r, dir) as usize;
                        arrivals[dst].push(flit);
                    }
                }
            }
        }
        // Phase 2: per router — eject, inject, allocate ports, send.
        let mut ejected: Vec<(u32, DFlit)> = Vec::new();
        #[allow(clippy::needless_range_loop)]
        for r in 0..n {
            let mut flits = std::mem::take(&mut arrivals[r]);
            // Eject up to eject_width destined flits, oldest first.
            flits.sort_by_key(DFlit::priority);
            let mut kept = Vec::with_capacity(flits.len());
            let mut ejections = 0;
            for flit in flits {
                if flit.dst as usize == r && ejections < self.cfg.eject_width {
                    ejections += 1;
                    ejected.push((r as u32, flit));
                } else {
                    kept.push(flit);
                }
            }
            // Inject at most one flit per cycle, and only when a free
            // output slot remains (the bufferless invariant).
            let degree = self.routers[r].out_wires.iter().flatten().count();
            if kept.len() < degree {
                if let Some(flit) = self.routers[r].source.pop_front() {
                    kept.push(flit);
                }
            }
            kept.sort_by_key(DFlit::priority);
            // Port allocation: oldest first takes a productive free port,
            // else any free port (a deflection).
            let mut used = [false; DIRS];
            for flit in kept {
                let wants = self.productive(r as u32, u32::from(flit.dst));
                let chosen = wants
                    .iter()
                    .copied()
                    .find(|&d| self.routers[r].out_wires[d].is_some() && !used[d])
                    .or_else(|| {
                        (0..DIRS).find(|&d| self.routers[r].out_wires[d].is_some() && !used[d])
                    })
                    .expect("flit count never exceeds router degree");
                if !wants.contains(&chosen) && !wants.is_empty() {
                    self.deflections += 1;
                }
                used[chosen] = true;
                self.routers[r].out_wires[chosen]
                    .as_mut()
                    .expect("chosen port exists")
                    .write(now, Some(flit));
            }
            // Idle ports must still clock their wires.
            #[allow(clippy::needless_range_loop)]
            for d in 0..DIRS {
                if !used[d] {
                    if let Some(w) = self.routers[r].out_wires[d].as_mut() {
                        w.write(now, None);
                    }
                }
            }
        }
        // Phase 3: reassembly and delivery.
        for (_, flit) in ejected {
            let idx = flit.pkt as usize;
            let complete = {
                let info = self.packets[idx].as_mut().expect("ejected unknown packet");
                info.arrived += 1;
                info.arrived == info.total
            };
            if complete {
                let info = self.packets[idx].take().expect("present");
                self.free.push(flit.pkt);
                self.in_flight_count -= 1;
                let hops = self.cfg.shape.mesh_hops(info.msg.src, info.msg.dst);
                let latency = now - info.inject;
                self.stats.record_delivery(
                    info.msg.class,
                    hops,
                    latency,
                    latency,
                    u32::from(info.total),
                );
                self.delivered_out.push(Delivery {
                    msg: info.msg,
                    at: Cycle(now),
                });
            }
        }
        self.stats.cycles += 1;
        self.next_cycle = now + 1;
    }
}

impl Network for DeflectionNetwork {
    fn inject(&mut self, msg: NetMessage, now: Cycle) {
        debug_assert!(now.0 >= self.next_cycle, "inject into the past");
        let total = msg.flits(self.cfg.flit_bytes) as u16;
        let (src, dst) = (msg.src.0, msg.dst.0);
        let pkt = self.alloc_packet(PacketInfo {
            msg,
            inject: now.0,
            total,
            arrived: 0,
        });
        for seq in 0..total {
            self.routers[src as usize].source.push_back(DFlit {
                pkt,
                seq,
                dst: dst as u16,
                born: now.0,
            });
        }
        self.stats.injected += 1;
        self.in_flight_count += 1;
    }

    fn tick(&mut self, now: Cycle) {
        while self.next_cycle <= now.0 {
            self.step();
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
    use ra_sim::MessageClass;

    fn msg(id: u64, src: u32, dst: u32, bytes: u32) -> NetMessage {
        NetMessage::new(id, NodeId(src), NodeId(dst), MessageClass::Request, bytes)
    }

    fn drain(net: &mut DeflectionNetwork, budget: u64) {
        let start = net.next_cycle;
        while net.in_flight() > 0 {
            assert!(net.next_cycle - start < budget, "deflection net stuck");
            net.step();
        }
    }

    #[test]
    fn rejects_degenerate_configs() {
        assert!(DeflectionNetwork::new(DeflectionConfig::new(1, 1)).is_err());
        let mut cfg = DeflectionConfig::new(4, 4);
        cfg.link_latency = 0;
        assert!(DeflectionNetwork::new(cfg).is_err());
    }

    #[test]
    fn single_flit_crosses_the_mesh() {
        let mut net = DeflectionNetwork::new(DeflectionConfig::new(4, 4)).unwrap();
        net.inject(msg(1, 0, 15, 8), Cycle(0));
        drain(&mut net, 1_000);
        let out = net.drain_delivered(Cycle(net.next_cycle));
        assert_eq!(out.len(), 1);
        // 6 productive hops at 2 cycles each (switch + link) minimum.
        assert!(out[0].at.0 >= 6);
        assert!(out[0].at.0 <= 40, "zero-load latency {} too high", out[0].at.0);
    }

    #[test]
    fn multi_flit_messages_reassemble() {
        let mut net = DeflectionNetwork::new(DeflectionConfig::new(4, 4)).unwrap();
        net.inject(msg(1, 0, 15, 72), Cycle(0)); // 5 flits
        drain(&mut net, 1_000);
        let out = net.drain_delivered(Cycle(net.next_cycle));
        assert_eq!(out.len(), 1, "delivery only on full reassembly");
        assert_eq!(net.stats().flits_delivered, 5);
    }

    #[test]
    fn every_pair_delivers() {
        let mut net = DeflectionNetwork::new(DeflectionConfig::new(4, 4)).unwrap();
        let mut id = 0;
        for s in 0..16 {
            for d in 0..16 {
                if s != d {
                    net.inject(msg(id, s, d, 8), Cycle(0));
                    id += 1;
                }
            }
        }
        drain(&mut net, 100_000);
        assert_eq!(net.stats().delivered, id);
    }

    #[test]
    fn contention_causes_deflections_but_no_loss() {
        let mut net = DeflectionNetwork::new(DeflectionConfig::new(4, 4)).unwrap();
        // Everyone sends to node 5: heavy contention at its ejection port.
        let mut id = 0;
        for round in 0..20u64 {
            for s in 0..16 {
                if s != 5 {
                    net.inject(msg(id, s, 5, 8), Cycle(round));
                    id += 1;
                }
            }
            net.tick(Cycle(round));
        }
        drain(&mut net, 100_000);
        assert_eq!(net.stats().delivered, id);
        assert!(net.deflections() > 0, "hotspot must cause deflections");
    }

    #[test]
    fn age_priority_prevents_starvation() {
        // Sustained random traffic: the maximum observed latency must stay
        // bounded (a starved flit would blow past this).
        let mut net = DeflectionNetwork::new(DeflectionConfig::new(4, 4)).unwrap();
        let mut rng = ra_sim::Pcg32::new(7, 1);
        let mut id = 0;
        for now in 0..5_000u64 {
            for s in 0..16 {
                if rng.chance(0.08) {
                    let mut d = rng.below(16);
                    if d == s {
                        d = (d + 1) % 16;
                    }
                    net.inject(msg(id, s, d, 8), Cycle(now));
                    id += 1;
                }
            }
            net.tick(Cycle(now));
        }
        drain(&mut net, 200_000);
        assert_eq!(net.stats().delivered, id);
        assert!(
            net.stats().latency.max() < 2_000.0,
            "worst-case latency {} suggests starvation",
            net.stats().latency.max()
        );
    }

    #[test]
    fn deterministic_across_runs() {
        fn run() -> (u64, f64, u64) {
            let mut net = DeflectionNetwork::new(DeflectionConfig::new(4, 4)).unwrap();
            let mut rng = ra_sim::Pcg32::new(3, 1);
            let mut id = 0;
            for now in 0..1_000u64 {
                for s in 0..16 {
                    if rng.chance(0.05) {
                        net.inject(msg(id, s, (s + 5) % 16, 24), Cycle(now));
                        id += 1;
                    }
                }
                net.tick(Cycle(now));
            }
            (net.stats().delivered, net.stats().latency.mean(), net.deflections())
        }
        assert_eq!(run(), run());
    }
}

//! Topology: router grid, port wiring, and routing functions.
//!
//! Ports of a router are numbered locals first, then the four mesh
//! directions: with concentration `L`, ports `0..L` are endpoint (NI) ports
//! and `L..L+4` are North, East, South, West. A directional port is both an
//! input and an output; output port `p` of one router is wired to the input
//! port of the opposite direction on the neighbouring router.

use ra_sim::{MeshShape, NodeId};

use crate::config::{NocConfig, TopologyKind};
use crate::fault::FaultEvent;
use crate::flit::Flit;

/// Directional port offsets (added to the number of local ports).
pub(crate) const NORTH: u32 = 0;
pub(crate) const EAST: u32 = 1;
pub(crate) const SOUTH: u32 = 2;
pub(crate) const WEST: u32 = 3;

/// Static wiring of the network: who talks to whom over which port.
///
/// Precomputed once at network construction; routers consult it read-only
/// every cycle, which keeps the per-cycle phases free of allocation and safe
/// to run in parallel.
#[derive(Debug, Clone)]
pub struct TopologyMap {
    node_shape: MeshShape,
    router_shape: MeshShape,
    concentration: u32,
    ports: u32,
    /// `link_dst[r * ports + p]` = the `(router, in_port)` that output port
    /// `p` of router `r` feeds, or `None` for local ports and mesh edges.
    link_dst: Vec<Option<(u32, u32)>>,
    /// Inverse map: which `(router, out_port)` feeds input port `p` of `r`.
    link_src: Vec<Option<(u32, u32)>>,
    /// Fault-aware next-hop table, present only when the configuration
    /// scripts permanent link faults:
    /// `detour[dst * routers + cur]` is the output port at `cur` on a
    /// shortest path to `dst` over the surviving links, or `u16::MAX` when
    /// `dst` is unreachable (or `cur == dst`).
    detour: Option<Vec<u16>>,
}

/// Sentinel in the detour table: no surviving path.
const NO_DETOUR: u16 = u16::MAX;

impl TopologyMap {
    /// Builds the wiring for a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; call
    /// [`NocConfig::validate`] first.
    pub fn new(cfg: &NocConfig) -> Self {
        cfg.validate().expect("invalid NoC configuration");
        let concentration = match cfg.topology {
            TopologyKind::CMesh { concentration } => concentration,
            TopologyKind::Mesh => 1,
        };
        let node_shape = cfg.shape;
        let router_shape = MeshShape::new(node_shape.cols() / concentration, node_shape.rows())
            .expect("router grid shape");
        let ports = concentration + 4;
        let n = router_shape.nodes();
        let mut map = TopologyMap {
            node_shape,
            router_shape,
            concentration,
            ports,
            link_dst: vec![None; n * ports as usize],
            link_src: vec![None; n * ports as usize],
            detour: None,
        };
        map.wire();
        // Permanent link faults are routed around.
        if cfg.faults.has_link_down() {
            map.build_detours(&cfg.faults);
        }
        map
    }

    /// Precomputes shortest next hops over the links that survive every
    /// scripted [`FaultEvent::LinkDown`]. The table is static: a link that
    /// dies at *any* point in the run is avoided from cycle 0 (paths are a
    /// little longer early on, but no packet is ever routed into a link
    /// that is about to disappear under it mid-journey).
    fn build_detours(&mut self, plan: &crate::fault::FaultPlan) {
        use std::collections::VecDeque;
        let n = self.routers();
        let mut dead = vec![false; n * self.ports as usize];
        for ev in plan.events() {
            if let FaultEvent::LinkDown { router, dir, .. } = *ev {
                if dir >= 4 {
                    continue;
                }
                let out = self.concentration + dir;
                if let Some((nr, in_port)) = self.link_dst(router, out) {
                    // A channel dies on both sides.
                    dead[(router * self.ports + out) as usize] = true;
                    dead[(nr * self.ports + in_port) as usize] = true;
                }
            }
        }
        let mut table = vec![NO_DETOUR; n * n];
        let mut dist = vec![u32::MAX; n];
        let mut queue = VecDeque::new();
        for d in 0..n as u32 {
            dist.fill(u32::MAX);
            dist[d as usize] = 0;
            queue.clear();
            queue.push_back(d);
            // BFS outward from the destination: when we first reach `v`
            // through its output port `q`, that port starts a shortest
            // surviving path v -> d.
            while let Some(u) = queue.pop_front() {
                for p in self.concentration..self.ports {
                    if dead[(u * self.ports + p) as usize] {
                        continue;
                    }
                    if let Some((v, q)) = self.link_src(u, p) {
                        if dead[(v * self.ports + q) as usize] {
                            continue;
                        }
                        if dist[v as usize] == u32::MAX {
                            dist[v as usize] = dist[u as usize] + 1;
                            table[d as usize * n + v as usize] = q as u16;
                            queue.push_back(v);
                        }
                    }
                }
            }
        }
        self.detour = Some(table);
    }

    /// Whether this topology routes around scripted permanent link faults.
    #[inline]
    pub fn has_detours(&self) -> bool {
        self.detour.is_some()
    }

    fn wire(&mut self) {
        let (cols, rows) = (self.router_shape.cols(), self.router_shape.rows());
        for r in 0..self.router_shape.nodes() as u32 {
            let (x, y) = self.router_shape.coords(NodeId(r));
            let neighbours = [
                (NORTH, (y + 1 < rows).then(|| (x, y + 1))),
                (EAST, (x + 1 < cols).then(|| (x + 1, y))),
                (SOUTH, (y > 0).then(|| (x, y - 1))),
                (WEST, (x > 0).then(|| (x - 1, y))),
            ];
            for (dir, nb) in neighbours {
                if let Some((nx, ny)) = nb {
                    let nr = self.router_shape.node_at(nx, ny).0;
                    let out_port = self.concentration + dir;
                    let in_port = self.concentration + opposite(dir);
                    self.link_dst[(r * self.ports + out_port) as usize] = Some((nr, in_port));
                    self.link_src[(nr * self.ports + in_port) as usize] = Some((r, out_port));
                }
            }
        }
    }

    /// Total number of routers.
    #[inline]
    pub fn routers(&self) -> usize {
        self.router_shape.nodes()
    }

    /// Ports per router (locals + 4 directions).
    #[inline]
    pub fn ports(&self) -> u32 {
        self.ports
    }

    /// Endpoints attached to each router.
    #[inline]
    pub fn concentration(&self) -> u32 {
        self.concentration
    }

    /// The router grid shape.
    #[inline]
    pub fn router_shape(&self) -> MeshShape {
        self.router_shape
    }

    /// The node (endpoint) grid shape.
    #[inline]
    pub fn node_shape(&self) -> MeshShape {
        self.node_shape
    }

    /// Maps an endpoint to its `(router, local_port)`.
    #[inline]
    pub fn node_router(&self, node: NodeId) -> (u32, u32) {
        let (x, y) = self.node_shape.coords(node);
        let rx = x / self.concentration;
        let local = x % self.concentration;
        (self.router_shape.node_at(rx, y).0, local)
    }

    /// Destination `(router, in_port)` of output `(router, port)`, if wired.
    #[inline]
    pub fn link_dst(&self, router: u32, port: u32) -> Option<(u32, u32)> {
        self.link_dst[(router * self.ports + port) as usize]
    }

    /// Source `(router, out_port)` feeding input `(router, port)`, if wired.
    #[inline]
    pub fn link_src(&self, router: u32, port: u32) -> Option<(u32, u32)> {
        self.link_src[(router * self.ports + port) as usize]
    }

    /// Router-to-router hop distance between two endpoints (the number of
    /// links a packet traverses, not counting injection/ejection).
    pub fn hops(&self, src: NodeId, dst: NodeId) -> usize {
        let (sr, _) = self.node_router(src);
        let (dr, _) = self.node_router(dst);
        self.router_shape.mesh_hops(NodeId(sr), NodeId(dr))
    }

    /// Largest hop distance in the network.
    pub fn diameter(&self) -> usize {
        self.router_shape.diameter()
    }

    /// The output port a head flit takes at `router`: dimension order, X
    /// first, then Y.
    ///
    /// When the configuration scripts permanent link faults, the
    /// precomputed detour table overrides dimension order so packets route
    /// around dead links; destinations cut off entirely fall back to
    /// dimension order (the flit is dropped at the dead link and counted
    /// in [`NocStats::faults`](crate::NocStats)).
    pub fn route(&self, router: u32, flit: &Flit) -> u32 {
        self.detour_route(router, flit)
            .unwrap_or_else(|| self.route_base(router, flit))
    }

    /// Looks up the fault-aware next hop, if a detour table exists and has
    /// a surviving path.
    fn detour_route(&self, router: u32, flit: &Flit) -> Option<u32> {
        let table = self.detour.as_ref()?;
        let port = table[usize::from(flit.dst_router) * self.routers() + router as usize];
        (port != NO_DETOUR).then_some(u32::from(port))
    }

    /// The baseline dimension-order port, ignoring any fault detours.
    pub fn route_base(&self, router: u32, flit: &Flit) -> u32 {
        let dr = u32::from(flit.dst_router);
        if router == dr {
            return u32::from(flit.dst_local);
        }
        let (cx, cy) = self.router_shape.coords(NodeId(router));
        let (dx, dy) = self.router_shape.coords(NodeId(dr));
        let dir = if cx != dx {
            if dx > cx {
                EAST
            } else {
                WEST
            }
        } else if dy > cy {
            NORTH
        } else {
            SOUTH
        };
        self.concentration + dir
    }
}

/// The opposite mesh direction.
const fn opposite(dir: u32) -> u32 {
    match dir {
        NORTH => SOUTH,
        SOUTH => NORTH,
        EAST => WEST,
        _ => EAST,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{Flit, FlitKind};

    fn head_to(topo: &TopologyMap, dst: NodeId) -> Flit {
        let (dst_router, dst_local) = topo.node_router(dst);
        Flit {
            pkt: 0,
            dst_router: dst_router as u16,
            dst_local: dst_local as u8,
            vnet: 0,
            kind: FlitKind::HeadTail,
            vc: 0,
        }
    }

    #[test]
    fn mesh_wiring_is_symmetric() {
        let cfg = NocConfig::new(4, 3);
        let topo = TopologyMap::new(&cfg);
        for r in 0..topo.routers() as u32 {
            for p in 0..topo.ports() {
                if let Some((nr, np)) = topo.link_dst(r, p) {
                    assert_eq!(topo.link_src(nr, np), Some((r, p)));
                }
            }
        }
    }

    #[test]
    fn mesh_edges_have_no_links() {
        let cfg = NocConfig::new(3, 3);
        let topo = TopologyMap::new(&cfg);
        // Router 0 is the south-west corner: no SOUTH/WEST links.
        assert!(topo.link_dst(0, 1 + SOUTH).is_none());
        assert!(topo.link_dst(0, 1 + WEST).is_none());
        assert!(topo.link_dst(0, 1 + NORTH).is_some());
        assert!(topo.link_dst(0, 1 + EAST).is_some());
    }

    #[test]
    fn xy_route_goes_x_first() {
        let cfg = NocConfig::new(4, 4);
        let topo = TopologyMap::new(&cfg);
        // From router 0 (0,0) to node 15 at (3,3): X first -> EAST.
        let flit = head_to(&topo, NodeId(15));
        assert_eq!(topo.route(0, &flit), 1 + EAST);
        // From router 3 (3,0) same dst: X done -> NORTH.
        assert_eq!(topo.route(3, &flit), 1 + NORTH);
    }

    #[test]
    fn route_at_destination_router_ejects() {
        let cfg = NocConfig::new(4, 4);
        let topo = TopologyMap::new(&cfg);
        let flit = head_to(&topo, NodeId(5));
        assert_eq!(topo.route(5, &flit), 0); // local port
    }

    #[test]
    fn cmesh_maps_nodes_to_shared_routers() {
        let cfg = NocConfig::new(8, 4).with_topology(TopologyKind::CMesh { concentration: 2 });
        let topo = TopologyMap::new(&cfg);
        assert_eq!(topo.routers(), 16);
        assert_eq!(topo.ports(), 6);
        assert_eq!(topo.node_router(NodeId(0)), (0, 0));
        assert_eq!(topo.node_router(NodeId(1)), (0, 1));
        assert_eq!(topo.node_router(NodeId(2)), (1, 0));
        // Nodes sharing a router are zero hops apart.
        assert_eq!(topo.hops(NodeId(0), NodeId(1)), 0);
    }

    #[test]
    fn detours_route_around_a_dead_link() {
        use crate::fault::FaultPlan;
        // Kill the east link of router 0 on a 4x4 mesh; XY would send
        // 0 -> 3 straight east through it.
        let cfg = NocConfig::new(4, 4)
            .with_faults(FaultPlan::new().kill_link(0, super::EAST, 0));
        let topo = TopologyMap::new(&cfg);
        assert!(topo.has_detours());
        for dst in [NodeId(3), NodeId(15)] {
            let flit = head_to(&topo, dst);
            let (mut r, _) = topo.node_router(NodeId(0));
            let mut steps = 0;
            loop {
                let d = topo.route(r, &flit);
                if d < topo.concentration() {
                    break;
                }
                assert!(
                    !(r == 0 && d == 1 + super::EAST),
                    "routed into the dead link"
                );
                let (nr, _) = topo.link_dst(r, d).expect("wired port");
                r = nr;
                steps += 1;
                assert!(steps <= 2 * topo.diameter(), "detour loop to {dst}");
            }
            // The detour may cost extra hops but must stay shortest over
            // the surviving graph: one extra dogleg at most here.
            assert!(steps <= topo.hops(NodeId(0), dst) + 2);
        }
    }

    #[test]
    fn unreachable_destination_falls_back_to_dimension_order() {
        use crate::fault::FaultPlan;
        // Isolate router 5 completely: no surviving path to it.
        let cfg = NocConfig::new(4, 4).with_faults(FaultPlan::new().isolate_router(5, 0));
        let topo = TopologyMap::new(&cfg);
        let flit = head_to(&topo, NodeId(5));
        let base = topo.route_base(0, &flit);
        assert_eq!(topo.route(0, &flit), base, "fallback must match XY");
        // Other pairs still detour fine around the hole.
        let flit = head_to(&topo, NodeId(10));
        let (mut r, _) = topo.node_router(NodeId(0));
        let mut steps = 0;
        while topo.route(r, &flit) >= topo.concentration() {
            let d = topo.route(r, &flit);
            assert_ne!(r, 5, "path may not cross the isolated router");
            let (nr, _) = topo.link_dst(r, d).expect("wired port");
            r = nr;
            steps += 1;
            assert!(steps <= 2 * topo.diameter());
        }
    }

    #[test]
    fn fault_free_plans_build_no_detour_table() {
        let topo = TopologyMap::new(&NocConfig::new(4, 4));
        assert!(!topo.has_detours());
    }

    #[test]
    fn routes_always_reach_destination() {
        // Walk every (src, dst) pair following route decisions; must arrive
        // within diameter hops.
        for cfg in [
            NocConfig::new(4, 4),
            NocConfig::new(8, 2).with_topology(TopologyKind::CMesh { concentration: 2 }),
        ] {
            let topo = TopologyMap::new(&cfg);
            for src in topo.node_shape().iter() {
                for dst in topo.node_shape().iter() {
                    let flit = head_to(&topo, dst);
                    let (mut r, _) = topo.node_router(src);
                    let mut steps = 0;
                    loop {
                        let d = topo.route(r, &flit);
                        if d < topo.concentration() {
                            assert_eq!(d, flit.dst_local as u32);
                            break;
                        }
                        let (nr, _) = topo.link_dst(r, d).expect("route chose an unwired port");
                        r = nr;
                        steps += 1;
                        assert!(steps <= topo.diameter(), "route loop {src}->{dst}");
                    }
                    assert_eq!(steps, topo.hops(src, dst), "hop count {src}->{dst}");
                }
            }
        }
    }
}

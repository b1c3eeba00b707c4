//! Hop-distance metrics for abstract models.

use ra_sim::{MeshShape, NodeId};

/// How an abstract model measures distance between endpoints.
///
/// Mirrors the distances of `ra-noc`'s topologies without depending on the
/// cycle-level simulator (an integration test in the workspace root checks
/// the two stay consistent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HopMetric {
    /// Manhattan distance on a mesh of the given node shape.
    Mesh(MeshShape),
    /// Concentrated mesh: distance between the routers serving each node.
    CMesh {
        /// Node grid shape.
        shape: MeshShape,
        /// Endpoints per router (divides the column count).
        concentration: u32,
    },
    /// Hierarchical chiplet system: `islands` mesh dies joined by an
    /// interposer. Intra-island pairs use the island's Manhattan
    /// distance, `[0, D]`; cross-island pairs count both gateway legs
    /// (gateway = island-local node 0) plus one interposer hop, offset
    /// into the disjoint band `[D+1, 3D+1]` so the calibrated model can
    /// fit on-die and cross-die latency separately.
    Chiplet {
        /// Number of islands.
        islands: u32,
        /// Shape of one island (island `i` owns global node ids
        /// `[i * island.nodes(), (i + 1) * island.nodes())`).
        island: MeshShape,
    },
}

impl HopMetric {
    /// Router-to-router hop count between two endpoints.
    pub fn hops(&self, src: NodeId, dst: NodeId) -> usize {
        match *self {
            HopMetric::Mesh(shape) => shape.mesh_hops(src, dst),
            HopMetric::CMesh {
                shape,
                concentration,
            } => {
                let (sx, sy) = shape.coords(src);
                let (dx, dy) = shape.coords(dst);
                ((sx / concentration).abs_diff(dx / concentration) + sy.abs_diff(dy)) as usize
            }
            HopMetric::Chiplet { island, .. } => {
                let per = island.nodes() as u32;
                let (si, sl) = (src.0 / per, NodeId(src.0 % per));
                let (di, dl) = (dst.0 / per, NodeId(dst.0 % per));
                if si == di {
                    island.mesh_hops(sl, dl)
                } else {
                    let gw = NodeId(0);
                    island.diameter() + 1 + island.mesh_hops(sl, gw) + island.mesh_hops(gw, dl)
                }
            }
        }
    }

    /// Largest hop distance in the network.
    pub fn diameter(&self) -> usize {
        match *self {
            HopMetric::Mesh(shape) => shape.diameter(),
            HopMetric::CMesh {
                shape,
                concentration,
            } => (shape.cols() / concentration) as usize - 1 + shape.rows() as usize - 1,
            HopMetric::Chiplet { island, .. } => 3 * island.diameter() + 1,
        }
    }

    /// Number of endpoints.
    pub fn nodes(&self) -> usize {
        match *self {
            HopMetric::Mesh(shape) | HopMetric::CMesh { shape, .. } => shape.nodes(),
            HopMetric::Chiplet { islands, island } => islands as usize * island.nodes(),
        }
    }

    /// For a chiplet, the hop distance separating on-die pairs
    /// (`hops <= split`) from cross-die pairs; `None` otherwise.
    pub fn cross_split(&self) -> Option<usize> {
        match *self {
            HopMetric::Chiplet { island, .. } => Some(island.diameter()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_metric_is_manhattan() {
        let m = HopMetric::Mesh(MeshShape::new(4, 4).unwrap());
        assert_eq!(m.hops(NodeId(0), NodeId(15)), 6);
        assert_eq!(m.diameter(), 6);
        assert_eq!(m.nodes(), 16);
    }

    #[test]
    fn chiplet_metric_bands_are_disjoint() {
        let m = HopMetric::Chiplet {
            islands: 2,
            island: MeshShape::new(4, 4).unwrap(),
        };
        assert_eq!(m.nodes(), 32);
        assert_eq!(m.cross_split(), Some(6));
        assert_eq!(m.diameter(), 3 * 6 + 1);
        // Intra-island: plain Manhattan on local ids.
        assert_eq!(m.hops(NodeId(0), NodeId(15)), 6);
        assert_eq!(m.hops(NodeId(16), NodeId(31)), 6);
        // Cross-island gateway-to-gateway is the band floor.
        assert_eq!(m.hops(NodeId(0), NodeId(16)), 7);
        // Worst case: far corner to far corner through both gateways.
        assert_eq!(m.hops(NodeId(15), NodeId(31)), 19);
        for s in 0..32u32 {
            for d in 0..32u32 {
                let h = m.hops(NodeId(s), NodeId(d));
                if s / 16 == d / 16 {
                    assert!(h <= 6);
                } else {
                    assert!((7..=19).contains(&h));
                }
            }
        }
    }

    #[test]
    fn cmesh_metric_shares_routers() {
        let m = HopMetric::CMesh {
            shape: MeshShape::new(8, 4).unwrap(),
            concentration: 2,
        };
        assert_eq!(m.hops(NodeId(0), NodeId(1)), 0);
        assert_eq!(m.hops(NodeId(0), NodeId(2)), 1);
        assert_eq!(m.diameter(), 6);
    }
}
